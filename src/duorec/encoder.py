"""Causal Transformer sequence encoder with a dual dropout-twin forward.

Item embeddings plus a learned positional matrix feed an L-layer
multi-head self-attention stack (post-norm, causal mask, pad keys masked
out). The representation of a user sequence is the hidden vector at the
last (most recent) position. ``encode_twins`` runs the same weights under
independent dropout streams to produce the augmented views used by the
contrastive regularizer.

Only the last position leaves the stack, so the final layer computes keys
and values at every position but queries, attention, the output
projection, both layer norms and the feed-forward network at the last
position alone: B rows instead of B*N. Its dropout masks are still drawn at
the full-sequence shape and sliced to that row, so every stream advances,
and every mask value that reaches the output is the one the full
computation would use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor
from .data import PAD_INDEX, Batch
from .rng import RngStream

NEG_INF = -1e30


@dataclass
class EncoderConfig:
    vocab_size: int
    d: int = 64
    layers: int = 2
    heads: int = 2
    max_len: int = 50
    emb_dropout: float = 0.1
    hidden_dropout: float = 0.1

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")


@dataclass
class EncoderParams:
    config: EncoderConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def named(self):
        return self.tensors.items()

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def init_params(config: EncoderConfig, stream: RngStream) -> EncoderParams:
    """Truncated-normal (std 0.02) weights, zero biases, unit layer-norm gains."""
    p = EncoderParams(config)

    def tn(name: str, shape):
        n = int(np.prod(shape))
        data = stream.child(f"init.{name}").truncated_normal(n, 0.02).reshape(shape)
        p.tensors[name] = Tensor(data, requires_grad=True)

    def const(name: str, shape, value: float):
        p.tensors[name] = Tensor(np.full(shape, value), requires_grad=True)

    tn("item_emb", (config.vocab_size, config.d))
    p.tensors["item_emb"].data[PAD_INDEX] = 0.0
    tn("pos_emb", (config.max_len, config.d))
    for layer in range(config.layers):
        for w in ("wq", "wk", "wv", "wo"):
            tn(f"layer{layer}.{w}", (config.d, config.d))
        tn(f"layer{layer}.ffn_w1", (config.d, 4 * config.d))
        const(f"layer{layer}.ffn_b1", (4 * config.d,), 0.0)
        tn(f"layer{layer}.ffn_w2", (4 * config.d, config.d))
        const(f"layer{layer}.ffn_b2", (config.d,), 0.0)
        const(f"layer{layer}.ln1_gain", (config.d,), 1.0)
        const(f"layer{layer}.ln1_bias", (config.d,), 0.0)
        const(f"layer{layer}.ln2_gain", (config.d,), 1.0)
        const(f"layer{layer}.ln2_bias", (config.d,), 0.0)
    return p


def embed(item_ids: np.ndarray, params: EncoderParams, stream: RngStream) -> Tensor:
    """Item embedding + positional row per slot, then embedding dropout."""
    cfg = params.config
    b, n = item_ids.shape
    v = ad.gather_rows(params["item_emb"], item_ids)          # [B, N, d]
    pos = ad.gather_rows(params["pos_emb"], np.arange(n))     # [N, d]
    h0 = ad.add(v, ad.reshape(pos, (1, n, cfg.d)))
    return ad.dropout(h0, cfg.emb_dropout, stream.child("emb"))


def _attention_mask(item_ids: np.ndarray) -> np.ndarray:
    """[B, 1, N, N] additive mask: causal plus pad-key removal."""
    b, n = item_ids.shape
    causal = np.triu(np.full((n, n), NEG_INF), k=1)
    mask = np.broadcast_to(causal, (b, 1, n, n)).copy()
    pad_key = item_ids == PAD_INDEX                            # [B, N]
    mask += np.where(pad_key, NEG_INF, 0.0)[:, None, None, :]
    # a fully masked row (pad query) would be all -inf; keep self-attention open
    eye = np.eye(n, dtype=bool)
    mask[:, 0][np.broadcast_to(eye, (b, n, n)) & (mask[:, 0] <= NEG_INF)] = 0.0
    return mask


def encode(h0: Tensor, item_ids: np.ndarray, params: EncoderParams,
           stream: RngStream) -> Tensor:
    """Run the attention stack; return last-position vectors [B, d]."""
    cfg = params.config
    b, n, d = h0.shape
    h = ad.reshape(h0, (b * n, d))
    if cfg.layers == 0:
        return ad.gather_rows(h, np.arange(n - 1, b * n, n))
    mask = _attention_mask(item_ids)
    for layer in range(cfg.layers):
        h = _block(h, b, n, mask, params, layer, stream.child(f"layer{layer}"),
                   last_only=layer == cfg.layers - 1)
    return h


def _block(h: Tensor, b: int, n: int, mask: np.ndarray, params: EncoderParams,
           layer: int, stream: RngStream, last_only: bool) -> Tensor:
    """One post-norm attention + feed-forward block over h [B*N, d].

    With ``last_only``, keys and values still cover all N positions, but the
    queries and everything after them run on each sequence's last position
    only, and the block returns [B, d]. Dropout masks are drawn at the
    full B*N-position shapes either way and sliced to the rows computed.
    """
    cfg = params.config
    d, nh = cfg.d, cfg.heads
    dh = d // nh
    rate = cfg.hidden_dropout

    def w(name: str) -> Tensor:
        return params[f"layer{layer}.{name}"]

    def split_heads(x: Tensor, m: int) -> Tensor:             # [B*m, d] -> [B, nh, m, dh]
        return ad.transpose(ad.reshape(x, (b, m, nh, dh)), (0, 2, 1, 3))

    if last_only:
        rows = np.arange(n - 1, b * n, n)
        hq, m = ad.gather_rows(h, rows), 1
        mask, att_index = mask[:, :, n - 1:], np.s_[:, :, n - 1:]
    else:
        rows = att_index = None
        hq, m = h, n
    q = split_heads(ad.matmul(hq, w("wq")), m)
    k = split_heads(ad.matmul(h, w("wk")), n)
    v = split_heads(ad.matmul(h, w("wv")), n)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    att = ad.softmax_rows(ad.add(scores, mask))               # [B, nh, m, N]
    att = ad.dropout(att, rate, stream.child("att"), (b, nh, n, n), att_index)
    ctx = ad.reshape(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), (b * m, d))
    out = ad.dropout(ad.matmul(ctx, w("wo")), rate, stream.child("attout"), (b * n, d), rows)
    x = ad.layer_norm(ad.add(hq, out), w("ln1_gain"), w("ln1_bias"))
    f1 = ad.gelu(ad.add(ad.matmul(x, w("ffn_w1")), w("ffn_b1")))
    f2 = ad.add(ad.matmul(f1, w("ffn_w2")), w("ffn_b2"))
    f2 = ad.dropout(f2, rate, stream.child("ffn"), (b * n, d), rows)
    return ad.layer_norm(ad.add(x, f2), w("ln2_gain"), w("ln2_bias"))


def encode_sequence(item_ids: np.ndarray, params: EncoderParams,
                    stream: RngStream) -> Tensor:
    """Full embed + encode pass under one dropout stream; returns [B, d]."""
    h0 = embed(item_ids, params, stream)
    return encode(h0, item_ids, params, stream.child("trm"))


def encode_twins(batch: Batch, params: EncoderParams, base_stream: RngStream):
    """Anchor pass plus two independently-masked augmented passes.

    Returns (h, h_prime, h_prime_s): the anchor representation, its
    dropout twin (same input, fresh masks), and the encoded same-target
    partner sequence (third independent mask set).
    """
    h = encode_sequence(batch.item_ids, params, base_stream.child("anchor"))
    h_prime = encode_sequence(batch.item_ids, params, base_stream.child("twin"))
    h_prime_s = encode_sequence(batch.positive_ids, params, base_stream.child("partner"))
    return h, h_prime, h_prime_s
