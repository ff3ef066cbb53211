"""Causal Transformer sequence encoder with a dual dropout-twin forward.

Item embeddings plus a learned positional matrix feed an L-layer
multi-head self-attention stack (post-norm, causal mask, pad keys masked
out). The representation of a user sequence is the hidden vector at the
last (most recent) position. ``encode_twins`` runs the same weights under
independent dropout streams to produce the augmented views used by the
contrastive regularizer.

Inputs are left-padded windows, mostly padding, and no real position ever
reads a pad position's result, so a pass computes only the positions of
one [B, N] bool mask that ``encode_sequence`` builds: every real position
plus each window's last (an all-pad window still yields one vector). The
rest of the layout comes from that mask. Its M positions, in row-major
order, are the packed rows: ``embed`` gathers item and positional rows at
those alone, and every layer runs on them: projections, residuals, layer
norms and the feed-forward network take [M, d]. Only the last position
leaves the stack, so the final layer's queries and everything after them
run on B rows.

Attention packs the rows into lanes (``_lanes``, built once per pass from
the window lengths and shared by every layer but the last). A lane is one
[N, N] attention block that holds one window, or a short and a long one
whose packed rows fit in N slots together: windows are sorted by length
and the shortest left is paired with the longest whenever the two fit.
One recorded op per projection, ``autodiff.split_heads``, places its rows
at each row's slot of a zeroed [n_lanes*N, d] table and views that table
as [n_lanes, nh, N, dh] heads ([n_lanes, nh, dh, N] for the keys), and
one [n_lanes, 1, N, N] mask lets a slot attend only its own window's slots
up to itself (``_lane_mask``). So scores, softmax and attention dropout run
over [n_lanes, nh, N, N], about half of the padded [B, nh, N, N] when
windows are half full, and ``autodiff.merge_heads`` reads the context's
packed rows straight from its heads. The final layer keeps the padded
[B, nh, N, dh] keys for its B last-position queries, under the mask's
[B, 1, 1, N] additive form.

Every dropout draws its mask over the array it drops.

A block is two halves, ``_attend`` (attention, dropout, residual and layer
norm) and ``_feed_forward``, and under ``no_grad`` each array is freed after
its last reader. ``encode_sequence`` hands the embedding to ``encode``
without keeping it; ``encode`` drops each block's input once its attention
half returns, and the lanes once the last lane layer's attention has run;
the attention drops its query and key heads with the scores' product, the
scores with the softmax and the weights with the context's product; the
context and the attention half's output die when the half returns. So a
feed-forward network runs beside its input alone, and an eval pass peaks
at the FFN's two [M, 4d] arrays and that input. The feed-forward products
add their biases in place (``matmul``'s ``bias``), and the scores are
scaled and masked inside ``softmax_rows``.

The encoder runs in its weights' dtype: float32 weights give float32
activations, attention mask included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import NEG_INF, ShapeError, Tensor
from .data import PAD_INDEX, Batch
from .rng import RngStream

if TYPE_CHECKING:                   # trainer imports this module
    from .trainer import TrainConfig


@dataclass
class EncoderParams:
    """The weights and the run config that shaped them (d, layers, heads,
    max_len and the dropout rates are read from it)."""
    config: TrainConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return self.tensors["item_emb"].shape[0]

    def named(self):
        return self.tensors.items()

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def param_shapes(config: TrainConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in creation order."""
    d = config.d
    block = {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
             "ffn_w1": (d, 4 * d), "ffn_b1": (4 * d,), "ffn_w2": (4 * d, d), "ffn_b2": (d,),
             "ln1_gain": (d,), "ln1_bias": (d,), "ln2_gain": (d,), "ln2_bias": (d,)}
    shapes = {"item_emb": (vocab_size, d), "pos_emb": (config.max_len, d)}
    for layer in range(config.layers):
        shapes |= {f"layer{layer}.{name}": shape for name, shape in block.items()}
    return shapes


def init_params(config: TrainConfig, vocab_size: int, stream: RngStream) -> EncoderParams:
    """Truncated-normal (std 0.02) matrices, zero biases, unit layer-norm gains."""
    p = EncoderParams(config)
    for name, shape in param_shapes(config, vocab_size).items():
        if len(shape) == 2:
            n = int(np.prod(shape))
            data = stream.child(f"init.{name}").truncated_normal(n, 0.02).reshape(shape)
        else:
            data = np.full(shape, 1.0 if name.endswith("_gain") else 0.0)
        p.tensors[name] = Tensor(data, requires_grad=True)
    p["item_emb"].data[PAD_INDEX] = 0.0
    return p


def embed(item_ids: np.ndarray, computed: np.ndarray, params: EncoderParams,
          stream: RngStream) -> Tensor:
    """Item embedding + positional row at the ``computed`` [B, N] positions
    alone, then embedding dropout: [M, d], one row per position, row-major."""
    cfg = params.config
    v = ad.gather_rows(params["item_emb"], item_ids[computed])            # [M, d]
    pos = ad.gather_rows(params["pos_emb"], np.nonzero(computed)[1])      # [M, d]
    return ad.dropout(ad.add(v, pos), cfg.emb_dropout, stream.child("emb"))


def _lanes(length: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lane layout of B windows of N with ``length`` [B] packed rows each,
    held in window order: (slots, owner).

    A window's length counts its real positions and its last one, so it is
    1 for an all-pad window. Windows are sorted stably by length and
    paired from both ends: while two are left, the longest is
    paired with the shortest if their lengths sum to at most N, and takes a
    lane alone otherwise; a last one left takes a lane alone. That forms as
    many pairs as any pairing can. The pairs' lanes come first, the shorter
    window at its start; each window's rows sit contiguously and in order.

    ``slots`` [M] is each packed row's slot in the flat [n_lanes*N] layout,
    all distinct. ``owner`` [n_lanes, N] holds the window at each slot and
    a distinct negative number at each empty one.
    """
    b = len(length)
    window = np.repeat(np.arange(b), length)    # each packed row's window
    order = np.argsort(length, kind="stable")
    sorted_len = length[order].tolist()
    short, long, alone = [], [], []             # places in ``order``
    lo, hi = 0, b - 1
    while lo <= hi:
        if lo < hi and sorted_len[lo] + sorted_len[hi] <= n:
            short.append(lo)
            long.append(hi)
            lo += 1
        else:
            alone.append(hi)
        hi -= 1
    short, long, alone = order[short], order[long], order[alone]
    first = np.concatenate([short, alone])      # the window at each lane's start
    lane, offset = np.empty(b, dtype=np.int64), np.zeros(b, dtype=np.int64)
    lane[first] = np.arange(len(first))
    lane[long] = np.arange(len(long))
    offset[long] = length[short]
    start = np.cumsum(length) - length          # each window's first packed row
    slots = (lane * n + offset - start)[window] + np.arange(len(window))
    owner = -1 - np.arange(len(first) * n)
    owner[slots] = window
    return slots, owner.reshape(len(first), n)


def _lane_mask(owner: np.ndarray, dtype=np.float64) -> np.ndarray:
    """[n_lanes, 1, N, N] additive mask in ``dtype`` for the lanes ``owner``
    describes: each slot attends the slots of its own window up to itself,
    so an empty slot attends itself alone."""
    n = owner.shape[1]
    dtype = np.dtype(dtype).type
    allowed = owner[:, :, None] == owner[:, None, :]
    allowed &= np.tri(n, dtype=bool)
    return np.where(allowed[:, None], dtype(0), dtype(NEG_INF))


class _Layout(NamedTuple):
    """Where an attention places the packed rows: at ``slots`` of a
    [groups*N, d] table, under the additive ``mask``."""
    slots: np.ndarray
    groups: int
    mask: np.ndarray


def encode(h: Tensor, computed: np.ndarray, params: EncoderParams,
           stream: RngStream) -> Tensor:
    """Run the attention stack on the packed rows ``h`` [M, d] at the
    ``computed`` [B, N] positions, which hold each window's last; return
    last-position vectors [B, d].

    Each layer's input is dropped once its attention half has read it, and
    the lanes once the last lane layer's attention has, so under ``no_grad``
    neither lives through a feed-forward network.
    """
    cfg = params.config
    b, n = computed.shape
    length = np.count_nonzero(computed, axis=1)
    dtype = h.data.dtype.type
    if cfg.layers > 1:
        slots, owner = _lanes(length, n)
        lanes = _Layout(slots, len(owner), _lane_mask(owner, dtype))
    for layer in range(cfg.layers - 1):
        layer_stream = stream.child(f"layer{layer}")
        h = _attend(h, None, n, lanes, params, layer, layer_stream)
        if layer == cfg.layers - 2:
            del lanes                       # its mask's last reader has run
        h = _feed_forward(h, params, layer, layer_stream)
    layer = cfg.layers - 1
    layer_stream = stream.child(f"layer{layer}")
    final_mask = np.where(computed, dtype(0), dtype(NEG_INF))[:, None, None, :]
    final = _Layout(np.flatnonzero(computed), b, final_mask)
    h = _attend(h, np.cumsum(length) - 1, n, final, params, layer, layer_stream)
    return _feed_forward(h, params, layer, layer_stream)


def _attend(h: Tensor, last: np.ndarray | None, n: int, layout: _Layout,
            params: EncoderParams, layer: int, stream: RngStream) -> Tensor:
    """The attention half of one post-norm block on packed rows:
    ``layer_norm(hq + dropout(attention))``.

    ``h`` [M, d] holds the packed rows and ``layout`` the attention's
    placement of them. ``hq`` is ``h``, or, given ``last`` (the index in
    ``h`` of each sequence's last position), those positions' rows, [B, d]:
    then the queries and everything after them run on those B rows only.
    The attention's output is dropped when this returns.
    """
    hq = h if last is None else ad.gather_rows(h, last)
    att = _attention(h, hq, n, layout, params, layer, stream, last is not None)
    att = ad.dropout(att, params.config.hidden_dropout, stream.child("attout"))
    return ad.layer_norm(ad.add(hq, att), params[f"layer{layer}.ln1_gain"],
                         params[f"layer{layer}.ln1_bias"])


def _feed_forward(x: Tensor, params: EncoderParams, layer: int, stream: RngStream) -> Tensor:
    """The feed-forward half of one post-norm block: ``layer_norm(x +
    dropout(ffn(x)))``, with ``x`` the attention half's output."""
    def w(name: str) -> Tensor:
        return params[f"layer{layer}.{name}"]

    f2 = ad.matmul(ad.gelu(ad.matmul(x, w("ffn_w1"), w("ffn_b1"))), w("ffn_w2"), w("ffn_b2"))
    f2 = ad.dropout(f2, params.config.hidden_dropout, stream.child("ffn"))
    return ad.layer_norm(ad.add(x, f2), w("ln2_gain"), w("ln2_bias"))


def _attention(h: Tensor, hq: Tensor, n: int, layout: _Layout, params: EncoderParams,
               layer: int, stream: RngStream, last_only: bool) -> Tensor:
    """Multi-head self-attention of ``_attend``, through the output projection.

    Keys and values come from the packed rows ``h``, split into heads at
    ``layout.slots`` of the [G, nh, N, dh] layout (``autodiff.split_heads``):
    G lanes in every layer but the last (``_lanes``), the B padded windows
    in the last. Queries come from ``hq``: with ``last_only`` each window's
    last row, [B, nh, 1, dh]; otherwise ``h``, split like the keys, and the
    context's rows are merged back from the slots (``autodiff.merge_heads``).
    Returns one row per row of ``hq``. The attention dropout draws over the
    [G, nh, N, N] weights, or with ``last_only`` over the [B, nh, 1, N] ones.

    Each array is dropped after its last reader: the queries and keys with
    the scores' product, the scores with the softmax, the weights with the
    context's product.
    """
    cfg = params.config
    nh, g = cfg.heads, layout.groups

    def w(name: str) -> Tensor:
        return params[f"layer{layer}.{name}"]

    def heads(name: str, keys: bool = False) -> Tensor:     # [G, nh, N, dh] or [G, nh, dh, N]
        return ad.split_heads(ad.matmul(h, w(name)), nh, g, n, layout.slots, keys)

    def queries() -> Tensor:
        if last_only:
            return ad.split_heads(ad.matmul(hq, w("wq")), nh, g, 1)
        return heads("wq")

    scale = 1.0 / np.sqrt(cfg.d // nh)
    att = ad.softmax_rows(ad.matmul(queries(), heads("wk", keys=True)), scale, layout.mask)
    att = ad.dropout(att, cfg.hidden_dropout, stream.child("att"))  # [G, nh, 1 or N, N]
    ctx = ad.matmul(att, heads("wv"))                                # [G, nh, 1 or N, dh]
    del att
    return ad.matmul(ad.merge_heads(ctx, None if last_only else layout.slots), w("wo"))


def encode_sequence(item_ids: np.ndarray, params: EncoderParams,
                    stream: RngStream) -> Tensor:
    """Full embed + encode pass under one dropout stream; returns [B, d].

    ``item_ids`` must be [B, max_len]: position j of a window reads
    positional row j, so any other width would misplace or overrun them.
    """
    if np.ndim(item_ids) != 2 or np.shape(item_ids)[1] != params.config.max_len:
        raise ShapeError(f"windows must be [B, max_len={params.config.max_len}], "
                         f"got {np.shape(item_ids)}")
    computed = item_ids != PAD_INDEX
    computed[:, -1] = True
    # no name holds the embedding, so encode drops it after the first attention
    return encode(embed(item_ids, computed, params, stream), computed, params,
                  stream.child("trm"))


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
