"""Training orchestration: config, Adam, the epoch loop, checkpointing.

One training step encodes the anchor and the positive pair of its mode, scores
the next item against the (tied) item embedding matrix, adds the weighted
contrastive regularizer, backpropagates, and applies a bias-corrected
Adam update with the pad embedding row pinned to zero. Model selection is
validation HR@5 with early stopping.

Training steps run in float32 by default: the weights (drawn in float64,
then rounded), the activations, the gradients and Adam's moments.
Everything that reads a trained model runs in float64: ``evaluate`` upcasts
the weights it is given, and ``train`` hands back its checkpoint and final
weights upcast, so they are the float32 values exactly.

A checkpoint is the model alone: the best-validation weights, their epoch
and score. The weights carry the run's ``TrainConfig`` (``params.config``),
the one config a checkpoint stores. Adam's moments and the data stream's
position are not saved, so a checkpoint is read, not resumed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigError, Tensor, no_grad
from .contrastive import (POSITIVE_MODES, assemble, combined_loss,
                          contrastive_views, nce_regularizer)
from .data import (PAD_INDEX, EmptyDatasetError, SplitDataset, build_target_index,
                   iter_epoch)
from .encoder import EncoderParams, encode_sequence, init_params, param_shapes
from .metrics import EvalReport, alignment, rank_full_catalog, report, uniformity
from .rng import RngStream

MAGIC = b"DUO2"
EVAL_BATCH = 256


# a field's annotation -> the values it takes; bool is rejected everywhere
_FIELD_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "str": (str, "a string")}


@dataclass
class TrainConfig:
    d: int = 64
    layers: int = 2
    heads: int = 2
    max_len: int = 50
    batch_size: int = 256
    lr: float = 0.001
    lam: float = 0.2                # "lambda" in a config (a Python keyword)
    tau: float = 1.0
    emb_dropout: float = 0.1
    hidden_dropout: float = 0.1
    positive_mode: str = "duo"
    epochs: int = 100
    seed: int = 42
    early_stop_patience: int = 10

    def __post_init__(self):
        for key, f in self.fields_by_key().items():
            v = getattr(self, f.name)
            want, noun = _FIELD_TYPES[f.type]
            if isinstance(v, bool) or not isinstance(v, want):
                raise ConfigError(f"{key} must be {noun}, got {v!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        if self.positive_mode not in POSITIVE_MODES:
            raise ConfigError(f"positive_mode must be one of {POSITIVE_MODES}")
        for name in ("emb_dropout", "hidden_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ConfigError(f"{name} must be in [0, 0.5], got {v}")
        for name in ("d", "heads", "layers", "epochs", "batch_size", "max_len",
                     "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")

    @classmethod
    def fields_by_key(cls) -> dict[str, dataclasses.Field]:
        """Each field under its key in a config: its name, "lambda" for ``lam``."""
        return {"lambda" if f.name == "lam" else f.name: f for f in dataclasses.fields(cls)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object of keys and values, got {d!r}")
        fields = cls.fields_by_key()
        unknown = set(d) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{fields[key].name: v for key, v in d.items()})

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        """The config in the JSON file ``path``; malformed JSON, an unknown key
        and a bad value raise ``ConfigError``, each naming ``path``."""
        with open(path) as f:
            try:
                d = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: "
                                  f"{exc.msg}") from None
        try:
            return cls.from_dict(d)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def to_dict(self) -> dict:
        return {key: getattr(self, f.name) for key, f in self.fields_by_key().items()}


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8   # moment decays, denominator offset


class Adam:
    """Bias-corrected Adam over the named parameter tensors."""

    def __init__(self, params: EncoderParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.named()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.named()}

    def step(self, params: EncoderParams) -> None:
        self.t += 1
        for name, tensor in params.named():
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            if g.shape != tensor.data.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            self.m[name] = ADAM_B1 * self.m[name] + (1 - ADAM_B1) * g
            self.v[name] = ADAM_B2 * self.v[name] + (1 - ADAM_B2) * g * g
            m_hat = self.m[name] / (1 - ADAM_B1 ** self.t)
            v_hat = self.v[name] / (1 - ADAM_B2 ** self.t)
            tensor.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if name == "item_emb":      # elementwise: the pad row's moments move it alone
                tensor.data[PAD_INDEX] = 0.0

    def zero_grad(self, params: EncoderParams) -> None:
        for _, tensor in params.named():
            tensor.zero_grad()


@dataclass
class Checkpoint:
    params: EncoderParams
    epoch: int
    best_valid_hr5: float


def evaluate(params: EncoderParams, ids: np.ndarray, targets: np.ndarray,
             ks=(5, 10)) -> EvalReport:
    """Full-catalog ranking of held-out targets, dropout off.

    ``ids`` [U, N] are left-padded inputs, as ``SplitDataset.window`` makes.
    Weights of any dtype are encoded and ranked in float64, upcast exactly.
    No users to rank (every user has fewer than 3 items) raises
    EmptyDatasetError: HR and NDCG over no users are undefined.
    """
    if len(targets) == 0:
        raise EmptyDatasetError("no users to evaluate: every user has fewer than 3 items")
    params = _as_dtype(params, np.float64, dataclasses.replace(
        params.config, emb_dropout=0.0, hidden_dropout=0.0))
    ranks: list[np.ndarray] = []
    dummy = RngStream(0, "eval")
    with no_grad():
        for start in range(0, len(targets), EVAL_BATCH):
            rows = slice(start, start + EVAL_BATCH)
            h = encode_sequence(ids[rows], params, dummy)
            ranks.append(rank_full_catalog(h.data, params["item_emb"].data, targets[rows]))
    return report(np.concatenate(ranks), ks)


@dataclass
class TrainResult:
    checkpoint: Checkpoint          # best validation HR@5 state
    curves: list[dict]
    diverged: bool = False
    final_params: EncoderParams | None = None   # weights at the last epoch run


def train_step(batch, params: EncoderParams, config: TrainConfig,
               step_stream: RngStream):
    """Forward both loss terms for one batch; returns the loss bundle and views.

    With lam == 0 only the anchor is encoded (plain next-item training):
    the views are None and the regularizer is a zero in the weights' dtype.
    """
    if config.lam == 0.0:
        h = encode_sequence(batch.item_ids, params, step_stream.child("anchor"))
        view_a = view_b = None
        reg = Tensor(np.zeros((), dtype=params["item_emb"].data.dtype))
    else:
        h, view_a, view_b = contrastive_views(config.positive_mode, batch, params, step_stream)
        reg = nce_regularizer(assemble(view_a, view_b, batch.collision_mask, config.tau))
    logits = ad.matmul(h, ad.transpose(params["item_emb"], (1, 0)))
    rec = ad.cross_entropy_from_logits(logits, batch.targets)
    return combined_loss(rec, reg, config.lam), h, view_a, view_b


def train(config: TrainConfig, data: SplitDataset, *, dtype=np.float32) -> TrainResult:
    """Train in ``dtype``; the checkpoint and ``final_params`` are float64.

    The initial weights are the float64 draws rounded to ``dtype``.
    float64 training is the reference the float32 default is tested against.
    """
    if len(data.train) == 0:
        raise ValueError("empty training set")
    if data.max_len != config.max_len:
        raise ConfigError(f"split max_len {data.max_len} != config max_len {config.max_len}")
    root = RngStream(config.seed, "run")
    params = _as_dtype(init_params(config, data.vocab.size, root), dtype, config)
    optimizer = Adam(params, lr=config.lr)
    index = build_target_index(data.items[data.train])
    data_stream = root.child("data")

    curves: list[dict] = []
    best_hr5 = -1.0
    best_params = _as_dtype(params, np.float64, config)
    best_epoch = 0
    stale = 0
    diverged = False

    for epoch in range(1, config.epochs + 1):
        rec_sum = reg_sum = 0.0
        n_batches = 0
        last_h = last_pair = None
        for b_idx, batch in enumerate(iter_epoch(data, index, config.batch_size, data_stream)):
            step_stream = root.child(f"epoch{epoch}.batch{b_idx}")
            bundle, h, view_a, view_b = train_step(batch, params, config, step_stream)
            if not np.isfinite(bundle.total.data):
                diverged = True
                break
            optimizer.zero_grad(params)
            bundle.total.backward()
            optimizer.step(params)
            rec_sum += bundle.rec_loss.item()
            reg_sum += bundle.reg_loss.item()
            n_batches += 1
            last_h = h.data
            last_pair = (view_a.data, view_b.data) if view_a is not None else None
        if diverged or n_batches == 0:
            break

        valid_hr5 = evaluate(params, *data.window(data.valid), ks=(5,)).hr[5]
        curves.append({
            "epoch": epoch,
            "rec_loss": rec_sum / n_batches,
            "reg_loss": reg_sum / n_batches,
            "align": alignment(*last_pair) if last_pair is not None else float("nan"),
            "uniformity": uniformity(last_h) if len(last_h) >= 2 else float("nan"),
            "valid_hr5": valid_hr5,
        })
        if valid_hr5 > best_hr5:
            best_hr5 = valid_hr5
            best_params = _as_dtype(params, np.float64, config)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break

    ckpt = Checkpoint(params=best_params, epoch=best_epoch,
                      best_valid_hr5=max(best_hr5, 0.0))
    final_params = _as_dtype(params, np.float64, config)
    return TrainResult(checkpoint=ckpt, curves=curves, diverged=diverged,
                       final_params=final_params)


def _as_dtype(params: EncoderParams, dtype, config: TrainConfig) -> EncoderParams:
    """A copy of ``params`` in ``dtype`` (exact when widening), under ``config``."""
    return EncoderParams(config, {name: Tensor(t.data.astype(dtype), requires_grad=True)
                                  for name, t in params.named()})


def write_curves_csv(path, curves: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        f.write("epoch,rec_loss,reg_loss,align,uniformity,valid_hr5\n")
        for row in curves:
            f.write("{epoch},{rec_loss:.12g},{reg_loss:.12g},{align:.12g},"
                    "{uniformity:.12g},{valid_hr5:.12g}\n".format(**row))


# -- checkpoint persistence ---------------------------------------------


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Binary layout: magic, manifest, raw float64 buffers, JSON trailer.

    The file is written beside ``path`` under a temporary name, then moved
    onto it, so a write that fails leaves any previous file at ``path`` as
    it was and no temporary file behind.
    """
    entries = [(name, ckpt.params[name].data) for name in sorted(ckpt.params.tensors)]

    trailer = json.dumps({
        "config": ckpt.params.config.to_dict(),
        "vocab_size": ckpt.params.vocab_size,
        "epoch": ckpt.epoch,
        "best_valid_hr5": ckpt.best_valid_hr5,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")

    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(entries)))
            for name, arr in entries:
                nb = name.encode("utf-8")
                f.write(struct.pack("<Q", len(nb)))
                f.write(nb)
                f.write(struct.pack("<Q", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            for _, arr in entries:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            f.write(struct.pack("<Q", len(trailer)))
            f.write(trailer)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint's weights, epoch, score and config.

    A torn or padded file, a file in an older format, or tensors other than
    the parameters the trailer's config implies raise IOError; a config key
    ``TrainConfig`` does not know raises ConfigError.
    """
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(blob) - pos:
            raise IOError(f"{path}: truncated checkpoint")
        pos += n
        return blob[pos - n:pos]

    def u64() -> int:
        return struct.unpack("<Q", take(8))[0]

    magic = take(4)
    if magic == b"DUO1":
        raise IOError(f"{path}: DUO1 checkpoint (weights with Adam state) is no longer "
                      f"read; retrain to write {MAGIC.decode()}")
    if magic != MAGIC:
        raise IOError(f"{path}: not a checkpoint file")
    try:
        manifest: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(u64()):
            name = take(u64()).decode("utf-8")
            ndim = u64()
            manifest.append((name, struct.unpack(f"<{ndim}Q", take(8 * ndim))))
        buffers = {name: np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
                   .reshape(shape).copy() for name, shape in manifest}
        trailer = json.loads(take(u64()).decode("utf-8"))
        if pos != len(blob):
            raise IOError(f"{path}: {len(blob) - pos} bytes after the trailer")
        config = TrainConfig.from_dict(trailer["config"])
        shapes = param_shapes(config, trailer["vocab_size"])
        if len(manifest) != len(shapes) or dict(manifest) != shapes:
            raise IOError(f"{path}: tensor names or shapes do not match the config")
        params = EncoderParams(config, {name: Tensor(buffers[name], requires_grad=True)
                                        for name in shapes})
        return Checkpoint(params=params, epoch=trailer["epoch"],
                          best_valid_hr5=trailer["best_valid_hr5"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise IOError(f"{path}: malformed checkpoint ({exc!r})") from exc
