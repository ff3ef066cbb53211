"""Minimal reverse-mode automatic differentiation over float64 arrays.

Tensors wrap numpy arrays and record the operations that produced them;
``backward`` on a scalar replays the recorded graph in reverse and fills
the ``grad`` buffer of every tensor created with ``requires_grad=True``.
Everything is double precision so analytic gradients can be audited
against central finite differences.

``backward`` consumes the graph: once a recorded op has passed its
gradient on, its closure, its parent links and its own gradient are
dropped, so the activations it held are freed while backward still runs.
Call it once per forward pass; only leaf tensors (parameters and inputs
created with ``requires_grad=True``) keep their ``grad`` afterwards.
Gradient buffers are never written in place, so a leaf may own an array
that another op also received.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

from .rng import RngStream


class ConfigError(ValueError):
    """Bad hyperparameter or configuration value."""


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (evaluation / diagnostics)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # take the first gradient as is and sum out of place after it: the
        # same array may reach several tensors, so none may write into it
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Populate grad buffers of every tracked leaf ancestor of this scalar.

        The graph is consumed on the way: each interior node loses its
        gradient, closure and parent links as soon as its closure has run.
        Call once per forward pass; a second call finds nothing to replay.
        """
        if self.data.shape != ():
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue                        # a leaf keeps its grad
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = None
            node._parents = ()

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    out = Tensor(data)
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise and linear ops ----------------------------------------


def add(a: Tensor, b) -> Tensor:
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    out_data = a.data + bd

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    out_data = a.data * bd

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * bd, a.data.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched when both operands share leading dims."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return _make(out_data, (a, b), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)

    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return _make(out_data, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = x.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        x._accumulate(g.transpose(inv))

    return _make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    x2 = np.square(x.data)
    t = np.tanh(c * x.data * (1.0 + 0.044715 * x2))
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = c * (1.0 + 0.134145 * x2)
        d = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - np.square(t)) * du
        x._accumulate(g * d)

    return _make(out_data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())

    def backward(g):
        x._accumulate(np.full_like(x.data, float(g)))

    return _make(out_data, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    return mul(sum_all(x), 1.0 / x.data.size)


# -- row-wise ops -------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate((g - dot) * y)

    return _make(y, (x,), backward)


def logsumexp_rows(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, stabilized."""
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out_data = (m + np.log(s)).squeeze(-1)

    def backward(g):
        x._accumulate(g[..., None] * (e / s))

    return _make(out_data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Zero-mean unit-variance normalization of the last axis, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xm = x.data - mu
    var = (xm ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xm * inv
    out_data = xhat * gain.data + bias.data
    d = x.data.shape[-1]

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(term * inv)

    return _make(out_data, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, stream: RngStream,
            draw_shape: tuple[int, ...] | None = None, index=None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, rescale survivors.

    The mask comes solely from ``stream``, so a fixed (seed, label, counter)
    reproduces it bit for bit. When ``x`` holds only part of a larger
    activation, pass that activation's ``draw_shape`` and the ``index`` that
    selects ``x`` from it: the mask is drawn at the full shape and sliced, so
    the stream advances, and every kept mask value comes out, exactly as if
    the whole activation had been dropped.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    shape = x.data.shape if draw_shape is None else tuple(draw_shape)
    u = stream.uniform(int(np.prod(shape))).reshape(shape)
    if index is not None:
        u = u[index]
    if u.shape != x.data.shape:
        raise ShapeError(f"dropout mask {u.shape} does not fit input {x.data.shape}")
    mask = (u >= rate) / (1.0 - rate)
    out_data = x.data * mask

    def backward(g):
        x._accumulate(g * mask)

    return _make(out_data, (x,), backward)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Stack rows ``table[indices]``; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    n_rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        bad = idx[(idx < 0) | (idx >= n_rows)][0]
        raise IndexError(f"row index {bad} out of range [0, {n_rows})")
    out_data = table.data[idx]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        table._accumulate(acc)

    return _make(out_data, (table,), backward)


def take_pairs(x: Tensor, rows, cols) -> Tensor:
    """Elements x[rows[i], cols[i]] as a vector; backward scatter-adds."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    out_data = x.data[r, c]

    def backward(g):
        acc = np.zeros_like(x.data)
        np.add.at(acc, (r, c), g)
        x._accumulate(acc)

    return _make(out_data, (x,), backward)


def cross_entropy_from_logits(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[target], fused log-sum-exp."""
    t = np.asarray(targets, dtype=np.int64)
    m, v = logits.data.shape
    if t.size and (t.min() < 0 or t.max() >= v):
        bad = t[(t < 0) | (t >= v)][0]
        raise IndexError(f"target {bad} out of range [0, {v})")
    mx = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - mx)
    s = e.sum(axis=-1, keepdims=True)
    lse = (mx + np.log(s)).squeeze(-1)
    rows = np.arange(m)
    out_data = np.asarray((lse - logits.data[rows, t]).mean())

    def backward(g):
        p = e / s
        p[rows, t] -= 1.0
        logits._accumulate(float(g) / m * p)

    return _make(out_data, (logits,), backward)
