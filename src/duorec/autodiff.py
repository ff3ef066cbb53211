"""Minimal reverse-mode automatic differentiation over float32 or float64 arrays.

Tensors wrap numpy arrays and record the operations that produced them;
``backward`` on a scalar replays the recorded graph in reverse and fills
the ``grad`` buffer of every tensor created with ``requires_grad=True``.

A tensor keeps float32 data as float32 and holds anything else as float64.
Every op returns its inputs' dtype and passes gradients of that dtype: its
constants, and any scalar or array given to ``add`` or ``mul``, take the
tensor's dtype. Training runs in float32; gradient audits against central
finite differences, evaluation and the test oracles run in float64.

``backward`` consumes the graph: once a recorded op has passed its
gradient on, its closure, its parent links and its own gradient are
dropped, so the activations it held are freed while backward still runs.
Call it once per forward pass; only leaf tensors (parameters and inputs
created with ``requires_grad=True``) keep their ``grad`` afterwards.

Retention rule: the graph holds what a backward reads and nothing else. A
recorded op's output owns its ``data``; the graph links data-less nodes
(each holds a gradient, a closure and its parents' nodes), and a closure
captures its parents' nodes and the arrays its arithmetic reads, never a
parent tensor. Those arrays are ``matmul``'s and ``mul``'s inputs,
``softmax_rows``' output, ``gelu``'s derivative, ``layer_norm``'s ``xhat``
and gain, dropout's keep pattern, the index arrays (``gather_rows``'
rows, the slots of ``split_heads`` and ``merge_heads``), and the
exponentials that ``logsumexp_rows``, ``cross_entropy_from_logits`` and
``nce_rows`` make. Every other output is freed as soon as the forward
drops it, such as a sum, a residual, a dropout output or a pre-activation,
though backward still runs through its node. A leaf is its own node, and no node points at
itself, so freeing needs no garbage collection.

Allocation rule: an op writes each intermediate into an array it already
holds (``out=``, in place) wherever its arithmetic allows, so a forward
allocates its output, the arrays its backward keeps, and as few other
arrays of its input's size as its arithmetic needs. Under ``no_grad`` that
is one array in all for ``gelu`` and ``softmax_rows`` and two for
``layer_norm``; a recorded ``gelu`` adds the derivative its backward
keeps. ``gelu`` makes both in one loop over fixed-size blocks, so its
other intermediates take a block each, not an array. Each expression
keeps its floating-point operations and their order, so the bytes are
those of the plain expression. Five fused forms save the arrays between
ops: ``matmul(a, b, bias)`` adds the bias into the product,
``softmax_rows(x, scale, mask)`` takes the softmax of ``x*scale + mask`` in
one array, ``nce_rows`` runs the contrastive regularizer's graph on
two interleaved views in one [2B, 2B] array that its backward reuses, and
``split_heads`` and ``merge_heads`` move an attention's rows into and out
of its [G, heads, n, dh] heads, one [G*n, d] table each way and no copy in
between, with the values and strides of the scatter, reshape, transpose
and gather ops they stand for.
Every softmax and log-sum-exp takes its exponentials from ``exp_rows``, and
every index range is checked by ``check_index``; neither is a recorded op.

Backward rule: a backward writes only into arrays it allocated itself, or
into temporaries its forward kept for it alone. It never writes into the
incoming gradient or into any tensor's ``.data``, which callers may read
after ``backward``. Gradient buffers are never written in place, so a leaf
may own an array that another op also received.
"""

from __future__ import annotations

import contextlib
import math
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
    """Dense float32 or float64 array with an optional gradient buffer.

    float32 data stays float32; any other input becomes float64.

    A tensor is its own graph node unless a recorded op made it. Then its
    gradient, backward closure and parent links live on a data-less node
    (``_node``) that the graph links and the consumers' closures hold, and
    ``grad``, ``_backward`` and ``_parents`` read and write that node. The
    tensor alone owns ``data``, so the array is freed once the caller drops
    it unless a backward reads it. A node never points at itself: a tensor
    that is its own node has ``_node`` None, and one made under ``no_grad``
    links to nothing.
    """

    __slots__ = ("data", "requires_grad", "_node", "_grad", "_fn", "_links")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = requires_grad and _grad_enabled
        self._node: Tensor | None = None
        self._grad: np.ndarray | None = None
        self._fn: Callable[[np.ndarray], None] | None = None
        self._links: tuple[Tensor, ...] = ()

    def _graph(self) -> Tensor:
        """The node that holds this tensor's gradient, closure and parent links."""
        return self if self._node is None else self._node

    @property
    def grad(self) -> np.ndarray | None:
        return self._graph()._grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._graph()._grad = g

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return self._graph()._fn

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None] | None) -> None:
        self._graph()._fn = fn

    @property
    def _parents(self) -> tuple[Tensor, ...]:
        return self._graph()._links

    @_parents.setter
    def _parents(self, links: tuple[Tensor, ...]) -> None:
        self._graph()._links = links

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # take the first gradient as is and sum out of place after it: the
        # same array may reach several tensors, so none may write into it
        node = self._graph()
        if node._grad is None:
            node._grad = np.asarray(g)
        else:
            node._grad = node._grad + g

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
        stack: list[tuple[Tensor, bool]] = [(self._graph(), False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._links:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._fn is None:
                continue                        # a leaf keeps its grad
            if node._grad is not None:
                node._fn(node._grad)
            node._grad = None
            node._fn = None
            node._links = ()

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        if self.data is None:
            return "Tensor(graph node)"
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _grad_node(t) -> Tensor | None:
    """The graph node a backward passes ``t``'s gradient to: None unless
    ``t`` is a tensor that takes one."""
    return t._graph() if isinstance(t, Tensor) and t.requires_grad else None


def _make(data: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    """The op output ``data``; recorded, it links ``backward`` into the
    nodes of the ``parents`` that take a gradient."""
    out = Tensor(data)
    links = tuple(n for n in map(_grad_node, parents) if n is not None)
    if _grad_enabled and links:
        node = Tensor.__new__(Tensor)           # data-less: the graph's part of ``out``
        node.data, node.requires_grad, node._node = None, True, None
        node._grad, node._fn, node._links = None, backward, links
        out.requires_grad, out._node = True, node
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
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=a.data.dtype)
    out_data = a.data + bd
    na, nb, a_shape, b_shape = _grad_node(a), _grad_node(b), a.data.shape, bd.shape

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g, b_shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    ad = a.data
    bd = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=ad.dtype)
    out_data = ad * bd
    na, nb = _grad_node(a), _grad_node(b)

    def backward(g):
        if na is not None:
            na._accumulate(_unbroadcast(g * bd, ad.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g * ad, bd.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product; batched when both operands share leading dims.

    With ``bias``, returns ``add(matmul(a, b), bias)``'s values and
    gradients, the bias added into the product in place.
    """
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    out_data = np.matmul(ad, bd)
    if bias is not None:
        _check_fits(bias.data, out_data.shape, "bias")
        out_data += bias.data
    na, nb, nbias = _grad_node(a), _grad_node(b), _grad_node(bias)
    bias_shape = None if bias is None else bias.data.shape

    def backward(g):
        if nbias is not None:
            nbias._accumulate(_unbroadcast(g, bias_shape))
        if na is not None:
            na._accumulate(_unbroadcast(_product(g, bd.swapaxes(-1, -2)), ad.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(_product(ad.swapaxes(-1, -2), g), bd.shape))

    return _make(out_data, (a, b, bias), backward)


def _check_fits(x: np.ndarray, shape: tuple[int, ...], name: str) -> None:
    """Raise unless ``x`` broadcasts to ``shape`` itself, so it can be added in place."""
    if x.ndim > len(shape) or any(m not in (1, n) for m, n in zip(x.shape[::-1], shape[::-1])):
        raise ShapeError(f"{name} {x.shape} does not broadcast to {shape}")


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.matmul`` of two arrays of two or more dims, with ``np.matmul``'s bytes.

    An inner dimension of 1 is an outer product, which ``np.matmul`` runs as
    one gemm per batch; it is done as a broadcast multiply. ``np.matmul``
    sums from +0.0, so adding 0.0 turns the multiply's -0.0 into its +0.0
    and leaves every other value as it is.
    """
    if x.shape[-1] != 1:
        return np.matmul(x, y)
    out = x * y
    out += 0.0
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)
    nx, x_shape = _grad_node(x), x.data.shape

    def backward(g):
        nx._accumulate(g.reshape(x_shape))

    return _make(out_data, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = x.data.transpose(axes)
    inv = np.argsort(axes)
    nx = _grad_node(x)

    def backward(g):
        nx._accumulate(g.transpose(inv))

    return _make(out_data, (x,), backward)


_GELU_BLOCK = 1 << 16       # elements per block of gelu's loop


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation).

    The output 0.5*x*(1 + t), t = tanh(c*x*(1 + 0.044715*x**2)), is made
    ``_GELU_BLOCK`` elements at a time: each block writes t, then the
    output, into the output array, with one block of scratch for c*x and
    0.5*x. When a gradient is recorded, each block also writes the
    derivative 0.5*(1 + t) + 0.5*x*(1 - t**2)*c*(1 + 0.134145*x**2) into a
    second array, the one its backward keeps, with a second block of
    scratch for c*(1 + 0.134145*x**2). Every expression runs its operations
    in the order written, so the op holds one array of ``x``'s size under
    ``no_grad`` and two when recorded, plus its blocks.
    """
    xd = np.ascontiguousarray(x.data)
    c = xd.dtype.type(np.sqrt(2.0 / np.pi))
    recorded = _grad_enabled and x.requires_grad
    out_data = np.empty_like(xd)
    deriv = np.empty_like(xd) if recorded else None
    buf = np.empty(min(xd.size, _GELU_BLOCK), dtype=xd.dtype)
    du_buf = np.empty_like(buf) if recorded else None
    for start in range(0, xd.size, _GELU_BLOCK):
        span = slice(start, start + _GELU_BLOCK)
        xb, tb = xd.reshape(-1)[span], out_data.reshape(-1)[span]
        n = len(xb)
        np.square(xb, out=tb)
        if recorded:                            # du = c*(1 + 0.134145*x**2)
            du = np.multiply(tb, 0.134145, out=du_buf[:n])
            du += 1.0
            du *= c
        tb *= 0.044715
        tb += 1.0
        tb *= np.multiply(c, xb, out=buf[:n])
        np.tanh(tb, out=tb)
        half_x = np.multiply(xb, 0.5, out=buf[:n])
        if recorded:                            # 0.5*x*(1 - t**2)*du
            db = np.square(tb, out=deriv.reshape(-1)[span])
            np.subtract(1.0, db, out=db)
            db *= half_x
            db *= du
        tb += 1.0
        if recorded:                            # + 0.5*(1 + t)
            db += np.multiply(tb, 0.5, out=du)
        # (0.5*x)*(1 + t) in that operand order: a NaN result takes its
        # sign from the first operand
        np.multiply(half_x, tb, out=tb)
    nx = _grad_node(x)

    def backward(g):
        nx._accumulate(g * deriv)

    return _make(out_data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())
    nx, x_shape, dtype = _grad_node(x), x.data.shape, x.data.dtype

    def backward(g):
        nx._accumulate(np.full(x_shape, float(g), dtype=dtype))

    return _make(out_data, (x,), backward)


# -- row-wise ops -------------------------------------------------------


def exp_rows(x: np.ndarray, out: np.ndarray | None = None):
    """``exp(x - rowmax)`` over the last axis, written into ``out`` (a new
    array if None; it may be ``x``), with each row's max and sum, axis kept."""
    m = x.max(axis=-1, keepdims=True)
    e = np.subtract(x, m, out=out)
    np.exp(e, out=e)
    return e, m, e.sum(axis=-1, keepdims=True)


def check_index(idx: np.ndarray, lo: int, hi: int, what: str) -> None:
    """Raise ``IndexError`` naming the first entry of ``idx`` outside [lo, hi)."""
    if idx.size and (idx.min() < lo or idx.max() >= hi):
        bad = idx[(idx < lo) | (idx >= hi)][0]
        raise IndexError(f"{what} {bad} out of range [{lo}, {hi})")


def softmax_rows(x: Tensor, scale: float | None = None, mask=None) -> Tensor:
    """Softmax over the last axis of ``x*scale + mask``, max-subtracted for stability.

    ``scale`` is rounded to ``x``'s dtype and ``mask`` (an array, no
    gradient) cast to it and broadcast to ``x``'s shape, as ``mul`` and
    ``add`` would; the values and gradients are those of
    ``softmax_rows(add(mul(x, scale), mask))``, made in one array.
    """
    y = x.data                                  # each step below allocates once at most
    if scale is not None:
        scale = y.dtype.type(scale)
        y = y * scale
    if mask is not None:
        mask = np.asarray(mask, dtype=y.dtype)
        _check_fits(mask, y.shape, "mask")
        y = np.add(y, mask, out=None if y is x.data else y)
    y, _, s = exp_rows(y, out=None if y is x.data else y)
    y /= s
    nx = _grad_node(x)

    def backward(g):
        gx = g * y
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= y
        if scale is not None:
            gx *= scale
        nx._accumulate(gx)

    return _make(y, (x,), backward)


def logsumexp_rows(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis, stabilized."""
    e, m, s = exp_rows(x.data)
    out_data = (m + np.log(s)).squeeze(-1)
    nx = _grad_node(x)

    def backward(g):
        p = e                                   # e is this op's own: g * (e / s)
        p /= s
        p *= g[..., None]
        nx._accumulate(p)

    return _make(out_data, (x,), backward)


LAYER_NORM_EPS = 1e-8              # added to the variance


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean unit-variance normalization of the last axis, then affine.

    The forward makes two arrays of ``x``'s shape: ``x - mean``, scaled in
    place into ``xhat``, and one that holds its square, then the output.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out_data = np.square(xhat)
    var = out_data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data
    nx, ngain, nbias = _grad_node(x), _grad_node(gain), _grad_node(bias)
    gd, bias_shape = gain.data, bias.data.shape

    def backward(g):
        if ngain is not None:
            ngain._accumulate(_unbroadcast(g * xhat, gd.shape))
        if nbias is not None:
            nbias._accumulate(_unbroadcast(g, bias_shape))
        if nx is not None:
            # (gx - mean(gx) - xhat*mean(gx*xhat)) * inv in two arrays
            gx = g * gd
            gx_mean = gx.mean(axis=-1, keepdims=True)
            tmp = gx * xhat
            tmp_mean = tmp.mean(axis=-1, keepdims=True)
            gx -= gx_mean
            np.multiply(xhat, tmp_mean, out=tmp)
            gx -= tmp
            gx *= inv
            nx._accumulate(gx)

    return _make(out_data, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, stream: RngStream) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, rescale survivors.

    The mask comes solely from ``stream``, so a fixed (seed, label, counter)
    reproduces it bit for bit. Each element of ``x`` owns one 16-bit lane of
    raw Philox output (``RngStream.lanes``) and is kept when its lane is at
    least ``cut = round(rate * 65536)``: the rate is quantized to 1/65536,
    and a rate that rounds to 0 returns ``x``. Survivors are scaled by
    ``65536 / (65536 - cut)``, so each mask value's expectation is exactly
    1; only that scale is rounded to ``x``'s dtype, and float32 and float64
    inputs share the keep pattern.

    Only that pattern is kept for the backward, one byte per element: an
    output element is ``x * scale`` where kept and ``x * 0.0`` where
    dropped (so a dropped negative is -0.0), and its gradient ``g * scale``
    or ``g * 0.0``, the bytes of multiplying by a float mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    cut = round(rate * 65536)
    if cut == 65536:
        raise ConfigError(f"dropout rate {rate} rounds to 1 in steps of 1/65536")
    if cut == 0:
        return x
    dtype = x.data.dtype
    scale = dtype.type(65536 / (65536 - cut))
    keep = (stream.lanes(x.data.size) >= cut).reshape(x.data.shape)
    # the float mask: scale where kept, +0.0 where dropped. A cast and an
    # in-place multiply, where a bool-by-float ufunc would allocate a cast
    # buffer between the large arrays
    out_data = keep.astype(dtype)
    out_data *= scale
    np.multiply(x.data, out_data, out=out_data)
    nx = _grad_node(x)

    def backward(g):
        gx = keep.astype(dtype)
        gx *= scale
        nx._accumulate(np.multiply(g, gx, out=gx))

    return _make(out_data, (x,), backward)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Stack rows ``table[indices]``; backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    check_index(idx, 0, table.data.shape[0], "row index")
    out_data = table.data.take(idx, axis=0)
    node, shape, dtype = _grad_node(table), table.data.shape, table.data.dtype

    def backward(g):
        rows = idx.reshape(-1)
        if (rows[1:] > rows[:-1]).all():
            # strictly increasing rows: each element is 0 plus one gradient,
            # in the table's dtype, the bytes of the sum below (-0.0 becomes
            # +0.0 in both)
            acc = np.zeros(shape, dtype=dtype)
            acc[rows] += g.reshape(rows.shape + shape[1:])
        else:
            # each element starts at 0 and adds its gradients in index order,
            # in float64, then rounds once to the table's dtype: the bytes of
            # a float64 np.add.at and a cast (in float32 not those of a
            # float32 np.add.at, which rounds after every add)
            width = math.prod(shape[1:])
            flat = (rows.reshape(-1, 1) * width + np.arange(width)).ravel()
            acc = np.bincount(flat, weights=g.ravel(), minlength=math.prod(shape))
            acc = acc.astype(dtype, copy=False).reshape(shape)
        node._accumulate(acc)

    return _make(out_data, (table,), backward)


def _check_slots(slots, n_rows: int, count: int) -> np.ndarray:
    """``slots`` as int64, checked to be ``count`` distinct rows of [0, n_rows)."""
    idx = np.asarray(slots, dtype=np.int64)
    if idx.shape != (count,):
        raise ShapeError(f"{idx.shape} slots for {count} rows")
    check_index(idx, 0, n_rows, "slot")
    hit = np.zeros(n_rows, dtype=bool)
    hit[idx] = True
    if np.count_nonzero(hit) != count:
        raise IndexError("slots must be distinct")
    return idx


def split_heads(x: Tensor, heads: int, groups: int, n: int, slots=None,
                keys: bool = False) -> Tensor:
    """The rows of ``x`` [M, d] as ``heads`` attention heads over ``groups``
    blocks of ``n`` rows: [G, heads, n, d/heads], or [G, heads, d/heads, n]
    with ``keys``, the layout a product with the queries reads.

    With ``slots`` (M distinct rows of [0, G*n), in any order), row i of
    ``x`` sits at row ``slots[i]`` of a zeroed [G*n, d] table; without,
    ``x`` is the table (M = G*n). The output is the table viewed as
    [G, n, heads, d/heads] with its axes permuted, so its values and strides,
    and its gradient's, are those of rows placed between zeros, reshaped and
    transposed (then transposed again for ``keys``) by separate ops. Only
    ``slots`` is kept for the backward, which reads each row's gradient
    straight from the 4-D gradient.
    """
    m, d = x.data.shape
    if d % heads or (slots is None and m != groups * n):
        raise ShapeError(f"[{m}, {d}] rows do not split into {heads} heads "
                         f"over {groups} blocks of {n}")
    dh = d // heads
    axes = (0, 2, 3, 1) if keys else (0, 2, 1, 3)
    if slots is None:
        idx, table = None, x.data
    else:
        idx = _check_slots(slots, groups * n, m)
        table = np.zeros((groups * n, d), dtype=x.data.dtype)
        table[idx] = x.data
    out_data = table.reshape(groups, n, heads, dh).transpose(axes)
    nx, inv = _grad_node(x), tuple(np.argsort(axes))

    def backward(g):
        g = g.transpose(inv)                    # [G, n, heads, dh]
        if idx is not None:
            g = g[np.divmod(idx, n)]            # [M, heads, dh]
        nx._accumulate(g.reshape(m, d))

    return _make(out_data, (x,), backward)


def merge_heads(x: Tensor, slots=None) -> Tensor:
    """The heads of ``x`` [G, heads, n, dh] merged back into rows of width
    d = heads*dh: row i is row ``slots[i]`` of the [G*n, d] table that
    ``split_heads`` lays out (M distinct slots), or without ``slots`` the
    whole table, [G*n, d].

    The values are those of transposing, reshaping and gathering by separate
    ops, with no [G*n, d] copy in between: the rows are read straight from
    the 4-D array. The backward places the rows' gradient into a zeroed
    [G*n, d] table with ``+=`` (so a -0.0 becomes +0.0, as in
    ``gather_rows``' backward) and passes it on as that table's 4-D view;
    only ``slots`` is kept for it.
    """
    groups, heads, n, dh = x.data.shape
    d = heads * dh
    rows = x.data.transpose(0, 2, 1, 3)         # [G, n, heads, dh]
    if slots is None:
        idx, out_data = None, rows.reshape(groups * n, d)
    else:
        idx = _check_slots(slots, groups * n, np.size(slots))
        out_data = rows[np.divmod(idx, n)].reshape(len(idx), d)
    nx = _grad_node(x)

    def backward(g):
        if idx is not None:
            table = np.zeros((groups * n, d), dtype=g.dtype)
            table[idx] += g
            g = table
        nx._accumulate(g.reshape(groups, n, heads, dh).transpose(0, 2, 1, 3))

    return _make(out_data, (x,), backward)


def cross_entropy_from_logits(logits: Tensor, targets) -> Tensor:
    """Mean over the m rows of -log softmax(logits)[target], fused
    log-sum-exp; ``logits`` must be [m, V] and ``targets`` [m], with m >= 1."""
    t = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or t.shape != logits.data.shape[:1] or not len(t):
        raise ShapeError(f"cross-entropy needs [m, V] logits and [m] targets, m >= 1, got "
                         f"{logits.data.shape} and {t.shape}")
    m, v = logits.data.shape
    check_index(t, 0, v, "target")
    e, mx, s = exp_rows(logits.data)
    lse = (mx + np.log(s)).squeeze(-1)
    rows = np.arange(m)
    out_data = np.asarray((lse - logits.data[rows, t]).mean())
    node = _grad_node(logits)

    def backward(g):
        p = e                                   # e is this op's own: p = e / s
        p /= s
        p[rows, t] -= 1.0
        p *= float(g) / m
        node._accumulate(p)

    return _make(out_data, (logits,), backward)


NEG_INF = -1e30                    # additive mask of a disallowed slot


def nce_rows(view_a: Tensor, view_b: Tensor, allowed: np.ndarray, tau: float) -> Tensor:
    """Symmetric NCE over ``reps``, the [B, d] views interleaved: row 2i is
    ``view_a[i]``, row 2i+1 is ``view_b[i]``, and row i pairs with row i^1.

    Row i's logits are ``reps[i] . reps[j] / tau``; its denominator holds
    slot i^1 and the negatives j where ``allowed[i, j]`` is True, so
    ``allowed[i, i^1]`` is not read. Returns sum_i (log-sum-exp_j -
    logit[i, i^1]) / B. Unequal or empty views, a mask that is not
    [2B, 2B] and a ``tau`` that is not finite and positive raise (an
    infinite one would scale every logit, and so the gradient, by 0).

    The values and gradients are those of the graph that interleaves the
    views, then ``sim = mul(matmul(reps, transpose(reps)), 1/tau)`` and
    ``mul(sum_all(add(logsumexp_rows(add(sim, penalty)), mul(pos, -1))), 1/B)``
    with ``penalty`` 0 at the admitted slots and ``NEG_INF`` elsewhere, and
    ``pos`` the gather of sim[i, i^1]. Its operations run in
    that order inside one [2B, 2B] array, the only one the backward keeps:
    it turns the exponentials into sim's gradient in place.
    """
    a, b = view_a.data, view_b.data
    if (a.ndim != 2 or a.shape != b.shape or not len(a)
            or np.shape(allowed) != (2 * len(a),) * 2):
        raise ShapeError(f"NCE needs two [B, d] views, B >= 1, and a [2B, 2B] mask, got "
                         f"{a.shape}, {b.shape} and {np.shape(allowed)}")
    if not (math.isfinite(tau) and tau > 0):
        raise ConfigError(f"temperature must be finite and positive, got {tau}")
    x = np.empty((2 * len(a), a.shape[1]), dtype=np.result_type(a, b))
    x[0::2], x[1::2] = a, b
    dtype = x.dtype
    inv_tau, inv_b = dtype.type(1.0 / tau), dtype.type(1.0 / len(a))
    rows = np.arange(len(x))
    partner = rows ^ 1
    e = np.matmul(x, x.swapaxes(-1, -2))        # syrk, as the graph's product ran
    e *= inv_tau
    pos = e[rows, partner]
    penalty = np.subtract(allowed, 1.0, dtype=dtype)     # 0.0 allowed, -1.0 not
    penalty[rows, partner] = 0.0
    penalty *= dtype.type(-NEG_INF)
    e += penalty
    e, mx, s = exp_rows(e, out=e)
    lse = (mx + np.log(s)).squeeze(-1)
    out_data = (lse + pos * dtype.type(-1.0)).sum() * inv_b
    na, nb = _grad_node(view_a), _grad_node(view_b)

    def backward(g):
        gv = dtype.type(float(g * inv_b))       # each row's share of the mean
        p = e                                   # e is this op's own: p = e / s * gv
        p /= s
        p *= gv
        # + the positive logits' gradient: +0.0 off the pairs (a -0.0 becomes
        # +0.0), -gv on them
        p += 0.0
        p[rows, partner] -= gv
        p *= inv_tau
        gx = np.matmul(p, x)
        gx += np.matmul(x.swapaxes(-1, -2), p).swapaxes(-1, -2)
        # each view's rows made contiguous, the layout their consumers expect
        if na is not None:
            na._accumulate(np.ascontiguousarray(gx[0::2]))
        if nb is not None:
            nb._accumulate(np.ascontiguousarray(gx[1::2]))

    return _make(out_data, (view_a, view_b), backward)
