import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from duorec import autodiff as ad
from duorec.data import ParseError
from duorec.encoder import NEG_INF


def finite_difference_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4):
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    err = np.abs(analytic - numeric).max() / scale
    assert err < rtol, f"gradient mismatch: max relative error {err:.3e}"


def nce_regularizer_bruteforce(reps: np.ndarray, collision_mask: np.ndarray,
                               tau: float) -> float:
    """Loop-level reference for ``contrastive.nce_regularizer`` (no autodiff)."""
    two_b = reps.shape[0]
    b = two_b // 2
    total = 0.0
    for a in range(two_b):
        p = a ^ 1
        pos = math.exp(float(np.dot(reps[a], reps[p])) / tau)
        denom = pos
        for j in range(two_b):
            if j == a or j == p:
                continue
            if collision_mask[a, j]:
                denom += math.exp(float(np.dot(reps[a], reps[j])) / tau)
        total += -math.log(pos / denom)
    return total / b


# -- the encoder's ops as plain expressions: oracles for ``autodiff`` ----
#
# Each is the op as it stood before its forward and backward were rewritten
# to reuse their temporaries, or the composition of ops that a fused form
# replaced. They compute the same floating-point operations in the same
# order, so the rewritten ops must match them byte for byte.


def gelu_reference(x):
    c = x.data.dtype.type(np.sqrt(2.0 / np.pi))
    x2 = np.square(x.data)
    t = np.tanh(c * x.data * (1.0 + 0.044715 * x2))
    out_data = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = c * (1.0 + 0.134145 * x2)
        d = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - np.square(t)) * du
        x._accumulate(g * d)

    return ad._make(out_data, (x,), backward)


def logsumexp_rows_reference(x):
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out_data = (m + np.log(s)).squeeze(-1)

    def backward(g):
        x._accumulate(g[..., None] * (e / s))

    return ad._make(out_data, (x,), backward)


def layer_norm_reference(x, gain, bias, eps=1e-8):
    mu = x.data.mean(axis=-1, keepdims=True)
    xm = x.data - mu
    var = (xm ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xm * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(ad._unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(ad._unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            term = (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            x._accumulate(term * inv)

    return ad._make(out_data, (x, gain, bias), backward)


def softmax_rows_reference(x):
    y = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = y / y.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate((g - dot) * y)

    return ad._make(y, (x,), backward)


def softmax_np_reference(logits):
    """The gradient probe's softmax before it took ``autodiff.exp_rows``:
    its byte oracle, and that of ``exp_rows`` followed by a division."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def scaled_masked_softmax_reference(x, scale, mask):
    """``mul`` -> ``add`` -> softmax, the attention's three ops before
    ``softmax_rows`` took ``scale`` and ``mask``."""
    return softmax_rows_reference(ad.add(ad.mul(x, scale), mask))


def matmul_bias_reference(a, b, bias):
    return ad.add(ad.matmul(a, b), bias)


def cross_entropy_reference(logits, targets):
    t = np.asarray(targets, dtype=np.int64)
    m = logits.data.shape[0]
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

    return ad._make(out_data, (logits,), backward)


def scatter_rows_reference(x, rows, n_rows):
    """[n_rows, ...] zeros with row i of ``x`` placed at ``rows[i]``, for
    distinct ``rows`` in any order, with a gather as its backward. A
    repeated or out-of-range row raises ``IndexError``. The op that laid out
    the attention's rows before ``split_heads`` did."""
    idx = np.asarray(rows, dtype=np.int64)
    if idx.shape != x.data.shape[:1]:
        raise ad.ShapeError(f"{idx.shape} row indices for input {x.data.shape}")
    ad.check_index(idx, 0, n_rows, "row")
    hit = np.zeros(n_rows, dtype=bool)
    hit[idx] = True
    if np.count_nonzero(hit) != idx.size:
        raise IndexError("rows must be distinct")
    out_data = np.zeros((n_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    out_data[idx] = x.data
    nx = ad._grad_node(x)

    def backward(g):
        nx._accumulate(g[idx])

    return ad._make(out_data, (x,), backward)


def split_heads_reference(x, heads, groups, n, slots=None, keys=False):
    """``split_heads`` as the ops it fused: rows placed between zeros,
    reshape, transpose, and for ``keys`` a second transpose."""
    d = x.shape[1]
    if slots is not None:
        x = scatter_rows_reference(x, slots, groups * n)
    out = ad.transpose(ad.reshape(x, (groups, n, heads, d // heads)), (0, 2, 1, 3))
    return ad.transpose(out, (0, 1, 3, 2)) if keys else out


def merge_heads_reference(x, slots=None):
    """``merge_heads`` as the ops it fused: transpose, reshape, then a
    ``gather_rows`` of the slots."""
    groups, heads, n, dh = x.shape
    rows = ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (groups * n, heads * dh))
    return rows if slots is None else ad.gather_rows(rows, slots)


def attention_reference(h, hq, n, layout, params, layer, stream, last_only):
    """``encoder._attention`` as composed ops, before ``split_heads`` and
    ``merge_heads``: each head's rows through scatter, reshape and
    transpose (the keys transposed again), the context through transpose,
    reshape and a gather of the slots. The byte oracle of the encoder's
    attention, in values and gradients."""
    cfg = params.config
    nh, g = cfg.heads, layout.groups

    def w(name):
        return params[f"layer{layer}.{name}"]

    def projected(name, keys=False):
        return split_heads_reference(ad.matmul(h, w(name)), nh, g, n, layout.slots, keys)

    q = (split_heads_reference(ad.matmul(hq, w("wq")), nh, g, 1) if last_only
         else projected("wq"))
    scores = ad.matmul(q, projected("wk", keys=True))
    att = ad.softmax_rows(scores, 1.0 / np.sqrt(cfg.d // nh), layout.mask)
    att = ad.dropout(att, cfg.hidden_dropout, stream.child("att"))
    ctx = merge_heads_reference(ad.matmul(att, projected("wv")),
                                None if last_only else layout.slots)
    return ad.matmul(ctx, w("wo"))


def interleave_rows_reference(a, b):
    """Rows concatenated, then reshape, transpose and reshape: the four graph
    nodes that interleaved the two views before ``nce_rows`` did it itself."""
    n, d = a.data.shape

    def concat_backward(g):
        if a.requires_grad:
            a._accumulate(g[:n])
        if b.requires_grad:
            b._accumulate(g[n:])

    stacked = ad._make(np.concatenate([a.data, b.data], axis=0), (a, b), concat_backward)
    return ad.reshape(ad.transpose(ad.reshape(stacked, (2, n, d)), (1, 0, 2)), (2 * n, d))


def take_pairs_reference(x, rows, cols):
    """Elements x[rows[i], cols[i]] as a vector, with an ``np.add.at`` backward:
    the op that read NCE's positive logits before ``gather_rows`` did."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)

    def backward(g):
        acc = np.zeros_like(x.data)
        np.add.at(acc, (r, c), g)
        x._accumulate(acc)

    return ad._make(x.data[r, c], (x,), backward)


def interleaved_reps(cb) -> np.ndarray:
    """The 2B slots of a ``ContrastiveBatch`` as one array: row 2i is
    ``view_a[i]``, row 2i+1 is ``view_b[i]``."""
    a, b = cb.view_a.data, cb.view_b.data
    return np.stack([a, b], axis=1).reshape(2 * len(a), a.shape[1])


def nce_regularizer_reference(cb):
    """``contrastive.nce_regularizer`` as the composed graph it was before
    ``autodiff.nce_rows`` fused it: the views interleaved by
    ``interleave_rows_reference`` into reps, sim = reps·repsᵀ/τ, a penalty
    of -1e30 off the mask, ``logsumexp_rows`` and sim[i, i^1] read by
    ``take_pairs_reference``. The byte oracle of the fused op."""
    reps = interleave_rows_reference(cb.view_a, cb.view_b)
    two_b = reps.shape[0]
    sim = ad.mul(ad.matmul(reps, ad.transpose(reps, (1, 0))), 1.0 / cb.tau)
    slots = np.arange(two_b)
    allowed = cb.collision_mask.copy()
    allowed[slots, slots ^ 1] = True
    penalty = np.where(allowed, 0, sim.data.dtype.type(NEG_INF))
    lse = ad.logsumexp_rows(ad.add(sim, penalty))
    pos = take_pairs_reference(sim, slots, slots ^ 1)
    return ad.mul(ad.sum_all(ad.add(lse, ad.mul(pos, -1.0))), 1.0 / (two_b // 2))


def ingest_reference(path, fmt: str) -> list[tuple[str, str, int]]:
    """Line-by-line reference for ``data.ingest``: (user, item, timestamp)
    per event, in file order. Timestamps are Python ints of any size."""
    sep, n_fields, sep_name = {"tsv-uit": ("\t", 3, "tab"), "ml-1m": ("::", 4, "::")}[fmt]
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != n_fields:
                raise ParseError(f"line {lineno}: expected {n_fields} {sep_name}-separated "
                                 f"fields, got {len(parts)}")
            try:
                timestamp = int(parts[-1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad timestamp {parts[-1]!r}") from exc
            events.append((parts[0], parts[1], timestamp))
    return events


def build_sequences_reference(events, min_count: int, max_len: int):
    """Counter-based reference for ``data.build_sequences`` over
    ``ingest_reference``'s events: (sequences as lists in user order,
    item_of, frequency list)."""
    kept = list(range(len(events)))
    while True:
        user_count = Counter(events[i][0] for i in kept)
        item_count = Counter(events[i][1] for i in kept)
        new_kept = [i for i in kept if user_count[events[i][0]] >= min_count
                    and item_count[events[i][1]] >= min_count]
        if len(new_kept) == len(kept):
            break
        kept = new_kept
    per_user = defaultdict(list)
    for i in kept:
        per_user[events[i][0]].append(i)
    index_of, item_of, freq = {}, ["<pad>"], Counter()
    sequences = []
    for _, idxs in sorted(per_user.items()):
        idxs.sort(key=lambda i: (events[i][2], i))
        items = []
        for i in idxs:
            ext = events[i][1]
            if ext not in index_of:
                index_of[ext] = len(item_of)
                item_of.append(ext)
            items.append(index_of[ext])
            freq[index_of[ext]] += 1
        sequences.append(items[-max_len:])
    return sequences, item_of, [freq[i] for i in range(len(item_of))]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
