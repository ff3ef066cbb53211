"""Ranking metrics and representation-geometry diagnostics.

Full-catalog ranking with deterministic index tie-break, HR@K / NDCG@K,
alignment and uniformity on the unit sphere, the singular spectrum and 2D
projection of the item embedding matrix (own round-robin Jacobi
eigensolver on the Gram matrix), and a probe comparing the measured
gradient on items absent from a batch with the closed softmax form that
drives embedding collapse.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import PAD_INDEX, Batch, EmptyDatasetError, ItemVocab
from .encoder import EncoderParams, encode_sequence
from .rng import RngStream


@dataclass
class EvalReport:
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_users: int


# -- ranking ------------------------------------------------------------


def rank_full_catalog(h: np.ndarray, item_emb: np.ndarray, targets) -> np.ndarray:
    """1-based rank of each target among all non-pad items.

    Score is the dot product with the item embedding; ties resolve in
    favor of the smaller item index, the target included in its tie group
    under the same rule. A score that is not finite (a diverged model)
    never yields a hit: such a target ranks last, such an item above every
    finite target. A target outside [1, |V|) raises ``IndexError``, and
    ``h`` that is not [B, d] for B targets raises ``ShapeError``.
    """
    t = np.asarray(targets, dtype=np.int64)
    if np.ndim(h) != 2 or t.shape != (len(h),):
        raise ad.ShapeError(f"ranking needs [B, d] rows for B targets, got "
                            f"{np.shape(h)} and {t.shape}")
    ad.check_index(t, PAD_INDEX + 1, item_emb.shape[0], "target")
    scores = h @ item_emb.T                                    # [B, |V|]
    non_finite = ~np.isfinite(scores)
    non_finite[:, PAD_INDEX] = False
    scores[:, PAD_INDEX] = -np.inf
    target_scores = scores[np.arange(len(t)), t]
    higher = ((scores > target_scores[:, None]) | non_finite).sum(axis=1)
    tied_before = ((scores == target_scores[:, None])
                   & (np.arange(scores.shape[1])[None, :] < t[:, None])).sum(axis=1)
    n_items = scores.shape[1] - 1                              # pad row excluded
    return np.where(np.isfinite(target_scores), 1 + higher + tied_before, n_items)


def _ranks(ranks) -> np.ndarray:
    """``ranks`` as float64; a score of none is undefined, so it raises."""
    r = np.asarray(ranks, dtype=np.float64)
    if r.size == 0:
        raise EmptyDatasetError("no ranks to score")
    return r


def hr_at_k(ranks, k: int) -> float:
    return float((_ranks(ranks) <= k).mean())


def ndcg_at_k(ranks, k: int) -> float:
    """Single-relevant-item NDCG: 1/log2(rank+1) inside the cut, else 0."""
    r = _ranks(ranks)
    gains = np.where(r <= k, 1.0 / np.log2(r + 1.0), 0.0)
    return float(gains.mean())


# -- alignment / uniformity --------------------------------------------


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length, in float64 whatever ``x``'s dtype."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return x / norms


def alignment(pairs_x: np.ndarray, pairs_y: np.ndarray) -> float:
    """Mean squared distance between L2-normalized positive pairs.

    Row i of ``pairs_x`` pairs with row i of ``pairs_y``; the two must have
    the same shape, since a broadcast would pair rows that are no pair.
    Zero pairs raise ``EmptyDatasetError``: their mean is no number.
    """
    if np.shape(pairs_x) != np.shape(pairs_y):
        raise ValueError(f"alignment pairs rows of equal shapes, got "
                         f"{np.shape(pairs_x)} and {np.shape(pairs_y)}")
    if np.shape(pairs_x)[:1] == (0,):
        raise EmptyDatasetError("alignment needs at least one pair")
    xn = _normalize_rows(pairs_x)
    yn = _normalize_rows(pairs_y)
    return float((np.linalg.norm(xn - yn, axis=-1) ** 2).mean())


# Rows per block of uniformity's Gram matrix: a block is at most 1024 x U.
_UNIFORMITY_BLOCK = 1024


def uniformity(reps: np.ndarray) -> float:
    """log mean over distinct unordered pairs of exp(-2 ||x - y||^2), normalized vectors.

    Computed over row blocks of the Gram matrix, so memory grows as
    block x U, not U x U x d. ``reps`` must be [U, d].
    """
    if np.ndim(reps) != 2:
        raise ad.ShapeError(f"uniformity needs [U, d] rows, got {np.shape(reps)}")
    if len(reps) < 2:
        raise ValueError("uniformity needs at least 2 vectors")
    xn = _normalize_rows(reps)
    u = len(xn)
    total = 0.0
    for lo in range(0, u, _UNIFORMITY_BLOCK):
        hi = min(lo + _UNIFORMITY_BLOCK, u)
        # ||x - y||^2 = 2 - 2 x.y for unit rows; pairs above the diagonal only
        sq = np.maximum(2.0 - 2.0 * (xn[lo:hi] @ xn[lo:].T), 0.0)
        above = np.arange(lo, u)[None, :] > np.arange(lo, hi)[:, None]
        total += np.exp(-2.0 * sq[above]).sum()
    return float(np.log(total / (u * (u - 1) // 2)))


# -- singular spectrum --------------------------------------------------


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    Each sweep is n-1 rounds of disjoint (p, q) pairs (Brent & Luk 1985),
    and each round applies all of its rotations as one vectorized update.
    A pair whose off-diagonal magnitude is at or below ``tol * max|a|`` (of
    the input) is not rotated, and the solve stops once every off-diagonal
    magnitude is. Both read the upper triangle: rounding leaves the two
    triangles a few ulps apart, and a lower entry just above the threshold
    with its upper twin just below would stall the solve.
    Returns (eigenvalues, eigenvectors-as-columns), unordered.
    Raises ``ShapeError`` unless ``a`` is [n, n] with n >= 1, ``ValueError`` on
    a non-finite input and ``np.linalg.LinAlgError`` if ``max_sweeps`` sweeps
    do not converge.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ad.ShapeError(f"jacobi_eigh needs a square [n, n] matrix, n >= 1, "
                            f"got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("jacobi_eigh needs a finite matrix")
    n = a.shape[0]
    v = np.eye(n)
    thresh = tol * np.abs(a).max()
    diag = a.diagonal()                                        # a view: follows a
    rounds = _round_robin(n)
    for sweep in range(max_sweeps + 1):
        if np.abs(np.triu(a, 1)).max() <= thresh:
            return diag.copy(), v
        if sweep == max_sweeps:
            break
        for p, q, pq, qp in rounds:
            apq = a[p, q]
            rotate = np.abs(apq) > thresh
            theta = np.divide(diag[q] - diag[p], 2.0 * apq,
                              out=np.zeros_like(apq), where=rotate)
            t = rotate * np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            # column p <- c*p - s*q and column q <- c*q + s*p, for every pair
            cs, sn = np.concatenate([c, c]), np.concatenate([-s, s])
            a[:, pq] = a[:, pq] * cs + a[:, qp] * sn
            a[pq] = cs[:, None] * a[pq] + sn[:, None] * a[qp]
            v[:, pq] = v[:, pq] * cs + v[:, qp] * sn
    raise np.linalg.LinAlgError(f"Jacobi did not converge in {max_sweeps} sweeps")


def _round_robin(n: int):
    """The n-1 rounds (n if odd) of a round-robin tournament on range(n).

    Each round pairs every index with one other, once per sweep; an odd n
    gets a dummy index, and the pair holding it is dropped. Returns per
    round (p, q, p+q, q+p), with p < q pairwise.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    rounds = []
    for r in range(m - 1):
        seats = np.concatenate([[0], np.roll(ring, r)])
        top, bottom = seats[:m // 2], seats[::-1][:m // 2]
        p, q = np.minimum(top, bottom), np.maximum(top, bottom)
        p, q = p[q < n], q[q < n]
        rounds.append((p, q, np.concatenate([p, q]), np.concatenate([q, p])))
    return rounds


def _centered_embeddings(item_emb: np.ndarray, center: bool = True) -> np.ndarray:
    x = item_emb[PAD_INDEX + 1:]                               # pad row excluded
    if center:
        x = x - x.mean(axis=0, keepdims=True)
    return x


def singular_spectrum(item_emb: np.ndarray, center: bool = True) -> np.ndarray:
    """Descending singular values of the embedding matrix, scaled to [0, 1].

    A table with no row besides the pad row raises ``EmptyDatasetError``.
    """
    if len(item_emb) <= PAD_INDEX + 1:
        raise EmptyDatasetError("no item embeddings besides the pad row")
    x = _centered_embeddings(item_emb, center)
    gram = x.T @ x
    eigvals, _ = jacobi_eigh(gram)
    sv = np.sqrt(np.clip(np.sort(eigvals)[::-1], 0.0, None))
    k = min(x.shape[0], x.shape[1])
    sv = sv[:k]
    if sv[0] <= 0:
        raise ValueError("embedding matrix has rank 0")
    return sv / sv[0]


def spectrum_tail_mass(normalized_sv: np.ndarray) -> float:
    """Sum of normalized singular values beyond the first."""
    return float(normalized_sv[1:].sum())


def project_2d(item_emb: np.ndarray, vocab: ItemVocab, center: bool = True) -> np.ndarray:
    """Per-item (x, y, frequency) on the top-2 right singular directions.

    A d=1 embedding has one direction: y is 0, and (x, 0) is the embedding.
    A table with no row besides the pad row raises ``EmptyDatasetError``.
    """
    if len(item_emb) <= PAD_INDEX + 1:
        raise EmptyDatasetError("no item embeddings besides the pad row")
    x = _centered_embeddings(item_emb, center)
    gram = x.T @ x
    eigvals, eigvecs = jacobi_eigh(gram)
    order = np.argsort(eigvals)[::-1]
    k = min(2, x.shape[1])
    basis = eigvecs[:, order[:k]]                              # [d, k]
    # an eigenvector's sign is arbitrary: make each column's largest-magnitude
    # component (the lowest index on a tie) positive
    lead = basis[np.abs(basis).argmax(axis=0), np.arange(k)]
    basis = basis * np.sign(lead)
    coords = np.zeros((len(x), 2))
    coords[:, :k] = x @ basis                                  # carries the singular-value scale
    freq = vocab.frequency[PAD_INDEX + 1:].astype(np.float64)
    return np.column_stack([coords, freq])


def export_spectrum_csv(path, normalized_sv: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rank", "normalized_singular_value"])
        for i, sv in enumerate(normalized_sv, start=1):
            w.writerow([i, f"{sv:.12g}"])


def export_projection_csv(path, projection_2d: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["item_index", "x", "y", "frequency"])
        for i, (x, y, freq) in enumerate(projection_2d, start=PAD_INDEX + 1):
            w.writerow([i, f"{x:.12g}", f"{y:.12g}", int(freq)])


# -- gradient degeneration probe ----------------------------------------


def gradient_degeneration_probe(params: EncoderParams, batch: Batch,
                                probe_items: list[int], stream: RngStream):
    """Compare measured vs predicted update direction for absent items.

    For an item appearing neither in the inputs nor the targets of the
    batch, the next-item softmax loss moves its embedding row along
    -mean_i p_i(item) * h_i exactly. Returns, per probe item, the
    autodiff-measured descent direction, the closed-form prediction, and
    their cosine. A probe item outside [1, |V|) raises ``IndexError``.
    """
    ad.check_index(np.asarray(probe_items, dtype=np.int64), PAD_INDEX + 1,
                   params["item_emb"].data.shape[0], "probe item")
    appearing = set(batch.item_ids.ravel().tolist()) | set(batch.targets.tolist())
    for item in probe_items:
        if item in appearing:
            raise ValueError(f"probe item {item} appears in the batch")

    h = encode_sequence(batch.item_ids, params, stream)
    logits = ad.matmul(h, ad.transpose(params["item_emb"], (1, 0)))
    loss = ad.cross_entropy_from_logits(logits, batch.targets)
    for t in params.tensors.values():
        t.zero_grad()
    loss.backward()

    probs, _, s = ad.exp_rows(logits.data)                     # [B, |V|] softmax
    probs /= s
    results = []
    for item in probe_items:
        measured = -params["item_emb"].grad[item]              # descent direction
        predicted = -(probs[:, item][:, None] * h.data).mean(axis=0)
        na, nb = np.linalg.norm(measured), np.linalg.norm(predicted)
        cosine = float(measured @ predicted / (na * nb)) if na > 0 and nb > 0 else 0.0
        results.append((measured, predicted, cosine))
    return results


def report(ranks, ks=(5, 10)) -> EvalReport:
    return EvalReport(
        hr={k: hr_at_k(ranks, k) for k in ks},
        ndcg={k: ndcg_at_k(ranks, k) for k in ks},
        n_users=len(ranks),
    )
