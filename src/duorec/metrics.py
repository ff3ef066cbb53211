"""Ranking metrics and representation-geometry diagnostics.

Full-catalog ranking with deterministic index tie-break, HR@K / NDCG@K,
alignment and uniformity on the unit sphere, the singular spectrum and 2D
projection of the item embedding matrix (own Jacobi eigensolver on the
Gram matrix), and a probe comparing the measured gradient on items absent
from a batch with the closed softmax form that drives embedding collapse.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import PAD_INDEX, Batch, ItemVocab
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
    under the same rule. A target whose score is not finite (a diverged
    model) ranks last, so it never counts as a hit.
    """
    t = np.asarray(targets, dtype=np.int64)
    scores = h @ item_emb.T                                    # [B, |V|]
    scores[:, PAD_INDEX] = -np.inf
    target_scores = scores[np.arange(len(t)), t]
    higher = (scores > target_scores[:, None]).sum(axis=1)
    tied_before = ((scores == target_scores[:, None])
                   & (np.arange(scores.shape[1])[None, :] < t[:, None])).sum(axis=1)
    n_items = scores.shape[1] - 1                              # pad row excluded
    return np.where(np.isfinite(target_scores), 1 + higher + tied_before, n_items)


def hr_at_k(ranks, k: int) -> float:
    r = np.asarray(ranks)
    return float((r <= k).mean())


def ndcg_at_k(ranks, k: int) -> float:
    """Single-relevant-item NDCG: 1/log2(rank+1) inside the cut, else 0."""
    r = np.asarray(ranks, dtype=np.float64)
    gains = np.where(r <= k, 1.0 / np.log2(r + 1.0), 0.0)
    return float(gains.mean())


# -- alignment / uniformity --------------------------------------------


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return x / norms


def alignment(pairs_x: np.ndarray, pairs_y: np.ndarray) -> float:
    """Mean squared distance between L2-normalized positive pairs."""
    xn = _normalize_rows(pairs_x)
    yn = _normalize_rows(pairs_y)
    return float((np.linalg.norm(xn - yn, axis=-1) ** 2).mean())


def uniformity(reps: np.ndarray) -> float:
    """log mean over distinct unordered pairs of exp(-2 ||x - y||^2), normalized vectors."""
    if reps.shape[0] < 2:
        raise ValueError("uniformity needs at least 2 vectors")
    xn = _normalize_rows(reps)
    sq = ((xn[:, None, :] - xn[None, :, :]) ** 2).sum(axis=-1)
    iu = np.triu_indices(len(xn), k=1)
    return float(np.log(np.exp(-2.0 * sq[iu]).mean()))


# -- singular spectrum --------------------------------------------------


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Iterates until every off-diagonal magnitude is below ``tol``.
    Returns (eigenvalues, eigenvectors-as-columns), unordered.
    """
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max() if n > 1 else 0.0
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # rotate columns then rows of a, and columns of v, in place
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return np.diag(a).copy(), v


def _centered_embeddings(item_emb: np.ndarray, center: bool = True) -> np.ndarray:
    x = item_emb[PAD_INDEX + 1:]                               # pad row excluded
    if center:
        x = x - x.mean(axis=0, keepdims=True)
    return x


def singular_spectrum(item_emb: np.ndarray, center: bool = True) -> np.ndarray:
    """Descending singular values of the embedding matrix, scaled to [0, 1]."""
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
    """Per-item (x, y, frequency) on the top-2 right singular directions."""
    x = _centered_embeddings(item_emb, center)
    gram = x.T @ x
    eigvals, eigvecs = jacobi_eigh(gram)
    order = np.argsort(eigvals)[::-1]
    basis = eigvecs[:, order[:2]]                              # [d, 2]
    coords = x @ basis                                         # carries the singular-value scale
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
    their cosine.
    """
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

    probs = _softmax_np(logits.data)                           # [B, |V|]
    results = []
    for item in probe_items:
        measured = -params["item_emb"].grad[item]              # descent direction
        predicted = -(probs[:, item][:, None] * h.data).mean(axis=0)
        na, nb = np.linalg.norm(measured), np.linalg.norm(predicted)
        cosine = float(measured @ predicted / (na * nb)) if na > 0 and nb > 0 else 0.0
        results.append((measured, predicted, cosine))
    return results


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def report(ranks, ks=(5, 10)) -> EvalReport:
    return EvalReport(
        hr={k: hr_at_k(ranks, k) for k in ks},
        ndcg={k: ndcg_at_k(ranks, k) for k in ks},
        n_users=len(ranks),
    )
