"""Independent oracles for the benchmark's output checks.

None of these call into ``duorec``: the ranking and the prep output are
recomputed from the generated inputs with plain NumPy, so a change that
alters what the program computes fails the run instead of only moving a
timing.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- prep -------------------------------------------------------------------


def expected_prep(users: np.ndarray, items: np.ndarray, stamps: np.ndarray,
                  min_count: int, max_len: int):
    """What ``duorec prep`` must write for a log given as parallel event arrays.

    ``users`` and ``items`` are non-negative ints whose external ids are
    ``user_id(u)`` and ``str(i)``; the zero-padded user ids sort like the
    ints. Filtering is the iterated k-core; each kept user's events are
    ordered by (timestamp, file position); items are numbered from 1 in
    order of first appearance over that traversal; sequences keep the last
    ``max_len`` items and frequencies count every kept event.

    Returns (sequences.txt text, [(index, item_id, frequency), ...]).
    """
    keep = np.ones(len(users), dtype=bool)
    while True:
        uc = np.bincount(users[keep], minlength=users.max() + 1)
        ic = np.bincount(items[keep], minlength=items.max() + 1)
        new_keep = keep & (uc[users] >= min_count) & (ic[items] >= min_count)
        if new_keep.sum() == keep.sum():
            break
        keep = new_keep
    pos = np.flatnonzero(keep)
    order = pos[np.lexsort((pos, stamps[pos], users[pos]))]
    seq_users, seq_items = users[order], items[order]
    distinct, first = np.unique(seq_items, return_index=True)
    by_first = distinct[np.argsort(first)]
    index_of = np.zeros(items.max() + 1, dtype=np.int64)
    index_of[by_first] = np.arange(1, len(by_first) + 1)
    mapped = index_of[seq_items]
    bounds = np.flatnonzero(np.diff(seq_users)) + 1
    lines = [" ".join(map(str, chunk[-max_len:].tolist()))
             for chunk in np.split(mapped, bounds)]
    freq = np.bincount(mapped, minlength=len(by_first) + 1)
    vocab = [(k + 1, str(int(item)), int(freq[k + 1])) for k, item in enumerate(by_first)]
    return "".join(line + "\n" for line in lines), vocab


def check_prep_output(out_dir: Path, expected) -> None:
    seq_text, vocab = expected
    require((out_dir / "sequences.txt").read_text() == seq_text,
            f"prep: {out_dir}/sequences.txt differs from the NumPy k-core oracle")
    with open(out_dir / "vocab.csv", newline="") as f:
        rows = list(csv.reader(f))
    require(rows[0] == ["index", "item_id", "frequency"], "prep: bad vocab.csv header")
    got = [(int(a), b, int(c)) for a, b, c in rows[1:]]
    require(got == vocab, f"prep: {out_dir}/vocab.csv differs from the NumPy oracle")


# -- ranking ----------------------------------------------------------------


def brute_force_ranks(h: np.ndarray, item_emb: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each target among the non-pad items, by full argsort.

    Scores sort descending; equal scores keep the smaller item index first.
    The pad row 0 is left out of the catalog.
    """
    scores = h @ item_emb[1:].T
    ranks = np.empty(len(targets), dtype=np.int64)
    index = np.arange(1, item_emb.shape[0])
    for row, target in enumerate(targets):
        order = np.lexsort((index, -scores[row]))
        ranks[row] = int(np.flatnonzero(index[order] == target)[0]) + 1
    return ranks


def metrics_from_ranks(ranks: np.ndarray, ks=(5, 10)) -> dict[str, float]:
    out = {}
    for k in ks:
        out[f"hr@{k}"] = round(float(np.mean(ranks <= k)), 6)
        out[f"ndcg@{k}"] = round(float(np.mean(
            [1.0 / math.log2(r + 1.0) if r <= k else 0.0 for r in ranks])), 6)
    return out


def check_eval_json(got: dict, ranks: np.ndarray, label: str) -> None:
    want = metrics_from_ranks(ranks)
    require(set(got) == set(want), f"{label}: eval.json keys {sorted(got)}")
    for key, value in want.items():
        # both sides round to 6 places; allow one unit for summation order
        require(abs(got[key] - value) <= 1.5e-6,
                f"{label}: {key}={got[key]} but brute-force rank gives {value}")


# -- training ---------------------------------------------------------------


def check_curves(path: Path, epochs: int, stderr: str) -> int:
    """Finite losses on every epoch row and no divergence warning."""
    require("diverged" not in stderr, f"training reported divergence: {stderr.strip()}")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    require(len(rows) == epochs, f"{path}: {len(rows)} epoch rows, expected {epochs}")
    for row in rows:
        for key in ("rec_loss", "reg_loss"):
            require(math.isfinite(float(row[key])), f"{path}: non-finite {key} {row}")
    return len(rows)
