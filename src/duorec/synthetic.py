"""Synthetic clustered-preference corpora for smoke tests and diagnostics.

Items are grouped into preference clusters with a skewed within-cluster
popularity; each user sticks to one cluster, so the next item is
predictable at the cluster level while rare items exercise the
degeneration regime (mostly trained as non-targets).
"""

from __future__ import annotations

import numpy as np

from .data import ItemVocab, UserSequence
from .rng import RngStream


def make_clustered_corpus(n_items: int = 200, n_clusters: int = 10,
                          n_sequences: int = 500, min_len: int = 8,
                          max_len: int = 20, seed: int = 0,
                          zipf: float = 1.0):
    """Returns (sequences, vocab) with a zipfian within-cluster popularity.

    ``zipf`` is the popularity exponent: larger values concentrate draws on
    each cluster's head items, leaving a long tail of items that are mostly
    trained as non-targets. Users spread evenly over the clusters.
    """
    stream = RngStream(seed, "synthetic")
    per_cluster = n_items // n_clusters
    # item index 0 is the pad slot; real items are 1..n_items
    cluster_items = [
        np.arange(1 + c * per_cluster, 1 + (c + 1) * per_cluster)
        for c in range(n_clusters)
    ]
    weights = 1.0 / np.arange(1, per_cluster + 1) ** zipf
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    ccdf = np.cumsum(np.ones(n_clusters) / n_clusters)

    drawn = [np.empty(0, dtype=np.int64)]      # every sequence's items, for one count
    for _ in range(n_sequences):
        c = int(np.searchsorted(ccdf, stream.uniform(1)[0]))
        length = int(stream.integers(min_len, max_len + 1, 1)[0])
        drawn.append(cluster_items[c][np.searchsorted(cdf, stream.uniform(length))])
    sequences = [UserSequence(items=items.tolist()) for items in drawn[1:]]
    frequency = np.bincount(np.concatenate(drawn), minlength=n_items + 1)

    vocab = ItemVocab(item_of=["<pad>"] + [str(i) for i in range(1, n_items + 1)],
                      frequency=frequency)
    return sequences, vocab
