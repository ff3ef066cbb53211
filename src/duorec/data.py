"""Interaction-log ingestion, filtering, splitting, and batch assembly.

Pipeline: raw (user, item, timestamp) events -> iterative 5-core filtering
of users and items -> per-user time-ordered sequences truncated to the
most recent ``max_len`` items -> leave-one-out split -> shuffled batches.

The split stores every example as one integer: the position of its target
in a flat int64 item array, where each user's sequence is preceded by
``max_len`` pad zeros. A user's last item is the test target, the
second-to-last the validation target, and every earlier item after the
first a training target. The model input for position ``p`` is the window
``items[p - max_len:p]``, already left-padded by the pad run, so a batch of
inputs is one gather (``SplitDataset.window``).

Each training row also carries a partner drawn uniformly from the other
examples with the same target (grouped once by ``build_target_index``),
plus the mask that removes same-target rows from the in-batch negative
pool.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigError
from .rng import RngStream

PAD_INDEX = 0


class ParseError(ValueError):
    """Malformed input line."""


class EmptyDatasetError(ValueError):
    """Filtering removed every interaction, or no user is left to evaluate."""


@dataclass
class RawEvent:
    user_id: str
    item_id: str
    timestamp: int


@dataclass
class ItemVocab:
    id_of: dict[str, int]
    item_of: list[str]          # index -> external id; item_of[0] is the pad slot
    frequency: np.ndarray       # per-index occurrence count in the training split

    @property
    def size(self) -> int:
        """Number of rows including the reserved pad index 0."""
        return len(self.item_of)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["index", "item_id", "frequency"])
            for i in range(1, self.size):
                w.writerow([i, self.item_of[i], int(self.frequency[i])])


@dataclass
class UserSequence:
    user: int
    items: list[int]            # time-ascending dense item indices


@dataclass
class SplitDataset:
    """Leave-one-out examples as target positions in ``items`` (module docstring)."""
    items: np.ndarray           # [T] int64, pad runs and sequences interleaved
    train: np.ndarray           # [E] int64 target positions
    valid: np.ndarray           # [U] int64
    test: np.ndarray            # [U] int64
    vocab: ItemVocab
    max_len: int
    dropped_short: int = 0

    def window(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left-padded inputs [len(pos), max_len] and targets for positions."""
        pos = np.asarray(pos, dtype=np.int64)
        ids = self.items[pos[:, None] + np.arange(-self.max_len, 0)]
        return ids, self.items[pos]


@dataclass
class TargetIndex:
    """Example ids stably sorted by target (``order``); example ``e``'s group
    is ``order[start[e]:start[e] + count[e]]``, where ``e`` sits at ``slot[e]``.
    """
    order: np.ndarray
    start: np.ndarray
    count: np.ndarray
    slot: np.ndarray


@dataclass
class Batch:
    item_ids: np.ndarray        # [B, N] left-padded
    lengths: np.ndarray         # [B]
    targets: np.ndarray         # [B]
    positive_ids: np.ndarray    # [B, N] left-padded partner sequences
    positive_targets: np.ndarray
    collision_mask: np.ndarray  # [2B, 2B] bool; True = admissible negative

    @property
    def size(self) -> int:
        return len(self.targets)


def ingest(path, fmt: str) -> list[RawEvent]:
    """Parse an event log; ``tsv-uit`` is user\\titem\\tts, ``ml-1m`` is ::-separated."""
    if fmt not in ("tsv-uit", "ml-1m"):
        raise ConfigError(f"unknown event-log format {fmt!r}")
    events: list[RawEvent] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if fmt == "tsv-uit":
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
                user, item, ts = parts
            else:
                parts = line.split("::")
                if len(parts) != 4:
                    raise ParseError(f"line {lineno}: expected 4 ::-separated fields, got {len(parts)}")
                user, item, _rating, ts = parts
            try:
                timestamp = int(ts)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad timestamp {ts!r}") from exc
            events.append(RawEvent(user, item, timestamp))
    return events


def build_sequences(events: list[RawEvent], min_count: int = 5, max_len: int = 50):
    """k-core filter users and items to a fixpoint, then build truncated sequences."""
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    kept = list(range(len(events)))
    while True:
        user_count = Counter(events[i].user_id for i in kept)
        item_count = Counter(events[i].item_id for i in kept)
        new_kept = [
            i for i in kept
            if user_count[events[i].user_id] >= min_count and item_count[events[i].item_id] >= min_count
        ]
        if len(new_kept) == len(kept):
            break
        kept = new_kept
    if not kept:
        raise EmptyDatasetError("k-core filtering removed all interactions")

    # stable sort: timestamp ascending, ties by file order
    per_user: dict[str, list[int]] = defaultdict(list)
    for i in kept:
        per_user[events[i].user_id].append(i)

    id_of: dict[str, int] = {}
    item_of: list[str] = ["<pad>"]
    freq = Counter()
    sequences: list[UserSequence] = []
    for u, (user_id, idxs) in enumerate(sorted(per_user.items())):
        idxs.sort(key=lambda i: (events[i].timestamp, i))
        items = []
        for i in idxs:
            ext = events[i].item_id
            if ext not in id_of:
                id_of[ext] = len(item_of)
                item_of.append(ext)
            items.append(id_of[ext])
            freq[id_of[ext]] += 1
        sequences.append(UserSequence(user=u, items=items[-max_len:]))

    frequency = np.zeros(len(item_of), dtype=np.int64)
    for idx, c in freq.items():
        frequency[idx] = c
    return sequences, ItemVocab(id_of=id_of, item_of=item_of, frequency=frequency)


def split_leave_one_out(sequences: list[UserSequence], vocab: ItemVocab, max_len: int = 50) -> SplitDataset:
    """Last item -> test, second-to-last -> valid, earlier prefixes -> train."""
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    kept = [np.asarray(seq.items, dtype=np.int64) for seq in sequences if len(seq.items) >= 3]
    pad = np.zeros(max_len, dtype=np.int64)
    items = np.concatenate([pad[:0]] + [part for seq in kept for part in (pad, seq)])
    lengths = np.array([len(seq) for seq in kept], dtype=np.int64)
    ends = np.cumsum(lengths + max_len)                       # one past each user's last item
    # training targets sit at offsets 1 .. len-3: strictly before validation
    n_train = lengths - 3
    first = np.repeat(ends - lengths + 1, n_train)
    within = np.arange(n_train.sum()) - np.repeat(np.cumsum(n_train) - n_train, n_train)
    return SplitDataset(items=items, train=first + within, valid=ends - 2, test=ends - 1,
                        vocab=vocab, max_len=max_len,
                        dropped_short=len(sequences) - len(kept))


def build_target_index(targets: np.ndarray) -> TargetIndex:
    """Group training examples by their target item."""
    _, group, count = np.unique(targets, return_inverse=True, return_counts=True)
    start = np.cumsum(count) - count
    order = np.argsort(targets, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order)) - start[group[order]]
    return TargetIndex(order=order, start=start[group], count=count[group], slot=slot)


def make_collision_mask(targets: np.ndarray, positive_targets: np.ndarray) -> np.ndarray:
    """2B x 2B admissibility mask over interleaved slots [h'_1, h'_1s, ...].

    True marks an admissible negative; the diagonal, each slot's own
    partner, and every slot whose underlying target matches are False.
    """
    b = len(targets)
    slot_targets = np.empty(2 * b, dtype=np.int64)
    slot_targets[0::2] = targets
    slot_targets[1::2] = positive_targets
    mask = slot_targets[:, None] != slot_targets[None, :]
    slots = np.arange(2 * b)
    mask[slots, slots] = False
    mask[slots, slots ^ 1] = False
    return mask


def _pick_partners(ids: np.ndarray, index: TargetIndex, stream: RngStream) -> np.ndarray:
    """For each example, a uniformly drawn other example with its target.

    The m rows with peers draw in row order from the first output of m
    counter blocks: the values and counter advance of m ``integers(0, k, 1)``
    calls. A singleton target keeps the row (its dropout twin is the positive).
    """
    has_peers = index.count[ids] > 1
    drawn = ids[has_peers]
    k = index.count[drawn] - 1                                 # peers other than the row
    u = stream.uniform(4 * len(drawn))[0::4]
    j = np.minimum((u * k).astype(np.int64), k - 1)
    j += j >= index.slot[drawn]                                # skip the row's own slot
    partners = ids.copy()
    partners[has_peers] = index.order[index.start[drawn] + j]
    return partners


def iter_epoch(data: SplitDataset, index: TargetIndex, batch_size: int,
               stream: RngStream):
    """Yield batches covering each training example exactly once, shuffled."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    order = stream.permutation(len(data.train))
    for start in range(0, len(order), batch_size):
        ids = order[start:start + batch_size]
        item_ids, targets = data.window(data.train[ids])
        positive_ids, positive_targets = data.window(
            data.train[_pick_partners(ids, index, stream)])
        yield Batch(item_ids=item_ids, lengths=(item_ids != PAD_INDEX).sum(axis=1),
                    targets=targets, positive_ids=positive_ids,
                    positive_targets=positive_targets,
                    collision_mask=make_collision_mask(targets, positive_targets))
