"""Interaction-log ingestion, filtering, splitting, and batch assembly.

Pipeline: an event log parsed into (user, item, timestamp) columns ->
iterative 5-core filtering of users and items -> per-user time-ordered
sequences truncated to the most recent ``max_len`` items -> leave-one-out
split -> shuffled batches. Prep works on whole columns: ``ingest`` splits
the file with string methods over the whole text, and ``build_sequences``
factorizes the ids, filters with ``np.bincount`` and orders the events with
one ``np.lexsort``.

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
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .autodiff import ConfigError
from .rng import RngStream

PAD_INDEX = 0


class ParseError(ValueError):
    """Malformed input line."""


class EmptyDatasetError(ValueError):
    """Filtering removed every interaction, or no user is left to evaluate."""


class EventLog(NamedTuple):
    """An event log as parallel columns in file order."""
    users: list[str]
    items: list[str]
    timestamps: np.ndarray      # [n] int64


@dataclass
class ItemVocab:
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


# format -> (separator, fields per line, separator's name in errors)
_FORMATS = {"tsv-uit": ("\t", 3, "tab"), "ml-1m": ("::", 4, "::")}


def ingest(path, fmt: str) -> EventLog:
    """Parse an event log into columns in file order.

    ``tsv-uit`` lines are ``user\\titem\\tts``; ``ml-1m`` lines are
    ``user::item::rating::ts`` and the rating is dropped. Lines may end in
    ``\\n``, ``\\r\\n`` or ``\\r``; empty lines are skipped but counted.
    The file is split with whole-string operations, not line by line. A line
    whose ``split(sep)`` gives the wrong number of fields, or whose timestamp
    ``int()`` rejects or int64 cannot hold, raises ParseError naming the
    first such line.
    """
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown event-log format {fmt!r}")
    sep, n_fields, _ = _FORMATS[fmt]
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read().split("\n")
    lines = list(filter(None, raw))
    stamps = None
    if list(map(str.count, lines, repeat(sep))).count(n_fields - 1) == len(lines):
        # every line holds n_fields - 1 separators and no newline, so the
        # separators and line ends together cut the text into n_fields per line
        fields = "\n".join(lines).replace(sep, "\n").split("\n") if lines else []
        try:
            stamps = np.array(list(map(int, fields[n_fields - 1::n_fields])), dtype=np.int64)
        except (ValueError, OverflowError):
            pass
    if stamps is None:
        raise _first_bad_line(raw, fmt)
    return EventLog(users=fields[0::n_fields], items=fields[1::n_fields], timestamps=stamps)


def _first_bad_line(raw: list[str], fmt: str) -> ParseError:
    """The error for the first line ``ingest`` rejects, found line by line."""
    sep, n_fields, sep_name = _FORMATS[fmt]
    int64 = np.iinfo(np.int64)
    for lineno, line in enumerate(raw, start=1):
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != n_fields:
            return ParseError(f"line {lineno}: expected {n_fields} {sep_name}-separated "
                              f"fields, got {len(parts)}")
        try:
            stamp = int(parts[-1])
        except ValueError:
            return ParseError(f"line {lineno}: bad timestamp {parts[-1]!r}")
        if not int64.min <= stamp <= int64.max:
            return ParseError(f"line {lineno}: timestamp {parts[-1]!r} outside int64")
    raise AssertionError("ingest rejected a log in which every line parses")


def _factorize(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ids in Python string order, and each id's index among them."""
    names = sorted(dict.fromkeys(ids))
    index = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


def build_sequences(log: EventLog, min_count: int = 5, max_len: int = 50):
    """k-core filter users and items to a fixpoint, then build truncated sequences.

    Sequences are listed in Python string order of their users' ids, and
    each user's events ordered by timestamp, ties by file order. Items are
    numbered from 1 in order of first appearance over that traversal. A
    sequence keeps its user's last ``max_len`` items; ``frequency`` counts
    every kept event.
    """
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    user_names, users = _factorize(log.users)
    item_names, items = _factorize(log.items)
    kept = np.arange(len(users))
    while True:
        u, i = users[kept], items[kept]
        ok = ((np.bincount(u, minlength=len(user_names)) >= min_count)[u]
              & (np.bincount(i, minlength=len(item_names)) >= min_count)[i])
        if ok.all():
            break
        kept = kept[ok]
    if not len(kept):
        raise EmptyDatasetError("k-core filtering removed all interactions")

    # lexsort is stable and ``kept`` ascends, so timestamp ties keep file order
    kept = kept[np.lexsort((log.timestamps[kept], users[kept]))]
    users, items = users[kept], items[kept]
    distinct, first = np.unique(items, return_index=True)
    by_first = distinct[np.argsort(first)]
    index_of = np.zeros(len(item_names), dtype=np.int64)
    index_of[by_first] = np.arange(1, len(by_first) + 1)
    mapped = index_of[items]

    item_of = ["<pad>", *map(item_names.__getitem__, by_first.tolist())]
    frequency = np.bincount(mapped, minlength=len(item_of)).astype(np.int64)
    ends = np.append(np.flatnonzero(np.diff(users)) + 1, len(users))
    starts = np.maximum(np.append(0, ends[:-1]), ends - max_len)
    flat = mapped.tolist()
    sequences = [UserSequence(items=flat[s:e]) for s, e in zip(starts.tolist(), ends.tolist())]
    return sequences, ItemVocab(item_of=item_of, frequency=frequency)


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
                        vocab=vocab, max_len=max_len)


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
