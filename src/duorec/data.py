"""Interaction-log ingestion, filtering, splitting, and batch assembly.

Pipeline: raw (user, item, timestamp) events -> iterative 5-core filtering
of users and items -> per-user time-ordered sequences truncated to the
most recent ``max_len`` items -> leave-one-out split (last item is the
test target, second-to-last the validation target, every earlier prefix a
training example) -> shuffled batches carrying, for each row, a sampled
partner sequence that shares its target item, plus the mask that removes
same-target rows from the in-batch negative pool.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ConfigError
from .rng import RngStream

PAD_INDEX = 0


class ParseError(ValueError):
    """Malformed input line."""


class EmptyDatasetError(ValueError):
    """Filtering removed every interaction."""


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
class TrainExample:
    prefix: list[int]
    target: int


@dataclass
class EvalExample:
    prefix: list[int]
    target: int


@dataclass
class SplitDataset:
    train: list[TrainExample]
    valid: list[EvalExample]
    test: list[EvalExample]
    vocab: ItemVocab
    max_len: int
    dropped_short: int = 0


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
    train: list[TrainExample] = []
    valid: list[EvalExample] = []
    test: list[EvalExample] = []
    dropped = 0
    for seq in sequences:
        items = seq.items
        if len(items) < 3:
            dropped += 1
            continue
        test.append(EvalExample(prefix=items[:-1], target=items[-1]))
        valid.append(EvalExample(prefix=items[:-2], target=items[-2]))
        # training prefixes end strictly before the validation position
        for t in range(1, len(items) - 2):
            train.append(TrainExample(prefix=items[:t], target=items[t]))
    return SplitDataset(train=train, valid=valid, test=test, vocab=vocab,
                        max_len=max_len, dropped_short=dropped)


def build_target_index(train: list[TrainExample]) -> dict[int, list[int]]:
    """Partition training-example ids by their target item."""
    index: dict[int, list[int]] = defaultdict(list)
    for i, ex in enumerate(train):
        index[ex.target].append(i)
    return dict(index)


def left_pad(prefix: list[int], max_len: int) -> tuple[list[int], int]:
    items = prefix[-max_len:]
    return [PAD_INDEX] * (max_len - len(items)) + items, len(items)


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


def _assemble_batch(train, ids, index, max_len, stream) -> Batch:
    b = len(ids)
    item_ids = np.zeros((b, max_len), dtype=np.int64)
    positive_ids = np.zeros((b, max_len), dtype=np.int64)
    lengths = np.zeros(b, dtype=np.int64)
    targets = np.zeros(b, dtype=np.int64)
    positive_targets = np.zeros(b, dtype=np.int64)
    for row, ex_id in enumerate(ids):
        ex = train[ex_id]
        padded, n = left_pad(ex.prefix, max_len)
        item_ids[row] = padded
        lengths[row] = n
        targets[row] = ex.target
        peers = index[ex.target]
        candidates = [p for p in peers if p != ex_id]
        if candidates:
            pick = candidates[int(stream.integers(0, len(candidates), 1)[0])]
        else:
            pick = ex_id  # singleton target: the dropout twin remains the positive
        pex = train[pick]
        positive_ids[row], _ = left_pad(pex.prefix, max_len)
        positive_targets[row] = pex.target
    mask = make_collision_mask(targets, positive_targets)
    return Batch(item_ids=item_ids, lengths=lengths, targets=targets,
                 positive_ids=positive_ids, positive_targets=positive_targets,
                 collision_mask=mask)


def iter_epoch(data: SplitDataset, index: dict[int, list[int]], batch_size: int,
               stream: RngStream):
    """Yield batches covering each training example exactly once, shuffled."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    order = stream.permutation(len(data.train))
    for start in range(0, len(order), batch_size):
        ids = order[start:start + batch_size]
        yield _assemble_batch(data.train, ids, index, data.max_len, stream)


def eval_batches(examples: list[EvalExample], max_len: int, batch_size: int = 256):
    """Yield (item_ids, lengths, targets) triples for evaluation."""
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        ids = np.zeros((len(chunk), max_len), dtype=np.int64)
        lengths = np.zeros(len(chunk), dtype=np.int64)
        targets = np.zeros(len(chunk), dtype=np.int64)
        for row, ex in enumerate(chunk):
            ids[row], lengths[row] = left_pad(ex.prefix, max_len)
            targets[row] = ex.target
        yield ids, lengths, targets
