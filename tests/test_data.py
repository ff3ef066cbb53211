import dataclasses
import hashlib
from collections import defaultdict

import numpy as np
import pytest

from duorec.autodiff import ConfigError
from duorec.data import (PAD_INDEX, Batch, EmptyDatasetError, EventLog, ParseError,
                         build_sequences, build_target_index, ingest,
                         iter_epoch, make_collision_mask, split_leave_one_out,
                         ItemVocab, SplitDataset, UserSequence)
from duorec.rng import RngStream
from duorec.synthetic import make_clustered_corpus

from conftest import build_sequences_reference, ingest_reference


def _log(triples):
    users, items, stamps = zip(*triples) if triples else ((), (), ())
    return EventLog(list(users), list(items), np.array(stamps, dtype=np.int64))


def _corpus(n_users=10, seq_len=6):
    """Every user interacts with every item, so nothing is filtered."""
    return _log([(f"u{u}", f"i{t}", t) for u in range(n_users) for t in range(seq_len)])


class TestIngest:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        log = ingest(p, "tsv-uit")
        assert log.users == [] and log.items == []
        assert log.timestamps.dtype == np.int64 and log.timestamps.shape == (0,)

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("u1\ta\t3\nu2\tb\t1\nu1\tc\t2\n")
        log = ingest(p, "tsv-uit")
        assert log.users == ["u1", "u2", "u1"] and log.items == ["a", "b", "c"]
        assert log.timestamps.tolist() == [3, 1, 2]

    def test_missing_field_names_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("u1\ta\t3\nu2\tb\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest(p, "tsv-uit")

    def test_ml1m_format_discards_rating(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::1193::5::978300760\n")
        log = ingest(p, "ml-1m")
        assert log.items == ["1193"] and log.timestamps.tolist() == [978300760]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            ingest(tmp_path / "x", "csv")

    @pytest.mark.parametrize("fmt, text, message", [
        ("tsv-uit", "u\ta\t1\n\nu\tb\t2\tx\n",
         "line 3: expected 3 tab-separated fields, got 4"),
        ("ml-1m", "u::a::5::1\r\nu::b::5\r\n", "line 2: expected 4 ::-separated fields, got 3"),
        ("ml-1m", "u::a::5::1\nu:::::b::5::2\n", "line 2: expected 4 ::-separated fields, got 5"),
        ("tsv-uit", "\n\nu\ta\t1.5\n", "line 3: bad timestamp '1.5'"),
        # joined to the next line by '::', '1:' would read as 1 and shift a colon on
        ("ml-1m", "u::a::5::1:\nv::b::5::2\n", "line 1: bad timestamp '1:'"),
        ("tsv-uit", "u\ta\t1\nu\tb\t\n", "line 2: bad timestamp ''"),
        ("tsv-uit", f"u\ta\t1\nu\tb\t{2**63}\n",
         f"line 2: timestamp '{2**63}' outside int64"),
        ("ml-1m", f"u::a::5::{-2**63 - 1}\n", f"line 1: timestamp '{-2**63 - 1}' outside int64"),
        # the first bad line is named, whatever is wrong with later ones
        ("tsv-uit", "u\ta\tx\nu\tb\n", "line 1: bad timestamp 'x'"),
        ("tsv-uit", "u\ta\n" f"u\tb\t{2**64}\n", "line 1: expected 3 tab-separated"),
        ("tsv-uit", f"u\ta\t{2**64}\nu\tb\tx\n", "line 1: timestamp"),
    ])
    def test_bad_line_is_named(self, tmp_path, fmt, text, message):
        p = tmp_path / "bad.log"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as err:
            ingest(p, fmt)
        assert str(err.value).startswith(message)

    def test_int64_bounds_are_accepted(self, tmp_path):
        p = tmp_path / "edge.tsv"
        p.write_text(f"u\ta\t{2**63 - 1}\nu\tb\t{-2**63}\n")
        assert ingest(p, "tsv-uit").timestamps.tolist() == [2**63 - 1, -2**63]

    def test_crlf_and_empty_lines(self, tmp_path):
        p = tmp_path / "crlf.dat"
        p.write_bytes("\r\n1::a::5::7\r\n\r\n2::b::4::3\r".encode("utf-8"))
        log = ingest(p, "ml-1m")
        assert log == EventLog(["1", "2"], ["a", "b"], log.timestamps)
        assert log.timestamps.tolist() == [7, 3]


class TestBuildSequences:
    def test_kcore_fixpoint_removes_cascades(self):
        # u0 has 5 events but one of its items only appears 4 times overall
        log = _log([(u, i, t) for u, i, t in zip(*_corpus(n_users=6, seq_len=6))
                    if not (u == "u5" and i != "i0")])
        sequences, vocab = build_sequences(log, min_count=5)
        assert len(sequences) == 5  # u5 dropped (1 event after item filtering)
        for seq in sequences:
            counts = np.bincount([i for s in sequences for i in s.items])
            assert all(c >= 5 for c in counts[1:] if c)

    def test_all_filtered_raises(self):
        with pytest.raises(EmptyDatasetError):
            build_sequences(_log([("u", "i", 0)]), min_count=5)

    def test_truncation_keeps_most_recent(self):
        log = _log([(f"u{u}", f"i{t}", t) for u in range(5) for t in range(60)])
        sequences, vocab = build_sequences(log, min_count=5, max_len=50)
        seq = sequences[0]
        assert len(seq.items) == 50
        assert vocab.item_of[seq.items[-1]] == "i59"
        assert vocab.item_of[seq.items[0]] == "i10"

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_nonpositive_max_len_rejected(self, max_len):
        # max_len 0 used to keep whole sequences, and a negative one to drop
        # each user's oldest items while the vocabulary still counted them
        with pytest.raises(ConfigError):
            build_sequences(_corpus(), min_count=5, max_len=max_len)

    def test_timestamp_ties_broken_by_file_order(self):
        log = _log([(f"u{u}", i, t) for u in range(5)
                    for i, t in (("a", 1), ("b", 1), ("c", 0), ("a", 2), ("b", 2))])
        sequences, vocab = build_sequences(log, min_count=5)
        names = [vocab.item_of[i] for i in sequences[0].items]
        assert names == ["c", "a", "b", "a", "b"]

    def test_pad_index_reserved(self):
        sequences, vocab = build_sequences(_corpus(), min_count=5)
        assert vocab.item_of[PAD_INDEX] == "<pad>"
        assert all(PAD_INDEX not in s.items for s in sequences)

    def test_frequency_sums_to_actions(self):
        sequences, vocab = build_sequences(_corpus(), min_count=5)
        assert vocab.frequency.sum() == sum(len(s.items) for s in sequences)

    def test_users_in_string_order(self):
        # each user has an item of its own, so the sequences name their users
        log = _log([(u, "i" + u, t)
                    for t, u in enumerate(["b", "a", "B", "é", "a", "b", "é", "B"])])
        sequences, vocab = build_sequences(log, min_count=2)
        assert [[vocab.item_of[i] for i in s.items] for s in sequences] == [
            ["iB", "iB"], ["ia", "ia"], ["ib", "ib"], ["ié", "ié"]]


def _write_random_log(path, fmt, rng, n_events, users, items, stamp_range):
    """A log of random events drawn with replacement, so pairs, ties and
    whole duplicate events recur; CRLF endings and empty lines mixed in."""
    sep = "\t" if fmt == "tsv-uit" else "::"
    lines = []
    for _ in range(n_events):
        fields = [users[rng.integers(len(users))], items[rng.integers(len(items))],
                  str(int(rng.integers(stamp_range)))]
        if fmt == "ml-1m":
            fields.insert(2, str(int(rng.integers(1, 6))))
        lines.append(sep.join(fields))
        if rng.random() < 0.05:
            lines.append("")
    ending = "\r\n" if rng.random() < 0.5 else "\n"
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))


class TestPrepAgainstReference:
    """``ingest`` + ``build_sequences`` against the line-by-line, Counter-based
    reference in conftest: identical sequences in the same user order,
    ``item_of`` and ``frequency``, or the same ParseError."""

    def _check(self, path, fmt, min_count, max_len):
        try:
            events = ingest_reference(path, fmt)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                ingest(path, fmt)
            assert str(err.value) == str(exc)
            return False
        log = ingest(path, fmt)
        assert list(zip(log.users, log.items, log.timestamps.tolist())) == events
        seqs, item_of, freq = build_sequences_reference(events, min_count, max_len)
        if not seqs:
            with pytest.raises(EmptyDatasetError):
                build_sequences(log, min_count=min_count, max_len=max_len)
            return True
        sequences, vocab = build_sequences(log, min_count=min_count, max_len=max_len)
        assert [s.items for s in sequences] == seqs
        assert vocab.item_of == item_of
        assert vocab.frequency.dtype == np.int64 and vocab.frequency.tolist() == freq
        return True

    @pytest.mark.parametrize("fmt", ["tsv-uit", "ml-1m"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_logs(self, tmp_path, fmt, seed):
        rng = np.random.default_rng([seed, fmt == "ml-1m"])
        users = [f"u{k}" for k in range(int(rng.integers(3, 30)))] + ["ü", "日本", "Zed", "a b"]
        items = [str(k) for k in range(int(rng.integers(3, 40)))] + ["é", "☃", "x y"]
        for min_count in range(1, 7):
            path = tmp_path / f"log{min_count}"
            _write_random_log(path, fmt, rng, int(rng.integers(0, 400)), users, items,
                              int(rng.integers(1, 50)))
            for max_len in (1, 3, 10_000):
                assert self._check(path, fmt, min_count, max_len)

    @pytest.mark.parametrize("seed", range(4))
    def test_colons_at_id_edges(self, tmp_path, seed):
        # ml-1m ids that start or end with ':' shift a colon into the next
        # field, or make a line of five fields
        rng = np.random.default_rng(seed)
        ids = ["a", ":b", "c:", ":d:", "e", "f"]
        parsed = 0
        for trial in range(20):
            path = tmp_path / f"log{trial}"
            _write_random_log(path, "ml-1m", rng, int(rng.integers(1, 60)), ids, ids, 5)
            parsed += self._check(path, "ml-1m", int(rng.integers(1, 4)), 5)
        assert 0 < parsed < 20

    @pytest.mark.parametrize("min_count", range(1, 7))
    def test_kcore_cascade(self, tmp_path, min_count):
        # x has min_count - 1 events, so (for min_count >= 2) the rounds drop
        # x; then A; y; B; z; C; and only D's events of w stay
        m = min_count
        pairs = ([("A", "x")] * (m - 1) + [("A", "y")] + [("B", "y")] * (m - 1) + [("B", "z")]
                 + [("C", "z")] * (m - 1) + [("C", "w")] + [("D", "w")] * m)
        path = tmp_path / "cascade.tsv"
        path.write_text("".join(f"{u}\t{i}\t{t}\n" for t, (u, i) in enumerate(pairs)))
        assert self._check(path, "tsv-uit", min_count, 50)
        sequences, vocab = build_sequences(ingest(path, "tsv-uit"), min_count=min_count)
        if min_count == 1:
            assert len(sequences) == 4
        else:
            assert [s.items for s in sequences] == [[1] * m]
            assert vocab.item_of == ["<pad>", "w"] and vocab.frequency.tolist() == [0, m]


@pytest.mark.parametrize("cls, names", [
    (ItemVocab, ["item_of", "frequency"]),
    (UserSequence, ["items"]),
    (SplitDataset, ["items", "train", "valid", "test", "vocab", "max_len"]),
])
def test_fields_have_one_form(cls, names):
    # a user is its sequence's position, an item's index its place in
    # item_of, and the short users' count len(sequences) - len(split.test)
    assert [f.name for f in dataclasses.fields(cls)] == names


class TestSplitLeaveOneOut:
    def test_protocol_walkthrough(self):
        vocab = ItemVocab(["<pad>"], np.zeros(5, dtype=np.int64))
        seqs = [UserSequence([1, 2, 3, 4])]
        split = split_leave_one_out(seqs, vocab, max_len=5)
        for pos, prefix, target in ((split.test, [0, 0, 1, 2, 3], 4),
                                    (split.valid, [0, 0, 0, 1, 2], 3),
                                    (split.train, [0, 0, 0, 0, 1], 2)):
            ids, targets = split.window(pos)
            assert ids.tolist() == [prefix] and targets.tolist() == [target]

    def test_window_stays_inside_its_user(self):
        # the pad run before each sequence keeps a full-width window from
        # reading the previous user's items
        vocab = ItemVocab(["<pad>"], np.zeros(10, dtype=np.int64))
        seqs = [UserSequence([1, 2, 3, 4, 5, 6]), UserSequence([7, 8, 9])]
        split = split_leave_one_out(seqs, vocab, max_len=3)
        ids, targets = split.window(split.test)
        assert ids.tolist() == [[3, 4, 5], [0, 7, 8]]
        assert targets.tolist() == [6, 9]

    def test_length_three_contributes_eval_only(self):
        # shortest admissible sequence: valid and test pairs but no train
        # prefix ends before the validation position
        vocab = ItemVocab(["<pad>"], np.zeros(4, dtype=np.int64))
        split = split_leave_one_out([UserSequence([1, 2, 3])], vocab, max_len=10)
        assert len(split.train) == 0
        assert len(split.valid) == 1 and len(split.test) == 1

    def test_short_sequences_dropped_with_count(self):
        vocab = ItemVocab(["<pad>"], np.zeros(4, dtype=np.int64))
        split = split_leave_one_out([UserSequence([1, 2]), UserSequence([1, 2, 3])],
                                    vocab, max_len=10)
        assert len(split.valid) == len(split.test) == 1 and len(split.train) == 0
        assert split.window(split.test)[1].tolist() == [3]

    def test_counting_oracle(self, rng):
        # one train example per prefix position strictly before the
        # validation target: sum over users of (len - 3)
        vocab = ItemVocab(["<pad>"], np.zeros(30, dtype=np.int64))
        lengths = rng.integers(3, 12, size=10)
        seqs = [UserSequence((1 + rng.integers(0, 29, size=n)).tolist())
                for n in lengths]
        split = split_leave_one_out(seqs, vocab, max_len=20)
        assert len(split.train) == int((lengths - 3).sum())


def _groups(index, targets):
    """The index read back as {target: example ids in order}."""
    groups = {}
    for e, t in enumerate(targets):
        run = index.order[index.start[e]:index.start[e] + index.count[e]].tolist()
        assert run[index.slot[e]] == e
        assert groups.setdefault(int(t), run) == run
    return groups


class TestTargetIndex:
    def test_shared_target_grouped(self):
        targets = np.array([9, 9])
        assert _groups(build_target_index(targets), targets) == {9: [0, 1]}

    def test_disjoint_targets_singletons(self):
        index = build_target_index(np.array([5, 6]))
        assert index.count.tolist() == [1, 1]

    def test_partition_counts(self, rng):
        targets = rng.integers(1, 11, size=100)
        groups = _groups(build_target_index(targets), targets)
        assert sum(len(v) for v in groups.values()) == 100
        expected = defaultdict(list)
        for e, t in enumerate(targets):
            expected[int(t)].append(e)
        assert groups == expected


class TestCollisionMask:
    def test_distinct_targets_two_negatives_each(self):
        mask = make_collision_mask(np.array([3, 4]), np.array([3, 4]))
        assert mask.shape == (4, 4)
        for s in range(4):
            assert not mask[s, s] and not mask[s, s ^ 1]
            assert mask[s].sum() == 2  # 2(B-1) negatives for B=2

    def test_shared_target_rows_mutually_masked(self):
        mask = make_collision_mask(np.array([7, 7]), np.array([7, 7]))
        assert not mask.any()

    def test_symmetry_and_target_consistency(self, rng):
        targets = rng.integers(1, 4, size=5)
        mask = make_collision_mask(targets, targets.copy())
        np.testing.assert_array_equal(mask, mask.T)
        slot_targets = np.repeat(targets, 2)
        for i in range(10):
            for j in range(10):
                expected = slot_targets[i] != slot_targets[j] and j not in (i, i ^ 1)
                assert mask[i, j] == expected

    def test_matches_loop_reference_bytes(self, rng):
        def loop_mask(targets, positive_targets):
            b = len(targets)
            slot_targets = np.empty(2 * b, dtype=np.int64)
            slot_targets[0::2] = targets
            slot_targets[1::2] = positive_targets
            mask = slot_targets[:, None] != slot_targets[None, :]
            for i in range(2 * b):
                mask[i, i] = False
                mask[i, i ^ 1] = False
            return mask

        for b in (1, 2, 7, 64):
            targets = rng.integers(1, 6, size=b)               # few values: many collisions
            positives = np.where(rng.random(b) < 0.5, targets, rng.integers(1, 6, size=b))
            got = make_collision_mask(targets, positives)
            want = loop_mask(targets, positives)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestBatching:
    def _corpus(self):
        seqs, vocab = make_clustered_corpus(n_items=50, n_clusters=5,
                                            n_sequences=40, seed=3)
        return seqs, split_leave_one_out(seqs, vocab, max_len=20)

    def test_epoch_covers_every_example_once(self):
        seqs, split = self._corpus()
        index = build_target_index(split.items[split.train])
        seen = []
        for batch in iter_epoch(split, index, 32, RngStream(1, "ep")):
            for row in range(batch.size):
                real = batch.item_ids[row][batch.item_ids[row] != PAD_INDEX]
                seen.append((tuple(real.tolist()), int(batch.targets[row])))
        assert sorted(seen) == sorted(
            (tuple(s.items[:t][-20:]), s.items[t])
            for s in seqs for t in range(1, len(s.items) - 2))

    def test_left_padding_layout(self):
        _, split = self._corpus()
        index = build_target_index(split.items[split.train])
        for batch in iter_epoch(split, index, 16, RngStream(2, "ep")):
            for row in range(batch.size):
                n = batch.lengths[row]
                assert (batch.item_ids[row, :20 - n] == PAD_INDEX).all()
                assert (batch.item_ids[row, 20 - n:] != PAD_INDEX).all()
                assert batch.targets[row] != PAD_INDEX

    def test_positive_partner_shares_target(self):
        _, split = self._corpus()
        index = build_target_index(split.items[split.train])
        for batch in iter_epoch(split, index, 16, RngStream(3, "ep")):
            np.testing.assert_array_equal(batch.targets, batch.positive_targets)

    def test_singleton_target_falls_back_to_self(self):
        vocab = ItemVocab(["<pad>"] + ["x"] * 9, np.zeros(10, dtype=np.int64))
        # training targets 2, 3, 5 and 6, one example each
        split = split_leave_one_out([UserSequence([1, 2, 3, 4, 5]),
                                     UserSequence([4, 5, 6, 7, 8])], vocab, max_len=5)
        index = build_target_index(split.items[split.train])
        stream = RngStream(4, "ep")
        (batch,) = iter_epoch(split, index, 4, stream)
        for row in range(4):
            np.testing.assert_array_equal(batch.item_ids[row], batch.positive_ids[row])
        assert stream.counter == 1                             # the shuffle's block only


# -- oracle: the list-based layout and per-row assembly ------------------


def _reference_split(sequences):
    """(prefix, target) lists, as the data layer stored examples before."""
    train, valid, test = [], [], []
    for seq in sequences:
        items = seq.items
        if len(items) < 3:
            continue
        test.append((items[:-1], items[-1]))
        valid.append((items[:-2], items[-2]))
        for t in range(1, len(items) - 2):
            train.append((items[:t], items[t]))
    return train, valid, test


def _left_pad(prefix, max_len):
    items = prefix[-max_len:]
    return [PAD_INDEX] * (max_len - len(items)) + items, len(items)


def _reference_epoch(train, max_len, batch_size, stream):
    """One row at a time: a candidates list and one ``integers`` draw per row."""
    index = defaultdict(list)
    for i, (_, target) in enumerate(train):
        index[target].append(i)
    order = stream.permutation(len(train))
    for start in range(0, len(order), batch_size):
        ids = order[start:start + batch_size]
        b = len(ids)
        item_ids = np.zeros((b, max_len), dtype=np.int64)
        positive_ids = np.zeros((b, max_len), dtype=np.int64)
        lengths = np.zeros(b, dtype=np.int64)
        targets = np.zeros(b, dtype=np.int64)
        positive_targets = np.zeros(b, dtype=np.int64)
        for row, ex_id in enumerate(ids):
            prefix, target = train[ex_id]
            item_ids[row], lengths[row] = _left_pad(prefix, max_len)
            targets[row] = target
            candidates = [p for p in index[target] if p != ex_id]
            if candidates:
                pick = candidates[int(stream.integers(0, len(candidates), 1)[0])]
            else:
                pick = ex_id
            positive_ids[row], _ = _left_pad(train[pick][0], max_len)
            positive_targets[row] = train[pick][1]
        yield Batch(item_ids=item_ids, lengths=lengths, targets=targets,
                    positive_ids=positive_ids, positive_targets=positive_targets,
                    collision_mask=make_collision_mask(targets, positive_targets))


def _oracle_corpora():
    """Clustered corpora, one with max_len below the sequence lengths, and
    one whose training targets are mostly singletons."""
    yield make_clustered_corpus(n_items=50, n_clusters=5, n_sequences=40, seed=3), 20
    yield make_clustered_corpus(n_items=30, n_clusters=3, n_sequences=30,
                                min_len=8, max_len=20, seed=4, zipf=1.5), 5
    seqs = [UserSequence([1 + (7 * u + 3 * t) % 97 for t in range(3 + u % 6)])
            for u in range(30)]
    seqs += [UserSequence([1, 2]), UserSequence([4, 4, 4, 4, 4, 4])]
    yield (seqs, ItemVocab(["<pad>"] + ["x"] * 97, np.zeros(98, dtype=np.int64))), 4


BATCH_FIELDS = ("item_ids", "lengths", "targets", "positive_ids",
                "positive_targets", "collision_mask")


class TestAgainstListOracle:
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iter_epoch_matches_per_row_assembly(self, seed, batch_size):
        for (seqs, vocab), max_len in _oracle_corpora():
            split = split_leave_one_out(seqs, vocab, max_len=max_len)
            train, _, _ = _reference_split(seqs)
            index = build_target_index(split.items[split.train])
            got_stream, want_stream = RngStream(seed, "data"), RngStream(seed, "data")
            got = iter_epoch(split, index, batch_size, got_stream)
            want = _reference_epoch(train, max_len, batch_size, want_stream)
            n_batches = 0
            for g, w in zip(got, want, strict=True):
                for name in BATCH_FIELDS:
                    a, b = getattr(g, name), getattr(w, name)
                    assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                    assert a.tobytes() == b.tobytes(), name
                assert got_stream.counter == want_stream.counter
                n_batches += 1
            assert n_batches == -(-len(train) // batch_size)

    def test_eval_windows_match_left_pad(self):
        for (seqs, vocab), max_len in _oracle_corpora():
            split = split_leave_one_out(seqs, vocab, max_len=max_len)
            _, valid, test = _reference_split(seqs)
            kept = sum(len(s.items) >= 3 for s in seqs)
            assert len(split.valid) == len(split.test) == kept
            for pos, examples in ((split.valid, valid), (split.test, test)):
                ids, targets = split.window(pos)
                want = np.array([_left_pad(p, max_len)[0] for p, _ in examples],
                                dtype=np.int64).reshape(-1, max_len)
                assert ids.dtype == want.dtype and ids.tobytes() == want.tobytes()
                assert targets.tolist() == [t for _, t in examples]


class TestClusteredCorpus:
    def test_frequency_counts_the_sequences(self):
        seqs, vocab = make_clustered_corpus(n_items=60, n_clusters=4, n_sequences=50, seed=7)
        assert vocab.frequency.dtype == np.int64
        np.testing.assert_array_equal(
            vocab.frequency, np.bincount(np.concatenate([s.items for s in seqs]), minlength=61))
        _, empty = make_clustered_corpus(n_items=60, n_clusters=4, n_sequences=0)
        assert empty.frequency.dtype == np.int64 and empty.frequency.tolist() == [0] * 61

    def test_draws_are_pinned(self):
        # the digest the per-item counting loop gave for the same seed
        seqs, vocab = make_clustered_corpus(n_items=60, n_clusters=4, n_sequences=50, seed=7)
        h = hashlib.sha256()
        for s in seqs:
            h.update(np.asarray(s.items, dtype=np.int64).tobytes() + b"|")
        h.update(vocab.frequency.tobytes())
        assert h.hexdigest() == "08c1f710c8e79dfb77075ccab14cff711bd801448ffbe8c9aa8e2db7dd1ad28a"
