import numpy as np
import pytest

from duorec.autodiff import ConfigError
from duorec.data import (PAD_INDEX, EmptyDatasetError, ParseError, RawEvent,
                         build_sequences, build_target_index, ingest,
                         iter_epoch, make_collision_mask, split_leave_one_out,
                         UserSequence, ItemVocab)
from duorec.rng import RngStream


def _events(triples):
    return [RawEvent(u, i, t) for u, i, t in triples]


def _corpus(n_users=10, seq_len=6):
    """Every user interacts with every item, so nothing is filtered."""
    events = []
    for u in range(n_users):
        for t in range(seq_len):
            events.append(RawEvent(f"u{u}", f"i{t}", t))
    return events


class TestIngest:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        assert ingest(p, "tsv-uit") == []

    def test_order_preserved(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("u1\ta\t3\nu2\tb\t1\nu1\tc\t2\n")
        events = ingest(p, "tsv-uit")
        assert [e.item_id for e in events] == ["a", "b", "c"]

    def test_missing_field_names_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("u1\ta\t3\nu2\tb\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest(p, "tsv-uit")

    def test_ml1m_format_discards_rating(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::1193::5::978300760\n")
        events = ingest(p, "ml-1m")
        assert events[0].item_id == "1193" and events[0].timestamp == 978300760

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            ingest(tmp_path / "x", "csv")


class TestBuildSequences:
    def test_kcore_fixpoint_removes_cascades(self):
        # u0 has 5 events but one of its items only appears 4 times overall
        events = _corpus(n_users=6, seq_len=6)
        events = [e for e in events if not (e.user_id == "u5" and e.item_id != "i0")]
        sequences, vocab = build_sequences(events, min_count=5)
        users = {f"u{u}" for u in range(5)}
        assert len(sequences) == 5  # u5 dropped (1 event after item filtering)
        for seq in sequences:
            counts = np.bincount([i for s in sequences for i in s.items])
            assert all(c >= 5 for c in counts[1:] if c)

    def test_all_filtered_raises(self):
        with pytest.raises(EmptyDatasetError):
            build_sequences(_events([("u", "i", 0)]), min_count=5)

    def test_truncation_keeps_most_recent(self):
        events = []
        for u in range(5):
            for t in range(60):
                events.append(RawEvent(f"u{u}", f"i{t}", t))
        sequences, vocab = build_sequences(events, min_count=5, max_len=50)
        seq = sequences[0]
        assert len(seq.items) == 50
        assert vocab.item_of[seq.items[-1]] == "i59"
        assert vocab.item_of[seq.items[0]] == "i10"

    def test_timestamp_ties_broken_by_file_order(self):
        events = []
        for u in range(5):
            events += [RawEvent(f"u{u}", "a", 1), RawEvent(f"u{u}", "b", 1),
                       RawEvent(f"u{u}", "c", 0), RawEvent(f"u{u}", "a", 2),
                       RawEvent(f"u{u}", "b", 2)]
        sequences, vocab = build_sequences(events, min_count=5)
        names = [vocab.item_of[i] for i in sequences[0].items]
        assert names == ["c", "a", "b", "a", "b"]

    def test_pad_index_reserved(self):
        _, vocab = build_sequences(_corpus(), min_count=5)
        assert vocab.item_of[PAD_INDEX] == "<pad>"
        assert PAD_INDEX not in vocab.id_of.values()

    def test_frequency_sums_to_actions(self):
        sequences, vocab = build_sequences(_corpus(), min_count=5)
        assert vocab.frequency.sum() == sum(len(s.items) for s in sequences)


class TestSplitLeaveOneOut:
    def test_protocol_walkthrough(self):
        vocab = ItemVocab({}, ["<pad>"], np.zeros(5, dtype=np.int64))
        seqs = [UserSequence(0, [1, 2, 3, 4])]
        split = split_leave_one_out(seqs, vocab, max_len=10)
        assert split.test[0].prefix == [1, 2, 3] and split.test[0].target == 4
        assert split.valid[0].prefix == [1, 2] and split.valid[0].target == 3
        assert [(e.prefix, e.target) for e in split.train] == [([1], 2)]

    def test_length_three_contributes_eval_only(self):
        # shortest admissible sequence: valid and test pairs but no train
        # prefix ends before the validation position
        vocab = ItemVocab({}, ["<pad>"], np.zeros(4, dtype=np.int64))
        split = split_leave_one_out([UserSequence(0, [1, 2, 3])], vocab, max_len=10)
        assert len(split.train) == 0
        assert len(split.valid) == 1 and len(split.test) == 1

    def test_short_sequences_dropped_with_count(self):
        vocab = ItemVocab({}, ["<pad>"], np.zeros(4, dtype=np.int64))
        split = split_leave_one_out([UserSequence(0, [1, 2])], vocab, max_len=10)
        assert split.dropped_short == 1 and not split.train

    def test_counting_oracle(self, rng):
        # one train example per prefix position strictly before the
        # validation target: sum over users of (len - 3)
        vocab = ItemVocab({}, ["<pad>"], np.zeros(30, dtype=np.int64))
        lengths = rng.integers(3, 12, size=10)
        seqs = [UserSequence(u, (1 + rng.integers(0, 29, size=n)).tolist())
                for u, n in enumerate(lengths)]
        split = split_leave_one_out(seqs, vocab, max_len=20)
        assert len(split.train) == int((lengths - 3).sum())


class TestTargetIndex:
    def test_shared_target_grouped(self):
        from duorec.data import TrainExample
        train = [TrainExample([1], 9), TrainExample([2], 9)]
        index = build_target_index(train)
        assert index == {9: [0, 1]}

    def test_disjoint_targets_singletons(self):
        from duorec.data import TrainExample
        train = [TrainExample([1], 5), TrainExample([2], 6)]
        index = build_target_index(train)
        assert all(len(v) == 1 for v in index.values())

    def test_partition_counts(self, rng):
        from duorec.data import TrainExample
        targets = rng.integers(1, 11, size=100)
        train = [TrainExample([1], int(t)) for t in targets]
        index = build_target_index(train)
        assert sum(len(v) for v in index.values()) == 100


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
    def _split(self):
        from duorec.synthetic import make_clustered_corpus
        seqs, vocab = make_clustered_corpus(n_items=50, n_clusters=5,
                                            n_sequences=40, seed=3)
        return split_leave_one_out(seqs, vocab, max_len=20)

    def test_epoch_covers_every_example_once(self):
        split = self._split()
        index = build_target_index(split.train)
        seen = []
        for batch in iter_epoch(split, index, 32, RngStream(1, "ep")):
            for row in range(batch.size):
                real = batch.item_ids[row][batch.item_ids[row] != PAD_INDEX]
                seen.append((tuple(real.tolist()), int(batch.targets[row])))
        assert sorted(seen) == sorted(
            (tuple(ex.prefix[-20:]), ex.target) for ex in split.train)

    def test_left_padding_layout(self):
        split = self._split()
        index = build_target_index(split.train)
        for batch in iter_epoch(split, index, 16, RngStream(2, "ep")):
            for row in range(batch.size):
                n = batch.lengths[row]
                assert (batch.item_ids[row, :20 - n] == PAD_INDEX).all()
                assert (batch.item_ids[row, 20 - n:] != PAD_INDEX).all()
                assert batch.targets[row] != PAD_INDEX

    def test_positive_partner_shares_target(self):
        split = self._split()
        index = build_target_index(split.train)
        for batch in iter_epoch(split, index, 16, RngStream(3, "ep")):
            np.testing.assert_array_equal(batch.targets, batch.positive_targets)

    def test_singleton_target_falls_back_to_self(self):
        from duorec.data import TrainExample, SplitDataset
        vocab = ItemVocab({}, ["<pad>"] + ["x"] * 9, np.zeros(10, dtype=np.int64))
        train = [TrainExample([1, 2], 3), TrainExample([4, 5], 6)]
        split = SplitDataset(train=train, valid=[], test=[], vocab=vocab, max_len=5)
        index = build_target_index(train)
        (batch,) = iter_epoch(split, index, 2, RngStream(4, "ep"))
        for row in range(2):
            np.testing.assert_array_equal(batch.item_ids[row], batch.positive_ids[row])
