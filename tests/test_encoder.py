import numpy as np
import pytest

from duorec import autodiff as ad
from duorec import encoder
from duorec.autodiff import ShapeError, no_grad
from duorec.data import PAD_INDEX, Batch, make_collision_mask
from duorec.encoder import (NEG_INF, _lane_mask, _lanes, embed, encode, encode_sequence,
                            encode_twins, init_params)
from duorec.rng import RngStream
from duorec.trainer import TrainConfig

from conftest import assert_grad_close, attention_reference, finite_difference_grad


def make_params(vocab_size=12, d=8, layers=1, heads=2, max_len=6,
                emb_dropout=0.0, hidden_dropout=0.0, seed=0):
    cfg = TrainConfig(d=d, layers=layers, heads=heads, max_len=max_len,
                      emb_dropout=emb_dropout, hidden_dropout=hidden_dropout)
    return init_params(cfg, vocab_size, RngStream(seed, "init"))


def make_batch(rows, max_len=6, positives=None, targets=None):
    ids = np.array([[PAD_INDEX] * (max_len - len(r)) + list(r) for r in rows])
    lengths = np.array([len(r) for r in rows])
    t = np.array(targets if targets is not None else [r[-1] for r in rows])
    pos = np.array(positives) if positives is not None else ids.copy()
    return Batch(item_ids=ids, lengths=lengths, targets=t, positive_ids=pos,
                 positive_targets=t.copy(), collision_mask=make_collision_mask(t, t.copy()))


def reference_attention_mask(item_ids):
    """The padded [B, 1, N, N] mask built step by step (the full stack's
    mask, whose last query row is the oracle for the final layer's): causal
    -inf above the diagonal, plus -inf at pad keys, then the diagonal
    reopened wherever it was masked."""
    b, n = item_ids.shape
    causal = np.triu(np.full((n, n), NEG_INF), k=1)
    mask = np.broadcast_to(causal, (b, 1, n, n)).copy()
    pad_key = item_ids == PAD_INDEX                            # [B, N]
    mask += np.where(pad_key, NEG_INF, 0.0)[:, None, None, :]
    eye = np.eye(n, dtype=bool)
    mask[:, 0][np.broadcast_to(eye, (b, n, n)) & (mask[:, 0] <= NEG_INF)] = 0.0
    return mask


def reference_computed(item_ids):
    """[B, N] positions that reach the output: every real position and each
    sequence's last one (test oracle for the mask ``encode_sequence`` builds)."""
    n = item_ids.shape[1]
    return (item_ids != PAD_INDEX) | (np.arange(n) == n - 1)


def reference_packed_rows(item_ids):
    """Flat [B*N] positions of ``reference_computed``: the packed rows."""
    return np.flatnonzero(reference_computed(item_ids))


def rows_dropout(x, rate, stream, rows):
    """Drop only ``rows`` of ``x.reshape(-1, w)`` (w = ``x.shape[-1]``), with
    the mask of one [len(rows), w] draw; every other row passes unchanged."""
    w = x.shape[-1]
    keep = ad.dropout(ad.Tensor(np.ones((len(rows), w), x.data.dtype)), rate, stream).data
    mask = np.ones((x.data.size // w, w), x.data.dtype)
    mask[rows] = keep
    return ad.mul(x, mask.reshape(x.shape))


def reference_embed(item_ids, params, stream):
    """Item plus positional row at every one of the B*N positions, then the
    embedding dropout of the packed rows alone (test oracle for ``embed``,
    which gathers and drops only the packed rows)."""
    cfg = params.config
    n = item_ids.shape[1]
    v = ad.gather_rows(params["item_emb"], item_ids)          # [B, N, d]
    pos = ad.gather_rows(params["pos_emb"], np.arange(n))     # [N, d]
    h0 = ad.add(v, ad.reshape(pos, (1, n, cfg.d)))
    return rows_dropout(h0, cfg.emb_dropout, stream.child("emb"), reference_packed_rows(item_ids))


def window_lengths(item_ids):
    """Packed rows of each window: its real positions and its last one."""
    return reference_computed(item_ids).sum(axis=1)


def lane_dropout(att, rate, stream, item_ids):
    """The attention dropout of a layer but the last, on the oracle's
    [B, nh, N, N] weights: one draw over the [n_lanes, nh, N, N] lane weights
    of ``_lanes``, each window's entries read at its slots in its lane.
    Entries outside a window's packed rows (zero weights, or the rows of pad
    queries, which nothing reads) pass unchanged."""
    b, nh, n, _ = att.shape
    packed = reference_packed_rows(item_ids)
    slots, owner = _lanes(window_lengths(item_ids), n)
    keep = ad.dropout(ad.Tensor(np.ones((len(owner), nh, n, n), att.data.dtype)),
                      rate, stream).data
    mask = np.ones(att.shape, att.data.dtype)
    for w in range(b):
        pos, s = packed[packed // n == w] % n, slots[packed // n == w]
        mask[w][:, pos[:, None], pos] = keep[s[0] // n][:, s[:, None] % n, s % n]
    return ad.mul(att, mask)


def full_stack_encode(h0, item_ids, params, stream):
    """Reference stack: every layer over all B*N positions, then the last row.

    This is the straightforward layer loop, kept here as the oracle for
    ``encode``, which computes only the packed rows and, in the final layer,
    only the last position. Each dropout draws over the rows ``encode``
    computes: every layer but the last drops its attention weights as laid
    out in lanes (``lane_dropout``) and the packed rows of its outputs; the
    last drops each sequence's last row alone, the last query row of each
    head in the attention.
    """
    cfg = params.config
    b, n, d = h0.shape
    nh, dh = cfg.heads, cfg.d // cfg.heads
    mask = reference_attention_mask(item_ids)
    packed, last_rows = reference_packed_rows(item_ids), np.arange(n - 1, b * n, n)
    h = h0
    for layer in range(cfg.layers):
        ls = stream.child(f"layer{layer}")
        final = layer == cfg.layers - 1
        out_rows = last_rows if final else packed
        flat = ad.reshape(h, (b * n, d))
        heads = []
        for w in ("wq", "wk", "wv"):
            proj = ad.matmul(flat, params[f"layer{layer}.{w}"])
            heads.append(ad.transpose(ad.reshape(proj, (b, n, nh, dh)), (0, 2, 1, 3)))
        q, k, vv = heads                                       # [B, nh, N, dh]
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        att = ad.softmax_rows(ad.add(scores, mask))
        if final:
            att = rows_dropout(att, cfg.hidden_dropout, ls.child("att"),
                               np.arange(n - 1, b * nh * n, n))
        else:
            att = lane_dropout(att, cfg.hidden_dropout, ls.child("att"), item_ids)
        ctx = ad.matmul(att, vv)                               # [B, nh, N, dh]
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * n, d))
        out = ad.reshape(ad.matmul(ctx, params[f"layer{layer}.wo"]), (b, n, d))
        out = rows_dropout(out, cfg.hidden_dropout, ls.child("attout"), out_rows)
        h = ad.layer_norm(ad.add(h, out),
                          params[f"layer{layer}.ln1_gain"], params[f"layer{layer}.ln1_bias"])
        flat = ad.reshape(h, (b * n, d))
        f1 = ad.gelu(ad.add(ad.matmul(flat, params[f"layer{layer}.ffn_w1"]),
                            params[f"layer{layer}.ffn_b1"]))
        f2 = ad.add(ad.matmul(f1, params[f"layer{layer}.ffn_w2"]),
                    params[f"layer{layer}.ffn_b2"])
        f2 = rows_dropout(ad.reshape(f2, (b, n, d)), cfg.hidden_dropout, ls.child("ffn"),
                          out_rows)
        h = ad.layer_norm(ad.add(h, f2),
                          params[f"layer{layer}.ln2_gain"], params[f"layer{layer}.ln2_bias"])
    return ad.gather_rows(ad.reshape(h, (b * n, d)), last_rows)    # [B, d]


def full_stack_sequence(item_ids, params, stream):
    """``encode_sequence`` through the oracles: the whole embedding, every
    position through the stack."""
    h0 = reference_embed(item_ids, params, stream)
    return full_stack_encode(h0, item_ids, params, stream.child("trm"))


def embed_packed(item_ids, params, stream):
    return embed(item_ids, reference_computed(item_ids), params, stream)


def pass_layouts(monkeypatch, ids, layers=1, dtype=np.float64):
    """(layout, last) of each block's attention half in one
    ``encode_sequence`` pass on ``ids``: what the pass derives from its mask
    of computed positions."""
    params = make_params(vocab_size=int(ids.max()) + 1, d=4, layers=layers, heads=1,
                         max_len=ids.shape[1])
    for t in params.tensors.values():
        t.data = t.data.astype(dtype)
    seen = []
    original = encoder._attend

    def recording_attend(h, last, n, layout, params, layer, stream):
        seen.append((layout, last))
        return original(h, last, n, layout, params, layer, stream)

    monkeypatch.setattr(encoder, "_attend", recording_attend)
    with no_grad():
        encode_sequence(ids, params, RngStream(0, "s"))
    monkeypatch.undo()
    return seen


class TestConfig:
    def test_pad_row_zero_after_init(self):
        params = make_params()
        np.testing.assert_array_equal(params["item_emb"].data[PAD_INDEX], 0.0)


class TestEmbed:
    def test_last_slot_is_item_plus_position(self):
        params = make_params(emb_dropout=0.0)
        ids = np.array([[0, 0, 0, 0, 0, 3]])
        out = embed_packed(ids, params, RngStream(1, "s"))
        expected = params["item_emb"].data[3] + params["pos_emb"].data[5]
        assert out.shape == (1, 8)
        np.testing.assert_allclose(out.data[0], expected)

    def test_pad_positions_carry_positional_rows_only(self):
        # pad slots are never gathered; an all-pad sequence's last slot
        # (always computed) carries its positional row alone
        params = make_params(emb_dropout=0.0)
        ids = np.array([[0, 0, 0, 0, 2, 3], [0, 0, 0, 0, 0, 0]])
        out = embed_packed(ids, params, RngStream(1, "s"))
        item, pos = params["item_emb"].data, params["pos_emb"].data
        np.testing.assert_allclose(out.data, [item[2] + pos[4], item[3] + pos[5], pos[5]])

    def test_stream_label_controls_dropout_mask(self):
        params = make_params(emb_dropout=0.2)
        ids = np.array([[1, 2, 3, 4, 5, 6]])
        a = embed_packed(ids, params, RngStream(1, "a"))
        b = embed_packed(ids, params, RngStream(1, "b"))
        a2 = embed_packed(ids, params, RngStream(1, "a"))
        assert not np.array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.data, a2.data)

    def test_dropout_draws_only_the_packed_rows(self, monkeypatch):
        # embed gathers and drops only the packed rows: one [M, d] draw
        ids = np.array([[0, 0, 0, 4, 5, 6], [0] * 6, [1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 7]])
        rows = reference_packed_rows(ids)
        counters = []
        original = RngStream.lanes

        def recording_lanes(self, n):
            out = original(self, n)
            counters.append((self.label, self.counter))
            return out

        monkeypatch.setattr(RngStream, "lanes", recording_lanes)
        for dtype in (np.float32, np.float64):
            params = make_params(vocab_size=12, max_len=6, emb_dropout=0.4)
            for t in params.tensors.values():
                t.data = t.data.astype(dtype)
            counters.clear()
            out = embed(ids, reference_computed(ids), params, RngStream(2, "s"))
            ref = reference_embed(ids, params, RngStream(2, "s"))
            assert out.data.dtype == ref.data.dtype == dtype
            assert out.data.tobytes() == ref.data.reshape(ids.size, 8)[rows].tobytes()
            assert counters == [("s.emb", -(-rows.size * 8 // 16))] * 2

    def test_item_gradient_comes_from_the_packed_rows(self, monkeypatch):
        # the item table's gather, and so its backward scatter, covers the M
        # packed rows, not the B*N positions
        params = make_params(vocab_size=12, max_len=6, emb_dropout=0.3, hidden_dropout=0.3)
        ids = np.array([[0, 0, 0, 4, 5, 6], [0] * 6, [0, 0, 0, 0, 0, 7]])
        grads = []
        original = ad.gather_rows

        def recording_gather(table, indices):
            out = original(table, indices)
            if table is params["item_emb"]:
                closure = out._backward

                def backward(g):
                    grads.append(g.shape)
                    closure(g)
                out._backward = backward
            return out

        monkeypatch.setattr(ad, "gather_rows", recording_gather)
        h = encode_sequence(ids, params, RngStream(2, "s"))
        ad.sum_all(h).backward()
        m = len(reference_packed_rows(ids))
        assert m == 5 < ids.size
        assert grads == [(m, 8)]


class TestAttentionMask:
    # ragged left padding: all-pad rows, full rows, one-item rows
    IDS = np.array([[0, 0, 0, 0, 0], [0, 0, 3, 4, 5], [1, 2, 3, 4, 5], [0, 0, 0, 0, 9],
                    [0, 0, 0, 0, 0], [6, 7, 8, 9, 1]])

    def test_matches_the_step_by_step_builder(self, monkeypatch):
        # the final layer's mask is the last query row of the padded mask
        (final, _), = pass_layouts(monkeypatch, self.IDS)
        want = reference_attention_mask(self.IDS)[:, :, -1:]
        assert final.mask.dtype == np.float64 and final.mask.shape == want.shape
        assert final.mask.tobytes() == want.tobytes()

    def test_random_padding_patterns(self, monkeypatch):
        # the packed rows, each window's last row among them and the final
        # mask, as one pass derives them from its mask, against the oracles
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = rng.integers(0, 4, size=(int(rng.integers(1, 6)), int(rng.integers(1, 9))))
            b, n = ids.shape
            (final, last), = pass_layouts(monkeypatch, ids)
            packed = reference_packed_rows(ids)
            assert final.slots.tobytes() == packed.tobytes()
            np.testing.assert_array_equal(packed[last], np.arange(n - 1, b * n, n))
            assert final.mask.tobytes() == reference_attention_mask(ids)[:, :, -1:].tobytes()

    def test_float32_is_the_float64_mask_rounded(self, monkeypatch):
        (final, _), = pass_layouts(monkeypatch, self.IDS, dtype=np.float32)
        assert final.mask.dtype == np.float32
        want = reference_attention_mask(self.IDS)[:, :, -1:].astype(np.float32)
        assert final.mask.tobytes() == want.tobytes()

    def test_lanes_come_from_the_window_lengths(self, monkeypatch):
        # every layer but the last shares the lanes of the windows' lengths
        (lanes, last0), (lanes1, last1), (final, _) = pass_layouts(monkeypatch, self.IDS,
                                                                   layers=3)
        assert lanes1 is lanes and last0 is last1 is None
        slots, owner = _lanes(window_lengths(self.IDS), self.IDS.shape[1])
        assert lanes.groups == len(owner) and lanes.slots.tobytes() == slots.tobytes()
        assert lanes.mask.tobytes() == _lane_mask(owner).tobytes()
        assert final.slots.tobytes() == reference_packed_rows(self.IDS).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lane_mask_opens_each_window_up_to_the_query(self, dtype):
        # slot i attends slot j exactly when both hold the same window and
        # j <= i; an empty slot attends itself alone
        ids = np.array([[0, 0, 0, 0, 0], [0, 0, 0, 4, 5], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
                        [0, 0, 0, 0, 9], [0, 0, 7, 8, 9]])
        n = ids.shape[1]
        _, owner = _lanes(window_lengths(ids), n)
        want = np.full((len(owner), 1, n, n), NEG_INF)
        for lane, i, j in np.ndindex(len(owner), n, n):
            if i == j or (j < i and owner[lane, i] == owner[lane, j] >= 0):
                want[lane, 0, i, j] = 0.0
        got = _lane_mask(owner, dtype)
        assert got.dtype == dtype
        assert got.tobytes() == want.astype(dtype).tobytes()


def max_pairs(lengths, n):
    """Most disjoint pairs of ``lengths`` that each sum to at most ``n``,
    by exhaustive search."""
    if len(lengths) < 2:
        return 0
    first, rest = lengths[0], lengths[1:]
    best = max_pairs(rest, n)
    for j in range(len(rest)):
        if first + rest[j] <= n:
            best = max(best, 1 + max_pairs(rest[:j] + rest[j + 1:], n))
    return best


def left_padded(lengths, n, seed=0):
    """Windows of N with the given numbers of real items, left-padded."""
    rng = np.random.default_rng(seed)
    ids = np.zeros((len(lengths), n), dtype=np.int64)
    for i, length in enumerate(lengths):
        if length:
            ids[i, n - length:] = rng.integers(1, 20, length)
    return ids


class TestLanes:
    """``_lanes`` against the properties the attention relies on."""

    @staticmethod
    def check(ids):
        b, n = ids.shape
        rows, length = reference_packed_rows(ids), window_lengths(ids)
        slots, owner = _lanes(length, n)
        window = rows // n
        # distinct slots inside the table, named by owner; empty slots distinct
        assert owner.shape == (len(owner), n) and slots.shape == rows.shape
        assert len(np.unique(slots)) == len(slots)
        np.testing.assert_array_equal(owner.ravel()[slots], window)
        empty = np.setdiff1d(np.arange(owner.size), slots)
        assert (owner.ravel()[empty] < 0).all()
        assert len(np.unique(owner.ravel()[empty])) == len(empty)
        lanes = {}
        for w in range(b):
            s = slots[window == w]
            assert len(s) == length[w]
            # one lane, its rows contiguous and in order
            np.testing.assert_array_equal(s, s[0] + np.arange(len(s)))
            assert s[-1] // n == s[0] // n
            lanes.setdefault(int(s[0] // n), []).append(w)
        # every lane holds one window, or two whose lengths sum to at most N
        assert sorted(lanes) == list(range(len(owner)))
        for ws in lanes.values():
            assert len(ws) in (1, 2) and length[ws].sum() <= n
        # the same input gives the same layout
        again = _lanes(length.copy(), n)
        assert again[0].tobytes() == slots.tobytes() and again[1].tobytes() == owner.tobytes()
        return length, len(owner)

    @pytest.mark.parametrize("lengths", [list(range(9)), [0], [8], [8, 8, 8], [0, 0, 0, 0, 0],
                                         [4, 4, 4], [1, 7, 2, 6, 3, 5, 4], [5, 5, 3, 3]])
    def test_layout_properties(self, lengths):
        length, n_lanes = self.check(left_padded(lengths, 8))
        assert n_lanes == len(lengths) - max_pairs(length.tolist(), 8)

    def test_random_windows_pair_as_often_as_possible(self):
        # the two-ended pairing forms the most pairs any pairing does
        rng = np.random.default_rng(4)
        for _ in range(200):
            b, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            length, n_lanes = self.check(left_padded(rng.integers(0, n + 1, b), n))
            assert n_lanes == b - max_pairs(length.tolist(), n)

    def test_interior_pads_count_as_padding(self):
        # only real positions (and the last) are packed, wherever a pad sits
        ids = np.array([[0, 3, 0, 4, 0, 0], [5, 0, 0, 0, 0, 6], [0, 0, 0, 0, 0, 0]])
        length, n_lanes = self.check(ids)
        np.testing.assert_array_equal(length, [3, 2, 1])
        assert n_lanes == 2

    def test_half_full_windows_need_about_half_the_lanes(self):
        # prefixes of 10 users with 40 to 50 items, as the training windows
        # of a 50-item run, at B=128
        rng = np.random.default_rng(5)
        users = rng.integers(40, 51, 10)
        lengths = np.concatenate([np.minimum(np.arange(1, u - 2), 50) for u in users])
        ids = left_padded(rng.choice(lengths, 128, replace=False), 50)
        _, n_lanes = self.check(ids)
        assert n_lanes <= 70


class TestEncode:
    def test_causality_by_perturbation(self):
        params = make_params(vocab_size=20, max_len=6)
        base_ids = np.array([[3, 4, 5, 6, 7, 8]])
        stream = RngStream(0, "enc")
        h_all = {}
        for j, alt in [(None, None), (2, 15)]:
            ids = base_ids.copy()
            if j is not None:
                ids[0, j] = alt
            # encode returns only the last position, so probe by re-running
            # with truncated suffixes
            for i in range(6):
                sub = ids[:, :i + 1]
                h_all[(j, i)] = encode_sequence(
                    np.pad(sub, ((0, 0), (6 - i - 1, 0))), params, RngStream(0, "p")).data
        for i in range(6):
            same = np.allclose(h_all[(None, i)], h_all[(2, i)])
            assert same == (i < 2), f"position {i}"

    @pytest.mark.parametrize("ids", [[[4, 5, 6]], [[1, 2, 3, 4, 5, 6, 7, 8]],
                                     [1, 2, 3, 4, 5, 6]])
    def test_window_width_must_be_max_len(self, ids):
        # a 3-wide window used to read positional rows 0-2, not those of the
        # last three positions, and an 8-wide one to fail in gather_rows
        with pytest.raises(ShapeError, match="max_len=6"):
            encode_sequence(np.array(ids), make_params(), RngStream(0, "s"))

    def test_deterministic_without_dropout(self):
        params = make_params()
        ids = np.array([[1, 2, 3, 4, 5, 6], [0, 0, 7, 8, 9, 1]])
        a = encode_sequence(ids, params, RngStream(0, "x"))
        b = encode_sequence(ids, params, RngStream(99, "y"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_pad_content_neutrality(self):
        # junk written into pad slots is never read: the packed embedding and
        # the last-position output are those of the padded input
        params = make_params(vocab_size=20, emb_dropout=0.3, hidden_dropout=0.3)
        ids = np.array([[0, 0, 0, 4, 5, 6]])
        junk = np.array([[9, 17, 2, 4, 5, 6]])
        computed = reference_computed(ids)
        outs = []
        for x in (ids, junk):
            stream = RngStream(0, "s")
            h0 = embed(x, computed, params, stream)
            outs.append((h0.data, encode(h0, computed, params, stream.child("trm")).data))
        assert outs[0][0].tobytes() == outs[1][0].tobytes()
        assert outs[0][1].tobytes() == outs[1][1].tobytes()
        ref = full_stack_sequence(ids, params, RngStream(0, "s")).data
        assert np.abs(outs[0][1] - ref).max() <= 1e-12


class TestEncodeTwins:
    def test_zero_rates_twin_identical(self):
        params = make_params()
        batch = make_batch([[1, 2, 3]], targets=[4])
        h, h_prime, _ = encode_twins(batch, params, RngStream(5, "run"))
        np.testing.assert_array_equal(h.data, h_prime.data)

    def test_fallback_partner_differs_under_dropout(self):
        params = make_params(emb_dropout=0.3, hidden_dropout=0.3)
        batch = make_batch([[1, 2, 3]], targets=[4])  # positive = self
        h, h_prime, h_prime_s = encode_twins(batch, params, RngStream(5, "run"))
        assert not np.array_equal(h_prime.data, h_prime_s.data)
        assert not np.array_equal(h.data, h_prime.data)

    def test_shapes_and_finiteness(self):
        params = make_params(vocab_size=8, d=4, layers=1, heads=1, max_len=4, seed=3)
        batch = make_batch([[1, 2]], max_len=4, targets=[3])
        outs = encode_twins(batch, params, RngStream(1, "r"))
        for h in outs:
            assert h.data.shape == (1, 4)
            assert np.isfinite(h.data).all()

    def test_twin_closer_to_anchor_than_shuffled(self):
        params = make_params(vocab_size=40, d=8, max_len=6,
                             emb_dropout=0.3, hidden_dropout=0.3, seed=11)
        wins = 0
        trials = 100
        rng = np.random.default_rng(0)
        for t in range(trials):
            rows = rng.integers(1, 40, size=(4, 6)).tolist()
            batch = make_batch(rows)
            h, h_prime, _ = encode_twins(batch, params, RngStream(t, "trial"))
            hn = h.data / np.linalg.norm(h.data, axis=1, keepdims=True)
            pn = h_prime.data / np.linalg.norm(h_prime.data, axis=1, keepdims=True)
            matched = (hn * pn).sum(axis=1).mean()
            shuffled = (hn * np.roll(pn, 1, axis=0)).sum(axis=1).mean()
            wins += matched > shuffled
        assert wins > trials * 0.7


class TestGradientFlow:
    def test_input_item_rows_receive_gradient(self):
        from duorec import autodiff as ad
        params = make_params(vocab_size=10)
        ids = np.array([[0, 0, 0, 1, 2, 3]])
        h = encode_sequence(ids, params, RngStream(0, "s"))
        logits = ad.matmul(h, ad.transpose(params["item_emb"], (1, 0)))
        loss = ad.cross_entropy_from_logits(logits, [4])
        loss.backward()
        grad = params["item_emb"].grad
        for row in (1, 2, 3, 4):
            assert np.abs(grad[row]).max() > 0
        # absent rows touched only through the softmax denominator
        assert np.abs(grad[7]).max() > 0


class TestLastPositionFinalLayer:
    """``encode`` against the full-sequence reference stack."""

    MAX_LEN = 7
    # left padding of every length, a full row and a one-item row
    ROWS = [[5, 9, 2, 7, 11, 3, 8], [4], [12, 6], [1, 2, 3, 4, 5], [29, 28, 27]]

    def inputs(self, layers, rate, seed=4):
        params = make_params(vocab_size=30, d=8, layers=layers, heads=2,
                             max_len=self.MAX_LEN, emb_dropout=rate,
                             hidden_dropout=rate, seed=seed)
        ids = np.array([[PAD_INDEX] * (self.MAX_LEN - len(r)) + r for r in self.ROWS])
        return params, ids

    @staticmethod
    def both(params, ids, stream):
        return encode_sequence(ids, params, stream), full_stack_sequence(ids, params, stream)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_forward_matches_full_stack(self, layers, rate):
        params, ids = self.inputs(layers, rate)
        new, ref = self.both(params, ids, RngStream(3, "enc"))
        assert new.shape == ref.shape == (len(ids), 8)
        assert np.abs(new.data - ref.data).max() <= 1e-12

    @pytest.mark.parametrize("layers", [1, 2])
    def test_eval_mode_matches_full_stack(self, layers):
        params, ids = self.inputs(layers, 0.0)
        with no_grad():
            new, ref = self.both(params, ids, RngStream(0, "eval"))
        assert not new.requires_grad
        assert np.array_equal(new.data, ref.data)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_gradients_match_full_stack(self, layers, rate):
        params, ids = self.inputs(layers, rate)
        v = np.random.default_rng(7).standard_normal((len(ids), 8))
        grads = []
        for which in (0, 1):
            for t in params.tensors.values():
                t.zero_grad()
            out = self.both(params, ids, RngStream(3, "enc"))[which]
            ad.sum_all(ad.mul(out, v)).backward()
            grads.append({name: t.grad.copy() for name, t in params.named()})
        for name, g in grads[1].items():
            assert np.abs(grads[0][name] - g).max() <= 1e-12, name

    def drop_sizes(self, ids, layers):
        """Size of each array the encoder drops, by stream label: [M, d] rows
        and [n_lanes, nh, N, N] weights, then [B, d] and [B, nh, 1, N] in the
        last layer."""
        b, m, n, d, nh = len(ids), len(reference_packed_rows(ids)), self.MAX_LEN, 8, 2
        n_lanes = len(_lanes(window_lengths(ids), n)[1])
        assert n_lanes < b
        sizes = {"enc.emb": m * d}
        for layer in range(layers):
            rows = b if layer == layers - 1 else m
            att = b * nh * n if layer == layers - 1 else n_lanes * nh * n * n
            sizes |= {f"enc.trm.layer{layer}.att": att,
                      f"enc.trm.layer{layer}.attout": rows * d,
                      f"enc.trm.layer{layer}.ffn": rows * d}
        return sizes

    @pytest.mark.parametrize("layers", [1, 2])
    def test_stream_counters_match_full_stack(self, layers, monkeypatch):
        params, ids = self.inputs(layers, 0.3)
        counters = {}
        original = RngStream.lanes

        def recording_lanes(self, n):
            out = original(self, n)
            counters[self.label] = self.counter
            return out

        monkeypatch.setattr(RngStream, "lanes", recording_lanes)
        seen = []
        for run in (encode_sequence, full_stack_sequence):
            counters.clear()
            run(ids, params, RngStream(3, "enc"))
            seen.append(dict(counters))
        assert seen[0] == seen[1]
        sizes = self.drop_sizes(ids, layers)
        assert seen[0] == {label: -(-size // 16) for label, size in sizes.items()}

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_draws_only_rows_that_reach_the_output(self, layers, monkeypatch):
        # each dropout draws one lane per element of the array it drops, in a
        # single call: the embedding and the row dropouts draw over the packed
        # rows, or the last rows in the final layer, and never over the B*N
        # positions
        params, ids = self.inputs(layers, 0.3)
        dropped, drawn = {}, {}
        original_dropout, original_lanes = ad.dropout, RngStream.lanes

        def recording_dropout(x, rate, stream):
            dropped.setdefault(stream.label, []).append(x.data.size)
            return original_dropout(x, rate, stream)

        def recording_lanes(self, n):
            before = self.counter
            out = original_lanes(self, n)
            drawn.setdefault(self.label, []).append((out.size, self.counter - before))
            return out

        monkeypatch.setattr(ad, "dropout", recording_dropout)
        monkeypatch.setattr(RngStream, "lanes", recording_lanes)
        encode_sequence(ids, params, RngStream(3, "enc"))
        assert len(reference_packed_rows(ids)) < ids.size
        sizes = self.drop_sizes(ids, layers)
        assert dropped == {label: [size] for label, size in sizes.items()}
        assert drawn == {label: [(size, -(-size // 16))] for label, size in sizes.items()}


class TestPackedRows(TestLastPositionFinalLayer):
    """The same checks on ragged rows, which exercise the packing of real
    positions: all-pad rows, consecutive full rows (one merged run of packed
    rows) and one-item rows side by side."""

    ROWS = [[], [3], [5, 9, 2, 7, 11, 3, 8], [1, 2, 3, 4, 5, 6, 7], [4], [],
            [12, 6, 1], [8]]

    def test_no_projection_runs_on_every_position(self, monkeypatch):
        # every layer projects the packed rows (the last layer's queries,
        # output projection and feed-forward network: the last rows only);
        # none projects the B*N-position layout. The feed-forward products
        # add their biases through matmul's ``bias``, the others add none.
        params, ids = self.inputs(2, 0.3)
        names = {id(t): name for name, t in params.named()}
        seen = []
        original = ad.matmul

        def recording_matmul(a, b, bias=None):
            if id(b) in names:
                seen.append((names[id(b)], a.shape[0],
                             None if bias is None else names[id(bias)]))
            return original(a, b, bias)

        monkeypatch.setattr(ad, "matmul", recording_matmul)
        encode_sequence(ids, params, RngStream(3, "enc"))
        b, m = len(ids), len(reference_packed_rows(ids))
        assert m < b * self.MAX_LEN
        rows = {f"layer0.{w}": m for w in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_w2")}
        rows |= {f"layer1.{w}": b for w in ("wq", "wo", "ffn_w1", "ffn_w2")}
        rows |= {"layer1.wk": m, "layer1.wv": m}
        biases = {f"layer{i}.ffn_w{j}": f"layer{i}.ffn_b{j}" for i in (0, 1) for j in (1, 2)}
        want = [(name, n, biases.get(name)) for name, n in rows.items()]
        assert sorted(seen) == sorted(want)


def spread(params, seed=3):
    """``params`` with N(0, 0.25) added to every weight, so that attention
    weights are far from uniform and their gradients far from 0."""
    rng = np.random.default_rng(seed)
    for t in params.tensors.values():
        t.data = t.data + 0.5 * rng.standard_normal(t.data.shape)
    return params


class TestLanePacking:
    """Stacks of two and three layers, whose every layer but the last
    attends over lanes, against the per-window padded oracle."""

    N = 9

    @pytest.mark.parametrize("layers", [2, 3])
    @pytest.mark.parametrize("lengths", [list(range(N + 1)), [0], [N], [4], [N, 0, N],
                                         [1, 8, 2, 7, 3, 6, 5]])
    def test_eval_mode_matches_per_window_oracle(self, layers, lengths):
        # every length 0..N (all-pad and full windows), odd B and B=1
        params = spread(make_params(vocab_size=20, d=8, layers=layers, max_len=self.N, seed=2))
        ids = left_padded(lengths, self.N, seed=1)
        with no_grad():
            new = encode_sequence(ids, params, RngStream(0, "eval"))
            ref = full_stack_sequence(ids, params, RngStream(0, "eval"))
        assert new.data.dtype == np.float64 and new.shape == (len(lengths), 8)
        assert np.abs(new.data - ref.data).max() <= 1e-12

    def test_two_layer_gradients_vs_finite_differences(self):
        # under fixed dropout masks the loss is smooth in every weight; the
        # first layer's attention runs on lanes, three of them for five windows
        params = spread(make_params(vocab_size=10, d=4, layers=2, heads=2, max_len=5,
                                    emb_dropout=0.2, hidden_dropout=0.2, seed=6))
        ids = left_padded([0, 2, 5, 3, 1], 5, seed=2)
        ids[ids >= 10] = 9
        assert len(_lanes(window_lengths(ids), 5)[1]) == 3
        v = np.random.default_rng(8).standard_normal((5, 4))

        def loss():
            out = encode_sequence(ids, params, RngStream(4, "fd"))
            return ad.sum_all(ad.mul(out, v))

        loss().backward()
        for name, t in params.named():
            x = t.data.copy()
            original, t.data = t.data, x
            numeric = finite_difference_grad(lambda _: loss().item(), x)
            t.data = original
            assert_grad_close(t.grad, numeric, rtol=1e-6)


class TestAttentionOracle:
    """``encode_sequence`` against the same pass with conftest's composed
    attention (``attention_reference``: scatter, reshape and transpose per
    head, transpose, reshape and gather for the context) in place of
    ``_attention``. Both run on the same BLAS, so the output and every
    parameter's gradient must match byte for byte on any host."""

    N = 9
    # ragged windows, so every layer but the last pairs them into lanes
    IDS = left_padded([0, 2, 9, 3, 7, 1, 5, 9, 4], N, seed=3)

    def passes(self, monkeypatch, params, v=None):
        """(output, parameter gradients) of the encoder's pass, then of the
        oracle's; with ``v``, each pass is recorded and ``sum(out * v)``
        backpropagated."""
        runs = []
        for attention in (encoder._attention, attention_reference):
            monkeypatch.setattr(encoder, "_attention", attention)
            for t in params.tensors.values():
                t.zero_grad()
            out = encode_sequence(self.IDS, params, RngStream(5, "pass"))
            if v is not None:
                ad.sum_all(ad.mul(out, v)).backward()
            runs.append((out.data, {name: t.grad for name, t in params.named()}))
        monkeypatch.undo()
        return runs

    @pytest.mark.parametrize("layers", [2, 3])
    def test_recorded_float32_pass_and_gradients(self, monkeypatch, layers):
        params = spread(make_params(vocab_size=20, d=8, layers=layers, heads=2, max_len=self.N,
                                    emb_dropout=0.2, hidden_dropout=0.3, seed=5))
        for t in params.tensors.values():
            t.data = t.data.astype(np.float32)
        assert len(_lanes(window_lengths(self.IDS), self.N)[1]) < len(self.IDS)
        v = np.random.default_rng(6).standard_normal((len(self.IDS), 8)).astype(np.float32)
        (out, grads), (ref_out, ref_grads) = self.passes(monkeypatch, params, v)
        assert out.dtype == np.float32 and out.tobytes() == ref_out.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == np.float32 and g.tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("layers", [1, 2])
    def test_no_grad_float64_pass(self, monkeypatch, layers):
        params = spread(make_params(vocab_size=20, d=8, layers=layers, heads=2, max_len=self.N,
                                    seed=5))
        with no_grad():
            (out, _), (ref_out, _) = self.passes(monkeypatch, params)
        assert out.dtype == np.float64 and out.tobytes() == ref_out.tobytes()
