import numpy as np
import pytest

from duorec import autodiff as ad
from duorec.autodiff import ConfigError, no_grad
from duorec.data import PAD_INDEX, Batch, make_collision_mask
from duorec.encoder import (EncoderConfig, EncoderParams, _attention_mask, embed,
                            encode, encode_sequence, encode_twins, init_params)
from duorec.rng import RngStream


def make_params(vocab_size=12, d=8, layers=1, heads=2, max_len=6,
                emb_dropout=0.0, hidden_dropout=0.0, seed=0):
    cfg = EncoderConfig(vocab_size=vocab_size, d=d, layers=layers, heads=heads,
                        max_len=max_len, emb_dropout=emb_dropout,
                        hidden_dropout=hidden_dropout)
    return init_params(cfg, RngStream(seed, "init"))


def make_batch(rows, max_len=6, positives=None, targets=None):
    ids = np.array([[PAD_INDEX] * (max_len - len(r)) + list(r) for r in rows])
    lengths = np.array([len(r) for r in rows])
    t = np.array(targets if targets is not None else [r[-1] for r in rows])
    pos = np.array(positives) if positives is not None else ids.copy()
    return Batch(item_ids=ids, lengths=lengths, targets=t, positive_ids=pos,
                 positive_targets=t.copy(), collision_mask=make_collision_mask(t, t.copy()))


def full_stack_encode(h0, item_ids, params, stream):
    """Reference stack: every layer over all B*N positions, then the last row.

    This is the straightforward layer loop, kept here as the oracle for
    ``encode``, whose final layer computes only the last position.
    """
    cfg = params.config
    b, n, d = h0.shape
    nh, dh = cfg.heads, cfg.d // cfg.heads
    mask = _attention_mask(item_ids)
    h = h0
    for layer in range(cfg.layers):
        ls = stream.child(f"layer{layer}")
        flat = ad.reshape(h, (b * n, d))
        heads = []
        for w in ("wq", "wk", "wv"):
            proj = ad.matmul(flat, params[f"layer{layer}.{w}"])
            heads.append(ad.transpose(ad.reshape(proj, (b, n, nh, dh)), (0, 2, 1, 3)))
        q, k, vv = heads                                       # [B, nh, N, dh]
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        att = ad.softmax_rows(ad.add(scores, mask))
        att = ad.dropout(att, cfg.hidden_dropout, ls.child("att"))
        ctx = ad.matmul(att, vv)                               # [B, nh, N, dh]
        ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * n, d))
        out = ad.matmul(ctx, params[f"layer{layer}.wo"])
        out = ad.dropout(out, cfg.hidden_dropout, ls.child("attout"))
        h = ad.layer_norm(ad.add(h, ad.reshape(out, (b, n, d))),
                          params[f"layer{layer}.ln1_gain"], params[f"layer{layer}.ln1_bias"])
        flat = ad.reshape(h, (b * n, d))
        f1 = ad.gelu(ad.add(ad.matmul(flat, params[f"layer{layer}.ffn_w1"]),
                            params[f"layer{layer}.ffn_b1"]))
        f2 = ad.add(ad.matmul(f1, params[f"layer{layer}.ffn_w2"]),
                    params[f"layer{layer}.ffn_b2"])
        f2 = ad.dropout(f2, cfg.hidden_dropout, ls.child("ffn"))
        h = ad.layer_norm(ad.add(h, ad.reshape(f2, (b, n, d))),
                          params[f"layer{layer}.ln2_gain"], params[f"layer{layer}.ln2_bias"])
    last = ad.reshape(h, (b * n, d))
    return ad.gather_rows(last, np.arange(n - 1, b * n, n))    # [B, d]


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=5, d=10, heads=3)

    def test_pad_row_zero_after_init(self):
        params = make_params()
        np.testing.assert_array_equal(params["item_emb"].data[PAD_INDEX], 0.0)


class TestEmbed:
    def test_last_slot_is_item_plus_position(self):
        params = make_params(emb_dropout=0.0)
        ids = np.array([[0, 0, 0, 0, 0, 3]])
        out = embed(ids, params, RngStream(1, "s"))
        expected = params["item_emb"].data[3] + params["pos_emb"].data[5]
        np.testing.assert_allclose(out.data[0, 5], expected)

    def test_pad_positions_carry_positional_rows_only(self):
        params = make_params(emb_dropout=0.0)
        ids = np.array([[0, 0, 0, 0, 2, 3]])
        out = embed(ids, params, RngStream(1, "s"))
        np.testing.assert_allclose(out.data[0, :4], params["pos_emb"].data[:4])

    def test_stream_label_controls_dropout_mask(self):
        params = make_params(emb_dropout=0.2)
        ids = np.array([[1, 2, 3, 4, 5, 6]])
        a = embed(ids, params, RngStream(1, "a"))
        b = embed(ids, params, RngStream(1, "b"))
        a2 = embed(ids, params, RngStream(1, "a"))
        assert not np.array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.data, a2.data)


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
            h0 = embed(ids, params, RngStream(0, "e"))
            # keep all positions: encode only returns the last, so probe by
            # re-running with truncated suffixes
            for i in range(6):
                sub = ids[:, :i + 1]
                h_all[(j, i)] = encode_sequence(
                    np.pad(sub, ((0, 0), (6 - i - 1, 0))), params, RngStream(0, "p")).data
        for i in range(6):
            same = np.allclose(h_all[(None, i)], h_all[(2, i)])
            assert same == (i < 2), f"position {i}"

    def test_zero_layers_returns_embedding(self):
        params = make_params(layers=0)
        ids = np.array([[1, 2, 3, 4, 5, 6]])
        h = encode_sequence(ids, params, RngStream(0, "s"))
        h0 = embed(ids, params, RngStream(0, "s"))
        np.testing.assert_array_equal(h.data, h0.data[:, -1, :])

    def test_deterministic_without_dropout(self):
        params = make_params()
        ids = np.array([[1, 2, 3, 4, 5, 6], [0, 0, 7, 8, 9, 1]])
        a = encode_sequence(ids, params, RngStream(0, "x"))
        b = encode_sequence(ids, params, RngStream(99, "y"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_pad_content_neutrality(self):
        # junk written into pad slots never reaches the real positions
        params = make_params(vocab_size=20)
        ids = np.array([[0, 0, 0, 4, 5, 6]])
        junk = np.array([[9, 17, 2, 4, 5, 6]])
        h = encode_sequence(ids, params, RngStream(0, "s"))
        h0_junk = embed(junk, params, RngStream(0, "s"))
        # re-encode junk embeddings but with the original pad mask
        from duorec.encoder import encode as enc
        h_junk = enc(h0_junk, ids, params, RngStream(0, "s").child("trm"))
        h0 = embed(ids, params, RngStream(0, "s"))
        delta = np.abs(h.data - h_junk.data).max()
        # pad slots differ at input yet the last-position output is identical
        assert np.abs(h0.data[0, :3] - h0_junk.data[0, :3]).max() > 0
        assert delta < 1e-12


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

    def inputs(self, layers, rate, seed=4):
        params = make_params(vocab_size=30, d=8, layers=layers, heads=2,
                             max_len=self.MAX_LEN, emb_dropout=rate,
                             hidden_dropout=rate, seed=seed)
        # left padding of every length, a full row and a one-item row
        rows = [[5, 9, 2, 7, 11, 3, 8], [4], [12, 6], [1, 2, 3, 4, 5], [29, 28, 27]]
        ids = np.array([[PAD_INDEX] * (self.MAX_LEN - len(r)) + r for r in rows])
        return params, ids

    @staticmethod
    def both(params, ids, stream):
        h0 = embed(ids, params, stream)
        new = encode(h0, ids, params, stream.child("trm"))
        ref = full_stack_encode(h0, ids, params, stream.child("trm"))
        return new, ref

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
        assert np.abs(new.data - ref.data).max() <= 1e-12

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

    @pytest.mark.parametrize("layers", [1, 2])
    def test_stream_counters_match_full_draw(self, layers, monkeypatch):
        params, ids = self.inputs(layers, 0.3)
        counters = {}
        original = RngStream.uniform

        def recording_uniform(self, n):
            out = original(self, n)
            counters[self.label] = self.counter
            return out

        monkeypatch.setattr(RngStream, "uniform", recording_uniform)
        seen = []
        for run in (encode, full_stack_encode):
            counters.clear()
            stream = RngStream(3, "enc")
            run(embed(ids, params, stream), ids, params, stream.child("trm"))
            seen.append(dict(counters))
        assert seen[0] == seen[1]
        b, n, d, nh = len(ids), self.MAX_LEN, 8, 2
        last = f"enc.trm.layer{layers - 1}"
        assert seen[0][f"{last}.att"] == -(-b * nh * n * n // 4)
        assert seen[0][f"{last}.attout"] == seen[0][f"{last}.ffn"] == -(-b * n * d // 4)
