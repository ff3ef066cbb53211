import math

import numpy as np
import pytest

from duorec import autodiff as ad
from duorec.autodiff import ConfigError, Tensor
from duorec.contrastive import (assemble, combined_loss, contrastive_views,
                                nce_regularizer)
from duorec.data import make_collision_mask
from duorec.encoder import encode_sequence
from duorec.rng import RngStream

from conftest import interleaved_reps, nce_regularizer_bruteforce, nce_regularizer_reference
from test_encoder import make_batch, make_params


def assert_composed_bytes(xv, yv, mask, tau, g=None):
    """``nce_regularizer`` and ``nce_regularizer_reference`` give the same
    loss and gradient bytes; ``g`` is the gradient fed into the loss."""
    results = []
    for form in (nce_regularizer, nce_regularizer_reference):
        x, y = Tensor(xv.copy(), requires_grad=True), Tensor(yv.copy(), requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = form(assemble(x, y, mask, tau))
            (loss if g is None else ad.mul(loss, g)).backward()
        results.append([loss.data, x.grad, y.grad])
    for a, b in zip(*results):
        assert a.dtype == b.dtype == xv.dtype
        assert a.tobytes() == b.tobytes()


def _signed_zeros(xv, yv, mask):
    xv[::2, 1] = -0.0
    yv[1::3] = 0.0
    xv[3] = -0.0
    return xv, yv, mask


def _partner_only(xv, yv, mask):
    # slots 0 and 5 have no admissible negative: the partner is their only slot
    mask = mask.copy()
    mask[0] = mask[5] = False
    return xv, yv, mask


def _huge(xv, yv, mask):
    # products of 1e20 overflow float32 to inf, and inf - inf makes NaN
    xv[1] *= 1e20
    yv[2, 0] = -1e20
    return xv, yv, mask


def _as_drawn(xv, yv, mask):
    return xv, yv, mask


# name: (B, d, dtype, how the drawn views and mask are changed)
COMPOSED_BYTE_CASES = {
    "c5_step": (256, 16, np.float32, _as_drawn),        # c5_sweep's 2B=512, d=16
    "partial_batch": (25, 64, np.float32, _as_drawn),
    "small_float64": (9, 5, np.float64, _as_drawn),
    "one_pair": (1, 4, np.float32, _as_drawn),
    "signed_zeros": (6, 4, np.float32, _signed_zeros),
    "partner_only": (6, 4, np.float64, _partner_only),
    "huge_float32": (6, 4, np.float32, _huge),
    "huge_float64": (6, 4, np.float64, _huge),
}


def reps_tensor(rng, b, d):
    return (Tensor(rng.standard_normal((b, d)), requires_grad=True),
            Tensor(rng.standard_normal((b, d)), requires_grad=True))


class TestAssemble:
    def test_interleaving(self, rng):
        # assemble holds the two views and nce_rows interleaves them: slot 2i
        # is a[i], slot 2i+1 is b[i]
        a, b = reps_tensor(rng, 3, 4)
        mask = make_collision_mask(np.array([1, 2, 2]), np.array([1, 2, 2]))
        cb = assemble(a, b, mask, tau=1.0)
        assert cb.view_a is a and cb.view_b is b
        slots = np.array([a.data[0], b.data[0], a.data[1], b.data[1], a.data[2], b.data[2]])
        want = nce_regularizer_bruteforce(slots, mask, 1.0)
        assert abs(nce_regularizer(cb).item() - want) < 1e-12

    def test_b1_has_no_negatives(self, rng):
        a, b = reps_tensor(rng, 1, 4)
        mask = make_collision_mask(np.array([1]), np.array([1]))
        cb = assemble(a, b, mask, tau=1.0)
        assert not cb.collision_mask.any()

    def test_b2_two_negatives_each(self, rng):
        a, b = reps_tensor(rng, 2, 4)
        mask = make_collision_mask(np.array([1, 2]), np.array([1, 2]))
        cb = assemble(a, b, mask, tau=1.0)
        assert (cb.collision_mask.sum(axis=1) == 2).all()

    def test_b3_shared_target_hand_mask(self, rng):
        # rows 1 and 2 share a target: their four slots see only row 0's slots
        a, b = reps_tensor(rng, 3, 4)
        mask = make_collision_mask(np.array([5, 9, 9]), np.array([5, 9, 9]))
        cb = assemble(a, b, mask, tau=1.0)
        expected = np.zeros((6, 6), dtype=bool)
        for s in (2, 3, 4, 5):     # slots of rows 1, 2
            expected[s, [0, 1]] = True
            expected[[0, 1], s] = True
        np.testing.assert_array_equal(cb.collision_mask, expected)


class TestNceRegularizer:
    def test_no_negatives_gives_zero(self, rng):
        a, b = reps_tensor(rng, 1, 6)
        cb = assemble(a, b, make_collision_mask(np.array([1]), np.array([1])), tau=0.7)
        assert nce_regularizer(cb).item() == 0.0

    def test_hand_computation_b2(self):
        # anchors [1,0] with positive [1,0]; negatives both [0,1]
        a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        mask = make_collision_mask(np.array([1, 2]), np.array([1, 2]))
        cb = assemble(a, b, mask, tau=1.0)
        # every slot: pos dot 1, negatives both dot 0
        expected = -math.log(math.e / (math.e + 2.0)) * 4 / 2
        assert abs(nce_regularizer(cb).item() - expected) < 1e-12

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_oracle_equivalence(self, b, rng):
        for trial in range(10):
            d = int(rng.integers(2, 9))
            targets = rng.integers(1, 4, size=b)
            x = Tensor(rng.standard_normal((b, d)), requires_grad=True)
            y = Tensor(rng.standard_normal((b, d)), requires_grad=True)
            mask = make_collision_mask(targets, targets.copy())
            cb = assemble(x, y, mask, tau=float(rng.uniform(0.3, 3.0)))
            fast = nce_regularizer(cb).item()
            slow = nce_regularizer_bruteforce(interleaved_reps(cb), cb.collision_mask, cb.tau)
            assert abs(fast - slow) < 1e-12

    def test_temperature_rescales_logits(self, rng):
        x, y = reps_tensor(rng, 3, 5)
        mask = make_collision_mask(np.array([1, 2, 3]), np.array([1, 2, 3]))
        for tau in (1.0, 3.0):
            cb = assemble(x, y, mask, tau=tau)
            oracle = nce_regularizer_bruteforce(interleaved_reps(cb), cb.collision_mask, tau)
            assert abs(nce_regularizer(cb).item() - oracle) < 1e-12

    def test_masked_slot_vectors_are_inert(self, rng):
        # an anchor's directional term ignores any slot masked for it
        targets = np.array([7, 7, 3])
        x, y = reps_tensor(rng, 3, 4)
        mask = make_collision_mask(targets, targets.copy())
        cb = assemble(x, y, mask, tau=1.0)

        def anchor_term(reps, a):
            p = a ^ 1
            pos = math.exp(reps[a] @ reps[p])
            denom = pos + sum(math.exp(reps[a] @ reps[j]) for j in range(6)
                              if cb.collision_mask[a, j])
            return -math.log(pos / denom)

        for a in range(6):
            base = anchor_term(interleaved_reps(cb), a)
            for j in range(6):
                if not cb.collision_mask[a, j] and j not in (a, a ^ 1):
                    zeroed = interleaved_reps(cb).copy()
                    zeroed[j] = 0.0
                    assert anchor_term(zeroed, a) == base

    def test_permutation_equivariance(self, rng):
        b = 4
        targets = rng.integers(1, 4, size=b)
        x = rng.standard_normal((b, 6))
        y = rng.standard_normal((b, 6))
        mask = make_collision_mask(targets, targets.copy())
        cb = assemble(Tensor(x), Tensor(y), mask, tau=1.0)
        base = nce_regularizer(cb).item()
        perm = np.array([2, 0, 3, 1])
        mask_p = make_collision_mask(targets[perm], targets[perm].copy())
        cb_p = assemble(Tensor(x[perm]), Tensor(y[perm]), mask_p, tau=1.0)
        assert abs(base - nce_regularizer(cb_p).item()) < 1e-12

    def test_b1_gradient_identically_zero(self, rng):
        x, y = reps_tensor(rng, 1, 5)
        cb = assemble(x, y, make_collision_mask(np.array([1]), np.array([1])), tau=1.0)
        nce_regularizer(cb).backward()
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)
        np.testing.assert_allclose(y.grad, 0.0, atol=1e-15)

    def test_gradient_pulls_positive_pushes_negatives(self, rng):
        targets = np.arange(1, 5)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        y = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        mask = make_collision_mask(targets, targets.copy())
        cb = assemble(x, y, mask, tau=1.0)
        nce_regularizer(cb).backward()
        step = 1e-3
        x2 = x.data - step * x.grad
        y2 = y.data - step * y.grad
        before = (x.data * y.data).sum(axis=1)
        after = (x2 * y2).sum(axis=1)
        assert (after > before).all()
        cb2 = assemble(Tensor(x2), Tensor(y2), mask, tau=1.0)
        loss_after = nce_regularizer_bruteforce(interleaved_reps(cb2), mask, 1.0)
        assert loss_after < nce_regularizer_bruteforce(interleaved_reps(cb), mask, 1.0)
        # first-order: the loss strictly rises in every admissible negative
        # similarity and falls in every positive similarity
        def loss_of_sim(sim):
            total = 0.0
            for a in range(8):
                p = a ^ 1
                pos = math.exp(sim[a, p])
                denom = pos + sum(math.exp(sim[a, j]) for j in range(8)
                                  if cb.collision_mask[a, j])
                total += -math.log(pos / denom)
            return total / 4
        reps = interleaved_reps(cb)
        sim = reps @ reps.T
        eps = 1e-6
        for a in range(8):
            for j in range(8):
                if cb.collision_mask[a, j] or j == (a ^ 1):
                    bumped = sim.copy()
                    bumped[a, j] += eps
                    dslope = (loss_of_sim(bumped) - loss_of_sim(sim)) / eps
                    if j == (a ^ 1):
                        assert dslope < 0
                    else:
                        assert dslope > 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_the_take_pairs_form(self, rng, dtype):
        # the regularizer as the composed graph that read sim[i, i^1] with
        # take_pairs: the same loss and gradient bytes
        targets = np.array([3, 1, 3, 2, 5])
        mask = make_collision_mask(targets, targets.copy())
        xv, yv = (rng.standard_normal((5, 4)).astype(dtype) for _ in range(2))
        xv[1, 2] = -0.0
        assert_composed_bytes(xv, yv, mask, 0.7)

    @pytest.mark.parametrize("case", sorted(COMPOSED_BYTE_CASES))
    @pytest.mark.parametrize("tau", [0.7, 1.0])
    def test_bytes_match_the_composed_form(self, rng, case, tau):
        b, d, dtype, make = COMPOSED_BYTE_CASES[case]
        xv, yv = (rng.standard_normal((b, d)).astype(dtype) for _ in range(2))
        targets = rng.integers(1, 6, size=b)
        mask = make_collision_mask(targets, rng.integers(1, 6, size=b))
        xv, yv, mask = make(xv, yv, mask)
        for g in (None, 0.2, 0.0, -0.0):
            assert_composed_bytes(xv, yv, mask, tau, g)

    def test_gradient_vs_finite_differences(self, rng):
        from conftest import assert_grad_close, finite_difference_grad
        targets = np.array([1, 2, 2])
        xv = rng.standard_normal((3, 4))
        yv = rng.standard_normal((3, 4))
        mask = make_collision_mask(targets, targets.copy())
        x = Tensor(xv.copy(), requires_grad=True)
        nce_regularizer(assemble(x, Tensor(yv), mask, tau=0.8)).backward()

        def f(z):
            return nce_regularizer_bruteforce(
                interleaved_reps(assemble(Tensor(z), Tensor(yv), mask, tau=0.8)), mask, 0.8)

        assert_grad_close(x.grad, finite_difference_grad(f, xv.copy()))


class TestCombinedLoss:
    def test_lambda_zero_total_is_rec(self):
        rec, reg = Tensor(np.asarray(1.7)), Tensor(np.asarray(0.9))
        bundle = combined_loss(rec, reg, 0.0)
        assert bundle.total.item() == rec.item()

    def test_weighted_sum(self):
        bundle = combined_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(0.4)), 0.5)
        assert abs(bundle.total.item() - 1.2) < 1e-15

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0)), -0.1)

    @pytest.mark.parametrize("lam", [0.1, 0.2, 0.3, 0.4, 0.5])
    def test_lambda_grid_finite(self, lam, rng):
        x, y = reps_tensor(rng, 3, 4)
        mask = make_collision_mask(np.arange(1, 4), np.arange(1, 4))
        reg = nce_regularizer(assemble(x, y, mask, tau=1.0))
        bundle = combined_loss(Tensor(np.asarray(2.0)), reg, lam)
        assert np.isfinite(bundle.total.item())


class TestPositiveModes:
    def _setup(self, emb_dropout=0.3, hidden_dropout=0.3):
        params = make_params(vocab_size=20, emb_dropout=emb_dropout,
                             hidden_dropout=hidden_dropout, seed=2)
        batch = make_batch([[1, 2, 3], [4, 5, 6]],
                           positives=[[0, 0, 0, 7, 8, 9], [0, 0, 0, 2, 4, 6]],
                           targets=[10, 11])
        return params, batch

    def _loss(self, mode, params, batch, stream_seed=3):
        stream = RngStream(stream_seed, "step")
        _, a, b = contrastive_views(mode, batch, params, stream)
        cb = assemble(a, b, batch.collision_mask, tau=1.0)
        return nce_regularizer(cb).item()

    def test_unsupervised_zero_dropout_identical_pair(self):
        params, batch = self._setup(0.0, 0.0)
        _, a, b = contrastive_views("unsupervised", batch, params, RngStream(3, "step"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_three_modes_three_losses(self):
        params, batch = self._setup()
        losses = {m: self._loss(m, params, batch) for m in
                  ("unsupervised", "supervised", "duo")}
        assert len(set(losses.values())) == 3

    def test_unknown_mode_rejected(self):
        params, batch = self._setup()
        with pytest.raises(ConfigError):
            self._loss("bogus", params, batch)

    def test_duo_equals_supervised_when_twin_is_anchor_pass(self):
        # fallback self-partner and zero dropout: every pass encodes the
        # same input identically, so the positive pairs coincide
        params = make_params(vocab_size=20, emb_dropout=0.0, hidden_dropout=0.0)
        batch = make_batch([[1, 2, 3], [4, 5, 6]], targets=[10, 11])
        assert self._loss("duo", params, batch) == self._loss("supervised", params, batch)


def _every_pass_views(mode, batch, params, stream):
    """The views as they were picked once every pass had been encoded: the
    anchor, its twin and the partner for every mode, plus a second twin in
    unsupervised mode (reference for ``contrastive_views``)."""
    h = encode_sequence(batch.item_ids, params, stream.child("anchor"))
    twin = encode_sequence(batch.item_ids, params, stream.child("twin"))
    partner = encode_sequence(batch.positive_ids, params, stream.child("partner"))
    if mode == "duo":
        return h, twin, partner
    if mode == "unsupervised":
        return h, twin, encode_sequence(batch.item_ids, params, stream.child("twin2"))
    return h, h, partner


class TestModePasses:
    @pytest.mark.parametrize("mode, passes", [("duo", 3), ("unsupervised", 3),
                                              ("supervised", 2)])
    def test_encodes_only_the_passes_the_mode_uses(self, mode, passes, monkeypatch):
        import duorec.contrastive
        import duorec.encoder
        calls = []
        original = duorec.encoder.encode_sequence

        def counting(*args):
            calls.append(args[2].label)
            return original(*args)

        monkeypatch.setattr(duorec.encoder, "encode_sequence", counting)
        monkeypatch.setattr(duorec.contrastive, "encode_sequence", counting)
        params, batch = TestPositiveModes()._setup()
        contrastive_views(mode, batch, params, RngStream(3, "step"))
        assert len(calls) == passes

    @pytest.mark.parametrize("mode", ["duo", "unsupervised", "supervised"])
    def test_loss_and_gradients_match_every_pass(self, mode):
        params, batch = TestPositiveModes()._setup()
        results = []
        for views in (contrastive_views, _every_pass_views):
            for t in params.tensors.values():
                t.zero_grad()
            h, a, b = views(mode, batch, params, RngStream(3, "step"))
            logits = ad.matmul(h, ad.transpose(params["item_emb"], (1, 0)))
            rec = ad.cross_entropy_from_logits(logits, batch.targets)
            reg = nce_regularizer(assemble(a, b, batch.collision_mask, tau=1.0))
            total = combined_loss(rec, reg, 0.3).total
            total.backward()
            results.append((total.data.tobytes(),
                            {name: t.grad.tobytes() for name, t in params.named()}))
        assert results[0] == results[1]
