import numpy as np
import pytest

from duorec import autodiff as ad
from duorec.autodiff import ConfigError, ShapeError, Tensor
from duorec.rng import RngStream

from conftest import assert_grad_close, finite_difference_grad


class TestMatmul:
    def test_identity(self, rng):
        a = rng.standard_normal((3, 3))
        out = ad.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_arithmetic(self):
        out = ad.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5], [6]]))
        np.testing.assert_array_equal(out.data, [[17], [39]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        ta = Tensor(a.copy(), requires_grad=True)
        loss = ad.sum_all(ad.matmul(ta, Tensor(b)))
        loss.backward()
        numeric = finite_difference_grad(lambda x: (x @ b).sum(), a.copy())
        assert_grad_close(ta.grad, numeric)

    def test_batched_gradient(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        ad.sum_all(ad.matmul(ta, tb)).backward()
        assert_grad_close(ta.grad, finite_difference_grad(lambda x: (x @ b).sum(), a.copy()))
        assert_grad_close(tb.grad, finite_difference_grad(lambda x: (a @ x).sum(), b.copy()))


class TestSoftmaxRows:
    def test_equal_logits(self):
        out = ad.softmax_rows(Tensor([[3.0, 3.0, 3.0, 3.0]]))
        np.testing.assert_allclose(out.data, [[0.25] * 4])

    def test_extreme_logits_no_overflow(self):
        out = ad.softmax_rows(Tensor([[1e4, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]])

    def test_rows_sum_to_one(self, rng):
        out = ad.softmax_rows(Tensor(rng.standard_normal((6, 9)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)

    def test_jvp_vs_finite_differences(self, rng):
        x = rng.standard_normal((2, 5))
        v = rng.standard_normal((2, 5))
        tx = Tensor(x.copy(), requires_grad=True)
        ad.sum_all(ad.mul(ad.softmax_rows(tx), v)).backward()

        def f(z):
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            return ((e / e.sum(axis=-1, keepdims=True)) * v).sum()

        assert_grad_close(tx.grad, finite_difference_grad(f, x.copy()))


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 7)))
        out = ad.dropout(x, 0.0, RngStream(1, "d"))
        np.testing.assert_array_equal(out.data, x.data)

    def test_deterministic_for_fixed_stream(self, rng):
        x = Tensor(rng.standard_normal((20, 20)))
        a = ad.dropout(x, 0.3, RngStream(9, "mask"))
        b = ad.dropout(x, 0.3, RngStream(9, "mask"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_distinct_labels_differ(self, rng):
        x = Tensor(rng.standard_normal((20, 20)))
        a = ad.dropout(x, 0.3, RngStream(9, "mask.a"))
        b = ad.dropout(x, 0.3, RngStream(9, "mask.b"))
        assert not np.array_equal(a.data, b.data)

    def test_empirical_zero_fraction(self):
        x = Tensor(np.ones(10_000))
        out = ad.dropout(x, 0.5, RngStream(3, "frac"))
        zero_frac = (out.data == 0).mean()
        assert abs(zero_frac - 0.5) < 0.02

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            ad.dropout(Tensor(np.ones(4)), 1.0, RngStream(0, "x"))

    def test_gradient_masks_identically(self, rng):
        x = Tensor(rng.standard_normal(100), requires_grad=True)
        out = ad.dropout(x, 0.4, RngStream(5, "g"))
        ad.sum_all(out).backward()
        survivors = out.data != 0
        np.testing.assert_allclose(x.grad[survivors], 1.0 / 0.6)
        np.testing.assert_array_equal(x.grad[~survivors], 0.0)


    def test_sliced_draw_matches_full_draw(self, rng):
        full = Tensor(rng.standard_normal((4, 6)))
        rows = np.array([1, 3])
        ref_stream, part_stream = RngStream(2, "m"), RngStream(2, "m")
        ref = ad.dropout(full, 0.3, ref_stream)
        part = ad.dropout(Tensor(full.data[rows]), 0.3, part_stream, (4, 6), rows)
        np.testing.assert_array_equal(part.data, ref.data[rows])
        assert part_stream.counter == ref_stream.counter

    def test_draw_shape_must_fit_input(self):
        with pytest.raises(ShapeError):
            ad.dropout(Tensor(np.ones((2, 6))), 0.3, RngStream(0, "x"), (4, 6))


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_already_normalized_row(self):
        out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_gradient_vs_finite_differences(self, rng):
        x = rng.standard_normal((3, 8))
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        v = rng.standard_normal((3, 8))
        tx = Tensor(x.copy(), requires_grad=True)
        tg = Tensor(gain.copy(), requires_grad=True)
        tb = Tensor(bias.copy(), requires_grad=True)
        ad.sum_all(ad.mul(ad.layer_norm(tx, tg, tb, eps=1e-8), v)).backward()

        def f_of(which):
            def f(z):
                vals = {"x": x, "gain": gain, "bias": bias}
                vals[which] = z
                mu = vals["x"].mean(axis=-1, keepdims=True)
                xm = vals["x"] - mu
                inv = 1 / np.sqrt((xm ** 2).mean(axis=-1, keepdims=True) + 1e-8)
                return ((xm * inv * vals["gain"] + vals["bias"]) * v).sum()
            return f

        assert_grad_close(tx.grad, finite_difference_grad(f_of("x"), x.copy()))
        assert_grad_close(tg.grad, finite_difference_grad(f_of("gain"), gain.copy()))
        assert_grad_close(tb.grad, finite_difference_grad(f_of("bias"), bias.copy()))


class TestGatherRows:
    def test_first_row(self, rng):
        t = rng.standard_normal((6, 4))
        out = ad.gather_rows(Tensor(t), [0])
        np.testing.assert_array_equal(out.data, t[:1])

    def test_repeated_index_sums_gradients(self, rng):
        t = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        ad.sum_all(ad.gather_rows(t, [2, 2])).backward()
        np.testing.assert_allclose(t.grad[2], 2.0)

    def test_scatter_pattern(self, rng):
        t = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        ad.sum_all(ad.gather_rows(t, [1, 3])).backward()
        expected = np.zeros((6, 4))
        expected[[1, 3]] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_out_of_range(self):
        with pytest.raises(IndexError, match="7"):
            ad.gather_rows(Tensor(np.zeros((5, 2))), [0, 7])


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.cross_entropy_from_logits(Tensor(np.zeros((3, 4))), [0, 1, 3])
        np.testing.assert_allclose(loss.data, np.log(4.0))

    def test_saturated_case(self):
        loss = ad.cross_entropy_from_logits(Tensor([[30.0, 0.0, 0.0]]), [0])
        assert loss.item() < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy_from_logits(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = [1, 0, 5, 2]
        tl = Tensor(logits.copy(), requires_grad=True)
        ad.cross_entropy_from_logits(tl, targets).backward()
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        for i, t in enumerate(targets):
            p[i, t] -= 1.0
        np.testing.assert_allclose(tl.grad, p / 4, atol=1e-12)

        def f(z):
            m = z.max(axis=-1, keepdims=True)
            lse = m.squeeze(-1) + np.log(np.exp(z - m).sum(axis=-1))
            return (lse - z[np.arange(4), targets]).mean()

        assert_grad_close(tl.grad, finite_difference_grad(f, logits.copy()))


class TestBackward:
    def test_identity(self):
        x = Tensor(np.asarray(2.5), requires_grad=True)
        ad.sum_all(x).backward()
        assert x.grad == 1.0

    def test_affine(self):
        x = Tensor(np.asarray(1.5), requires_grad=True)
        y = ad.add(ad.mul(x, 3.0), 2.0)
        y.backward()
        assert x.grad == 3.0

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_composite_graph_vs_finite_differences(self, rng):
        w = rng.standard_normal((5, 4))
        x = rng.standard_normal((3, 5))
        gain = np.ones(4)
        bias = np.zeros(4)
        targets = [0, 2, 3]

        def forward(wv):
            tw = Tensor(wv, requires_grad=True)
            z = ad.layer_norm(ad.matmul(Tensor(x), tw), Tensor(gain), Tensor(bias))
            return tw, ad.cross_entropy_from_logits(z, targets)

        tw, loss = forward(w.copy())
        loss.backward()

        def f(wv):
            _, l = forward(wv)
            return l.item()

        assert_grad_close(tw.grad, finite_difference_grad(f, w.copy()))

    def test_backward_consumes_interior_nodes(self, rng):
        w = rng.standard_normal((5, 4))
        x = rng.standard_normal((3, 5))
        tw = Tensor(w.copy(), requires_grad=True)
        tg = Tensor(np.ones(4), requires_grad=True)
        tb = Tensor(np.zeros(4), requires_grad=True)
        h = ad.matmul(Tensor(x), tw)
        z = ad.gelu(ad.layer_norm(h, tg, tb))
        a = ad.add(z, z)                                       # one node, two gradient paths
        loss = ad.cross_entropy_from_logits(ad.dropout(a, 0.2, RngStream(1, "d")), [0, 2, 3])
        interior = [h, z, a, loss]
        assert all(t._backward is not None and t._parents for t in interior)
        loss.backward()
        for t in interior:
            assert t.grad is None and t._backward is None and t._parents == ()
        for leaf in (tw, tg, tb):
            assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape

        def f(wv):
            hh = ad.matmul(Tensor(x), Tensor(wv))
            zz = ad.gelu(ad.layer_norm(hh, Tensor(np.ones(4)), Tensor(np.zeros(4))))
            out = ad.dropout(ad.add(zz, zz), 0.2, RngStream(1, "d"))
            return ad.cross_entropy_from_logits(out, [0, 2, 3]).item()

        assert_grad_close(tw.grad, finite_difference_grad(f, w.copy()))

    def test_shared_gradient_array_is_never_written(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        ad.sum_all(ad.add(a, b)).backward()                    # a and b receive one array
        b_before = b.grad.copy()
        ad.sum_all(ad.mul(a, 2.0)).backward()                  # accumulates into a only
        np.testing.assert_array_equal(a.grad, 3.0)
        np.testing.assert_array_equal(b.grad, b_before)

    def test_forward_is_deterministic(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        runs = [ad.softmax_rows(ad.matmul(x, x)).data for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])


class TestRngStream:
    def test_same_key_same_draws(self):
        assert np.array_equal(RngStream(7, "s").uniform(50), RngStream(7, "s").uniform(50))

    def test_streams_are_isolated(self):
        a, b = RngStream(7, "a"), RngStream(7, "b")
        first = b.uniform(10)
        a.uniform(1000)
        b2 = RngStream(7, "b")
        np.testing.assert_array_equal(first, b2.uniform(10))

    def test_counter_resumes(self):
        s = RngStream(3, "c")
        s.uniform(5)
        expected = s.uniform(7)
        # reconstructing at the same counter reproduces the same next draws
        s2 = RngStream(3, "c")
        s2.uniform(5)
        resumed = RngStream(3, "c", counter=s2.counter)
        np.testing.assert_array_equal(expected, resumed.uniform(7))

    def test_permutation_covers_range(self):
        p = RngStream(1, "p").permutation(100)
        assert sorted(p.tolist()) == list(range(100))
