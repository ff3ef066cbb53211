import hashlib
import inspect
import sys
import weakref

import numpy as np
import pytest

from duorec import autodiff as ad
from duorec.autodiff import ConfigError, ShapeError, Tensor
from duorec.contrastive import ContrastiveBatch
from duorec.data import make_collision_mask
from duorec.rng import RngStream
from duorec.trainer import train_step

from conftest import (assert_grad_close, cross_entropy_reference, finite_difference_grad,
                      gelu_reference, interleave_rows_reference, layer_norm_reference,
                      logsumexp_rows_reference, matmul_bias_reference,
                      merge_heads_reference, nce_regularizer_reference,
                      scaled_masked_softmax_reference, scatter_rows_reference,
                      softmax_np_reference, softmax_rows_reference, split_heads_reference,
                      take_pairs_reference)
from test_encoder import make_batch, make_params


def quantized_scale(rate):
    """Dropout's survivor scale: 65536 / (65536 - cut), cut = round(rate * 65536)."""
    return 65536 / (65536 - round(rate * 65536))


def fresh_philox(label, counter, seed=5):
    """A new Philox keyed as ``RngStream(seed, label)``, advanced to ``counter``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    bitgen = np.random.Philox(key=np.frombuffer(digest[:16], dtype=np.uint64))
    bitgen.advance(counter)
    return bitgen


def philox_lanes(label, counter, n):
    """n 16-bit lanes by shifts of the raw words of a fresh Philox at ``counter``."""
    words = fresh_philox(label, counter).random_raw(-(-n // 4))
    shifts = np.arange(0, 64, 16, dtype=np.uint64)
    return ((words[:, None] >> shifts) & np.uint64(0xFFFF)).astype(np.uint16).reshape(-1)[:n]


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 1, 4), (2, 3, 4, 5)),      # one query row: dB is an outer product
        ((2, 3, 6, 4), (2, 3, 4, 1)),      # one output column: dA is
        ((3, 1, 4), (4, 1)),               # both, with b broadcast over the batch
    ])
    def test_inner_dimension_one_gradients_match_np_matmul_bytes(self, rng, dtype,
                                                                 a_shape, b_shape):
        a = rng.standard_normal(a_shape).astype(dtype)
        b = rng.standard_normal(b_shape).astype(dtype)
        g = rng.standard_normal(np.matmul(a, b).shape).astype(dtype)
        for x in (a, b, g):                # signed zeros in every operand
            x.flat[::3] = 0.0
            x.flat[1::3] *= -1
            x.flat[::6] = -0.0
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        ad.matmul(ta, tb)._backward(g)
        want_a = np.matmul(g, b.swapaxes(-1, -2))
        want_b = np.matmul(a.swapaxes(-1, -2), g)
        if want_b.ndim > b.ndim:
            want_b = want_b.sum(axis=0)
        assert ta.grad.dtype == tb.grad.dtype == dtype
        assert ta.grad.tobytes() == want_a.tobytes()
        assert tb.grad.tobytes() == want_b.tobytes()


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


class TestExpRows:
    """The stabilized exponential that every softmax and log-sum-exp takes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_divided_gives_the_probe_softmax_bytes(self, rng, dtype):
        # 400 draws with +-inf, NaN, +-0.0 and +-1e30 entries: exp_rows, then
        # a division in place, against the probe's old softmax
        specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e30, -1e30], dtype=dtype)
        with np.errstate(all="ignore"):
            for _ in range(400):
                x = (rng.standard_normal(rng.integers(1, 6, size=2)) * 10).astype(dtype)
                hit = rng.random(x.shape) < 0.3
                x[hit] = rng.choice(specials, size=int(hit.sum()))
                e, _, s = ad.exp_rows(x)
                e /= s
                want = softmax_np_reference(x)
                assert e.dtype == want.dtype == dtype
                assert e.tobytes() == want.tobytes()

    def test_returns_row_max_and_sum(self, rng):
        x = rng.standard_normal((2, 3, 4))
        before = x.copy()
        e, m, s = ad.exp_rows(x)
        assert e is not x and x.tobytes() == before.tobytes()
        assert m.shape == s.shape == (2, 3, 1)
        np.testing.assert_array_equal(m, x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(e, np.exp(x - m))
        np.testing.assert_array_equal(s, e.sum(axis=-1, keepdims=True))

    def test_out_may_be_the_input(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        want, _, _ = ad.exp_rows(x)
        e, _, _ = ad.exp_rows(x, out=x)
        assert e is x and e.tobytes() == want.tobytes()

    def test_helpers_record_nothing(self, rng, monkeypatch):
        # plain functions, not recorded ops: a tracer of ``_make`` sees nothing new
        monkeypatch.setattr(ad, "_make", None)
        ad.exp_rows(rng.standard_normal((2, 3)))
        ad.check_index(np.array([0, 2]), 0, 3, "row")


class TestCheckIndex:
    @pytest.mark.parametrize("idx, bad", [([0, 3, 5, -2], 5), ([-1, 9], -1),
                                          ([[1, 2], [7, 0]], 7)])
    def test_names_the_first_entry_outside(self, idx, bad):
        with pytest.raises(IndexError, match=rf"^item {bad} out of range \[0, 5\)$"):
            ad.check_index(np.array(idx), 0, 5, "item")

    def test_bounds_are_half_open(self):
        ad.check_index(np.array([1, 4]), 1, 5, "item")
        ad.check_index(np.array([], dtype=np.int64), 1, 1, "item")
        for bad in (0, 5):
            with pytest.raises(IndexError, match=f"item {bad} out of range"):
                ad.check_index(np.array([1, bad]), 1, 5, "item")


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

    def test_rate_that_rounds_to_one_rejected(self):
        # cut == 65536 would drop every element and scale by 65536 / 0
        assert round((1 - 1e-6) * 65536) == 65536
        with pytest.raises(ConfigError):
            ad.dropout(Tensor(np.ones(4)), 1 - 1e-6, RngStream(0, "x"))

    def test_rate_that_rounds_to_zero_is_identity(self, rng):
        assert round(1e-6 * 65536) == 0
        x, stream = Tensor(rng.standard_normal((5, 7))), RngStream(1, "d")
        assert ad.dropout(x, 1e-6, stream) is x
        assert stream.counter == 0

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
    def test_keep_rate_is_the_quantized_rate(self, rate):
        # an element is kept when its lane is >= cut; over 10^7 lanes the kept
        # share is within 5 binomial sigmas of 1 - cut/65536, and every
        # survivor carries the quantized scale
        n, cut = 10**7, round(rate * 65536)
        out = ad.dropout(Tensor(np.ones(n, dtype=np.float32)), rate, RngStream(11, "keep")).data
        kept = out != 0
        np.testing.assert_array_equal(kept, RngStream(11, "keep").lanes(n) >= cut)
        p = 1 - cut / 65536
        assert abs(kept.mean() - p) <= 5 * np.sqrt(p * (1 - p) / n)
        np.testing.assert_array_equal(out[kept], np.float32(quantized_scale(rate)))

    def test_sibling_streams_are_uncorrelated(self):
        # sample correlation of two independent masks is about N(0, 1/n)
        n, s = 10**6, RngStream(12, "sib")
        x = Tensor(np.ones(n, dtype=np.float32))
        a = ad.dropout(x, 0.3, s.child("a")).data != 0
        b = ad.dropout(x, 0.3, s.child("b")).data != 0
        assert abs(np.corrcoef(a, b)[0, 1]) <= 5 / np.sqrt(n)

    def test_gradient_masks_identically(self, rng):
        x = Tensor(rng.standard_normal(100), requires_grad=True)
        out = ad.dropout(x, 0.4, RngStream(5, "g"))
        ad.sum_all(out).backward()
        survivors = out.data != 0
        np.testing.assert_allclose(x.grad[survivors], quantized_scale(0.4))
        np.testing.assert_array_equal(x.grad[~survivors], 0.0)

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (3, 2, 1, 5)])
    def test_mask_is_drawn_over_the_array_it_drops(self, shape):
        # element i in C order owns lane i of one draw of x.size lanes
        x = Tensor(np.ones(shape))
        stream = RngStream(5, "shape", 3)
        kept = ad.dropout(x, 0.3, stream).data != 0
        lanes = philox_lanes("shape", 3, x.data.size).reshape(shape)
        np.testing.assert_array_equal(kept, lanes >= round(0.3 * 65536))
        assert stream.counter == 3 + -(-x.data.size // 16)

    def test_successive_draws_start_at_the_next_block(self):
        # a draw of 17 lanes takes two whole counter blocks; the next begins at the third
        stream = RngStream(5, "next", 1)
        ad.dropout(Tensor(np.ones(17)), 0.3, stream)
        kept = ad.dropout(Tensor(np.ones((2, 3))), 0.3, stream).data != 0
        lanes = philox_lanes("next", 3, 6).reshape(2, 3)
        np.testing.assert_array_equal(kept, lanes >= round(0.3 * 65536))
        assert stream.counter == 4

    def test_strided_input_follows_its_logical_order(self, rng):
        # a transposed view is dropped in the order of its shape, not of its memory
        x = ad.transpose(Tensor(rng.standard_normal((3, 4))), (1, 0))
        assert not x.data.flags["C_CONTIGUOUS"]
        out = ad.dropout(x, 0.3, RngStream(5, "view"))
        kept = philox_lanes("view", 0, 12).reshape(4, 3) >= round(0.3 * 65536)
        np.testing.assert_array_equal(out.data != 0, kept)
        np.testing.assert_array_equal(out.data[kept], x.data[kept] * quantized_scale(0.3))

    def test_empty_array_draws_nothing(self):
        stream = RngStream(1, "empty", 3)
        out = ad.dropout(Tensor(np.ones((0, 4))), 0.3, stream)
        assert out.shape == (0, 4)
        assert stream.counter == 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keep_pattern_gives_the_float_mask_bytes(self, rng, dtype):
        # against ``x * mask`` and ``g * mask`` with the float mask the one-byte
        # pattern replaced: a dropped -x is -0.0, a dropped inf or NaN is NaN,
        # and a kept value near the largest finite one may overflow to inf
        big = np.finfo(dtype).max
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, big, -big, 1e-300, -5e-324]
        x = np.concatenate([special * 20, rng.standard_normal(800)]).astype(dtype)
        g = rng.permutation(x)
        rate, cut = 0.4, round(0.4 * 65536)
        mask = (RngStream(8, "bytes").lanes(x.size) >= cut) * dtype(quantized_scale(rate))
        tx = Tensor(x, requires_grad=True)
        with np.errstate(over="ignore", invalid="ignore"):
            out = ad.dropout(tx, rate, RngStream(8, "bytes"))
            out._backward(g)
            want_out, want_grad = x * mask, g * mask
        assert mask.dtype == out.data.dtype == tx.grad.dtype == dtype
        assert 0 < np.count_nonzero(mask) < x.size
        assert out.data.tobytes() == want_out.tobytes()
        assert tx.grad.tobytes() == want_grad.tobytes()

    def test_signature_has_one_form(self):
        # no option selects a draw over any array but the one dropped
        assert list(inspect.signature(ad.dropout).parameters) == ["x", "rate", "stream"]


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_already_normalized_row(self):
        out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_gradient_vs_finite_differences(self, rng):
        x = rng.standard_normal((3, 8))
        gain = rng.standard_normal(8)
        bias = rng.standard_normal(8)
        v = rng.standard_normal((3, 8))
        tx = Tensor(x.copy(), requires_grad=True)
        tg = Tensor(gain.copy(), requires_grad=True)
        tb = Tensor(bias.copy(), requires_grad=True)
        ad.sum_all(ad.mul(ad.layer_norm(tx, tg, tb), v)).backward()

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

    def test_signature_has_one_form(self):
        # the variance offset is a constant, not a knob
        assert list(inspect.signature(ad.layer_norm).parameters) == ["x", "gain", "bias"]


class TestGatherRows:
    INDICES = [[0, 2, 3, 7], [3], [[1, 4], [5, 6]], [2, 2, 0, 7, 2], [[0, 0], [3, 0]]]

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

    @pytest.mark.parametrize("indices", INDICES)
    def test_backward_bytes_match_add_at(self, rng, indices):
        # unique and repeated rows must give np.add.at's bytes, signed zeros
        # included
        t = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        out = ad.gather_rows(t, indices)
        g = rng.standard_normal(out.shape)
        g.flat[::4] = -0.0
        out._backward(g)
        want = np.zeros((8, 3))
        np.add.at(want, np.asarray(indices), g)
        assert t.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("indices", INDICES + [[0, 1, 0, 2] * 50])
    def test_float32_backward_is_the_float64_sum_rounded_once(self, rng, indices):
        # in float32 the rows still sum in float64: a float64 np.add.at, then
        # one cast, signed zeros included; with a row repeated 100 times a
        # float32 np.add.at, which rounds after every add, differs
        t = Tensor(rng.standard_normal((8, 3)).astype(np.float32), requires_grad=True)
        out = ad.gather_rows(t, indices)
        g = rng.standard_normal(out.shape).astype(np.float32)
        g.flat[::4] = -0.0
        out._backward(g)
        want = np.zeros((8, 3))
        np.add.at(want, np.asarray(indices), g.astype(np.float64))
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("indices", [[0, 2, 3, 7], [5], [[1, 4], [5, 6]], []])
    def test_increasing_rows_skip_the_float64_sum(self, rng, monkeypatch, dtype, indices):
        # strictly increasing rows, as the final layer's last-row gather has:
        # 0 plus one gradient per element in the table's dtype, the bytes of
        # the float64 sum rounded once, signed zeros included
        t = Tensor(rng.standard_normal((8, 3)).astype(dtype), requires_grad=True)
        out = ad.gather_rows(t, indices)
        g = rng.standard_normal(out.shape).astype(dtype)
        g.flat[::2] = -0.0
        want = np.zeros((8, 3))
        np.add.at(want, np.asarray(indices, dtype=np.int64), g.astype(np.float64))
        monkeypatch.setattr(np, "bincount", None)           # the repeated-row path
        out._backward(g)
        assert t.grad.dtype == dtype
        assert t.grad.tobytes() == want.astype(dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_pairs_give_the_take_pairs_bytes(self, rng, dtype):
        # x[rows[i], cols[i]] for distinct pairs, as NCE reads its positive
        # logits: a gather over the flat view, against the old take_pairs op
        rows, cols = np.array([0, 3, 1, 2, 4, 3]), np.array([1, 2, 0, 3, 4, 0])
        x = (rng.standard_normal((5, 5)) * 3).astype(dtype)
        x[0, 1], x[3, 2] = 0.0, -0.0
        g = rng.standard_normal(len(rows)).astype(dtype)
        g[1], g[4] = 0.0, -0.0
        got, want = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        out = ad.gather_rows(ad.reshape(got, (25,)), rows * 5 + cols)
        ref = take_pairs_reference(want, rows, cols)
        assert out.data.dtype == ref.data.dtype == dtype
        assert out.data.tobytes() == ref.data.tobytes()
        feed(out, g.copy()).backward()
        feed(ref, g.copy()).backward()
        assert got.grad.dtype == dtype and got.grad.shape == x.shape
        assert got.grad.tobytes() == want.grad.tobytes()


class TestScatterRows:
    """The oracle's scatter (``scatter_rows_reference``), which the byte
    oracles of ``split_heads`` and the encoder's attention start from."""

    def test_places_rows_between_zeros(self, rng):
        x = rng.standard_normal((3, 2))
        out = scatter_rows_reference(Tensor(x), [0, 2, 5], 6)
        want = np.zeros((6, 2))
        want[[0, 2, 5]] = x
        np.testing.assert_array_equal(out.data, want)

    def test_gradient_vs_finite_differences(self, rng):
        x = rng.standard_normal((3, 4))
        v = rng.standard_normal((5, 4))
        rows = [4, 1, 2]
        tx = Tensor(x.copy(), requires_grad=True)
        ad.sum_all(ad.mul(scatter_rows_reference(tx, rows, 5), v)).backward()

        def f(z):
            full = np.zeros((5, 4))
            full[rows] = z
            return (full * v).sum()

        assert_grad_close(tx.grad, finite_difference_grad(f, x.copy()))

    @pytest.mark.parametrize("rows", [[0, 0, 1], [4, 1, 4], [1, 2, 6], [-1, 0, 1], [5, 9, 2]])
    def test_rows_must_be_distinct_and_in_range(self, rows):
        # a repeated row would silently lose one of x's rows
        with pytest.raises(IndexError):
            scatter_rows_reference(Tensor(np.ones((3, 2))), rows, 6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_in_any_order(self, rng, dtype):
        # row i of x lands at rows[i] and its gradient is g[rows[i]], byte for byte
        x = rng.standard_normal((5, 3)).astype(dtype)
        rows = [7, 0, 4, 1, 6]
        tx = Tensor(x, requires_grad=True)
        out = scatter_rows_reference(tx, rows, 8)
        want = np.zeros((8, 3), dtype)
        want[rows] = x
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        g = rng.standard_normal((8, 3)).astype(dtype)
        out._backward(g)
        assert tx.grad.dtype == dtype
        assert tx.grad.tobytes() == np.stack([g[r] for r in rows]).tobytes()

    @pytest.mark.parametrize("rows, bad", [([1, 6, 2], 6), ([-1, 0, 1], -1)])
    def test_out_of_range_row_is_named(self, rows, bad):
        with pytest.raises(IndexError, match=rf"row {bad} out of range \[0, 6\)"):
            scatter_rows_reference(Tensor(np.ones((3, 2))), rows, 6)

    def test_one_index_per_row(self):
        with pytest.raises(ShapeError):
            scatter_rows_reference(Tensor(np.ones((3, 2))), [0, 1], 6)


# [5, 8] rows at 5 of the 12 rows of a [3*4, 8] table, in no order
_SLOTS = np.array([7, 0, 11, 4, 2])


def _head_cases():
    """name -> (input shape, op, its composed oracle from conftest, every
    argument after the input)."""
    return {
        "split": ((5, 8), ad.split_heads, split_heads_reference, (2, 3, 4, _SLOTS)),
        "split_keys": ((5, 8), ad.split_heads, split_heads_reference, (2, 3, 4, _SLOTS, True)),
        # the final layer's queries: one row per window, no table
        "split_whole": ((6, 8), ad.split_heads, split_heads_reference, (2, 6, 1)),
        "split_whole_blocks": ((12, 8), ad.split_heads, split_heads_reference, (4, 3, 4)),
        "merge": ((3, 2, 4, 4), ad.merge_heads, merge_heads_reference, (_SLOTS,)),
        "merge_whole": ((6, 2, 1, 4), ad.merge_heads, merge_heads_reference, ()),
    }


class TestHeads:
    """``split_heads`` and ``merge_heads`` against the scatter, reshape,
    transpose and gather ops they fuse: the same values and strides in the
    output and in every gradient, so every product that reads them runs as
    before."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(_head_cases()))
    def test_values_and_strides_match_the_composed_ops(self, rng, case, dtype):
        shape, op, ref, args = _head_cases()[case]
        x = special_values(rng, shape, dtype)
        got, want = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        out, ref_out = op(got, *args), ref(want, *args)
        assert out.data.dtype == ref_out.data.dtype == dtype
        assert out.shape == ref_out.shape and out.data.strides == ref_out.data.strides
        assert out.data.tobytes() == ref_out.data.tobytes()
        g = special_values(rng, out.shape, dtype)              # signed zeros included
        fed_g = g.copy()
        feed(out, fed_g).backward()
        feed(ref_out, g.copy()).backward()
        assert fed_g.tobytes() == g.tobytes()                  # its gradient stays unwritten
        # a leaf keeps the first gradient it receives as is, strides included
        assert got.grad.dtype == want.grad.dtype == dtype
        assert got.grad.shape == want.grad.shape == shape
        assert got.grad.strides == want.grad.strides
        assert got.grad.tobytes() == want.grad.tobytes()

    @pytest.mark.parametrize("case", sorted(_head_cases()))
    def test_gradient_vs_finite_differences(self, rng, case):
        shape, op, _, args = _head_cases()[case]
        x = rng.standard_normal(shape)
        tx = Tensor(x.copy(), requires_grad=True)
        out = ad.gelu(op(tx, *args))
        v = rng.standard_normal(out.shape)
        ad.sum_all(ad.mul(out, v)).backward()

        def f(z):
            return (ad.gelu(op(Tensor(z), *args)).data * v).sum()

        assert_grad_close(tx.grad, finite_difference_grad(f, x.copy()), rtol=1e-6)

    def test_split_places_rows_between_zeros(self, rng):
        x = rng.standard_normal((5, 8))
        table = np.zeros((12, 8))
        table[_SLOTS] = x
        out = ad.split_heads(Tensor(x), 2, 3, 4, _SLOTS)
        np.testing.assert_array_equal(out.data, table.reshape(3, 4, 2, 4).transpose(0, 2, 1, 3))
        keys = ad.split_heads(Tensor(x), 2, 3, 4, _SLOTS, keys=True)
        np.testing.assert_array_equal(keys.data, table.reshape(3, 4, 2, 4).transpose(0, 2, 3, 1))

    def test_merge_inverts_split(self, rng):
        x = rng.standard_normal((5, 8))
        out = ad.merge_heads(ad.split_heads(Tensor(x), 2, 3, 4, _SLOTS), _SLOTS)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("op", ["split", "merge"])
    @pytest.mark.parametrize("slots", [[0, 0, 1, 2, 3], [4, 1, 4, 2, 3], [1, 2, 12, 3, 4],
                                       [-1, 0, 1, 2, 3]])
    def test_slots_must_be_distinct_and_in_range(self, op, slots):
        # a repeated slot would lose a row in the forward or its gradient
        with pytest.raises(IndexError):
            if op == "split":
                ad.split_heads(Tensor(np.ones((5, 8))), 2, 3, 4, slots)
            else:
                ad.merge_heads(Tensor(np.ones((3, 2, 4, 4))), slots)

    @pytest.mark.parametrize("args", [((5, 8), 3, 3, 4, _SLOTS), ((5, 8), 2, 3, 4, _SLOTS[:4]),
                                      ((6, 8), 2, 4, 1, None)])
    def test_split_shapes_must_agree(self, args):
        # d must split into the heads, and the rows must fill the table or
        # match the slots one to one
        shape, *rest = args
        with pytest.raises(ShapeError):
            ad.split_heads(Tensor(np.ones(shape)), *rest)

    def test_merge_slots_are_one_dimensional(self):
        with pytest.raises(ShapeError):
            ad.merge_heads(Tensor(np.ones((3, 2, 4, 4))), _SLOTS.reshape(5, 1))


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

    @pytest.mark.parametrize("shape, targets", [
        pytest.param((4, 6), [3], id="4-rows-1-target"),       # broadcast over every row
        pytest.param((4, 6), [3, 5], id="4-rows-2-targets"),
        pytest.param((2, 6), [[1, 2]], id="2-d-targets"),
        pytest.param((6,), [3], id="1-d-logits"),
        pytest.param((2, 3, 6), [1, 2], id="3-d-logits"),
    ])
    def test_logits_and_targets_must_pair_up(self, shape, targets):
        with pytest.raises(ShapeError, match=r"\[m, V\] logits and \[m\] targets"):
            ad.cross_entropy_from_logits(Tensor(np.zeros(shape)), targets)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_rows_rejected(self, dtype):
        # the mean over zero rows was nan, with RuntimeWarnings
        with pytest.raises(ShapeError, match="m >= 1"):
            ad.cross_entropy_from_logits(Tensor(np.zeros((0, 5), dtype=dtype)),
                                         np.zeros(0, dtype=np.int64))

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


def _nce_allowed(rng, two_b):
    """A random mask over 2B slots, not symmetric, with every partner allowed."""
    allowed = rng.random((two_b, two_b)) < 0.6
    slots = np.arange(two_b)
    allowed[slots, slots ^ 1] = True
    return allowed


_NCE_ALLOWED = _nce_allowed(np.random.default_rng(0), 6)


def _pairs(a, b):
    """The rows of ``a`` and ``b`` alternated, one pair at a time."""
    return np.array([row for pair in zip(a, b) for row in pair])


class TestNceRows:
    def test_gradient_vs_finite_differences(self, rng):
        av, bv = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        allowed = _nce_allowed(rng, 8)
        a, b = Tensor(av.copy(), requires_grad=True), Tensor(bv.copy(), requires_grad=True)
        ad.mul(ad.nce_rows(a, b, allowed, 0.7), 1.3).backward()

        def f(x, y):
            return 1.3 * ad.nce_rows(Tensor(x), Tensor(y), allowed, 0.7).item()

        assert_grad_close(a.grad, finite_difference_grad(lambda x: f(x, bv), av.copy()),
                          rtol=1e-6)
        assert_grad_close(b.grad, finite_difference_grad(lambda y: f(av, y), bv.copy()),
                          rtol=1e-6)
        assert a.grad.flags.c_contiguous and b.grad.flags.c_contiguous

    def test_value_is_the_mean_pair_loss(self, rng):
        av, bv = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        xv = _pairs(av, bv)
        allowed = _nce_allowed(rng, 6)
        sim = xv @ xv.T / 0.7
        want = sum(np.log(np.exp(sim[i][allowed[i]]).sum()) - sim[i, i ^ 1]
                   for i in range(6)) / 3
        assert abs(ad.nce_rows(Tensor(av), Tensor(bv), allowed, 0.7).item() - want) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_the_composed_graph(self, dtype):
        # the views interleaved by interleave_rows_reference, then
        # nce_regularizer_reference: the same loss and gradient bytes of both
        # views, over random batches with -0.0 rows and, from three targets,
        # same-target collisions
        rng = np.random.default_rng(21)
        for _ in range(150):
            b, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            views = [rng.standard_normal((b, d)).astype(dtype) for _ in range(2)]
            for v in views:
                v[rng.random(b) < 0.25] = -0.0
            mask = make_collision_mask(rng.integers(1, 4, b), rng.integers(1, 4, b))
            tau, g = float(rng.uniform(0.3, 3.0)), float(rng.standard_normal())
            results = []
            for fused in (True, False):
                a, c = (Tensor(v.copy(), requires_grad=True) for v in views)
                loss = (ad.nce_rows(a, c, mask, tau) if fused else
                        nce_regularizer_reference(ContrastiveBatch(a, c, mask, tau)))
                ad.mul(loss, g).backward()
                results.append([loss.data, a.grad, c.grad])
            for x, y in zip(*results):
                assert x.dtype == y.dtype == dtype
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_partner_admitted_whatever_the_mask_holds(self, rng, dtype):
        # the collision mask leaves partners out; the op puts them back
        av, bv = (rng.standard_normal((4, 3)).astype(dtype) for _ in range(2))
        av[1] = -0.0
        with_partner = _nce_allowed(rng, 8)
        without = with_partner.copy()
        slots = np.arange(8)
        without[slots, slots ^ 1] = False
        results = []
        for allowed in (with_partner, without):
            a, b = Tensor(av.copy(), requires_grad=True), Tensor(bv.copy(), requires_grad=True)
            loss = ad.nce_rows(a, b, allowed, 0.7)
            loss.backward()
            results.append((loss.data, a.grad, b.grad))
        for x, y in zip(*results):
            assert x.dtype == y.dtype == dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("shape, mask_shape", [
        (((3, 2), (2, 2)), (6, 6)), (((3, 2), (3, 3)), (6, 6)), (((3, 2), (3, 2)), (6, 5)),
        (((3, 2), (3, 2)), (3, 3)), (((3,), (3,)), (6, 6))])
    def test_shapes_rejected(self, shape, mask_shape):
        # the two views' shapes, then the mask's
        with pytest.raises(ShapeError, match=r"\[2B, 2B\]"):
            ad.nce_rows(Tensor(np.ones(shape[0])), Tensor(np.ones(shape[1])),
                        np.ones(mask_shape, dtype=bool), 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_views_rejected(self, dtype):
        # B = 0 died in a ZeroDivisionError on the mean's 1/B
        views = [Tensor(np.zeros((0, 4), dtype=dtype)) for _ in range(2)]
        with pytest.raises(ShapeError, match="B >= 1"):
            ad.nce_rows(*views, np.zeros((0, 0), dtype=bool), 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.inf, np.nan])
    def test_tau_must_be_finite_and_positive(self, rng, tau):
        # an infinite tau scaled every logit by 0, so the regularizer's
        # gradient was exactly zero and a lambda > 0 run trained the plain model
        a, b = Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((2, 4)))
        with pytest.raises(ConfigError, match="finite and positive"):
            ad.nce_rows(a, b, _nce_allowed(rng, 4), tau)


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


def fed(out: Tensor, g: np.ndarray) -> Tensor:
    """A scalar whose backward hands ``g`` to ``out``, holding ``out``'s graph
    node but neither ``out`` nor its data."""
    node = out._graph()
    return ad._make(np.zeros((), dtype=g.dtype), (out,), lambda _: node._accumulate(g))


_SOFTMAX_MASK = np.where(np.random.default_rng(4).random((3, 4)) < 0.3, ad.NEG_INF, 0.0)

# op -> (input shapes, the op on intermediate tensors of those shapes, the
# inputs whose data its backward reads)
RETENTION_CASES = {
    "add": ([(3, 4), (1, 4)], ad.add, ()),
    "mul": ([(3, 4), (1, 4)], ad.mul, (0, 1)),
    "matmul": ([(2, 3, 4), (4, 5), (5,)], ad.matmul, (0, 1)),      # the bias is not read
    "sum_all": ([(3, 4)], ad.sum_all, ()),
    "reshape": ([(3, 4)], lambda x: ad.reshape(x, (2, 6)), ()),
    "transpose": ([(2, 3, 4)], lambda x: ad.transpose(x, (2, 0, 1)), ()),
    "gelu": ([(3, 4)], ad.gelu, ()),
    "softmax_rows": ([(2, 3, 4)], lambda x: ad.softmax_rows(x, 0.5, _SOFTMAX_MASK), ()),
    "logsumexp_rows": ([(3, 5)], ad.logsumexp_rows, ()),
    "layer_norm": ([(3, 4)], lambda x: ad.layer_norm(
        x, Tensor(np.full(4, 1.5), requires_grad=True), Tensor(np.ones(4), requires_grad=True)),
        ()),
    "dropout": ([(3, 4)], lambda x: ad.dropout(x, 0.3, RngStream(1, "d")), ()),
    "gather_rows": ([(6, 4)], lambda t: ad.gather_rows(t, [5, 0, 5, 2]), ()),
    "split_heads": ([(3, 4)], lambda x: ad.split_heads(x, 2, 2, 3, [5, 0, 2], keys=True), ()),
    "merge_heads": ([(2, 2, 3, 2)], lambda x: ad.merge_heads(x, [5, 0, 2]), ()),
    "cross_entropy_from_logits": (
        [(5, 7)], lambda x: ad.cross_entropy_from_logits(x, [0, 6, 3, 3, 1]), ()),
    "nce_rows": ([(3, 4), (3, 4)], lambda a, b: ad.nce_rows(a, b, _NCE_ALLOWED, 0.5), ()),
}


class TestRetention:
    """The graph holds a node per recorded tensor and the arrays each backward
    reads, never a tensor that owns data: an input a backward does not read
    dies once the caller drops it, and no cycle is needed to free it."""

    @staticmethod
    def run(name, drop):
        """The leaves' gradients through one op on intermediate inputs, each
        input checked for being dropped (``drop``) or held until backward."""
        shapes, op, read = RETENTION_CASES[name]
        rng = np.random.default_rng(7)
        leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        xs = [ad.add(leaf, 0.0) for leaf in leaves]              # each owns its data
        counts = [sys.getrefcount(x) for x in xs]
        out = op(*xs)
        assert [sys.getrefcount(x) for x in xs] == counts       # no link or closure holds one
        refs = [weakref.ref(x.data) for x in xs]
        loss = out if out.shape == () else fed(out, rng.standard_normal(out.shape))
        if drop:
            del xs, out
            assert [r() is not None for r in refs] == [i in read for i in range(len(refs))]
        loss.backward()
        if drop:
            assert all(r() is None for r in refs)
        return [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("name", sorted(RETENTION_CASES))
    def test_inputs_live_only_as_long_as_a_backward_reads_them(self, name):
        # ... and the gradient is that of the same op with every input held
        for held, dropped in zip(self.run(name, drop=False), self.run(name, drop=True)):
            assert held.dtype == dropped.dtype and held.shape == dropped.shape
            assert held.tobytes() == dropped.tobytes()

    def test_no_closure_holds_a_tensor_that_owns_data(self):
        # a recorded duo step: three two-layer passes with dropout, NCE and
        # cross-entropy. Every closure cell and parent link that is a tensor
        # is a data-less node or a leaf.
        params = make_params(vocab_size=12, d=8, layers=2, max_len=6,
                             emb_dropout=0.2, hidden_dropout=0.2)
        batch = make_batch([[1, 2, 3], [4, 5, 6, 7, 8], [9], [2, 3, 4, 5]],
                           positives=[[0, 0, 0, 1, 2, 3], [0, 0, 3, 4, 5, 6],
                                      [0, 0, 0, 0, 7, 9], [0, 0, 1, 2, 4, 5]])
        bundle, *_ = train_step(batch, params, params.config, RngStream(0, "step"))
        ops, seen, stack = set(), set(), [bundle.total]
        while stack:
            t = stack.pop()
            if id(t) in seen or t._backward is None:
                continue
            seen.add(id(t))
            ops.add(t._backward.__qualname__.split(".")[0])
            held = [c.cell_contents for c in t._backward.__closure__ or ()]
            for obj in held + list(t._parents):
                if isinstance(obj, Tensor):
                    assert obj.data is None or obj._backward is None, t._backward.__qualname__
            stack.extend(t._parents)
        # the attention's layout moves are split_heads and merge_heads alone;
        # the one transpose is the logits' item table
        assert ops == {"add", "mul", "matmul", "transpose", "gelu", "softmax_rows",
                       "layer_norm", "dropout", "gather_rows", "split_heads", "merge_heads",
                       "cross_entropy_from_logits", "nce_rows"}


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

    @pytest.mark.parametrize("counter", [0, 3])
    def test_lanes_are_shifts_of_the_raw_words(self, counter):
        s = RngStream(5, "r", counter)
        assert s.lanes(32).tobytes() == philox_lanes("r", counter, 32).tobytes()
        assert s.counter == counter + 2
        # a partial block: lanes past n are not returned, their block is spent
        assert s.lanes(7).tobytes() == philox_lanes("r", counter + 2, 7).tobytes()
        assert s.counter == counter + 3

    @staticmethod
    def lanes_of_runs(seed, label, counter, starts, stops):
        """Each run [start, stop) drawn alone, from a stream at its first block."""
        return np.concatenate([
            RngStream(seed, label, counter + a // 16).lanes(b - a // 16 * 16)[a % 16:]
            for a, b in zip(starts, stops)])

    # lane i of a draw is lane i % 16 of the stream's (i // 16)-th block: any
    # run of a mask can be drawn on its own from the stream at its first block
    @pytest.mark.parametrize("counter", [0, 3])
    @pytest.mark.parametrize("n, runs", [
        (37, ([0], [37])),                  # everything
        (37, ([5], [6])),                   # one lane inside a block
        (37, ([1, 6], [3, 7])),             # two runs in one block
        (37, ([2, 5, 13], [5, 11, 30])),    # adjacent runs, one crossing a block edge
        (37, ([3, 21], [9, 37])),           # unaligned starts, a gap, the partial last block
        # long gaps, from and to unaligned lanes
        (4001, ([1, 700, 1310, 3999], [9, 1303, 1311, 4001])),
        (4001, ([0, 2048], [4, 2052])),     # block-aligned runs
        (6001, ([1, 1700, 2510, 5999], [9, 1703, 2511, 6001])),
        # runs starting at lanes 1, 2, 3, 4 and 0 of their blocks
        (9000, ([1, 2002, 4003, 6004, 8000], [2, 2010, 4100, 6005, 9000])),
    ])
    def test_runs_match_full_draw(self, counter, n, runs):
        full = RngStream(9, "k", counter)
        ref = full.lanes(n)
        got = self.lanes_of_runs(9, "k", counter, *runs)
        want = np.concatenate([ref[a:b] for a, b in zip(*runs)])
        assert got.tobytes() == want.tobytes()
        assert full.counter == counter + -(-n // 16)
        # the next draw starts on the block after the last one spent
        assert RngStream(9, "k", full.counter).lanes(6).tobytes() == full.lanes(6).tobytes()

    def test_runs_match_full_draw_at_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            # sparse lanes over a long range leave long gaps
            n = int(rng.integers(1, 4000))
            kept = np.flatnonzero(rng.random(n) < rng.random() ** 4)
            if kept.size == 0:
                continue
            cut = np.flatnonzero(np.diff(kept) != 1) + 1
            runs = kept[np.r_[0, cut]], kept[np.r_[cut - 1, kept.size - 1]] + 1
            counter = int(rng.integers(0, 9))
            got = self.lanes_of_runs(2, "z", counter, *runs)
            assert got.tobytes() == RngStream(2, "z", counter).lanes(n)[kept].tobytes()

    def test_reused_generator_matches_a_fresh_one_per_draw(self):
        # the reference builds a new Philox at the stream's counter for every draw
        streams = {"r": RngStream(5, "r")}
        counters = {"r": 0, "r.c": 0}
        for label, kind, n in [
                ("r", "uniform", 7), ("r", "normal", 5), ("r", "lanes", 4001),
                ("r", "child", 0), ("r.c", "uniform", 3), ("r", "uniform", 1),
                ("r.c", "normal", 9), ("r", "lanes", 17), ("r.c", "lanes", 4001),
                ("r", "normal", 1), ("r.c", "uniform", 6), ("r", "lanes", 3),
                ("r", "uniform", 2)]:
            if kind == "child":
                streams["r.c"] = streams["r"].child("c")
                continue
            s, gen = streams[label], np.random.Generator(fresh_philox(label, counters[label]))
            if kind == "uniform":
                got, want = s.uniform(n), gen.random(n)
            elif kind == "lanes":
                got, want = s.lanes(n), philox_lanes(label, counters[label], n)
            else:
                got, want = s.normal(n), gen.standard_normal(n)
            counters[label] += {"uniform": -(-n // 4), "normal": n + 4, "lanes": -(-n // 16)}[kind]
            assert got.tobytes() == want.tobytes()
            assert {k: v.counter for k, v in streams.items()} == {
                k: counters[k] for k in streams}


# -- rewritten ops against the plain expressions they replaced -----------


def special_values(rng, shape, dtype):
    """Normal draws (times 3) in ``dtype``: the first entries are +0.0, -0.0,
    subnormals, the smallest normal and +-50, and the last row is all zero."""
    x = rng.standard_normal(shape) * 3.0
    fi = np.finfo(dtype)
    specials = [0.0, -0.0, fi.smallest_subnormal, -fi.smallest_subnormal,
                7 * fi.smallest_subnormal, fi.tiny, 50.0, -50.0]
    flat = x.reshape(-1)
    n = min(len(specials), flat.size)
    flat[:n] = specials[:n]
    if x.ndim > 1:
        x.reshape(-1, shape[-1])[-1] = 0.0
    return x.astype(dtype)


def _rewrite_cases(rng, dtype):
    """name -> (inputs, rewritten op, plain-expression oracle from conftest)."""
    def s(*shape):
        return special_values(rng, shape, dtype)
    scale = 1.0 / np.sqrt(3.0)
    # float64 masks: both sides cast them to the input's dtype
    mask = np.triu(np.full((5, 5), -1e30), k=1) + np.where(
        rng.random((2, 1, 1, 5)) < 0.3, -1e30, 0.0)           # [2, 1, 5, 5]
    last = mask[:, :, 4:]                                      # a strided [2, 1, 1, 5] view
    targets = [0, 8, 3, 3, 5, 1]
    return {
        "gelu": ([s(6, 16)], ad.gelu, gelu_reference),
        # 2*_GELU_BLOCK + 7 rows: two full blocks and a short one, read
        # through a transposed view
        "gelu_blocks": ([s(3, 2 * ad._GELU_BLOCK + 7).T], ad.gelu, gelu_reference),
        "layer_norm": ([s(6, 8), s(8), s(8)], ad.layer_norm, layer_norm_reference),
        "layer_norm_full_gain": ([s(6, 8), s(6, 8), s(1, 8)], ad.layer_norm,
                                 layer_norm_reference),
        "softmax_rows": ([s(4, 7)], ad.softmax_rows, softmax_rows_reference),
        "softmax_rows_scaled": ([s(4, 7)], lambda x: ad.softmax_rows(x, scale),
                                lambda x: softmax_rows_reference(ad.mul(x, scale))),
        "softmax_rows_masked": ([s(2, 3, 5, 5)], lambda x: ad.softmax_rows(x, mask=mask),
                                lambda x: softmax_rows_reference(ad.add(x, mask))),
        "softmax_rows_scaled_masked": (
            [s(2, 3, 5, 5)], lambda x: ad.softmax_rows(x, scale, mask),
            lambda x: scaled_masked_softmax_reference(x, scale, mask)),
        "softmax_rows_last_row": (
            [s(2, 3, 1, 5)], lambda x: ad.softmax_rows(x, scale, last),
            lambda x: scaled_masked_softmax_reference(x, scale, last)),
        "matmul_bias": ([s(6, 4), s(4, 5), s(5)], ad.matmul, matmul_bias_reference),
        "matmul_bias_column": ([s(2, 3, 4), s(2, 4, 5), s(3, 1)], ad.matmul,
                               matmul_bias_reference),
        "matmul_bias_batched": ([s(2, 3, 4), s(4, 5), s(2, 1, 5)], ad.matmul,
                                matmul_bias_reference),
        "logsumexp_rows": ([s(2, 4, 7)], ad.logsumexp_rows, logsumexp_rows_reference),
        "cross_entropy": ([s(6, 9)], lambda x: ad.cross_entropy_from_logits(x, targets),
                          lambda x: cross_entropy_reference(x, targets)),
    }


REWRITE_CASES = sorted(_rewrite_cases(np.random.default_rng(0), np.float64))


def feed(out: Tensor, g: np.ndarray) -> Tensor:
    """A scalar whose backward hands the array ``g`` itself to ``out`` as its gradient."""
    def backward(_):
        out._accumulate(g)

    return ad._make(np.asarray(0.0, dtype=out.data.dtype), (out,), backward)


class TestRewrittenOps:
    """Each op that reuses its temporaries, or fuses ops, against the plain
    expressions in conftest: same operations in the same order, same bytes."""

    @staticmethod
    def run(case, dtype, which):
        """The eval-mode output, the recorded output and every input's
        gradient; checks that backward writes into no input, no output and
        not the gradient it receives."""
        inputs, *ops = _rewrite_cases(np.random.default_rng(3), dtype)[case]
        op = ops[which]
        with ad.no_grad():
            eval_out = op(*[Tensor(x) for x in inputs])
        assert not eval_out.requires_grad
        leaves = [Tensor(x, requires_grad=True) for x in inputs]
        out = op(*leaves)
        g = np.random.default_rng(4).standard_normal(out.shape).astype(dtype)
        before = [g.copy(), out.data.copy()] + [x.copy() for x in inputs]
        feed(out, g).backward()
        after = [g, out.data] + [leaf.data for leaf in leaves]
        for b, a in zip(before, after):
            assert a.tobytes() == b.tobytes(), case
        return [eval_out.data, out.data] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", REWRITE_CASES)
    def test_outputs_and_gradients_are_byte_equal(self, case, dtype):
        new, ref = self.run(case, dtype, 0), self.run(case, dtype, 1)
        assert new[0].tobytes() == new[1].tobytes()             # no_grad changes nothing
        for a, b in zip(new, ref):
            assert a.dtype == b.dtype == dtype
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_gelu_keeps_the_recorded_bytes(self, rng, dtype):
        # its output is made block by block in one array: every value, NaN
        # signs included, and a strided view that spans blocks, as recorded
        fi = np.finfo(dtype)
        x = (rng.standard_normal((2 * ad._GELU_BLOCK + 7, 3)) * 4).astype(dtype)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, fi.max, -fi.max,
                    fi.smallest_subnormal, -fi.smallest_subnormal, 30.0, -30.0]
        x.reshape(-1)[:len(specials)] = np.array(specials, dtype=dtype)
        with np.errstate(all="ignore"):
            for view in (x, x.T):
                with ad.no_grad():
                    got = ad.gelu(Tensor(view)).data
                want = ad.gelu(Tensor(view, requires_grad=True)).data
                assert got.dtype == dtype and got.shape == view.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_interleave_rows_gradient_vs_finite_differences(self, rng):
        # the interleave that nce_rows' byte oracle starts with: row 2i from
        # a, 2i+1 from b, each view handed its own rows back
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        w = rng.standard_normal((8, 3))
        ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
        out = interleave_rows_reference(ta, tb)
        assert np.array_equal(out.data[0::2], a) and np.array_equal(out.data[1::2], b)
        ad.sum_all(ad.mul(ad.gelu(out), w)).backward()

        def f(av, bv):
            return (ad.gelu(interleave_rows_reference(Tensor(av), Tensor(bv))).data * w).sum()

        assert_grad_close(ta.grad, finite_difference_grad(lambda x: f(x, b), a.copy()))
        assert_grad_close(tb.grad, finite_difference_grad(lambda x: f(a, x), b.copy()))
        assert ta.grad.flags.c_contiguous and tb.grad.flags.c_contiguous

    def test_interleave_rows_shapes_must_agree(self):
        # nce_rows interleaves its two views itself, so it refuses unequal ones
        with pytest.raises(ShapeError):
            ad.nce_rows(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))),
                        np.ones((6, 6), dtype=bool), 1.0)

    @pytest.mark.parametrize("bias_shape", [(4,), (3, 5), (1, 1, 5)])
    def test_bias_that_widens_the_product_is_rejected(self, bias_shape):
        with pytest.raises(ShapeError, match="bias"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))),
                      Tensor(np.ones(bias_shape)))

    @pytest.mark.parametrize("mask_shape", [(4,), (2, 1, 3, 4)])
    def test_mask_that_widens_the_scores_is_rejected(self, mask_shape):
        with pytest.raises(ShapeError, match="mask"):
            ad.softmax_rows(Tensor(np.ones((3, 5))), 0.5, np.zeros(mask_shape))


# -- the dtype rule -------------------------------------------------------


def _op_cases(rng):
    """(name, inputs, op) for every op; op maps input tensors to its output."""
    def r(*shape):
        return rng.standard_normal(shape)
    idx, rows = np.array([2, 0, 2, 1]), np.array([0, 2, 3])
    return [
        ("add", [r(3, 4), r(4)], lambda a, b: ad.add(a, b)),
        ("add_scalar", [r(3, 4)], lambda a: ad.add(a, 0.1)),
        ("add_array", [r(3, 4)], lambda a: ad.add(a, np.linspace(-1, 1, 4))),
        ("mul", [r(3, 4), r(3, 4)], lambda a, b: ad.mul(a, b)),
        ("mul_scalar", [r(3, 4)], lambda a: ad.mul(a, 1.0 / np.sqrt(3.0))),
        ("matmul", [r(2, 3, 4), r(2, 4, 5)], lambda a, b: ad.matmul(a, b)),
        ("matmul_bias", [r(2, 3, 4), r(2, 4, 5), r(5)], lambda a, b, c: ad.matmul(a, b, c)),
        ("reshape", [r(3, 4)], lambda a: ad.reshape(a, (2, 6))),
        ("transpose", [r(2, 3, 4)], lambda a: ad.transpose(a, (2, 0, 1))),
        ("gelu", [r(3, 4)], lambda a: ad.gelu(a)),
        ("sum_all", [r(3, 4)], lambda a: ad.sum_all(a)),
        ("sum_all_scaled", [r(3, 4)], lambda a: ad.mul(ad.sum_all(a), 1.0 / a.data.size)),
        ("softmax_rows", [r(3, 4)], lambda a: ad.softmax_rows(a)),
        ("softmax_rows_scaled_masked", [r(2, 3, 4)],
         lambda a: ad.softmax_rows(a, 0.5, np.triu(np.full((3, 4), -1e30), k=1))),
        ("logsumexp_rows", [r(3, 4)], lambda a: ad.logsumexp_rows(a)),
        ("layer_norm", [r(3, 4), r(4), r(4)], lambda a, g, b: ad.layer_norm(a, g, b)),
        ("dropout", [r(3, 4)], lambda a: ad.dropout(a, 0.3, RngStream(0, "d"))),
        ("dropout_3d", [r(2, 3, 4)], lambda a: ad.dropout(a, 0.3, RngStream(0, "d"))),
        ("gather_rows", [r(3, 4)], lambda a: ad.gather_rows(a, idx)),
        ("split_heads", [r(3, 4)], lambda a: ad.split_heads(a, 2, 1, 5, rows)),
        ("merge_heads", [r(2, 2, 3, 2)], lambda a: ad.merge_heads(a, rows)),
        # NCE's positive logits: distinct elements of the flat view
        ("gather_pairs", [r(3, 4)],
         lambda a: ad.gather_rows(ad.reshape(a, (12,)), [3, 9, 5])),
        ("cross_entropy", [r(3, 4)], lambda a: ad.cross_entropy_from_logits(a, [1, 0, 3])),
        ("nce_rows", [r(3, 4), r(3, 4)], lambda a, b: ad.nce_rows(a, b, _NCE_ALLOWED, 0.7)),
    ]


class TestDtypeRule:
    def test_tensor_keeps_float32_and_widens_the_rest(self):
        a = np.ones(3, dtype=np.float32)
        assert Tensor(a).data is a
        for data in (np.ones(3, dtype=np.float16), [1, 2], 0.5, np.arange(3)):
            assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize("case", range(len(_op_cases(np.random.default_rng(0)))))
    def test_op_keeps_the_dtype_of_its_inputs(self, case):
        outs = {}
        for dtype in (np.float32, np.float64):
            name, inputs, op = _op_cases(np.random.default_rng(case))[case]
            leaves = [Tensor(x.astype(dtype), requires_grad=True) for x in inputs]
            out = op(*leaves)
            assert out.data.dtype == dtype, name
            weights = np.random.default_rng(1).standard_normal(out.shape).astype(dtype)
            loss = ad.sum_all(ad.mul(out, weights))
            assert loss.data.dtype == dtype, name
            loss.backward()
            for leaf in leaves:
                assert leaf.grad.dtype == dtype, name
            outs[dtype] = out.data, [leaf.grad for leaf in leaves]
        # the float32 op computes the float64 op's values, rounded
        (o32, g32), (o64, g64) = outs[np.float32], outs[np.float64]
        np.testing.assert_allclose(o32, o64, rtol=1e-5, atol=1e-6)
        for a, b in zip(g32, g64):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("shape", [(12, 7), (2, 3, 14)])
    def test_float32_dropout_keeps_the_float64_pattern(self, rng, shape):
        x = rng.standard_normal(shape)
        out = {}
        for dtype in (np.float32, np.float64):
            stream = RngStream(8, "k", 2)
            out[dtype] = ad.dropout(Tensor(x.astype(dtype)), 0.25, stream).data
            out[dtype, "counter"] = stream.counter
        kept32, kept64 = out[np.float32] != 0, out[np.float64] != 0
        np.testing.assert_array_equal(kept32, kept64)
        assert out[np.float32, "counter"] == out[np.float64, "counter"] == 2 + -(-x.size // 16)
        scale = np.float32(1.0 / 0.75)
        assert out[np.float32][kept32].tobytes() == (
            x.astype(np.float32)[kept32] * scale).tobytes()
