import numpy as np
import pytest

from duorec import metrics
from duorec.autodiff import ShapeError
from duorec.data import PAD_INDEX, EmptyDatasetError, ItemVocab
from duorec.encoder import encode_sequence
from duorec.metrics import (alignment, gradient_degeneration_probe, hr_at_k,
                            jacobi_eigh, ndcg_at_k, project_2d,
                            rank_full_catalog, report, singular_spectrum,
                            spectrum_tail_mass, uniformity)
from duorec.rng import RngStream
from duorec.trainer import evaluate

from conftest import softmax_np_reference
from test_encoder import make_batch, make_params


def cyclic_jacobi_eigh(a, tol=1e-12, max_sweeps=100):
    """The former solver: cyclic Jacobi, one (p, q) rotation at a time,
    with an absolute tolerance. The oracle for the round-robin solver."""
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max() if n > 1 else 0.0
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return np.diag(a).copy(), v


def reference_uniformity(reps):
    """The former uniformity: every pair's difference as one [U, U, d] array."""
    xn = reps / np.linalg.norm(reps, axis=-1, keepdims=True)
    sq = ((xn[:, None, :] - xn[None, :, :]) ** 2).sum(axis=-1)
    iu = np.triu_indices(len(xn), k=1)
    return float(np.log(np.exp(-2.0 * sq[iu]).mean()))


def _gram(rng, rows, d):
    """An anisotropic Gram matrix, like the item embeddings' x^T x."""
    x = rng.standard_normal((rows, d)) * np.linspace(0.1, 3.0, d)
    return x.T @ x


def _vocab(n_items, freq=None):
    frequency = np.asarray(freq) if freq is not None else np.ones(n_items + 1, dtype=np.int64)
    return ItemVocab(["<pad>"] + [str(i) for i in range(1, n_items + 1)], frequency)


class TestRanking:
    def test_unique_maximum_rank_one(self, rng):
        emb = rng.standard_normal((10, 4))
        h = emb[7][None, :] * 10
        assert rank_full_catalog(h, emb, [7])[0] == 1

    def test_tie_break_by_item_index(self):
        emb = np.ones((11, 3))
        h = np.ones((2, 3))
        # all scores equal: rank is position among indices 1..10
        assert rank_full_catalog(h, emb, [1, 10]).tolist() == [1, 10]

    def test_pad_row_excluded(self):
        emb = np.zeros((5, 2))
        emb[PAD_INDEX] = 100.0
        h = np.ones((1, 2))
        assert rank_full_catalog(h, emb, [1])[0] == 1

    def test_matches_sort_oracle(self, rng):
        for _ in range(100):
            emb = rng.standard_normal((21, 6))
            h = rng.standard_normal((5, 6))
            targets = rng.integers(1, 21, size=5)
            ranks = rank_full_catalog(h.copy(), emb, targets)
            for u in range(5):
                scores = emb @ h[u]
                order = sorted(range(1, 21), key=lambda i: (-scores[i], i))
                assert ranks[u] == order.index(targets[u]) + 1

    def test_non_finite_target_ranks_last(self, rng):
        emb = rng.standard_normal((12, 4))
        h = rng.standard_normal((4, 4))
        h[0] = np.nan
        h[1, 0] = np.inf
        emb[5] = np.nan                                        # user 2's target scores NaN
        ranks = rank_full_catalog(h, emb, [3, 4, 5, 6])
        assert ranks[:3].tolist() == [11, 11, 11]
        assert 1 <= ranks[3] <= 11

    def test_non_finite_item_ranks_above_finite_target(self, rng):
        emb = rng.standard_normal((10, 4))
        h = emb[7][None, :] * 10                               # item 7 is the unique best
        assert rank_full_catalog(h.copy(), emb, [7])[0] == 1
        emb[2] = np.nan
        assert rank_full_catalog(h.copy(), emb, [7])[0] == 2
        emb[4] = np.where(h[0] > 0, -np.inf, np.inf)          # scores -inf
        assert rank_full_catalog(h.copy(), emb, [7])[0] == 3

    @pytest.mark.parametrize("bad", [-1, PAD_INDEX, 10])
    def test_target_outside_the_catalog_rejected(self, rng, bad):
        # -1 used to rank as item |V|-1 and the pad target ranked last
        emb = rng.standard_normal((10, 4))
        h = rng.standard_normal((3, 4))
        with pytest.raises(IndexError, match=f"target {bad} out of range"):
            rank_full_catalog(h, emb, [2, bad, 5])

    @pytest.mark.parametrize("rows, targets", [
        pytest.param((4, 6), [3], id="4-rows-1-target"),          # ranked as [2 2 2 4]
        pytest.param((4, 6), [3, 5], id="4-rows-2-targets"),      # a broadcast error
        pytest.param((1, 6), [3, 5, 7], id="1-row-3-targets"),    # an IndexError
        pytest.param((6,), [3], id="1-d-rows"),
    ])
    def test_rows_and_targets_must_pair_up(self, rng, rows, targets):
        emb = rng.standard_normal((10, 6))
        with pytest.raises(ShapeError, match="B targets"):
            rank_full_catalog(rng.standard_normal(rows), emb, targets)

    def test_nan_model_scores_zero(self):
        params = make_params(vocab_size=12, d=8, max_len=6)
        params["layer0.wo"].data[:] = np.nan
        ids = np.array([[0, 0, 0, 1, 2, 3], [0, 0, 0, 0, 5, 6], [0, 0, 0, 0, 0, 8]])
        rep = evaluate(params, ids, np.array([4, 7, 9]), ks=(5, 10))
        assert rep.hr == {5: 0.0, 10: 0.0}
        assert rep.ndcg == {5: 0.0, 10: 0.0}


class TestHrNdcg:
    def test_perfect_ranking(self):
        assert hr_at_k([1, 1, 1], 5) == 1.0
        assert ndcg_at_k([1, 1, 1], 5) == 1.0

    def test_rank3_closed_form(self):
        assert hr_at_k([3], 5) == 1.0
        assert abs(ndcg_at_k([3], 5) - 0.5) < 1e-15

    def test_mixed_ranks(self):
        ranks = [1, 6, 2]
        assert abs(hr_at_k(ranks, 5) - 2 / 3) < 1e-15
        expected = (1.0 + 0.0 + 1.0 / np.log2(3)) / 3
        assert abs(ndcg_at_k(ranks, 5) - expected) < 1e-15

    @pytest.mark.parametrize("score", [hr_at_k, ndcg_at_k])
    def test_no_ranks_raise(self, score):
        # an empty rank list scored nan, with a RuntimeWarning
        with pytest.raises(EmptyDatasetError):
            score([], 5)

    def test_report_invariants(self, rng):
        ranks = rng.integers(1, 30, size=50)
        rep = report(ranks, ks=(5, 10))
        for k in (5, 10):
            assert 0 <= rep.ndcg[k] <= rep.hr[k] <= 1
        assert rep.hr[5] <= rep.hr[10]
        assert rep.ndcg[5] <= rep.ndcg[10]


class TestAlignmentUniformity:
    def test_identical_pairs_zero(self, rng):
        x = rng.standard_normal((10, 4))
        assert alignment(x, x.copy()) == 0.0

    def test_antipodal_pair_four(self):
        x = np.array([[3.0, 0.0]])
        assert abs(alignment(x, -x) - 4.0) < 1e-15

    def test_alignment_matches_loop_oracle(self, rng):
        x = rng.standard_normal((20, 6))
        y = rng.standard_normal((20, 6))
        acc = 0.0
        for a, b in zip(x, y):
            acc += float(np.sum((a / np.linalg.norm(a) - b / np.linalg.norm(b)) ** 2))
        assert abs(alignment(x, y) - acc / 20) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            alignment(np.zeros((1, 3)), np.ones((1, 3)))

    @pytest.mark.parametrize("d", [1, 4])
    def test_no_pairs_rejected(self, d):
        # the mean over zero pairs was nan, with RuntimeWarnings
        with pytest.raises(EmptyDatasetError, match="at least one pair"):
            alignment(np.zeros((0, d)), np.zeros((0, d)))

    @pytest.mark.parametrize("shape_y", [(1, 3), (4, 3), (5, 2)])
    def test_unpaired_shapes_rejected(self, rng, shape_y):
        # [5, d] against [1, d] used to broadcast into a number
        with pytest.raises(ValueError, match="equal shapes"):
            alignment(rng.standard_normal((5, 3)), rng.standard_normal(shape_y))

    def test_identical_vectors_worst_uniformity(self):
        assert uniformity(np.ones((5, 3))) == 0.0

    def test_antipodal_closed_form(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert abs(uniformity(x) - (-8.0)) < 1e-12

    def test_uniformity_matches_loop_oracle(self, rng):
        x = rng.standard_normal((20, 5))
        xn = x / np.linalg.norm(x, axis=1, keepdims=True)
        vals = []
        for i in range(20):
            for j in range(i + 1, 20):
                vals.append(np.exp(-2 * np.sum((xn[i] - xn[j]) ** 2)))
        assert abs(uniformity(x) - np.log(np.mean(vals))) < 1e-12

    def test_single_vector_rejected(self):
        with pytest.raises(ValueError):
            uniformity(np.ones((1, 3)))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_rows_must_be_a_matrix(self, shape):
        # a 1-D array died in "invalid index to scalar variable"
        with pytest.raises(ShapeError, match=r"\[U, d\]"):
            uniformity(np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))

    def test_uniformity_rotation_invariant(self, rng):
        x = rng.standard_normal((15, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert abs(uniformity(x) - uniformity(x @ q)) < 1e-10

    def test_matches_reference_form(self, rng):
        for _ in range(25):
            u, d = int(rng.integers(2, 301)), int(rng.integers(1, 65))
            x = rng.standard_normal((u, d)) * rng.uniform(0.01, 100.0)
            x[rng.integers(0, u)] = x[0]                       # a duplicate row
            assert abs(uniformity(x) - reference_uniformity(x)) < 1e-12

    def test_blocks_match_one_block(self, rng, monkeypatch):
        x = rng.standard_normal((50, 6))
        x[7] = -x[3]                                           # an antipodal pair
        whole = uniformity(x)
        for block in (1, 7, 49, 50):
            monkeypatch.setattr(metrics, "_UNIFORMITY_BLOCK", block)
            assert abs(uniformity(x) - whole) < 1e-12
            assert abs(uniformity(x) - reference_uniformity(x)) < 1e-12

    def test_float32_input_is_measured_in_float64(self, rng):
        # training hands float32 representations to the per-epoch curves
        x, y = rng.standard_normal((2, 12, 5))
        x32, y32 = x.astype(np.float32), y.astype(np.float32)
        x64, y64 = x32.astype(np.float64), y32.astype(np.float64)
        assert uniformity(x32) == uniformity(x64)
        assert alignment(x32, y32) == alignment(x64, y64)


class TestJacobi:
    SIZES = (1, 2, 3, 5, 16, 17, 64)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_empty_matrix_rejected(self, dtype):
        # a 0x0 matrix died in "zero-size array to reduction operation maximum"
        with pytest.raises(ShapeError, match="n >= 1"):
            jacobi_eigh(np.zeros((0, 0), dtype=dtype))

    @staticmethod
    def assert_eigvals_close(got, want, scale):
        assert np.abs(np.sort(got) - np.sort(want)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_cyclic_and_numpy(self, rng, n):
        m = rng.standard_normal((n, n))
        for a in (_gram(rng, 3 * n + 5, n), m + m.T):
            w, _ = jacobi_eigh(a)
            want = np.linalg.eigh(a)[0]
            self.assert_eigvals_close(w, want, np.abs(want).max())
            self.assert_eigvals_close(w, cyclic_jacobi_eigh(a)[0], np.abs(want).max())

    @pytest.mark.parametrize("n", SIZES)
    def test_reconstruction_and_orthogonality(self, rng, n):
        a = _gram(rng, 3 * n + 5, n)
        w, v = jacobi_eigh(a)
        # off-diagonal entries up to 1e-12 * max|a| are left in place
        assert np.abs(v @ np.diag(w) @ v.T - a).max() <= 1e-11 * np.abs(a).max()
        np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)

    def test_round_robin_meets_every_pair_once_per_sweep(self):
        for n in range(1, 12):
            rounds = metrics._round_robin(n)
            assert len(rounds) == (n - 1 if n % 2 == 0 else n)
            met = []
            for p, q, pq, qp in rounds:
                assert np.all(p < q) and len(set(pq.tolist())) == len(pq)
                np.testing.assert_array_equal(pq, np.concatenate([p, q]))
                np.testing.assert_array_equal(qp, np.concatenate([q, p]))
                met += list(zip(p.tolist(), q.tolist()))
            assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    def test_diagonal_input_is_not_rotated(self):
        a = np.diag([4.0, -1.0, 0.0, 2.5, 1e-3])
        w, v = jacobi_eigh(a)
        np.testing.assert_array_equal(w, np.diag(a))
        np.testing.assert_array_equal(v, np.eye(5))

    def test_repeated_eigenvalues(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        want = np.array([3.0, 3.0, 3.0, 1.0, 1.0, 0.5, -2.0])
        a = q @ np.diag(want) @ q.T
        w, v = jacobi_eigh(a)
        self.assert_eigvals_close(w, want, 3.0)
        np.testing.assert_allclose(v.T @ v, np.eye(7), rtol=0, atol=1e-12)
        assert np.abs(v @ np.diag(w) @ v.T - a).max() <= 1e-11 * np.abs(a).max()

    def test_rank_deficient_gram(self, rng):
        x = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8))
        a = x.T @ x                                            # rank 3 of 8
        w, v = jacobi_eigh(a)
        scale = np.abs(a).max()
        self.assert_eigvals_close(w, np.linalg.eigvalsh(a), scale)
        assert np.sum(np.abs(w) > 1e-10 * scale) == 3
        assert np.abs(v @ np.diag(w) @ v.T - a).max() <= 1e-11 * scale

    @pytest.mark.parametrize("c", [1e-6, 4e3])
    def test_scale_invariance(self, rng, c):
        a = _gram(rng, 40, 16)
        w, _ = jacobi_eigh(a)
        wc, _ = jacobi_eigh(c * a)
        self.assert_eigvals_close(wc, c * w, c * np.abs(w).max())

    def test_all_zero_matrix_stops_at_once(self):
        w, v = jacobi_eigh(np.zeros((4, 4)), max_sweeps=0)
        np.testing.assert_array_equal(w, 0.0)
        np.testing.assert_array_equal(v, np.eye(4))

    def test_rounding_asymmetry_does_not_stall(self):
        # the rotations leave the triangles a few ulps apart; an upper entry
        # just under the threshold is never rotated, so its lower twin just
        # over it must not keep the solve going
        a = np.diag([3.0, 2.0, 1.0])
        a[0, 1] = 3e-12 * (1 - 1e-6)
        a[1, 0] = 3e-12 * (1 + 1e-6)
        w, v = jacobi_eigh(a, max_sweeps=0)
        np.testing.assert_array_equal(w, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(v, np.eye(3))

    def test_checkpoint_like_spectra_converge(self):
        # near-isotropic spectra with one dominant direction, as trained item
        # embeddings give; the stall above showed on one such checkpoint
        rng = np.random.default_rng(3)
        for d in (16, 64):
            for _ in range(10):
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                want = np.append(rng.uniform(0.7, 1.9, d - 1), 17.0)
                a = (q * want) @ q.T
                a = (a + a.T) / 2
                w, _ = jacobi_eigh(a, max_sweeps=12)
                self.assert_eigvals_close(w, want, 17.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, bad):
        a = _gram(rng, 20, 6)
        a[2, 4] = a[4, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(a)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_non_square_input_rejected(self, shape):
        # a [3, 4] array ran every sweep, then said it did not converge
        with pytest.raises(ShapeError, match=r"square \[n, n\]"):
            jacobi_eigh(np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))

    def test_no_convergence_raises(self, rng):
        a = _gram(rng, 40, 16)
        with pytest.raises(np.linalg.LinAlgError):
            jacobi_eigh(a, max_sweeps=1)
        jacobi_eigh(a, max_sweeps=20)


class TestSingularSpectrum:
    def test_jacobi_matches_numpy(self, rng):
        for n in (2, 5, 16):
            m = rng.standard_normal((n, n))
            sym = m + m.T
            eigvals, eigvecs = jacobi_eigh(sym)
            np.testing.assert_allclose(np.sort(eigvals), np.sort(np.linalg.eigvalsh(sym)),
                                       atol=1e-10)
            np.testing.assert_allclose(eigvecs @ np.diag(eigvals) @ eigvecs.T, sym,
                                       atol=1e-10)

    @pytest.mark.parametrize("center", [True, False])
    def test_pad_row_alone_rejected(self, center):
        # a table of the pad row alone died in an IndexError on sv[0]
        with pytest.raises(EmptyDatasetError, match="besides the pad row"):
            singular_spectrum(np.zeros((PAD_INDEX + 1, 4)), center=center)

    def test_isotropic_rows_all_ones(self):
        emb = np.zeros((9, 4))
        emb[1:5, :] = np.eye(4) * 3.0
        emb[5:9, :] = -np.eye(4) * 3.0
        sv = singular_spectrum(emb, center=True)
        np.testing.assert_allclose(sv, 1.0, atol=1e-10)

    def test_rank_one_spectrum(self, rng):
        direction = rng.standard_normal(6)
        emb = np.zeros((31, 6))
        emb[1:] = np.outer(np.arange(30) - 14.5, direction)
        sv = singular_spectrum(emb)
        # the null Gram eigenvalues are rounding noise, ~1e-16 of the largest:
        # jacobi_eigh stops at off-diagonals of 1e-12 * max|a| (relative),
        # which enter them only at second order; the square root makes that
        # ~1e-8 on normalized singular values
        np.testing.assert_allclose(sv[1:], 0.0, atol=1e-7)
        assert sv[0] == 1.0

    def test_matches_reference_svd(self, rng):
        emb = np.vstack([np.zeros(8), rng.standard_normal((50, 8))])
        sv = singular_spectrum(emb, center=True)
        x = emb[1:] - emb[1:].mean(axis=0)
        ref = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(sv, ref / ref[0], atol=1e-8)

    def test_invariances(self, rng):
        emb = np.vstack([np.zeros(5), rng.standard_normal((40, 5))])
        base = singular_spectrum(emb)
        perm = np.concatenate([[0], 1 + np.random.default_rng(1).permutation(40)])
        np.testing.assert_allclose(singular_spectrum(emb[perm]), base, atol=1e-10)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = np.vstack([np.zeros(5), emb[1:] @ q])
        np.testing.assert_allclose(singular_spectrum(rotated), base, atol=1e-10)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            singular_spectrum(np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_diverged_embedding_rejected(self, rng, bad):
        emb = np.vstack([np.zeros(6), rng.standard_normal((20, 6))])
        emb[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            singular_spectrum(emb)
        with pytest.raises(ValueError, match="finite"):
            project_2d(emb, _vocab(20))


class TestProject2d:
    @pytest.mark.parametrize("center", [True, False])
    def test_pad_row_alone_rejected(self, center):
        # a table of the pad row alone warned "Mean of empty slice" and gave
        # an empty [0, 3] array
        with pytest.raises(EmptyDatasetError, match="besides the pad row"):
            project_2d(np.zeros((PAD_INDEX + 1, 4)), _vocab(0), center=center)

    def test_rank_one_y_is_zero(self, rng):
        emb = np.zeros((21, 4))
        emb[1:] = np.outer(np.arange(20) - 9.5, rng.standard_normal(4))
        proj = project_2d(emb, _vocab(20))
        np.testing.assert_allclose(proj[:, 1], 0.0, atol=1e-8)

    def test_row_count_excludes_pad(self, rng):
        emb = np.vstack([np.zeros(4), rng.standard_normal((12, 4))])
        proj = project_2d(emb, _vocab(12))
        assert proj.shape == (12, 3)

    def test_rotation_preserves_pairwise_distances(self, rng):
        emb = np.vstack([np.zeros(6), rng.standard_normal((30, 6))])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = np.vstack([np.zeros(6), emb[1:] @ q])
        a = project_2d(emb, _vocab(30))[:, :2]
        b = project_2d(rotated, _vocab(30))[:, :2]

        def dists(p):
            return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)

        np.testing.assert_allclose(dists(a), dists(b), atol=1e-8)

    def test_signs_do_not_depend_on_the_solver(self, rng, monkeypatch):
        emb = np.vstack([np.zeros(6), rng.standard_normal((30, 6))])
        base = project_2d(emb, _vocab(30))
        solve = metrics.jacobi_eigh
        for flip in ([-1.0] * 6, [1.0, -1.0] * 3, [-1.0, 1.0] * 3):
            monkeypatch.setattr(metrics, "jacobi_eigh",
                                lambda a: (solve(a)[0], solve(a)[1] * flip))
            assert project_2d(emb, _vocab(30)).tobytes() == base.tobytes()

    def test_largest_component_positive_lowest_index_on_tie(self, rng, monkeypatch):
        h = 1.0 / np.sqrt(2.0)
        basis = np.array([[h, 0.6], [-h, -0.8], [0.0, 0.0]])  # column 0 ties
        emb = np.vstack([np.zeros(3), rng.standard_normal((10, 3))])
        x = emb[1:] - emb[1:].mean(axis=0)
        for signs in ([1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
            v = np.column_stack([basis * signs, [0.0, 0.0, 1.0]])
            monkeypatch.setattr(metrics, "jacobi_eigh", lambda a: (np.array([2.0, 1.0, 0.5]), v))
            proj = project_2d(emb, _vocab(10))
            np.testing.assert_array_equal(proj[:, :2], x @ (basis * [1.0, -1.0]))

    def test_frequency_joined(self, rng):
        freq = np.concatenate([[0], np.arange(1, 13)])
        emb = np.vstack([np.zeros(4), rng.standard_normal((12, 4))])
        proj = project_2d(emb, _vocab(12, freq))
        np.testing.assert_array_equal(proj[:, 2], np.arange(1, 13))


class TestGradientProbe:
    def _setup(self, seed=1):
        params = make_params(vocab_size=5, d=3, layers=1, heads=1, max_len=4, seed=seed)
        batch = make_batch([[1, 2]], max_len=4, targets=[3])
        return params, batch

    def test_exact_softmax_form_agreement(self):
        params, batch = self._setup()
        (measured, predicted, cosine), = gradient_degeneration_probe(
            params, batch, [4], RngStream(0, "probe"))
        np.testing.assert_allclose(measured, predicted, atol=1e-10)
        assert cosine > 1 - 1e-10

    def test_probe_item_in_batch_rejected(self):
        params, batch = self._setup()
        with pytest.raises(ValueError, match="3"):
            gradient_degeneration_probe(params, batch, [3], RngStream(0, "p"))

    @pytest.mark.parametrize("bad", [-1, PAD_INDEX, 5])
    def test_probe_item_outside_the_catalog_rejected(self, bad):
        # -1 used to return item 4's gradient and cosine
        params, batch = self._setup()
        with pytest.raises(IndexError, match=f"probe item {bad} out of range"):
            gradient_degeneration_probe(params, batch, [4, bad], RngStream(0, "p"))

    def test_single_example_direction_antiparallel_to_context(self):
        # with one example the probe gradient is exactly -p * h, so the
        # measured update direction is antiparallel to the representation
        params, batch = self._setup()
        (measured, _pred, _c), = gradient_degeneration_probe(
            params, batch, [4], RngStream(0, "probe"))
        h = encode_sequence(batch.item_ids, params, RngStream(0, "probe")).data[0]
        cos = measured @ (-h) / (np.linalg.norm(measured) * np.linalg.norm(h))
        assert cos > 1 - 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prediction_keeps_the_numpy_softmax_bytes(self, dtype):
        # the closed form from ``exp_rows``, against the probe's old softmax
        params = make_params(vocab_size=8, d=4, layers=1, heads=2, max_len=4)
        for t in params.tensors.values():
            t.data = t.data.astype(dtype)
        batch = make_batch([[1, 2], [2, 1]], max_len=4, targets=[3, 3])
        results = gradient_degeneration_probe(params, batch, [5, 7], RngStream(0, "probe"))
        h = encode_sequence(batch.item_ids, params, RngStream(0, "probe")).data
        probs = softmax_np_reference(np.matmul(h, params["item_emb"].data.T))
        for item, (_, predicted, _) in zip([5, 7], results):
            want = -(probs[:, item][:, None] * h).mean(axis=0)
            assert predicted.dtype == dtype and predicted.tobytes() == want.tobytes()

    def test_multiple_probe_items(self):
        params = make_params(vocab_size=8, d=4, layers=1, heads=2, max_len=4)
        batch = make_batch([[1, 2], [2, 1]], max_len=4, targets=[3, 3])
        results = gradient_degeneration_probe(params, batch, [5, 6, 7],
                                              RngStream(0, "probe"))
        assert len(results) == 3
        for measured, predicted, cosine in results:
            np.testing.assert_allclose(measured, predicted, atol=1e-10)
            assert cosine > 1 - 1e-10
