import numpy as np
import pytest

from duorec.data import PAD_INDEX, EvalExample, ItemVocab
from duorec.metrics import (alignment, gradient_degeneration_probe, hr_at_k,
                            jacobi_eigh, ndcg_at_k, project_2d,
                            rank_full_catalog, report, singular_spectrum,
                            spectrum_tail_mass, uniformity)
from duorec.rng import RngStream
from duorec.trainer import evaluate

from test_encoder import make_batch, make_params


def _vocab(n_items, freq=None):
    frequency = np.asarray(freq) if freq is not None else np.ones(n_items + 1, dtype=np.int64)
    return ItemVocab({}, ["<pad>"] + [str(i) for i in range(1, n_items + 1)], frequency)


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

    def test_nan_model_scores_zero(self):
        params = make_params(vocab_size=12, d=8, max_len=6)
        params["layer0.wo"].data[:] = np.nan
        examples = [EvalExample([1, 2, 3], 4), EvalExample([5, 6], 7), EvalExample([8], 9)]
        rep = evaluate(params, examples, max_len=6, ks=(5, 10))
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

    def test_uniformity_rotation_invariant(self, rng):
        x = rng.standard_normal((15, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert abs(uniformity(x) - uniformity(x @ q)) < 1e-10


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
        # Gram-matrix eigenvalues carry tol 1e-12 of the matrix scale, which
        # becomes ~1e-7 on singular values after the square root
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


class TestProject2d:
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

    def test_single_example_direction_antiparallel_to_context(self):
        # with one example the probe gradient is exactly -p * h, so the
        # measured update direction is antiparallel to the representation
        params, batch = self._setup()
        from duorec.encoder import encode_sequence
        (measured, _pred, _c), = gradient_degeneration_probe(
            params, batch, [4], RngStream(0, "probe"))
        h = encode_sequence(batch.item_ids, params, RngStream(0, "probe")).data[0]
        cos = measured @ (-h) / (np.linalg.norm(measured) * np.linalg.norm(h))
        assert cos > 1 - 1e-12

    def test_multiple_probe_items(self):
        params = make_params(vocab_size=8, d=4, layers=1, heads=2, max_len=4)
        batch = make_batch([[1, 2], [2, 1]], max_len=4, targets=[3, 3])
        results = gradient_degeneration_probe(params, batch, [5, 6, 7],
                                              RngStream(0, "probe"))
        assert len(results) == 3
        for measured, predicted, cosine in results:
            np.testing.assert_allclose(measured, predicted, atol=1e-10)
            assert cosine > 1 - 1e-10
