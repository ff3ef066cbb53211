"""Allocation bounds of the encoder's ops and of one eval-mode encoder pass.

``tracemalloc`` sees NumPy's data buffers, so the peak it reports above a
baseline taken just before a call is what that call allocated at once. Each
bound is a number of arrays of the input's size plus a stated slack for the
per-row [..., 1] reductions (max, sum, mean, variance) the ops make.
"""

import contextlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from duorec import autodiff as ad
from duorec.autodiff import Tensor
from duorec.contrastive import assemble, nce_regularizer
from duorec.data import make_collision_mask
from duorec.encoder import encode_sequence, init_params
from duorec.rng import RngStream
from duorec.trainer import TrainConfig


@contextlib.contextmanager
def traced():
    """Yields a namespace that gets the peak and current traced bytes above
    the level at entry when the block ends."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = SimpleNamespace()
        yield result
        current, peak = tracemalloc.get_traced_memory()
        result.current, result.peak = current - base, peak - base
    finally:
        if started:
            tracemalloc.stop()


def row_slack(x: np.ndarray) -> int:
    """Eight [..., 1] row vectors of ``x`` and 64 KiB for everything else."""
    return 8 * (x.size // x.shape[-1]) * x.itemsize + 65536


@pytest.fixture
def x(rng):
    return Tensor(rng.standard_normal((2000, 256)))           # 4 MB, the FFN's hidden width


class TestNoGradOps:
    def test_gelu_holds_one_array(self, x):
        # its output, and one block of scratch
        with ad.no_grad(), traced() as mem:
            ad.gelu(x)
        assert mem.peak <= x.data.nbytes + ad._GELU_BLOCK * x.data.itemsize + 65536

    def test_layer_norm_holds_two_arrays(self, x):
        d = x.shape[-1]
        gain, bias = Tensor(np.ones(d)), Tensor(np.zeros(d))
        with ad.no_grad(), traced() as mem:
            ad.layer_norm(x, gain, bias)
        assert mem.peak <= 2 * x.data.nbytes + row_slack(x.data)

    def test_scaled_masked_softmax_holds_one_array(self, rng):
        scores = Tensor(rng.standard_normal((64, 2, 50, 50)))
        mask = np.triu(np.full((50, 50), -1e30), k=1) + np.zeros((64, 1, 1, 1))
        with ad.no_grad(), traced() as mem:
            ad.softmax_rows(scores, 0.25, mask)
        assert mem.peak <= scores.data.nbytes + row_slack(scores.data)


class TestNoGradHeads:
    # B=256 windows of N=50 half full, at d=64 in two heads: 6400 packed rows
    # in a [12800, 64] table
    SLOTS = np.sort(np.random.default_rng(2).choice(12800, 6400, replace=False))

    def test_split_heads_holds_one_table(self, rng):
        # the zeroed [G*N, d] table its output views, and one flag per row
        # for the slots' check
        rows = Tensor(rng.standard_normal((6400, 64)))
        with ad.no_grad(), traced() as mem:
            ad.split_heads(rows, 2, 256, 50, self.SLOTS, keys=True)
        assert mem.peak <= 12800 * 64 * 8 + 12800 + 65536

    def test_merge_heads_holds_one_array_of_rows(self, rng):
        # the [M, d] rows read straight from the heads, no [G*N, d] copy, and
        # two indices per row for where they sit
        ctx = Tensor(rng.standard_normal((256, 2, 50, 32)))
        with ad.no_grad(), traced() as mem:
            ad.merge_heads(ctx, self.SLOTS)
        assert mem.peak <= 6400 * 64 * 8 + 2 * 6400 * 8 + 12800 + 65536


def test_recorded_gelu_keeps_one_array_besides_its_output(x):
    leaf = Tensor(x.data, requires_grad=True)
    with traced() as mem:
        out = ad.gelu(leaf)
    assert out.requires_grad
    assert mem.current <= 2 * x.data.nbytes + row_slack(x.data)


def test_recorded_gelu_peak(x):
    # its output, the derivative its backward keeps, and two blocks of scratch
    leaf = Tensor(x.data, requires_grad=True)
    with traced() as mem:
        ad.gelu(leaf)
    assert mem.peak <= 2 * x.data.nbytes + 2 * ad._GELU_BLOCK * x.data.itemsize + 65536


def test_recorded_dropout_keeps_a_one_byte_pattern(x):
    # the output and one byte per element: the keep pattern its backward reads
    leaf, stream = Tensor(x.data, requires_grad=True), RngStream(0, "drop")
    with traced() as mem:
        out = ad.dropout(leaf, 0.3, stream)
    assert out.requires_grad
    assert mem.current <= x.data.nbytes + x.data.size + 65536


def test_recorded_nce_keeps_one_square_array():
    # c5_sweep's 2B=512, d=16, float32: the [2B, 2B] exponentials the backward
    # turns into its gradient. The composed graph held 5.26 MB here: sim, its
    # product, the penalty, the penalized logits and their exponentials.
    rng = np.random.default_rng(3)
    targets = rng.integers(1, 40, size=256)
    views = [Tensor(rng.standard_normal((256, 16)).astype(np.float32), requires_grad=True)
             for _ in range(2)]
    cb = assemble(*views, make_collision_mask(targets, targets.copy()), tau=1.0)
    with traced() as mem:
        out = nce_regularizer(cb)
    assert out.requires_grad
    assert mem.current <= 512 * 512 * 4 + 65536


def test_eval_encoder_pass_peak():
    # B=256 full windows of N=50 at d=64, two layers, float64: the FFN's
    # [12800, 256] hidden rows are 26 MB each. Measured: 203 MB when every op
    # made its throwaway arrays and the attention's locals lived through the
    # FFN, 104 MB while gelu held two of those rows, 78 MB while the
    # embedding, the block input, the attention output and the lane mask
    # lived through the FFN too, 60 MB now: the FFN's two hidden arrays and
    # its input.
    cfg = TrainConfig(d=64, layers=2, heads=2, max_len=50, emb_dropout=0.0, hidden_dropout=0.0)
    params = init_params(cfg, 3400, RngStream(0, "init"))
    ids = np.random.default_rng(1).integers(1, 3400, size=(256, cfg.max_len))
    with ad.no_grad(), traced() as mem:
        encode_sequence(ids, params, RngStream(0, "eval"))
    assert mem.peak <= 66e6


def test_recorded_encoder_pass_holds():
    # B=128 full windows of N=50 at d=64, two layers, dropout 0.1, float32:
    # what the graph holds once the forward returns. Measured: 74.8 MB while
    # each closure held its input tensors, and so every op's output until
    # backward; 39.1 MB now that it holds only the arrays a backward reads.
    cfg = TrainConfig(d=64, layers=2, heads=2, max_len=50)
    params = init_params(cfg, 3400, RngStream(0, "init"))
    for t in params.tensors.values():
        t.data = t.data.astype(np.float32)
    ids = np.random.default_rng(1).integers(1, 3400, size=(128, cfg.max_len))
    with traced() as mem:
        h = encode_sequence(ids, params, RngStream(0, "train"))
    assert h.requires_grad and h.data.dtype == np.float32
    assert mem.current <= 45e6
