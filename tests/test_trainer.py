import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import duorec.contrastive
import duorec.trainer
from duorec import autodiff as ad
from duorec.autodiff import ConfigError, ShapeError, Tensor
from duorec.data import (PAD_INDEX, EmptyDatasetError, build_target_index, iter_epoch,
                         split_leave_one_out)
from duorec.encoder import init_params
from duorec.metrics import EvalReport
from duorec.rng import RngStream
from duorec.synthetic import make_clustered_corpus
from duorec.trainer import (Adam, Checkpoint, TrainConfig, evaluate,
                            load_checkpoint, save_checkpoint, train, train_step,
                            write_curves_csv)

from conftest import interleaved_reps, nce_regularizer_reference
from test_encoder import make_params


def tiny_config(**overrides):
    base = dict(d=8, layers=1, heads=2, max_len=10, batch_size=32, lr=0.01,
                lam=0.2, tau=1.0, emb_dropout=0.1, hidden_dropout=0.1,
                epochs=2, seed=3, early_stop_patience=5)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_data(n_sequences=40, seed=0):
    seqs, vocab = make_clustered_corpus(n_items=30, n_clusters=3,
                                        n_sequences=n_sequences, min_len=5,
                                        max_len=10, seed=seed)
    return split_leave_one_out(seqs, vocab, max_len=10)


# JSON documents that are not an object of keys and values
NOT_A_CONFIG_OBJECT = [[], [["lr", 0.1]], "lr", None, 5]

# (key, value) pairs of the wrong type: each names its key in a ConfigError
MISTYPED_CONFIG_VALUES = [("seed", 1.5), ("epochs", 2.5), ("batch_size", 2.5), ("d", "64"),
                          ("lr", "0.1"), ("layers", True), ("lambda", False)]


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = TrainConfig()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_lambda_key_maps_to_lam(self):
        cfg = TrainConfig.from_dict({"lambda": 0.3})
        assert cfg.lam == 0.3
        assert cfg.to_dict()["lambda"] == 0.3
        assert "lam" not in cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="not_a_field"):
            TrainConfig.from_dict({"not_a_field": 1})

    def test_removed_normalize_nce_key_rejected(self):
        with pytest.raises(ConfigError, match="normalize_nce"):
            TrainConfig.from_dict({"normalize_nce": 1})

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lam=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(hidden_dropout=0.9)
        with pytest.raises(ConfigError):
            TrainConfig(positive_mode="nope")

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("heads", 0), ("layers", 0), ("layers", -1), ("lr", -0.1), ("lr", 0.0),
        ("lr", float("nan")), ("lr", float("inf")), ("tau", 0.0), ("tau", -1.0),
        ("tau", float("inf")), ("tau", float("nan")),
        ("epochs", 0), ("batch_size", 0), ("max_len", 0), ("early_stop_patience", 0),
        ("heads", 3),                  # 64 is not divisible by 3
        ("d", -4), ("heads", -2),
    ])
    def test_degenerate_shapes_and_rates_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("key, value", MISTYPED_CONFIG_VALUES)
    def test_mistyped_values_rejected(self, key, value):
        # a float seed used to be truncated, a float epochs or batch_size
        # to raise TypeError once training started, and a string d or lr
        # to raise TypeError here
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict({key: value})

    @pytest.mark.parametrize("doc", NOT_A_CONFIG_OBJECT)
    def test_non_object_rejected(self, doc):
        # [] used to train the defaults and [["lr", 0.1]] to raise TypeError
        with pytest.raises(ConfigError, match="object of keys and values"):
            TrainConfig.from_dict(doc)

    def test_infinite_tau_in_a_config_file_rejected(self):
        # json reads Infinity as inf: a tau that scales every NCE logit, and
        # so the regularizer's gradient, by 0
        with pytest.raises(ConfigError, match="tau must be finite"):
            TrainConfig.from_dict(json.loads('{"tau": Infinity}'))

    def test_integers_are_numbers(self):
        cfg = TrainConfig.from_dict({"lambda": 0, "lr": 1, "tau": 2})
        assert (cfg.lam, cfg.lr, cfg.tau) == (0, 1, 2)

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 16, "lambda": 0.1}))
        cfg = TrainConfig.from_json(path)
        assert cfg.d == 16 and cfg.lam == 0.1


class TestAdam:
    def test_first_step_closed_form(self):
        # after one step with constant gradient g, the bias-corrected update
        # is -lr * g / (|g| + eps) regardless of |g|
        params = make_params(vocab_size=4, d=4)
        before = {n: t.data.copy() for n, t in params.named()}
        for _, t in params.named():
            t.grad = np.full_like(t.data, 0.5)
        opt = Adam(params, lr=0.01)
        opt.step(params)
        for name, t in params.named():
            delta = t.data - before[name]
            if name == "item_emb":
                np.testing.assert_array_equal(delta[PAD_INDEX], 0.0)
                delta = delta[PAD_INDEX + 1:]
            np.testing.assert_allclose(delta, -0.01 * 0.5 / (0.5 + 1e-8),
                                       rtol=1e-10)

    def test_zero_gradient_is_noop_on_first_step(self):
        params = make_params(vocab_size=4, d=4)
        before = {n: t.data.copy() for n, t in params.named()}
        for _, t in params.named():
            t.grad = np.zeros_like(t.data)
        Adam(params, lr=0.01).step(params)
        for name, t in params.named():
            np.testing.assert_array_equal(t.data, before[name])

    def test_pad_row_pinned_to_zero(self):
        params = make_params(vocab_size=4, d=4)
        params["item_emb"].grad = np.ones_like(params["item_emb"].data)
        Adam(params, lr=0.1).step(params)
        np.testing.assert_array_equal(params["item_emb"].data[PAD_INDEX], 0.0)

    def test_update_sign_follows_gradient_sign(self):
        params = make_params(vocab_size=4, d=4)
        t = params["layer0.ffn_w1"]
        before = t.data.copy()
        t.grad = np.where(np.arange(t.data.size).reshape(t.data.shape) % 2 == 0,
                          1.0, -1.0)
        Adam(params, lr=0.01).step(params)
        assert np.all(np.sign(t.data - before) == -np.sign(t.grad))


class TestTraining:
    def test_loss_decreases_on_smoke_run(self):
        data = tiny_data()
        res = train(tiny_config(lam=0.0, epochs=5), data)
        assert not res.diverged
        assert res.curves[-1]["rec_loss"] < res.curves[0]["rec_loss"]

    def test_regularizer_logged_for_duo_and_zero_for_lam0(self):
        data = tiny_data()
        duo = train(tiny_config(epochs=1), data)
        plain = train(tiny_config(lam=0.0, epochs=1), data)
        assert duo.curves[0]["reg_loss"] > 0.0
        assert plain.curves[0]["reg_loss"] == 0.0
        assert np.isnan(plain.curves[0]["align"])

    def test_determinism_byte_identical_curves(self, tmp_path):
        data = tiny_data()
        cfg = tiny_config(epochs=3)
        paths = []
        for i in range(2):
            res = train(cfg, data)
            p = tmp_path / f"curves{i}.csv"
            write_curves_csv(p, res.curves)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_fused_nce_writes_the_composed_graph_bytes(self, tmp_path, monkeypatch):
        # one lambda=0.2 epoch at c5_sweep's shape, its last batch partial: the
        # checkpoint and curves bytes of the regularizer as a composed graph
        seqs, vocab = make_clustered_corpus(n_items=200, n_clusters=10, n_sequences=300,
                                            min_len=8, max_len=20, zipf=1.5, seed=1)
        data = split_leave_one_out(seqs, vocab, max_len=20)
        assert len(data.train) % 256 != 0
        cfg = TrainConfig.from_dict(dict(d=16, layers=1, heads=2, max_len=20, batch_size=256,
                                         lr=0.006, epochs=1, **{"lambda": 0.2}))
        composed_calls = []

        def composed(cb):
            composed_calls.append(len(interleaved_reps(cb)))
            return nce_regularizer_reference(cb)

        written = []
        for name in ("fused", "composed"):
            if name == "composed":
                monkeypatch.setattr(duorec.contrastive, "nce_regularizer", composed)
                monkeypatch.setattr(duorec.trainer, "nce_regularizer", composed)
            res = train(cfg, data)
            out = tmp_path / name
            out.mkdir()
            save_checkpoint(out / "checkpoint.duo", res.checkpoint)
            write_curves_csv(out / "curves.csv", res.curves)
            written.append([(out / f).read_bytes() for f in ("checkpoint.duo", "curves.csv")])
        assert composed_calls[-1] == 2 * (len(data.train) % 256)
        assert written[0] == written[1]

    def test_seed_changes_trajectory(self):
        data = tiny_data()
        a = train(tiny_config(epochs=1, seed=1), data)
        b = train(tiny_config(epochs=1, seed=2), data)
        assert a.curves[0]["rec_loss"] != b.curves[0]["rec_loss"]

    def test_empty_training_set_rejected(self):
        data = tiny_data()
        empty = copy.replace(data, train=[]) if hasattr(copy, "replace") else None
        if empty is None:
            import dataclasses
            empty = dataclasses.replace(data, train=[])
        with pytest.raises(ValueError):
            train(tiny_config(), empty)

    @pytest.mark.parametrize("max_len", [5, 20])
    def test_split_width_must_match_config(self, max_len):
        seqs, vocab = make_clustered_corpus(n_items=30, n_clusters=3, n_sequences=20,
                                            min_len=5, max_len=12, seed=0)
        data = split_leave_one_out(seqs, vocab, max_len=max_len)
        with pytest.raises(ConfigError, match="max_len"):
            train(tiny_config(), data)

    def test_extreme_lr_returns_instead_of_raising(self):
        data = tiny_data()
        res = train(tiny_config(epochs=3, lr=1e8, lam=0.0), data)
        assert isinstance(res.diverged, bool)
        assert all(np.isfinite(c["rec_loss"]) for c in res.curves)

    def test_best_checkpoint_tracks_valid_hr5(self):
        data = tiny_data()
        res = train(tiny_config(lam=0.0, epochs=4), data)
        best = max(c["valid_hr5"] for c in res.curves)
        assert res.checkpoint.best_valid_hr5 == best
        assert res.curves[res.checkpoint.epoch - 1]["valid_hr5"] == best


    def test_checkpoint_is_the_best_epochs_state(self, monkeypatch):
        # validation HR@5 falls after epoch 1, so the best epoch is not the last
        import duorec.trainer
        scores = iter([0.5, 0.2, 0.1])
        validated = []

        def scripted(params, *args, **kwargs):
            validated.append({name: t.data.copy() for name, t in params.named()})
            return EvalReport({5: next(scores)}, {5: 0.0}, 1)

        monkeypatch.setattr(duorec.trainer, "evaluate", scripted)
        res = train(tiny_config(epochs=3), tiny_data())
        assert res.checkpoint.epoch == 1 and len(validated) == len(res.curves) == 3
        for name, t in res.checkpoint.params.named():
            assert t.data.tobytes() == validated[0][name].astype(np.float64).tobytes(), name
            assert res.final_params[name].data.tobytes() == (
                validated[-1][name].astype(np.float64).tobytes()), name
        assert not np.array_equal(res.checkpoint.params["layer0.wq"].data,
                                  res.final_params["layer0.wq"].data)


class TestEvaluate:
    def test_no_users_raises(self):
        params = make_params(vocab_size=12, d=8, max_len=10)
        with pytest.raises(EmptyDatasetError):
            evaluate(params, np.zeros((0, 10), dtype=np.int64), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("width", [3, 12])
    def test_window_width_must_be_max_len(self, width):
        # a narrower window used to be ranked from misplaced positional rows
        data = tiny_data()
        params = make_params(vocab_size=data.vocab.size, d=8, max_len=10)
        ids, targets = data.window(data.test)
        ids = np.pad(ids, ((0, 0), (max(0, width - 10), 0)))[:, -width:]
        with pytest.raises(ShapeError, match="max_len=10"):
            evaluate(params, ids, targets)

    def test_report_shapes_and_bounds(self):
        data = tiny_data()
        params = make_params(vocab_size=data.vocab.size, d=8, max_len=10)
        rep = evaluate(params, *data.window(data.test))
        assert rep.n_users == len(data.test)
        assert 0.0 <= rep.ndcg[10] <= rep.hr[10] <= 1.0

    def test_evaluation_is_dropout_free(self):
        data = tiny_data()
        params = make_params(vocab_size=data.vocab.size, d=8, max_len=10,
                             emb_dropout=0.3, hidden_dropout=0.3)
        a = evaluate(params, *data.window(data.test))
        b = evaluate(params, *data.window(data.test))
        assert a == b


def with_dtype(params, dtype):
    for t in params.tensors.values():
        t.data = t.data.astype(dtype)
    return params


class TestDtypePolicy:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    def test_train_step_stays_in_the_weights_dtype(self, dtype, lam, monkeypatch):
        # every op output and every gradient passed back has the weights' dtype
        data = tiny_data()
        config = tiny_config(lam=lam)
        params = with_dtype(make_params(vocab_size=data.vocab.size, d=8, max_len=10,
                                        emb_dropout=0.1, hidden_dropout=0.1), dtype)
        seen = set()
        make = ad._make

        def recording_make(out_data, parents, backward):
            seen.add(("out", out_data.dtype))

            def recording_backward(g):
                seen.add(("grad", np.asarray(g).dtype))
                backward(g)

            return make(out_data, parents, recording_backward)

        monkeypatch.setattr(ad, "_make", recording_make)
        batch = next(iter_epoch(data, build_target_index(data.items[data.train]),
                                config.batch_size, RngStream(0, "data")))
        bundle, *views = train_step(batch, params, config, RngStream(0, "step"))
        bundle.total.backward()
        assert seen == {("out", np.dtype(dtype)), ("grad", np.dtype(dtype))}
        assert bundle.total.data.dtype == dtype
        assert all(v.data.dtype == dtype for v in views if v is not None)
        for name, t in params.named():
            assert t.data.dtype == t.grad.dtype == dtype, name

    def test_adam_moments_follow_the_weights(self):
        params = with_dtype(make_params(vocab_size=6, d=4, max_len=4), np.float32)
        opt = Adam(params, lr=0.01)
        for t in params.tensors.values():
            t.grad = np.ones_like(t.data)
        opt.step(params)
        for name, t in params.named():
            assert t.data.dtype == opt.m[name].dtype == opt.v[name].dtype == np.float32

    def test_returned_weights_are_the_float32_weights_upcast(self, monkeypatch):
        import duorec.trainer
        seen = []
        real = duorec.trainer.evaluate

        def recording(params, *args, **kwargs):
            seen.append({name: t.data.copy() for name, t in params.named()})
            return real(params, *args, **kwargs)

        monkeypatch.setattr(duorec.trainer, "evaluate", recording)
        res = train(tiny_config(epochs=1), tiny_data())
        trained = seen[-1]                                     # the epoch's validation
        ckpt = res.checkpoint
        assert ckpt.epoch == 1
        for name, w in trained.items():
            assert w.dtype == np.float32, name
            for got in (ckpt.params[name].data, res.final_params[name].data):
                assert got.dtype == np.float64
                assert got.tobytes() == w.astype(np.float64).tobytes(), name

    def test_float64_training_is_kept_as_a_reference(self):
        data = tiny_data()
        res64 = train(tiny_config(epochs=1), data, dtype=np.float64)
        res32 = train(tiny_config(epochs=1), data)
        w64 = res64.final_params["layer0.wq"].data
        w32 = res32.final_params["layer0.wq"].data
        assert w64.dtype == w32.dtype == np.float64
        assert not np.array_equal(w64.astype(np.float32).astype(np.float64), w64)
        assert 0 < np.abs(w64 - w32).max() < 1e-4

    def test_evaluate_upcasts_float32_weights_exactly(self, monkeypatch):
        # what is ranked, and the report, are those of the upcast weights
        import duorec.trainer
        ranked = []
        rank = duorec.trainer.rank_full_catalog

        def recording(h, item_emb, targets):
            ranked.append((h.dtype, item_emb.dtype, h.tobytes(), item_emb.tobytes()))
            return rank(h, item_emb, targets)

        monkeypatch.setattr(duorec.trainer, "rank_full_catalog", recording)
        data = tiny_data()
        params = make_params(vocab_size=data.vocab.size, d=8, max_len=10,
                             emb_dropout=0.3, hidden_dropout=0.3)
        p32 = with_dtype(copy.deepcopy(params), np.float32)
        p64 = with_dtype(copy.deepcopy(p32), np.float64)
        ids, targets = data.window(data.test)
        assert evaluate(p32, ids, targets) == evaluate(p64, ids, targets)
        (dt_h, dt_e, *got), (_, _, *want) = ranked
        assert dt_h == dt_e == np.float64
        assert got == want
        assert all(t.data.dtype == np.float32 for _, t in p32.named())


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        data = tiny_data()
        res = train(tiny_config(epochs=1), data)
        p1, p2 = tmp_path / "a.duo", tmp_path / "b.duo"
        save_checkpoint(p1, res.checkpoint)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_evaluation_identical(self, tmp_path):
        data = tiny_data()
        res = train(tiny_config(epochs=1), data)
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, res.checkpoint)
        loaded = load_checkpoint(path)
        before = evaluate(res.checkpoint.params, *data.window(data.test))
        after = evaluate(loaded.params, *data.window(data.test))
        assert before == after

    def test_trailer_fields_preserved(self, tmp_path):
        data = tiny_data()
        res = train(tiny_config(epochs=2), data)
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, res.checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.params.config == res.checkpoint.params.config
        assert loaded.epoch == res.checkpoint.epoch
        assert loaded.best_valid_hr5 == res.checkpoint.best_valid_hr5
        for name, t in res.checkpoint.params.named():
            np.testing.assert_array_equal(loaded.params[name].data, t.data)

    def test_bytes_are_pinned(self, tmp_path):
        # initial weights are Philox draws with no BLAS in them, so this
        # digest pins the file format: manifest, float64 buffers, trailer
        cfg = TrainConfig(d=8, layers=2, heads=2, max_len=6, emb_dropout=0.2,
                          hidden_dropout=0.3, seed=3)
        params = init_params(cfg, 12, RngStream(cfg.seed, "run"))
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, Checkpoint(params=params, epoch=3, best_valid_hr5=0.25))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "68140c97a9275c52a2c78dda6ec6f8276249647255302c22b5e386339d2b2a9b")

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # a save that dies partway, as on a full disk, used to leave the
        # previous checkpoint truncated to the bytes written so far
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, self._checkpoint())
        before = path.read_bytes()
        real_open = open

        class FailingFile:
            def __init__(self, *args):
                self.f, self.written = real_open(*args), 0

            def write(self, b):
                if self.written > 100:
                    raise OSError("no space left on device")
                self.written += len(b)
                return self.f.write(b)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(duorec.trainer, "open", FailingFile, raising=False)
        other = Checkpoint(params=make_params(vocab_size=12, d=8, max_len=6, seed=1),
                           epoch=5, best_valid_hr5=0.75)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, other)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.duo"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.duo"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(IOError):
            load_checkpoint(path)

    def test_older_format_names_itself(self, tmp_path):
        # a DUO1 file (weights plus Adam state) is refused by name, not as junk
        path = tmp_path / "old.duo"
        save_checkpoint(path, self._checkpoint())
        path.write_bytes(b"DUO1" + path.read_bytes()[4:])
        with pytest.raises(IOError, match="DUO1.*retrain"):
            load_checkpoint(path)

    @staticmethod
    def _checkpoint():
        params = make_params(vocab_size=12, d=8, max_len=6)
        return Checkpoint(params=params, epoch=2, best_valid_hr5=0.5)

    def test_torn_or_padded_file_raises_ioerror(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, ckpt)
        blob = path.read_bytes()
        n_floats = sum(t.data.size for _, t in ckpt.params.named())
        trailer = blob.rindex(b'{"best_valid_hr5"') - 8        # the trailer's length field
        buffers = trailer - 8 * n_floats
        # every offset of the header and the trailer, a stride through the buffers
        cuts = [*range(buffers + 1), *range(buffers, trailer, 97), *range(trailer, len(blob))]
        for cut in cuts:
            path.write_bytes(blob[:cut])
            with pytest.raises(IOError):
                load_checkpoint(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(IOError, match="after the trailer"):
            load_checkpoint(path)
        path.write_bytes(blob)
        load_checkpoint(path)

    @pytest.mark.parametrize("config", [dict(layers=2), dict(d=16), dict(max_len=7)])
    def test_tensors_disagreeing_with_config_raise_ioerror(self, tmp_path, config):
        ckpt = self._checkpoint()
        ckpt.params.config = dataclasses.replace(ckpt.params.config, **config)
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, ckpt)
        with pytest.raises(IOError, match="do not match the config"):
            load_checkpoint(path)

    def test_missing_parameter_tensor_raises_ioerror(self, tmp_path):
        ckpt = self._checkpoint()
        del ckpt.params.tensors["pos_emb"]
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, ckpt)
        with pytest.raises(IOError, match="do not match the config"):
            load_checkpoint(path)

    def test_removed_config_key_in_trailer_fails_loudly(self, tmp_path, monkeypatch):
        to_dict = TrainConfig.to_dict
        monkeypatch.setattr(TrainConfig, "to_dict",
                            lambda self: to_dict(self) | {"normalize_nce": False})
        path = tmp_path / "ckpt.duo"
        save_checkpoint(path, self._checkpoint())
        with pytest.raises(ConfigError, match="normalize_nce"):
            load_checkpoint(path)


class TestCurvesCsv:
    def test_header_and_row_count(self, tmp_path):
        rows = [{"epoch": 1, "rec_loss": 1.5, "reg_loss": 0.25,
                 "align": float("nan"), "uniformity": -2.0, "valid_hr5": 0.1}]
        path = tmp_path / "curves.csv"
        write_curves_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,rec_loss,reg_loss,align,uniformity,valid_hr5"
        assert lines[1].startswith("1,1.5,0.25,nan,-2,0.1")
