import csv
import json
from pathlib import Path

import numpy as np
import pytest

import duorec.cli
from duorec.cli import load_dataset_dir, main
from duorec.data import ParseError
from duorec.synthetic import make_clustered_corpus
from duorec.trainer import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint

from test_encoder import make_params
from test_trainer import MISTYPED_CONFIG_VALUES


@pytest.fixture()
def raw_tsv(tmp_path):
    # 8 users cycling through 12 items so every user and item clears min-count
    path = tmp_path / "events.tsv"
    with open(path, "w") as f:
        for u in range(8):
            for t in range(6):
                f.write(f"u{u}\ti{(u + t) % 12}\t{t}\n")
    return path


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "dataset"
    out.mkdir()
    seqs, vocab = make_clustered_corpus(n_items=30, n_clusters=3,
                                        n_sequences=40, min_len=5,
                                        max_len=10, seed=0)
    with open(out / "sequences.txt", "w") as f:
        for seq in seqs:
            f.write(" ".join(str(i) for i in seq.items) + "\n")
    vocab.export_csv(out / "vocab.csv")
    return out


def tiny_config_file(tmp_path, **overrides):
    cfg = dict(d=8, layers=1, heads=2, max_len=10, batch_size=32, lr=0.01,
               epochs=1, seed=3)
    cfg["lambda"] = overrides.pop("lam", 0.2)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPrep:
    def test_round_trip(self, raw_tsv, tmp_path, capsys):
        out = tmp_path / "prep_out"
        rc = main(["prep", "--format", "tsv-uit", "--in", str(raw_tsv),
                   "--out", str(out), "--min-count", "2", "--max-len", "10"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("users=8 items=12")
        seqs, vocab = load_dataset_dir(out)
        assert len(seqs) == 8
        assert vocab.size == 13
        assert all(len(s.items) == 6 for s in seqs)

    def test_missing_file_is_runtime_error(self, tmp_path):
        rc = main(["prep", "--format", "tsv-uit", "--in",
                   str(tmp_path / "absent.tsv"), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("max_len", ["0", "-2"])
    def test_nonpositive_max_len_is_runtime_error(self, raw_tsv, tmp_path, capsys, max_len):
        out = tmp_path / "o"
        rc = main(["prep", "--format", "tsv-uit", "--in", str(raw_tsv),
                   "--out", str(out), "--min-count", "2", "--max-len", max_len])
        assert rc == 2
        assert "max_len" in capsys.readouterr().err
        assert not (out / "sequences.txt").exists()

    def test_bad_format_is_usage_error(self, raw_tsv, tmp_path):
        rc = main(["prep", "--format", "csv", "--in", str(raw_tsv),
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestTrainEvalDiagnose:
    def test_full_pipeline(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg = tiny_config_file(tmp_path)
        rc = main(["train", "--data", str(dataset_dir), "--config", cfg,
                   "--out", str(run_dir)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(printed) == {"hr@5", "hr@10", "ndcg@5", "ndcg@10"}
        assert (run_dir / "checkpoint.duo").exists()
        assert (run_dir / "curves.csv").read_text().startswith("epoch,")
        assert json.loads((run_dir / "eval.json").read_text()) == printed

        eval_dir = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.duo"),
                   "--data", str(dataset_dir), "--split", "test",
                   "--out", str(eval_dir)])
        assert rc == 0
        assert json.loads((eval_dir / "eval.json").read_text()) == printed

        diag_dir = tmp_path / "diag"
        rc = main(["diagnose", "--checkpoint", str(run_dir / "checkpoint.duo"),
                   "--data", str(dataset_dir), "--out", str(diag_dir)])
        assert rc == 0
        with open(diag_dir / "spectrum.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["rank"] == "1"
        sv = np.array([float(r["normalized_singular_value"]) for r in rows])
        assert sv[0] == 1.0 and np.all(np.diff(sv) <= 1e-12)
        with open(diag_dir / "diagnostics.csv", newline="") as f:
            proj = list(csv.DictReader(f))
        assert len(proj) == 30
        assert set(proj[0]) == {"item_index", "x", "y", "frequency"}

    def test_seed_flag_overrides_config(self, dataset_dir, tmp_path):
        cfg = tiny_config_file(tmp_path, lam=0.0)
        outs = []
        for seed in (1, 2):
            d = tmp_path / f"run{seed}"
            assert main(["train", "--data", str(dataset_dir), "--config", cfg,
                         "--seed", str(seed), "--out", str(d)]) == 0
            outs.append((d / "curves.csv").read_text())
        assert outs[0] != outs[1]

    def test_eval_missing_checkpoint_is_runtime_error(self, dataset_dir, tmp_path):
        rc = main(["eval", "--checkpoint", str(tmp_path / "absent.duo"),
                   "--data", str(dataset_dir), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_eval_without_evaluable_users_fails(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--config",
                     tiny_config_file(tmp_path), "--out", str(run_dir)]) == 0
        short = tmp_path / "short"
        short.mkdir()
        (short / "sequences.txt").write_text("1 2\n3\n4 5\n")
        (short / "vocab.csv").write_text((dataset_dir / "vocab.csv").read_text())
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.duo"),
                   "--data", str(short), "--out", str(tmp_path / "eval")])
        assert rc == 2
        assert "no users to evaluate" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "eval.json").exists()

    def test_diagnose_diverged_checkpoint_fails(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--config",
                     tiny_config_file(tmp_path), "--out", str(run_dir)]) == 0
        ckpt = load_checkpoint(run_dir / "checkpoint.duo")
        ckpt.params["item_emb"].data[4] = np.nan
        save_checkpoint(tmp_path / "nan.duo", ckpt)
        capsys.readouterr()
        diag_dir = tmp_path / "diag"
        rc = main(["diagnose", "--checkpoint", str(tmp_path / "nan.duo"),
                   "--data", str(dataset_dir), "--out", str(diag_dir)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (diag_dir / "spectrum.csv").exists()

    def test_diagnose_one_dimensional_embedding(self, dataset_dir, tmp_path):
        # d=1 has one singular direction: the projection is (x, 0), and x is
        # the centered embedding up to sign
        run_dir = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--config",
                     tiny_config_file(tmp_path, d=1, heads=1), "--out", str(run_dir)]) == 0
        diag_dir = tmp_path / "diag"
        rc = main(["diagnose", "--checkpoint", str(run_dir / "checkpoint.duo"),
                   "--data", str(dataset_dir), "--out", str(diag_dir)])
        assert rc == 0
        with open(diag_dir / "spectrum.csv", newline="") as f:
            assert list(csv.DictReader(f)) == [{"rank": "1", "normalized_singular_value": "1"}]
        with open(diag_dir / "diagnostics.csv", newline="") as f:
            proj = list(csv.DictReader(f))
        emb = load_checkpoint(run_dir / "checkpoint.duo").params["item_emb"].data[1:, 0]
        x = np.array([float(r["x"]) for r in proj])
        np.testing.assert_allclose(np.abs(x), np.abs(emb - emb.mean()), rtol=1e-11)
        assert [r["y"] for r in proj] == ["0"] * 30

    @pytest.mark.parametrize("key, value", MISTYPED_CONFIG_VALUES)
    def test_mistyped_config_value_is_runtime_error(self, dataset_dir, tmp_path, capsys,
                                                    key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        rc = main(["train", "--data", str(dataset_dir), "--config", str(path),
                   "--out", str(out)])
        assert rc == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_no_center(self, dataset_dir, tmp_path):
        # --no-center takes item_emb[1:] as it is: its normalized singular
        # values, and its rows on the top two right singular vectors. A
        # column offset makes the centered spectrum differ.
        params = make_params(vocab_size=31, d=8, layers=1, max_len=10)
        params["item_emb"].data[1:] += 0.05 * np.arange(8)
        save_checkpoint(tmp_path / "ckpt.duo",
                        Checkpoint(params=params, epoch=0, best_valid_hr5=0.0))
        diag_dir = tmp_path / "diag"
        rc = main(["diagnose", "--checkpoint", str(tmp_path / "ckpt.duo"),
                   "--data", str(dataset_dir), "--out", str(diag_dir), "--no-center"])
        assert rc == 0
        emb = load_checkpoint(tmp_path / "ckpt.duo").params["item_emb"].data[1:]
        _, s, vt = np.linalg.svd(emb, full_matrices=False)
        with open(diag_dir / "spectrum.csv", newline="") as f:
            sv = np.array([float(r["normalized_singular_value"]) for r in csv.DictReader(f)])
        np.testing.assert_allclose(sv, s / s[0], rtol=0, atol=1e-10)
        centered = np.linalg.svd(emb - emb.mean(axis=0), compute_uv=False)
        assert np.abs(sv - centered / centered[0]).max() > 0.01
        with open(diag_dir / "diagnostics.csv", newline="") as f:
            xy = np.array([[float(r["x"]), float(r["y"])] for r in csv.DictReader(f)])
        want = emb @ vt[:2].T
        for k in range(2):
            sign = np.sign(xy[:, k] @ want[:, k])
            np.testing.assert_allclose(xy[:, k], sign * want[:, k], rtol=0, atol=1e-10)

    def test_bad_config_key_is_runtime_error(self, dataset_dir, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        rc = main(["train", "--data", str(dataset_dir), "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("doc, message", [({"learning_rate": 0.1}, "unknown config keys"),
                                              ({"seed": 1.5}, "seed must be an integer")])
    def test_config_errors_name_the_file(self, dataset_dir, tmp_path, capsys, doc, message):
        # an unknown key or a mistyped value was reported without the file
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        rc = main(["train", "--data", str(dataset_dir), "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_config_names_the_file(self, dataset_dir, tmp_path, capsys):
        # the decoder's message named no file
        path = tmp_path / "bad.json"
        path.write_text('{"d": 8, ,}')
        rc = main(["train", "--data", str(dataset_dir), "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{path}: line 1 column 10: Expecting property name" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object_is_runtime_error(self, dataset_dir, tmp_path, capsys):
        # a [] file used to train the defaults, 100 epochs of them
        path = tmp_path / "bad.json"
        path.write_text("[]")
        rc = main(["train", "--data", str(dataset_dir), "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "object of keys and values" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def untrained_checkpoint(path, n_items):
    """A checkpoint of initial weights over ``n_items`` items (no training needed)."""
    params = make_params(vocab_size=n_items + 1, d=8, layers=1, max_len=10)
    save_checkpoint(path, Checkpoint(params=params, epoch=0, best_valid_hr5=0.0))
    return str(path)


class TestDatasetChecks:
    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    @pytest.mark.parametrize("n_items", [20, 40])
    def test_vocabulary_must_match_the_checkpoint(self, dataset_dir, tmp_path, capsys,
                                                  command, n_items):
        ckpt = untrained_checkpoint(tmp_path / "ckpt.duo", n_items)
        out = tmp_path / "out"
        rc = main([command, "--checkpoint", ckpt, "--data", str(dataset_dir),
                   "--out", str(out)])
        assert rc == 2
        assert f"has 30 items but the checkpoint was trained on {n_items}" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("item", [0, 31, 999, -1])
    def test_sequence_item_outside_the_vocabulary(self, dataset_dir, tmp_path, capsys, item):
        path = dataset_dir / "sequences.txt"
        lines = path.read_text().splitlines()
        lines[2] += f" {item}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"sequences.txt:3: item {item} outside \[1, 31\)"):
            load_dataset_dir(dataset_dir)
        ckpt = untrained_checkpoint(tmp_path / "ckpt.duo", 30)
        rc = main(["eval", "--checkpoint", ckpt, "--data", str(dataset_dir),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "sequences.txt:3" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, line, index", [
        pytest.param(lambda rows: [rows[1], rows[0], *rows[2:]], 2, 2, id="swapped"),
        pytest.param(lambda rows: rows[:4] + rows[5:], 6, 6, id="gap"),
        pytest.param(lambda rows: [rows[0].replace("1,", "0,", 1), *rows[1:]], 2, 0,
                     id="zero"),
    ])
    def test_vocab_index_must_run_one_to_v(self, dataset_dir, tmp_path, capsys,
                                           edit, line, index):
        path = dataset_dir / "vocab.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *edit(rows)]) + "\n")
        with pytest.raises(ParseError, match=rf"vocab.csv:{line}: index {index},"):
            load_dataset_dir(dataset_dir)
        rc = main(["train", "--data", str(dataset_dir),
                   "--config", tiny_config_file(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"vocab.csv:{line}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, match", [
        pytest.param("sequences.txt", lambda lines: [*lines[:2], "1 2 x", *lines[3:]],
                     r"sequences.txt:3: .*'x'", id="sequence-token"),
        pytest.param("vocab.csv", lambda lines: [lines[0], "1x" + lines[1][1:], *lines[2:]],
                     r"vocab.csv:2: index '1x' and frequency .* must be integers",
                     id="vocab-index"),
        pytest.param("vocab.csv", lambda lines: [*lines[:3], lines[3] + ".5", *lines[4:]],
                     r"vocab.csv:4: index '3' and frequency '\d+\.5' must be integers",
                     id="vocab-frequency"),
        pytest.param("vocab.csv", lambda lines: [*lines[:3], "3,item", *lines[4:]],
                     r"vocab.csv:4: index '3' and frequency None must be integers",
                     id="vocab-short-row"),
    ])
    def test_non_integer_token_names_file_and_line(self, dataset_dir, tmp_path, capsys,
                                                    name, edit, match):
        path = dataset_dir / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ParseError, match=match):
            load_dataset_dir(dataset_dir)
        rc = main(["train", "--data", str(dataset_dir),
                   "--config", tiny_config_file(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{name}:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, missing", [
        pytest.param(lambda header: header.replace("index", "idx"), "index", id="index"),
        pytest.param(lambda header: header.replace("item_id", "item"), "item_id", id="item_id"),
        pytest.param(lambda header: header.replace(",frequency", ""), "frequency",
                     id="frequency"),
        pytest.param(None, "index, item_id, frequency", id="empty-file"),
    ])
    def test_missing_vocab_columns_are_named(self, dataset_dir, edit, missing):
        # a missing column used to raise KeyError('index') naming no file
        path = dataset_dir / "vocab.csv"
        if edit is None:
            path.write_text("")
        else:
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([edit(header), *rows]) + "\n")
        with pytest.raises(ParseError, match=rf"vocab.csv:1: header lacks column\(s\) {missing}$"):
            load_dataset_dir(dataset_dir)

    def test_missing_vocab_column_is_runtime_error(self, dataset_dir, tmp_path, capsys):
        # the CLI used to print "error: 'index'"
        path = dataset_dir / "vocab.csv"
        path.write_text(path.read_text().replace("index", "idx", 1))
        rc = main(["train", "--data", str(dataset_dir),
                   "--config", tiny_config_file(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "vocab.csv:1: header lacks column(s) index" in capsys.readouterr().err

    def test_repeated_item_id_names_its_line(self, dataset_dir, tmp_path, capsys):
        # rows 1,a,3 and 2,a,4 used to load as item_of [..., 'a', 'a']
        path = dataset_dir / "vocab.csv"
        header, *rows = path.read_text().splitlines()
        first = rows[0].split(",")[1]
        rows[3] = ",".join([rows[3].split(",")[0], first, rows[3].split(",")[2]])
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ParseError, match=rf"vocab.csv:5: item_id '{first}' repeats index 1"):
            load_dataset_dir(dataset_dir)
        out = tmp_path / "out"
        rc = main(["eval", "--checkpoint", untrained_checkpoint(tmp_path / "ckpt.duo", 30),
                   "--data", str(dataset_dir), "--out", str(out)])
        assert rc == 2
        assert "vocab.csv:5" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_grid_runs_and_summary(self, dataset_dir, tmp_path):
        cfg = tiny_config_file(tmp_path, lam=0.0)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--config", cfg,
                   "--grid", "lambda=0.0,0.2", "--grid", "seed=1",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["lambda"] for r in rows] == ["0.0", "0.2"]
        for i, row in enumerate(rows):
            assert (out / f"run_{i}" / "checkpoint.duo").exists()
            assert 0.0 <= float(row["hr@10"]) <= 1.0

    def test_data_is_loaded_once_and_runs_match_train(self, dataset_dir, tmp_path,
                                                      monkeypatch):
        # every run shares one loaded split; each writes the files that
        # ``duorec train`` writes for its config, byte for byte
        calls = []
        original = duorec.cli.load_dataset_dir

        def counting_load(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(duorec.cli, "load_dataset_dir", counting_load)
        cfg = tiny_config_file(tmp_path)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--config", cfg,
                   "--grid", "lambda=0.0,0.1,0.2", "--out", str(out)])
        assert rc == 0
        assert len(calls) == 1
        files = ("checkpoint.duo", "curves.csv", "eval.json")
        for i, lam in enumerate(("0.0", "0.1", "0.2")):
            cfg_i = tmp_path / f"config_{i}.json"
            cfg_i.write_text(json.dumps(json.loads(Path(cfg).read_text()) | {"lambda": float(lam)}))
            single = tmp_path / f"train_{i}"
            assert main(["train", "--data", str(dataset_dir), "--config", str(cfg_i),
                         "--out", str(single)]) == 0
            for name in files:
                assert (out / f"run_{i}" / name).read_bytes() == (single / name).read_bytes()
        with open(out / "summary.csv", newline="") as f:
            assert [r["lambda"] for r in csv.DictReader(f)] == ["0.0", "0.1", "0.2"]

    def test_grid_keys_are_the_config_keys_but_max_len(self, dataset_dir, tmp_path, capsys):
        # each key read as its default's type; one split serves every run, so
        # max_len alone is refused
        defaults = TrainConfig().to_dict()
        types = {k: type(v) for k, v in defaults.items() if k != "max_len"}
        assert duorec.cli._grid_types() == types
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--config", tiny_config_file(tmp_path),
                   "--grid", "max_len=5,10", "--out", str(out)])
        assert rc == 1
        assert "max_len" in capsys.readouterr().err
        assert not out.exists()

    def test_early_stop_patience_sweep(self, dataset_dir, tmp_path):
        # a usage error while the grid's keys were a hand copy that left it out
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--config", tiny_config_file(tmp_path),
                   "--grid", "early_stop_patience=1,2", "--out", str(out)])
        assert rc == 0
        with open(out / "summary.csv", newline="") as f:
            assert [r["early_stop_patience"] for r in csv.DictReader(f)] == ["1", "2"]
        for i in range(2):
            assert (out / f"run_{i}" / "checkpoint.duo").exists()

    def test_bad_grid_axis_is_usage_error(self, dataset_dir, tmp_path):
        rc = main(["sweep", "--data", str(dataset_dir),
                   "--grid", "nonsense=1", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_repeated_grid_key_is_usage_error(self, dataset_dir, tmp_path, capsys):
        # the later axis used to replace the earlier one's values, so every
        # run trained at lambda=0.5 and summary.csv named lambda twice
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir),
                   "--config", tiny_config_file(tmp_path),
                   "--grid", "lambda=0.0,0.2", "--grid", "lambda=0.5", "--out", str(out)])
        assert rc == 1
        assert "lambda" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["lambda=abc", "batch_size=1.5", "seed=1,x"])
    def test_unparsable_grid_value_is_usage_error(self, dataset_dir, tmp_path, capsys, axis):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--config", tiny_config_file(tmp_path),
                   "--grid", axis, "--out", str(out)])
        assert rc == 1
        assert f"grid axis {axis!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, message", [
        ("lambda=0.2,1.5", "lambda must be in [0, 1], got 1.5"),
        ("positive_mode=duo,foo", "positive_mode must be one of"),
        ("heads=2,3", "d=8 not divisible by heads=3"),
    ])
    def test_invalid_grid_point_trains_nothing(self, dataset_dir, tmp_path, capsys,
                                               axis, message):
        # a bad later point used to exit 2 after training and writing run_0
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir), "--config", tiny_config_file(tmp_path),
                   "--grid", axis, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_base_config_trains_nothing(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(dataset_dir),
                   "--config", tiny_config_file(tmp_path, seed=1.5),
                   "--grid", "lambda=0.0,0.2", "--out", str(out)])
        assert rc == 2
        assert "seed must be an integer, got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_flag_is_usage_error(self):
        assert main(["train", "--out", "x"]) == 1
