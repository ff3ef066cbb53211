"""The three benchmark workloads: generated inputs, timed phases, checks.

Every workload drives the program the way a user does, through
``duorec.cli.main`` (prep, train or sweep, eval, diagnose), plus the public
geometry functions of ``duorec.metrics``. Inputs come only from the
workload seed. A run sets up at least ``SETUP_REPS`` times, then shares the
measuring window among four phases (train, prep, eval, diagnose), always
running the one furthest behind its share, so every phase's samples spread
over the whole window. Each end-to-end timing comes from its phase's mean
sample time, on calibrated workloads rescaled to a fixed host speed (see
``calibrate``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import duorec.autodiff
import duorec.cli
import duorec.data
import duorec.encoder
import duorec.metrics
import duorec.rng
import duorec.synthetic
import duorec.trainer

from checks import (CheckFailed, brute_force_ranks, check_curves,
                    check_eval_json, check_prep_output, expected_prep, require,
                    sha256)

SETUP_REPS = 3              # at least; more while set-ups total under SETUP_FLOOR_S
SETUP_FLOOR_S = 2.0
SETUP_MAX = 20
MIN_SAMPLES = 3             # per phase, even if the window is used up
PHASES = ("train", "prep", "eval", "diagnose")
EVAL_BATCH = 256            # duorec.data.eval_batches' default batch size
SAMPLE_USERS = 128          # uniformity builds an n x n x d array, so it is capped
PROBE_USERS = 8
PROBE_ITEMS = 8
LOG_TIME_BASE = 978_300_000
MIN_COUNT = 5               # prep's k-core threshold (its default)


@dataclass(frozen=True)
class Spec:
    """One workload: its corpora, its training config and its command."""
    corpus: dict                # make_clustered_corpus arguments, seed excluded
    config: dict                # TrainConfig JSON for the training command
    sweep: str | None = None    # grid axis for ``duorec sweep``; None = ``duorec train``
    heldout_users: int = 0      # > 0: eval and prep use held-out users of the same law
    offline_ckpt_users: int = 0  # > 0: set-up trains the checkpoint on this many users
    offline_ckpt_len: int = 0    # ... keeping only each one's last items, so all clusters show
    users_per_cluster: int = 0   # > 0: train on this many users of each cluster, drawn
                                 # from the corpus in order, so every seed covers all clusters
    shares: tuple = (0.25, 0.25, 0.25, 0.25)  # of the window, per phase in PHASES order
    calibrated: bool = False    # report timings at a fixed host speed (see calibrate)


ML1M_ITEMS = dict(n_items=3400, n_clusters=5, zipf=1.5)
ML1M_SHAPE = dict(d=64, layers=2, heads=2, max_len=50, batch_size=128)

SPECS = {
    "train_ml1m_duo": Spec(
        corpus=dict(ML1M_ITEMS, n_sequences=60, min_len=40, max_len=50),
        config=dict(ML1M_SHAPE, lr=0.01, **{"lambda": 0.2}, positive_mode="duo",
                    epochs=1, early_stop_patience=1),
        heldout_users=500,
        users_per_cluster=2,
        shares=(0.85, 0.03, 0.06, 0.06),
    ),
    "c5_sweep": Spec(
        corpus=dict(n_items=200, n_clusters=10, n_sequences=300, min_len=8,
                    max_len=20, zipf=1.5),
        config=dict(d=16, layers=1, heads=2, max_len=20, batch_size=256,
                    lr=0.006, epochs=1, early_stop_patience=1),
        sweep="lambda=0.0,0.2",
        shares=(0.7, 0.1, 0.1, 0.1),
        calibrated=True,
    ),
    "offline_ml1m": Spec(
        corpus=dict(ML1M_ITEMS, n_sequences=1000, min_len=20, max_len=298),
        config=dict(ML1M_SHAPE, lr=0.01, **{"lambda": 0.0}, epochs=1,
                    early_stop_patience=1),
        offline_ckpt_users=85,
        offline_ckpt_len=6,
        calibrated=True,
    ),
}


def user_id(u: int) -> str:
    return f"u{u:06d}"


@dataclass
class Dataset:
    """A dataset directory the benchmark wrote, with the counts it implies."""
    path: Path
    sequences: list[list[int]]

    @property
    def users(self) -> int:
        return sum(1 for s in self.sequences if len(s) >= 3)

    @property
    def train_examples(self) -> int:
        return sum(len(s) - 3 for s in self.sequences if len(s) >= 3)


@dataclass
class Inputs:
    """Everything set-up leaves for the measured phases."""
    train_data: Dataset              # what the training phase trains on
    eval_data: Dataset | None        # None: the prep output is evaluated
    log: Path
    log_events: int
    setup_s: float
    checkpoint: Path | None = None   # offline: eval and diagnose read set-up's checkpoint


@dataclass
class Expect:
    """Work the program must do, derived from the inputs alone."""
    batches: int = 0
    examples: int = 0
    passes: int = 0
    rows: int = 0
    ranked: int = 0
    layer_passes: int = 0           # sum over encoder passes of the layer count
    probes: int = 0
    diagnoses: int = 0

    def training(self, data: Dataset, cfg: dict, epochs_run: int) -> None:
        steps = epochs_run * math.ceil(data.train_examples / cfg["batch_size"])
        views = 1 if cfg.get("lambda", 0.2) == 0.0 else 3
        self.batches += steps
        self.examples += epochs_run * data.train_examples
        self.passes += views * steps
        self.rows += views * epochs_run * data.train_examples
        self.layer_passes += views * steps * cfg["layers"]
        for _ in range(epochs_run):           # per-epoch validation
            self.evaluation(data.users, cfg["layers"])
        self.evaluation(data.users, cfg["layers"])   # final test evaluation

    def evaluation(self, users: int, layers: int) -> None:
        batches = math.ceil(users / EVAL_BATCH)
        self.passes += batches
        self.rows += users
        self.ranked += users
        self.layer_passes += batches * layers

    def forward(self, rows: int, layers: int) -> None:
        self.passes += 1
        self.rows += rows
        self.layer_passes += layers


CAL_NOMINAL_S = 0.010       # the host speed calibrated timings are reported at
_CAL_ARRAY = np.random.default_rng(0).random((32, 16))


def calibrate() -> float:
    """Time a fixed kernel that shares no code with duorec: dict, list and
    sort work in the interpreter plus small NumPy ops. The shared host's
    speed for such work swings by up to 2x for seconds at a time, as the
    load of other tenants comes and goes; this kernel, run before every
    sample, measures that speed."""
    start = time.perf_counter()
    for _ in range(6):
        d = {}
        for i in range(1500):
            d[str(i)] = [i, i * i]
        sorted(d.items(), key=lambda kv: kv[1][1] % 97)
        x = _CAL_ARRAY
        for _ in range(100):
            x = x * 1.0001 + 0.5
    return time.perf_counter() - start


class WorkloadRun:
    """One workload run inside its own work directory."""

    def __init__(self, spec: Spec, work: Path, seed: int, tracer=None):
        self.spec = spec
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.calibration: list[float] = []     # calibrate() before every sample
        self.attempted = 0
        self.failed = 0
        self.expect = Expect()
        self.digests: dict[str, str] = {}
        self.notes: dict = {}
        self.expected_prep = None       # the prep oracle's output, once per run
        self.prepped = None             # ... and its sequences as lists
        self.train_examples = 0         # examples one training sample consumes
        self.ckpt = None                # what eval and diagnose read
        self.sample_users = None
        self.evaluation = None
        self.geometry_out = None

    # -- plumbing ------------------------------------------------------

    def _phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.{name}")

    def cli(self, *argv: str) -> str:
        """Run one ``duorec`` command in-process; a non-zero exit fails the run."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = duorec.cli.main(list(argv))
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"duorec {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return err.getvalue()

    def timed(self, phase: str, fn, *args):
        with self._phase(phase):
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
        self.times.setdefault(phase, []).append(elapsed)
        return result

    def record(self, key: str, path: Path) -> None:
        """Keep a file's digest; a repeated phase must reproduce it exactly."""
        digest = sha256(path)
        require(self.digests.setdefault(key, digest) == digest,
                f"{key}: output differs between repetitions of the same phase")

    # -- set-up --------------------------------------------------------

    def corpus(self, n_sequences: int | None = None, seed_offset: int = 0):
        kwargs = dict(self.spec.corpus)
        if n_sequences is not None:
            kwargs["n_sequences"] = n_sequences
        seqs, vocab = duorec.synthetic.make_clustered_corpus(
            seed=self.seed + seed_offset, **kwargs)
        return [s.items for s in seqs], vocab

    def per_cluster(self, seqs):
        """The first ``users_per_cluster`` users of each cluster; a user's
        items all come from one block of ``n_items // n_clusters`` indices."""
        corpus, want = self.spec.corpus, self.spec.users_per_cluster
        width = corpus["n_items"] // corpus["n_clusters"]
        taken = [0] * corpus["n_clusters"]
        keep = []
        for s in seqs:
            c = (s[0] - 1) // width
            if taken[c] < want:
                taken[c] += 1
                keep.append(s)
        require(min(taken) == want, f"corpus has under {want} users in some cluster")
        return keep

    def write_dataset(self, path: Path, sequences, vocab_rows) -> Dataset:
        path.mkdir(parents=True, exist_ok=True)
        (path / "sequences.txt").write_text(
            "".join(" ".join(map(str, s)) + "\n" for s in sequences))
        with open(path / "vocab.csv", "w") as f:
            f.write("index,item_id,frequency\n")
            f.writelines(f"{i},{item},{freq}\n" for i, item, freq in vocab_rows)
        return Dataset(path, [list(s) for s in sequences])

    def write_log(self, path: Path, sequences):
        """Render sequences as a ``user<TAB>item<TAB>ts`` log, shuffled within users."""
        rng = np.random.default_rng([self.seed, 7])
        users, items, stamps = [], [], []
        for u, seq in enumerate(sequences):
            order = rng.permutation(len(seq))
            users.append(np.full(len(seq), u))
            items.append(np.asarray(seq)[order])
            stamps.append(LOG_TIME_BASE + 60 * order)
        users, items, stamps = (np.concatenate(a).astype(np.int64)
                                for a in (users, items, stamps))
        names = [user_id(u) for u in range(len(sequences))]
        with open(path, "w") as f:
            f.writelines([f"{names[u]}\t{i}\t{t}\n"
                          for u, i, t in zip(users.tolist(), items.tolist(), stamps.tolist())])
        return users, items, stamps

    def oracle(self, events) -> list[list[int]]:
        """What ``duorec prep`` must write for the log; the log depends only
        on the seed, so this runs once per run, outside the set-up timing."""
        if self.expected_prep is None:
            self.expected_prep = expected_prep(*events, MIN_COUNT, self.spec.config["max_len"])
            self.prepped = [[int(x) for x in line.split()]
                            for line in self.expected_prep[0].splitlines()]
        return self.prepped

    def setup(self, root: Path) -> Inputs:
        """Write the inputs under ``root``. ``setup_s`` covers corpus
        generation, dataset and log writing, and the offline checkpoint's
        ``duorec train``; the prep oracle is left out of it."""
        spec, cfg = self.spec, self.spec.config
        root.mkdir(parents=True)
        start = time.perf_counter()
        seqs, vocab = self.corpus()
        log = root / "log.tsv"
        if spec.offline_ckpt_users:
            events = self.write_log(log, seqs)
            setup_s = time.perf_counter() - start
            prepped = self.oracle(events)
            start = time.perf_counter()
            ckpt_data = self.write_dataset(
                root / "ckpt_data",
                [s[-spec.offline_ckpt_len:] for s in prepped[:spec.offline_ckpt_users]],
                self.expected_prep[1])
            self.train_command(ckpt_data, root / "ckpt", root)
            setup_s += time.perf_counter() - start
            return Inputs(train_data=ckpt_data, eval_data=None, log=log,
                          log_events=len(events[0]), setup_s=setup_s,
                          checkpoint=root / "ckpt" / "checkpoint.duo")
        if spec.users_per_cluster:
            seqs = self.per_cluster(seqs)
        freq = np.bincount(np.concatenate(seqs), minlength=vocab.size)
        vocab_rows = [(i, vocab.item_of[i], int(freq[i])) for i in range(1, vocab.size)]
        train_data = self.write_dataset(root / "data", seqs, vocab_rows)
        eval_data, log_seqs = train_data, seqs
        if spec.heldout_users:
            log_seqs, _ = self.corpus(spec.heldout_users, seed_offset=1_000_003)
            eval_data = self.write_dataset(root / "heldout", log_seqs, vocab_rows)
        events = self.write_log(log, log_seqs)
        setup_s = time.perf_counter() - start
        self.oracle(events)
        return Inputs(train_data=train_data, eval_data=eval_data, log=log,
                      log_events=len(events[0]), setup_s=setup_s)

    def write_config(self, root: Path) -> Path:
        path = root / "config.json"
        path.write_text(json.dumps(self.spec.config, sort_keys=True))
        return path

    def train_command(self, data: Dataset, out: Path, root: Path, phase=None) -> None:
        """``duorec train``, timed as ``phase`` if one is named; checks its curves."""
        cfg = self.spec.config
        argv = ("train", "--data", str(data.path), "--config", str(self.write_config(root)),
                "--seed", str(self.seed), "--out", str(out))
        stderr = self.timed(phase, self.cli, *argv) if phase else self.cli(*argv)
        epochs = check_curves(out / "curves.csv", cfg["epochs"], stderr)
        self.expect.training(data, cfg, epochs)
        self.train_examples = epochs * data.train_examples

    def setup_all(self, reps: int, floor_s: float = 0.0) -> Inputs:
        """Set up ``reps`` times, and more (up to ``SETUP_MAX``) until the
        set-ups add up to ``floor_s``; the last one's inputs are kept."""
        r = 0
        while r < reps or (sum(self.times["setup"]) < floor_s and r < SETUP_MAX):
            root = self.work / f"setup{r}"
            self.calibration.append(calibrate())
            with self._phase("setup"):
                inputs = self.setup(root)
            self.times.setdefault("setup", []).append(inputs.setup_s)
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                self.record(f"setup/{path.relative_to(root)}", path)
            if r > 0:
                shutil.rmtree(self.work / f"setup{r - 1}")
            r += 1
        return inputs

    # -- measured phases -----------------------------------------------
    # Each takes the inputs and its sample index; sample 0's outputs are kept
    # for the phases after it, later samples' outputs are checked and removed.

    def _done(self, out: Path, r: int) -> None:
        if r > 0:
            shutil.rmtree(out)

    def train_phase(self, inputs: Inputs, r: int) -> None:
        """The workload's training command into a fresh directory."""
        spec, cfg, data = self.spec, self.spec.config, inputs.train_data
        root = inputs.log.parent
        if spec.sweep is None:
            out = self.work / f"train{r}"
            self.train_command(data, out, root, phase="train")
            ckpt = out / "checkpoint.duo"
        else:
            out = self.work / f"sweep{r}"
            stderr = self.timed("train", self.cli, "sweep", "--data", str(data.path),
                                "--config", str(self.write_config(root)),
                                "--seed", str(self.seed), "--grid", spec.sweep,
                                "--out", str(out))
            runs = sorted(out.glob("run_*"))
            key, _, values = spec.sweep.partition("=")
            require(len(runs) == len(values.split(",")), f"sweep wrote {len(runs)} runs")
            self.train_examples = 0
            for value, run in zip(values.split(","), runs):
                epochs = check_curves(run / "curves.csv", cfg["epochs"], stderr)
                self.expect.training(data, dict(cfg, **{key: float(value)}), epochs)
                self.train_examples += epochs * data.train_examples
            ckpt = runs[-1] / "checkpoint.duo"
            self.notes["sweep_test_hr10"] = json.loads(
                (ckpt.parent / "eval.json").read_text())["hr@10"]
        for name in ("checkpoint.duo", "curves.csv", "eval.json"):
            self.record(f"train/{name}", ckpt.parent / name)
        if inputs.checkpoint is not None:
            require(self.digests["train/checkpoint.duo"]
                    == self.digests["setup/ckpt/checkpoint.duo"],
                    "duorec train does not reproduce set-up's checkpoint")
            ckpt = inputs.checkpoint
        if r == 0:
            self.ckpt = ckpt
        self._done(out, r)

    def prep_phase(self, inputs: Inputs, r: int) -> None:
        out = self.work / f"prep{r}"
        self.timed("prep", self.cli, "prep", "--format", "tsv-uit", "--in", str(inputs.log),
                   "--out", str(out), "--min-count", str(MIN_COUNT),
                   "--max-len", str(self.spec.config["max_len"]))
        check_prep_output(out, self.expected_prep)
        self._done(out, r)

    def eval_phase(self, inputs: Inputs, r: int) -> None:
        out, data = self.work / f"eval{r}", inputs.eval_data
        self.timed("eval", self.cli, "eval", "--checkpoint", str(self.ckpt),
                   "--data", str(data.path), "--split", "test", "--out", str(out))
        self.expect.evaluation(data.users, self.spec.config["layers"])
        self.record("eval/eval.json", out / "eval.json")
        self.evaluation = json.loads((out / "eval.json").read_text())
        self._done(out, r)

    def diagnose_phase(self, inputs: Inputs, r: int) -> None:
        out = self.work / f"diag{r}"
        data = inputs.eval_data if inputs.checkpoint is not None else inputs.train_data

        def run():
            self.cli("diagnose", "--checkpoint", str(self.ckpt), "--data", str(data.path),
                     "--out", str(out))
            return self.geometry(self.ckpt, self.sample_users[:2])

        geometry = self.timed("diagnose", run)
        self.expect.diagnoses += 1
        self.record("diagnose/spectrum.csv", out / "spectrum.csv")
        self.record("diagnose/diagnostics.csv", out / "diagnostics.csv")
        values = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
        geometry["tail_mass"] = duorec.metrics.spectrum_tail_mass(values)
        self.geometry_out = geometry
        self._done(out, r)

    def geometry(self, ckpt_path: Path, sample) -> dict:
        """Uniformity, alignment and the absent-item gradient probe on the sample."""
        ids, targets = sample
        self.attempted += 1
        params = duorec.trainer.load_checkpoint(ckpt_path).params
        cfg = params.config
        layers = cfg.layers
        stream = duorec.rng.RngStream(self.seed, "bench.geometry")
        with duorec.autodiff.no_grad():
            view_a = duorec.encoder.encode_sequence(ids, params, stream.child("a")).data
            view_b = duorec.encoder.encode_sequence(ids, params, stream.child("b")).data
            rates = cfg.emb_dropout, cfg.hidden_dropout
            cfg.emb_dropout = cfg.hidden_dropout = 0.0
            try:
                reps = duorec.encoder.encode_sequence(ids, params, stream.child("reps")).data
            finally:
                cfg.emb_dropout, cfg.hidden_dropout = rates
        for _ in range(3):
            self.expect.forward(len(ids), layers)
        out = {
            "uniformity": duorec.metrics.uniformity(reps),
            "alignment": duorec.metrics.alignment(view_a, view_b),
        }
        batch_ids, batch_targets = ids[:PROBE_USERS], targets[:PROBE_USERS]
        present = set(batch_ids.ravel().tolist()) | set(batch_targets.tolist())
        absent = [i for i in range(1, params["item_emb"].shape[0]) if i not in present]
        require(len(absent) > 0, "probe: every item appears in the probe batch")
        probe_items = absent[::max(1, len(absent) // PROBE_ITEMS)][:PROBE_ITEMS]
        n = len(batch_targets)
        batch = duorec.data.Batch(
            item_ids=batch_ids, lengths=(batch_ids != 0).sum(axis=1), targets=batch_targets,
            positive_ids=batch_ids, positive_targets=batch_targets,
            collision_mask=np.zeros((2 * n, 2 * n), dtype=bool))
        probe = duorec.metrics.gradient_degeneration_probe(
            params, batch, probe_items, stream.child("probe"))
        self.expect.forward(n, layers)
        self.expect.probes += 1
        cosines = [c for measured, predicted, c in probe
                   if np.linalg.norm(measured) > 0 and np.linalg.norm(predicted) > 0]
        require(len(cosines) > 0 and min(cosines) > 1 - 1e-9,
                f"probe: measured and closed-form gradients disagree, cosines {cosines}")
        out["probe_min_cosine"] = min(cosines)
        out["reps"] = reps
        return out

    # -- checks --------------------------------------------------------

    def sample(self, data: Dataset):
        """A fixed sample of test users: left-padded prefixes and targets."""
        n = self.spec.config["max_len"]
        users = [s for s in data.sequences if len(s) >= 3]
        pick = np.sort(np.random.default_rng([self.seed, 11]).permutation(len(users))
                       [:SAMPLE_USERS])
        ids = np.zeros((len(pick), n), dtype=np.int64)
        targets = np.zeros(len(pick), dtype=np.int64)
        for row, u in enumerate(pick):
            prefix = users[u][:-1][-n:]
            ids[row, n - len(prefix):] = prefix
            targets[row] = users[u][-1]
        return ids, targets, [users[u] for u in pick]

    def check_ranks(self, ckpt: Path, data: Dataset, sample, reps) -> None:
        """``duorec eval`` on the sample users against an argsort brute force."""
        ids, targets, seqs = sample
        vocab = list(self._read_vocab(data.path))
        sample_dir = self.write_dataset(self.work / "sample", seqs, vocab)
        out = self.work / "sample_eval"
        self.cli("eval", "--checkpoint", str(ckpt), "--data", str(sample_dir.path),
                 "--split", "test", "--out", str(out))
        self.expect.evaluation(sample_dir.users, self.spec.config["layers"])
        item_emb = duorec.trainer.load_checkpoint(ckpt).params["item_emb"].data
        ranks = brute_force_ranks(reps, item_emb, targets)
        check_eval_json(json.loads((out / "eval.json").read_text()), ranks,
                        f"eval on {len(targets)} sample users")

    @staticmethod
    def _read_vocab(path: Path):
        with open(path / "vocab.csv") as f:
            next(f)
            for line in f:
                i, item, freq = line.rstrip("\r\n").split(",")
                yield int(i), item, int(freq)

    # -- the run -------------------------------------------------------

    def run_phase(self, name: str, inputs: Inputs) -> float:
        """One sample of a phase; returns its time. Garbage left by the
        previous sample is collected first, untimed, as a fresh process
        would start without it."""
        gc.collect()
        self.calibration.append(calibrate())
        getattr(self, f"{name}_phase")(inputs, len(self.times.get(name, ())))
        return self.times[name][-1]

    def window(self, inputs: Inputs, seconds: float) -> None:
        """Sample the phases over ``seconds``. Each runs once first, in
        order, because eval and diagnose read what train writes. After that
        the next sample goes to the phase that has used the least of its
        share of the window, so short phases run many times between two long
        ones and every phase sees the host over the whole window. A sample
        that would not end before the deadline is not started, once its
        phase has ``MIN_SAMPLES``."""
        shares = dict(zip(PHASES, self.spec.shares))
        deadline = time.perf_counter() + seconds
        used = {name: self.run_phase(name, inputs) for name in PHASES}
        while True:
            left = deadline - time.perf_counter()
            due = [p for p in PHASES if len(self.times[p]) < MIN_SAMPLES
                   or statistics.median(self.times[p]) < left]
            if not due:
                return
            name = min(due, key=lambda p: used[p] / shares[p])
            used[name] += self.run_phase(name, inputs)

    def run(self, seconds: float, traced: bool = False) -> dict:
        """Set up, then sample the phases over ``seconds``; returns the
        end-to-end metrics. A traced run, or one of 0 seconds, sets up once
        and samples each phase once, and reports those samples."""
        single = traced or seconds <= 0
        inputs = self.setup_all(*((1,) if single else (SETUP_REPS, SETUP_FLOOR_S)))
        if inputs.eval_data is None:        # offline: evaluate what prep writes
            inputs.eval_data = Dataset(self.work / "prep0", self.prepped)
        self.sample_users = self.sample(inputs.eval_data)
        if single:
            for name in PHASES:
                self.run_phase(name, inputs)
        else:
            self.window(inputs, seconds)

        geometry, evaluation = self.geometry_out, self.evaluation
        self.check_ranks(self.ckpt, inputs.eval_data, self.sample_users, geometry.pop("reps"))
        if "sweep_test_hr10" in self.notes:
            require(self.notes["sweep_test_hr10"] == evaluation["hr@10"],
                    "duorec eval disagrees with the sweep's own test HR@10")

        # Each phase's figure is its mean sample time, so a phase of many
        # short samples weighs the host's fast and slow spells as one long
        # sample would. A calibrated workload reports it at the host speed
        # where calibrate() takes CAL_NOMINAL_S.
        raw = {k: statistics.fmean(v) for k, v in self.times.items()}
        host = statistics.fmean(self.calibration)
        scale = CAL_NOMINAL_S / host if self.spec.calibrated else 1.0
        reported = {k: v * scale for k, v in raw.items()}
        self.notes |= {
            "phase_samples": {k: len(v) for k, v in self.times.items()},
            "phase_mean_s": raw,
            "phase_median_s": {k: statistics.median(v) for k, v in self.times.items()},
            "phase_reported_s": reported,
            "calibration_mean_s": host,
            "calibration_s": self.calibration,
            "calibrated": self.spec.calibrated,
            "phase_times_s": self.times,
            "log_events": inputs.log_events,
            "eval_users": inputs.eval_data.users,
            "uniformity": geometry["uniformity"],
            "alignment": geometry["alignment"],
            "probe_min_cosine": geometry["probe_min_cosine"],
        }
        return {
            "setup_s": reported["setup"],
            "train_examples_per_s": self.train_examples / reported["train"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eval_users_per_s": inputs.eval_data.users / reported["eval"],
            "prep_events_per_s": inputs.log_events / reported["prep"],
            "diagnose_s": reported["diagnose"],
            "test_hr10": evaluation["hr@10"],
            "tail_mass": geometry["tail_mass"],
        }


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "eval_users_per_s": "1/s",
    "prep_events_per_s": "1/s",
    "diagnose_s": "s",
    "test_hr10": "fraction",
    "tail_mass": "sv_sum",
}
