"""In-memory spans and counters around duorec's public functions.

The tracer replaces a function at every name binding under ``duorec`` that
refers to it, so a caller that imported the name directly
(``from .encoder import encode_sequence`` in ``duorec.trainer``) is measured
as well as the defining module. Methods are patched on their class, and each
autodiff op's backward closure is wrapped on the tensor the op returns.
Spans are ``[name, start, end, parent]`` lists kept in memory and written out
once the run ends. Nothing inside ``src/duorec`` is changed; ``restore``
puts every original back.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

AUTODIFF_OPS = (
    "matmul", "add", "mul", "gelu", "layer_norm", "softmax_rows", "dropout",
    "gather_rows", "reshape", "transpose", "logsumexp_rows",
    "cross_entropy_from_logits",
)

# (module, function, span name) for plain functions, patched at every binding.
FUNCTIONS = (
    ("duorec.data", "ingest", "data.ingest"),
    ("duorec.data", "build_sequences", "data.build_sequences"),
    ("duorec.data", "split_leave_one_out", "data.split"),
    ("duorec.data", "build_target_index", "data.target_index"),
    ("duorec.encoder", "encode_sequence", "encoder.encode_sequence"),
    ("duorec.encoder", "encode_twins", "encoder.encode_twins"),
    ("duorec.contrastive", "contrastive_views", "contrastive.views"),
    ("duorec.contrastive", "assemble", "contrastive.assemble"),
    ("duorec.contrastive", "nce_regularizer", "contrastive.nce"),
    ("duorec.trainer", "train", "trainer.train"),
    ("duorec.trainer", "evaluate", "trainer.evaluate"),
    ("duorec.trainer", "save_checkpoint", "trainer.checkpoint_save"),
    ("duorec.trainer", "load_checkpoint", "trainer.checkpoint_load"),
    ("duorec.metrics", "rank_full_catalog", "metrics.rank"),
    ("duorec.metrics", "singular_spectrum", "metrics.spectrum"),
    ("duorec.metrics", "project_2d", "metrics.project"),
    ("duorec.metrics", "jacobi_eigh", "metrics.jacobi"),
    ("duorec.metrics", "uniformity", "metrics.uniformity"),
    ("duorec.metrics", "alignment", "metrics.alignment"),
    ("duorec.metrics", "gradient_degeneration_probe", "metrics.probe"),
    ("duorec.synthetic", "make_clustered_corpus", "synthetic.corpus"),
    ("duorec.cli", "load_dataset_dir", "cli.load_dataset"),
    ("duorec.cli", "main", "cli.main"),
)

# (module, class, method, span name) patched on the class itself.
METHODS = (
    ("duorec.rng", "RngStream", "uniform", "rng.draw"),
    ("duorec.rng", "RngStream", "normal", "rng.draw"),
    ("duorec.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("duorec.autodiff", "Tensor", "_accumulate", "autodiff.accumulate"),
    ("duorec.trainer", "Adam", "step", "trainer.adam"),
    ("duorec.trainer", "Adam", "zero_grad", "trainer.zero_grad"),
)


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [
        "data.assemble_s", "data.batches", "data.examples", "data.ingest_s",
        "data.build_sequences_s", "data.split_s", "data.target_index_s",
        "rng.draw_calls", "rng.draw_s", "rng.values_drawn",
        "encoder.passes", "encoder.rows_encoded", "encoder.forward_s",
        "contrastive.views_s", "contrastive.nce_s",
        "autodiff.backward_s",
    ]
    for op in AUTODIFF_OPS:
        names += [f"autodiff.{op}.calls", f"autodiff.{op}.fwd_s",
                  f"autodiff.{op}.bwd_s", f"autodiff.{op}.out_mb"]
    names += [
        "trainer.steps", "trainer.step_s_p50", "trainer.warmup_step_s",
        "trainer.adam_s", "trainer.zero_grad_s", "trainer.eval_s",
        "trainer.checkpoint_save_s", "trainer.checkpoint_load_s",
        "metrics.rank_s", "metrics.ranked_users", "metrics.spectrum_s",
        "metrics.project_s", "metrics.jacobi_calls", "metrics.uniformity_s",
        "metrics.alignment_s", "metrics.probe_s",
        "synthetic.corpus_s", "cli.load_dataset_s",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith("_p50"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Tracer:
    """Spans and counts recorded by wrappers installed over ``duorec``."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.step_times: list[float] = []    # non-warm-up steps
        self.warmup_step_times: list[float] = []
        self.step_windows: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_yield = 0.0
        self._steps_in_run = 0

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a benchmark phase."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installation --------------------------------------------------

    def _rebind(self, original, wrapper) -> int:
        """Point every ``duorec`` module attribute bound to ``original`` at ``wrapper``."""
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "duorec" or mod_name.startswith("duorec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    bound += 1
        return bound

    def _timed(self, fn, name: str, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary listed above."""
        import duorec.autodiff  # noqa: F401  (load every module before rebinding)
        import duorec.cli  # noqa: F401
        import duorec.synthetic  # noqa: F401

        afters = {
            "encoder.encode_sequence": self._after_encode,
            "metrics.rank": self._after_rank,
        }
        befores = {"trainer.train": self._before_train}
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._timed(original, span, afters.get(span), befores.get(span))
            if self._rebind(original, wrapper) == 0:
                raise RuntimeError(f"no binding found for {mod_name}.{fn_name}")

        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            after = {"rng.draw": self._after_draw,
                     "trainer.adam": self._after_adam}.get(span)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._timed(original, span, after))

        ad = sys.modules["duorec.autodiff"]
        for op in AUTODIFF_OPS:
            original = getattr(ad, op)
            if self._rebind(original, self._op_wrapper(original, op)) == 0:
                raise RuntimeError(f"no binding found for duorec.autodiff.{op}")

        data = sys.modules["duorec.data"]
        original = data.iter_epoch
        if self._rebind(original, self._epoch_wrapper(original)) == 0:
            raise RuntimeError("no binding found for duorec.data.iter_epoch")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-boundary counters -------------------------------------------

    def _after_encode(self, args, kwargs, out):
        self.counts["encoder.passes"] += 1
        self.counts["encoder.rows_encoded"] += int(out.shape[0])

    def _after_rank(self, args, kwargs, out):
        self.counts["metrics.ranked_users"] += int(len(out))

    def _after_draw(self, args, kwargs, out):
        self.counts["rng.draw_calls"] += 1
        self.counts["rng.values_drawn"] += int(out.size)

    def _before_train(self):
        self._steps_in_run = 0

    def _after_adam(self, args, kwargs, out):
        end = time.perf_counter()
        duration = end - self._last_yield
        self.step_windows.append((self._last_yield, end))
        self.counts["trainer.steps"] += 1
        self._steps_in_run += 1
        (self.warmup_step_times if self._steps_in_run == 1
         else self.step_times).append(duration)

    def _op_wrapper(self, fn, op: str):
        tracer = self
        fwd_name, bwd_name = f"autodiff.{op}", f"autodiff.{op}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts[f"autodiff.{op}.calls"] += 1
            if any(out is a for a in args):
                return out              # dropout at rate 0 returns its input
            tracer.counts[f"autodiff.{op}.out_bytes"] += out.data.nbytes
            closure = out._backward
            if closure is not None:
                def timed_backward(g):
                    j = tracer._open(bwd_name)
                    try:
                        closure(g)
                    finally:
                        tracer._close(j)
                out._backward = timed_backward
            return out

        return wrapper

    def _epoch_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open("data.iter_epoch")
                try:
                    batch = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counts["data.batches"] += 1
                tracer.counts["data.examples"] += batch.size
                tracer._last_yield = time.perf_counter()
                yield batch

        return wrapper

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed span durations by span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def per_layer(self) -> dict[str, float]:
        t = self.totals()
        c = self.counts
        m = {
            "data.assemble_s": t["data.iter_epoch"],
            "data.batches": c["data.batches"],
            "data.examples": c["data.examples"],
            "data.ingest_s": t["data.ingest"],
            "data.build_sequences_s": t["data.build_sequences"],
            "data.split_s": t["data.split"],
            "data.target_index_s": t["data.target_index"],
            "rng.draw_calls": c["rng.draw_calls"],
            "rng.draw_s": t["rng.draw"],
            "rng.values_drawn": c["rng.values_drawn"],
            "encoder.passes": c["encoder.passes"],
            "encoder.rows_encoded": c["encoder.rows_encoded"],
            # encode_twins only calls encode_sequence, so the passes hold it all
            "encoder.forward_s": t["encoder.encode_sequence"],
            "contrastive.views_s": t["contrastive.views"] + t["contrastive.assemble"],
            "contrastive.nce_s": t["contrastive.nce"],
            "autodiff.backward_s": t["autodiff.backward"],
        }
        for op in AUTODIFF_OPS:
            m[f"autodiff.{op}.calls"] = c[f"autodiff.{op}.calls"]
            m[f"autodiff.{op}.fwd_s"] = t[f"autodiff.{op}"]
            m[f"autodiff.{op}.bwd_s"] = t[f"autodiff.{op}.bwd"]
            m[f"autodiff.{op}.out_mb"] = c[f"autodiff.{op}.out_bytes"] / 1e6
        m |= {
            "trainer.steps": c["trainer.steps"],
            "trainer.step_s_p50": (statistics.median(self.step_times)
                                   if self.step_times else 0.0),
            "trainer.warmup_step_s": (statistics.mean(self.warmup_step_times)
                                      if self.warmup_step_times else 0.0),
            "trainer.adam_s": t["trainer.adam"],
            "trainer.zero_grad_s": t["trainer.zero_grad"],
            "trainer.eval_s": t["trainer.evaluate"],
            "trainer.checkpoint_save_s": t["trainer.checkpoint_save"],
            "trainer.checkpoint_load_s": t["trainer.checkpoint_load"],
            "metrics.rank_s": t["metrics.rank"],
            "metrics.ranked_users": c["metrics.ranked_users"],
            "metrics.spectrum_s": t["metrics.spectrum"],
            "metrics.project_s": t["metrics.project"],
            "metrics.jacobi_calls": sum(1 for s in self.spans if s[0] == "metrics.jacobi"),
            "metrics.uniformity_s": t["metrics.uniformity"],
            "metrics.alignment_s": t["metrics.alignment"],
            "metrics.probe_s": t["metrics.probe"],
            "synthetic.corpus_s": t["synthetic.corpus"],
            "cli.load_dataset_s": t["cli.load_dataset"],
        }
        missing = set(per_layer_names()) ^ set(m)
        if missing:
            raise RuntimeError(f"per-layer metric set mismatch: {sorted(missing)}")
        return m

    def op_shares(self) -> dict[str, float]:
        """Each autodiff op's forward and backward time inside training steps,
        as shares of all step time (validation and eval passes excluded).

        ``accumulate`` is the gradient accumulation inside the ops' backward
        closures; it is also contained in their ``bwd`` times.
        """
        steps = sum(end - start for start, end in self.step_windows)
        if steps <= 0:
            return {}
        starts = [start for start, _ in self.step_windows]
        inside: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            if not name.startswith("autodiff."):
                continue
            k = bisect.bisect_right(starts, start) - 1
            if k >= 0 and start < self.step_windows[k][1]:
                inside[name] += end - start
        shares = {op: {"fwd": inside[f"autodiff.{op}"] / steps,
                       "bwd": inside[f"autodiff.{op}.bwd"] / steps}
                  for op in AUTODIFF_OPS}
        shares["accumulate"] = {"fwd": 0.0, "bwd": inside["autodiff.accumulate"] / steps}
        return shares

    def dump(self, path) -> None:
        """Write spans as ``{"names": [...], "spans": [[name_id, start, end, parent], ...]}``."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), round(start, 7),
                         round(end, 7), parent])
        with open(path, "w") as f:
            json.dump({"names": list(names), "spans": rows,
                       "counts": dict(self.counts)}, f, separators=(",", ":"))
