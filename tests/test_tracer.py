"""The benchmark's tracer (``perfbench/tracer.py``) wraps duorec's functions by
name. A refactor that renames or drops one of them fails here, in tier 1,
and not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import duorec.cli  # noqa: F401  (loads every module the tracer patches)
import duorec.synthetic  # noqa: F401
from duorec.autodiff import Tensor
from duorec.rng import RngStream
from duorec.trainer import Adam, TrainConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in a duorec module, and the patched classes' methods."""
    out = {(name, attr): value
           for name, mod in sys.modules.items()
           if mod is not None and (name == "duorec" or name.startswith("duorec."))
           for attr, value in vars(mod).items()}
    for cls in (RngStream, Tensor, Adam):
        out |= {(cls.__name__, attr): value for attr, value in vars(cls).items()}
    return out


def test_install_wraps_every_name_and_restore_puts_it_back():
    import duorec.encoder
    before = bindings()
    tracer = load_tracer().Tracer()
    tracer.install()                       # raises if a traced name has no binding
    try:
        assert duorec.encoder.encode_sequence is not before[("duorec.encoder",
                                                             "encode_sequence")]
        params = duorec.encoder.init_params(
            TrainConfig(d=4, layers=1, heads=1, max_len=3), 6, RngStream(0, "init"))
        duorec.encoder.encode_sequence(np.array([[0, 1, 2]]), params, RngStream(0, "s"))
        assert tracer.counts["encoder.passes"] == 1
        assert tracer.counts["autodiff.gelu.calls"] == 1
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
