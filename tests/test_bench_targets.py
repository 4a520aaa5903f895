"""Every package name that the traced benchmark (`bench/run.py --trace 1`)
patches still exists.  A renamed or deleted one would otherwise show only as
`cannot trace ...` in a traced run, with its layer metrics reading 0."""
import importlib
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_no_missing_trace_targets():
    # Executed from its source, so nothing is written under bench/.
    layers = types.ModuleType("layers")
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), layers.__dict__)
    rc = {
        name: importlib.import_module(f"rcsynth.{name}")
        for name in ("cli", "io", "synth_basic", "synth_lupanov", "bounds")
    }
    assert layers.missing_targets(rc) == []
