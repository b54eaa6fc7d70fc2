"""The benchmark's view of the package: every traced name resolves, and the
environment record still builds.

perfbench/ is not a package, so its modules are loaded by file path. Each is
registered in sys.modules before it runs, as dataclasses need to find the
module of the class they decorate.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from qcoremap import INFINITE, fgp

ROOT = Path(__file__).resolve().parent.parent


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


tracing = load("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
run = load("perfbench_run", ROOT / "perfbench" / "run.py")


def test_every_hook_resolves_and_is_removed():
    original = getattr(fgp, "roee_refine", None)
    split = np.zeros((4, 4))
    split[0, 2] = split[2, 0] = INFINITE
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert fgp.roee_refine is not original
        fgp.roee_refine(split, [0, 0, 1, 1])
        fgp.roee_refine(np.zeros((4, 4)), [0, 0, 1, 1])
    finally:
        tracer.remove()
    assert fgp.roee_refine is original
    # The fgp.refine measure reads the initial partition as the second argument.
    assert [span[5] for span in tracer.spans if span[0] == "fgp.refine"] == [1, 0]


def test_environment_record_builds():
    assert run.environment()["numba_enabled"] is False
