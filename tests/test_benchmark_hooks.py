"""The benchmark's hooks into the library still hold.

`perfbench/workloads.py` imports library names, and `perfbench/tracer.py`
patches the `Operator` arithmetic methods for a traced pass.  Importing
both checks every name the workloads import; entering `Tracer.installed`
checks that each patched method exists, and that the block puts the
originals back.
"""

import importlib
import sys
from pathlib import Path

from optosqueeze.operators import Operator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_operator_methods(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        importlib.import_module("workloads")
        originals = {name: Operator.__dict__[name] for name in tracer.OPERATOR_METHODS}
        with tracer.Tracer().installed():
            patched = [n for n, fn in originals.items() if Operator.__dict__[n] is not fn]
        restored = [n for n, fn in originals.items() if Operator.__dict__[n] is fn]
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    assert patched == list(tracer.OPERATOR_METHODS)
    assert restored == list(tracer.OPERATOR_METHODS)
