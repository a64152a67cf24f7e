"""The benchmark's hooks into the library still hold.

`perfbench/workloads.py` imports library names, and `perfbench/tracer.py`
patches the `Operator` arithmetic methods for a traced pass.  Importing
both checks every name the workloads import; entering `Tracer.installed`
checks that each patched method exists, and that the block puts the
originals back.  The open_chain gate's reference is run once as well, so
the library surface it reads (`evolve_unitary(...).vectors`,
`QuantumState.pure`, `Operator.matrix`) is held here and not only by a
benchmark pass, and so is the route the workload's open leg takes: one
exact propagator exp(G h).  A traced H_eff series and a traced chain with
its master-equation pair move every engine counter the tracer derives from
the engines' returns (`exact_quadrature_moments`' tails, `evolve_unitary`'s
`meta["tail_max"]`, `evolve_lindblad`'s `meta["n_rhs_evals"]`), so a change
to those records fails here and not only in a traced benchmark pass.
"""

import importlib
import sys
from pathlib import Path

from optosqueeze import dynamics
from optosqueeze.dynamics import validate_adiabatic_chain
from optosqueeze.model import ModelParams
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


def test_open_chain_gate_reference_matches_the_chain(monkeypatch):
    # open_chain's parameters and its 3 x 8 x 3 master-equation space; the
    # gate's unitary reference must reproduce the chain's closed leg
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        p = ModelParams(**workloads.CHAIN, kappa=0.5, Gamma_e=0.1)
        want = workloads._closed_leg_smax(p, 3.2)
    finally:
        sys.modules.pop("workloads", None)
    rep = validate_adiabatic_chain(p, "e1", horizon=3.2, n_times=workloads.OPEN_LINDBLAD_TIMES,
                                   d_cav=4, d_mech=16, lindblad_dims=workloads.OPEN_LINDBLAD_DIMS)
    closed, opened = rep.legs["lindblad_closed"].meta, rep.legs["lindblad_open"].meta
    assert closed["dims"][:2] == opened["dims"][:2] == workloads.OPEN_LINDBLAD_DIMS
    # gamma = 0 leaves the closed leg unitary; the open leg's 160 entries step exp(G h)
    assert (closed["method"], opened["method"]) == ("eigh", "lindblad-expm")
    assert abs(rep.squeezing_db["lindblad_closed"] - want) <= workloads.SMAX_REL_BOUND * abs(want)


def test_tracer_counts_the_engines(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        tracer = importlib.import_module("tracer")
        p = ModelParams(**workloads.CHAIN, kappa=0.5, Gamma_e=0.1)
        with tracer.Tracer().installed() as tr:  # the wrappers sit on the module attributes
            dynamics.effective_variance_series(0.5, 1.0, 0.0, [0.0, 0.5, 1.0])
            dynamics.validate_adiabatic_chain(p, "e1", horizon=0.4, n_times=5, d_cav=3, d_mech=8,
                                              lindblad_dims=(3, 8))
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    assert tr.moments_max_dim > 0 and tr.truncation_attempts > 0
    assert tr.lindblad_max_dim == 3 * 8 * 3
    assert tr.lindblad_rhs_evals == 0  # no master-equation route evaluates a right-hand side
    assert tr.call_count("dynamics.evolve_unitary") > 0
    assert tr.call_count("dynamics.evolve_lindblad") > 0
