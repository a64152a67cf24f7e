"""Job lists and correctness gates of the four benchmark workloads.

Each workload is a fixed list of CLI configs.  The seed moves only values
that do not set the problem size (time-grid end points within a narrow
band; g_eff, gamma and nbar of the spectrum jobs inside the stable
regime), so every seed does the same work: truncation dimensions, grid
counts and the Lindblad space are constants.

Every job carries a gate that checks its CSV against an independent route,
never against the code path that wrote it.  Gates run outside the timed
region; their reference values are computed once per run and cached.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from optosqueeze.dynamics import evolve_unitary
from optosqueeze.model import ModelParams, atomic_coupling_spectrum, build_full_hamiltonian, hybrid_space
from optosqueeze.operators import QuantumState, position
from optosqueeze.spectrum import spectrum_regression

TAIL_LIMIT = 1e-6
THERMAL_REL_BOUND = 5e-3  # acceptance 04
CHAIN_DEV_BOUND = 0.05  # acceptance 06
SMAX_REL_BOUND = 1e-6  # DOP853 at rtol 1e-8 agrees with exact stepping to ~1e-10
SPECTRUM_REL_BOUND = 1e-9  # the two Langevin routes agree to ~1e-14; the CSV keeps 12 digits


@dataclass
class Job:
    name: str
    config: str  # config text without the `output` key
    check: Callable[[str], list]  # CSV path -> list of problems, empty when correct


def read_csv(path: str):
    """(meta, header, rows) of a CSV written by the CLI; rows are lists of strings."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    meta = {}
    for line in lines:
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
    body = [line for line in lines if not line.startswith("#")]
    return meta, body[0].split(","), [line.split(",") for line in body[1:]]


def _column(header, rows, name) -> np.ndarray:
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def _max_rel(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _config(**keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


# -- thermal_trace -----------------------------------------------------------
# The acceptance-04 oracle set: time-trace jobs at g_eff in {0.5, 1, 2} x
# nbar in {0, 10}, one squeezing period each.  The thermal legs build and
# diagonalise a dense H_eff up to d = 1512 (`exact_quadrature_moments`,
# dense operator construction); this workload sets the RSS high-water mark
# and uses no master equation and no spectrum.

def _thermal_check(path, rows_expected):
    meta, header, rows = read_csv(path)
    problems = []
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    dev = _max_rel(_column(header, rows, "variance_numeric"), _column(header, rows, "variance_closed_form"))
    if not dev <= THERMAL_REL_BOUND:
        problems.append(f"numeric vs closed form {dev:.3e} > {THERMAL_REL_BOUND:g}")
    tail = float(meta["tail_max"])
    if not tail <= TAIL_LIMIT:
        problems.append(f"tail_max {tail:.3e} > {TAIL_LIMIT:g}")
    return problems


def thermal_trace(rng: random.Random) -> list:
    jobs = []
    for g in (0.5, 1.0, 2.0):
        period = 2.0 * math.pi / math.sqrt(1.0 + 4.0 * g)
        for nbar in (0.0, 10.0):
            # the grid must start at 0: the Fock route prepares the state at the first grid point
            cfg = _config(command="time-trace", geff=g, nbar=nbar, time_start=0.0,
                          time_stop=period * rng.uniform(0.99, 1.01), time_count=201)
            jobs.append(Job(f"time-trace g={g:g} nbar={nbar:g}", cfg,
                            lambda path: _thermal_check(path, 201)))
    return jobs


# -- closed_chain and open_chain ---------------------------------------------
# Both workloads use the acceptance-06/07 elimination chain.  Its cavity is
# undriven (eps = 0) and stays in vacuum, so a 3-level cavity keeps the
# Lindblad tails under 1e-6; decay_immunity.cfg's driven cavity needs
# d_cav = 7 (tail 3.8e-3 at d_cav = 3), which is minutes per pass.
CHAIN = dict(delta=20.0, Delta=100.0, Omega=1.0, g1=1.0, g2=0.02)


def _report(path):
    _, _, rows = read_csv(path)
    return {r[0]: r[1] for r in rows}


def _tail_problems(rep):
    return [f"{k} = {v} > {TAIL_LIMIT:g}" for k, v in rep.items()
            if k.startswith("tail_") and not float(v) <= TAIL_LIMIT]


def _closed_check(path):
    rep = _report(path)
    problems = _tail_problems(rep)
    dev = float(rep["deviation_full_vs_effective"])
    if not dev < CHAIN_DEV_BOUND:
        problems.append(f"deviation_full_vs_effective {dev:.3e} >= {CHAIN_DEV_BOUND:g}")
    return problems


OPEN_LINDBLAD_DIMS = (3, 8)  # 3 x 8 x 3 = 72 dimensions
OPEN_LINDBLAD_TIMES = 160  # the library's lindblad_n_times default


def _closed_leg_smax(p: ModelParams, horizon: float) -> float:
    # The closed Lindblad leg has no collapse operators (gamma = 0), so exact
    # unitary stepping on the same 72-dimensional space must reproduce it.
    dc, dm = OPEN_LINDBLAD_DIMS
    space = hybrid_space(dc, dm, 3)
    e1 = atomic_coupling_spectrum(p).e1
    atom = np.array([e1[0], e1[1], 0.0], dtype=complex)
    psi0 = QuantumState.pure(space, np.kron(np.eye(dc * dm)[0], atom))
    traj = evolve_unitary(build_full_hamiltonian(p, space), psi0,
                          np.linspace(0.0, horizon, OPEN_LINDBLAD_TIMES))
    x = position(space, 1).matrix
    v = traj.vectors
    m1 = np.einsum("ti,ij,tj->t", v.conj(), x, v).real
    m2 = np.einsum("ti,ij,tj->t", v.conj(), x @ x, v).real
    var = m2 - m1 ** 2
    return -5.0 * math.log10(float(var.min()) / float(var[0]))


def _open_check(path, want):
    rep = _report(path)
    problems = _tail_problems(rep)
    got = float(rep["smax_closed_db"])
    if not abs(got - want) <= SMAX_REL_BOUND * abs(want):
        problems.append(f"smax_closed_db {got!r} vs unitary reference {want!r}")
    return problems


def closed_chain(rng: random.Random) -> list:
    # The unitary legs only, at d_cav 8 x d_mech 32 (a 768-dimensional full
    # model): `variance_trajectory`, `evolve_unitary` and operator
    # construction, which are under 6% of every other workload.  ROADMAP
    # item 2 rewrites them together with the Lindblad path, so without this
    # workload a Lindblad gain could hide a unitary loss.
    cfg = _config(command="validate-adiabatic", **CHAIN, atom_state="e1",
                  horizon=2.0 * math.pi * rng.uniform(0.99, 1.01), n_times=240, d_cav=8, d_mech=32)
    return [Job("validate-adiabatic d=8x32x3", cfg, _closed_check)]


def open_chain(rng: random.Random) -> list:
    # The chain with cavity and atom decay over decay_immunity.cfg's
    # first-dip horizon, grid and lindblad_rtol, with the Lindblad space cut
    # to 72 dimensions so that a pass takes seconds; nearly all of it is
    # DOP853 RHS calls in `evolve_lindblad` (ROADMAP item 2's mechanism).
    horizon = 3.2 * rng.uniform(0.995, 1.005)
    params = dict(CHAIN, kappa=0.5, Gamma_e=0.1)
    cfg = _config(command="validate-adiabatic", **params, atom_state="e1", horizon=horizon,
                  n_times=160, d_cav=4, d_mech=16, include_lindblad="true",
                  d_cav_lindblad=OPEN_LINDBLAD_DIMS[0], d_mech_lindblad=OPEN_LINDBLAD_DIMS[1],
                  lindblad_rtol=1e-8)
    smax = functools.cache(lambda: _closed_leg_smax(ModelParams(**params), horizon))
    return [Job("validate-adiabatic lindblad d=3x8x3", cfg, lambda path: _open_check(path, smax()))]


# -- spectrum_scan -----------------------------------------------------------
# Frequency-domain jobs only: three 20,001-point spectra and a spectrum-vs-g
# sweep over 4,000 couplings.  No Hilbert space is built, so this is the
# bypass workload for every operators/model/dynamics change, and it is where
# `cli` formats the most rows (about 64k, against 16 and 21 in the chain workloads).

def _spectrum_check(path, want):
    _, header, rows = read_csv(path)
    got = _column(header, rows, "variance_numeric")
    if got.shape != want.shape:
        return [f"{got.size} rows, expected {want.size}"]
    dev = _max_rel(got, want)
    if not dev <= SPECTRUM_REL_BOUND:
        return [f"variance_numeric vs spectrum_regression {dev:.3e} > {SPECTRUM_REL_BOUND:g}"]
    return []


def _stable_draw(rng: random.Random):
    # gamma > 0 and g_eff > 0 keep the damped model stationary
    return rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5), rng.uniform(0.0, 10.0)


def spectrum_scan(rng: random.Random) -> list:
    jobs = []
    omegas = (-4.0, 4.0, 20001)
    for i in range(3):
        g, gamma, nbar = _stable_draw(rng)
        p = ModelParams(gamma=gamma, nbar=nbar)
        cfg = _config(command="spectrum", geff=g, gamma=gamma, nbar=nbar,
                      omega_start=omegas[0], omega_stop=omegas[1], omega_count=omegas[2])
        ref = functools.cache(lambda p=p, g=g: spectrum_regression(p, g, np.linspace(*omegas)).variances)
        jobs.append(Job(f"spectrum #{i}", cfg, lambda path, ref=ref: _spectrum_check(path, ref())))
    _, gamma, nbar = _stable_draw(rng)
    omega = rng.uniform(0.5, 1.5)
    gs = (0.1, 5.0, 4000)
    p = ModelParams(gamma=gamma, nbar=nbar)
    cfg = _config(command="spectrum-vs-g", omega=omega, gamma=gamma, nbar=nbar,
                  geff_start=gs[0], geff_stop=gs[1], geff_count=gs[2])
    ref = functools.cache(lambda: np.array([
        spectrum_regression(p, float(g), np.array([omega])).variances[0] for g in np.linspace(*gs)]))
    jobs.append(Job("spectrum-vs-g", cfg, lambda path: _spectrum_check(path, ref())))
    return jobs


WORKLOADS = {
    "thermal_trace": thermal_trace,
    "closed_chain": closed_chain,
    "open_chain": open_chain,
    "spectrum_scan": spectrum_scan,
}


def build(workload: str, seed: int) -> list:
    """The job list of `workload` for `seed`; the same seed gives the same configs."""
    return WORKLOADS[workload](random.Random(seed))
