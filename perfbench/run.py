"""Benchmark of the optosqueeze CLI path, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of thermal_trace, closed_chain, open_chain, spectrum_scan, or `all`,
which runs each workload in a process of its own and prints one summary
line per workload.  See perfbench/README.md for the workloads and the
metrics.

One process runs one workload as a closed loop: it drives the public CLI
path in process (`cli.parse_config`, then `cli.run`), one job after
another, and repeats the workload's job list (a pass) until S seconds
have gone by, and at least MIN_PASSES times.  Peak RSS therefore belongs
to that workload.  After each pass, outside the timed region, every job's
CSV goes through its correctness gate (`workloads.py`).

--trace 0 reports the end-to-end metrics, with every pass and set-up
sample timed on the host clock (`hostclock.py`), which takes the shared
host's changes of speed out of the figures; --trace 1 alternates
untraced and traced passes, timed in plain wall seconds, and reports the
per-module breakdown.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# names only: workloads.py, which holds the job lists, imports numpy and so
# may only be imported after the BLAS thread count is set
WORKLOADS = ("thermal_trace", "closed_chain", "open_chain", "spectrum_scan")

# The BLAS thread count is part of the workload (the d = 1512 thermal job
# runs about 1.7x faster on two OpenBLAS threads than on one), so it is set
# here rather than inherited.  One thread was the steadier setting on a
# shared two-vCPU machine (README.md).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
SETUP_SAMPLES = 5
# what a CLI invocation imports before its first job can start
SETUP_IMPORTS = "import numpy, scipy.linalg, scipy.integrate, optosqueeze.cli"
UNACCOUNTED_LIMIT = 0.05  # share of traced wall time outside every module span


def setup_sample(clock) -> tuple:
    """(raw, scaled) seconds from spawning a fresh interpreter to the end of the CLI's imports.

    The child only imports, so the figure also includes interpreter
    teardown.  The first call writes the bytecode caches that every later
    invocation finds in place; callers discard it.
    """
    return clock.point(lambda: subprocess.run([sys.executable, "-c", SETUP_IMPORTS], check=True))


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
    }


class Runner:
    """Runs passes over one workload's jobs and gates their outputs."""

    def __init__(self, cli, jobs, outdir, clock):
        self.cli = cli
        self.clock = clock
        self.jobs = jobs
        os.makedirs(outdir, exist_ok=True)
        self.paths = [os.path.join(outdir, f"job{i}.csv") for i in range(len(jobs))]
        self.configs = [job.config + f"output = {path}\n" for job, path in zip(jobs, self.paths)]
        self.reference = None  # CSV bytes of the first pass; later passes must match them
        self.first_pass_rss_mb = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, scaled=True) -> tuple:
        """One timed pass over the jobs, then the gates.

        Returns the pass's (raw, scaled) seconds; with scaled=False the
        host clock stays off and both are the wall seconds.
        """
        for path in self.paths:
            if os.path.exists(path):
                os.remove(path)
        errors = {}
        cli = self.cli

        def jobs():
            for i, text in enumerate(self.configs):
                try:
                    cli.run(cli.parse_config(text))
                except Exception:  # a failing job is counted and reported, and the pass goes on
                    errors[i] = traceback.format_exc().strip()

        if scaled:
            times = self.clock.time(jobs)
        else:
            t0 = perf_counter()
            jobs()
            times = (perf_counter() - t0,) * 2
        if self.first_pass_rss_mb is None:
            # before the gates, whose reference values would raise the mark of later passes
            # (README.md, "Why peak_rss_mb is taken after the first pass")
            self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB

        outputs = []
        for i, (job, path) in enumerate(zip(self.jobs, self.paths)):
            problems = [errors[i]] if i in errors else None
            data = None
            if problems is None:
                try:
                    with open(path, "rb") as f:
                        data = f.read()
                    problems = job.check(path)
                except (OSError, ValueError, KeyError, IndexError) as e:
                    problems = [f"unreadable output: {type(e).__name__}: {e}"]
                if self.reference is not None and data != self.reference[i]:
                    problems.append("CSV differs from the first pass's")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{job.name}: {'; '.join(problems)}")
            outputs.append(data)
        if self.reference is None:
            self.reference = outputs
        return times


def end_to_end(runner, seconds):
    """Timed passes for `seconds`, at least MIN_PASSES; returns ((raw, scaled) per pass, per set-up sample).

    The set-up samples are taken between passes, so that they and the
    passes see the same stretch of machine load.
    """
    setup_sample(runner.clock)
    walls, setup = [], []
    t_start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - t_start < seconds:
        walls.append(runner.run_pass())
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(runner.clock))
    setup += [setup_sample(runner.clock) for _ in range(SETUP_SAMPLES - len(setup))]
    return walls, setup


def traced(runner, seconds, tracer):
    """An untraced warm-up pass, then untraced/traced pairs while another pair fits in `seconds`.

    The gates compare every traced CSV byte for byte with the warm-up
    pass's.  Returns (untraced walls, traced walls, rows, CSV bytes), the
    last two per pass.
    """
    t_start = perf_counter()
    runner.run_pass(scaled=False)
    untraced_walls, traced_walls = [], []
    while not traced_walls or perf_counter() - t_start + untraced_walls[-1] + traced_walls[-1] <= seconds:
        untraced_walls.append(runner.run_pass(scaled=False)[0])
        with tracer.installed():
            traced_walls.append(runner.run_pass(scaled=False)[0])
    outputs = [data for data in runner.reference if data is not None]
    rows = sum(sum(1 for line in data.splitlines() if not line.startswith(b"#")) - 1 for data in outputs)
    return untraced_walls, traced_walls, rows, sum(len(data) for data in outputs)


def layer_metrics(tr, untraced_walls, traced_walls, rows, csv_bytes):
    n = len(traced_walls)
    wall = sum(traced_walls) / n
    accounted = sum(tr.self_s.values()) / n
    lindblad_s = tr.inclusive("dynamics.evolve_lindblad")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "operators.self_s": (tr.self_s["operators"] / n, "s"),
        "operators.calls": (tr.calls["operators"] / n, "count"),
        "operators.dense_mb_built": (tr.dense_bytes / 1e6 / n, "MB"),
        "model.build_s": (tr.inclusive("model.build_full_hamiltonian", "model.build_two_level_hamiltonian",
                                       "model.build_effective_hamiltonian") / n, "s"),
        "model.self_s": (tr.self_s["model"] / n, "s"),
        "model.calls": (tr.calls["model"] / n, "count"),
        "dynamics.moments_s": (tr.inclusive("dynamics.exact_quadrature_moments") / n, "s"),
        "dynamics.moments_calls": (tr.call_count("dynamics.exact_quadrature_moments") / n, "count"),
        "dynamics.moments_max_dim": (tr.moments_max_dim, "count"),
        "dynamics.lindblad_s": (lindblad_s / n, "s"),
        "dynamics.lindblad_rhs_evals": (tr.lindblad_rhs_evals / n, "count"),
        "dynamics.lindblad_ms_per_rhs": (ratio(1e3 * lindblad_s, tr.lindblad_rhs_evals), "ms"),
        "dynamics.lindblad_max_dim": (tr.lindblad_max_dim, "count"),
        "dynamics.unitary_s": (tr.inclusive("dynamics.evolve_unitary") / n, "s"),
        "dynamics.unitary_calls": (tr.call_count("dynamics.evolve_unitary") / n, "count"),
        "dynamics.extract_s": (tr.inclusive("dynamics.variance_trajectory") / n, "s"),
        "dynamics.truncation_attempts": (tr.truncation_attempts / n, "count"),
        "dynamics.truncation_useful_ratio": (ratio(tr.truncation_useful, tr.truncation_attempts), "ratio"),
        "dynamics.self_s": (tr.self_s["dynamics"] / n, "s"),
        "spectrum.self_s": (tr.self_s["spectrum"] / n, "s"),
        "spectrum.points": (tr.spectrum_points / n, "count"),
        "spectrum.us_per_point": (ratio(1e6 * tr.self_s["spectrum"], tr.spectrum_points), "us"),
        "spectrum.peaks_s": (tr.inclusive("spectrum.find_peaks") / n, "s"),
        "analytic.self_s": (tr.self_s["analytic"] / n, "s"),
        "analytic.calls": (tr.calls["analytic"] / n, "count"),
        "analytic.us_per_call": (ratio(1e6 * tr.self_s["analytic"], tr.calls["analytic"]), "us"),
        "cli.parse_s": (tr.inclusive("cli.parse_config") / n, "s"),
        "cli.self_s": (tr.self_s["cli"] / n, "s"),
        "cli.rows": (rows, "count"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (sum(traced_walls) / sum(untraced_walls), "ratio"),
        "trace.unaccounted_s": (wall - accounted, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "optosqueeze")):
        print(f"perfbench: no optosqueeze sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is imported, here and in every child
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)

    from optosqueeze import cli

    import hostclock
    import tracer
    import workloads

    env = environment()
    runner = Runner(cli, workloads.build(args.workload, args.seed), os.path.join(WORK, args.workload),
                    hostclock.HostClock())
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **env}
    if args.trace:
        tr = tracer.Tracer()
        metrics = layer_metrics(tr, *traced(runner, args.seconds, tr))
        share = metrics["trace.unaccounted_s"]["value"] / metrics["trace.wall_s"]["value"]
        if not abs(share) <= UNACCOUNTED_LIMIT:
            runner.problems.append(f"unaccounted traced time is {share:.1%} of trace.wall_s "
                                   f"(limit {UNACCOUNTED_LIMIT:.0%})")
        for name, m in metrics.items():
            print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    else:
        passes, setup = end_to_end(runner, args.seconds)
        raw_walls, walls = zip(*passes)
        raw_setup, setup = zip(*setup)
        q1, wall_s, q3 = statistics.quantiles(walls, n=4)
        setup_q1, setup_s, setup_q3 = statistics.quantiles(setup, n=4)
        rss_mb = runner.first_pass_rss_mb
        passed = (runner.attempted - runner.failed) / runner.attempted
        info.update(wall_s_q1=q1, wall_s_q3=q3, passes=len(walls), wall_s_samples=walls,
                    raw_wall_s_samples=raw_walls, setup_s_q1=setup_q1, setup_s_q3=setup_q3,
                    setup_s_samples=setup, raw_setup_s_samples=raw_setup)
        print(f"{args.workload}: wall_s = {wall_s:.4f} s (median, quartiles {q1:.4f}, {q3:.4f}; "
              f"n = {len(walls)}; raw median {statistics.median(raw_walls):.4f})"
              f"  peak_rss_mb = {rss_mb:.1f} MB"
              f"  setup_s = {setup_s:.4f} s (median, n = {len(setup)}; "
              f"raw median {statistics.median(raw_setup):.4f})"
              f"  failed_ratio = {runner.failed / runner.attempted:g} ({runner.failed}/{runner.attempted})")
        metrics = {
            # both times in host-clock seconds: see hostclock.py and README.md
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "passed_ratio": {"value": passed, "unit": "ratio"},
        }
    for problem in runner.problems:
        print(f"{args.workload}: FAILED {problem}")
    print(json.dumps(info))
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so that its peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
