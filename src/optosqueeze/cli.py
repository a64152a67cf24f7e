"""Config-driven experiment runner.

Usage: ``optosqueeze <config-path>``.  The config is plain ``key = value``
text: one pair per line, ``#`` starts a comment, blank lines are ignored.
Each command accepts exactly the keys it reads, ``lindblad_rtol`` excepted
(see below): a key it does not read is an error at that key's line, as is
an unknown key (no silent typo tolerance).  Every run writes one CSV file:
``#``-prefixed metadata lines carrying the complete parameter set (so the
run is reproducible from the file alone), a header row, then
comma-separated numeric rows with 12 significant digits and LF endings.
Identical configs produce byte-identical files.  The CSV is written by
column: float array columns as ``%.12g``, every other column (ints,
true/false, labels, mixed values) as its `_fmt` strings, all through one
``%`` per block of rows, byte-identical to formatting every cell with
`_fmt`.

Exit codes: 0 success; 1 physics-domain error (unstable regime, overdamped
doublet, truncation cap) or a run out of memory, named on stderr; 2 config
error, with the line number on stderr (a value out of its key's domain,
such as a non-positive ``horizon``, is one, and so is an ``output`` path
that cannot be written).

Commands, their required keys and then their optional keys (``output`` is
always required; model parameters default to zero, ``omega_m`` to one):

* ``smax-sweep``: geff_start/stop/count; omega_m
* ``time-trace``: geff, time_start/stop/count; omega_m, nbar, d_mech
* ``spectrum``: geff; omega_start/stop/count (all or none, default 801
  points over [-4, 4] omega_m), omega_m, gamma, nbar
* ``spectrum-vs-g``: omega, geff_start/stop/count; omega_m, gamma, nbar
* ``validate-adiabatic``: horizon, delta, Delta; the other nine model
  parameters, atom_state, n_times, d_cav, d_mech, include_lindblad,
  d_cav_lindblad, d_mech_lindblad, lindblad_rtol (gamma, nbar, kappa,
  Gamma_e and the three lindblad keys only with include_lindblad = true;
  lindblad_rtol is checked and echoed but changes nothing, since both
  master-equation routes are exact and have no tolerance; it stays
  because the benchmark passes it, and ROADMAP item 1 lists every library
  name and key the benchmark reads)
* ``eigenmodes``: delta, Delta; Omega, g1, g2, eps

All frequencies and rates are in units of omega_m with hbar = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields as dc_fields

import numpy as np

from . import __version__
from .analytic import position_variance, s_max, spectrum_analytic
from .dynamics import _atom_vector, effective_variance_series, validate_adiabatic_chain
from .model import ModelParams, atomic_coupling_spectrum
from .spectrum import default_omega_grid, find_peaks, spectrum_numeric, trend_vs_geff

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

_PARAM_KEYS = tuple(f.name for f in dc_fields(ModelParams))

# key -> declared type; parsing is strict (ints reject decimals, bools
# accept only true/false)
_KEY_TYPES = {
    "command": str,
    "output": str,
    "geff": float,
    "geff_start": float,
    "geff_stop": float,
    "geff_count": int,
    "time_start": float,
    "time_stop": float,
    "time_count": int,
    "omega": float,
    "omega_start": float,
    "omega_stop": float,
    "omega_count": int,
    "horizon": float,
    "n_times": int,
    "d_cav": int,
    "d_mech": int,
    "d_cav_lindblad": int,
    "d_mech_lindblad": int,
    "lindblad_rtol": float,
    "include_lindblad": bool,
    "atom_state": str,
}
_KEY_TYPES.update({name: float for name in _PARAM_KEYS})

# validate-adiabatic reads these only through its master-equation pair
_LINDBLAD_ONLY = ("gamma", "nbar", "kappa", "Gamma_e",
                  "d_cav_lindblad", "d_mech_lindblad", "lindblad_rtol")

_GRIDS = (("geff_start", "geff_stop", "geff_count"),
          ("time_start", "time_stop", "time_count"),
          ("omega_start", "omega_stop", "omega_count"))


class ConfigError(Exception):
    """Config rejected; `line` is the 1-based offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    command: str
    output: str
    params: ModelParams
    options: dict = field(default_factory=dict)
    key_lines: dict = field(default_factory=dict)


def _convert(key: str, raw: str, line: int):
    want = _KEY_TYPES[key]
    if want is str:
        return raw
    if want is bool:
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(f"expected true/false for '{key}', got '{raw}'", line)
    if want is int:  # every integer key sizes a grid or a Fock factor
        try:
            value = int(raw, 10)
        except ValueError:
            raise ConfigError(f"expected integer for '{key}', got '{raw}'", line) from None
        if value < 2:
            raise ConfigError(f"'{key}' must be >= 2, got {value}", line)
        return value
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected number for '{key}', got '{raw}'", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"'{key}' must be finite, got '{raw}'", line)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate ``key = value`` config text into a RunConfig.

    Raises ConfigError, carrying the offending line number, for unknown or
    duplicate keys, keys the command does not read, malformed lines, bad
    value types, non-finite numbers, out-of-domain parameter values, grid
    counts, time-grid sizes or Fock dimensions below two, a non-positive
    `horizon` or `lindblad_rtol` (which nothing reads; see the command
    list), an `atom_state` vector that is zero or has no ground-doublet
    component, degenerate grids, and keys missing for the chosen command
    (the command line is cited for those).
    """
    entries: dict = {}
    lines: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        s = rawline.split("#", 1)[0].strip()
        if not s:
            continue
        if "=" not in s:
            raise ConfigError(f"expected 'key = value', got '{s}'", lineno)
        key, _, value = s.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key '{key}'", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key '{key}' (first set on line {lines[key]})", lineno)
        if value == "":
            raise ConfigError(f"empty value for '{key}'", lineno)
        entries[key] = _convert(key, value, lineno)
        lines[key] = lineno
        if key in ("horizon", "lindblad_rtol") and not entries[key] > 0:
            raise ConfigError(f"'{key}' must be > 0, got '{value}'", lineno)
        # model-parameter domain checks, reported at the offending line
        if key in _PARAM_KEYS:
            try:
                ModelParams(**{key: entries[key]})
            except ValueError as e:
                raise ConfigError(str(e), lineno) from None
        if key == "atom_state":
            try:
                if not isinstance(atom := _parse_atom_state(value), str):
                    _atom_vector(atom)
            except ValueError as e:
                raise ConfigError(str(e), lineno) from None
        if key == "command" and value not in _COMMANDS:
            raise ConfigError(
                f"unknown command '{value}' (choose from {', '.join(_COMMANDS)})", lineno
            )

    if "command" not in entries:
        raise ConfigError("missing key 'command'")
    command = entries["command"]
    _, required, optional = _COMMANDS[command]
    gated = () if entries.get("include_lindblad") or command != "validate-adiabatic" else _LINDBLAD_ONLY
    for key in entries:
        if key not in ("command", "output") + required + optional or key in gated:
            why = " without include_lindblad = true" if key in gated else ""
            raise ConfigError(f"command '{command}' does not read key '{key}'{why}", lines[key])
    if "output" not in entries:
        raise ConfigError(f"command '{command}' requires key 'output'", lines["command"])
    for key in required:
        if key not in entries:
            raise ConfigError(f"command '{command}' requires key '{key}'", lines["command"])

    for start, stop, count in _GRIDS:
        present = [k for k in (start, stop, count) if k in entries]
        if present and len(present) < 3:
            missing = next(k for k in (start, stop, count) if k not in entries)
            raise ConfigError(f"grid key '{missing}' missing (have {', '.join(present)})",
                              lines[present[0]])
        if len(present) == 3 and not entries[stop] > entries[start]:
            raise ConfigError(f"'{stop}' must exceed '{start}'", lines[stop])

    params = ModelParams(**{k: entries[k] for k in _PARAM_KEYS if k in entries})
    options = {k: v for k, v in entries.items() if k not in _PARAM_KEYS and k not in ("command", "output")}
    return RunConfig(command=command, output=entries["output"], params=params,
                     options=options, key_lines=lines)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.12g}"


_CSV_CHUNK = 2048  # rows converted and formatted at a time


def _write_csv(path: str, meta: dict, extra: list, header: list, columns: list):
    """Write the metadata lines, the header and the rows of `columns` to `path`.

    Rows are formatted `_CSV_CHUNK` at a time, each chunk with one ``%``:
    its format string repeats the row format ``%.12g`` for a float ndarray
    column and ``%s`` for any other, one row per line, and its cells are
    the chunk's columns interleaved row by row by ``np.column_stack``.  A
    float column enters as its float values; any other column (ints,
    bools, strings, mixed quantity/value entries) as an object column of
    its `_fmt` strings.  ``"%.12g" % x`` and `_fmt`'s
    ``f"{float(x):.12g}"`` share one float-to-string conversion, so the
    bytes equal a per-cell `_fmt` rendering.  Each chunk becomes one
    string, so a long file's Python floats are never all alive at once.
    The text is built in full before the file is opened.
    """
    floats = [isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns]
    row_fmt = ",".join("%.12g" if f else "%s" for f in floats)
    out = [f"# optosqueeze {__version__}",
           "# units: hbar = 1; frequencies and rates in units of omega_m"]
    out += [f"# {k} = {_fmt(v)}" for k, v in sorted(meta.items())]
    out += extra
    out.append(",".join(header))
    n_rows = min((len(col) for col in columns), default=0)
    for start in range(0, n_rows, _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, n_rows)
        part = [col[start:stop] for col in columns]
        cells = np.column_stack([c if f else np.array([_fmt(v) for v in c], dtype=object)
                                 for c, f in zip(part, floats)])
        out.append("\n".join([row_fmt] * (stop - start)) % tuple(cells.ravel().tolist()))
    text = "\n".join(out) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _run_smax_sweep(cfg: RunConfig):
    o = cfg.options
    grid = np.linspace(o["geff_start"], o["geff_stop"], o["geff_count"])
    smax = np.array([s_max(g, cfg.params.omega_m) for g in grid])
    return ["g_eff", "s_max_db"], [grid, smax], {}, []


def _run_time_trace(cfg: RunConfig):
    p, o = cfg.params, cfg.options
    times = np.linspace(o["time_start"], o["time_stop"], o["time_count"])
    closed = np.array([position_variance(o["geff"], p.omega_m, p.nbar, t) for t in times])
    ts = effective_variance_series(o["geff"], p.omega_m, p.nbar, times,
                                   d_start=o.get("d_mech"))
    meta = {"d_mech_used": ts.meta["dims"][0],
            "tail_max": max(ts.meta["tail_max"].values())}
    return ["t", "variance_numeric", "variance_closed_form"], [times, ts.values, closed], meta, []


def _run_spectrum(cfg: RunConfig):
    p, o = cfg.params, cfg.options
    if "omega_count" in o:
        omegas = np.linspace(o["omega_start"], o["omega_stop"], o["omega_count"])
    else:
        omegas = default_omega_grid(p.omega_m)
    series = spectrum_numeric(p, o["geff"], omegas)
    closed = spectrum_analytic(p, o["geff"], omegas)
    columns = [omegas, series.variances, closed.variance, closed.P, closed.Q]
    peaks = find_peaks(series)
    meta = {"n_peaks": len(peaks)}
    extra = [f"# peak = {_fmt(w)},{_fmt(v)}" for w, v in peaks]
    return ["omega", "variance_numeric", "variance_closed_form", "P", "Q"], columns, meta, extra


def _run_spectrum_vs_g(cfg: RunConfig):
    p, o = cfg.params, cfg.options
    grid = np.linspace(o["geff_start"], o["geff_stop"], o["geff_count"])
    series = trend_vs_geff(p, o["omega"], grid)
    columns = [series.omegas, series.variances]
    return ["g_eff", "variance_numeric"], columns, {"monotone": series.meta["monotone"]}, []


def _parse_atom_state(raw: str):
    if raw in ("e1", "e2"):
        return raw
    try:
        comps = [float(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"atom_state must be e1, e2, or comma-separated reals, got '{raw}'") from None
    if not all(math.isfinite(c) for c in comps):
        raise ValueError(f"'atom_state' must be finite, got '{raw}'")
    return np.array(comps)


def _run_validate_adiabatic(cfg: RunConfig):
    p, o = cfg.params, cfg.options
    atom = _parse_atom_state(o.get("atom_state", "e1"))
    kwargs = {k: o[k] for k in ("n_times", "d_cav", "d_mech") if k in o}
    if o.get("include_lindblad", False):
        kwargs["lindblad_dims"] = (o.get("d_cav_lindblad"), o.get("d_mech_lindblad"))
    rep = validate_adiabatic_chain(p, atom, o["horizon"], **kwargs)
    rows = []
    for k in sorted(rep.ratios):
        rows.append((f"ratio_{k}", rep.ratios[k]))
    for k in sorted(rep.deviations):
        rows.append((f"deviation_{k}", rep.deviations[k]))
    rows.append(("stark_winner", rep.stark_winner))
    rows.append(("atom_weight_e1", rep.atom_weights[0]))
    rows.append(("atom_weight_e2", rep.atom_weights[1]))
    dc, dm = rep.legs["two_level_textbook"].meta["dims"][:2]  # the last unitary run's record
    rows += [("d_cav_used", dc), ("d_mech_used", dm)]
    if "lindblad_closed" in rep.legs:
        ldims = rep.legs["lindblad_closed"].meta["dims"]
        rows.append(("d_cav_lindblad", ldims[0]))
        rows.append(("d_mech_lindblad", ldims[1]))
    # tail rows for the unitary and effective legs only: the master-equation pair's stay in its records
    for leg in sorted(k for k in rep.legs if not k.startswith("lindblad_")):
        rows.append((f"tail_{leg}", max(rep.legs[leg].meta["tail_max"].values())))
    if "lindblad_closed" in rep.legs:
        rows.append(("smax_closed_db", rep.squeezing_db["lindblad_closed"]))
        rows.append(("smax_open_db", rep.squeezing_db["lindblad_open"]))
        rows.append(("smax_degradation", rep.smax_degradation))
    return ["quantity", "value"], list(zip(*rows)), {}, []


def _run_eigenmodes(cfg: RunConfig):
    spec = atomic_coupling_spectrum(cfg.params)
    rows = [
        (1, spec.lambda1, spec.g_eff_1, spec.e1[0], spec.e1[1]),
        (2, spec.lambda2, spec.g_eff_2, spec.e2[0], spec.e2[1]),
    ]
    meta = {"alpha": spec.alpha}
    return ["branch", "lambda", "g_eff", "e_component_0", "e_component_1"], list(zip(*rows)), meta, []


# command -> (runner, required keys, optional keys): exactly the keys the runner
# reads besides `command` and `output`; parse_config rejects every other key
_COMMANDS = {
    "smax-sweep": (_run_smax_sweep, ("geff_start", "geff_stop", "geff_count"), ("omega_m",)),
    "time-trace": (_run_time_trace, ("geff", "time_start", "time_stop", "time_count"),
                   ("omega_m", "nbar", "d_mech")),
    "spectrum": (_run_spectrum, ("geff",),
                 ("omega_start", "omega_stop", "omega_count", "omega_m", "gamma", "nbar")),
    "spectrum-vs-g": (_run_spectrum_vs_g, ("omega", "geff_start", "geff_stop", "geff_count"),
                      ("omega_m", "gamma", "nbar")),
    "validate-adiabatic": (_run_validate_adiabatic, ("horizon", "delta", "Delta"),
                           ("omega_m", "g1", "g2", "Omega", "eps", "gamma", "nbar", "kappa",
                            "Gamma_e", "atom_state", "n_times", "d_cav", "d_mech",
                            "include_lindblad", "d_cav_lindblad", "d_mech_lindblad",
                            "lindblad_rtol")),
    "eigenmodes": (_run_eigenmodes, ("delta", "Delta"), ("Omega", "g1", "g2", "eps")),
}


def run(cfg: RunConfig) -> str:
    """Execute a parsed config and write its CSV; returns the output path.

    Physics-domain violations (unstable regime, overdamped doublet,
    truncation cap) propagate as exceptions; `main` maps them to exit
    status 1.  An output path that cannot be opened or written raises
    ConfigError on the ``output`` line.
    """
    header, columns, run_meta, extra = _COMMANDS[cfg.command][0](cfg)
    meta = {"command": cfg.command, "output": cfg.output, **asdict(cfg.params), **cfg.options, **run_meta,
            "rows": len(columns[0])}
    try:
        _write_csv(cfg.output, meta, extra, header, columns)
    except OSError as e:
        raise ConfigError(f"cannot write output '{cfg.output}': {e.strerror or e}",
                          cfg.key_lines.get("output")) from None
    return cfg.output


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args and args[0] in ("-h", "--help"):
        print(f"usage: optosqueeze <config-path>\n\n{__doc__}")
        return 0
    if len(args) != 1:
        print("usage: optosqueeze <config-path>", file=sys.stderr)
        return 2
    try:
        with open(args[0], encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        path = run(cfg)
    except ConfigError as e:
        where = f"line {e.line}: " if e.line is not None else ""
        print(f"config error: {where}{e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as e:
        # a MemoryError comes from a large allocation in `run`; parsing allocates nothing large
        oom = f"command {cfg.command} ran out of memory: " if isinstance(e, MemoryError) else ""
        print(f"error: {oom}{e}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
