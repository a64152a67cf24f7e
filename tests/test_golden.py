"""Golden regression: the fast experiment configs reproduce `scripts/out/`.

Each config is rerun through `cli.main` in a scratch directory and its CSV
is compared with the committed one, field by field.  Fields computed in
closed form (grids, analytic columns, counts, labels, metadata) must match
byte for byte.  Fields produced by a numerical route (Fock-space
evolution, Langevin solves, eigensolvers) must match to 1e-9 relative:
their bytes are reproducible on one machine and BLAS build, not across
them.  Truncation tails are probabilities whose digits below 1e-15 are
round-off, so they get that absolute floor on top of the relative bound.

`decay_immunity.cfg` is left out here: the master-equation integration of
its open leg takes about 2 s (its closed leg has no collapse channel and
runs unitarily), and acceptance 07 reruns it under the same rule.
"""

import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

from optosqueeze.cli import main, parse_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

REL_TOL = 1e-9
TAIL_FLOOR = 1e-15

# config name -> field names (column headers, metadata keys or, in
# quantity/value tables, quantities) that a numerical route computes
NUMERIC_FIELDS = {
    "smax_sweep": (),
    "time_trace": ("variance_numeric", "tail_max"),
    "spectrum_thermal": ("variance_numeric", "peak"),
    "spectrum_trend": ("variance_numeric",),
    "eigenmodes": ("lambda", "g_eff", "e_component_*"),
    "validate_adiabatic": ("deviation_*", "atom_weight_*", "tail_*"),
    "stark_variant": ("deviation_*", "atom_weight_*", "tail_*"),
}


def csv_fields(text):
    """The file as a list of (field name, text) pairs, in file order.

    Metadata lines `# key = v1,v2` give one field per value, named by the
    key; data cells are named by their column, or in a quantity/value table
    by the row's quantity.  Other lines are single unnamed fields.
    """
    out, header = [], None
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            out += [(key, v) for v in value.split(",")]
        elif line.startswith("#") or header is None:
            if not line.startswith("#"):
                header = line.split(",")
            out.append((None, line))
        else:
            cells = line.split(",")
            names = ["quantity", cells[0]] if header == ["quantity", "value"] else header
            out += list(zip(names, cells))
    return out


def field_matches(name, got, want, numeric):
    if name is None or not any(fnmatch(name, pat) for pat in numeric):
        return got == want
    floor = TAIL_FLOOR if name.startswith("tail") else 0.0
    return abs(float(got) - float(want)) <= max(REL_TOL * abs(float(want)), floor)


def rerun_config(name, numeric, tmp_path, monkeypatch):
    """Rerun `scripts/<name>.cfg` through `cli.main` in tmp_path.

    Returns the fresh CSV's fields and the (name, got, want) triples that
    differ from the committed CSV under `field_matches`.
    """
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main([str(SCRIPTS / f"{name}.cfg")]) == 0
    got = csv_fields((tmp_path / "out" / f"{name}.csv").read_text())
    want = csv_fields((SCRIPTS / "out" / f"{name}.csv").read_text())
    assert [n for n, _ in got] == [n for n, _ in want]
    bad = [(n, g, w) for (n, g), (_, w) in zip(got, want) if not field_matches(n, g, w, numeric)]
    return got, bad


@pytest.mark.parametrize("name", sorted(NUMERIC_FIELDS))
def test_config_reproduces_committed_csv(name, tmp_path, monkeypatch):
    _, bad = rerun_config(name, NUMERIC_FIELDS[name], tmp_path, monkeypatch)
    assert not bad, f"{len(bad)} fields differ, first ones: {bad[:5]}"


def test_numeric_fields_are_checked_numerically():
    # a relative change of 1e-8 in a numeric field fails, a byte change in
    # a closed-form field fails, and tails below the floor are not compared
    assert field_matches("variance_numeric", "1.00000000001", "1", ("variance_numeric",))
    assert not field_matches("variance_numeric", "1.00000001", "1", ("variance_numeric",))
    assert not field_matches("variance_closed_form", "1.0", "1", ("variance_numeric",))
    assert field_matches("tail_full", "3e-26", "1e-26", ("tail_*",))
    assert not field_matches("tail_full", "2e-7", "1e-7", ("tail_*",))


def test_every_config_is_run_committed_and_compared():
    # a config joins the suite in three places by hand: the loop of
    # scripts/run_all.sh, its committed CSV, and a rerun against that CSV,
    # here through NUMERIC_FIELDS or in an acceptance test's rerun_config
    loop = re.search(r"for cfg in (.*?); do", (SCRIPTS / "run_all.sh").read_text(), re.S).group(1)
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    rerun = set(NUMERIC_FIELDS) | set(re.findall(r'rerun_config\("(\w+)"', acceptance))
    names = sorted(cfg.stem for cfg in SCRIPTS.glob("*.cfg"))
    assert names
    for name in names:
        assert name in re.findall(r"\w+", loop), f"{name}.cfg is not run by run_all.sh"
        assert parse_config((SCRIPTS / f"{name}.cfg").read_text()).output == f"out/{name}.csv"
        assert (SCRIPTS / "out" / f"{name}.csv").is_file(), f"out/{name}.csv is not committed"
        assert name in rerun, f"{name}.cfg is never rerun against its committed CSV"
