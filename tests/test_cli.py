"""Config parsing, command execution, and CSV output of the CLI."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optosqueeze
from optosqueeze import cli, dynamics
from optosqueeze.analytic import spectrum_analytic
from optosqueeze.cli import ConfigError, _fmt, _write_csv, main, parse_config, run
from optosqueeze.model import ModelParams
from optosqueeze.spectrum import find_peaks, spectrum_numeric


def read_csv(path):
    """Split a written file into (#-metadata dict, header list, float rows)."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, _, v = body.partition("=")
                meta.setdefault(k.strip(), []).append(v.strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestParseConfig:
    def test_example_sweep_config(self):
        cfg = parse_config(
            "command = smax-sweep\ngeff_start = 0\ngeff_stop = 8\n"
            "geff_count = 81\noutput = out.csv\n"
        )
        assert cfg.command == "smax-sweep"
        assert cfg.output == "out.csv"
        assert cfg.options["geff_count"] == 81
        assert isinstance(cfg.options["geff_count"], int)
        assert cfg.params == ModelParams()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(
            "# a sweep\n\ncommand = smax-sweep  # inline note\n"
            "geff_start = 0\ngeff_stop = 8\ngeff_count = 81\noutput = o.csv\n"
        )
        assert cfg.command == "smax-sweep"

    def test_bad_int_cites_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                "command = smax-sweep\ngeff_start = 0\ngeff_stop = 8\n"
                "geff_count = two\noutput = o.csv\n"
            )
        assert err.value.line == 4
        assert "geff_count" in str(err.value)

    def test_unknown_key_cites_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("commnd = spectrum\n")
        assert err.value.line == 1
        assert "commnd" in str(err.value)

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("command = sweep-smax\noutput = o.csv\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = spectrum\ngeff = 1\ngeff = 2\noutput = o.csv\n")
        assert err.value.line == 3

    def test_missing_required_key_names_command_and_key(self):
        with pytest.raises(ConfigError, match="smax-sweep.*geff_count"):
            parse_config("command = smax-sweep\ngeff_start = 0\ngeff_stop = 8\noutput = o.csv\n")

    def test_missing_output(self):
        with pytest.raises(ConfigError, match="output"):
            parse_config("command = eigenmodes\ndelta = 1\nDelta = 10\n")

    def test_count_below_two(self):
        with pytest.raises(ConfigError, match=">= 2"):
            parse_config(
                "command = smax-sweep\ngeff_start = 0\ngeff_stop = 8\n"
                "geff_count = 1\noutput = o.csv\n"
            )

    def test_degenerate_grid(self):
        with pytest.raises(ConfigError, match="exceed"):
            parse_config(
                "command = smax-sweep\ngeff_start = 8\ngeff_stop = 8\n"
                "geff_count = 5\noutput = o.csv\n"
            )

    def test_partial_grid(self):
        with pytest.raises(ConfigError, match="omega_count"):
            parse_config(
                "command = spectrum\ngeff = 1\ngamma = 1\n"
                "omega_start = -2\nomega_stop = 2\noutput = o.csv\n"
            )

    def test_negative_rate_cites_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = spectrum\ngeff = 1\ngamma = -1\noutput = o.csv\n")
        assert err.value.line == 3

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = spectrum\njust words\n")
        assert err.value.line == 2

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("include_lindblad = yes\n")

    def test_bad_atom_state_cites_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = validate-adiabatic\natom_state = ground\n")
        assert err.value.line == 2

    def test_delta_keys_are_case_sensitive(self):
        cfg = parse_config(
            "command = eigenmodes\ndelta = 2\nDelta = 50\noutput = o.csv\n"
        )
        assert cfg.params.delta == 2.0
        assert cfg.params.Delta == 50.0

    def test_lindblad_tuning_keys(self):
        cfg = parse_config(
            "command = validate-adiabatic\ndelta = 10\nDelta = 40\nhorizon = 3\n"
            "include_lindblad = true\nd_cav_lindblad = 7\nd_mech_lindblad = 16\n"
            "lindblad_rtol = 1e-8\noutput = o.csv\n"
        )
        assert cfg.options["include_lindblad"] is True
        assert cfg.options["d_cav_lindblad"] == 7
        assert cfg.options["lindblad_rtol"] == 1e-8


def run_cli(tmp_path, text, name="run.cfg"):
    cfg_path = tmp_path / name
    cfg_path.write_text(text)
    return main([str(cfg_path)])


class TestCommands:
    def test_smax_sweep_row_at_unit_coupling(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run_cli(
            tmp_path,
            f"command = smax-sweep\ngeff_start = 0\ngeff_stop = 8\n"
            f"geff_count = 81\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["g_eff", "s_max_db"]
        assert len(rows) == 81
        at_one = [r for r in rows if float(r[0]) == 1.0]
        assert math.isclose(float(at_one[0][1]), 5 * math.log10(5), rel_tol=1e-11)
        # g_eff = 0 squeezes nothing
        assert float(rows[0][1]) == 0.0

    def test_time_trace_zero_coupling_constant(self, tmp_path):
        out = tmp_path / "tt.csv"
        code = run_cli(
            tmp_path,
            f"command = time-trace\ngeff = 0\ntime_start = 0\ntime_stop = 5\n"
            f"time_count = 11\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["t", "variance_numeric", "variance_closed_form"]
        for r in rows:
            assert float(r[1]) == 0.25
            assert float(r[2]) == 0.25

    def test_time_trace_columns_agree(self, tmp_path):
        out = tmp_path / "tt.csv"
        code = run_cli(
            tmp_path,
            f"command = time-trace\ngeff = 1\ntime_start = 0\ntime_stop = 2\n"
            f"time_count = 21\nd_mech = 64\noutput = {out}\n",
        )
        assert code == 0
        _, _, rows = read_csv(out)
        vals = np.array([[float(c) for c in r] for r in rows])
        assert np.allclose(vals[:, 1], vals[:, 2], rtol=0, atol=1e-8)
        assert vals[:, 1].min() < 0.06  # deep squeezing happens inside the window

    def test_spectrum_reference_point(self, tmp_path):
        out = tmp_path / "sp.csv"
        code = run_cli(
            tmp_path,
            f"command = spectrum\ngeff = 1\ngamma = 1\nnbar = 10\n"
            f"omega_start = -2\nomega_stop = 2\nomega_count = 5\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["omega", "variance_numeric", "variance_closed_form", "P", "Q"]
        mid = [r for r in rows if float(r[0]) == 0.0][0]
        # the two columns agree at omega = 0: the Langevin solution and the
        # closed form P/Q = 26.25/27.5625 both give 5/21
        assert math.isclose(float(mid[1]), 5 / 21, rel_tol=1e-10)
        assert math.isclose(float(mid[2]), 5 / 21, rel_tol=1e-10)
        assert float(mid[3]) == 26.25
        assert float(mid[4]) == 27.5625

    def test_spectrum_default_grid_and_peaks(self, tmp_path):
        out = tmp_path / "sp.csv"
        code = run_cli(
            tmp_path,
            f"command = spectrum\ngeff = 1\ngamma = 1\nnbar = 10\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert len(rows) == 801
        assert float(rows[0][0]) == -4.0
        assert float(rows[-1][0]) == 4.0
        assert meta["n_peaks"] == ["2"]
        # peak metadata lines must agree with the peak finder on the same data
        omegas = np.array([float(r[0]) for r in rows])
        varis = np.array([float(r[1]) for r in rows])
        got = [tuple(map(float, v.split(","))) for v in meta["peak"]]
        from optosqueeze.model import ModelParams as MP
        from optosqueeze.spectrum import spectrum_numeric

        series = spectrum_numeric(MP(gamma=1.0, nbar=10.0), 1.0, omegas)
        assert np.allclose(varis, series.variances, rtol=1e-10)
        for (wg, vg), (wr, vr) in zip(got, series.peaks):
            assert math.isclose(wg, wr, abs_tol=1e-9)
            assert math.isclose(vg, vr, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "omega, geff_stop, label, steps",
        [(1, 5, "decreasing", {-1.0}), (4, 1, "increasing", {1.0}), (2, 2, "none", {-1.0, 1.0})],
        ids=["decreasing", "increasing", "none"],
    )
    def test_spectrum_vs_g_monotone_metadata(self, tmp_path, omega, geff_stop, label, steps):
        out = tmp_path / "tr.csv"
        code = run_cli(
            tmp_path,
            f"command = spectrum-vs-g\nomega = {omega}\ngamma = 1\nnbar = 10\n"
            f"geff_start = 0.1\ngeff_stop = {geff_stop}\ngeff_count = 9\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["g_eff", "variance_numeric"]
        assert meta["monotone"] == [label]
        vals = [float(r[1]) for r in rows]
        assert set(np.sign(np.diff(vals))) == steps

    def test_eigenmodes_frozen_case(self, tmp_path):
        out = tmp_path / "eig.csv"
        code = run_cli(
            tmp_path,
            f"command = eigenmodes\ndelta = 1\nDelta = 2\nOmega = 3\ng1 = 2\n"
            f"g2 = 0.5\neps = 2\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["branch", "lambda", "g_eff", "e_component_0", "e_component_1"]
        assert [float(rows[0][1]), float(rows[1][1])] == [12.0, -3.0]
        assert [float(rows[0][2]), float(rows[1][2])] == [8.0, 0.5]
        assert meta["alpha"] == ["3"]

    def test_validate_adiabatic_rows(self, tmp_path):
        out = tmp_path / "va.csv"
        code = run_cli(
            tmp_path,
            f"command = validate-adiabatic\ndelta = 20\nDelta = 100\nOmega = 1\n"
            f"g1 = 1\ng2 = 0.02\nhorizon = 3.2\nn_times = 60\nd_cav = 4\n"
            f"d_mech = 12\natom_state = e1\noutput = {out}\n",
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["quantity", "value"]
        table = {r[0]: r[1] for r in rows}
        assert float(table["ratio_Delta_over_drive"]) == 100.0
        assert float(table["ratio_delta_over_residual"]) == 1000.0
        assert float(table["deviation_full_vs_effective"]) < 0.01
        assert table["stark_winner"] in ("as-written", "textbook", "tie")
        assert float(table["atom_weight_e1"]) == 1.0
        assert table["d_mech_used"] == "12"

    def test_lindblad_dims_default_to_the_dims_the_chain_reached(self, tmp_path):
        # only d_cav_lindblad is given, and the unitary legs double d_mech
        # from 3 to 12; the master-equation legs take the doubled value
        out = tmp_path / "va.csv"
        code = run_cli(
            tmp_path,
            f"command = validate-adiabatic\ndelta = 2\nDelta = 10\nOmega = 1\n"
            f"g1 = 1\ng2 = 0.4\nkappa = 0.1\nhorizon = 3\nn_times = 40\nd_cav = 3\n"
            f"d_mech = 3\ninclude_lindblad = true\nd_cav_lindblad = 3\n"
            f"lindblad_rtol = 1e-6\noutput = {out}\n",
        )
        assert code == 0
        table = {r[0]: r[1] for r in read_csv(out)[2]}
        assert table["d_mech_used"] == "12"
        assert table["d_mech_lindblad"] == table["d_mech_used"]
        assert table["d_cav_lindblad"] == "3"

    def test_master_equation_legs_double_from_too_small_dims(self, tmp_path):
        # at d_mech_lindblad = 3 the master-equation tails exceed 1e-6; the
        # pair doubles d_mech to 12 instead of exiting 1, and reads what a run
        # started at 12 reads
        tables = []
        for d_start in (3, 12):
            out = tmp_path / f"va{d_start}.csv"
            code = run_cli(
                tmp_path,
                f"command = validate-adiabatic\ndelta = 2\nDelta = 10\nOmega = 1\n"
                f"g1 = 1\ng2 = 0.4\nkappa = 0.1\nhorizon = 3\nn_times = 40\nd_cav = 3\n"
                f"d_mech = 3\ninclude_lindblad = true\nd_cav_lindblad = 3\n"
                f"d_mech_lindblad = {d_start}\nlindblad_rtol = 1e-6\noutput = {out}\n",
            )
            assert code == 0
            tables.append({r[0]: r[1] for r in read_csv(out)[2]})
        doubled, direct = tables
        assert (doubled["d_cav_lindblad"], doubled["d_mech_lindblad"]) == ("3", "12")
        for key in ("smax_closed_db", "smax_open_db", "smax_degradation"):
            assert doubled[key] == direct[key]


class TestOutputFormat:
    def test_byte_determinism(self, tmp_path):
        text = (
            "command = spectrum\ngeff = 1\ngamma = 1\nnbar = 10\n"
            "omega_start = -3\nomega_stop = 3\nomega_count = 41\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(tmp_path, text + f"output = {out1}\n", "a.cfg") == 0
        assert run_cli(tmp_path, text + f"output = {out2}\n", "b.cfg") == 0
        body1 = out1.read_bytes().replace(str(out1).encode(), b"OUT")
        body2 = out2.read_bytes().replace(str(out2).encode(), b"OUT")
        assert body1 == body2

    def test_lf_endings_and_twelve_digits(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli(
            tmp_path,
            f"command = smax-sweep\ngeff_start = 0\ngeff_stop = 1\n"
            f"geff_count = 3\noutput = {out}\n",
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        meta, header, rows = read_csv(out)
        third = [r for r in rows if float(r[0]) == 0.5][0]
        assert third[1] == f"{5 * math.log10(3):.12g}"

    def test_metadata_echoes_full_parameter_set(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli(
            tmp_path,
            f"command = spectrum\ngeff = 0.5\ngamma = 0.7\noutput = {out}\n",
        )
        meta, _, _ = read_csv(out)
        from dataclasses import fields

        for f in fields(ModelParams):
            assert f.name in meta
        assert meta["gamma"] == ["0.7"]
        assert meta["command"] == ["spectrum"]
        first = out.read_text().splitlines()[0]
        assert first.startswith("# optosqueeze ")  # version stamp line

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "out.csv"
        run_cli(
            tmp_path,
            f"command = smax-sweep\ngeff_start = 0\ngeff_stop = 8\n"
            f"geff_count = 17\noutput = {out}\n",
        )
        meta, header, rows = read_csv(out)
        data = np.array([[float(c) for c in r] for r in rows])
        assert data.shape == (17, len(header))
        # 12 significant digits round-trip through repr exactly
        for r in rows:
            for cell in r:
                assert f"{float(cell):.12g}" == cell


def csv_body(path):
    """The header and data lines of a written file, metadata dropped."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestWriterContract:
    """`_write_csv` renders columns with the bytes of a per-cell `_fmt` rendering."""

    def test_float_array_matches_per_cell_fmt(self, tmp_path):
        col = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 123456789012.5,
                        1 / 3, -2.5e-7, 0.0, 1.0, -4.0])
        out = tmp_path / "f.csv"
        _write_csv(str(out), {}, [], ["x", "y"], [col, col[::-1].copy()])
        want = [",".join((_fmt(a), _fmt(b))) for a, b in zip(col, col[::-1])]
        assert csv_body(out) == ["x,y"] + want
        assert want[0] == "-0,-4" and want[3] == "nan,-2.5e-07"

    def test_other_columns_go_through_fmt(self, tmp_path):
        out = tmp_path / "m.csv"
        columns = [
            ["stark_winner", "d_cav_used", "ratio_x", "flag"],
            ["e1", np.int64(8), 1 / 3, True],
            np.array([1, 2, 3, 4]),
            [True, False, True, False],
            np.array([1.0, 2.0, 1e16, -0.0]),
        ]
        _write_csv(str(out), {"rows": 4, "monotone": "decreasing", "alpha": 3.0}, [],
                   ["quantity", "value", "branch", "flag", "x"], columns)
        assert csv_body(out) == [
            "quantity,value,branch,flag,x",
            "stark_winner,e1,1,true,1",
            "d_cav_used,8,2,false,2",
            "ratio_x,0.333333333333,3,true,1e+16",
            "flag,true,4,false,-0",
        ]
        meta, _, _ = read_csv(out)
        assert meta["rows"] == ["4"] and meta["monotone"] == ["decreasing"] and meta["alpha"] == ["3"]

    def test_chunk_boundaries_match_per_cell_fmt(self, tmp_path):
        # rows are formatted cli._CSV_CHUNK at a time: two full chunks and
        # one row over, with float, int and string columns, read as one text
        n = 2 * cli._CSV_CHUNK + 1
        rng = np.random.default_rng(25)
        columns = [
            rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n),
            np.arange(n) - 7,
            [f"s{i}" for i in range(n)],
            np.linspace(-1.0, 1.0, n),
        ]
        out = tmp_path / "c.csv"
        _write_csv(str(out), {"rows": n}, ["# extra = 1"], ["a", "b", "c", "d"], columns)
        body = "\n".join(",".join(_fmt(v) for v in row) for row in zip(*columns))
        assert out.read_bytes().split(b"a,b,c,d\n", 1)[1] == (body + "\n").encode()
        assert len(csv_body(out)) == n + 1

    def test_spectrum_body_matches_per_cell_fmt(self, tmp_path):
        out = tmp_path / "sp.csv"
        code = run_cli(
            tmp_path,
            f"command = spectrum\ngeff = 0.8\ngamma = 1.3\nnbar = 4\n"
            f"omega_start = -4\nomega_stop = 4\nomega_count = 20001\noutput = {out}\n",
        )
        assert code == 0
        p = ModelParams(gamma=1.3, nbar=4.0)
        omegas = np.linspace(-4.0, 4.0, 20001)
        series = spectrum_numeric(p, 0.8, omegas)
        closed = spectrum_analytic(p, 0.8, omegas)
        rows = zip(omegas, series.variances, closed.variance, closed.P, closed.Q)
        want = ["omega,variance_numeric,variance_closed_form,P,Q"]
        want += [",".join(_fmt(v) for v in row) for row in rows]
        assert csv_body(out) == want
        meta, _, _ = read_csv(out)
        assert meta["rows"] == ["20001"]


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        code = run_cli(tmp_path, "command = smax-sweep\ngeff_count = two\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_domain_error_exit_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = time-trace\ngeff = -0.3\ntime_start = 0\ntime_stop = 9\n"
            f"time_count = 5\noutput = {out}\n",
        )
        assert code == 1
        assert "g_eff" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_delta_chain_exit_1(self, tmp_path, capsys):
        # the elimination needs delta != 0; the chain raises before any leg runs
        out = tmp_path / "x.csv"
        code = run_cli(tmp_path, f"command = validate-adiabatic\ndelta = 0\nDelta = 100\nhorizon = 1\n"
                                 f"output = {out}\n")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: atomic_coupling_spectrum requires Delta != 0 and delta != 0\n")
        assert not out.exists()

    def test_domain_error_prints_plain_numbers(self, tmp_path, capsys):
        # the sweep hands numpy scalars to analytic.s_max, whose message
        # used to show them as np.float64(-0.1)
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = smax-sweep\ngeff_start = -0.1\ngeff_stop = 1\ngeff_count = 3\noutput = {out}\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "-0.1" in err
        assert "np.float64" not in err
        assert not out.exists()

    def test_overdamped_spectrum_runs(self, tmp_path):
        # negative coupling with strong damping is stationary, so it must work
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = spectrum\ngeff = -0.3\ngamma = 2\nnbar = 1\n"
            f"omega_start = -2\nomega_stop = 2\nomega_count = 9\noutput = {out}\n",
        )
        assert code == 0

    def test_unstable_spectrum_exit_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = spectrum\ngeff = -0.3\ngamma = 0.1\nnbar = 1\n"
            f"omega_start = -2\nomega_stop = 2\nomega_count = 9\noutput = {out}\n",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "time-trace", (exhausted, *cli._COMMANDS["time-trace"][1:]))
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = time-trace\ngeff = 1\ntime_start = 0\ntime_stop = 1\n"
            f"time_count = 5\noutput = {out}\n",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: command time-trace ran out of memory: Unable to allocate 8.00 GiB for an array\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, unread, keys", [
        ("smax-sweep", "horizon = 3", "geff_start = 0\ngeff_stop = 1\ngeff_count = 3\n"),
        ("time-trace", "gamma = 0.5", "geff = 1\ntime_start = 0\ntime_stop = 1\ntime_count = 5\n"),
        ("time-trace", "omega_count = 5", "geff = 1\ntime_start = 0\ntime_stop = 1\ntime_count = 5\n"),
        ("spectrum", "d_mech = 16", "geff = 1\ngamma = 1\n"),
        ("spectrum-vs-g", "kappa = 0.5",
         "omega = 1\ngeff_start = 0.1\ngeff_stop = 5\ngeff_count = 3\ngamma = 1\n"),
        ("validate-adiabatic", "geff = 1", "delta = 20\nDelta = 100\nhorizon = 1\n"),
        ("eigenmodes", "omega_m = 2", "delta = 1\nDelta = 2\n"),
    ], ids=["smax-sweep-horizon", "time-trace-gamma", "time-trace-omega_count", "spectrum-d_mech",
            "spectrum-vs-g-kappa", "validate-adiabatic-geff", "eigenmodes-omega_m"])
    def test_unread_key_exit_2(self, tmp_path, capsys, command, unread, keys):
        # each of these used to run and echo the ignored key in the metadata
        # (time-trace with omega_count failed on a missing 'omega_start')
        out = tmp_path / "x.csv"
        code = run_cli(tmp_path, f"command = {command}\n{unread}\n{keys}output = {out}\n")
        assert code == 2
        key = unread.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"config error: line 2: command '{command}' does not read key '{key}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("unread, switch", [
        ("gamma = 0.1\nnbar = 1", ""),
        ("kappa = 0.5\nGamma_e = 0.1", ""),
        ("d_cav_lindblad = 3\nd_mech_lindblad = 8", "include_lindblad = false\n"),
        ("lindblad_rtol = 1e-3", ""),
    ], ids=["damping", "decay", "lindblad-dims", "lindblad_rtol"])
    def test_master_equation_key_without_include_lindblad_exit_2(self, tmp_path, capsys, unread,
                                                                  switch):
        # validate-adiabatic reads these keys only through its master-equation
        # pair; without include_lindblad = true they used to change nothing and
        # still be echoed into the CSV metadata
        out = tmp_path / "x.csv"
        key = unread.split(" = ")[0]
        code = run_cli(tmp_path, f"command = validate-adiabatic\n{unread}\ndelta = 20\nDelta = 100\n"
                                 f"horizon = 1\n{switch}output = {out}\n")
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: line 2: command 'validate-adiabatic' does not read key '{key}' "
            "without include_lindblad = true\n")
        assert not out.exists()

    def test_closed_leg_without_squeezing_exit_1(self, tmp_path, capsys):
        # eps = 0 leaves e2 = |1> stationary, so the closed master-equation leg
        # never squeezes and the degradation is undefined; this used to die
        # with a TypeError traceback from formatting smax_degradation = None
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = validate-adiabatic\ndelta = 20\nDelta = 100\nOmega = 1\ng1 = 1\n"
            f"g2 = 0.02\nkappa = 0.5\ngamma = 0.1\natom_state = e2\nhorizon = 3.2\n"
            f"n_times = 40\nd_cav = 4\nd_mech = 8\ninclude_lindblad = true\n"
            f"d_cav_lindblad = 3\nd_mech_lindblad = 8\nlindblad_rtol = 1e-8\noutput = {out}\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the smax degradation is undefined") and "Traceback" not in err
        assert not out.exists()

    def test_closed_leg_squeezing_at_round_off_exit_1(self, tmp_path, capsys):
        # the same chain with gamma = 0: the closed leg runs exactly and moves
        # its X variance by round-off only; this used to exit 0 and write
        # smax_closed_db 4.8e-16 with smax_degradation 1
        out = tmp_path / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = validate-adiabatic\ndelta = 20\nDelta = 100\nOmega = 1\ng1 = 1\n"
            f"g2 = 0.02\neps = 0\nkappa = 0.5\nGamma_e = 0.1\natom_state = e2\nhorizon = 3.2\n"
            f"n_times = 160\nd_cav = 4\nd_mech = 16\ninclude_lindblad = true\n"
            f"d_cav_lindblad = 3\nd_mech_lindblad = 8\nlindblad_rtol = 1e-8\noutput = {out}\n",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the smax degradation is undefined") and "beyond its error" in err
        assert not out.exists()

    CHAIN = ("command = validate-adiabatic\ndelta = 20\nDelta = 100\nOmega = 1\ng1 = 1\ng2 = 0.02\n"
             "atom_state = e1\nhorizon = 1\nn_times = 20\n")

    @pytest.mark.parametrize("cap, keys, engine", [
        ("EFFECTIVE_DIM_CAP", "command = time-trace\ngeff = 1\ntime_start = 0\ntime_stop = 1\n"
         "time_count = 5\nd_mech = 48\n", "exact_quadrature_moments"),
        ("CHAIN_DIM_CAP", CHAIN + "d_cav = 48\n", "evolve_unitary"),
        ("CHAIN_DIM_CAP", CHAIN + "d_mech = 48\n", "evolve_unitary"),
        ("CHAIN_DIM_CAP", CHAIN + "d_cav = 4\nd_mech = 16\nkappa = 0.5\ninclude_lindblad = true\n"
         "d_mech_lindblad = 48\n", "evolve_lindblad"),
    ], ids=["time-trace-d_mech", "chain-d_cav", "chain-d_mech", "chain-d_mech_lindblad"])
    def test_starting_dim_above_its_cap_exit_1(self, tmp_path, capsys, monkeypatch, cap, keys, engine):
        # a start above the cap used to run anyway: time-trace at geff = 1,
        # nbar = 1000 starts at d = 80,040 against the cap of 8,192, each of
        # its Gram products some 12.8 GB.  With the cap patched to 32, a
        # start at 48 must stop before the engine runs
        def never(*args, **kwargs):
            raise AssertionError(f"{engine} ran at a starting dim above the cap")

        monkeypatch.setattr(dynamics, cap, 32)
        monkeypatch.setattr(dynamics, engine, never)
        out = tmp_path / "x.csv"
        code = run_cli(tmp_path, keys + f"output = {out}\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: starting dims (") and err.endswith(" pass the cap 32\n")
        assert "48" in err
        assert not out.exists()

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "x.csv"
        code = run_cli(
            tmp_path,
            f"command = smax-sweep\ngeff_start = 0\ngeff_stop = 1\ngeff_count = 3\n"
            f"output = {out}\n",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"config error: line 5: cannot write output '{out}': "
                       "No such file or directory\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("text, key, raw", [
        ("command = spectrum\ngeff = inf\n", "geff", "inf"),
        ("command = smax-sweep\ngeff_start = -inf\ngeff_stop = 1\ngeff_count = 3\n",
         "geff_start", "-inf"),
        ("command = time-trace\ngeff = nan\ntime_start = 0\ntime_stop = 1\ntime_count = 5\n",
         "geff", "nan"),
        ("command = validate-adiabatic\natom_state = nan,1\n", "atom_state", "nan,1"),
        ("command = validate-adiabatic\natom_state = 1,0,-inf\n", "atom_state", "1,0,-inf"),
    ], ids=["spectrum-geff-inf", "smax-sweep-geff_start-minus-inf", "time-trace-geff-nan",
            "validate-adiabatic-atom_state-nan", "validate-adiabatic-atom_state-minus-inf"])
    def test_non_finite_float_exit_2(self, tmp_path, capsys, text, key, raw):
        # each of these used to run: a nan variance column, nan rows, or exit 1
        # (atom_state: after two numpy RuntimeWarnings, on a NaN state norm)
        out = tmp_path / "x.csv"
        code = run_cli(tmp_path, f"{text}output = {out}\n")
        assert code == 2
        assert capsys.readouterr().err == f"config error: line 2: '{key}' must be finite, got '{raw}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("raw, want", [
        ("0,0", "the atom state must be finite and nonzero, got [0.0, 0.0]"),
        ("0,0,1", "the atom state has no ground-doublet component; the reduced models do not apply"),
    ], ids=["zero", "excited-only"])
    def test_degenerate_atom_state_exit_2(self, tmp_path, capsys, raw, want):
        # both used to exit 1, from the chain's own check of the atom state
        out = tmp_path / "x.csv"
        code = run_cli(tmp_path, f"command = validate-adiabatic\natom_state = {raw}\ndelta = 20\n"
                                 f"Delta = 100\nhorizon = 1\noutput = {out}\n")
        assert code == 2
        assert capsys.readouterr().err == f"config error: line 2: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, want", [
        ("d_cav = 1", "'d_cav' must be >= 2, got 1"),
        ("d_mech = 0", "'d_mech' must be >= 2, got 0"),
        ("d_cav_lindblad = 1", "'d_cav_lindblad' must be >= 2, got 1"),
        ("d_mech_lindblad = -4", "'d_mech_lindblad' must be >= 2, got -4"),
        ("n_times = 1", "'n_times' must be >= 2, got 1"),
        ("lindblad_rtol = 0", "'lindblad_rtol' must be > 0, got '0'"),
        ("lindblad_rtol = -1e-8", "'lindblad_rtol' must be > 0, got '-1e-8'"),
        # DOP853 used to raise it to 100 eps with a warning while the CSV recorded 1e-15
        ("lindblad_rtol = 1e-15", "'lindblad_rtol' must be >= 2.22e-14 (100 machine epsilon), got '1e-15'"),
        ("horizon = 0", "'horizon' must be > 0, got '0'"),
        ("horizon = -1", "'horizon' must be > 0, got '-1'"),
    ])
    def test_structural_key_out_of_range_exit_2(self, tmp_path, capsys, line, want):
        # these used to exit 1 with a message that named no line
        out = tmp_path / "x.csv"
        # a horizon case sets horizon on line 6, so line 4 sets another valid key
        line4 = "d_cav = 4" if line.startswith("horizon ") else "horizon = 1"
        code = run_cli(tmp_path, f"command = validate-adiabatic\ndelta = 20\nDelta = 100\n"
                                 f"{line4}\ninclude_lindblad = true\n{line}\noutput = {out}\n")
        assert code == 2
        assert capsys.readouterr().err == f"config error: line 6: {want}\n"
        assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_no_args_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


class TestRunApi:
    def test_run_returns_path(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = parse_config(
            f"command = smax-sweep\ngeff_start = 0\ngeff_stop = 2\n"
            f"geff_count = 5\noutput = {out}\n"
        )
        assert run(cfg) == str(out)
        assert out.exists()


def test_cli_import_leaves_scipy_integrate_out():
    # DOP853 is imported inside the master equation's stepping branch, its
    # only user, so a CLI start that runs no master equation never loads
    # scipy.integrate
    src = str(Path(optosqueeze.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, optosqueeze.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
