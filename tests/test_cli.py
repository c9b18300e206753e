"""CLI surface: oracle grammar, exit codes, output formats, determinism."""

import csv
import io
from functools import partial

import pytest
from test_params import time_limit

import qal.cli
import qal.dynamics
from qal.cli import (EXIT_ERROR, EXIT_OK, EXIT_UNDECIDED, ESCAPE_HEADER,
                     PROFILE_HEADER, WINDOWS_HEADER, expand_specs, main,
                     parse_oracle)
from qal.dyadic import DOWN, Dyadic
from qal.dynamics import escape_time


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_csv(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main(list(argv) + ["--out", str(out)])
    rows = list(csv.reader(io.StringIO(out.read_text())))
    return code, rows


class TestOracleGrammar:
    def test_exact_forms(self):
        assert parse_oracle("exact:-7*2^-2").value == Dyadic(-7, -2)
        assert parse_oracle("exact:-1.75").value == Dyadic(-7, -2)

    def test_generator_specs(self):
        assert parse_oracle("superstable:3").spec == "superstable:3"
        assert parse_oracle("superstable:4:1").spec == "superstable:4:1"
        assert parse_oracle("window-right:3").spec == "window-right:3"
        assert parse_oracle("eps-family:2").spec == "eps-family:2"
        assert parse_oracle("feigenbaum").spec == "feigenbaum"

    def test_window_end_takes_a_centre_index(self):
        o = parse_oracle("window-left:4:1")
        assert o.spec == "window-left:4:1"
        assert abs(float(o.query(24)) + 1.4303576324) < 2.0 ** -23

    @pytest.mark.parametrize("bad", ["exact:0.1", "exact:", "superstable:x",
                                     "feigenbaum:3", "mystery:1", "exact"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_oracle(bad)

    def test_range_sugar(self):
        assert expand_specs(["eps-family:1..3", "exact:-1"]) == \
            ["eps-family:1", "eps-family:2", "eps-family:3", "exact:-1"]
        # an explicit index is not a range
        assert expand_specs(["superstable:4:1"]) == ["superstable:4:1"]


class TestExitCodes:
    def test_certified_is_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "--c", "exact:-1")
        assert code == EXIT_OK
        assert out.strip() == "LimitCycle superattracting period=2"

    def test_undecided_is_two(self, capsys):
        code, out, _ = run(capsys, "classify", "--c", "exact:-1.75",
                           "--hint-case", "1c", "--hint-period", "3",
                           "--max-precision", "16")
        assert code == EXIT_UNDECIDED
        assert out.strip() == "undecided"

    def test_error_is_one(self, capsys):
        assert run(capsys, "classify", "--c", "exact:0.1")[0] == EXIT_ERROR
        assert run(capsys, "classify")[0] == EXIT_ERROR
        assert run(capsys, "approx", "--c", "exact:0")[0] == EXIT_ERROR  # no --n
        assert run(capsys, "escape")[0] == EXIT_ERROR

    def test_parameter_out_of_range(self, capsys):
        code, _, err = run(capsys, "classify", "--c", "exact:1")
        assert code == EXIT_ERROR
        assert "error:" in err

    @pytest.mark.parametrize("flag,value", [("--max-precision", "0"),
                                            ("--max-precision", "-3"),
                                            ("--max-period", "0")])
    def test_budget_it_cannot_honour_is_an_error(self, capsys, flag, value):
        # a cap of 0 once meant no cap at all: -21/16 answered at 0 bits
        # and was undecided at 1
        code, out, err = run(capsys, "approx", "--c", "exact:-21*2^-4",
                             "--n", "8", flag, value)
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: budget ")


class TestApproxOutput:
    def test_point_list_serialization(self, capsys):
        code, out, _ = run(capsys, "approx", "--c", "exact:-1", "--n", "8")
        assert code == EXIT_OK
        assert out.splitlines() == ["-1*2^0", "0*2^0"]
        assert [Dyadic.parse(s) for s in out.splitlines()] == \
            [Dyadic(-1), Dyadic(0)]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "pts.txt"
        code, out, _ = run(capsys, "approx", "--c", "exact:0", "--n", "8",
                           "--out", str(path))
        assert code == EXIT_OK and out == ""
        assert path.read_text() == "0*2^0\n"


class TestEssperiod:
    def test_two_cycle(self, capsys):
        code, out, _ = run(capsys, "essperiod", "--c", "exact:-1")
        assert code == EXIT_OK and out.strip() == "p_e=2"

    def test_chebyshev_parameter_answers(self, capsys):
        # the nest's critical orbit at c = -2 must not grow without bound
        with time_limit(60):
            code, out, _ = run(capsys, "essperiod", "--c", "exact:-2")
        assert (code, out.strip()) == (EXIT_UNDECIDED, "undecided") or \
            (code == EXIT_OK and out.startswith("p_e="))


class TestWindowsCsv:
    def test_schema_and_quoting(self, tmp_path):
        code, rows = run_csv(tmp_path, "windows", "--period", "3")
        assert code == EXIT_OK
        assert rows[0] == WINDOWS_HEADER
        period, l_lo, l_hi, r_lo, r_hi, tau = rows[1]
        assert period == "3"
        assert Dyadic.parse(l_lo) <= Dyadic.parse(l_hi)
        assert Dyadic.parse(r_lo) <= Dyadic(-7, -2) <= Dyadic.parse(r_hi)
        assert tau == "(2,3,1)"
        # the raw text quotes exactly the fields containing separators
        text = (tmp_path / "out.csv").read_text()
        assert '"(2,3,1)"' in text
        assert '"3"' not in text

    def test_one_row_per_real_center(self, tmp_path):
        code, rows = run_csv(tmp_path, "windows", "--period", "4")
        assert code == EXIT_OK
        assert rows[0] == WINDOWS_HEADER
        assert len(rows) == 3
        (_, a_lo, _, _, a_hi, a_tau), (_, b_lo, _, _, b_hi, b_tau) = rows[1:]
        # ascending and disjoint: the period-4 window near -1.94, then the
        # doubling window of the 2-cycle near -1.31
        assert Dyadic.parse(a_hi) < Dyadic.parse(b_lo)
        assert float(Dyadic.parse(a_lo)) < -1.9408 < float(Dyadic.parse(a_hi))
        assert float(Dyadic.parse(b_lo)) < -1.3107 < float(Dyadic.parse(b_hi))
        assert (a_tau, b_tau) == ("(2,3,4,1)", "(3,4,2,1)")


class TestRenderPgm:
    def test_header_and_determinism(self, tmp_path):
        imgs = []
        for name in ("a.pgm", "b.pgm"):
            path = tmp_path / name
            code = main(["render", "--c", "exact:-1", "--n", "2",
                         "--viewport=-2..0", "--out", str(path)])
            assert code == EXIT_OK
            imgs.append(path.read_bytes())
        assert imgs[0] == imgs[1]
        head, _, pixels = imgs[0].partition(b"\n255\n")
        lines = head.split(b"\n")
        assert lines[0] == b"P5"
        assert lines[1].startswith(b"#")
        assert lines[2] == b"9 1"
        assert pixels == bytes([255, 255, 255, 0, 0, 0, 255, 0, 0])


class TestEscapeCsv:
    def test_schema_and_values(self, tmp_path):
        code, rows = run_csv(tmp_path, "escape", "--eps", "1", "--eps", "1e-4")
        assert code == EXIT_OK
        assert rows[0] == ESCAPE_HEADER
        assert rows[1][:2] == ["1", "1"]
        eps_row = rows[2]
        assert eps_row[0] == "1e-4"
        assert 2.8 <= float(eps_row[2]) <= 3.3

    def test_nonpositive_rejected(self, capsys):
        assert run(capsys, "escape", "--eps", "0")[0] == EXIT_ERROR
        assert run(capsys, "escape", "--eps=-1e-3")[0] == EXIT_ERROR

    def test_a_give_up_is_undecided(self, capsys, monkeypatch):
        # 1e-12 needs about 3.1e6 steps, past a limit of 1000
        monkeypatch.setattr(qal.cli, "escape_time",
                            partial(escape_time, max_steps=1000))
        code, out, err = run(capsys, "escape", "--eps", "1e-12")
        assert (code, out) == (EXIT_UNDECIDED, "")
        assert err.startswith("undecided: ") and "step limit" in err
        # counts that disagree at every rung
        monkeypatch.setattr(qal.dynamics, "_escape_count",
                            lambda eps, a, p, mode, n: 1 + (mode == DOWN))
        code, out, err = run(capsys, "escape", "--eps", "1e-4")
        assert (code, out) == (EXIT_UNDECIDED, "")
        assert err.startswith("undecided: ") and "precision cap" in err


class TestProfileCsv:
    def test_rows_and_determinism(self, tmp_path):
        args = ["profile", "--c", "exact:-1", "--c", "exact:0", "--n", "6"]
        code, rows = run_csv(tmp_path, *args)
        assert code == EXIT_OK
        assert rows[0] == PROFILE_HEADER
        assert [r[0] for r in rows[1:]] == ["exact:-1", "exact:0"]
        assert all(r[5] == "ok" for r in rows[1:])
        # oracle_units and max_precision replay identically
        code2, rows2 = run_csv(tmp_path, *args)
        for a, b in zip(rows[1:], rows2[1:]):
            assert (a[3], a[4]) == (b[3], b[4])

    def test_seed_adds_pixel_max_rows(self, tmp_path):
        code, rows = run_csv(tmp_path, "profile", "--c", "exact:-1",
                             "--n", "6", "--seed", "11")
        assert code == EXIT_OK
        assert [r[0] for r in rows[1:]] == ["exact:-1", "exact:-1#pixel-max"]
        assert int(rows[2][3]) > 0

    def test_unbuildable_spec_fails_its_row_only(self, tmp_path):
        # superstable:4 is ambiguous (two real centres): its oracle cannot
        # be built, and the sweep goes on to exact:-1
        code, rows = run_csv(tmp_path, "profile", "--c", "superstable:4",
                             "--c", "exact:-1", "--n", "4", "--seed", "3")
        assert code == EXIT_OK
        assert [(r[0], r[5]) for r in rows[1:]] == [
            ("superstable:4", "failed"), ("superstable:4#pixel-max", "failed"),
            ("exact:-1", "ok"), ("exact:-1#pixel-max", "ok")]

    def test_n_range_sweep(self, tmp_path):
        code, rows = run_csv(tmp_path, "profile", "--c", "exact:0",
                             "--n-range", "4..6")
        assert code == EXIT_OK
        assert [r[1] for r in rows[1:]] == ["4", "5", "6"]


class TestEnvPrecisionCap:
    def test_env_variable_caps_the_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("QAL_MAX_PRECISION", "16")
        code, out, _ = run(capsys, "classify", "--c", "exact:-1.75",
                           "--hint-case", "1c", "--hint-period", "3")
        assert code == EXIT_UNDECIDED

    def test_explicit_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("QAL_MAX_PRECISION", "16")
        code, out, _ = run(capsys, "classify", "--c", "exact:-1.75",
                           "--hint-case", "1c", "--hint-period", "3",
                           "--max-precision", "128")
        assert code == EXIT_OK
        assert out.strip() == "LimitCycle parabolic period=3"

    def test_malformed_variable_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QAL_MAX_PRECISION", "abc")
        code, out, err = run(capsys, "classify", "--c", "exact:-1")
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: ")

    def test_library_calls_ignore_the_variable(self, capsys, monkeypatch):
        # the variable only sets the budget of the budgeted subcommands
        monkeypatch.setenv("QAL_MAX_PRECISION", "16")
        code, out, _ = run(capsys, "windows", "--period", "3")
        assert code == EXIT_OK
        assert "(2,3,1)" in out
