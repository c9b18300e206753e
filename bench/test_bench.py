"""Tests of the benchmark itself: checks reject wrong answers, inputs depend
only on the seed, and the tracer measures what it claims.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from qal import (Dyadic, approximate, epsilon_family, feigenbaum_limit,  # noqa: E402
                 oracle_exact, superstable_center)
from workloads import Workload, make_inputs  # noqa: E402


def _frac(d) -> Fraction:
    return Fraction(d.man) * Fraction(2) ** d.exp


# -- certify -------------------------------------------------------------------

@pytest.mark.parametrize("period, c, n", [
    (1, Fraction(-3, 8), 12), (2, Fraction(-9, 8), 16),
    (3, Fraction(-1759, 1000), 10), (4, Fraction(-13, 10), 20)])
def test_cycle_check_accepts_qal_and_rejects_a_moved_point(period, c, n):
    c = Fraction(int(c * (1 << 32)), 1 << 32)
    out = approximate(oracle_exact(Dyadic(c.numerator,
                                          1 - c.denominator.bit_length())), n)
    pts = [_frac(p) for p in out.points]
    assert ref.check_cycle_points(c, period, n, pts) is None
    step = Fraction(1, 1 << (n - 1))
    for k in range(period):
        for sign in (1, -1):
            moved = pts[:k] + [pts[k] + sign * step] + pts[k + 1:]
            assert ref.check_cycle_points(c, period, n, moved) is not None
    assert ref.check_cycle_points(c, period, n, pts[1:]) is not None


def test_cycle_check_rejects_the_fixed_point_in_place_of_a_cycle_point():
    c, n = Fraction(-1759, 1000), 10
    alpha = ref.fixed_point_alpha(c)[0]
    pts = [Fraction(0), Fraction(-1759, 1000), alpha]
    assert "fixed point" in ref.check_cycle_points(c, 3, n, pts)


# -- render --------------------------------------------------------------------

def test_pixel_check_rejects_flipped_pixels():
    n = 12
    att = ref.Attractor.from_brackets([(Fraction(0), Fraction(0)),
                                       (Fraction(-1), Fraction(-1))])
    first = -8  # pixels -8..7 around 0
    bits = bytes(1 if abs(j) <= 1 else 0 for j in range(first, first + 16))
    assert ref.check_pixels(att, n, first, bits) is None
    on = bits[:8] + b"\x00" + bits[9:]  # pixel 0 sits on the attractor
    far = b"\x01" + bits[1:]  # pixel -8 is 2^-9 away
    assert ref.check_pixels(att, n, first, on) is not None
    assert ref.check_pixels(att, n, first, far) is not None


def test_render_ops_pass_and_a_flipped_byte_fails():
    wl = Workload("render", [("block", "c=-1", -128), ("block", "eps-family:3", -128)])
    for op in wl.ops:
        pgm = op.run(None)
        assert op.check(pgm) is None
        row = bytearray(pgm)
        zero = len(pgm) - 128  # pixel 0 is on both attractors
        assert row[zero] == 0
        row[zero] = 255
        assert op.check(bytes(row)) is not None


# -- solve ---------------------------------------------------------------------

def test_essential_period_check_rejects_4_and_8():
    for n in (1, 2, 3):
        o = epsilon_family(n)
        lo, hi = ref.contract_bracket(_frac(o.query(64)), 64)
        cands = ref.essential_period_candidates(ref.eps_visits(lo, hi, n), 3 * n + 2)
        assert min(cands) == 5
        assert ref.check_essential_period(5, cands) is None
        assert ref.check_essential_period(4, cands) is not None
        assert ref.check_essential_period(8, cands) is not None


def test_bracket_checks_reject_a_shifted_bracket():
    a = _frac(superstable_center(3).query(64))
    assert ref.check_center_bracket(*ref.contract_bracket(a, 64), 3) is None
    shifted = a + Fraction(1, 1 << 50)
    assert ref.check_center_bracket(*ref.contract_bracket(shifted, 64), 3) is not None
    eps = _frac(epsilon_family(2).query(64))
    with pytest.raises(ValueError):
        ref.eps_visits(*ref.contract_bracket(eps + Fraction(1, 1 << 20), 64), 2)
    f = _frac(feigenbaum_limit().query(8))
    assert ref.check_feigenbaum(f, 8) is None
    assert ref.check_feigenbaum(f + Fraction(1, 1 << 6), 8) is not None


def test_window_check_rejects_shifted_endpoints():
    wl = Workload("solve", [("window", 3)])
    left, right, tau_period, perm = wl.ops[0].run(None)
    assert wl.ops[0].check((left, right, tau_period, perm)) is None
    off = Fraction(1, 1 << 20)
    assert ref.check_window3(left, (right[0] + off, right[1] + off)) is not None
    assert ref.check_window3((left[0] + off, left[1] + off), right) is not None


@pytest.mark.parametrize("perm, ok", [
    ((2, 3, 1), True), ((2, 1), True), ((3, 5, 4, 2, 1), True),
    ((2, 4, 6, 5, 3, 1), True), ((3, 1, 2), False), ((2, 3, 4, 1, 5), False),
    ((1, 2), False), ((3, 2, 4, 1), False)])
def test_unimodal_cycle_check(perm, ok):
    assert (ref.check_unimodal_cycle(len(perm), perm, len(perm)) is None) == ok


def test_count_check_rejects_a_wrong_count():
    op = Workload("solve", [("count", 4)]).ops[0]
    assert op.check(op.run(None)) is None
    assert op.check(1) is not None and op.check(3) is not None


# -- inputs --------------------------------------------------------------------

def test_inputs_are_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert make_inputs(name, 7) == make_inputs(name, 7)
        assert make_inputs(name, 7) != make_inputs(name, 8)
    # certify draws stay inside their windows
    for _, period, c, n in make_inputs("certify", 3):
        lo, hi = workloads.CERTIFY_WINDOWS[period]
        assert lo < c < hi and workloads.CERTIFY_N[0] <= n <= workloads.CERTIFY_N[1]


def test_inputs_are_made_without_qal():
    code = ("import sys, workloads; "
            "[workloads.make_inputs(w, 5) for w in workloads.WORKLOADS]; "
            "print(any(m == 'qal' or m.startswith('qal.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- tracing -------------------------------------------------------------------

def test_tracer_counts_repeat_and_self_time_excludes_children():
    import qal.attractor
    import qal.dyadic
    from tracing import Tracer

    original = qal.dyadic.iv_quad_step
    wl = Workload("certify", make_inputs("certify", 2)[:6])
    tracer = Tracer()
    tracer.install()
    try:
        assert qal.attractor.iv_quad_step is not original
        summaries = []
        for _ in range(2):
            mark = tracer.mark()
            for op in wl.ops:
                assert op.check(op.run(None)) is None
            summaries.append(tracer.summary(mark))
    finally:
        tracer.uninstall()
    assert qal.attractor.iv_quad_step is original
    assert qal.dyadic.Dyadic.__init__.__name__ == "__init__"
    counts = [{k: v for k, v in s.items() if not k.endswith("self_s")}
              for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["attractor.approximate.calls"] == 6
    assert counts[0]["dynamics.certify_attracting_cycle.calls"] >= 6
    # self times of a span tree add up to the time of its root spans
    top = sum(tracer.ends[k] - tracer.starts[k]
              for k in range(len(tracer.names)) if tracer.parents[k] == -1)
    total_self = sum(v for s in summaries for k, v in s.items()
                     if k.endswith("self_s"))
    assert total_self * 1e9 == pytest.approx(top, rel=1e-6)


def test_calibration_runs_no_qal_code():
    from run import calibration_slice
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        calibration_slice()
    finally:
        tracer.uninstall()
    assert tracer.names == [] and set(tracer.counts.values()) == {0}


def test_self_time_of_synthetic_spans():
    from tracing import SPAN_NAMES, Tracer

    t = Tracer()
    # span 0 [0, 100) holds span 1 [10, 40) which holds span 2 [20, 30)
    t.names += [0, 1, 1]
    t.parents += [-1, 0, 1]
    t.starts += [0, 10, 20]
    t.ends += [100, 40, 30]
    s = t.summary()
    assert s[f"{SPAN_NAMES[0]}.self_s"] == pytest.approx(70e-9)
    assert s[f"{SPAN_NAMES[1]}.self_s"] == pytest.approx(30e-9)
    assert s[f"{SPAN_NAMES[1]}.calls"] == 2


# -- the command ---------------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_run_prints_one_result_line():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", "certify", "--seed", "4", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         timeout=180, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] % len(make_inputs("certify", 4)) == 0
    names = {m["name"] for m in json.load(open(os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json")))["end_to_end"]}
    assert set(res["metrics"]) == names
    assert all(v["value"] > 0 for v in res["metrics"].values())
