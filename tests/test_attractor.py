"""Classification, certified approximation, pixel queries, rendering."""

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_params import orbit_boxes, time_limit

import qal.attractor
import qal.params
from qal.attractor import (ApproximationFailed, Budget, Hints, approximate,
                           classify, pixel_query, render)
from qal.cli import parse_oracle
from qal.dyadic import Dyadic, Interval
from qal.oracle import (OracleFault, ParamOracle, QueryLedger, WorstCaseOracle,
                        oracle_exact)
from qal.params import feigenbaum_limit, window_locate

NEG_ONE = Dyadic(-1)
QUARTER = Dyadic(1, -2)


def hausdorff(a, b) -> Fraction:
    """Exact Hausdorff distance between two finite dyadic point sets."""
    fa = [p.as_fraction() for p in a]
    fb = [p.as_fraction() for p in b]
    d = Fraction(0)
    for xs, ys in ((fa, fb), (fb, fa)):
        for x in xs:
            d = max(d, min(abs(x - y) for y in ys))
    return d


class TestClassify:
    def test_superattracting_cycles(self):
        assert classify(oracle_exact(Dyadic(0))).describe() == \
            "LimitCycle superattracting period=1"
        assert classify(oracle_exact(NEG_ONE)).describe() == \
            "LimitCycle superattracting period=2"

    def test_attracting_fixed_point(self):
        cls = classify(oracle_exact(Dyadic(-1, -1)))
        assert (cls.variant, cls.kind, cls.period) == \
            ("limit-cycle", "attracting", 1)

    def test_parabolic_with_hints(self):
        cls = classify(oracle_exact(QUARTER), Hints(1, "1c"))
        assert cls.describe() == "LimitCycle parabolic period=1"
        cls3 = classify(oracle_exact(Dyadic(-7, -2)), Hints(3, "1c"))
        assert (cls3.kind, cls3.period) == ("parabolic", 3)

    def test_interval_cycle_with_hints(self):
        cls = classify(oracle_exact(Dyadic(-2)), Hints(1, "2"))
        assert cls.describe() == "IntervalCycle period=1"

    def test_escaping_orbit_is_no_interval_cycle(self):
        # c = -2 - 2^-30 passes the 16-bit range check, but its 64-bit
        # bracket is certified outside and the critical orbit escapes
        # within the 2q = 20 steps the chain needs
        c = Dyadic(-(2**31 + 1), -30)
        assert classify(oracle_exact(c), Hints(10, "2")) is None

    def test_hint_validation(self):
        with pytest.raises(ValueError):
            Hints(case="4")
        with pytest.raises(ValueError):
            classify(oracle_exact(QUARTER), Hints(case="1c"))

    @pytest.mark.parametrize("field", ["max_period", "depth",
                                       "max_precision"])
    def test_budget_validation(self, field):
        with pytest.raises(ValueError, match=field):
            Budget(**{field: 0})

    def test_starved_budget_returns_none(self):
        cls = classify(oracle_exact(Dyadic(-7, -2)), Hints(3, "1c"),
                       Budget(max_precision=16))
        assert cls is None


class TestApproximate:
    def test_fixed_critical_point(self):
        out = approximate(oracle_exact(Dyadic(0)), 16)
        assert out.points == (Dyadic(0),)

    def test_two_cycle_is_exact(self):
        out = approximate(oracle_exact(NEG_ONE), 10)
        assert out.points == (NEG_ONE, Dyadic(0))
        assert out.trace["case"] == "1b"

    def test_attracting_fixed_point_contract(self):
        out = approximate(oracle_exact(Dyadic(-1, -1)), 14)
        assert len(out.points) == 1
        # (1 - sqrt(3))/2 to 30 digits, as a tight rational bracket
        lo = Fraction(-366025403784438646763723170753, 10 ** 30)
        hi = lo + Fraction(1, 10 ** 28)
        x = out.points[0].as_fraction()
        assert lo - Fraction(1, 1 << 14) < x < hi + Fraction(1, 1 << 14)

    def test_parabolic_with_hints(self):
        out = approximate(oracle_exact(QUARTER), 20, Hints(1, "1c"))
        assert len(out.points) == 1
        assert abs(out.points[0].as_fraction() - Fraction(1, 2)) < Fraction(1, 1 << 20)

    def test_chebyshev_full_interval(self):
        out = approximate(oracle_exact(Dyadic(-2)), 3, Hints(1, "2"))
        pts = [p.as_fraction() for p in out.points]
        assert abs(pts[0] + 2) <= Fraction(1, 8)
        assert abs(pts[-1] - 2) <= Fraction(1, 8)
        assert max(b - a for a, b in zip(pts, pts[1:])) <= Fraction(1, 8)
        assert all(p.in_grid(5) for p in out.points)

    def test_points_sorted_and_in_grid(self):
        out = approximate(oracle_exact(NEG_ONE), 6)
        assert list(out.points) == sorted(out.points, key=lambda d: d.as_fraction())
        assert all(p.in_grid(8) for p in out.points)

    def test_refinement_consistency(self):
        o = oracle_exact(Dyadic.from_float(-1.1))  # attracting 2-cycle
        outs = {n: approximate(o, n) for n in range(4, 9)}
        for n in range(4, 8):
            d = hausdorff(outs[n].points, outs[n + 1].points)
            assert d <= Fraction(1, 1 << n) + Fraction(1, 1 << (n + 1))

    def test_worst_case_oracle_same_contract(self):
        out = approximate(WorstCaseOracle(oracle_exact(Dyadic(-1, -1))), 12)
        assert len(out.points) == 1
        lo = Fraction(-3660254037844387, 10 ** 16)
        assert abs(out.points[0].as_fraction() - lo) < Fraction(1, 1 << 11)

    def test_starved_budget_fails_honestly(self):
        with pytest.raises(ApproximationFailed):
            approximate(oracle_exact(Dyadic(-7, -2)), 8, Hints(3, "1c"),
                        Budget(max_precision=16))

    def test_exact_chain_needs_no_precision(self):
        # the c = -2 certificate is set-exact, so a tiny precision budget
        # is still enough to certify it
        out = approximate(oracle_exact(Dyadic(-2)), 4, Hints(1, "2"),
                          Budget(max_precision=16))
        assert out.points[0] == Dyadic(-2) and out.points[-1] == Dyadic(2)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            approximate(oracle_exact(Dyadic(0)), 0)


class TestPixelQuery:
    def test_two_cycle_band(self):
        o = oracle_exact(NEG_ONE)
        assert pixel_query(o, 2, Dyadic(0)) == 1
        assert pixel_query(o, 2, Dyadic(-1, -1)) == 0
        assert pixel_query(o, 2, Dyadic(1, -2)) == 1

    def test_band_is_open(self):
        # A = {0, -1}: the pixel at exactly 2^(1-n) from 0 is not in the band
        o = oracle_exact(NEG_ONE)
        assert pixel_query(o, 2, Dyadic(1, -1)) == 0
        row = render(o, 2, Interval(Dyadic(1, -2), Dyadic(1, -1)))
        assert row.endswith(bytes([0, 255]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            pixel_query(oracle_exact(NEG_ONE), 2, Dyadic(1, -3))

    def test_band_soundness_random_pixels(self):
        # A = {0, -1} exactly; verify both certified sides of the contract
        o = oracle_exact(NEG_ONE)
        rng = random.Random(7)
        n = 8
        near, far = Fraction(1, 1 << n), Fraction(2, 1 << n)
        for _ in range(400):
            j = rng.randint(-(2 << n), 2 << n)
            x = Fraction(j, 1 << n)
            true_dist = min(abs(x), abs(x + 1))
            bit = pixel_query(o, n, Dyadic(j, -n))
            if bit == 0:
                assert true_dist > near
            else:
                assert true_dist < far


class TestRender:
    def test_known_row(self):
        img = render(oracle_exact(NEG_ONE), 2,
                     Interval(Dyadic(-2), Dyadic(0)))
        header, _, rest = img.partition(b"255\n")
        assert header.startswith(b"P5\n")
        assert b"9 1" in header
        assert rest == bytes([255, 255, 255, 0, 0, 0, 255, 0, 0])

    def test_byte_identical_across_runs(self):
        view = Interval(Dyadic(-2), Dyadic(1, -2))
        a = render(oracle_exact(Dyadic(-1, -1)), 4, view)
        b = render(oracle_exact(Dyadic(-1, -1)), 4, view)
        assert a == b

    def test_empty_viewport_rejected(self):
        tiny = Interval(Dyadic(1, -8), Dyadic(3, -8))
        with pytest.raises(ValueError):
            render(oracle_exact(NEG_ONE), 2, tiny)

    # every cover kind: points, a case-2 chain, and case-3 components whose
    # widened bands overlap at n = 3..5
    COVERS = [("exact:-1", Hints(), n) for n in (2, 5, 8)] + \
        [("eps-family:1", Hints(), n) for n in (4, 8)] + \
        [("exact:-2", Hints(1, "2"), n) for n in (4, 8)] + \
        [("feigenbaum", Hints(case="3"), n) for n in (3, 4, 5)]
    _built = {}

    @classmethod
    def _cover(cls, spec, hints, n):
        """One oracle per cover, shared by the examples so its certificate
        is built once, and the open bands (lo - 2^(1-n), hi + 2^(1-n)) of
        the certificate's enclosures, compared as Dyadics."""
        key = (spec, hints, n)
        if key not in cls._built:
            o = parse_oracle(spec)
            cert = qal.attractor._build_certificate(o, n, hints, None, None)
            far = Dyadic(1, 1 - n)
            cls._built[key] = o, [(e.lo - far, e.hi + far)
                                  for e in cert.enclosures]
        return cls._built[key]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(COVERS), st.data())
    def test_render_is_pixel_query_on_every_cover(self, cover, data):
        spec, hints, n = cover
        o, bands = self._cover(spec, hints, n)
        # viewport ends on the grid 2^-(n+2), so they need not be centres
        ends = st.integers(-(8 << n), 8 << n)
        lo, hi = sorted((data.draw(ends), data.draw(ends)))
        view = Interval(Dyadic(lo, -(n + 2)), Dyadic(hi, -(n + 2)))
        first, last = -(-lo // 4), hi // 4
        if last < first:
            with pytest.raises(ValueError):
                render(o, n, view, hints)
            return
        one, ledger = QueryLedger(), QueryLedger()
        pixel_query(o, n, Dyadic(first, -n), hints, ledger=one)
        img = render(o, n, view, hints, ledger=ledger)
        k = last - first + 1
        assert f"\n{k} 1\n255\n".encode() in img
        for j, byte in zip(range(first, last + 1), img[-k:]):
            x = Dyadic(j, -n)
            bit = pixel_query(o, n, x, hints)
            assert bit == any(a < x < b for a, b in bands)
            assert byte == (0 if bit else 255)
        assert (ledger.total_units, ledger.query_count,
                ledger.max_precision) == \
            (k * one.total_units, k * one.query_count, one.max_precision)


class TestLedgerAccounting:
    def test_runs_charge_the_ledger(self):
        led = QueryLedger()
        approximate(oracle_exact(NEG_ONE), 8, ledger=led)
        assert led.total_units > 0
        assert led.max_precision >= 8

    @pytest.mark.parametrize("c", [NEG_ONE, Dyadic(-9, -3)])
    def test_cached_certificate_hits_charge_like_the_build(self, c):
        o = oracle_exact(c)
        first, second = QueryLedger(), QueryLedger()
        pixel_query(o, 12, Dyadic(0), ledger=first)
        pixel_query(o, 12, Dyadic(1, -12), ledger=second)
        assert first.query_count > 0
        assert (second.total_units, second.query_count, second.max_precision) \
            == (first.total_units, first.query_count, first.max_precision)

    @pytest.mark.parametrize("ask", ["render", "pixel_query"])
    def test_a_failed_build_is_charged_once(self, ask):
        # 16 bits cannot certify this attracting 4-cycle, so the build fails
        # after four queries; the caller is charged for them once
        o, budget = parse_oracle("exact:-21*2^-4"), Budget(max_precision=16)
        ledger = QueryLedger()
        with pytest.raises(ApproximationFailed):
            if ask == "render":
                render(o, 20, Interval(Dyadic(-2), Dyadic(2)), None, budget,
                       ledger)
            else:
                pixel_query(o, 20, Dyadic(0), None, budget, ledger)
        assert (ledger.total_units, ledger.query_count,
                ledger.max_precision) == (52, 4, 16)


class TestCaseOneA:
    # points of approximate(oracle_exact(c), 12) in the period-1, 2 and 4
    # windows, as the library gave them when case 1a certified the cycle a
    # second time before refining it
    CASES = [
        (Dyadic(-1, -2), 1, ["-3393*2^-14"]),
        (Dyadic(-9, -3), 2, ["-18225*2^-14", "1841*2^-14"]),
        (Dyadic(-21, -4), 4,
         ["-21*2^-4", "-4687*2^-12", "-51*2^-14", "105*2^-8"]),
    ]

    @pytest.mark.parametrize("c,period,points", CASES)
    def test_the_cycle_is_certified_once(self, monkeypatch, c, period, points):
        calls = []
        certify = qal.attractor.certify_attracting_cycle

        def counted(*args, **kwargs):
            calls.append(args[0])
            return certify(*args, **kwargs)

        monkeypatch.setattr(qal.attractor, "certify_attracting_cycle", counted)
        got = approximate(oracle_exact(c), 12)
        assert len(calls) == 1
        assert got.trace == {"case": "1a", "period": period}
        assert [str(p) for p in got.points] == points

    @pytest.mark.parametrize("n,points,charged", [
        (16, ["-316255*2^-18", "54111*2^-18"], (96, 3, 64)),
        (40, ["-5305873282667*2^-42", "907826771563*2^-42"], (96, 3, 64)),
        (60, ["-5563611383246014205*2^-62", "951925364818626301*2^-62"],
         (368, 5, 136)),
    ])
    def test_a_narrow_certificate_reads_c_no_further(self, n, points, charged):
        # the certificate of this 2-cycle (multiplier -255/256) encloses its
        # points below 2^-(n+3) from 64 bits up to n = 40, so case 1a reads c
        # no further
        ledger = QueryLedger()
        got = approximate(oracle_exact(Dyadic(-1279, -10)), n, ledger=ledger)
        assert got.trace == {"case": "1a", "period": 2}
        assert [str(p) for p in got.points] == points
        assert (ledger.total_units, ledger.query_count,
                ledger.max_precision) == charged


C_F62= Dyadic.from_fraction_rounded(Fraction("-1.401155189092050426"), 62)


class _CappedOracle(ParamOracle):
    """Answers like inner up to precision m_max and faults above it."""

    def __init__(self, inner: ParamOracle, m_max: int):
        super().__init__()
        self.inner, self.m_max = inner, m_max

    def _answer(self, m: int) -> Dyadic:
        if m > self.m_max:
            raise OracleFault(f"precision {m} is past this oracle's cap")
        return self.inner.query(m)


def test_failure_names_the_oracle_limit_that_stopped_it():
    # a Feigenbaum-like parameter whose oracle stops answering above 16
    # bits: the case-3 cover is clamped to what the oracle answers, so the
    # failure is the oracle's, not the precision cap's
    with pytest.raises(ApproximationFailed) as exc:
        approximate(_CappedOracle(oracle_exact(C_F62), 16), 20)
    text = str(exc.value)
    assert "below the precision cap" not in text
    assert text.endswith("trap not certified below the oracle's limit "
                         "(precision 30 is past this oracle's cap)")


class TestWindowTower:
    @pytest.mark.parametrize("spec", ["exact:-1", "superstable:3",
                                      "feigenbaum"])
    def test_level_zero_is_the_located_window(self, spec):
        want = window_locate(parse_oracle(spec), 8).period
        cls = classify(parse_oracle(spec), Hints(case="3"), Budget(depth=1))
        assert cls.prefix[0].period == want

    def test_window_memo_changes_no_answer_or_charge(self):
        # no state outlives a case-3 run: it must give the same answer and
        # charge in a fresh process and after unrelated runs
        run = ("from fractions import Fraction\n"
               "from qal import Budget, Dyadic, Hints, QueryLedger, "
               "classify, oracle_exact\n"
               "c = Dyadic.from_fraction_rounded("
               "Fraction('-1.401155189092050426'), 62)\n"
               "for case in (None, '3'):\n"
               "    ledger = QueryLedger()\n"
               "    cls = classify(oracle_exact(c), Hints(case=case), "
               "Budget(depth=3), ledger)\n"
               "    print(cls and cls.describe(), ledger.total_units)\n")
        src = os.path.dirname(os.path.dirname(qal.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = subprocess.run([sys.executable, "-c", run], env=env,
                               capture_output=True, text=True, check=True)
        for spec in ("feigenbaum", "exact:-1.375", "superstable:3"):
            classify(parse_oracle(spec), Hints(case="3"), Budget(depth=2))
        warm = io.StringIO()
        with contextlib.redirect_stdout(warm):
            exec(run, {})
        assert warm.getvalue() == fresh.stdout
        # a dyadic is not c_F: its three certified windows label it only
        # under the case-3 hint
        unhinted, hinted = fresh.stdout.splitlines()
        assert unhinted.startswith("None ")
        assert hinted.startswith("FeigenbaumLike depth=3 ")

    def test_levels_are_the_windows_around_c(self):
        # c has a certified attracting 6-cycle, in the period-3 window inside
        # the period-2 window; no level of period 36 lies around it
        cls = classify(parse_oracle("exact:-1511*2^-10"), Hints(case="3"),
                       Budget(depth=3))
        want = ("(2:2,1)", "(3:2,3,1)")
        got = tuple(cls.describe().split("types=")[1].split())
        assert 1 <= len(got) <= 2 and got == want[:len(got)]

    def test_a_relative_period_three_carries_its_type(self):
        for spec in ("superstable:6:4", "exact:-1512*2^-10"):
            cls = classify(parse_oracle(spec), Hints(case="3"),
                           Budget(depth=3))
            assert cls.describe() == \
                "FeigenbaumLike depth=2 types=(2:2,1) (3:2,3,1)"

    def test_the_tower_builds_no_window_end(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the case-3 tower built a window end")

        monkeypatch.setattr(qal.params, "_window_at", refuse)
        with time_limit(30):
            cls = classify(parse_oracle("exact:-11*2^-3"), Hints(case="3"),
                           Budget(depth=5))
        assert cls.describe() == "FeigenbaumLike depth=2 types=(2:2,1) (2:2,1)"


class TestFiniteTower:
    @pytest.mark.parametrize("spec, budget", [
        # about -1.4012003, past c_F: five nested doubling windows
        ("exact:-1469265*2^-20", Budget()),
        # an attracting 4-cycle that 63 bits cannot certify
        ("exact:-21*2^-4", Budget(max_precision=63)),
    ])
    def test_a_finite_tower_is_undecided(self, spec, budget):
        assert classify(parse_oracle(spec), budget=budget) is None

    def test_the_hint_still_labels_it(self):
        cls = classify(parse_oracle("exact:-1469265*2^-20"), Hints(case="3"))
        assert cls.describe() == "FeigenbaumLike depth=5 types=" + \
            " ".join(["(2:2,1)"] * 5)

    def test_the_feigenbaum_oracle_declares_its_tower(self):
        o = parse_oracle("feigenbaum")
        assert o.known_tower == WorstCaseOracle(o).known_tower == "L"
        assert oracle_exact(NEG_ONE).known_tower is None

    def test_the_cover_keeps_the_precision_cap(self):
        got = approximate(parse_oracle("exact:-21*2^-4"), 4,
                          budget=Budget(max_precision=63))
        assert got.trace["case"] == "3" and got.trace["precision"] <= 63

    def test_the_cover_is_still_built_without_the_label(self):
        # the case-3 cover certifies A whatever the label
        got = approximate(parse_oracle("exact:-1469265*2^-20"), 3)
        assert got.trace["case"] == "3"


class TestNestedCycleCover:
    """The case-3 cover: one climb of the query precision over the periods,
    stopped by the first limit."""

    @pytest.mark.parametrize("n, points, period, precision, charged", [
        (2, 12, 32, 96, (211, 13, 27)),
        (3, 19, 64, 100, (231, 14, 27)),
        (4, 27, 64, 104, (239, 14, 27)),
        (5, 39, 128, 108, (274, 15, 27)),
        (6, 58, 256, 112, (299, 16, 28)),
    ])
    def test_the_feigenbaum_ledgers(self, n, points, period, precision,
                                    charged):
        # each period starts where the last one certified, so the climb
        # reads c once per rung, not once per rung per period
        ledger = QueryLedger()
        got = approximate(feigenbaum_limit(), n, budget=Budget(depth=5),
                          ledger=ledger)
        assert (got.trace["case"], got.trace["period"],
                got.trace["precision"], len(got.points)) == \
            ("3", period, precision, points)
        assert (ledger.total_units, ledger.query_count,
                ledger.max_precision) == charged

    @pytest.mark.parametrize("make, n, hints, budget, message, units", [
        (feigenbaum_limit, 7, None, None,
         "period-512 trap not certified below the oracle's limit "
         "(precision 35 needs more of the Feigenbaum word than the depth "
         "cap 17 gives)", 338),
        (lambda: parse_oracle("exact:-1469265*2^-20"), 5, None, None,
         "period-512 trap not certified below the precision cap (m <= 45)",
         515),
        (lambda: parse_oracle("superstable:6:4"), 5, Hints(case="3"),
         Budget(depth=3),
         "period-6 trap not certified below the precision cap (m <= 45)",
         219),
    ], ids=["feigenbaum-7", "exact:-1469265*2^-20-5", "superstable:6:4-5"])
    def test_a_give_up_names_the_first_period_that_failed(
            self, make, n, hints, budget, message, units):
        # the first limit ends the cover: no deeper period is tried
        ledger = QueryLedger()
        with time_limit(30), pytest.raises(ApproximationFailed) as exc:
            approximate(make(), n, hints, budget, ledger)
        assert str(exc.value) == message
        assert ledger.total_units == units

    @pytest.mark.parametrize("c, n", [(C_F62, n) for n in (3, 4, 5, 6)] + [
        (Dyadic(-1469265, -20), n) for n in (3, 4)],
        ids=[f"c_F62-{n}" for n in (3, 4, 5, 6)] +
        [f"exact:-1469265*2^-20-{n}" for n in (3, 4)])
    def test_the_cover_is_forward_invariant(self, c, n):
        # checked in exact Fractions, not by the cover's own trap test: the
        # image of each component K_i lies in K_(i+1 mod P), and since 0
        # lies in K_0, P^k(0) lies in K_(k mod P) (Fraction boxes of the
        # orbit at 2^-1024, k <= 3P)
        cert = qal.attractor._build_certificate(oracle_exact(c), n, None,
                                                None, None)
        period, cf = cert.trace["period"], c.as_fraction()
        comps = [(e.lo.as_fraction(), e.hi.as_fraction())
                 for e in cert.enclosures]
        assert cert.trace["case"] == "3" and len(comps) == period
        for i, (lo, hi) in enumerate(comps):
            low = 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
            nlo, nhi = comps[(i + 1) % period]
            assert nlo <= low + cf and max(lo * lo, hi * hi) + cf <= nhi, i
        boxes = orbit_boxes(cf, 3 * period, 1024)
        for k, (lo, hi) in enumerate(boxes):
            klo, khi = comps[k % period]
            assert klo <= lo and hi <= khi, k
