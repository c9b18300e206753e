"""Critical orbits, cycle certification, periodic points, escape times."""

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qal.dynamics
from qal.dyadic import (DOWN, NEAREST, UP, ZERO, Dyadic, Interval, dy_max,
                        dy_min, fixed_read, from_fixed, iv_iterate)
from qal.dynamics import (PARAM_RANGE, ParameterRangeError,
                          PrecisionExhausted, TrackedInterval,
                          _critical_enclosures, _critical_ints, _cycle_orbit,
                          _escape_count, _minimal, _return_map,
                          _squeeze_cycle_point, certify_attracting_cycle,
                          check_param,
                          critical_orbit, escape_time,
                          isolate_periodic_points, iter_eval,
                          symmetric_trap)
from qal.oracle import WorstCaseOracle, oracle_exact
from qal.params import _centre_of, _window_at
from qal.renorm import _SYMBOL, _symbols
from qal.solver import interval_newton, iv_sign

# (period, lowest and highest c * 2^32) of inner parts of the windows of
# periods 1-4 and 8
CYCLE_WINDOWS = [(q, math.ceil(lo * 2**32), math.floor(hi * 2**32))
                 for q, lo, hi in ((1, -0.7, 0.2), (2, -1.2, -0.8),
                                   (3, -1.766, -1.752), (4, -1.36, -1.26),
                                   (8, -1.394, -1.388))]

# the doublings and saddle nodes of the hyperbolic components of periods
# 1-5, to 2^-64 (params._parabolic_refine at multipliers -1 and 1)
WINDOW_ENDS = [Dyadic(m, e) for m, e in (
    (1, -2), (-3, -2), (-5, -2), (-7, -2),
    (-25236971002464012027, -64), (-32623604662465844595, -64),
    (-1118651367696193201, -59), (-8953762510997106079, -62),
    (-9156086113456525153, -62), (-9156354182626449415, -62),
    (-34321771721211067151, -64), (-17168062776544445259, -63),
    (-14982417766637784755, -63), (-938729297874603867, -59))]

# the windows of the periods 1, 2, 3, 4 and 8 cycles
SAMPLE_WINDOWS = [(Fraction(-3, 4), Fraction(1, 4)),
                  (Fraction(-5, 4), Fraction(-3, 4)),
                  (Fraction(-17685, 10000), Fraction(-7, 4)),
                  (Fraction(-13681, 10000), Fraction(-5, 4)),
                  (Fraction(-1394, 1000), Fraction(-13681, 10000))]

# c * 2^40 inside primitive windows of periods 5-19, drawn on that grid
# in [-2, -1.402]; the float search that certify_attracting_cycle once
# seeded from gave each the same period
PRIMITIVE = [(-2046118258429, 5), (-2097170234875, 6), (-2118915583158, 7),
             (-1881307001200, 8), (-1820933417164, 9),
             (-1871037562597, 10), (-1904355513698, 11),
             (-1874492777887, 12), (-1885394435677, 13),
             (-1912840994685, 14), (-1886381247362, 15),
             (-1916821226777, 17), (-1912263751080, 19)]

params_in_range = st.builds(
    lambda k: Dyadic(k, -52),
    st.integers(min_value=-(2 << 52), max_value=1 << 50))


def pointwise_orbit(c: Dyadic, steps: int, p: int) -> list:
    """Independent reference: nearest-rounded pointwise orbit at precision p."""
    xs, x = [Dyadic(0)], Dyadic(0)
    for _ in range(steps):
        x = (x * x + c).round(p, NEAREST)
        xs.append(x)
    return xs


class TestCriticalOrbit:
    @given(params_in_range, st.integers(min_value=1, max_value=200))
    @example(Dyadic(-2), 200)  # the bracket of c = -2 straddles the range
    @settings(max_examples=60, deadline=None)
    def test_enclosure_soundness(self, c, steps):
        enc = critical_orbit(oracle_exact(c), steps, 96)
        ref = pointwise_orbit(c, steps, 384)
        pad = Dyadic(1, -300)  # reference rounding slack per step, summed
        for k, x in enumerate(ref):
            step = enc.steps[k]
            assert step.lo - pad.scale2(k.bit_length() + 4) <= x <= step.hi + pad.scale2(k.bit_length() + 4)

    def test_blowup_flagged_outside_range(self):
        # c = 1 escapes; widths explode once the orbit passes 2
        enc = critical_orbit(oracle_exact(Dyadic(1)), 64, 64)
        assert enc.blown_up

    def test_check_param(self):
        assert check_param(oracle_exact(Dyadic(-1))).contains(Dyadic(-1))
        with pytest.raises(ParameterRangeError):
            check_param(oracle_exact(Dyadic(1)))
        with pytest.raises(ParameterRangeError):
            check_param(oracle_exact(Dyadic(-3)))


def clamped_steps(c: Interval, n: int, p: int) -> list:
    """Reference for _critical_enclosures: iv_iterate one step at a time,
    each step met with [-2, 2] unless c is certified outside [-2, 1/4] or
    the step is an escape, which ends the orbit."""
    inside, two = not PARAM_RANGE.disjoint(c), Dyadic(2)
    xs = [Interval.point(ZERO)]
    while len(xs) <= n and not (xs[-1].lo > two or xs[-1].hi < -two):
        x = iv_iterate(xs[-1], c, 1, p)
        if inside and x.lo <= two and x.hi >= -two:
            x = Interval(dy_max(x.lo, -two), dy_min(x.hi, two))
        xs.append(x)
    return xs


class TestCriticalSteps:
    # c on the 2^-20 grid in [-2, 1/4], a point or a bracket 2^-(w-1) wide
    @given(st.integers(-(2 << 20), 1 << 18), st.integers(8, 80) | st.none(),
           st.integers(1, 160), st.integers(8, 128))
    @example(-2 << 20, 40, 160, 64)  # straddles -2: the clamp bites
    @example(-2 << 20, None, 160, 64)
    @example(1 << 20, 40, 160, 64)  # certified outside: an escape
    @example(-3 << 20, None, 160, 64)
    @settings(max_examples=80, deadline=None)
    def test_the_orbit_is_the_clamped_interval_orbit(self, k, w, n, p):
        c = Interval.point(Dyadic(k, -20))
        if w is not None:
            c = Interval(c.lo - Dyadic(1, -w), c.hi + Dyadic(1, -w))
        steps = _critical_enclosures(c, n, p)
        assert steps == clamped_steps(c, n, p)
        symbols = _symbols(_critical_ints(c, p)[1], None)
        assert "".join(islice(symbols, n)) == "".join(
            _SYMBOL[iv_sign(x)] for x in steps[1:])

    def test_a_bracket_that_straddles_minus_2_is_clamped(self):
        # three steps: unclamped, the upper end would leave [-2, 2] and its
        # ints double in length each step past 4
        e = Dyadic(1, -40)
        c = Interval(Dyadic(-2) - e, Dyadic(-2) + e)
        steps = _critical_enclosures(c, 3, 64)
        assert steps == clamped_steps(c, 3, 64)
        assert steps[1] == Interval(Dyadic(-2), c.hi)
        assert steps[2] == Interval(Dyadic(2) - e.scale2(2) - e, Dyadic(2))

    def test_an_exact_zero_reads_undecided(self):
        # c = -1: 0 -> -1 -> 0 exactly; a 0 is no certified R
        c = Interval.point(Dyadic(-1))
        steps = list(islice(_critical_ints(c, 64)[1], 5))
        assert "".join(_symbols(steps, None)) == "L?L?"
        assert "".join(_symbols(steps, 2)) == "LCLC"


class TestTrackedImage:
    @given(st.floats(min_value=-2.0, max_value=0.25),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=120, deadline=None)
    def test_image_is_a_set_image(self, cf, af, bf, t):
        c = Interval.point(Dyadic.from_float(cf))
        lo, hi = min(af, bf), max(af, bf)
        j = TrackedInterval.from_exact(Dyadic.from_float(lo),
                                       Dyadic.from_float(hi))
        img = j.image(c, 128)
        # lo + t * (hi - lo) can round past hi (lo = -1, hi = 2 - 2^-52, t = 1)
        x = Dyadic.from_float(min(lo + t * (hi - lo), hi))
        assert img.outer().contains(x * x + c.lo)
        # endpoints of the true image stay inside the outer enclosure (exact)
        a, b = Dyadic.from_float(lo), Dyadic.from_float(hi)
        ends = [a * a + c.lo, b * b + c.lo]
        if lo <= 0 <= hi:
            ends.append(c.lo)
        assert img.outer().contains(min(ends))
        assert img.outer().contains(max(ends))


class TestSymmetricTrap:
    def test_the_chain_of_a_trap(self):
        # c = -1: [-1/2, 1/2] -> [-1, -3/4] -> [-7/16, 0], inside at n = 2
        c, b = Interval.point(Dyadic(-1)), Dyadic(1, -1)
        q, chain = symmetric_trap(b, c, 2, 64)
        assert [from_fixed(lo, hi, q) for lo, hi in chain] == [
            Interval(-b, b), Interval(Dyadic(-1), Dyadic(-3, -2)),
            Interval(Dyadic(-7, -4), ZERO)]
        assert symmetric_trap(b, c, 1, 64) is None

    def test_an_escape_ends_the_run(self, monkeypatch):
        # c = 1: [-2, 2] -> [1, 5]; past 4 each step doubles the ints'
        # length, so no step may run after the first image past 4
        steps, orbit = [], qal.dynamics.fixed_orbit

        def counted(*args):
            for step in orbit(*args):
                steps.append(step)
                assert len(steps) <= 2, "a step ran past the escape"
                yield step
        monkeypatch.setattr(qal.dynamics, "fixed_orbit", counted)
        c = Interval.point(Dyadic(1))
        assert symmetric_trap(Dyadic(2), c, 64, 64) is None


class TestCycleCertification:
    def test_superattracting_fixed_point(self):
        cert = certify_attracting_cycle(oracle_exact(Dyadic(0)))
        assert cert.period == 1 and cert.kind == "superattracting"

    def test_attracting_fixed_point(self):
        cert = certify_attracting_cycle(oracle_exact(Dyadic(-1, -1)))
        assert cert.period == 1 and cert.kind == "attracting"
        # the fixed point is (1 - sqrt(3))/2; the enclosure can be tighter
        # than a float64, so test nearness rather than containment
        ref = Dyadic.from_float(-0.36602540378443865)
        slack = Dyadic(1, -50)
        assert cert.point_enclosures[0].intersect(
            Interval(ref - slack, ref + slack)) is not None

    def test_superattracting_two_cycle(self):
        cert = certify_attracting_cycle(oracle_exact(Dyadic(-1)))
        assert cert.period == 2 and cert.kind == "superattracting"

    def test_parabolic_is_never_certified_attracting(self):
        # c = -7/4: multiplier of the 3-cycle is exactly 1
        assert certify_attracting_cycle(oracle_exact(Dyadic(-7, -2)),
                                        p_cap=512) is None

    def test_chaotic_parameter_returns_none(self):
        assert certify_attracting_cycle(oracle_exact(Dyadic(-2)),
                                        p_cap=256) is None

    def test_certificate_survives_adversarial_oracle(self):
        o = WorstCaseOracle(oracle_exact(Dyadic(-1)))
        cert = certify_attracting_cycle(o)
        assert cert.period == 2
        assert any(e.contains(Dyadic(0)) for e in cert.point_enclosures)
        assert any(e.contains(Dyadic(-1)) for e in cert.point_enclosures)

    def test_recheck_at_doubled_precision(self):
        o = oracle_exact(Dyadic(-1, -1))
        cert = certify_attracting_cycle(o)
        # the trap, padded by 2^-64, proved again at 256 bits
        j, pad = cert.point_enclosures[0], Dyadic(1, -64)
        j = Interval(j.lo - pad, j.hi + pad)
        assert j.strictly_contains(iv_iterate(j, o.enclosure(256),
                                              cert.period, 256))

    @pytest.mark.parametrize("c,period,mult,point", [
        # 4(1 + c) = -255/256: a multiplier near -1, near the window's end
        (Dyadic(-1279, -10), 2, Dyadic(-255, -8), None),
        # the fixed point 31/64 is dyadic, with multiplier 31/32
        (Dyadic(1023, -12), 1, Dyadic(31, -5), Dyadic(31, -6)),
    ])
    def test_a_slow_cycle_is_squeezed(self, c, period, mult, point):
        # contracting the trap by P^n stalled at widths of 2e-6 to 2e-4 here
        cert = certify_attracting_cycle(oracle_exact(c))
        assert (cert.period, cert.kind) == (period, "attracting")
        assert all(e.width() < Dyadic(1, -50) for e in cert.point_enclosures)
        assert cert.multiplier.contains(mult)
        assert point is None or cert.point_enclosures[0].contains(point)

    @given(st.sampled_from(CYCLE_WINDOWS).flatmap(
        lambda w: st.tuples(st.just(w[0]), st.integers(*w[1:]))))
    @settings(max_examples=80, deadline=None)
    def test_each_point_enclosure_holds_a_root(self, drawn):
        # G = P^n - id falls through the attracting cycle point, so an
        # enclosure [lo, hi] of it has G(lo) >= 0 >= G(hi), exactly
        period, k = drawn
        c = Dyadic(k, -32)
        cert = certify_attracting_cycle(oracle_exact(c))
        assert cert.period == period
        assert cert.kind in ("attracting", "superattracting")

        def g(x):
            y = x
            for _ in range(period):
                y = y * y + c
            return y - x
        for e in cert.point_enclosures:
            assert g(e.lo) >= Dyadic(0) >= g(e.hi)
        # an oracle's bracket of c is 2^-62 wide at 64 bits, which hides
        # the rounding of the Newton quotient; a point c does not
        r = Dyadic(1, -20)
        e = cert.point_enclosures[0]
        e = _squeeze_cycle_point(Interval(e.lo - r, e.hi + r),
                                 Interval.point(c), period, 64)
        assert g(e.lo) >= Dyadic(0) >= g(e.hi)


    @pytest.mark.parametrize("c, period, mult", [
        (Dyadic(-5986906311, -32), 8, Fraction(-9908, 10000)),
        (Dyadic(-5369977209, -32), 4, Fraction(9953, 10000))])
    def test_a_multiplier_near_one_certifies(self, c, period, mult):
        # an orbit converging at a rate near 1 is still far from the cycle
        # after thousands of steps; the window's J holds the cycle anyway
        cert = certify_attracting_cycle(oracle_exact(c))
        assert (cert.period, cert.kind) == (period, "attracting")
        assert abs(cert.multiplier.mid().as_fraction() - mult) < \
            Fraction(1, 10**4)

    @pytest.mark.parametrize("base, side, period, sign", [
        (Dyadic(-3, -2), 1, 1, -1), (Dyadic(-3, -2), -1, 2, 1),
        (Dyadic(-5, -2), 1, 2, -1), (Dyadic(-5, -2), -1, 4, 1)])
    def test_both_sides_of_a_doubling_certify(self, base, side, period,
                                              sign):
        # -3/4 and -5/4 +- 2^-k: the multiplier tends to -1 from above on
        # the near side and to 1 from below past the doubling
        for k in range(6, 61):
            cert = certify_attracting_cycle(
                oracle_exact(base + Dyadic(side, -k)))
            assert (cert.period, cert.kind) == (period, "attracting"), k
            assert iv_sign(cert.multiplier) == sign, k

    @given(st.sampled_from(WINDOW_ENDS).flatmap(
        lambda end: st.builds(lambda k: end + Dyadic(k, -64),
                              st.integers(-(1 << 24), 1 << 24))))
    @settings(max_examples=40, deadline=None)
    def test_near_a_window_end_a_cycle_is_sound(self, c):
        # within 2^-40 of a doubling or a saddle node the answer may be
        # None; a cycle has disjoint points, each holding the sign change
        # of G = P^n - id exactly, and a multiplier inside (-1, 1)
        cert = certify_attracting_cycle(oracle_exact(c), p_cap=512)
        if cert is None:
            return
        encs = sorted(cert.point_enclosures, key=lambda e: e.lo)
        assert all(a.hi < b.lo for a, b in zip(encs, encs[1:]))
        assert Dyadic(-1) < cert.multiplier.lo and cert.multiplier.hi < \
            Dyadic(1)

        def g(x):
            y = x
            for _ in range(cert.period):
                y = y * y + c
            return y - x
        for e in cert.point_enclosures:
            assert g(e.lo) >= Dyadic(0) >= g(e.hi)

    def test_a_multiplier_of_minus_one_is_not_attracting(self):
        # the 64-bit bracket of -3/4 + 2^-63 starts at -3/4, where the
        # closed form 2 alpha is -1 exactly; 128 bits certify it
        o = oracle_exact(Dyadic(-3, -2) + Dyadic(1, -63))
        assert certify_attracting_cycle(o, p_cap=64) is None
        cert = certify_attracting_cycle(o, p_cap=128)
        assert (cert.period, cert.kind) == (1, "attracting")

    def test_a_multiple_of_the_period_is_not_certified(self):
        # 0 is a fixed point of P^4 at c = -1; its four images meet, so the
        # period is not 4, and its two images are disjoint
        q, cf = fixed_read(64, oracle_exact(Dyadic(-1)).enclosure(64))
        assert not _minimal(_cycle_orbit(cf, 4, q, 64, (0, 0)))
        assert _minimal(_cycle_orbit(cf, 2, q, 64, (0, 0)))

    def test_the_sample_of_five_windows_certifies(self):
        # 200 c at the odd 400ths of each window, on the grid 2^-32; near
        # 1 in modulus the multipliers of 4 of them once went undecided
        for (lo, hi), period in zip(SAMPLE_WINDOWS, (1, 2, 3, 4, 8)):
            for j in range(200):
                x = lo + (hi - lo) * Fraction(2 * j + 1, 400)
                c = Dyadic(round(x * 2**32), -32)
                cert = certify_attracting_cycle(oracle_exact(c))
                assert (cert.period, cert.kind) == (period, "attracting"), c

    @pytest.mark.parametrize("k, period", PRIMITIVE)
    def test_a_primitive_window_certifies(self, k, period):
        cert = certify_attracting_cycle(oracle_exact(Dyadic(k, -40)))
        assert (cert.period, cert.kind) == (period, "attracting")

    @pytest.mark.parametrize("k", range(20))
    def test_a_window_of_any_period_up_to_max_period_certifies(
            self, k, monkeypatch):
        # the primitive windows LR (LLR)^k LL of periods 5, 8, ..., 62 that
        # pile up on the saddle node -7/4 from the right, at the centre to
        # 2^-64: with the fast path, and with the parse and the walk alone,
        # which past period 33 read more than 32 kneading symbols
        A = "LR" + "LLR" * k + "LL"
        c = _centre_of(A).enclosure(128).mid().round(64)
        for fast in (True, False):
            if not fast:
                monkeypatch.setattr(qal.dynamics, "_seeded_cycle",
                                    lambda *args: None)
            cert = certify_attracting_cycle(oracle_exact(c))
            assert cert.period == len(A) + 1
            assert cert.kind in ("attracting", "superattracting")

    @pytest.mark.parametrize("k", range(9))
    def test_next_to_a_saddle_node_the_walk_certifies(self, k, monkeypatch):
        # 2^-8 of the way from the right end of LR (LLR)^k LL (periods 5 to
        # 29) to its centre, where the multiplier is near 1 and the
        # kneading is the end's, the plateau's candidate word
        A = "LR" + "LLR" * k + "LL"
        centre = _centre_of(A)
        end = _window_at(A, centre).right.mid()
        c = (end + (centre.enclosure(128).mid() - end).scale2(-8)).round(80)
        monkeypatch.setattr(qal.dynamics, "_seeded_cycle",
                            lambda *args: None)
        cert = certify_attracting_cycle(oracle_exact(c))
        assert (cert.period, cert.kind) == (len(A) + 1, "attracting")


def float_root_count(c: float, n: int, grid: int = 1 << 16) -> int:
    """Independent sign-scan count of P^n(w) = w roots on [-2, 2]."""
    def g(w):
        v = w
        for _ in range(n):
            v = v * v + c
        return v - w
    count, prev = 0, g(-2.0)
    for j in range(1, grid + 1):
        cur = g(-2.0 + 4.0 * j / grid)
        if prev == 0.0 or prev * cur < 0:
            count += 1
        prev = cur
    return count


class TestPeriodicPoints:
    @pytest.mark.parametrize("c,n", [(-1.0, 1), (-1.0, 2), (0.0, 1),
                                     (-1.3, 2), (-1.76, 3)])
    def test_count_matches_sign_scan(self, c, n):
        pts = isolate_periodic_points(oracle_exact(Dyadic.from_float(c)), n, 64)
        assert len(pts) == float_root_count(c, n)
        assert all(p.unique for p in pts)

    def test_enclosures_disjoint_and_refined(self):
        pts = isolate_periodic_points(oracle_exact(Dyadic(-1)), 2, 64)
        encs = sorted(pts, key=lambda p: p.enclosure.lo.as_fraction())
        for a, b in zip(encs, encs[1:]):
            assert a.enclosure.disjoint(b.enclosure)
        # the superattracting 2-cycle {0, -1} appears among the four roots
        assert any(p.enclosure.contains(Dyadic(0)) for p in pts)
        assert any(p.enclosure.contains(Dyadic(-1)) for p in pts)

    def test_newton_runs_stop_once_a_step_cannot_halve(self, monkeypatch):
        # isolation once shaved slivers off its boxes until the 80-step cap
        real, runs = qal.dynamics.interval_newton, []

        def counted(f, df, lo, hi, q, width=0):
            evals = []

            def d(*box):
                evals.append(box)
                return df(*box)

            got = real(f, d, lo, hi, q, width)
            runs.append(len(evals))  # one F' enclosure per step
            return got

        monkeypatch.setattr(qal.dynamics, "interval_newton", counted)
        pts = isolate_periodic_points(oracle_exact(Dyadic(-1)), 2, 128)
        assert runs and max(runs) < 40
        assert len(pts) == 4 and all(p.unique for p in pts)
        assert any(p.enclosure.contains(Dyadic(0)) for p in pts)
        assert any(p.enclosure.contains(Dyadic(-1)) for p in pts)

    def test_multiplier_encloses_truth(self):
        # at c = 0 the fixed point 0 has multiplier exactly 0
        pts = isolate_periodic_points(oracle_exact(Dyadic(0)), 1, 64)
        zero = [p for p in pts if p.enclosure.contains(Dyadic(0))]
        assert zero and zero[0].multiplier.contains(Dyadic(0))

    @given(st.integers(min_value=-(2 << 20), max_value=1 << 18),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_each_unique_enclosure_holds_a_sign_change(self, k, n):
        # exactly: G = P^n - id changes sign across every unique enclosure
        # (G' excludes 0 there), and the multiplier holds (P^n)' at its ends
        c = Fraction(k, 1 << 20)

        def g_and_deriv(w):
            v, d = w, 1
            for _ in range(n):
                v, d = v * v + c, 2 * v * d
            return v - w, d

        pts = isolate_periodic_points(oracle_exact(Dyadic(k, -20)), n, 64)
        for pt in (pt for pt in pts if pt.unique):
            (g_lo, d_lo), (g_hi, d_hi) = (
                g_and_deriv(e.as_fraction())
                for e in (pt.enclosure.lo, pt.enclosure.hi))
            assert g_lo * g_hi <= 0
            mult = (pt.multiplier.lo.as_fraction(),
                    pt.multiplier.hi.as_fraction())
            assert mult[0] <= min(d_lo, d_hi) and max(d_lo, d_hi) <= mult[1]


def newton_at_zero(lo: int, hi: int, q: int = 16):
    """solver.interval_newton on G = P - id at c = 0, G(w) = w^2 - w (roots
    0 and 1), over [lo, hi] 2^-q."""
    return interval_newton(*_return_map((0, 0), 1, q, q), lo, hi, q)


class TestIntervalNewton:
    def test_a_box_without_a_root_gives_none(self):
        # G >= 2 on [2, 3], and N([2, 3]) = [5/4, 7/4]
        assert newton_at_zero(2 << 16, 3 << 16) is None

    def test_unique_once_a_step_lands_strictly_inside(self):
        assert newton_at_zero(-1 << 14, 1 << 14) == (0, 0, True)
        # with the root at the box's end, no N(Y) lies strictly inside Y
        assert newton_at_zero(0, 1 << 14) == (0, 0, False)

    def test_a_box_where_the_derivative_may_vanish_comes_back_whole(self):
        # [-1/4, 5/4] holds both roots, and G' = 2w - 1 holds 0 over it
        box = (-1 << 14, 5 << 14)
        assert newton_at_zero(*box) == (*box, False)

    def test_a_point_box_at_an_exactly_dyadic_root_stops(self):
        assert newton_at_zero(0, 0) == (0, 0, False)
        assert newton_at_zero(1 << 16, 1 << 16) == (1 << 16, 1 << 16, False)


class TestIterEval:
    @given(st.floats(min_value=-1.9, max_value=0.2),
           st.floats(min_value=-1.5, max_value=1.5),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=80, deadline=None)
    def test_value_and_derivative_sound(self, cf, xf, k):
        c = Interval.point(Dyadic.from_float(cf))
        box = Interval(Dyadic.from_float(xf - 1e-3), Dyadic.from_float(xf + 1e-3))
        val, der = iter_eval(box, c, k, 128)
        v, dv = xf, 1.0
        for _ in range(k):
            dv *= 2 * v
            v = v * v + cf
        if abs(v) < 1e12:
            assert float(val.lo) - 1e-6 <= v <= float(val.hi) + 1e-6
        if abs(dv) < 1e12:
            assert float(der.lo) - 1e-6 <= dv <= float(der.hi) + 1e-6


GATE = Interval(Dyadic(-1, -2), Dyadic(1, -2))


def dyadic_escape_count(eps: Dyadic, a: Dyadic, p: int, mode: str,
                        max_steps: int):
    """Reference: the escape loop on exact Dyadics, each step rounded to D_p
    in mode; None past max_steps."""
    w = -a
    for k in range(1, max_steps + 1):
        w = (w + w * w + eps).round(p, mode)
        if w > a:
            return k
    return None


class TestEscapeTime:
    def test_unit_epsilon_escapes_in_one_step(self):
        assert escape_time(Dyadic(1), GATE) == 1

    def test_sqrt_scaling_law(self):
        eps = Dyadic.parse("7*2^-16")  # about 1.07e-4
        n = escape_time(eps, GATE)
        assert 2.8 <= n * float(eps) ** 0.5 <= 3.3

    def test_quarter_epsilon_doubles_count(self):
        eps = Dyadic(13, -17)
        n1 = escape_time(eps, GATE)
        n2 = escape_time(eps.scale2(-2), GATE)
        assert 1.8 <= n2 / n1 <= 2.2

    @given(st.integers(1, 1 << 20), st.integers(0, 120),
           st.sampled_from([Dyadic(1, -2), Dyadic(7, -5), Dyadic(3, -70)]),
           st.sampled_from([64, 128]), st.sampled_from([DOWN, UP]),
           st.integers(1, 400))
    # 7 * 2^-16 escapes in 296 steps: a step limit at that count, one below
    @example(7, 16, Dyadic(1, -2), 64, UP, 296)
    @example(7, 16, Dyadic(1, -2), 64, DOWN, 295)
    def test_the_count_is_the_dyadic_loop(self, k, e, a, p, mode, max_steps):
        eps = Dyadic(k, -e)
        assert (_escape_count(eps, a, p, mode, max_steps)
                == dyadic_escape_count(eps, a, p, mode, max_steps))

    def test_the_step_limit_ends_the_run_at_its_first_rung(self,
                                                           monkeypatch):
        # 2^-40 needs about 3.3e6 steps: past the limit at every rung
        rungs, count = [], qal.dynamics._escape_count

        def spy(eps, a, p, mode, max_steps):
            rungs.append(p)
            return count(eps, a, p, mode, max_steps)
        monkeypatch.setattr(qal.dynamics, "_escape_count", spy)
        with pytest.raises(PrecisionExhausted, match="step limit"):
            escape_time(Dyadic(1, -40), GATE, max_steps=1000)
        assert set(rungs) == {64}

    def test_input_validation(self):
        with pytest.raises(ValueError):
            escape_time(Dyadic(0), GATE)
        with pytest.raises(ValueError):
            escape_time(Dyadic(1), Interval(Dyadic(-1, -2), Dyadic(1, -3)))
