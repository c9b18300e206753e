"""Oracle contract, cost accounting, and refiner correctness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qal.dyadic import Dyadic, Interval
from qal.oracle import (OracleFault, QueryLedger, WorstCaseOracle,
                        _exact_critical_period, ledger_report, oracle_bisect,
                        oracle_exact, oracle_newton)

dyadic_params = st.builds(Dyadic,
                          st.integers(min_value=-(2 << 53), max_value=1 << 51),
                          st.just(-53))


def golden_ratio_oracle(cap: int = 4096):
    """Root of x^2 - x - 1 in [1, 2]: c = (1+sqrt(5))/2, a known irrational."""
    def func(X: Interval, p: int):
        f = (X.square() - X - Interval.point(Dyadic(1))).round_out(p)
        df = (X.scale2(1) - Interval.point(Dyadic(1))).round_out(p)
        return f, df
    return oracle_newton(func, Interval(Dyadic(1), Dyadic(2)), cap, "phi")



class TestContract:
    @given(dyadic_params, st.integers(min_value=1, max_value=120))
    def test_exact_oracle_contract(self, c, m):
        ans = oracle_exact(c).query(m)
        assert ans.in_grid(m)
        assert abs(ans - c).as_fraction() < Fraction(1, 1 << (m - 1))

    @given(dyadic_params, st.integers(min_value=1, max_value=120))
    def test_worst_case_stays_admissible(self, c, m):
        ans = WorstCaseOracle(oracle_exact(c)).query(m)
        assert ans.in_grid(m)
        assert abs(ans - c).as_fraction() < Fraction(1, 1 << (m - 1))

    def test_enclosure_brackets_c(self):
        c = Dyadic(-7, -2)
        for o in (oracle_exact(c), WorstCaseOracle(oracle_exact(c))):
            for m in (1, 5, 16, 64):
                enc = o.enclosure(m)
                assert enc.contains(c)
                assert enc.width() == Dyadic(1, 2 - m)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            oracle_exact(Dyadic(0)).query(0)


class TestLedger:
    def test_charges_every_query_including_cache_hits(self):
        o, led = oracle_exact(Dyadic(-1)), QueryLedger()
        o.query(10, led)
        o.query(10, led)  # cached answer, still costs 10 ticks
        o.query(3, led)
        assert led.total_units == 23
        assert led.max_precision == 10
        assert led.query_count == 3

    def test_report_snapshot(self):
        o, led = oracle_exact(Dyadic(1, -2)), QueryLedger()
        o.enclosure(8, led)
        r = ledger_report(led)
        assert (r.total_units, r.max_precision, r.query_count) == (8, 8, 1)

    def test_unledgered_queries_cost_nothing(self):
        o, led = oracle_exact(Dyadic(0)), QueryLedger()
        o.query(40)
        assert led.total_units == 0


class TestRefiners:
    def test_newton_oracle_converges_to_phi(self):
        o = golden_ratio_oracle()
        phi_lo = Fraction(1618033988749894848, 10 ** 18)  # < phi
        phi_hi = Fraction(1618033988749894849, 10 ** 18)  # > phi
        ans = o.query(60)
        assert phi_lo - Fraction(1, 1 << 59) < ans.as_fraction() < phi_hi + Fraction(1, 1 << 59)

    def test_refinement_is_monotone_consistent(self):
        o = golden_ratio_oracle()
        answers = [o.query(m) for m in (4, 16, 48)]
        # successive answers approximate the same real: cross-check contracts
        for m, a in zip((4, 16, 48), answers):
            for m2, b in zip((4, 16, 48), answers):
                assert abs(a - b).as_fraction() < Fraction(1, 1 << (m - 1)) + Fraction(1, 1 << (m2 - 1))

    def test_bisect_oracle_matches_newton(self):
        def pred(x: Dyadic, p: int) -> int:
            v = x * x - x - Dyadic(1)
            return v.sign
        ob = oracle_bisect(pred, Interval(Dyadic(1), Dyadic(2)))
        on = golden_ratio_oracle()
        assert abs(ob.query(50) - on.query(50)).as_fraction() < Fraction(1, 1 << 48)

    def test_no_sign_change_faults(self):
        def pred(x: Dyadic, p: int) -> int:
            return 1
        with pytest.raises(OracleFault):
            oracle_bisect(pred, Interval(Dyadic(0), Dyadic(1)))


def squaring_critical_period(c: Dyadic, max_steps: int = 64,
                             max_bits: int = 1 << 14):
    """P_c^k(0) = 0 checked by squaring the exact orbit, stopping once a
    mantissa passes max_bits or the orbit leaves [-2, 2]."""
    x = Dyadic(0)
    for k in range(1, max_steps + 1):
        x = x * x + c
        if x == Dyadic(0):
            return k
        if abs(x.man).bit_length() > max_bits or abs(x) > Dyadic(2):
            return None
    return None


_GRID = random.Random(12)
GRID_32 = [Dyadic(_GRID.randrange(-2 << 32, 1 << 30), -32) for _ in range(20)]


class TestExactCriticalPeriod:
    @pytest.mark.parametrize("c", [
        Dyadic(0), Dyadic(-1), Dyadic(-2), Dyadic(1, -2), Dyadic(-1, -1),
        Dyadic(-7, -2), Dyadic(-21, -4)] + GRID_32, ids=str)
    def test_agrees_with_the_squaring_loop(self, c):
        assert _exact_critical_period(c) == squaring_critical_period(c)

    def test_integer_periods(self):
        assert [_exact_critical_period(Dyadic(k)) for k in (0, -1, -2, 1)] \
            == [1, 2, None, None]

    @pytest.mark.parametrize("k", range(-3, 3))
    def test_the_rule_is_the_loop_on_integers(self, k):
        assert _exact_critical_period(Dyadic(k)) == \
            squaring_critical_period(Dyadic(k))

    @given(st.builds(Dyadic, st.integers(-(1 << 20), 1 << 20),
                     st.integers(-24, 2)))
    def test_the_rule_is_the_loop_on_dyadics(self, c):
        assert _exact_critical_period(c) == squaring_critical_period(c)
