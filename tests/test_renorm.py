"""Kneading data, renormalization certificates, nest, essential period."""

import pytest
from test_params import time_limit

from qal.dyadic import Dyadic, Interval
from qal.dynamics import ParameterRangeError
from qal.oracle import QueryLedger, oracle_exact
from qal.params import (_center_oracle, _epsilon_enclosure, epsilon_family,
                        superstable_center)
from qal.renorm import (CombinatorialType, detect_renormalization,
                        essential_structure, essentially_equivalent,
                        feigenbaum_word, kneading, principal_nest,
                        recheck_renormalization)

HALF_NEG = Dyadic(-1, -1)


class TestKneading:
    def test_superattracting_two_cycle(self):
        ks = kneading(oracle_exact(Dyadic(-1)), 8)
        assert ks.symbols == "CLCLCLCL"
        assert ks.certified_length == 8

    def test_chebyshev_parameter(self):
        # 0 -> -2 -> 2 -> 2 -> ...; never returns to 0
        assert kneading(oracle_exact(Dyadic(-2)), 8).symbols == "CLRRRRRR"

    def test_chebyshev_parameter_long_itinerary(self):
        # the bracket of c = -2 straddles the range; the orbit enclosure
        # must stay inside [-2, 2] instead of doubling its mantissa per step
        with time_limit(60):
            ks = kneading(oracle_exact(Dyadic(-2)), 200)
        assert ks.symbols == "CL" + "R" * 198
        assert ks.certified_length == 200

    def test_parameter_outside_the_range_is_refused(self):
        # c = 1 escapes; its bracket is certified outside [-2, 1/4]
        with time_limit(60), pytest.raises(ParameterRangeError):
            kneading(oracle_exact(Dyadic(1)), 40)

    def test_attracting_fixed_point(self):
        assert kneading(oracle_exact(HALF_NEG), 8).symbols == "CLLLLLLL"

    def test_superstable_three_marks_exact_returns(self):
        # the oracle's construction guarantees P^3(0) = 0, so C recurs
        ks = kneading(superstable_center(3), 9)
        assert ks.symbols == "CLRCLRCLR"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            kneading(oracle_exact(Dyadic(0)), 0)


class TestFeigenbaumWord:
    def test_doubling_rule(self):
        assert feigenbaum_word(1) == "L"
        assert feigenbaum_word(2) == "LRL"
        assert feigenbaum_word(3) == "LRLLLRL"
        assert len(feigenbaum_word(10)) == 1023

    def test_words_are_the_doubling_centres_itineraries(self):
        c8 = Interval(Dyadic.from_float(-1.38155), Dyadic.from_float(-1.38154))
        for k, centre in ((2, superstable_center(4, 1)),
                          (3, superstable_center(8, c8))):
            word = feigenbaum_word(k)
            ks = kneading(centre, 2 * len(word) + 3)
            assert ks.symbols == ("C" + word) * 2 + "C"


class TestCombinatorialType:
    def test_single_cycle_recognition(self):
        assert CombinatorialType(3, (2, 3, 1)).is_single_cycle()
        assert CombinatorialType(2, (2, 1)).is_single_cycle()
        assert not CombinatorialType(3, (1, 3, 2)).is_single_cycle()


class TestRenormalization:
    def test_superstable_three(self):
        o = superstable_center(3)
        cert = detect_renormalization(o, 4)
        assert cert.period == 3
        assert cert.tau == CombinatorialType(3, (2, 3, 1))
        assert recheck_renormalization(cert, o)

    def test_superattracting_two_cycle(self):
        cert = detect_renormalization(oracle_exact(Dyadic(-1)), 4)
        assert cert.period == 2
        assert cert.tau == CombinatorialType(2, (2, 1))

    def test_fixed_point_basin_is_not_renormalizable(self):
        assert detect_renormalization(oracle_exact(HALF_NEG), 4) is None

    def test_certificate_geometry(self):
        cert = detect_renormalization(oracle_exact(Dyadic(-1)), 4)
        # J is symmetric around 0 and f^n(J) lands strictly inside
        assert cert.J.lo == -cert.J.hi
        last = cert.images[cert.period]
        assert cert.J.lo < last.lo.lo and last.hi.hi < cert.J.hi


class TestPrincipalNest:
    def test_closes_on_the_two_cycle(self):
        nest = principal_nest(oracle_exact(Dyadic(-1)), 8)
        assert nest.closed and not nest.truncated
        assert nest.depth == 1
        assert nest.return_iterates[1] == 2

    def test_levels_are_nested(self):
        nest = principal_nest(epsilon_family(1), 8)
        assert nest.closed
        for outer, inner in zip(nest.levels, nest.levels[1:]):
            assert inner.certainly_inside(outer) or inner is outer


def nest_key(nest) -> tuple:
    """Everything a NestRecord holds, with its levels as Interval pairs."""
    return ([(t.lo, t.hi) for t in nest.levels], nest.return_iterates,
            nest.noncentral_levels, nest.closed, nest.truncated,
            nest.precision, nest.param_enclosure)


def fresh_eps_3():
    """epsilon_family(3)'s oracle before anything has run on it."""
    return _center_oracle(_epsilon_enclosure(3, 11), 11, "eps-family:3")


class TestNestResumes:
    def test_resumed_nest_is_a_fresh_build(self):
        o = epsilon_family(3)  # certifying its itinerary builds level 1
        shallow = principal_nest(o, 1)
        resumed_ledger, fresh_ledger = QueryLedger(), QueryLedger()
        resumed = principal_nest(o, 64, resumed_ledger)
        fresh = principal_nest(fresh_eps_3(), 64, fresh_ledger)
        assert shallow.precision == resumed.precision == 64
        assert resumed.depth > 1
        assert nest_key(resumed) == nest_key(fresh)
        assert resumed_ledger == fresh_ledger

    def test_a_shallow_nest_is_a_prefix(self):
        o = epsilon_family(3)
        full = principal_nest(o, 64)
        for d in range(full.depth + 1):
            ledgers = QueryLedger(), QueryLedger()
            fresh = principal_nest(fresh_eps_3(), d, ledgers[0])
            cut = principal_nest(o, d, ledgers[1])
            assert nest_key(cut) == nest_key(fresh)
            assert ledgers[0] == ledgers[1]
            assert nest_key(cut) == (
                [(t.lo, t.hi) for t in full.levels[:d + 1]],
                full.return_iterates[:d + 1],
                [m for m in full.noncentral_levels if m <= d],
                full.closed and d == full.depth, False, 64,
                full.param_enclosure)


class TestEssentialStructure:
    def test_two_cycle(self):
        d = essential_structure(oracle_exact(Dyadic(-1)))
        assert d.period == 2 and d.essential_period == 2
        assert d.reduced == CombinatorialType(2, (2, 1))

    def test_epsilon_family_stabilizes_at_five(self):
        # the full period grows as 3n + 2, but from n = 2 on the saddle-node
        # cascade annuli absorb 3(n - 1) intervals: p_e stays 5
        got = {}
        for n in (1, 2, 3):
            d = essential_structure(epsilon_family(n))
            assert d.period == 3 * n + 2
            got[n] = d
            assert d.essential_period == 5
        assert sum(got[2].neglectable) == 3
        assert sum(got[3].neglectable) == 6
        assert essentially_equivalent(got[2], got[3])

    def test_undecidable_returns_none_not_a_guess(self):
        # a starved precision cap cannot close the nest; the answer is None
        d = essential_structure(oracle_exact(Dyadic(-1)), p_cap=2)
        assert d is None
