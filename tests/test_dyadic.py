"""Dyadic and interval arithmetic: exactness, rounding, soundness."""

from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qal.dyadic import (DOWN, NEAREST, UP, Dyadic, Interval, fixed_orbit,
                        fixed_quotient, fixed_read, from_fixed,
                        iv_deriv_enclosure, iv_iterate, iv_quad_step)

dyadics = st.builds(Dyadic,
                    st.integers(min_value=-(1 << 40), max_value=1 << 40),
                    st.integers(min_value=-50, max_value=20))
precisions = st.integers(min_value=1, max_value=80)


def iv(a: Dyadic, b: Dyadic) -> Interval:
    return Interval(a, b) if a <= b else Interval(b, a)


intervals = st.builds(iv, dyadics, dyadics)
int_pairs = st.builds(lambda a, b: (min(a, b), max(a, b)),
                      st.integers(-(1 << 80), 1 << 80),
                      st.integers(-(1 << 80), 1 << 80))
# exponents far apart and mantissas past 2^64: the aligning shifts of _cmp
# and __sub__ run to hundreds of bits
wide = st.builds(Dyadic,
                 st.integers(min_value=-(1 << 100), max_value=1 << 100),
                 st.integers(min_value=-600, max_value=600))
# interval ends that are zero as often as not, and grids either side of p
ends = st.one_of(st.just(Dyadic(0)), dyadics)
kernel_intervals = st.builds(iv, ends, ends)
kernel_precisions = st.integers(min_value=-30, max_value=120)
# orbit ends stay small enough for a few exact squarings
orbit_ends = st.one_of(st.just(Dyadic(0)),
                       st.builds(Dyadic,
                                 st.integers(min_value=-(1 << 12),
                                             max_value=1 << 12),
                                 st.integers(min_value=-40, max_value=1)))
orbit_intervals = st.builds(iv, orbit_ends, orbit_ends)


def tightest_out(lo: Fraction, hi: Fraction, p: int) -> Interval:
    """The smallest interval of D_p containing [lo, hi], from Fractions."""
    g = Fraction(2) ** -p
    a, b = floor(lo / g) * g, ceil(hi / g) * g
    return Interval(Dyadic.from_fraction_rounded(a, p),
                    Dyadic.from_fraction_rounded(b, p))


def orbit_fold(x0: Interval, c: Interval, n: int, p: int, d0=None, add=0):
    """[(x_k, d_k)] for k = 0..n of x' = x^2 + c, d' = 2 x d + add, each
    step the tightest outward D_p box of the exact image of the last one."""
    x, d = x0, d0
    out = [(x, d)]
    for _ in range(n):
        lo, hi = x.lo.as_fraction(), x.hi.as_fraction()
        if d is not None:
            prods = [2 * a.as_fraction() * b for a in (d.lo, d.hi)
                     for b in (lo, hi)]
            d = tightest_out(min(prods) + add, max(prods) + add, p)
        sq = sorted((lo * lo, hi * hi))
        if lo <= 0 <= hi:
            sq[0] = Fraction(0)
        x = tightest_out(sq[0] + c.lo.as_fraction(),
                         sq[1] + c.hi.as_fraction(), p)
        out.append((x, d))
    return out


class TestDyadicRing:
    def test_canonical_form(self):
        d = Dyadic(12, 0)
        assert (d.man, d.exp) == (3, 2)
        assert (Dyadic(0, 7).man, Dyadic(0, 7).exp) == (0, 0)

    @given(dyadics, dyadics)
    def test_add_matches_fractions(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()

    @given(dyadics, dyadics)
    def test_mul_matches_fractions(self, a, b):
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()

    @given(dyadics, dyadics)
    def test_comparison_matches_fractions(self, a, b):
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (a == b) == (a.as_fraction() == b.as_fraction())

    @given(dyadics)
    def test_neg_abs_half(self, a):
        assert (-a).as_fraction() == -a.as_fraction()
        assert abs(a).as_fraction() == abs(a.as_fraction())
        assert a.half().as_fraction() == a.as_fraction() / 2

    @given(wide, wide)
    def test_wide_comparison_and_sub_match_fractions(self, a, b):
        fa, fb = a.as_fraction(), b.as_fraction()
        assert a._cmp(b) == (fa > fb) - (fa < fb)
        assert (a <= b, a >= b) == (fa <= fb, fa >= fb)
        assert (a - b).as_fraction() == fa - fb

    @given(wide, st.integers(min_value=1, max_value=1200),
           st.sampled_from([-1, 1]))
    def test_wide_neighbours_compare_and_sub(self, a, k, sign):
        # b differs from a by one unit 2^k places below a's last bit
        b = a + Dyadic(sign, a.exp - k)
        assert a._cmp(b) == -sign and b._cmp(a) == sign
        assert (b - a) == Dyadic(sign, a.exp - k)
        assert (a - a) == Dyadic(0)

    def test_equality_is_structural_and_hashable(self):
        assert Dyadic(4, -1) == Dyadic(1, 1) == Dyadic(2)
        assert len({Dyadic(4, -1), Dyadic(2), Dyadic(1, 1)}) == 1


class TestRounding:
    @given(dyadics, precisions)
    def test_directed_modes_bracket(self, a, m):
        lo, hi = a.round(m, DOWN), a.round(m, UP)
        assert lo <= a <= hi
        assert (hi - lo).as_fraction() <= Fraction(1, 1 << m)
        assert lo.in_grid(m) and hi.in_grid(m)

    @given(dyadics, precisions)
    def test_nearest_within_half_granule(self, a, m):
        r = a.round(m, NEAREST)
        assert abs(r - a).as_fraction() <= Fraction(1, 1 << (m + 1))

    def test_nearest_ties_to_even(self):
        # 3/2 at granule 1 sits exactly between 1 and 2; even mantissa wins
        assert Dyadic(3, -1).round(0) == Dyadic(2)
        assert Dyadic(5, -1).round(0) == Dyadic(2)

    @given(dyadics, precisions)
    def test_grid_members_round_to_themselves(self, a, m):
        r = a.round(m)
        assert r.round(m, DOWN) == r.round(m, UP) == r

    @given(dyadics)
    def test_floor_ceil_int(self, a):
        q = a.as_fraction()
        assert a.floor_int() == q.numerator // q.denominator
        assert a.ceil_int() == -((-q.numerator) // q.denominator)


class TestSerialization:
    @given(dyadics)
    def test_str_parse_roundtrip(self, a):
        assert Dyadic.parse(str(a)) == a

    def test_parse_forms(self):
        assert Dyadic.parse("-7*2^-2") == Dyadic(-7, -2)
        assert Dyadic.parse("-1.75") == Dyadic(-7, -2)
        assert Dyadic.parse("3") == Dyadic(3)
        with pytest.raises(ValueError):
            Dyadic.parse("0.1")  # not a dyadic rational

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-8.0, max_value=8.0))
    def test_from_float_exact(self, x):
        assert Dyadic.from_float(x).as_fraction() == Fraction(x)


class TestInterval:
    @given(intervals, intervals)
    def test_add_sound(self, x, y):
        pairs = [(a, b) for a in (x.lo, x.mid(), x.hi)
                 for b in (y.lo, y.mid(), y.hi)]
        s = x + y
        for a, b in pairs:
            assert s.lo <= a + b <= s.hi

    @given(intervals)
    def test_square_is_set_exact(self, x):
        sq = x.square()
        assert sq.lo == x.mig() * x.mig()
        assert sq.hi == x.mag() * x.mag()
        assert sq.lo >= Dyadic(0)

    @given(intervals, precisions)
    def test_round_out_contains(self, x, m):
        assert x.round_out(m).contains_interval(x)

    @given(int_pairs, int_pairs, precisions)
    @example((-7, 5), (3, 3), 0)
    def test_fixed_quotient_sound(self, a, b, s):
        # the one outward quotient of both interval Newtons, against Fractions
        assume(not b[0] <= 0 <= b[1])
        corners = [Fraction(x * 2**s, y) for x in a for y in b]
        assert fixed_quotient(a, b, s) == (floor(min(corners)),
                                           ceil(max(corners)))

    @given(intervals, intervals, precisions)
    def test_quad_step_sound(self, x, c, p):
        out = iv_quad_step(x, c, p)
        for v in (x.lo, x.mid(), x.hi):
            for w in (c.lo, c.hi):
                assert out.lo <= v * v + w <= out.hi

    @given(kernel_intervals, kernel_intervals, kernel_precisions)
    @example(iv(Dyadic(-3, -2), Dyadic(5, -3)), iv(Dyadic(1, -70), Dyadic(3, -70)), 8)
    @example(iv(Dyadic(0), Dyadic(0)), iv(Dyadic(-7, -2), Dyadic(-7, -2)), 64)
    @example(iv(Dyadic(-5, -40), Dyadic(0)), iv(Dyadic(-1, 3), Dyadic(1, 3)), -6)
    def test_quad_step_is_tightest_outward(self, x, c, p):
        lo, hi = x.lo.as_fraction(), x.hi.as_fraction()
        sq = sorted((lo * lo, hi * hi))
        if lo <= 0 <= hi:
            sq[0] = Fraction(0)
        exact = (sq[0] + c.lo.as_fraction(), sq[1] + c.hi.as_fraction())
        assert iv_quad_step(x, c, p) == tightest_out(*exact, p)

    @given(kernel_intervals, kernel_intervals, kernel_precisions,
           st.sampled_from([0, 1]))
    @example(iv(Dyadic(-3, -2), Dyadic(5, -3)), iv(Dyadic(1, 4), Dyadic(3, 5)), 2, 1)
    def test_deriv_step_is_tightest_outward(self, d, x, p, add):
        # one step of fixed_orbit's derivative line d' = 2 x d + add
        prods = [2 * a.as_fraction() * b.as_fraction()
                 for a in (d.lo, d.hi) for b in (x.lo, x.hi)]
        exact = (min(prods) + add, max(prods) + add)
        q, xf, df = fixed_read(p, x, d)
        *_, (_, _, e) = fixed_orbit(xf, (0, 0), 1, q, p, df, add)
        assert from_fixed(*e, q) == tightest_out(*exact, p)

    @given(orbit_intervals, orbit_intervals, st.integers(0, 5),
           st.integers(-4, 80), st.one_of(st.none(), orbit_intervals),
           st.sampled_from([0, 1]))
    # c coarser than 2^-p: every step exact
    @example(iv(Dyadic(0), Dyadic(0)), iv(Dyadic(-1), Dyadic(-1)), 5, 8,
             iv(Dyadic(0), Dyadic(0)), 1)
    # x0 the point 0 under a bracket of c finer than 2^-p
    @example(iv(Dyadic(0), Dyadic(0)),
             iv(Dyadic(-7, -2) - Dyadic(1, -70), Dyadic(-7, -2) + Dyadic(1, -70)),
             5, 30, iv(Dyadic(0), Dyadic(0)), 1)
    # boxes that straddle 0
    @example(iv(Dyadic(-3, -2), Dyadic(5, -3)), iv(Dyadic(-1), Dyadic(-1023, -10)),
             4, 12, iv(Dyadic(-1, -3), Dyadic(3, -1)), 0)
    # x0 finer than 2^-p
    @example(iv(Dyadic(1, -60), Dyadic(3, -60)), iv(Dyadic(-3, -1), Dyadic(-3, -1)),
             4, 20, iv(Dyadic(1), Dyadic(1)), 0)
    @example(iv(Dyadic(1, -60), Dyadic(3, -60)), iv(Dyadic(-3, -1), Dyadic(-3, -1)),
             0, 20, iv(Dyadic(1), Dyadic(1)), 1)
    def test_orbit_kernel_is_the_exact_fold(self, x0, c, n, p, d0, add):
        q, x, cf, *d = fixed_read(p, x0, c, *([d0] if d0 else []))
        steps = fixed_orbit(x, cf, n, q, p, d[0] if d else None, add)
        got = [(from_fixed(lo, hi, q), d and from_fixed(*d, q))
               for lo, hi, d in steps]
        fold = orbit_fold(x0, c, n, p, d0, add)
        assert got == fold
        assert iv_iterate(x0, c, n, p) == fold[-1][0]

    @given(intervals)
    def test_deriv_enclosure(self, x):
        d = iv_deriv_enclosure(x)
        assert d.lo == x.lo.scale2(1) and d.hi == x.hi.scale2(1)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(Dyadic(1), Dyadic(0))

    @given(intervals, intervals)
    def test_intersect_hull(self, x, y):
        h = x.hull(y)
        assert h.contains_interval(x) and h.contains_interval(y)
        z = x.intersect(y)
        if z is None:
            assert x.disjoint(y)
        else:
            assert x.contains_interval(z) and y.contains_interval(z)
