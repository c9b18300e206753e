"""The shared root solvers and the precision ladder.

Every 1-D refiner in the package (oracle brackets, centres, periodic and
cycle points) runs the one interval Newton, interval_newton() on ints at
one scale, or certified sign bisection; a caller on Intervals rounds F and
F' outward to the Newton's scale.  It and params._parabolic_refine's 2x2
Newton share one outward quotient (dyadic.fixed_quotient) and one stopping
rule.  Every escalation of the working precision climbs ladder().  No float
seeds a certified root here: the one float seeds left in the package are
the right window ends' (params._parabolic_float, params._q_float).
"""

from __future__ import annotations

from .dyadic import ZERO, Dyadic, Interval, fixed_quotient

PRECISION_CAP = 4096


def ladder(p_start: int = 64, p_cap: int = PRECISION_CAP):
    """Working precisions p_start, 2 p_start, 4 p_start, ... up to p_cap."""
    p = p_start
    while p <= p_cap:
        yield p
        p *= 2


def iv_sign(v: Interval) -> int:
    """+1 or -1 when the enclosure certifies a sign, 0 when it straddles 0."""
    if v.lo > ZERO:
        return 1
    if v.hi < ZERO:
        return -1
    return 0


def interval_newton(f, df, lo: int, hi: int, q: int, width: int = 0):
    """Interval Newton N(Y) = m - F(m)/F'(Y) on ints at 2^-q, Y = [lo, hi].

    f(m) encloses F at the point m and df(lo, hi) encloses F' over Y, both
    int pairs at 2^-q; N(Y) rounds outward (F(m) / F'(Y) by fixed_quotient,
    as in the 2x2 parabolic Newton) and is met with Y.  Returns
    (lo, hi, unique), unique once a step landed strictly inside its box
    (then the box holds exactly one root), or None when N(Y) misses Y (no
    root in Y).  Stops below width, when F' may hold 0, or when a step does
    not halve Y or does not shrink it: far from a simple root, or at an
    exactly dyadic root (a point box), steps would shave slivers without
    end, and the caller's fallback (bisection, more precision, splitting
    the box) is the better next move.
    """
    unique, w = False, 2 * (hi - lo) + 1  # the first step always runs
    while hi - lo >= width and 2 * (hi - lo) <= w and hi - lo < w:
        w, m = hi - lo, (lo + hi) >> 1
        dl, dh = df(lo, hi)
        if dl <= 0 <= dh:
            break
        ql, qh = fixed_quotient(f(m), (dl, dh), q)
        nlo, nhi = m - qh, m - ql
        if nlo > hi or nhi < lo:
            return None
        unique = unique or lo < nlo and nhi < hi
        lo, hi = max(lo, nlo), min(hi, nhi)
    return lo, hi, unique


def sign_bisect(sign, box: Interval, s_lo: int, target: Dyadic) -> Interval | None:
    """Halve box on a certified sign change until narrower than target.

    sign(x) -> -1 | 0 | +1 certifies the sign at x (0: undecided), s_lo is
    the sign left of the root.  An undecided midpoint (it may be the root)
    gives way to a probe a quarter width off center, which still shrinks
    the box by 1/4.  None when the midpoint and both probes are undecided.
    """
    lo, hi = box.lo, box.hi
    while hi - lo >= target:
        mid = (lo + hi).half()
        s = sign(mid)
        if s == 0:
            q = (hi - lo).scale2(-2)
            for probe in (mid - q, mid + q):
                s = sign(probe)
                if s != 0:
                    mid = probe
                    break
            else:
                return None
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)
