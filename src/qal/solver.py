"""The shared root solvers and the precision ladder.

Every refiner in the package (oracle brackets, periodic points, centers,
window endpoints) runs interval Newton or certified sign bisection; cycle
points alone are squeezed on ints (dynamics._squeeze_cycle_point).  Every
escalation of the working precision climbs ladder(), and every 1-D float
seed is polished by float_newton().
"""

from __future__ import annotations

from .dyadic import ZERO, Dyadic, Interval

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


def interval_newton(func, box: Interval, p: int, target: Dyadic | None = None):
    """Interval Newton N(X) = m - F(m)/F'(X) on box at precision p.

    func(X, p) -> (F, dF) encloses F and F' over X.  Returns (box, unique),
    unique once a step landed strictly inside its box (then the box holds
    exactly one root), or None when N(X) misses X (no root in box).  Stops
    below target, when F' may vanish, when a step does not shrink the box
    or does not at least halve it, or after 80 steps: at the precision
    floor, or far from a simple root, steps that do not halve shave
    slivers without end, so the caller's fallback (bisection, more
    precision, splitting the box) is the better next move.
    """
    unique = False
    for _ in range(80):
        if target is not None and box.width() < target:
            break
        mid = box.mid()
        f_mid, _ = func(Interval.point(mid), p)
        _, df = func(box, p)
        if df.contains_zero():
            break
        corr = f_mid.divide(df, p)
        nxt = Interval(mid - corr.hi, mid - corr.lo)
        unique = unique or box.strictly_contains(nxt)
        inter = nxt.intersect(box)
        if inter is None:
            return None
        # a point box (an exact dyadic root) halves without shrinking
        if inter.width() >= box.width() or inter.width().scale2(1) > box.width():
            break
        box = inter
    return box, unique


def float_newton(fd, x0: float) -> float | None:
    """Float Newton on fd(x) -> (f, f') from x0: a seed, never a certificate.

    Converged once a step falls below 1e-15, or two consecutive steps below
    1e-11 (long compositions have a float noise floor well above 1e-15).
    None when f' vanishes or 60 steps do not converge.
    """
    x, prev = x0, 1.0
    for _ in range(60):
        f, df = fd(x)
        if df == 0.0:
            return None
        step = f / df
        x -= step
        if abs(step) < 1e-15 or (abs(step) < 1e-11 and prev < 1e-11):
            return x
        prev = abs(step)
    return None


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
