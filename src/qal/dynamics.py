"""Certified forward dynamics of P_c(x) = x^2 + c on the real line.

Everything here is computed from oracle queries alone: a query at precision m
yields only the contract bracket |answer - c| < 2^-(m-1), so all certificates
remain valid under adversarial oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .dyadic import (DOWN, ONE, UP, ZERO, Dyadic, Interval, dy_max, dy_min,
                     fixed_box, fixed_centred, fixed_orbit, fixed_read,
                     from_fixed, iv_iterate, iv_quad_step)
from .oracle import ParamOracle, QueryLedger
from .solver import PRECISION_CAP, float_newton, interval_newton, ladder

NEG_TWO = Dyadic(-2)
PARAM_RANGE = Interval(NEG_TWO, Dyadic(1, -2))
BLOWUP_WIDTH = Dyadic(1, -4)


class ParameterRangeError(ValueError):
    """Parameter certified outside [-2, 1/4]."""


class PrecisionExhausted(RuntimeError):
    """Escalation hit a limit, named in the message, short of a certificate."""


def check_param(o: ParamOracle, ledger: QueryLedger | None = None) -> Interval:
    """Certify c is not outside [-2, 1/4]; returns a bracket for c."""
    return check_range(o.enclosure(16, ledger))


def check_range(c: Interval) -> Interval:
    """The bracket c, unless it is certified outside [-2, 1/4]."""
    if PARAM_RANGE.disjoint(c):
        raise ParameterRangeError(f"parameter bracket {c} outside [-2, 1/4]")
    return c


# ---------------------------------------------------------------------------
# Critical orbit

@dataclass
class OrbitEnclosure:
    steps: list  # Interval, steps[0] = [0,0]
    precision_used: int
    blown_up: bool


def critical_orbit(o: ParamOracle, n_steps: int, p: int,
                   ledger: QueryLedger | None = None) -> OrbitEnclosure:
    """Enclosures of 0, P_c(0), ..., P_c^N(0) at working precision p.

    One read of c at precision p; see _critical_enclosures.  blown_up flags
    a certified escape or a step wider than BLOWUP_WIDTH.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    steps = _critical_enclosures(o.enclosure(p, ledger), n_steps, p)
    blown = (len(steps) <= n_steps
             or any(x.width() > BLOWUP_WIDTH for x in steps))
    return OrbitEnclosure(steps, p, blown)


def _critical_enclosures(c: Interval, n: int, p: int) -> list:
    """[0, P(0), ..., P^n(0)] over c: the first n + 1 of _critical_ints."""
    q, steps = _critical_ints(c, p)
    return [from_fixed(lo, hi, q) for lo, hi in islice(steps, n + 1)]


def _critical_ints(c: Interval, p: int) -> tuple:
    """(q, steps): steps yields 0, P(0), P^2(0), ... over the bracket c by
    outward steps at p, int pairs at 2^-q, from one fixed_orbit run.

    For c in [-2, 1/4] the critical orbit stays in [c, c^2 + c], inside
    [-2, 2].  A bracket not certified outside that range is taken to be in
    it (as in check_range), and each step is clamped to [-2, 2]; unclamped,
    a bracket that straddles -2 (c = -2 itself) grows an enclosure whose
    upper end, and its mantissa, doubles in size every step.  The run
    restarts only where the clamp changes a pair.  A bracket certified
    outside stops at a certified escape (past |x| = 2), from where the
    orbit and its mantissas grow without bound.
    """
    clamp, (q, cf) = not PARAM_RANGE.disjoint(c), fixed_read(p, c)
    two = 2 << q

    def steps():
        x = 0, 0
        while True:
            for lo, hi, _ in fixed_orbit(x, cf, None, q, p):
                # past -2 or 2, and not an escape: restart it clamped
                if clamp and (lo < -two <= hi or lo <= two < hi):
                    x = max(lo, -two), min(hi, two)
                    break
                yield lo, hi
                if lo > two or hi < -two:
                    return
    return q, steps()


def symmetric_trap(b: Dyadic, c: Interval, n: int, p: int) -> tuple | None:
    """(q, chain): K = [-b, b] and its n images by outward fixed_orbit
    steps, int pairs at 2^-q, when P^n(K) is strictly inside K; else None.

    A symmetric trap around the critical point is the right shape: the
    critical value P^n(0) is a local extremum of P^n, so the top of the
    image sits strictly below b and the bottom, one fold away from the
    critical point, clears -b with room.  The hull of two orbit points maps
    exactly onto itself and can never certify.  Past |x| = 4 the orbit only
    grows, its ints doubling in length each step: an escape ends the run.
    """
    q, (_, k), cf = fixed_read(p, Interval(-b, b), c)
    four, chain = 4 << q, []
    for lo, hi, _ in fixed_orbit((-k, k), cf, n, q, p):
        if hi > four or lo < -four:
            return None
        chain.append((lo, hi))
    return (q, chain) if -k < lo and hi < k else None


# ---------------------------------------------------------------------------
# Tracked intervals: set images with certified endpoint enclosures.
#
# Naive interval iteration of a wide interval loses everything; the image of
# an interval under the (piecewise monotone, even) quadratic map is instead
# computed as an exact set image whose endpoints are tracked as enclosures.

def _iv_max(a: Interval, b: Interval) -> Interval:
    return Interval(dy_max(a.lo, b.lo), dy_max(a.hi, b.hi))


def _iv_min(a: Interval, b: Interval) -> Interval:
    return Interval(dy_min(a.lo, b.lo), dy_min(a.hi, b.hi))


class TrackedInterval:
    """Real interval [l, h] with each endpoint known only as an enclosure."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Interval, hi: Interval):
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_exact(cls, lo: Dyadic, hi: Dyadic) -> "TrackedInterval":
        return cls(Interval.point(lo), Interval.point(hi))

    def outer(self) -> Interval:
        """Guaranteed superset with exact endpoints."""
        return Interval(self.lo.lo, self.hi.hi)

    def endpoint_slack(self) -> Dyadic:
        return dy_max(self.lo.width(), self.hi.width())

    def image(self, c: Interval, p: int) -> "TrackedInterval":
        """Set image under x^2 + c (even map: exact endpoint bookkeeping)."""
        lo_img = iv_quad_step(self.lo, c, p)
        hi_img = iv_quad_step(self.hi, c, p)
        c_img = c.round_out(p)
        if self.hi.hi <= ZERO:  # certified nonpositive: decreasing branch
            return TrackedInterval(hi_img, lo_img)
        if self.lo.lo >= ZERO:  # certified nonnegative: increasing branch
            return TrackedInterval(lo_img, hi_img)
        if self.lo.hi <= ZERO <= self.hi.lo:  # certified straddles 0
            return TrackedInterval(c_img, _iv_max(lo_img, hi_img))
        # undecided: hull of both cases
        return TrackedInterval(_iv_min(c_img, _iv_min(lo_img, hi_img)),
                               _iv_max(lo_img, hi_img))

    # certified (three-valued logic collapses to: True means proven)

    def certainly_inside(self, other: "TrackedInterval") -> bool:
        return other.lo.hi <= self.lo.lo and self.hi.hi <= other.hi.lo

    def certainly_contains_point(self, x: Dyadic) -> bool:
        return self.lo.hi <= x <= self.hi.lo

    def certainly_excludes_point(self, x: Dyadic) -> bool:
        return x < self.lo.lo or x > self.hi.hi

    def certainly_contains_iv(self, box: Interval) -> bool:
        return self.lo.hi <= box.lo and box.hi <= self.hi.lo

    def certainly_excludes_iv(self, box: Interval) -> bool:
        return box.hi < self.lo.lo or box.lo > self.hi.hi

    def interiors_certainly_disjoint(self, other: "TrackedInterval") -> bool:
        return self.hi.hi <= other.lo.lo or other.hi.hi <= self.lo.lo

    def certainly_precedes(self, other: "TrackedInterval") -> bool:
        """Certified endpointwise order: l <= l' and h <= h' (touching ok)."""
        return self.lo.hi <= other.lo.lo and self.hi.hi <= other.hi.lo

    def __repr__(self):
        return f"TrackedInterval({self.lo!r}, {self.hi!r})"


# ---------------------------------------------------------------------------
# Attracting-cycle certification (interval analog of the disk certificate)

@dataclass
class CertifiedCycle:
    period: int
    point_enclosures: list  # Interval, pairwise disjoint, cyclically mapped
    multiplier: Interval
    kind: str  # attracting | superattracting | parabolic | repelling | undecided


def classify_cycle(point_enclosures: list, multiplier: Interval) -> str:
    """Kind certified by the multiplier enclosure; parabolic never inferred."""
    if multiplier.contains_zero() and any(e.contains_zero() for e in point_enclosures):
        if multiplier.mag() < ONE:
            return "superattracting"
        return "undecided"
    m = multiplier.mag()
    lo = multiplier.mig()
    if m < ONE and lo > ZERO:
        return "attracting"
    if lo > ONE:
        return "repelling"
    return "undecided"


def _float_cycle_candidate(c: float, max_period: int, transient: int = 4096):
    """Heuristic (period, point) candidate from plain float iteration.  The
    transient ends early where its next 2 max_period steps, read every 64
    steps, repeat with a period n: on the phase it would end on mod n."""
    x, t, ahead = 0.0, 0, 2 * max_period
    while t < transient:
        ys = [x]
        for _ in range(min(64 + ahead, transient - t)):
            x = x * x + c
            ys.append(x)
        if abs(x) > 4.0:  # past 4 the orbit of 0 only grows
            return None
        t, ys = t + len(ys) - 1, ys[-ahead - 1:]
        n = len(ys) > ahead and next(
            (n for n in range(1, max_period + 1) if abs(ys[n] - ys[0]) < 1e-9
             and all(abs(a - b) < 1e-9 for a, b in zip(ys[n:], ys))), None)
        if n:
            x = ys[-1 - (t - transient) % n]
            break
    tail = [x]
    for _ in range(4 * max_period):
        x = x * x + c
        tail.append(x)
    for n in range(1, max_period + 1):
        if abs(tail[n] - tail[0]) < 1e-7 and abs(tail[2 * n] - tail[n]) < 1e-7:
            def fd(w):  # P^n(w) - w and its derivative
                v, dv = w, 1.0
                for _ in range(n):
                    dv *= 2 * v
                    v = v * v + c
                return v - w, dv - 1.0
            w = float_newton(fd, tail[0])
            return n, tail[0] if w is None else w
    return None


def certify_attracting_cycle(o: ParamOracle, max_period: int = 64,
                             ledger: QueryLedger | None = None,
                             p_cap: int = PRECISION_CAP) -> CertifiedCycle | None:
    """Find and rigorously certify the attracting/superattracting limit cycle.

    Certificate: a dyadic interval J and n with P^n(J) strictly inside J and
    the derivative enclosure of P^n over J inside (-1, 1), both read off one
    fixed_orbit run.  Returns None when no trap certifies below p_cap --
    never a false certificate.
    """
    check_param(o, ledger)
    c_float = float(o.query(min(53, p_cap), ledger))
    cand = _float_cycle_candidate(c_float, max_period)
    if cand is None:
        return None
    n, w = cand
    for p in ladder(64, p_cap):
        c = o.enclosure(p, ledger)
        center = Dyadic.from_float(w).round(min(p, 128))
        for rexp in range(6, min(40, p // 2), 2):
            r = Dyadic(1, -rexp)
            j = Interval(center - r, center + r)
            q, y, cf = fixed_read(p, j, c)
            one = 1 << q
            *_, (lo, hi, d) = fixed_orbit(y, cf, n, q, p, (one, one))
            if y[0] < lo and hi < y[1] and -one < d[0] and d[1] < one:
                return _polish_cycle(n, j, c, p)
    return None


def _polish_cycle(n: int, j: Interval, c: Interval, p: int) -> CertifiedCycle:
    """Squeeze the cycle point in a certified trap J (_squeeze_cycle_point),
    then enclose the cycle and its multiplier along it."""
    box = _squeeze_cycle_point(j, c, n, p)
    q, y, cf = fixed_read(p, box, c)
    steps = list(fixed_orbit(y, cf, n, q, p, (1 << q, 1 << q)))
    encs = [from_fixed(lo, hi, q) for lo, hi, _ in steps[:-1]]
    # reduce to the true period if images meet earlier: J traps P^d, and the
    # one fixed point of P^n in J, inside box, is the fixed point of P^d
    for d in range(1, n):
        if (n % d == 0 and not encs[d].disjoint(encs[0])
                and j.strictly_contains(iv_iterate(j, c, d, p))):
            return _polish_cycle(d, box, c, p)
    mult = from_fixed(*steps[-1][2], q)
    kind = classify_cycle(encs, mult)
    return CertifiedCycle(n, encs, mult, kind)


def _squeeze_cycle_point(box: Interval, c: Interval, n: int,
                         p: int) -> Interval:
    """solver.interval_newton on G = P^n - id from a box that holds a root
    of G, in ints at one scale 2^-q (_return_map)."""
    q, (lo, hi), cf = fixed_read(p, box, c)
    lo, hi, _ = interval_newton(*_return_map(cf, n, q, p), lo, hi, q)
    return from_fixed(lo, hi, q)


def _return_map(cf: tuple, n: int, q: int, p: int) -> tuple:
    """interval_newton's closures for G = P^n - id over c = cf at 2^-q: G at
    a point m, the point run's box minus m, and G' over [lo, hi], the
    derivative line minus 2^q."""
    one = 1 << q

    def g(m):
        *_, (lo, hi, _) = fixed_orbit((m, m), cf, n, q, p)
        return lo - m, hi - m

    def dg(lo, hi):
        *_, (_, _, (dl, dh)) = fixed_orbit((lo, hi), cf, n, q, p, (one, one))
        return dl - one, dh - one
    return g, dg


# ---------------------------------------------------------------------------
# Periodic-point isolation (real interval stand-in for complex root finding)

@dataclass
class PeriodicPoint:
    enclosure: Interval
    unique: bool  # certified to contain exactly one solution of P^n(w)=w
    multiplier: Interval  # enclosure of (P^n)' over the enclosure


def iter_eval(x: Interval, c: Interval, k: int, p: int):
    """Enclosures of (P^k(w), (P^k)'(w)) over x, sharpened by a centered form.

    The naive enclosure of P^k over a box suffers dependency slop that scales
    like sqrt(width) near roots; intersecting with the mean-value form
    P^k(mid) + (P^k)'(x) * (x - mid) restores linear scaling.
    """
    q, (xl, xh), m, cf = fixed_box(p, x, c)
    *_, t = fixed_orbit((xl, xh), cf, k, q, p, (1 << q, 1 << q))
    deriv = from_fixed(*t[2], q)
    if xl == xh:
        return from_fixed(t[0], t[1], q), deriv
    *_, tm = fixed_orbit((m, m), cf, k, q, p)
    return from_fixed(*fixed_centred(t, tm, t[2], xh - m, q)), deriv


def isolate_periodic_points(o: ParamOracle, n: int, p: int,
                            ledger: QueryLedger | None = None) -> list:
    """All solutions of P_c^n(w) = w in (a superset of) the dynamical interval.

    Simple roots come back as unique-certified enclosures via sign change +
    interval Newton; root clusters that finite precision cannot split (e.g.
    parabolic double roots) come back as non-unique enclosures.  Jointly the
    enclosures contain every solution (exclusion test on the complement).
    Boxes, G = P^n - id and its Newton are ints at one scale 2^-q.
    """
    q, cf = fixed_read(max(p, 16), o.enclosure(p, ledger))
    one, (g, dg) = 1 << q, _return_map(cf, n, q, p)

    def newton(lo: int, hi: int) -> tuple | None:
        got = interval_newton(g, dg, lo, hi, q)
        return got if got is not None and got[2] else None

    # all periodic points of x^2+c with c in [-2, 1/4] lie in [-beta, beta]
    # with beta <= 2; a fixed pad keeps endpoint roots (c = -2) interior
    edge, min_width = (2 << q) + (one >> 6), one >> max(16, p // 2)
    queue, found, undecided = [(-edge, edge)], [], []
    while queue:
        lo, hi = queue.pop()
        # exclusion: the naive run minus the box, met with the centred form
        # G(m) + G'(Y)[-r, r]; subtracting the box from a sharpened P^n
        # would bring back the dependency slop that scales like sqrt(width)
        m = (lo + hi) >> 1
        *_, (tl, th, (dl, dh)) = fixed_orbit((lo, hi), cf, n, q, p, (one, one))
        fl, fh, _ = fixed_centred((tl - hi, th - lo), g(m),
                                  (dl - one, dh - one), hi - m, q)
        if fl > 0 or fh < 0:
            continue
        if not dl <= one <= dh and (root := newton(lo, hi)):
            found.append(root)
        elif hi - lo <= min_width:
            undecided.append((lo, hi))
        else:
            queue += (lo, m), (m, hi)
    for lo, hi in _merge_boxes(undecided):
        # drop clusters that duplicate an already-certified unique root
        if any(lo <= r[1] and r[0] <= hi for r in found if r[2]):
            continue
        # a root sitting exactly on a bisection boundary produces a cluster
        # of minimal boxes; a Newton retry on the inflated hull certifies it
        w = max(hi - lo, min_width)
        found.append(newton(lo - w, hi + w) or (lo, hi, False))
    return [PeriodicPoint(from_fixed(lo, hi, q), unique,
                          from_fixed(*(d + one for d in dg(lo, hi)), q))
            for lo, hi, unique in sorted(found)]


def _merge_boxes(boxes: list) -> list:
    """The int pairs merged where they meet or touch, in ascending order."""
    merged = []
    for lo, hi in sorted(boxes):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


# ---------------------------------------------------------------------------
# Parabolic escape-time measurement for f_eps(w) = w + w^2 + eps

def escape_time(epsilon: Dyadic, gate: Interval,
                max_steps: int = 50_000_000) -> int:
    """Steps of w -> w + w^2 + eps to carry -a past +a, gate = [-a, a].

    Runs two directed-rounding orbits; counts must agree, else the working
    precision is escalated.  A count past max_steps ends the run at once.
    """
    if epsilon <= ZERO:
        raise ValueError("epsilon must be positive")
    a = gate.hi
    if not (a > ZERO and -a == gate.lo):
        raise ValueError("gate must be symmetric [-a, a] with a > 0")
    if not a < Dyadic(1, -1):
        raise ValueError("gate must sit inside (-1/2, 1/2) where the map is monotone")
    for p in ladder():
        n_lo = _escape_count(epsilon, a, p, UP, max_steps)  # early bound
        n_hi = n_lo and _escape_count(epsilon, a, p, DOWN, max_steps)
        if n_hi is None:
            raise PrecisionExhausted(
                f"no escape within the step limit of {max_steps} steps")
        if n_lo == n_hi:
            return n_lo
    raise PrecisionExhausted("escape counts disagree at the precision cap")


def _escape_count(eps: Dyadic, a: Dyadic, p: int, mode: str, max_steps: int):
    """Steps of w -> w + w^2 + eps from -a, each rounded to D_p in mode, to
    pass a; None past max_steps.  In x = w + 1/2 (> 0) it is fixed_orbit's
    x^2 + 1/4 + eps, whose low end rounds down and high end up."""
    half = Dyadic(1, -1)
    q, x, c = fixed_read(p, Interval.point(half - a),
                         Interval.point(half.half() + eps))
    top, end = (half + a).scale2(q).floor_int(), 1 if mode == UP else 0
    for k, step in enumerate(fixed_orbit(x, c, max_steps, q, p)):
        if step[end] > top:
            return k
    return None
