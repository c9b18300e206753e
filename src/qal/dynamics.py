"""Certified forward dynamics of P_c(x) = x^2 + c on the real line.

Everything here is computed from oracle queries alone: a query at precision m
yields only the contract bracket |answer - c| < 2^-(m-1), so all certificates
remain valid under adversarial oracles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice, takewhile

from .dyadic import (DOWN, ONE, UP, ZERO, Dyadic, Interval, dy_max, dy_min,
                     fixed_box, fixed_centred, fixed_orbit, fixed_read,
                     from_fixed, iv_quad_step)
from .oracle import ParamOracle, QueryLedger
from .solver import PRECISION_CAP, interval_newton, ladder

NEG_TWO = Dyadic(-2)
_CARDIOID_END = Dyadic(-3, -2)  # 2 alpha = -1 at c = -3/4
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


def certify_attracting_cycle(o: ParamOracle, max_period: int = 64,
                             ledger: QueryLedger | None = None,
                             p_cap: int = PRECISION_CAP) -> CertifiedCycle | None:
    """The attracting or superattracting cycle of period <= max_period: its
    period read off the critical orbit or the kneading parse, its point off
    interval Newton.

    Every attracting n-cycle attracts the critical orbit, and is the
    relative alpha' of its window: the one fixed point of P^n inside the
    window's J = [-j, j] (_cycle_at).  The certificate: a box that interval
    Newton proves holds one root of P^n - id, its n images pairwise
    disjoint (so n is the minimal period), and the derivative enclosure of
    P^n over it inside (-1, 1), read off one fixed_orbit run.  Each rung
    reads c once, and the climb goes on only where a multiplier holds -1
    or 1, the root queue ends at its minimum width, or '?' cuts the parse
    short: a decided "no" costs one read.  None when nothing certifies
    below p_cap -- never a false certificate.
    """
    from .renorm import _Undecided  # renorm imports this module
    check_param(o, ledger)
    for p in ladder(64, p_cap):
        try:
            return _cycle_at(o.enclosure(p, ledger), p, max_period,
                             o.known_critical_period)
        except _Undecided:
            pass
    return None


def _cycle_at(c: Interval, p: int, max_period: int,
              known: int | None) -> CertifiedCycle | None:
    """The cycle over the bracket c at working precision p, or None;
    renorm._Undecided to climb a rung.

    Period 1 is the closed form: alpha (renorm._alpha), multiplier 2 alpha,
    which is below -1 where c < -3/4.  There, the critical orbit of
    _critical_ints: its last point x lies near the cycle that attracts it,
    and where the orbit comes back within 2^-6 of x after n steps,
    interval Newton tries the n-cycle around x (_seeded_cycle).  Where a
    multiplier near -1 or 1 slows the orbit, no such box holds the cycle;
    then the parse of the kneading (renorm._symbols, renorm._parse) names
    the tower of windows around c, and _cycle_walk finds the cycle down
    its levels.  Both read 32 steps, then, where those find no cycle and
    the parse ran out, 2 max_period + 2, enough to name a window of any
    period up to max_period.  A parse cut short by '?' climbs a rung.  The
    walk alone took 2.6 times as long on the certify benchmark's
    parameters.
    """
    from .renorm import _alpha, _parse, _symbols, _Undecided
    q, cf = fixed_read(p, c)
    if not c.hi < _CARDIOID_END:
        top = _cycle_orbit(cf, 1, q, p, fixed_read(q, _alpha(c, p))[1])
        if (cert := _attracting(top, q)) is None:
            raise _Undecided("the fixed point's multiplier holds -1 or 1")
        return cert
    one = 1 << q
    orbit, longest, steps = _critical_ints(c, p)[1], 2 * max_period + 2, []
    for length in sorted({min(32, longest), longest}):
        tried = len(steps)  # periods below it were tried at the last x
        steps += islice(orbit, length + 1 - len(steps))
        x = steps[-1][0]
        for n in range(max(2, tried), min(max_period + 1, len(steps))):
            if abs(x - steps[-1 - n][0]) < one >> 6 and (
                    cert := _seeded_cycle(cf, n, q, p, x)):
                return cert
        K = "".join(takewhile("?".__ne__, _symbols(steps, known)))
        words, decided, B = _parse(K, max_period, max_period, max_period,
                                   None)
        if not decided and B is None and len(K) == length < longest:
            continue  # the parse ran out of symbols: read more first
        cert = _cycle_walk(c, cf, q, p, words, B, max_period)
        if cert is not None or decided or len(steps) <= length:
            return cert
        if len(K) < length:
            raise _Undecided("the kneading runs into '?'")
    return None


def _seeded_cycle(cf: tuple, n: int, q: int, p: int,
                  x: int) -> CertifiedCycle | None:
    """The attracting n-cycle that interval Newton certifies in a box of
    twice the last of up to three point Newton steps on G = P^n - id from
    x, or None."""
    one = 1 << q
    for _ in range(3):
        run = _cycle_orbit(cf, n, q, p, (x, x))
        if run is None or not -2 * one < run[-1][2][0] < 2 * one:
            return None  # near an attracting cycle (P^n)' is its multiplier
        tl, th, (dl, dh) = run[-1]
        step = ((tl + th >> 1) - x) * one // ((dl + dh >> 1) - one or 1)
        x, r = x - step, 2 * abs(step) + (one >> p // 2)
        if r < one >> p // 2 - 2:
            break  # a further step would be below the rounding
    if r << 4 > one or _cycle_orbit(cf, n, q, p, (x - r, x + r)) is None:
        return None  # far off: a wide box would only blow up
    got = interval_newton(*_return_map(cf, n, q, p), x - r, x + r, q)
    orbit = got and got[2] and _cycle_orbit(cf, n, q, p, got[:2])
    return _attracting(orbit, q) if orbit and _minimal(orbit) else None


def _cycle_walk(c: Interval, cf: tuple, q: int, p: int, words: list,
                B: str | None, max_period: int) -> CertifiedCycle | None:
    """The first level down the tower whose alpha' attracts, from the fixed
    point's orbit: each relative word starred onto the last level's
    itinerary, then the candidate B (on the plateau between a centre and
    its right end the kneading is the end's (B t')^oo, which the parse
    cannot tell from the window of B), then one relative doubling more
    where the last multiplier is below -1.  None where a level's J holds
    no alpha' or the last multiplier is outside [-1, 1];
    renorm._Undecided where it holds -1 or 1."""
    from .renorm import _VALUE, _alpha, _renorm_end, _star, _Undecided
    one, word = 1 << q, ""
    orbit = _cycle_orbit(cf, 1, q, p, fixed_read(q, _alpha(c, p))[1])
    # a candidate L is the relative doubling that ends every walk anyway
    levels = words + ([B] if B not in (None, "L") else [])
    for k, A in enumerate(levels + ["L"]):
        word = _star(word, A)
        n = len(word) + 1
        if n > max_period or k == len(levels) and not orbit[-1][2][1] < -one:
            break
        if A == "L":
            # a doubling: J = [-|x|, |x|], x the last level's cycle point,
            # a fixed point of P^n that the queue passes over (multiplier
            # above 1); at the doubling x is a triple root of G, which
            # rounding hides within 2^-(p/3)
            j, depth = abs(orbit[0][0] + orbit[0][1]) >> 1, p // 3
        else:
            # J's end b, b 2^-(p/4) out: next to a saddle node _renorm_end
            # misses b by up to 2^-(p/2 - 9), more than b lies from alpha';
            # the root there is a double one, which rounding hides within
            # 2^-(p/2).  c outside the window has no b.
            try:
                b = _renorm_end(c, [_VALUE[s] for s in word], p)
            except _Undecided:
                return None
            j = b.scale2(q).floor_int()
            j, depth = j + (j >> (p // 4)), p // 2
        orbit = _alpha_prime(cf, n, q, p, j, one >> max(16, depth))
        if orbit is None:
            return None
        if (cert := _attracting(orbit, q)) is not None:
            return cert
    mult = orbit[-1][2]
    if mult[0] <= one <= mult[1] or mult[0] <= -one <= mult[1]:
        raise _Undecided("the cycle's multiplier holds -1 or 1")
    return None


def _alpha_prime(cf: tuple, n: int, q: int, p: int, j: int,
                 min_width: int) -> list | None:
    """The _cycle_orbit of the first root of G = P^n - id in [-j, j] whose n
    images are pairwise disjoint, so that n is its minimal period, passing
    over a multiplier above 1 (J's end beta'); None when there is none,
    renorm._Undecided at a root cluster of boxes of min_width: narrower
    boxes could not split a root that rounding hides, only multiply."""
    from .renorm import _Undecided
    # c in the window keeps the images P^k(J), 0 < k < n, off 0; where one
    # holds 0, P^n turns inside J and G may have roots without number
    images = _cycle_orbit(cf, n - 1, q, p, (-j, j)) if j > 0 else None
    if images is None or any(lo <= 0 <= hi for lo, hi, _ in images[1:]):
        return None
    for lo, hi, unique in _fixed_point_boxes(cf, n, q, p, -j, j, min_width):
        if not unique:
            raise _Undecided("a root cluster at the queue's minimum width")
        orbit = _cycle_orbit(cf, n, q, p, (lo, hi))
        if orbit[-1][2][0] <= 1 << q and _minimal(orbit):
            return orbit
    return None


def _attracting(orbit: list | None, q: int) -> CertifiedCycle | None:
    """The cycle of a box that holds a fixed point of P^n, n = len(orbit) -
    1, with pairwise disjoint images, from its _cycle_orbit, where the
    multiplier is inside (-1, 1); else None."""
    one = 1 << q
    if orbit is None or not -one < orbit[-1][2][0] or \
            not orbit[-1][2][1] < one:
        return None
    encs = [from_fixed(lo, hi, q) for lo, hi, _ in orbit[:-1]]
    mult = from_fixed(*orbit[-1][2], q)
    return CertifiedCycle(len(encs), encs, mult, classify_cycle(encs, mult))


def _minimal(orbit: list) -> bool:
    """Whether the n images in the _cycle_orbit of a box that holds a
    fixed point of P^n are pairwise disjoint: then n is its minimal
    period."""
    ends = sorted(step[:2] for step in orbit[:-1])
    return all(a[1] < b[0] for a, b in zip(ends, ends[1:]))


def _cycle_orbit(cf: tuple, n: int, q: int, p: int,
                 box: tuple) -> list | None:
    """box and its n images over c = cf, with the derivative of P^n at the
    end: one fixed_orbit run, (lo, hi, d) int triples at 2^-q; None once an
    image leaves [-4, 4], past which its ints double in length each step."""
    one, four, run = 1 << q, 4 << q, []
    for step in fixed_orbit(box, cf, n, q, p, (one, one)):
        if step[1] > four or step[0] < -four:
            return None
        run.append(step)
    return run


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
        steps = list(fixed_orbit((lo, hi), cf, n, q, p, (one, one)))
        dl, dh = steps[-1][2]
        if dl <= one <= dh and lo < hi:
            # G' may vanish: meet it with G'(m) + G''(Y)[-r, r], G'' over
            # the box by e' = 2 (d^2 + x e) along the run, outward at 2^-q
            el = eh = 0
            for xl, xh, (d0, d1) in steps[:-1]:
                sq = (d0 * d0, d1 * d1)
                pr = (el * xl, el * xh, eh * xl, eh * xh)
                el = (2 * ((0 if d0 <= 0 <= d1 else min(sq)) + min(pr))) >> q
                eh = -((-2 * (max(sq) + max(pr))) >> q)
            m = (lo + hi) >> 1
            *_, (_, _, (ml, mh)) = fixed_orbit((m, m), cf, n, q, p, (one, one))
            w = max(hi - m, m - lo) * max(-el, eh)
            dl = max(dl, ((ml << q) - w) >> q)
            dh = min(dh, -((-(mh << q) - w) >> q))
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
    enclosures contain every solution (_fixed_point_boxes).
    """
    q, cf = fixed_read(max(p, 16), o.enclosure(p, ledger))
    # all periodic points of x^2+c with c in [-2, 1/4] lie in [-beta, beta]
    # with beta <= 2; a fixed pad keeps endpoint roots (c = -2) interior
    one = 1 << q
    edge, dg = (2 << q) + (one >> 6), _return_map(cf, n, q, p)[1]
    boxes = _fixed_point_boxes(cf, n, q, p, -edge, edge,
                               one >> max(16, p // 2))
    return [PeriodicPoint(from_fixed(lo, hi, q), unique,
                          from_fixed(*(d + one for d in dg(lo, hi)), q))
            for lo, hi, unique in sorted(boxes)]


def _fixed_point_boxes(cf: tuple, n: int, q: int, p: int, lo: int, hi: int,
                       min_width: int):
    """Yield the roots of G = P^n - id in [lo, hi] over c = cf, int boxes
    (lo, hi, unique) at 2^-q: each simple root as interval Newton certifies
    it, widest boxes first, then each cluster of boxes of min_width that no
    unique root explains, after a Newton retry on its hull.  Jointly they
    hold every root (the exclusion test on the rest), so a caller may stop
    at the first.
    """
    g, dg = _return_map(cf, n, q, p)
    one = 1 << q

    def newton(lo: int, hi: int) -> tuple | None:
        got = interval_newton(g, dg, lo, hi, q)
        return got if got is not None and got[2] else None

    queue, found, undecided = deque([(lo, hi)]), [], []
    while queue:
        lo, hi = queue.popleft()
        # exclusion: the naive run minus the box, met with the centred form
        # G(m) + G'(Y)[-r, r]; subtracting the box from a sharpened P^n
        # would bring back the dependency slop that scales like sqrt(width)
        m = (lo + hi) >> 1
        *_, (tl, th, (dl, dh)) = fixed_orbit((lo, hi), cf, n, q, p, (one, one))
        gm = g(m)
        fl, fh, _ = fixed_centred((tl - hi, th - lo), gm,
                                  (dl - one, dh - one), hi - m, q)
        if fl > 0 or fh < 0:
            continue
        if dl <= one <= dh:
            dl, dh = (d + one for d in dg(lo, hi))
            fl, fh, _ = fixed_centred((tl - hi, th - lo), gm,
                                      (dl - one, dh - one), hi - m, q)
            if fl > 0 or fh < 0:
                continue
        if not dl <= one <= dh and (root := newton(lo, hi)):
            found.append(root)
            yield root
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
        yield found[-1]


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
