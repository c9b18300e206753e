"""Attractor classification, certified 2^-n approximation, pixel queries.

The three-way trichotomy (limit cycle / cycle of intervals / Feigenbaum-like
Cantor attractor) is decided by certificates: contraction traps for cycles,
interval-chain invariance for interval cycles, and for the Cantor case a
budgeted tower of renormalization windows, parsed from one certified
kneading prefix of c (renorm.window_tower).  A finite tower does not make c
infinitely renormalizable, so it is labelled Feigenbaum-like only under the
case-3 hint or an oracle's declared tower.  The case-3 cover is a trapped
cycle of intervals around the critical point, sized from the certified
critical orbit and deepened on one climb of the query precision that stops
at the first limit and names it.  Every output set
carries the Hausdorff contract dist_H(C_n, A) < 2^-n; runs that cannot
certify return an explicit failure, never a guess.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .dyadic import (NEAREST, ONE, UP, ZERO, Dyadic, Interval, dy_max,
                     dy_min, from_fixed,
                     iv_quad_step)  # bench/test_bench.py reads it
from .dynamics import (CertifiedCycle, TrackedInterval, _critical_enclosures,
                       _squeeze_cycle_point, certify_attracting_cycle,
                       check_param, isolate_periodic_points, symmetric_trap)
from .oracle import ExactOracle, OracleFault, ParamOracle, QueryLedger
from .renorm import itinerary_type, window_tower
from .solver import PRECISION_CAP, ladder


class ApproximationFailed(RuntimeError):
    """Budget exhausted before a certificate was reached."""


@dataclass(frozen=True)
class Hints:
    """Non-uniform information: the cycle period and/or the case tag."""

    period: int | None = None
    case: str | None = None  # 1a | 1b | 1c | 2 | 3

    def __post_init__(self):
        if self.period is not None and self.period < 1:
            raise ValueError("hint period must be >= 1")
        if self.case not in (None, "1a", "1b", "1c", "2", "3"):
            raise ValueError(f"unknown case tag {self.case!r}")


@dataclass(frozen=True)
class Budget:
    max_period: int = 32
    max_precision: int | None = None
    depth: int = 5  # window-tower levels for case 3

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and value < 1:  # None: the default cap
                raise ValueError(f"budget {name} must be >= 1")

    def p_cap(self) -> int:
        return (PRECISION_CAP if self.max_precision is None
                else self.max_precision)


@dataclass(frozen=True)
class AttractorClass:
    variant: str  # limit-cycle | interval-cycle | feigenbaum-like
    kind: str | None = None  # attracting | superattracting | parabolic
    period: int | None = None
    prefix: tuple = ()  # CombinatorialType per tower level (case 3)

    def describe(self) -> str:
        if self.variant == "limit-cycle":
            return f"LimitCycle {self.kind} period={self.period}"
        if self.variant == "interval-cycle":
            return f"IntervalCycle period={self.period}"
        types = " ".join(f"({t.period}:{','.join(map(str, t.perm))})"
                         for t in self.prefix)
        return f"FeigenbaumLike depth={len(self.prefix)} types={types}"


@dataclass(frozen=True)
class ApproxSet:
    resolution: int
    points: tuple  # sorted distinct Dyadic in D_{n+2}
    trace: dict = field(compare=False, default_factory=dict)


# ---------------------------------------------------------------------------
# Classification

def classify(o: ParamOracle, hints: Hints | None = None,
             budget: Budget | None = None,
             ledger: QueryLedger | None = None) -> AttractorClass | None:
    """Certified attractor class, or None when the budget gives out."""
    return _classify(o, hints or Hints(), budget or Budget(), ledger)[0]


def _classify(o: ParamOracle, h: Hints, b: Budget,
              ledger: QueryLedger | None) -> tuple:
    """(class or None, the cycle certificate when case 1a decided it, the
    types of the certified window tower when it ran).

    k nested windows make c k times renormalizable, not infinitely: the
    tower is labelled feigenbaum-like only under Hints(case="3") or when
    the oracle declares its tower (known_tower) and the levels agree.
    """
    check_param(o, ledger)
    if h.case in (None, "1b") and o.known_critical_period:
        return AttractorClass("limit-cycle", "superattracting",
                              o.known_critical_period), None, ()
    if h.case == "1b":
        return None, None, ()
    if h.case == "1c":
        if h.period is None:
            raise ValueError("case 1c needs a period hint")
        if _parabolic_points(o, h.period, b, ledger) is not None:
            return AttractorClass("limit-cycle", "parabolic", h.period), \
                None, ()
        return None, None, ()
    if h.case == "2":
        if h.period is None:
            raise ValueError("case 2 needs a period hint")
        if _interval_chain(o, h.period, 10, b, ledger) is not None:
            return AttractorClass("interval-cycle", None, h.period), None, ()
        return None, None, ()
    if h.case in (None, "1a"):
        try:
            cert = certify_attracting_cycle(o, b.max_period, ledger,
                                            p_cap=min(512, b.p_cap()))
        except OracleFault:
            cert = None  # oracle cannot reach the precision; try deeper cases
        if cert is not None and cert.kind in ("attracting", "superattracting"):
            return AttractorClass("limit-cycle", cert.kind, cert.period), \
                cert, ()
        if h.case == "1a":
            return None, None, ()
    if h.period is not None:
        if _parabolic_points(o, h.period, b, ledger) is not None:
            return AttractorClass("limit-cycle", "parabolic", h.period), \
                None, ()
        if _interval_chain(o, h.period, 10, b, ledger) is not None:
            return AttractorClass("interval-cycle", None, h.period), None, ()
    words, _ = window_tower(o, b.depth, max(b.max_period, 64), 8, ledger,
                            b.p_cap())
    prefix = tuple(map(itinerary_type, words))
    if words and (h.case == "3" or set(words) == {o.known_tower}):
        return AttractorClass("feigenbaum-like", prefix=prefix), None, prefix
    return None, None, prefix


def _parabolic_points(o: ParamOracle, q: int, b: Budget,
                      ledger: QueryLedger | None,
                      width_exp: int = 10) -> list | None:
    """Case 1c: period-q point enclosures that survive the repelling filter.

    Isolates all solutions of P^q(w) = w, discards every enclosure whose
    derivative enclosure certifies |DP^q| > 1, and returns the remainder
    once each surviving enclosure is narrower than 2^-width_exp.  The
    parabolic interpretation of the survivors is the hint's claim; the
    certificates here are the isolation and the expansion filter.
    """
    target = Dyadic(1, -width_exp)
    for p in ladder(max(64, 2 * (width_exp + 4)), b.p_cap()):
        pts = isolate_periodic_points(o, q, p, ledger)
        keep = [pt for pt in pts if not pt.multiplier.mig() > ONE]
        if keep and all(pt.enclosure.width() < target for pt in keep):
            return keep
    return None


_EXACT_BITS = 4096


def _exact_chain(c: Dyadic, q: int) -> list | None:
    """Set-exact invariant chain for an exactly dyadic parameter, or None.

    J_0 = [P^q(0), P^2q(0)] and its images are computed in exact dyadic
    arithmetic (square() is set-exact), so invariance and the certificate's
    endpoints carry no rounding slack at all.  Falls back to None when the
    exact mantissas grow past a sanity bound.
    """
    x, orbit = ZERO, [ZERO]
    for _ in range(2 * q):
        x = x * x + c
        if abs(x.man).bit_length() > _EXACT_BITS:
            return None
        orbit.append(x)
    a, z = orbit[q], orbit[2 * q]
    if a == z:
        return None
    chain = [Interval(dy_min(a, z), dy_max(a, z))]
    for _ in range(q):
        img = chain[-1].square() + Interval.point(c)
        if max(abs(img.lo.man).bit_length(),
               abs(img.hi.man).bit_length()) > _EXACT_BITS:
            return None
        chain.append(img)
    return chain if chain[0].contains_interval(chain[q]) else None


def _snap_exact_periodic(c: Dyadic, q: int, enc: Interval) -> Interval:
    """Collapse enc to an exact point when its periodic point is dyadic.

    enc isolates one solution of P^q(w) = w; if a dyadic w inside enc
    satisfies the equation exactly, it is that solution.
    """
    for j in range(1, 64):
        w = enc.mid().round(j)
        if not enc.contains(w):
            continue
        x, ok = w, True
        for _ in range(q):
            x = x * x + c
            if abs(x.man).bit_length() > _EXACT_BITS:
                ok = False
                break
        if ok and x == w:
            return Interval.point(w)
    return enc


def _interval_chain(o: ParamOracle, q: int, slack_exp: int, b: Budget,
                    ledger: QueryLedger | None):
    """Case 2: tracked chain J_0..J_{q-1} with J_0 = [P^q(0), P^2q(0)].

    Returns (chain, precision) once the wrapped image lands back inside
    J_0 up to tolerance 2^-slack_exp and every endpoint is localized to
    that tolerance; None when precision runs out.  Exact invariance is not
    oracle-decidable (the bracket never has zero width), so the invariance
    certificate carries the stated tolerance.
    """
    if isinstance(o, ExactOracle):
        exact = _exact_chain(o.value, q)
        if exact is not None:
            o.query(max(8, slack_exp), ledger)  # the run still reads c
            return [TrackedInterval.from_exact(k.lo, k.hi)
                    for k in exact[:q]], 0
    tol = Dyadic(1, -slack_exp)
    for p in ladder(max(64, 4 * slack_exp), b.p_cap()):
        for _ in range(2 * q):  # the cost model reads c once per step of P
            c = o.enclosure(p, ledger)
        orbit = _critical_enclosures(c, 2 * q, p)
        if len(orbit) <= 2 * q:
            return None  # certified escape: no cycle of intervals
        a, z = orbit[q], orbit[2 * q]
        if a.hi < z.lo:
            j = TrackedInterval(a, z)
        elif z.hi < a.lo:
            j = TrackedInterval(z, a)
        else:
            continue
        chain = [j]
        c = o.enclosure(p, ledger)
        for _ in range(q):
            chain.append(chain[-1].image(c, p))
        wrap = chain[q]
        inflated = Interval(chain[0].outer().lo - tol,
                            chain[0].outer().hi + tol)
        slack = max(t.endpoint_slack() for t in chain)
        if inflated.contains_interval(wrap.outer()) and slack < tol:
            return chain[:q], p
    return None


# ---------------------------------------------------------------------------
# Certified approximation

@dataclass
class _Certificate:
    """Per-run immutable distance certificate.

    kind "points": A equals the union of the point enclosures (each holds
    exactly one attractor point).  kind "intervals": A is contained in the
    union of the intervals, each near A everywhere (within its endpoint
    slack in case 2, its diameter in case 3).
    """

    kind: str  # points | intervals
    enclosures: list  # Interval
    trace: dict


def _build_certificate(o: ParamOracle, n: int, hints: Hints | None,
                       budget: Budget | None,
                       ledger: QueryLedger | None) -> _Certificate:
    h = hints or Hints()
    b = budget or Budget()
    cls, cycle, prefix = _classify(o, h, b, ledger)
    if cls is None and not prefix:
        raise ApproximationFailed("classification undecided at the budget")
    if cls is None or cls.variant == "feigenbaum-like":
        # the case-3 cover certifies A whatever the label
        return _nested_cycle_cover(o, n, prefix, b, ledger)
    if cls.variant == "limit-cycle":
        if cls.kind == "parabolic":
            pts = _parabolic_points(o, cls.period, b, ledger,
                                    width_exp=n + 3)
            if pts is None:
                raise ApproximationFailed("parabolic cycle not localized")
            encs = [pt.enclosure for pt in pts]
            if isinstance(o, ExactOracle):
                encs = [_snap_exact_periodic(o.value, cls.period, e)
                        for e in encs]
            trace = {"case": "1c", "period": cls.period}
        elif o.known_critical_period:
            encs = _exact_cycle(o, cls.period, n, b, ledger)
            trace = {"case": "1b", "period": cls.period}
        else:
            encs = _refined_cycle(o, cycle, n, b, ledger)
            trace = {"case": "1a", "period": cls.period}
        return _Certificate("points", encs, trace)
    got = _interval_chain(o, cls.period, n + 4, b, ledger)
    if got is None:
        raise ApproximationFailed("interval cycle not localized")
    chain, p = got
    return _Certificate("intervals", [t.outer() for t in chain],
                        {"case": "2", "period": cls.period, "precision": p})


def _exact_cycle(o: ParamOracle, q: int, n: int, b: Budget,
                 ledger: QueryLedger | None) -> list:
    """Case 1b: the superattracting cycle through the critical point.

    For an exactly dyadic parameter the orbit is computed exactly (it is
    finite and periodic, so mantissas stay bounded); otherwise enclosures
    are refined below 2^-(n+3).
    """
    if isinstance(o, ExactOracle):
        o.query(n + 3, ledger)  # bookkeeping: the run still reads c
        x, pts = ZERO, [ZERO]
        for _ in range(q - 1):
            x = x * x + o.value
            pts.append(x)
        return [Interval.point(x) for x in pts]
    target = Dyadic(1, -(n + 3))
    for p in ladder(max(64, 2 * (n + 8)), b.p_cap()):
        for _ in range(q):  # the cost model reads c once per step of P
            c = o.enclosure(p, ledger)
        orbit = _critical_enclosures(c, q, p)
        if all(x.width() < target for x in orbit):
            return orbit[:q]
    raise ApproximationFailed("critical orbit not localized")


def _refined_cycle(o: ParamOracle, cycle: CertifiedCycle, n: int, b: Budget,
                   ledger: QueryLedger | None) -> list:
    """Case 1a: squeeze each point enclosure of the certified cycle below
    2^-(n+3) by _squeeze_cycle_point, one run at each ladder rung."""
    target = Dyadic(1, -(n + 3))
    out = []
    for box in cycle.point_enclosures:
        for p in ladder(max(64, 2 * (n + 8)), b.p_cap()):
            if box.width() < target:
                break
            box = _squeeze_cycle_point(box, o.enclosure(p, ledger),
                                       cycle.period, p)
        if box.width() >= target:
            raise ApproximationFailed("cycle point not localized")
        out.append(box)
    return out


def _nested_cycle_cover(o: ParamOracle, n: int, prefix: tuple, b: Budget,
                        ledger: QueryLedger | None) -> _Certificate:
    """Case 3: descend invariant interval cycles until diameters collapse.

    For period P the cover is a symmetric K_0 = [-b, b] around the critical
    point and its image chain; the certificate is P^P(K_0) strictly inside
    K_0, which makes the union forward invariant, hence a rigorous superset
    of A = omega(0), with A meeting every K_i (the critical orbit enters
    K_0 at every multiple of P and cycles through the rest).  b is a fixed
    factor times |P^P(0)|, read off the certified critical orbit.  One climb
    of the query precision m (from n + 10 in fine steps of 6, as near c_F
    the cost doubles every 2.2 bits, up to min(n + 40, the precision cap))
    descends P until every component is narrower than 2^-(n+2).  The first
    limit, an oracle fault or m past the cap, ends it at that period.
    """
    target = Dyadic(1, -(n + 2))
    rel = [t.period for t in prefix] or [2]
    periods, acc = [], 1
    for q in rel:
        acc *= q
        periods.append(acc)
    while periods[-1] * rel[-1] <= 1 << 14:
        periods.append(periods[-1] * rel[-1])
    m, m_cap = n + 10, min(n + 40, b.p_cap())
    for P in periods:
        trap = None
        while trap is None:
            if m > m_cap:
                raise ApproximationFailed(
                    f"period-{P} trap not certified below the precision cap "
                    f"(m <= {m_cap})")
            try:
                c = o.enclosure(m, ledger)
            except OracleFault as exc:
                raise ApproximationFailed(
                    f"period-{P} trap not certified below the oracle's limit "
                    f"({exc})") from None
            p = min(max(64, 4 * m), b.p_cap())
            x = float(_critical_enclosures(c, P, p)[-1].mid())
            for t in (1.025, 1.05, 1.1, 1.2, 1.35, 1.55, 1.8):
                bt = Dyadic.from_float(t * abs(x)).round(p, UP)
                trap = symmetric_trap(bt, c, P, p)
                if trap is not None:
                    break
            else:
                m += 6
        q, chain = trap
        comps = [from_fixed(lo, hi, q) for lo, hi in chain[:P]]
        diam = max(k.width() for k in comps)
        if diam < target:
            return _Certificate(
                "intervals", comps,
                {"case": "3", "period": P, "precision": p,
                 "diameter": float(diam)})
    raise ApproximationFailed(f"components at period {P} have diameter "
                              f"{float(diam):.3g}")


def _grid_indices(iv: Interval, n: int):
    """Index range (j0, j1) of the step-2^-(n+1) grid inside iv, or None."""
    step_exp = n + 1
    j0 = iv.lo.scale2(step_exp).ceil_int()
    j1 = iv.hi.scale2(step_exp).floor_int()
    return (j0, j1) if j0 <= j1 else None


def approximate(o: ParamOracle, n: int, hints: Hints | None = None,
                budget: Budget | None = None,
                ledger: QueryLedger | None = None) -> ApproxSet:
    """Certified C_n with dist_H(C_n, A) < 2^-n, points in D_{n+2}."""
    if n < 1:
        raise ValueError("resolution must be >= 1")
    cert = _build_certificate(o, n, hints, budget, ledger)
    if cert.kind == "points":
        pts = {enc.mid().round(n + 2, NEAREST) for enc in cert.enclosures}
    else:
        idx = set()  # integer multiples of 2^-(n+1); narrow leftovers apart
        extra = set()
        for enc in cert.enclosures:
            rng = _grid_indices(enc, n)
            if rng is None:
                extra.add(enc.mid().round(n + 2, NEAREST))
            else:
                idx.update(range(rng[0], rng[1] + 1))
        pts = {Dyadic(j, -(n + 1)) for j in idx} | extra
    return ApproxSet(n, _sorted_dyadics(pts), dict(cert.trace))


def _sorted_dyadics(pts) -> tuple:
    if not pts:
        return ()
    emin = min(p.exp for p in pts)
    return tuple(sorted(pts, key=lambda d: d.man << (d.exp - emin)))


# ---------------------------------------------------------------------------
# Pixel queries and rendering

def _pixel_runs(o: ParamOracle, n: int, hints, budget, ledger,
                pixels: int) -> tuple:
    """Sorted disjoint closed runs (starts, ends) of pixel indices j whose
    centre j*2^-n lies in some band (lo - 2^(1-n), hi + 2^(1-n)) of the
    certificate's enclosures for (n, hints, budget), built once per oracle.

    The band is open, so enclosure [lo, hi] gives the run
    [floor(lo*2^n) - 1, ceil(hi*2^n) + 1]; runs that overlap or touch are
    merged.  The ledger is charged what the build was charged (units,
    queries, max precision) once per pixel asked, as the cost model charges
    replays like first runs; a failed build is charged once.
    """
    cache = getattr(o, "_qal_cert_cache", None)
    if cache is None:
        cache = o._qal_cert_cache = {}
    key = (n, hints, budget)
    cost, times = QueryLedger(), 1
    try:
        if key not in cache:
            cert = _build_certificate(o, n, hints, budget, cost)
            runs = sorted((e.lo.scale2(n).floor_int() - 1,
                           e.hi.scale2(n).ceil_int() + 1)
                          for e in cert.enclosures)
            starts, ends = [], []
            for a, b in runs:
                if ends and a <= ends[-1] + 1:
                    ends[-1] = max(ends[-1], b)
                else:
                    starts.append(a)
                    ends.append(b)
            cache[key] = (starts, ends), cost
        runs, cost = cache[key]
        times = pixels
    finally:
        if ledger is not None:
            ledger.add(cost, times)
    return runs


def pixel_query(o: ParamOracle, n: int, x: Dyadic,
                hints: Hints | None = None, budget: Budget | None = None,
                ledger: QueryLedger | None = None) -> int:
    """1 if certified dist(x, A) <= 2^-n, 0 if certified >= 2^{1-n}.

    The borderline band resolves to 1 (black) so renders are reproducible.
    The answer is read off the certificate's pixel-index runs, cached on
    the oracle (_pixel_runs): 1 when x = j*2^-n has j in a run, that is,
    dist(x, enclosure) < 2^(1-n) for an enclosure of the cover of A.  Each
    query charges the ledger what building the certificate charged.
    """
    if not x.in_grid(n):
        raise ValueError(f"pixel center {x} is not in D_{n}")
    j = x.man << (x.exp + n)
    starts, ends = _pixel_runs(o, n, hints, budget, ledger, 1)
    i = bisect_right(starts, j) - 1
    return 1 if i >= 0 and j <= ends[i] else 0


def render(o: ParamOracle, n: int, viewport: Interval,
           hints: Hints | None = None, budget: Budget | None = None,
           ledger: QueryLedger | None = None) -> bytes:
    """P5 graymap, one row, byte 0 (black) where pixel_query says 1.

    One sweep over the cached pixel-index runs: the row starts at 255 and
    each run's slice inside the viewport is zeroed.  A row of k pixels
    charges the ledger what k pixel_query calls charge: k times the
    build's units and queries, at the build's max precision.
    """
    lo = viewport.lo.scale2(n).ceil_int()
    hi = viewport.hi.scale2(n).floor_int()
    if hi < lo:
        raise ValueError("viewport contains no pixel centers")
    starts, ends = _pixel_runs(o, n, hints, budget, ledger, hi - lo + 1)
    row = bytearray(b"\xff") * (hi - lo + 1)
    for i in range(bisect_left(ends, lo), bisect_right(starts, hi)):
        a, b = max(starts[i], lo) - lo, min(ends[i], hi) - lo + 1
        row[a:b] = bytes(b - a)
    header = (f"P5\n# attractor band render; 0 = black = attractor side\n"
              f"{len(row)} 1\n255\n")
    return header.encode("ascii") + bytes(row)
