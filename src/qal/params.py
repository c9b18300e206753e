"""Parameter-space solvers, each delivered as a ParamOracle.

Superstable centers (roots of Q_n(c) = P_c^n(0)), renormalization-window
endpoints, the eps_n family of essentially-bounded-combinatorics parameters
accumulating on the period-3 cusp -7/4, and the period-doubling limit.
Float arithmetic only ever produces seeds; every delivered bracket is
certified by interval Newton or certified sign bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .dyadic import (ONE, TWO, UP, ZERO, Dyadic, Interval, fixed_box,
                     fixed_centred, fixed_orbit, fixed_read, from_fixed)
from .dynamics import (PARAM_RANGE, _critical_enclosures,
                       certify_attracting_cycle, iter_eval)
from .oracle import (BisectOracle, IntervalNewtonOracle, OracleFault,
                     ParamOracle, QueryLedger, RefinerOracle)
from .renorm import (CombinatorialType, feigenbaum_word, itinerary_type,
                     kneading, kneading_order, principal_nest,
                     window_left_word, window_tower)
from .solver import float_newton, interval_newton, ladder


# ---------------------------------------------------------------------------
# Q_n(c) = P_c^n(0) as a function of the parameter

def critical_value_eval(c: Interval, n: int, p: int):
    """Enclosures of (Q_n, dQ_n/dc) over a parameter interval c.

    Recursion x' = x^2 + c, d' = 2 x d + 1, sharpened by the mean-value form
    Q_n(mid) + dQ_n(c) * (c - mid).
    """
    q, (cl, ch), m = fixed_box(p, c)
    *_, x = fixed_orbit((0, 0), (cl, ch), n, q, p, (0, 0), 1)
    d = from_fixed(*x[2], q)
    if cl == ch:
        return from_fixed(x[0], x[1], q), d
    *_, xm = fixed_orbit((0, 0), (m, m), n, q, p)
    return from_fixed(*fixed_centred(x, xm, x[2], ch - m, q)), d


def _q_float(c: float, n: int) -> float:
    x = 0.0
    for _ in range(n):
        x = x * x + c
    return x


def _q_float_d(c: float, n: int) -> tuple:
    """(Q_n(c), dQ_n/dc) in floats."""
    x, d = 0.0, 0.0
    for _ in range(n):
        d = 2.0 * x * d + 1.0
        x = x * x + c
    return x, d


def _contract_root(guess: float, n: int, radius: float) -> Interval | None:
    """Certified enclosure of a simple root of Q_n near guess, or None.

    Interval Newton around the float seed; success requires a step strictly
    inside the previous box (existence and uniqueness).  radius bounds how
    far the polished seed may drift from guess and sizes the Newton box,
    which must exclude neighboring roots.
    """
    seed = float_newton(lambda c: _q_float_d(c, n), guess)
    if seed is None or abs(seed - guess) > radius:
        return None
    min_w = Dyadic(1, -45)
    for p in ladder():
        r = Dyadic.from_float(radius).round(min(p, 128), UP)
        mid = Dyadic.from_float(seed).round(min(p, 128))
        box = Interval(mid - r, mid + r).intersect(PARAM_RANGE)
        # Long compositions wrap the derivative over wide boxes; shrink
        # toward the seed (accurate to ~2^-45 easily) before spending
        # precision.  The seed is the box's centre unless the box was cut
        # at -2, where it may lie in the box's left quarter.
        while (box.width() > min_w
               and critical_value_eval(box, n, p)[1].contains_zero()):
            q = box.width().scale2(-3)
            box = Interval(mid - q, mid + q).intersect(PARAM_RANGE)
        got = interval_newton(lambda x, pr: critical_value_eval(x, n, pr),
                              box, p)
        if got is None:
            return None
        if got[1]:
            return got[0]
    return None


def _is_primitive(enclosure: Interval, n: int, p: int) -> bool | None:
    """True when Q_d excludes 0 over the enclosure for all proper d | n."""
    for d in range(1, n):
        if n % d:
            continue
        v, _ = critical_value_eval(enclosure, d, p)
        if v.contains_zero():
            return None if v.lo < ZERO < v.hi and enclosure.width() > Dyadic(1, -p // 2) else False
    return True


def superstable_center(n: int, selector=None, p: int = 64) -> ParamOracle:
    """Oracle for a root of P_c^n(0) = 0 with primitive period n.

    selector: None (unique root expected), an int index into the ascending
    list of primitive roots in [-2, 1/4], or an Interval bracket hint.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if isinstance(selector, Interval):
        # pad so that a tight certified enclosure still spans a sign change
        lo, hi = float(selector.lo) - 1e-7, float(selector.hi) + 1e-7
    else:
        lo, hi = -2.0, 0.25
    stop = selector + 1 if isinstance(selector, int) and selector >= 0 else None
    enclosures = list(islice(_primitive_centers(n, lo, hi, p), stop))
    if not enclosures:
        raise OracleFault(f"no primitive period-{n} center in [{lo}, {hi}]")
    idx = selector if isinstance(selector, int) else 0
    if isinstance(selector, int) and not 0 <= idx < len(enclosures):
        raise OracleFault(f"center index {idx} out of range "
                          f"({len(enclosures)} roots)")
    if selector is None and len(enclosures) > 1 and n > 1:
        raise OracleFault(f"{len(enclosures)} period-{n} centers; "
                          f"pass an index or bracket")
    return _center_oracle(enclosures[idx], n,
                          f"superstable:{n}" + (f":{idx}" if isinstance(selector, int) else ""))


def _primitive_centers(n: int, lo: float, hi: float, p: int):
    """Yield certified enclosures of the primitive period-n centers seeded
    in [lo, hi], ascending, each as soon as it is certified."""
    for seed in _float_roots(n, lo, hi):
        enc = _contract_root(seed, n, 1e-6 + 1e-3 / n)
        if enc is not None and _is_primitive(enc, n, p):
            yield enc


def _center_oracle(enc: Interval, n: int, spec: str) -> ParamOracle:
    pad = enc.width()
    if pad == ZERO:
        pad = Dyadic(1, -48)
    bracket = Interval(enc.lo - pad, enc.hi + pad).intersect(PARAM_RANGE)
    o = IntervalNewtonOracle(
        lambda x, pr: critical_value_eval(x, n, pr), bracket, spec=spec)
    o.known_critical_period = n
    return o


def _float_roots(n: int, lo: float, hi: float):
    """Yield float sign-scan seeds for roots of Q_n on [lo, hi], ascending.

    Real centres crowd at -2, evenly in sqrt(c + 2) (there Q_n(c) is near
    2 cos(2^(n-1) (pi - sqrt(c + 2)))): two or more can share the first of
    the 4,096 cells, as the two period-9 centres nearest -2 do.  So a first
    cell at -2 is scanned again on 64 points even in sqrt(c + 2), and when
    that finds two roots or more, they stand for the cell's seed.
    """
    if n == 1:
        if lo <= 0.0 <= hi:
            yield 0.0
        return
    step, first = (hi - lo) / 4096, 0
    if lo == -2.0:
        crowd = list(_sign_scan(n, (lo + step * (j / 64) ** 2
                                    for j in range(65))))
        if len(crowd) > 1:
            yield from crowd
            first = 1
    yield from _sign_scan(n, (lo + i * step for i in range(first, 4097)))


def _sign_scan(n: int, grid):
    """Seeds for the sign changes and zeros of Q_n on an ascending grid."""
    grid = iter(grid)
    prev_c = next(grid)
    prev_v = _q_float(prev_c, n)
    for c in grid:
        v = _q_float(c, n)
        if prev_v == 0.0:
            yield prev_c
        elif v * prev_v < 0.0:
            yield _float_bisect(lambda x: _q_float(x, n), prev_c, c, prev_v)
        prev_c, prev_v = c, v


def _float_bisect(h, a: float, b: float, va: float) -> float:
    """Float sign bisection of h on [a, b], where va = h(a) and h(b) has
    the other sign; a seed, never a certificate."""
    for _ in range(80):
        m = 0.5 * (a + b)
        vm = h(m)
        if vm == 0.0 or b - a < 1e-15:
            break
        if vm * va < 0.0:
            b = m
        else:
            a, va = m, vm
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Window endpoints

@dataclass
class RenormWindow:
    """Ends and type of a window: left certified next to the centre by the
    kneading order, tau the real order of the centre's cycle."""

    period: int
    left: Interval
    right: Interval
    tau: CombinatorialType


def _system_eval(c: Interval, w: Interval, n: int, p: int):
    """Over a (c, w) box: (P^n(w), dP^n/dw, dP^n/dc, d2/dwdw, d2/dwdc)."""
    q, cf, x = fixed_read(p, c, w)
    s, up, uw, uc = 2 * q - p, q - p, (0, 0), (0, 0)  # uw, uc: du/dw, du/dc

    def line(x, a, b, e):  # 2 (a b + x e), rounded out to D_p
        m, k = [i * j for i in a for j in b], [i * j for i in x for j in e]
        return (2 * (min(m) + min(k)) >> s) << up, -(-2 * (max(m) + max(k)) >> s) << up

    # x with dx/dw (from 1) and dx/dc (from 0, add 1)
    steps = list(zip(fixed_orbit(x, cf, n, q, p, (1 << q, 1 << q)),
                     fixed_orbit(x, cf, n, q, p, (0, 0), 1)))
    for (*x, u), (*_, v) in steps[:-1]:
        uw, uc = line(x, u, u, uw), line(x, u, v, uc)
    (*x, u), (*_, v) = steps[-1]
    return tuple(from_fixed(*y, q) for y in (x, u, v, uw, uc))


def _parabolic_refine(n: int, c0: float, w0: float, target_exp: int,
                      mult: int = 1) -> tuple | None:
    """Certified (c, w) box for P^n(w) = w, (P^n)'(w) = mult.

    Two-variable interval Newton; returns (c_enclosure, w_enclosure) with
    the c side refined below 2^-target_exp, or None.
    """
    seed = _parabolic_float(n, c0, w0, mult)
    if seed is None:
        return None
    c0, w0 = seed
    radius = 1e-4
    tgt = Interval.point(Dyadic(mult))
    target = Dyadic(1, -target_exp)
    for p in ladder(64, 1024):
        r = Dyadic.from_float(radius).round(min(p, 128), UP)
        cm = Dyadic.from_float(c0).round(min(p, 128))
        wm = Dyadic.from_float(w0).round(min(p, 128))
        cbox, wbox = Interval(cm - r, cm + r), Interval(wm - r, wm + r)
        certified = False
        for _ in range(400):
            cmid, wmid = cbox.mid(), wbox.mid()
            x, u, _, _, _ = _system_eval(Interval.point(cmid),
                                         Interval.point(wmid), n, p)
            f1 = x - Interval.point(wmid)
            f2 = u - tgt
            _, ub, vb, uwb, ucb = _system_eval(cbox, wbox, n, p)
            j11, j12 = vb, ub - Interval.point(ONE)
            j21, j22 = ucb, uwb
            det = (j11 * j22 - j12 * j21).round_out(p)
            if det.contains_zero():
                break
            dc = (f1 * j22 - f2 * j12).divide(det, p)
            dw = (f2 * j11 - f1 * j21).divide(det, p)
            nc = Interval(cmid - dc.hi, cmid - dc.lo)
            nw = Interval(wmid - dw.hi, wmid - dw.lo)
            if cbox.strictly_contains(nc) and wbox.strictly_contains(nw):
                certified = True
            ic, iw = nc.intersect(cbox), nw.intersect(wbox)
            if ic is None or iw is None:
                return None
            if ic.width() >= cbox.width() and iw.width() >= wbox.width():
                break
            cbox, wbox = ic, iw
            if certified and cbox.width() < target:
                return cbox, wbox
        if certified and cbox.width() < target:
            return cbox, wbox
    return None


def _parabolic_float(n: int, c: float, w: float, mult: int,
                     iters: int = 200) -> tuple | None:
    for _ in range(iters):
        x, u, v, uw, uc = w, 1.0, 0.0, 0.0, 0.0
        for _ in range(n):
            uw = 2.0 * (u * u + x * uw)
            uc = 2.0 * (u * v + x * uc)
            u = 2.0 * x * u
            v = 2.0 * x * v + 1.0
            x = x * x + c
        f1, f2 = x - w, u - mult
        det = v * uw - (u - 1.0) * uc
        if det == 0.0:
            return None
        dc = (f1 * uw - f2 * (u - 1.0)) / det
        dw = (f2 * v - f1 * uc) / det
        c, w = c - dc, w - dw
        if abs(dc) < 1e-14 and abs(dw) < 1e-14:
            return c, w
    return None


def window_endpoints(n: int, center_hint=None,
                     width_exp: int = 34) -> RenormWindow:
    """Certified ends and type of the period-n window around its center.

    Left end: bisection on the kneading order against the left end's word,
    read off the centre's itinerary, so it is the end next to the centre.
    Right end: a parabolic point by two-variable interval Newton
    (_RightEndOracle).  Type: the real order of the centre's cycle.
    """
    if n < 2:
        raise ValueError("windows have period >= 2")
    return _window_at(n, superstable_center(n, center_hint), width_exp)


def _window_at(n: int, center: ParamOracle,
               width_exp: int = 34) -> RenormWindow:
    """window_endpoints around the period-n center that center delivers."""
    A = kneading(center, n).symbols[1:]
    right = _RightEndOracle(n, center, f"window-right:{n}")
    left = _left_end_oracle(A, center, f"window-left:{n}")
    for end in (right, left):
        end._refine_to(width_exp)
    if not left.bracket.hi < right.bracket.lo:
        raise OracleFault("window endpoints out of order")
    return RenormWindow(n, left.bracket, right.bracket, itinerary_type(A))


def _left_end_oracle(A: str, center: ParamOracle, spec: str) -> BisectOracle:
    """Bisection on the kneading order over [-2, center): the sign is -1 at
    -2 and +1 next to the centre, whose itinerary there is (A t)^oo."""
    return BisectOracle(lambda x, p: kneading_order(x, window_left_word(A), p),
                        Interval(-TWO, center.enclosure(64).lo), spec=spec)


class _RightEndOracle(RefinerOracle):
    """The right end of the period-n window around center, refined on demand.

    A primitive window ends in a saddle-node of the n-cycle: multiplier +1.
    A period-doubling window (n even, nested in a period-n/2 window) ends
    where the parent n/2-cycle has multiplier -1, as the n-cycle system is a
    triple root there.  Seeds are the superstable cycle points; a solution
    not certified to have no smaller period is skipped."""

    def __init__(self, n: int, center: ParamOracle, spec: str):
        super().__init__()
        self.n, self.center, self.spec = n, center, spec

    def _refine_to(self, width_exp: int):
        if self.bracket and self.bracket.width() < Dyadic(1, -width_exp):
            return
        n, c_star = self.n, float(self.center.query(53))
        for q, mult in ((n, 1),) + (((n // 2, -1),) if n % 2 == 0 else ()):
            for k in range(n):
                sol = _parabolic_refine(q, c_star, _q_float(c_star, k),
                                        width_exp, mult=mult)
                if sol is None or _divisor_cycle(q, *sol, 4 * width_exp):
                    continue
                r = float(sol[0].lo)
                if c_star < r <= 0.25 and r - c_star < 1.0:
                    self.bracket = sol[0]
                    return
        raise OracleFault(f"right endpoint of period {n} did not certify")


def _divisor_cycle(q: int, c: Interval, w: Interval, p: int) -> bool:
    """False when P^d(w) is certified apart from w for every proper d | q.

    Newton can land on a parabolic cycle of a proper divisor period d,
    whose P^q-multiplier is the d-cycle's to the power q/d."""
    return any(iter_eval(w, c, d, p)[0].intersect(w) is not None
               for d in range(1, q) if q % d == 0)


def window_endpoint_oracle(period: int, side: str,
                           index: int | None = None) -> ParamOracle:
    """One end of the window around superstable_center(period, index)."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    if period < 2:
        raise ValueError("windows have period >= 2")
    spec = f"window-{side}:{period}" + ("" if index is None else f":{index}")
    center = superstable_center(period, index)
    if side == "right":
        return _RightEndOracle(period, center, spec)
    return _left_end_oracle(kneading(center, period).symbols[1:], center, spec)


# ---------------------------------------------------------------------------
# The eps_n family near the cusp -7/4

def epsilon_family(n: int) -> ParamOracle:
    """Oracle for c = -7/4 + eps_n, the n-th essentially-bounded center.

    These are the superstable parameters whose critical orbit shadows the
    parabolic period-3 orbit n times, escapes through I^1_1, and closes up.
    The critical period is 3n + 2: the escape itinerary is
    f^{3i}(0) in I^1 (i <= n-1), f^{3n}(0) in I^1_1, and then two more
    steps (I^1_1 returns to I^0 under f^2) reach 0.  The constraints are
    certified on the delivered oracle's own nest.
    """
    if n < 1:
        raise ValueError("family index must be >= 1")
    q = 3 * n + 2
    enc = _epsilon_enclosure(n, q)
    o = _center_oracle(enc, q, f"eps-family:{n}")
    _check_epsilon_itinerary(o, n)
    return o


def _epsilon_enclosure(n: int, q: int) -> Interval:
    base = -1.75
    for scale in (0.1246 if n == 1 else 0.166, 0.14, 0.19, 0.11, 0.23):
        guess = base + scale / (n * n)
        root = float_newton(lambda c: _q_float_d(c, q), guess)
        if root is None or not base < root < base + 0.3:
            continue
        if not _epsilon_float_itinerary(root, n):
            continue
        enc = _contract_root(root, q, 1e-7)
        if enc is not None:
            return enc
    raise OracleFault(f"eps-family index {n}: no certified center")


def _epsilon_float_itinerary(c: float, n: int) -> bool:
    alpha = (1.0 - (1.0 - 4.0 * c) ** 0.5) / 2.0
    pts = [_q_float(c, k) for k in range(3 * n + 3)]
    for i in range(1, n):
        if not abs(pts[3 * i]) < 0.6 * abs(alpha):
            return False
    if not alpha < pts[3 * n] < 0.5 * alpha:
        return False
    return abs(pts[3 * n + 2]) < 1e-9


def _check_epsilon_itinerary(o: ParamOracle, n: int):
    """Certify the defining constraints on the oracle's own nest."""
    nest = principal_nest(o, 1)
    if nest.depth < 1:
        raise OracleFault("eps-family: nest level I^1 unavailable")
    i0, i1 = nest.levels[0], nest.levels[1]
    c = nest.param_enclosure
    orbit = _critical_enclosures(c, 3 * n + 1, nest.precision)
    for i in range(1, n):
        if not i1.certainly_contains_iv(orbit[3 * i]):
            raise OracleFault(f"eps-family: f^{3 * i}(0) not certified in I^1")
    y = orbit[3 * n]
    # I^1_1 = (alpha, -b_1): the non-central component touching alpha
    if not (i0.lo.hi < y.lo and y.hi < i1.lo.lo):
        raise OracleFault(f"eps-family: f^{3 * n}(0) not certified in I^1_1")


# ---------------------------------------------------------------------------
# Period-doubling limit

class FeigenbaumOracle(BisectOracle):
    """Bisection for the period-doubling limit c_F on its kneading order.
    c_F lies in every period-2^k doubling window: its tower is L, L, ..."""

    known_tower = "L"

    def __init__(self, depth: int):
        if depth < 6:  # -1.40 follows W_5 whole
            raise ValueError("depth cap must be >= 6 to sign the bracket ends")
        word = feigenbaum_word(depth)
        bracket = Interval(Dyadic.from_fraction_rounded(Fraction("-1.41"), 64),
                           Dyadic.from_fraction_rounded(Fraction("-1.40"), 64))
        super().__init__(lambda x, p: kneading_order(x, word, p), bracket,
                         spec="feigenbaum")
        self.depth = depth

    def _answer(self, m: int) -> Dyadic:
        # bisecting to 2^-m follows about 2^(m/2.22 + 3.4) symbols of the
        # word; measured for m <= 35, depth <= 19: none accepted runs out
        if 100 * m > 222 * self.depth - 755:
            raise OracleFault(f"precision {m} needs more of the Feigenbaum "
                              f"word than the depth cap {self.depth} gives")
        return super()._answer(m)


def feigenbaum_limit(depth: int = 17) -> ParamOracle:
    """Oracle for the Feigenbaum point c_F, the period-doubling limit.

    Certificate: kneading sequences of x^2 + c are monotone in c, and that
    of c_F begins with W_depth, the itinerary of the period-2^depth doubling
    centre.  The first symbol s at which the certified itinerary of a
    dyadic x leaves W_depth gives sign(x - c_F) = s * (-1)^(number of L
    before s) (renorm.kneading_order); bisection on that sign over
    [-1.41, -1.40] gives the answers.  A query whose probes would follow
    the whole word raises OracleFault, naming the depth cap, before it
    bisects.
    """
    return FeigenbaumOracle(depth)


# ---------------------------------------------------------------------------
# The window of an oracle parameter

def window_locate(o: ParamOracle, max_period: int,
                  ledger: QueryLedger | None = None) -> RenormWindow | None:
    """Smallest-period window (period <= max_period) certified to contain c.

    renorm.window_tower finds it; only its ends are built.  A certified
    attracting cycle of period q (if the oracle reaches that test) limits
    window periods to divisors of q, and window q holds the cycle's
    component.  Undecidable proximity to a window end raises OracleFault.
    """
    try:
        cert = certify_attracting_cycle(o, max_period, ledger=ledger)
    except OracleFault:
        cert = None  # the oracle cannot reach the filter's precision
    q = None
    if cert is not None and cert.kind in ("attracting", "superattracting"):
        q = cert.period
    words, decided = window_tower(o, 1, max_period, max_period, ledger,
                                  cycle_period=q)
    if words:
        return _window_at(len(words[0]) + 1, _centre_of(words[0]))
    if not decided:
        raise OracleFault("parameter undecidably close to a window end at "
                          "the precision cap or the oracle's limit")
    return None


def _centre_of(B: str) -> ParamOracle:
    """The centre whose itinerary is B: bisection on the kneading order
    against (B C)^oo, which no other parameter follows."""
    o = BisectOracle(lambda x, p: kneading_order(x, cycle(B + "C"), p),
                     PARAM_RANGE, spec=f"superstable:{len(B) + 1}")
    o.known_critical_period = len(B) + 1
    return o
