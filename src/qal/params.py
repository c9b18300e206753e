"""Parameter-space solvers, each delivered as a ParamOracle.

Superstable centers (roots of Q_n(c) = P_c^n(0)), renormalization-window
endpoints, the eps_n family of essentially-bounded-combinatorics parameters
accumulating on the period-3 cusp -7/4, and the period-doubling limit.
Every centre, eps_n among them, is built from its kneading word: bisection
on the kneading order isolates it, and interval Newton refines it.  Float
arithmetic only seeds the window right ends and the cycle search; every
delivered bracket is certified by interval Newton or certified sign
bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import cycle, product

from .dyadic import (NEAREST, TWO, UP, Dyadic, Interval, fixed_box,
                     fixed_centred, fixed_orbit, fixed_quotient, fixed_read,
                     from_fixed)
from .dynamics import (PARAM_RANGE, _critical_enclosures, _cycle_orbit,
                       _minimal)
from .oracle import (BisectOracle, IntervalNewtonOracle, OracleFault,
                     ParamOracle, QueryLedger, RefinerOracle, ladder_sign)
from .renorm import (CombinatorialType, _admissible, _order, _star,
                     feigenbaum_word, itinerary_type, kneading_order,
                     locate_window, principal_nest, window_left_word)
from .solver import ladder


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


def superstable_center(n: int, selector=None) -> ParamOracle:
    """Oracle for a root of P_c^n(0) = 0 with primitive period n.

    Each real centre is named by its itinerary B of P(0), ..., P^(n-1)(0)
    and built from it (_centre_of).  selector: None (unique root
    expected), an int index i (the i-th admissible word in kneading order,
    which is ascending c), or an Interval bracket hint (its leftmost
    centre).
    """
    return _centre_of(*_select_centre(n, selector))


def _select_centre(n: int, selector) -> tuple:
    """(word, spec) of the period-n centre that selector names; a bracket
    hint keeps the words whose centre the kneading order puts inside it."""
    if n < 1:
        raise ValueError("period must be >= 1")
    words = _centre_words(n)
    if isinstance(selector, int):
        if not 0 <= selector < len(words):
            raise OracleFault(f"center index {selector} out of range "
                              f"({len(words)} roots)")
        return words[selector], f"superstable:{n}:{selector}"
    if isinstance(selector, Interval):
        # pad so that a tight certified enclosure still holds its centre
        pad = Dyadic(1, -23)
        hint = Interval(selector.lo - pad,
                        selector.hi + pad).intersect(PARAM_RANGE)
        words = [B for B in words if hint is not None
                 and ladder_sign(_centre_sign(B), hint.lo) < 0
                 < ladder_sign(_centre_sign(B), hint.hi)]
        if not words:
            raise OracleFault(f"no primitive period-{n} center in "
                              f"[{float(selector.lo)}, {float(selector.hi)}]")
    elif len(words) > 1:
        raise OracleFault(f"{len(words)} period-{n} centers; "
                          f"pass an index or bracket")
    return words[0], f"superstable:{n}"


@cache
def _centre_words(n: int) -> tuple:
    """The itineraries B of P(0), ..., P^(n-1)(0) at the real period-n
    centres, in ascending c: the admissible words (Metropolis, Stein & Stein
    1973), sorted by the kneading order of (B C)^oo, which is monotone in c
    (Milnor-Thurston).  Listed once per n; the list reads no oracle."""
    words = map("".join, product("LR", repeat=n - 1))
    return tuple(sorted(filter(_admissible, words),
                        key=cmp_to_key(lambda u, v: _order(u + "C", v + "C"))))


def _centre_sign(B: str):
    """pred(x, p): sign(x - c) by the kneading order, c the centre of B."""
    return lambda x, p: kneading_order(x, cycle(B + "C"), p)


def _centre_of(B: str, spec: str | None = None) -> ParamOracle:
    """The centre whose itinerary is B, the one parameter whose kneading is
    (B C)^oo.  Bisection on that kneading order shrinks [-2, 1/4] until
    dQ_n/dc excludes 0: Q_n is then monotone on the bracket, with the
    centre its one root, and interval Newton on Q_n refines it on demand,
    its bisection fallback signed by the same kneading order."""
    n = len(B) + 1
    probe = BisectOracle(_centre_sign(B), PARAM_RANGE)
    while not _monotone(probe.bracket, n):
        probe.halve()
    o = IntervalNewtonOracle(lambda x, pr: critical_value_eval(x, n, pr),
                             probe.pred, probe.bracket,
                             spec=spec or f"superstable:{n}")
    o.known_critical_period = n
    return o


def _monotone(c: Interval, n: int) -> bool:
    """True when dQ_n/dc, enclosed as by critical_value_eval, excludes 0 over
    c.  It works at twice the bits of c's width (an expanding orbit grows
    its rounding as it grows the width), 64 at least.  Past 4 the orbit
    enclosure only grows, its ints doubling in length each step: False."""
    w = c.width()
    p = max(64, -2 * (w.exp + w.man.bit_length()))
    q, cf, _ = fixed_box(p, c)
    for lo, hi, d in fixed_orbit((0, 0), cf, n, q, p, (0, 0), 1):
        if max(-lo, hi) > 4 << q:
            return False
    return d[0] > 0 or d[1] < 0


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


_SEED_RADIUS = 1e-4  # the widest of _parabolic_refine's seed boxes


def _system_eval(c: tuple, w: tuple, n: int, p: int):
    """Over a (c, w) box of int pairs at 2^-p: (P^n(w), dP^n/dw, dP^n/dc,
    d2/dwdw, d2/dwdc), int pairs at 2^-p."""
    uw = uc = (0, 0)  # du/dw, du/dc

    def line(x, a, b, e):  # 2 (a b + x e), rounded out to D_p
        m, k = [i * j for i in a for j in b], [i * j for i in x for j in e]
        return 2 * (min(m) + min(k)) >> p, -(-2 * (max(m) + max(k)) >> p)

    # x with dx/dw (from 1) and dx/dc (from 0, add 1)
    steps = list(zip(fixed_orbit(w, c, n, p, p, (1 << p, 1 << p)),
                     fixed_orbit(w, c, n, p, p, (0, 0), 1)))
    for (*x, u), (*_, v) in steps[:-1]:
        uw, uc = line(x, u, u, uw), line(x, u, v, uc)
    (*x, u), (*_, v) = steps[-1]
    return tuple(x), u, v, uw, uc


def _cross(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple:
    """a b - c d over int pairs, exact: its least and greatest corners."""
    m, k = [i * j for i in a for j in b], [i * j for i in c for j in d]
    return min(m) - max(k), max(m) - min(k)


def _parabolic_refine(n: int, c0: float, w0: float, target_exp: int,
                      mult: int = 1) -> tuple | None:
    """Certified (c, w) box for P^n(w) = w, (P^n)'(w) = mult, the c side
    below 2^-target_exp, or None.

    Interval Newton N(Y) = m - J(Y)^-1 F(m) on int pairs at 2^-p, Y the
    box around the polished float seed at each rung: Cramer's rule, J's
    products exact at 2^-2p, the quotients outward by fixed_quotient.
    Y's radius is _SEED_RADIUS, or a quarter of the way the float Newton
    moved c from its start c0, the window's centre, where that is less
    but not 0: some windows of period 11 are narrower than _SEED_RADIUS,
    and such boxes did not certify.  Certified once a step lands strictly
    inside both boxes; a rung ends, as interval_newton does, at a step that
    halves neither.
    """
    seed = _parabolic_float(n, c0, w0, mult)
    if seed is None:
        return None
    radius = min(_SEED_RADIUS, abs(seed[0] - c0) / 4 or _SEED_RADIUS)
    for p in ladder(64, 1024):
        one, tgt, certified = 1 << p, mult << p, False
        r, cm, wm = (Dyadic.from_float(x).round(min(p, 128), mode) for x, mode
                     in ((radius, UP), (seed[0], NEAREST),
                         (seed[1], NEAREST)))
        _, cbox, wbox = fixed_read(p, Interval(cm - r, cm + r),
                                   Interval(wm - r, wm + r))
        while True:
            (cl, ch), (wl, wh) = cbox, wbox
            cm, wm = (cl + ch) >> 1, (wl + wh) >> 1
            x, u, *_ = _system_eval((cm, cm), (wm, wm), n, p)
            f1, f2 = (x[0] - wm, x[1] - wm), (u[0] - tgt, u[1] - tgt)
            _, u, v, uw, uc = _system_eval(cbox, wbox, n, p)
            u = u[0] - one, u[1] - one  # dF1/dw; dF1/dc = v
            det = _cross(v, uw, u, uc)
            if det[0] <= 0 <= det[1]:
                break
            dcl, dch = fixed_quotient(_cross(f1, uw, f2, u), det, p)
            dwl, dwh = fixed_quotient(_cross(f2, v, f1, uc), det, p)
            nc, nw = (cm - dch, cm - dcl), (wm - dwh, wm - dwl)
            certified = certified or (cl < nc[0] and nc[1] < ch
                                      and wl < nw[0] and nw[1] < wh)
            cbox = max(cl, nc[0]), min(ch, nc[1])
            wbox = max(wl, nw[0]), min(wh, nw[1])
            if cbox[0] > cbox[1] or wbox[0] > wbox[1]:
                return None
            if certified and (cbox[1] - cbox[0]) << target_exp < one:
                return from_fixed(*cbox, p), from_fixed(*wbox, p)
            if not any(2 * (b - a) <= h - l and b - a < h - l for (a, b), l, h
                       in ((cbox, cl, ch), (wbox, wl, wh))):
                break
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
    built from the centre's word, so it is the end next to the centre.
    Right end: a parabolic point by two-variable interval Newton
    (_RightEndOracle).  Type: the real order of the centre's cycle.
    """
    if n < 2:
        raise ValueError("windows have period >= 2")
    A, spec = _select_centre(n, center_hint)
    return _window_at(A, _centre_of(A, spec), width_exp)


def _window_at(A: str, center: ParamOracle,
               width_exp: int = 34) -> RenormWindow:
    """window_endpoints around the centre with itinerary A that center
    delivers."""
    n = len(A) + 1
    right = _RightEndOracle(A, center, f"window-right:{n}")
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
    """The right end of the period-n window around center, whose itinerary
    is A, refined on demand.

    A primitive window ends in a saddle-node of the n-cycle: multiplier +1.
    A period-doubling window (A = B * L, nested in the period-n/2 window of
    B) ends where the parent n/2-cycle has multiplier -1; the n-cycle
    system is a triple root there.  Seeds are the superstable cycle points;
    a solution whose q images are not certified pairwise disjoint
    (dynamics._minimal), or that lies left of the centre, is skipped."""

    def __init__(self, A: str, center: ParamOracle, spec: str):
        super().__init__()
        self.A, self.center, self.spec = A, center, spec

    def _refine_to(self, width_exp: int):
        if self.bracket and self.bracket.width() < Dyadic(1, -width_exp):
            return
        n, c_star = len(self.A) + 1, float(self.center.query(53))
        # the doubling window of B, the first inside it, has the centre B * L
        B = self.A[:n // 2 - 1]
        q, mult = ((n // 2, -1) if n % 2 == 0 and _admissible(B)
                   and _star(B, "L") == self.A else (n, 1))
        for k in range(n):
            sol = _parabolic_refine(q, c_star, _q_float(c_star, k),
                                    width_exp, mult=mult)
            if sol is None:
                continue
            # on a parabolic cycle of a period d | q, whose P^q-multiplier
            # is the d-cycle's to the power q/d, the q images meet
            t, cb, wb = fixed_read(4 * width_exp, *sol)
            orbit = _cycle_orbit(cb, q, t, 4 * width_exp, wb)
            r = float(sol[0].lo)
            if orbit and _minimal(orbit) and c_star < r <= 0.25 \
                    and r - c_star < 1.0:
                self.bracket = sol[0]
                return
        raise OracleFault(f"right endpoint of period {n} did not certify")


def window_endpoint_oracle(period: int, side: str,
                           index: int | None = None) -> ParamOracle:
    """One end of the window around superstable_center(period, index)."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    if period < 2:
        raise ValueError("windows have period >= 2")
    spec = f"window-{side}:{period}" + ("" if index is None else f":{index}")
    A, center_spec = _select_centre(period, index)
    center = _centre_of(A, center_spec)
    if side == "right":
        return _RightEndOracle(A, center, spec)
    return _left_end_oracle(A, center, spec)


# ---------------------------------------------------------------------------
# The eps_n family near the cusp -7/4

def epsilon_family(n: int) -> ParamOracle:
    """Oracle for c = -7/4 + eps_n, the n-th essentially-bounded center.

    These are the superstable parameters whose critical orbit shadows the
    parabolic period-3 orbit n times, escapes through I^1_1, and closes up.
    The critical period is 3n + 2: the escape itinerary is
    f^{3i}(0) in I^1 (i <= n-1), f^{3n}(0) in I^1_1, and then two more
    steps (I^1_1 returns to I^0 under f^2) reach 0.  eps_n is the centre
    of the word L (RLL)^n, and the constraints are certified on the
    delivered oracle's own nest.
    """
    if n < 1:
        raise ValueError("family index must be >= 1")
    o = _centre_of("L" + "RLL" * n, f"eps-family:{n}")
    _check_epsilon_itinerary(o, n)
    return o


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

    renorm.locate_window finds it; only its ends are built.  Undecidable
    proximity to a window end raises OracleFault.
    """
    words, decided = locate_window(o, max_period, ledger)
    if words:
        return _window_at(words[0], _centre_of(words[0]))
    if not decided:
        raise OracleFault("parameter undecidably close to a window end at "
                          "the precision cap or the oracle's limit")
    return None
