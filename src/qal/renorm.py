"""Renormalization combinatorics for P_c(x) = x^2 + c.

Kneading data, certified renormalization intervals with their combinatorial
type, the principal nest, central/saddle-node cascades, and the essential
period.  Every combinatorial statement is certified from interval enclosures;
anything the current precision cannot decide surfaces as an explicit unknown
(never a guess), and callers escalate precision where that makes sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import chain, count, cycle, islice, takewhile
from math import isqrt, prod

from .dyadic import ZERO, Dyadic, Interval, fixed_read, from_fixed
from .dynamics import (TrackedInterval, _critical_enclosures, _critical_ints,
                       certify_attracting_cycle, check_range, symmetric_trap)
from .oracle import OracleFault, ParamOracle, QueryLedger
from .solver import PRECISION_CAP, iv_sign, ladder


class _Undecided(Exception):
    """Internal: current working precision cannot decide a required test."""


# ---------------------------------------------------------------------------
# Kneading sequences

@dataclass
class KneadingSequence:
    symbols: str  # over {L, R, C, ?}; index k describes P_c^k(0)
    certified_length: int

    def __str__(self):
        return self.symbols


_SYMBOL = {-1: "L", 0: "?", 1: "R"}
_VALUE = {"L": -1, "C": 0, "R": 1}  # the order of symbols in _order


def kneading(o: ParamOracle, length: int,
             ledger: QueryLedger | None = None) -> KneadingSequence:
    """Certified itinerary of the critical orbit relative to 0.

    C appears at index 0 and, when the oracle's construction guarantees
    P^q(0) = 0, at multiples of q; everything else is decided from orbit
    enclosures, escalating precision while '?' remain.  A bracket
    certified outside [-2, 1/4] raises ParameterRangeError.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    best = "?" * length
    for p in ladder():
        c = check_range(o.enclosure(p, ledger))
        s = "C" + "".join(islice(_symbols(_critical_ints(c, p)[1],
                                          o.known_critical_period),
                                 length - 1))
        if "?" not in s:
            return KneadingSequence(s, length)
        if s.count("?") < best.count("?"):
            best = s
    cert = best.index("?") if "?" in best else length
    return KneadingSequence(best, cert)


def feigenbaum_word(depth: int) -> str:
    """W_depth, the itinerary of P(0), ..., P^(2^depth - 1)(0) at the
    period-2^depth doubling centre: W_1 = L, W_{k+1} = W_k s_k W_k with
    s_k = R, L, R, L, ...; each is a prefix of the kneading of c_F."""
    w = "L"
    for k in range(1, depth):
        w = w + "RL"[(k - 1) % 2] + w
    return w


def _symbols(steps, q: int | None):
    """Symbols of P(0), P^2(0), ... off the int pairs steps of _critical_ints
    (0 first): C at multiples of the known critical period q, else L, R or
    '?'."""
    for k, (lo, hi) in enumerate(islice(steps, 1, None), 1):
        yield "C" if q and k % q == 0 else _SYMBOL[(lo > 0) - (hi < 0)]


def _order(u, v) -> int | None:
    """sign(x - y) for points with itineraries u, v over L, C, R: at the
    first a != b, sign(a - b) (L < C < R) times (-1)^(number of L before
    it), as P is decreasing left of 0.  0 when u meets '?' first, None when
    either runs out first: a prefix too short to decide is never an answer."""
    parity = 1
    for a, b in zip(u, v):
        if a == "?":
            return 0
        if a != b:
            return parity if _VALUE[a] > _VALUE[b] else -parity
        parity *= _VALUE[a]
    return None


def kneading_order(x: Dyadic, word, p: int) -> int:
    """sign(x - c) for the c whose kneading sequence begins with word, an
    iterable of the symbols of P(0), P^2(0), ..., at working precision p.

    Kneading is monotone in c (Milnor-Thurston): the first certified symbol
    of the orbit of x that leaves the word decides, by _order.  0 when an
    enclosure straddles 0 first; OracleFault when the orbit follows the
    whole word."""
    s = _order(_symbols(_critical_ints(Interval.point(x), p)[1], None),
               word)
    if s is None:
        raise OracleFault(f"the itinerary of {x} follows the whole "
                          f"kneading word")
    return s


def window_left_word(A: str):
    """Iterator over A t (A t')^oo, the left end's kneading of the window
    whose centre has the itinerary A of P(0), ..., P^(n-1)(0); t = R when A
    holds an odd number of L, else L, and t' is the other symbol."""
    if "?" in A:
        raise OracleFault(f"centre itinerary {A} is not certified")
    t, t_bar = _tails(A)
    return chain(A, t, cycle(A + t_bar))


def _tails(A: str) -> tuple:  # (t, t'), as in window_left_word
    return ("R", "L") if A.count("L") % 2 else ("L", "R")


# ---------------------------------------------------------------------------
# Renormalization detection and combinatorial type

@dataclass(frozen=True)
class CombinatorialType:
    """Permutation of the renormalization cycle in real-line order.

    Intervals are indexed 1..n in descending real order (rightmost = 1);
    perm[i-1] is the index of the interval that interval i maps into.
    """

    period: int
    perm: tuple

    def is_single_cycle(self) -> bool:
        seen, i = set(), 1
        for _ in range(self.period):
            if i in seen:
                return False
            seen.add(i)
            i = self.perm[i - 1]
        return i == 1 and len(seen) == self.period


@dataclass
class RenormCert:
    period: int
    J: Interval  # [-j, j], j just inside the pullback's fixed point b
    images: list  # TrackedInterval, images[k] = f^k(J), k = 0..period
    tau: CombinatorialType
    precision: int


def _cycle_type(tracked: list) -> CombinatorialType | None:
    """Type of the cycle J_{i0} -> J_{i1} -> ... -> J_{i0} in real order,
    or None if the order is not certified."""
    n = len(tracked)
    order = sorted(range(n), key=lambda i: -float(tracked[i].outer().mid()))
    for a, b in zip(order, order[1:]):
        if not tracked[b].certainly_precedes(tracked[a]):
            return None
    return _order_type(order)


def _order_type(order: list) -> CombinatorialType:
    """Type of the cycle 0 -> 1 -> ... -> 0 with points order, right first."""
    rank = {i: r + 1 for r, i in enumerate(order)}
    return CombinatorialType(len(order),
                             tuple(rank[(i + 1) % len(order)] for i in order))


def _renorm_images(J: Interval, n: int, c: Interval, p: int) -> list | None:
    """f^0(J)..f^n(J), exact ends, when J is a symmetric_trap of P^n and
    f^0(J)..f^(n-1)(J) have disjoint interiors; None otherwise."""
    trap = symmetric_trap(J.hi, c, n, p)
    if trap is None:
        return None
    q, chain = trap
    ends = sorted(chain[:n])
    if any(a[1] > b[0] for a, b in zip(ends, ends[1:])):
        return None
    return [TrackedInterval.from_exact(Dyadic(lo, -q), Dyadic(hi, -q))
            for lo, hi in chain]


def detect_renormalization(o: ParamOracle, max_period: int,
                           ledger: QueryLedger | None = None) -> RenormCert | None:
    """Smallest certified renormalization of period <= max_period.

    The parse (locate_window) certifies the smallest window around c and
    the itinerary B of its centre; the images certify the renormalization
    of its period n = len(B) + 1: a symmetric dyadic J = [-j, j], j just
    inside the end b of _renorm_end (one read of c per rung), with f^n(J)
    strictly inside J and the n images disjoint in their interiors.  None
    when no window is named or nothing certifies up to 512 bits.
    """
    words, _ = locate_window(o, max_period, ledger)
    if not words:
        return None
    n, signs = len(words[0]) + 1, [_VALUE[s] for s in words[0]]
    for p in ladder(64, 512):
        c = o.enclosure(p, ledger)
        try:
            b = _renorm_end(c, signs, p)
        except _Undecided:
            continue
        for s in range(3, max(4, p // 2), 2):
            j = b - b.scale2(-s)
            imgs = _renorm_images(Interval(-j, j), n, c, p)
            tau = imgs and _cycle_type(imgs[:n])
            if tau and tau.is_single_cycle():
                return RenormCert(n, Interval(-j, j), imgs, tau, p)
    return None


def _renorm_end(c: Interval, signs: list, p: int) -> Dyadic:
    """Near the b > 0 with P^n(b) = sigma b (n = len(signs) + 1, sigma the
    product of signs), the fixed point of _pullback along signs: Aitken
    steps on ints at 2^-q from just below |alpha| and each |P^k(0)|,
    0 < k < n (J's interior holds none), to a step under 2^(-3p/4), well
    inside J's margins b 2^-s, s < p/2.  A guess, as the images certify J;
    a start outside the pullback's domain raises _Undecided."""
    q = fixed_read(p, c)[0]
    ends = [_alpha(c, p), *_critical_enclosures(c, len(signs), p)[1:]]
    y = min(e.mig() for e in ends).scale2(q).floor_int() - (1 << (q - p // 2))

    def pull(t: int) -> int:  # the low end of the pullback of t 2^-q
        return fixed_read(q, _pullback(from_fixed(t, t, q), c, signs, p))[1][0]
    for _ in range(64):  # by a saddle node P^n barely repels
        t0, t1 = y, pull(y)
        t2 = pull(t1)
        d = t2 - 2 * t1 + t0
        y = t0 - (t1 - t0) ** 2 // d if d else t2
        if y <= 0:
            raise _Undecided("the end of J")
        if abs(y - t0) < 1 << (q - 3 * p // 4):
            break
    return Dyadic(y, -q)


# ---------------------------------------------------------------------------
# The window tower, parsed from the kneading sequence

_PREFIX_CAP = 4096  # symbols read off one enclosure of c
_HALF_NEG = Dyadic(-1, -1)


def _admissible(B: str) -> bool:
    """True when a centre has the itinerary B: every shift of (B C)^oo lies
    right of P(0), the minimum of P (Metropolis, Stein & Stein 1973)."""
    w = (B + "C") * 2
    return all(_order(w[j:], w) == 1 for j in range(1, len(B) + 1))


def itinerary_type(B: str) -> CombinatorialType:
    """Type of the cycle 0, P(0), ... of the centre with itinerary B: its
    points have the rotations of C B as itineraries."""
    its = [("C" + B)[k:] + ("C" + B)[:k] for k in range(len(B) + 1)]
    return _order_type(sorted(range(len(its)), key=cmp_to_key(
        lambda i, j: _order(its[j], its[i]))))


def _parse(K: str, depth: int, max_period: int, max_relative: int) -> tuple:
    """(words, decided, candidate): window_tower on the certified kneading
    prefix K.  A comparison that runs out leaves the parse undecided and
    names its word B the candidate: on the plateau between a centre and
    its right end the kneading is that end's (B t')^oo."""
    words, period = [], 1
    while len(words) < depth:
        for q in range(2, min(max_relative, max_period // period) + 1):
            B = K[:q - 1]
            if "C" in B:  # a centre of smaller period: in no window of q
                return words, True, None
            if len(B) < q - 1:
                return words, False, None
            t, t_bar = _tails(B)
            left = _order(K, window_left_word(B))
            right = _order(K, cycle(B + t_bar))
            if left == -1 or right == 1 or not _admissible(B):
                continue
            if None in (left, right):
                return words, False, B
            break
        else:
            return words, True, None
        words.append(B)
        period *= q
        K = "".join({t: "L", t_bar: "R", "C": "C"}[s] for s in K[q - 1::q])
    return words, True, None


def _star(A: str, B: str) -> str:
    """The itinerary of the centre of the window B inside the window A,
    A x_1' A x_2' ... A with x' = t for L and t' for R: _parse's de-starring
    undone."""
    t, t_bar = _tails(A)
    return "".join(A + (t if x == "L" else t_bar) for x in B) + A


def window_tower(o: ParamOracle, depth: int, max_period: int,
                 max_relative: int, ledger: QueryLedger | None = None,
                 p_cap: int = PRECISION_CAP) -> tuple:
    """(words, decided, candidate): the relative itineraries of up to depth
    nested windows around c (relative periods <= max_relative, periods <=
    max_period), each the smallest, whether the parse ended certified, and
    the candidate word that the last parse named where a comparison ran
    out (_parse), else None.

    The window of the centre with itinerary B holds the c with kneading
    B * X = B x_1' B x_2' ..., x' = t for L, t' for R (Derrida, Gervois &
    Pomeau 1978), between its ends' B t (B t')^oo and (B t')^oo; kneading
    is monotone in c (Milnor-Thurston: the trust base of the Feigenbaum
    point and the left ends too).  For each q the one candidate is
    B = K(c)[:q-1], if admissible; de-starring by B gives the next level.

    K(c) comes from one query at m = 8, 12, 18, 27, ... (m += m // 2, up to
    min(p_cap, 4096)), worked at max(64, 4m) bits and read 64, 512, then
    4096 symbols long, to the first length the parse decides (an orbit
    attracted to a cycle never blurs).  m climbs only when a comparison ran
    out at an undecided symbol (never read as outside): doubling would
    jump from 16 to 32, past the m = 30 the Feigenbaum oracle answers,
    while its depth 5 needs m = 20.  4096 symbols still undecided end the
    tower: c is in, or too near, a hyperbolic component whose kneading is
    an end word.  After an oracle fault, the levels certified at the last m
    it answered stand.  A bracket certified outside [-2, 1/4] raises
    ParameterRangeError.  A bracket on which the closed form of the fixed
    point's multiplier (_alpha) certifies 2 alpha > -1 is in no window:
    ([], True, None) before any symbol, which spares the main cardioid
    the 4096 symbols of L^oo but for the c within about 2^-6 of -3/4.
    """
    words, decided, B, m = [], False, None, 8
    while m <= min(p_cap, _PREFIX_CAP):
        try:
            c = check_range(o.enclosure(m, ledger))
        except OracleFault:
            break
        if _alpha(c, max(64, 4 * m)).lo > _HALF_NEG:
            return [], True, None  # 2 alpha > -1: c > -3/4, in no window
        symbols, K = takewhile("?".__ne__, _symbols(
            _critical_ints(c, max(64, 4 * m))[1], o.known_critical_period)), ""
        for length in (64, 512, _PREFIX_CAP):
            K += "".join(islice(symbols, length - len(K)))
            words, decided, B = _parse(K, depth, max_period, max_relative)
            if decided or len(K) < length:
                break
        if decided or len(K) == _PREFIX_CAP:
            break
        m += m // 2
    return words, decided, B


def locate_window(o: ParamOracle, max_period: int,
                  ledger: QueryLedger | None = None) -> tuple:
    """(words, decided): window_tower at depth 1; where it is undecided
    with a candidate B (c's kneading is B's right end word, as at -7/8:
    L^oo), the period of a certified attracting cycle decides.  Period
    len(B) + 1 puts c in B's window: the cycle's hyperbolic component lies
    in the window of its centre, whose itinerary is the kneading prefix B,
    and the parse ruled out every smaller period.  Period 1 puts c in the
    main cardioid, in no window."""
    words, decided, B = window_tower(o, 1, max_period, max_period, ledger)
    if decided:
        return words, decided
    try:  # one 64-bit read: a parabolic c would climb to the cap
        cert = certify_attracting_cycle(o, max_period, ledger, p_cap=64)
    except OracleFault:
        cert = None  # the oracle cannot reach the cycle's precision
    period = cert and cert.period
    if B is not None and period == len(B) + 1:
        return [B], True
    if period == 1:
        return [], True
    return words, decided


# ---------------------------------------------------------------------------
# Principal nest

@dataclass
class NestRecord:
    levels: list  # TrackedInterval, levels[0] = I^0 = [alpha, -alpha]
    return_iterates: list  # return_iterates[m] realizes g_m; [0] is None
    noncentral_levels: list
    closed: bool  # first-return construction closed (renormalization reached)
    truncated: bool  # stopped by precision/budget rather than by the dynamics
    precision: int
    param_enclosure: Interval | None = None

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _membership(enc: Interval, t: TrackedInterval) -> int:
    """+1 certainly inside, -1 certainly outside, 0 undecided."""
    if t.certainly_contains_iv(enc):
        return 1
    if t.certainly_excludes_iv(enc):
        return -1
    return 0


class _NestStop(Exception):
    """Level construction terminated by the dynamics (no deeper level)."""


_MAX_RETURN = 256  # the latest first return a nest level looks for


def _alpha(c: Interval, p: int) -> Interval:
    """alpha = (1 - sqrt(1 - 4c)) / 2, the fixed point at I^0's end, over
    c by outward isqrt on ints at one scale 2^-q, q >= p, as _pullback."""
    q, (cl, ch) = fixed_read(p, c)
    one = 1 << q
    lo = one - 1 - isqrt(max(0, ((one - 4 * cl) << q) - 1))
    hi = one - isqrt(max(0, one - 4 * ch) << q)
    return from_fixed(lo >> 1, -(-hi >> 1), q)


def _pullback(b: Interval, c: Interval, signs: list, p: int) -> Interval:
    """Enclosure of the x >= 0 with P^t(x) = sigma b whose itinerary is
    signs: signs[j - 1] = sign P^j(x) for j = 1..t-1, sigma their product.

    From y_t = sigma b, each step y_j = s_j sqrt(y_(j+1) - c) (s_0 = +1) is
    monotone in y and in c, so floor and ceil of isqrt on int pairs at one
    scale 2^-q, q >= p, enclose x over the enclosures b and c.  A radicand
    not certified > 0 raises _Undecided.
    """
    q, (yl, yh), (cl, ch) = fixed_read(p, b, c)
    if prod(signs) < 0:
        yl, yh = -yh, -yl
    for s in reversed([1] + signs):
        rl, rh = yl - ch, yh - cl
        if rl <= 0:
            raise _Undecided("radicand of the pullback")
        lo, hi = isqrt(rl << q), 1 + isqrt((rh << q) - 1)
        yl, yh = (lo, hi) if s > 0 else (-hi, -lo)
    return from_fixed(yl, yh, q)


def _orbit_reader(c: Interval, n: int, p: int):
    """orbit(k): P^k(0) over c, _critical_enclosures(c, n, p)[k], built from
    the ints on first read; None past n or past an escape."""
    q, steps = _critical_ints(c, p)
    steps, read = islice(steps, n + 1), []

    def orbit(k: int) -> Interval | None:
        read.extend(from_fixed(lo, hi, q)
                    for lo, hi in islice(steps, max(0, k + 1 - len(read))))
        return read[k] if k < len(read) else None
    return orbit


def _build_level(o: ParamOracle, c: Interval, p: int, prev: TrackedInterval,
                 orbit):
    """One nest level: (return iterate t, I^m, central flag, closed flag),
    orbit an _orbit_reader of c.

    I^m = [-x, x], x the end of the component of P^-t(prev) around 0, t the
    first return of 0 to prev = [-b, b].  P^j(0) lies outside prev for
    0 < j < t, so P^t is monotone on [0, x], and x is the pullback of an
    end of prev along the signs of P^j(0).  x inside (0, b) is a level; at
    or beyond b with t the known critical period the nest closes; certified
    beyond b there is no deeper level; anything else is undecided.
    """
    for t in count(1):
        y = orbit(t)
        if y is None:
            raise _NestStop
        m = _membership(y, prev)
        if m == 1:
            break
        if m == 0:
            raise _Undecided(f"return membership at step {t}")
    b = prev.hi
    x = _pullback(b, c, [iv_sign(orbit(j)) for j in range(1, t)], p)
    closes = t == o.known_critical_period
    if ZERO < x.lo and x.hi < b.lo:
        level = TrackedInterval(-x, x)
        if closes:
            return t, level, True, True
        m = _membership(orbit(t), level)
        if m == 0:
            raise _Undecided("centrality test")
        return t, level, m == 1, False
    if closes and not x.hi < b.lo:
        # the central component fills prev up to enclosure slack, and the
        # return realizes the renormalization itself
        return t, prev, True, True
    if b.hi < x.lo:
        raise _NestStop
    raise _Undecided("level end near the last level's end")


def principal_nest(o: ParamOracle, max_depth: int,
                   ledger: QueryLedger | None = None) -> NestRecord:
    """Principal nest I^0 of [alpha, -alpha] and its first-return levels.

    Levels are built until max_depth, until the construction closes on a
    renormalization, or until the dynamics admits no deeper central
    component; where the closed form (_alpha) certifies 2 alpha > -1, c is
    in the main cardioid and I^0 is the only level.  Precision escalates on
    undecided tests; running out, or an oracle fault, marks the record
    truncated at the precision it reached; a bracket certified outside
    [-2, 1/4] raises ParameterRangeError.
    """
    for p in ladder():
        try:
            return _nest_at_precision(o, p, max_depth, ledger)
        except _Undecided:
            pass
        except OracleFault:
            break
    return NestRecord([], [None], [], False, True, p)


def _nest_at_precision(o: ParamOracle, p: int, max_depth: int,
                       ledger) -> NestRecord:
    """The nest at working precision p from one read of c, to max_depth."""
    c = check_range(o.enclosure(p, ledger))
    alpha = _alpha(c, p)
    nest = NestRecord([], [None], [], False, False, p, c)
    if not alpha.hi < ZERO:
        return nest
    nest.levels.append(TrackedInterval(alpha, -alpha))
    if alpha.lo > _HALF_NEG:
        return nest  # 2 alpha > -1: c > -3/4, no level below I^0
    orbit = _orbit_reader(c, _MAX_RETURN, p)
    while not nest.closed and nest.depth < max_depth:
        try:
            t, level, central, nest.closed = _build_level(
                o, c, p, nest.levels[-1], orbit)
        except _NestStop:
            break
        nest.levels.append(level)
        nest.return_iterates.append(t)
        if not central:
            nest.noncentral_levels.append(nest.depth)
    return nest


# ---------------------------------------------------------------------------
# Cascades

@dataclass
class CascadeInfo:
    start_level: int  # m(k)
    end_level: int  # m(k+1)
    saddle_node: bool | None  # None = undecided at this precision
    depth_bound: int | None  # d_k; None when a membership was undecided
    neglectable_levels: range = field(default_factory=lambda: range(0))


def cascades(nest: NestRecord, postcritical: list) -> list:
    """Cascade decomposition of the nest with certified saddle-node flags.

    postcritical: orbit enclosures of 0 (index i holds P^i(0)); it must be
    long enough that every first return used below stays in range.
    """
    if nest.depth <= 0:
        return []
    c = nest.param_enclosure
    p = nest.precision
    ms = [0] + list(nest.noncentral_levels)
    out = []
    for k in range(len(ms) - 1):
        mk, mk1 = ms[k], ms[k + 1]
        inner = nest.levels[mk + 1]
        t = nest.return_iterates[mk + 1]
        img = inner
        for _ in range(t):
            img = img.image(c, p)
        if img.certainly_excludes_point(ZERO):
            sn = True
        elif img.certainly_contains_point(ZERO):
            sn = False
        else:
            sn = None
        dk = _depth_bound(nest, postcritical, mk, mk1)
        negl = range(0)
        if sn and dk is not None and mk + dk + 1 < mk1 - dk:
            negl = range(mk + dk + 1, mk1 - dk)
        out.append(CascadeInfo(mk, mk1, sn, dk, negl))
    return out


def _depth_bound(nest: NestRecord, postcritical: list, mk: int,
                 mk1: int) -> int | None:
    """d_k = max depth d(x) over postcritical x in I^{m(k)} \\ I^{m(k)+1}."""
    best = 0
    for i in range(1, len(postcritical)):
        x = postcritical[i]
        in_outer = _membership(x, nest.levels[mk])
        in_inner = _membership(x, nest.levels[mk + 1])
        if in_inner == 1 or in_outer == -1:
            continue  # certainly not in the annulus
        if in_outer == 0 or in_inner == 0:
            return None  # might be in the annulus: flag unknown

        # first return of x to I^{m(k)}
        s = None
        for step in range(1, len(postcritical) - i):
            m = _membership(postcritical[i + step], nest.levels[mk])
            if m == 1:
                s = step
                break
            if m == 0:
                return None
        if s is None:
            return None
        y = postcritical[i + s]
        j = mk
        for l in range(mk + 1, min(mk1, nest.depth) + 1):
            m = _membership(y, nest.levels[l])
            if m == 1:
                j = l
            elif m == -1:
                break
            else:
                return None
        best = max(best, max(0, min(j - mk, mk1 - j)))
    return best


# ---------------------------------------------------------------------------
# Essential period

@dataclass
class EssentialData:
    period: int  # p: period of J = I^{m(kappa)+1}
    essential_period: int
    neglectable: list  # bool per J_i
    reduced: CombinatorialType  # permutation after deleting neglectable J_i
    full: CombinatorialType | None
    cascade_list: list
    nest: NestRecord


def essential_structure(o: ParamOracle, ledger: QueryLedger | None = None,
                        max_depth: int = 64,
                        p_cap: int = PRECISION_CAP) -> EssentialData | None:
    """Renormalization cycle of J = I^{m(kappa)+1} with neglectability data.

    Neglectability follows the cascade rule: an interval certified inside a
    neglectable annulus I^l \\ I^{l+1} of a saddle-node cascade is
    neglectable, and intervals between two consecutive nest visits inherit
    the assignment of the visit that starts their block (the orbit transport
    of the annulus).  Returns None when anything stays undecided at the cap
    or the oracle faults.
    """
    for p in ladder(64, p_cap):
        try:
            return _essential_at(o, ledger, max_depth, p)
        except _Undecided:
            pass
        except OracleFault:
            break
    return None


def _essential_at(o: ParamOracle, ledger, max_depth: int,
                  p: int) -> EssentialData | None:
    nest = _nest_at_precision(o, p, max_depth, ledger)
    if not nest.closed:
        return None
    c = nest.param_enclosure
    mker = nest.noncentral_levels[-1] if nest.noncentral_levels else 0
    period, cycle = nest.return_iterates[mker + 1], [nest.levels[mker + 1]]
    while len(cycle) < period:  # the period of J is its first return
        cycle.append(cycle[-1].image(c, p))
    postcritical = _critical_enclosures(c, 2 * period + 2, p)
    casc = cascades(nest, postcritical)
    if any(ci.saddle_node is None or ci.depth_bound is None for ci in casc):
        raise _Undecided("cascade flags")
    negl_levels = set()
    for ci in casc:
        if ci.saddle_node:
            negl_levels.update(ci.neglectable_levels)
    # own annulus assignment per cycle interval, then block inheritance
    own = [None] * period  # "center", annulus level int, or None (inherit)
    own[0] = "center"
    for i in range(1, period):
        lvl = None
        ambiguous = False
        for l in range(nest.depth + 1):
            if cycle[i].certainly_inside(nest.levels[l]):
                lvl = l
            else:
                # not certified inside; if also not certainly apart, the
                # annulus could be l-1 or deeper
                ambiguous = not cycle[i].interiors_certainly_disjoint(
                    nest.levels[l])
                break
        if ambiguous and negl_levels:
            # escalate unless every unresolved depth agrees on
            # neglectability; otherwise the answer could depend on it
            lo = lvl if lvl is not None else 0
            stats = {m in negl_levels for m in range(lo, nest.depth + 1)}
            if lvl is None or len(stats) > 1:
                raise _Undecided(f"annulus assignment of J_{i}")
        if lvl is not None:
            own[i] = lvl
    negl = [False] * period
    carry = "center"
    for i in range(period):
        if own[i] is not None:
            carry = own[i]
        negl[i] = isinstance(carry, int) and carry in negl_levels
    survivors = [i for i in range(period) if not negl[i]]
    reduced = _cycle_type([cycle[i] for i in survivors])
    full = _cycle_type(cycle)
    if reduced is None:
        raise _Undecided("reduced ranking")
    return EssentialData(period, len(survivors), negl, reduced, full,
                         casc, nest)


def essential_period(o: ParamOracle, ledger: QueryLedger | None = None,
                     max_depth: int = 64) -> int | None:
    """p_e(f): non-neglectable intervals in the renormalization cycle."""
    data = essential_structure(o, ledger, max_depth)
    return None if data is None else data.essential_period
