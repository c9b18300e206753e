"""Reference computations written apart from qal.

Every check the benchmark makes on a qal answer rests on this module. It
imports nothing from qal: rationals are `fractions.Fraction`, square roots
come from `math.isqrt`, and orbits are carried as integer intervals at the
fixed scale 2^-SCALE with floor/ceil rounding, so every box is a rigorous
enclosure.  A check returns an error string, or None when the answer holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

SCALE = 256  # fixed-point bits of the reference interval arithmetic
FEIGENBAUM_POINT = Fraction("-1.4011551890920506")  # period-doubling limit
# Real primitive superstable centres of period q (Metropolis-Stein-Stein).
PRIMITIVE_CENTRES = {3: 1, 4: 2, 5: 3, 6: 5}


# ---------------------------------------------------------------------------
# Fixed-point intervals: (lo, hi) integers standing for [lo, hi] * 2^-SCALE

def fix(q: Fraction) -> tuple:
    """Tightest fixed-point interval containing the rational q."""
    lo = (q.numerator << SCALE) // q.denominator
    hi = -((-q.numerator << SCALE) // q.denominator)
    return lo, hi


def fix_hull(lo: Fraction, hi: Fraction) -> tuple:
    return fix(lo)[0], fix(hi)[1]


def _square(box: tuple) -> tuple:
    lo, hi = box
    a, b = lo * lo, hi * hi
    top = -((-max(a, b)) >> SCALE)
    if lo <= 0 <= hi:
        return 0, top
    return min(a, b) >> SCALE, top


def quad_step(x: tuple, c: tuple) -> tuple:
    """Enclosure of {v^2 + w : v in x, w in c}."""
    s = _square(x)
    return s[0] + c[0], s[1] + c[1]


def sign(box: tuple) -> int:
    """+1 or -1 when the box excludes 0, else 0."""
    return 1 if box[0] > 0 else -1 if box[1] < 0 else 0


def critical_orbit(c: tuple, steps: int) -> list:
    """Boxes of P_c^i(0), i = 0..steps, over the parameter box c."""
    xs = [(0, 0)]
    for _ in range(steps):
        xs.append(quad_step(xs[-1], c))
    return xs


def q_sign(c: Fraction, q: int) -> int:
    """Certified sign of Q_q(c) = P_c^q(0), or 0."""
    return sign(critical_orbit(fix(c), q)[q])


def return_sign(w: Fraction, c: Fraction, q: int) -> int:
    """Certified sign of P_c^q(w) - w, or 0."""
    x = fix(w)
    cc = fix(c)
    for _ in range(q):
        x = quad_step(x, cc)
    wl, wh = fix(w)
    return sign((x[0] - wh, x[1] - wl))


# ---------------------------------------------------------------------------
# Closed forms

def sqrt_bracket(v: Fraction, bits: int = 160) -> tuple:
    """Rationals lo <= sqrt(v) <= hi with hi - lo = 2^-bits (v >= 0)."""
    r = isqrt((v.numerator << (2 * bits)) // v.denominator)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def fixed_point_alpha(c: Fraction) -> tuple:
    """Bracket of alpha = (1 - sqrt(1 - 4c))/2, the left fixed point."""
    s_lo, s_hi = sqrt_bracket(1 - 4 * c)
    return (1 - s_hi) / 2, (1 - s_lo) / 2


def two_cycle(c: Fraction) -> list:
    """Brackets of the 2-cycle (-1 -+ sqrt(-3 - 4c))/2, for c < -3/4."""
    s_lo, s_hi = sqrt_bracket(-3 - 4 * c)
    return [((-1 - s_hi) / 2, (-1 - s_lo) / 2),
            ((-1 + s_lo) / 2, (-1 + s_hi) / 2)]


def contract_bracket(answer: Fraction, m: int) -> tuple:
    """The c bracket the oracle contract promises for a precision-m answer."""
    slack = Fraction(1, 1 << (m - 1))
    return answer - slack, answer + slack


# ---------------------------------------------------------------------------
# Checks of certified answers

def check_cycle_points(c: Fraction, q: int, n: int, points: list):
    """Points of an attracting q-cycle of the exact parameter c, to 2^-n.

    Periods 1 and 2 compare with the closed forms in both directions.  For
    q = 3 and 4 each point must see P^q(w) - w fall through zero within
    2^-n (a root where (P^q)' < 1).  In the period-3 and period-4 windows
    the only such roots are the attracting cycle and, for q = 3, the fixed
    point alpha; with pairwise disjoint search boxes that miss alpha, the
    points meet every cycle point, so the Hausdorff bound holds both ways.
    """
    if len(points) != q:
        return f"{len(points)} points for a period-{q} cycle"
    tol = Fraction(1, 1 << n)
    if q in (1, 2):
        truth = [fixed_point_alpha(c)] if q == 1 else two_cycle(c)
        for lo, hi in truth:
            if not any(max(abs(y - lo), abs(y - hi)) < tol for y in points):
                return f"cycle point in [{float(lo)}, {float(hi)}] missed"
        for y in points:
            if not any(max(abs(y - lo), abs(y - hi)) < tol for lo, hi in truth):
                return f"point {y} is not within 2^-{n} of the cycle"
        return None
    ys = sorted(points)
    for a, b in zip(ys, ys[1:]):
        if b - a <= 2 * tol:
            return f"search boxes of {a} and {b} overlap"
    a_lo, a_hi = fixed_point_alpha(c)
    for y in ys:
        if y - tol <= a_hi and a_lo <= y + tol:
            return f"point {y} is within 2^-{n} of the fixed point"
        left, right = return_sign(y - tol, c, q), return_sign(y + tol, c, q)
        if not (left == 1 and right == -1):
            return f"no falling zero of P^{q}(w) - w within 2^-{n} of {y}"
    return None


def check_center_bracket(c_lo: Fraction, c_hi: Fraction, q: int):
    """Q_q = P_c^q(0) changes sign across [c_lo, c_hi]."""
    a, b = q_sign(c_lo, q), q_sign(c_hi, q)
    if a == 0 or b == 0 or a == b:
        return f"Q_{q} signs {a}, {b} across the bracket"
    return None


def eps_visits(c_lo: Fraction, c_hi: Fraction, n: int) -> list:
    """I^0 = [alpha, -alpha] visits of the eps_n critical cycle.

    The orbit box of P^i(0), i < 3n + 2, is taken over the whole parameter
    bracket.  Raises ValueError when a membership is undecided, when the
    visits are not 0, 3, ..., 3n, or when P^{3n+2}(0) misses 0.
    """
    period = 3 * n + 2
    alpha_lo = fixed_point_alpha(c_lo)[0]
    alpha_hi = fixed_point_alpha(c_hi)[1]
    inner = fix(-alpha_hi)[0]  # |x| < inner: certainly inside I^0
    outer = fix(-alpha_lo)[1]  # |x| > outer: certainly outside
    orbit = critical_orbit(fix_hull(c_lo, c_hi), period)
    visits = []
    for i, (lo, hi) in enumerate(orbit[:period]):
        mag = max(-lo, hi)
        if mag < inner:
            visits.append(i)
        elif not (lo > outer or hi < -outer):
            raise ValueError(f"eps_{n}: I^0 membership of P^{i}(0) undecided")
    if visits != list(range(0, period - 1, 3)):
        raise ValueError(f"eps_{n}: I^0 visits {visits}")
    if sign(orbit[period]) != 0:
        raise ValueError(f"eps_{n}: P^{period}(0) box misses 0")
    return visits


def essential_period_candidates(visits: list, period: int) -> set:
    """Every p_e the block rule allows for a cycle with these I^0 visits.

    Blocks run from one visit to the next and inherit the visit's level.
    The block of J_0 is central and kept; a block whose return time differs
    from that of 0 sits at level 0 and is kept; any other block may be
    neglectable, so each one adds its size optionally.
    """
    bounds = visits + [period]
    blocks = [(v, w - v) for v, w in zip(bounds, bounds[1:])]
    first_return = blocks[0][1]
    kept = sum(size for v, size in blocks if v == 0 or size != first_return)
    out = {kept}
    for v, size in blocks:
        if v != 0 and size == first_return:
            out |= {pe + size for pe in out}
    return out


def check_essential_period(pe, candidates: set):
    """p_e among the itinerary's candidates, and equal to their least.

    The least candidate is the p_e of eps_1 (its only candidate, 5), and
    the eps_n are essentially equivalent, so p_e may not grow with n.
    """
    if pe not in candidates or pe != min(candidates):
        return f"p_e = {pe}, candidates {sorted(candidates)}"
    return None


def check_unimodal_cycle(period: int, perm: tuple, expected_period: int):
    """perm is one cycle of length period that rises to `period`, then falls.

    Intervals are numbered 1..p from the right.  x^2 + c reverses order
    left of 0 and keeps it right of 0, and the central interval maps onto
    the leftmost one, so the sequence perm[0..p-1] increases up to its
    maximum p and decreases after it.
    """
    if period != expected_period or len(perm) != period:
        return f"type {perm} of period {period}, expected {expected_period}"
    seen, i = set(), 1
    for _ in range(period):
        seen.add(i)
        i = perm[i - 1]
    if i != 1 or len(seen) != period:
        return f"type {perm} is not a single cycle"
    top = perm.index(period)
    rising = all(a < b for a, b in zip(perm[:top], perm[1:top + 1]))
    falling = all(a > b for a, b in zip(perm[top:], perm[top + 1:]))
    if not (rising and falling):
        return f"type {perm} is not unimodal"
    return None


def check_window3(left: tuple, right: tuple):
    """Period-3 window: the right end holds -7/4; Q_9 - Q_6 changes sign
    across the left end."""
    if not right[0] <= Fraction(-7, 4) <= right[1]:
        return f"right endpoint [{float(right[0])}, {float(right[1])}] misses -7/4"
    signs = []
    for c in left:
        orbit = critical_orbit(fix(c), 9)
        signs.append(sign((orbit[9][0] - orbit[6][1], orbit[9][1] - orbit[6][0])))
    if 0 in signs or signs[0] == signs[1]:
        return f"Q_9 - Q_6 signs {signs} across the left endpoint"
    return None


def check_feigenbaum(answer: Fraction, m: int):
    lo, hi = contract_bracket(answer, m)
    if not lo < FEIGENBAUM_POINT < hi:
        return f"bracket [{float(lo)}, {float(hi)}] misses {float(FEIGENBAUM_POINT)}"
    return None


# ---------------------------------------------------------------------------
# Pixels

class Attractor:
    """A reference attractor: fixed-point boxes, one per attractor point,
    or the whole interval [-2, 2] (interval=True)."""

    def __init__(self, boxes: list, interval: bool = False):
        self.boxes = boxes
        self.interval = interval

    @classmethod
    def from_brackets(cls, brackets: list) -> "Attractor":
        return cls([fix_hull(lo, hi) for lo, hi in brackets])

    def distance_bounds(self, x: int) -> tuple:
        """(lower, upper) on dist(x * 2^-SCALE, A), in units of 2^-SCALE."""
        if self.interval:
            d = max(0, abs(x) - (2 << SCALE))
            return d, d
        lower = upper = None
        for lo, hi in self.boxes:
            near = lo - x if x < lo else x - hi if x > hi else 0
            far = max(abs(x - lo), abs(x - hi))
            lower = near if lower is None else min(lower, near)
            upper = far if upper is None else min(upper, far)
        return lower, upper


def check_pixels(att: Attractor, n: int, first: int, bits: bytes):
    """The pixel rule: bit 0 needs dist > 2^-n, bit 1 needs dist < 2^(1-n).

    bits[k] is the pixel at (first + k) * 2^-n, 1 meaning near.
    """
    near, far = 1 << (SCALE - n), 2 << (SCALE - n)
    shift = SCALE - n
    for k, bit in enumerate(bits):
        lower, upper = att.distance_bounds((first + k) << shift)
        if bit == 0 and not lower > near:
            return f"pixel {first + k} is 0 at distance <= 2^-{n}"
        if bit == 1 and not upper < far:
            return f"pixel {first + k} is 1 at distance >= 2^{1 - n}"
    return None
