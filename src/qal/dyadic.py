"""Exact dyadic arithmetic and intervals, and rounded loops on ints.

Every certified computation in this package bottoms out here: a Dyadic is an
exact binary rational m * 2^e with unbounded integer mantissa, and an Interval
is a pair of Dyadics enclosing a real value.  Both are exact; rounding, to a
stated absolute granule 2^-m, runs on int pairs at one scale, as in Arb.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

DOWN = "down"
UP = "up"
NEAREST = "nearest"


class Dyadic:
    """Exact binary rational: value = man * 2^exp, man odd or zero.

    Canonical form (odd mantissa, zero has exponent 0) makes equality
    structural, so Dyadics are hashable and comparisons in hot loops stay
    cheap.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if man == 0:
            exp = 0
        else:
            tz = (man & -man).bit_length() - 1
            if tz:
                man >>= tz
                exp += tz
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *a):
        raise AttributeError("Dyadic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "Dyadic":
        n, d = float(x).as_integer_ratio()
        return cls(n, -(d.bit_length() - 1))

    @classmethod
    def from_fraction_rounded(cls, q: Fraction, m: int, mode: str = NEAREST) -> "Dyadic":
        """Nearest/directed element of D_m to an arbitrary rational."""
        scaled = q * (1 << m) if m >= 0 else q / (1 << -m)
        n, d = scaled.numerator, scaled.denominator
        quo, rem = divmod(n, d)
        if rem == 0:
            return cls(quo, -m)
        if mode == DOWN:
            pass
        elif mode == UP:
            quo += 1
        elif mode == NEAREST:
            if 2 * rem > d or (2 * rem == d and quo & 1):
                quo += 1
        else:
            raise ValueError(f"bad rounding mode {mode!r}")
        return cls(quo, -m)

    @classmethod
    def parse(cls, s: str) -> "Dyadic":
        """Parse 'm*2^e', an integer, or an exactly-dyadic decimal ('-1.75')."""
        s = s.strip()
        if "*2^" in s:
            man, exp = s.split("*2^")
            return cls(int(man), int(exp))
        if "." in s or "e" in s or "E" in s:
            q = Fraction(s)
            d = cls.from_fraction_rounded(q, 64)
            if d.as_fraction() != q:
                raise ValueError(f"{s!r} is not exactly dyadic at 64 bits; "
                                 f"use m*2^e syntax or pre-round explicitly")
            return d
        return cls(int(s))

    # -- exact ring operations --------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b = self, other
        if a.man == 0:
            return b
        if b.man == 0:
            return a
        e = min(a.exp, b.exp)
        return Dyadic((a.man << (a.exp - e)) + (b.man << (b.exp - e)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b = self, other
        if b.man == 0:
            return a
        if a.man == 0:
            return Dyadic(-b.man, b.exp)
        e = min(a.exp, b.exp)
        return Dyadic((a.man << (a.exp - e)) - (b.man << (b.exp - e)), e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.man * other.man, self.exp + other.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.man, self.exp - 1)

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2^k."""
        return Dyadic(self.man, self.exp + k)

    # -- comparison (exact) ------------------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        # align the mantissas on the smaller exponent; no Dyadic is built
        a, b = self.man, other.man
        k = self.exp - other.exp
        if k > 0:
            a <<= k
        elif k < 0:
            b <<= -k
        return (a > b) - (a < b)

    def __lt__(self, o):
        return self._cmp(o) < 0

    def __le__(self, o):
        return self._cmp(o) <= 0

    def __gt__(self, o):
        return self._cmp(o) > 0

    def __ge__(self, o):
        return self._cmp(o) >= 0

    def __eq__(self, o):
        return isinstance(o, Dyadic) and self.man == o.man and self.exp == o.exp

    def __hash__(self):
        return hash((self.man, self.exp))

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    # -- rounding ----------------------------------------------------------

    def round(self, m: int, mode: str = NEAREST) -> "Dyadic":
        """Round to the grid D_m (granule 2^-m).

        Directed modes bracket the value; nearest lands within 2^-(m+1),
        ties to even.
        """
        shift = -(self.exp + m)
        if shift <= 0 or self.man == 0:
            return self
        quo, rem = divmod(self.man, 1 << shift)
        if rem == 0:
            return Dyadic(quo, -m)
        if mode == DOWN:
            pass
        elif mode == UP:
            quo += 1
        elif mode == NEAREST:
            half = 1 << (shift - 1)
            if rem > half or (rem == half and quo & 1):
                quo += 1
        else:
            raise ValueError(f"bad rounding mode {mode!r}")
        return Dyadic(quo, -m)

    def in_grid(self, m: int) -> bool:
        """True iff self is an element of D_m."""
        return self.man == 0 or self.exp >= -m

    def floor_int(self) -> int:
        if self.exp >= 0:
            return self.man << self.exp
        return self.man >> -self.exp

    def ceil_int(self) -> int:
        if self.exp >= 0:
            return self.man << self.exp
        return -(-self.man >> -self.exp)

    # -- conversion / rendering --------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def __float__(self) -> float:
        # Round to 53 bits first so huge mantissas never overflow float().
        r = self.round(64)
        try:
            return r.man * 2.0 ** r.exp
        except OverflowError:
            return float("inf") if r.man > 0 else float("-inf")

    def __str__(self) -> str:
        return f"{self.man}*2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"


ZERO = Dyadic(0)
ONE = Dyadic(1)
TWO = Dyadic(2)


def dy_min(a: Dyadic, b: Dyadic) -> Dyadic:
    return a if a <= b else b


def dy_max(a: Dyadic, b: Dyadic) -> Dyadic:
    return a if a >= b else b


class Interval:
    """Closed interval [lo, hi] with exact dyadic endpoints.

    Its operations are exact; round_out alone rounds, each endpoint outward
    to the granule 2^-p.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, *a):
        raise AttributeError("Interval is immutable")

    @classmethod
    def point(cls, d: Dyadic) -> "Interval":
        return cls(d, d)

    # -- geometry ----------------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def mid(self) -> Dyadic:
        return (self.lo + self.hi).half()

    def mag(self) -> Dyadic:
        """sup |x| over the interval."""
        return dy_max(abs(self.lo), abs(self.hi))

    def mig(self) -> Dyadic:
        """inf |x| over the interval (0 if the interval straddles 0)."""
        if self.contains_zero():
            return ZERO
        return dy_min(abs(self.lo), abs(self.hi))

    def contains(self, x: Dyadic) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= ZERO <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other: "Interval") -> bool:
        return self.lo < other.lo and other.hi < self.hi

    def disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = dy_max(self.lo, other.lo), dy_min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def hull(self, other: "Interval") -> "Interval":
        return Interval(dy_min(self.lo, other.lo), dy_max(self.hi, other.hi))

    # -- arithmetic (exact unless a precision is given) ---------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def square(self) -> "Interval":
        """Exact {x^2 : x in self}."""
        a2, b2 = self.lo * self.lo, self.hi * self.hi
        if self.contains_zero():
            return Interval(ZERO, dy_max(a2, b2))
        return Interval(dy_min(a2, b2), dy_max(a2, b2))

    def scale2(self, k: int) -> "Interval":
        return Interval(self.lo.scale2(k), self.hi.scale2(k))

    def round_out(self, p: int) -> "Interval":
        return Interval(self.lo.round(p, DOWN), self.hi.round(p, UP))

    def __eq__(self, o):
        return isinstance(o, Interval) and self.lo == o.lo and self.hi == o.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


# ---------------------------------------------------------------------------
# Fixed point, as in Arb: intervals as int pairs at one scale 2^-q through an
# orbit loop.  Floor and ceil at 2^-p, p <= q, of an image ignore its boxing.

def fixed_read(p: int, *xs: Interval) -> tuple:
    """(q, each of xs as an int pair at 2^-q), q the least >= max(p, 0) fitting all."""
    q = max(p, 0)
    for x in xs:
        q = max(q, -x.lo.exp, -x.hi.exp)
    return q, *[(x.lo.man << (x.lo.exp + q), x.hi.man << (x.hi.exp + q))
                for x in xs]


def fixed_box(p: int, box: Interval, *xs: Interval) -> tuple:
    """fixed_read, one bit finer if need be, with the midpoint of box next."""
    q, b, *rest = fixed_read(p, box, *xs)
    if (b[0] ^ b[1]) & 1:
        q, b, *rest = fixed_read(q + 1, box, *xs)
    return q, b, (b[0] + b[1]) >> 1, *rest


def from_fixed(lo: int, hi: int, q: int) -> Interval:
    return Interval(Dyadic(lo, -q), Dyadic(hi, -q))


def fixed_orbit(x: tuple, c: tuple, n: int | None, q: int, p: int,
                d: tuple | None = None, add: int = 0):
    """Yield (lo, hi, d) for x and n steps (no end if n is None) of x' = x^2
    + c, and of d' = 2 x d + add (add 0 or 1) if d is given: int pairs at
    2^-q, q >= max(p, 0), each step the tightest outward enclosure in D_p of
    the last one's image."""
    xl, xh = x
    cl, ch = c[0] << q, c[1] << q  # exact images are at the scale 2^-2q
    a, s, up = add << 2 * q, 2 * q - p, q - p
    yield xl, xh, d
    for _ in count() if n is None else range(n):
        if d:
            m = (d[0] * xl, d[0] * xh, d[1] * xl, d[1] * xh)
            d = ((2 * min(m) + a) >> s) << up, -((-2 * max(m) - a) >> s) << up
        a2, b2 = xl * xl, xh * xh
        sl, sh = (a2, b2) if xl >= 0 else (b2, a2) if xh <= 0 else (0, max(a2, b2))
        xl, xh = ((sl + cl) >> s) << up, -((-sh - ch) >> s) << up
        yield xl, xh, d


def fixed_quotient(a: tuple, b: tuple, s: int) -> tuple:
    """(lo, hi): the floor of the least and the ceil of the greatest
    a_i 2^s / b_j over the corners, the outward enclosure in D_s of a / b
    for int pairs a and b at one scale, b not holding 0."""
    (a0, a1), (b0, b1) = (a[0] << s, a[1] << s), b
    return (min(a0 // b0, a0 // b1, a1 // b0, a1 // b1),
            -min(-a0 // b0, -a0 // b1, -a1 // b0, -a1 // b1))


def fixed_centred(t: tuple, tm: tuple, d: tuple, r: int, q: int) -> tuple:
    """(lo, hi, s): t meet the mean-value form tm + d [-r, r], an int pair
    at 2^-s (s = 2q, where it is exact), or t itself (s = q) if they miss."""
    w = r * max(-d[0], d[1])  # the sup of |d| [-r, r]
    lo = max(t[0] << q, (tm[0] << q) - w)
    hi = min(t[1] << q, (tm[1] << q) + w)
    return (t[0], t[1], q) if lo > hi else (lo, hi, 2 * q)


def iv_quad_step(x: Interval, c: Interval, p: int) -> Interval:
    """Outward enclosure of {v^2 + w : v in x, w in c} at precision p."""
    return iv_iterate(x, c, 1, p)


def iv_iterate(x0: Interval, c: Interval, n: int, p: int) -> Interval:
    """P^n(x0) by n outward steps of fixed_orbit."""
    q, x, cf = fixed_read(p, x0, c)
    *_, (lo, hi, _) = fixed_orbit(x, cf, n, q, p)
    return from_fixed(lo, hi, q)


def iv_deriv_enclosure(x: Interval) -> Interval:
    """Enclosure of the map derivative 2v over x (exact)."""
    return x.scale2(1)
