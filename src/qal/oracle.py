"""Parameter-access oracles with cost accounting.

An oracle for a real c answers precision-m queries with an element of D_m
within 2^-(m-1) of c, and every query at precision m is charged m cost units
to the computation's ledger -- including cache hits, so replays are charged
identically to first runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import ZERO, Dyadic, Interval, fixed_read, from_fixed
from .solver import (PRECISION_CAP, interval_newton, iv_sign, ladder,
                     sign_bisect)


class OracleFault(Exception):
    """A refiner could not honor its construction contract.

    Raised instead of ever returning an answer that might violate the
    oracle's distance guarantee.
    """


@dataclass
class QueryLedger:
    """Oracle-cost accounting: total units, max precision, query count."""

    total_units: int = 0
    max_precision: int = 0
    query_count: int = 0

    def charge(self, m: int):
        self.total_units += m
        self.max_precision = max(self.max_precision, m)
        self.query_count += 1

    def add(self, other: "QueryLedger", times: int = 1):
        """Charge everything other was charged, as times replays of its
        queries."""
        self.total_units += times * other.total_units
        self.max_precision = max(self.max_precision, other.max_precision)
        self.query_count += times * other.query_count


@dataclass(frozen=True)
class LedgerReport:
    total_units: int
    max_precision: int
    query_count: int


def ledger_report(ledger: QueryLedger) -> LedgerReport:
    return LedgerReport(ledger.total_units, ledger.max_precision, ledger.query_count)


class ParamOracle:
    """Base oracle: caching, the query contract, and derived enclosures.

    Subclasses implement _answer(m) -> element of D_m within 2^-(m-1) of c.
    known_critical_period, when set by a construction that guarantees
    P_c^n(0) = 0, lets combinatorial code emit exact 'C' symbols.
    known_tower, when set by a construction that guarantees c lies in
    infinitely many nested windows, each of relative itinerary
    known_tower, lets classify call c feigenbaum-like without a hint.
    """

    spec: str = "?"
    known_critical_period: int | None = None
    known_tower: str | None = None

    def __init__(self):
        self._cache: dict[int, Dyadic] = {}

    def _answer(self, m: int) -> Dyadic:
        raise NotImplementedError

    def query(self, m: int, ledger: QueryLedger | None = None) -> Dyadic:
        if m < 1:
            raise ValueError("query precision must be >= 1")
        if m not in self._cache:
            self._cache[m] = self._answer(m)
        ans = self._cache[m]
        if ledger is not None:
            ledger.charge(m)
        return ans

    def enclosure(self, m: int, ledger: QueryLedger | None = None) -> Interval:
        """Sound bracket for c derived from one contract-level query."""
        a = self.query(m, ledger)
        slack = Dyadic(1, -(m - 1))
        return Interval(a - slack, a + slack)


class ExactOracle(ParamOracle):
    """Oracle for a parameter that is itself an exact dyadic."""

    def __init__(self, value: Dyadic):
        super().__init__()
        self.value = value
        self.spec = f"exact:{value}"
        self.known_critical_period = _exact_critical_period(value)

    def _answer(self, m: int) -> Dyadic:
        return self.value.round(m)


def oracle_exact(d: Dyadic) -> ParamOracle:
    return ExactOracle(d)


def _exact_critical_period(c: Dyadic) -> int | None:
    """The least k with P_c^k(0) = 0, or None: 1 at c = 0, 2 at c = -1.

    A Dyadic keeps an odd mantissa, so c.exp < 0 means v2(c) < 0; then by
    induction v2(P_c^k(0)) = 2^(k-1) v2(c) is finite and P_c^k(0) is never
    0.  An integer c >= 1 has the increasing orbit 0 < c < c^2 + c < ...
    For an integer c <= -2, P^2(0) = c^2 + c >= max(2, -c), and from any
    x >= max(2, -c) a step gives x^2 + c >= x^2 - x >= x: the orbit stays
    at 2 or above.  That leaves 0 and -1.
    """
    return {ZERO: 1, Dyadic(-1): 2}.get(c)


class RefinerOracle(ParamOracle):
    """Oracle backed by an interval refiner converging to a real c.

    The refiner maintains a bracket and must be able to shrink it below any
    requested width; answers are midpoints rounded to the grid.
    """

    def __init__(self):
        super().__init__()
        self.bracket: Interval | None = None

    def _refine_to(self, width_exp: int):
        """Shrink self.bracket to width < 2^-width_exp."""
        raise NotImplementedError

    def _answer(self, m: int) -> Dyadic:
        self._refine_to(m + 1)
        # |mid - c| <= 2^-(m+2); grid rounding adds <= 2^-(m+1): total < 2^-(m-1)
        return self.bracket.mid().round(m)


class BisectOracle(RefinerOracle):
    """Sign-change bisection refiner.

    pred(x: Dyadic, p: int) -> -1 | 0 | +1 evaluates a sign certificate for
    the defining function at working precision p; 0 means undecided.  The
    bracket endpoints must carry certain opposite signs.
    """

    def __init__(self, pred, bracket: Interval, precision_cap: int = PRECISION_CAP,
                 spec: str = "bisect"):
        super().__init__()
        self.pred = pred
        self.precision_cap = precision_cap
        self.spec = spec
        slo = ladder_sign(pred, bracket.lo, 64, precision_cap)
        shi = ladder_sign(pred, bracket.hi, 64, precision_cap)
        if slo == 0 or shi == 0 or slo == shi:
            raise OracleFault(
                f"no certified sign change on {bracket} (signs {slo},{shi})")
        self.bracket = bracket
        self._slo = slo

    def _bisect(self, width: Dyadic, p_start: int):
        got = sign_bisect(
            lambda x: ladder_sign(self.pred, x, p_start, self.precision_cap),
            self.bracket, self._slo, width)
        if got is None:
            raise OracleFault(
                f"sign undecided near {self.bracket.mid()} at precision cap")
        self.bracket = got

    def _refine_to(self, width_exp: int):
        self._bisect(Dyadic(1, -width_exp), 64)

    def halve(self):
        """One bisection step: keep the half that holds the sign change."""
        self._bisect(self.bracket.width(), 64)


def ladder_sign(pred, x: Dyadic, p_start=64, p_cap=PRECISION_CAP) -> int:
    """pred(x, p) at the first rung p from p_start to p_cap that decides,
    climbing the ladder while undecided; 0 when undecided at the cap."""
    return next((s for p in ladder(p_start, p_cap) if (s := pred(x, p))), 0)


def oracle_bisect(pred, bracket: Interval, precision_cap: int = PRECISION_CAP,
                  spec: str = "bisect") -> ParamOracle:
    return BisectOracle(pred, bracket, precision_cap, spec)


def oracle_newton(func, bracket: Interval, precision_cap: int = PRECISION_CAP,
                  spec: str = "newton") -> ParamOracle:
    return IntervalNewtonOracle(
        func, lambda x, p: iv_sign(func(Interval.point(x), p)[0]), bracket,
        precision_cap, spec)


class IntervalNewtonOracle(BisectOracle):
    """Refiner for a simple root of F using interval Newton with bisection
    fallback.

    func(X: Interval, p: int) -> (F_enclosure, dF_enclosure) must enclose the
    defining function and its derivative over X; pred signs the bracket
    ends and the bisection steps, as in BisectOracle.
    """

    def __init__(self, func, pred, bracket: Interval,
                 precision_cap: int = PRECISION_CAP, spec: str = "newton"):
        self.func = func
        super().__init__(pred, bracket, precision_cap, spec)

    def _refine_to(self, width_exp: int):
        # rounding and the derivative eat working bits: a width of 2^-w is
        # sought from the first ladder rung at or above 2w, or the top one
        for p in ladder(64, self.precision_cap):
            if p >= 2 * width_exp:
                break
        target = Dyadic(1, -width_exp)
        while self.bracket.width() >= target:
            q, (lo, hi) = fixed_read(p, self.bracket)

            def outward(v: Interval) -> tuple:  # v rounded out to 2^-q
                return v.lo.scale2(q).floor_int(), v.hi.scale2(q).ceil_int()

            got = interval_newton(
                lambda m: outward(self.func(from_fixed(m, m, q), p)[0]),
                lambda lo, hi: outward(self.func(from_fixed(lo, hi, q), p)[1]),
                lo, hi, q, (1 << q) >> width_exp)
            if got is None:
                raise OracleFault("interval Newton emptied the bracket")
            self.bracket = from_fixed(*got[:2], q)
            if self.bracket.width() >= target:
                # Newton stopped short: one bisection step on the sign change
                self._bisect(self.bracket.width(), p)


class WorstCaseOracle(ParamOracle):
    """Adversarial wrapper: answers with a far admissible grid element.

    Downstream certified results must stay correct under any contract-level
    oracle; this wrapper exercises that in tests.
    """

    def __init__(self, inner: ParamOracle):
        super().__init__()
        self.inner = inner
        self.spec = f"worst({inner.spec})"
        self.known_critical_period = inner.known_critical_period
        self.known_tower = inner.known_tower

    def _answer(self, m: int) -> Dyadic:
        near = self.inner.query(m + 2)
        # |near - c| < 2^-(m+1); offset by 2^-m, alternating side by parity:
        # |answer - c| <= 2^-m + 2^-(m+1) = 1.5 * 2^-m < 2^-(m-1).
        off = Dyadic(1 if m % 2 == 0 else -1, -m)
        return near.round(m) + off
