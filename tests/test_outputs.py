"""Certified outputs pinned by their sha256.

A change to the arithmetic underneath (rounding, the orbit loops, the float
seeds of the cycle search) must leave every point list, every rendered row
and every charged unit as it was.  Each digest covers the printed outputs
and the units the ledger charged for them (the window ends, which charge
no ledger, cover their brackets alone).
"""

import hashlib
from fractions import Fraction

import pytest

from qal import (Dyadic, Hints, Interval, OracleFault, QueryLedger,
                 approximate, epsilon_family, essential_period, oracle_exact,
                 principal_nest, render, superstable_center, window_endpoints)

# Inner parts of the hyperbolic windows of periods 1-4, as in the benchmark's
# `certify` workload; eight c per window, one at the middle of each eighth,
# on the grid 2^-24.
WINDOWS = {
    1: (Fraction(-7, 10), Fraction(1, 5)),
    2: (Fraction(-6, 5), Fraction(-4, 5)),
    3: (Fraction(-1766, 1000), Fraction(-1752, 1000)),
    4: (Fraction(-136, 100), Fraction(-126, 100)),
}
CERTIFY = {
    1: "4dc2ac5e8de7d313095b5445e64b03070af48401cdc310bef8325071a4e4fd3f",
    2: "fbdc85b2bfe48f7e420cb3b2e62d2c04c37789de3b5705b461692477373ebd7d",
    3: "76cda783a88e052ab4eb4666acdae54c38a7c6a6d114cc1926a8f7c09ece40d8",
    4: "871bab45e3a0d3b47336bc0dfc650a880bdb0fe5d9a48f0148cfe7aaca2e86e2",
}

# The seven parameters of the benchmark's `render` workload: point covers of
# 1, 2, 3, 5 and 11 points and one interval cover.
RENDER = {
    "c=-1": (lambda: oracle_exact(Dyadic(-1)), Hints(),
        "1a106f5a293bda957a7098cc6af885e4daf1741d95b02f8d683e161375d0ff7d"),
    "c=-1/2": (lambda: oracle_exact(Dyadic(-1, -1)), Hints(),
        "09c1fd71ad78e9b5ffbb5ffbbe415e13ea37781c4e7f9cbab737f7732bce6f1c"),
    "c=-9/8": (lambda: oracle_exact(Dyadic(-9, -3)), Hints(),
        "c1b889b7040610747abeeb670814fc902bbe09249339da62fbcfa3f4f52a5bf7"),
    "c=-2": (lambda: oracle_exact(Dyadic(-2)), Hints(period=1, case="2"),
        "22c905eacae2c8c4e25a2a745b37e2ba47a33ade8723d37c06bf0bb769ab76ab"),
    "superstable:3": (lambda: superstable_center(3), Hints(),
        "b17768dfda6796a2d94888400a26df0ef9d8547275fe514aae96db5ed53b7c72"),
    "eps-family:1": (lambda: epsilon_family(1), Hints(),
        "4443fa1052b67e10c39ca80026ee2d58b31c627d06dccae30fe9bacb7b64d99a"),
    "eps-family:3": (lambda: epsilon_family(3), Hints(),
        "ea66ac7e026d33b488b80dfb4b2c3604b1edad7dadffd7ee79328e0c2cd388e2"),
}

# The parameter-space answers of the benchmark's `solve` workload: the eps_n
# answers with their essential periods, every centre of periods 3-6, and the
# principal nest of eps_3.  The nest's level 0 is the fixed point alpha in
# closed form, (1 - sqrt(1 - 4c)) / 2 by outward isqrt, inside the box that
# a bisection and Newton on P - id once gave (ALPHA_WAS).  Each nest rung
# reads c once, at its working precision: eps_3's nest charges 64 units
# (144 when a 16-bit range check and the periodic-point search read c
# apart), and each eps_n answer 128 (208), with the same level boxes.
SOLVE = {
    "eps":
        "000c750066cf1ac8282877c70406161450aaa5e71a7e0790e6a6bbd613d6db4e",
    "centres":
        "0f68979a41cbbe62f56d2be4d3b7705a47632a81a1dd1482901eaa3756e9ad65",
    "nest":
        "f4df97c1f990c56ef11a17776ecc7ae2e93d65dd436cc19075a46e5feb09205e",
}
ALPHA_WAS = Interval(Dyadic(-16746645017129497823, -64),
                     Dyadic(-4186661254282374455, -62))

# Both ends of the window around every centre of periods 2-8, at the default
# width: the left end by bisection on the kneading order, the right end by
# the two-variable parabolic Newton.
WINDOW_ENDS = (
    "9061d7e139995788683643ecd3a4c0fd6198584afa1188e11a148ce25f30f1c1")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _params(period: int) -> list:
    lo, hi = WINDOWS[period]
    return [Dyadic(round((lo + (hi - lo) * Fraction(2 * k + 1, 16)) * 2**24),
                   -24) for k in range(8)]


@pytest.mark.parametrize("period", sorted(CERTIFY))
def test_certify_points_and_units(period):
    rows = []
    for c in _params(period):
        ledger = QueryLedger()
        out = approximate(oracle_exact(c), 16, ledger=ledger)
        rows.append(f"{c} {' '.join(map(str, out.points))} {ledger.total_units}")
    assert _sha256("\n".join(rows).encode()) == CERTIFY[period]


@pytest.mark.parametrize("key", sorted(RENDER))
def test_render_rows_and_units(key):
    make, hints, digest = RENDER[key]
    ledger = QueryLedger()
    row = render(make(), 12, Interval(Dyadic(-2), Dyadic(2)), hints,
                 ledger=ledger)
    assert _sha256(row + f"\n{ledger.total_units}".encode()) == digest


def test_epsilon_family_answers_and_units():
    rows = []
    for n in range(1, 6):
        ledger = QueryLedger()
        o = epsilon_family(n)
        a = o.query(64, ledger)
        rows.append(f"{n} {a} {essential_period(o, ledger)} "
                    f"{ledger.total_units} {ledger.query_count}")
    assert _sha256("\n".join(rows).encode()) == SOLVE["eps"]


def test_centre_enclosures():
    rows = []
    for q in range(3, 7):
        i = 0
        while True:
            try:
                o = superstable_center(q, i)
            except OracleFault as exc:
                rows.append(str(exc))
                break
            rows.append(f"{q}:{i} {o.enclosure(64)}")
            i += 1
    assert _sha256("\n".join(rows).encode()) == SOLVE["centres"]


def test_principal_nest_of_eps_3():
    ledger = QueryLedger()
    nest = principal_nest(epsilon_family(3), 64, ledger)
    assert nest.return_iterates == [None, 3, 3, 3, 11]
    assert nest.noncentral_levels == [3]
    assert (nest.closed, nest.truncated) == (True, False)
    assert (nest.precision, ledger.total_units) == (64, 64)
    assert ALPHA_WAS.contains_interval(nest.levels[0].lo)
    assert (-ALPHA_WAS).contains_interval(nest.levels[0].hi)
    rows = [f"{t.lo} {t.hi} {r}"
            for t, r in zip(nest.levels, nest.return_iterates)]
    rows.append(f"{nest.noncentral_levels} {nest.closed} {nest.truncated} "
                f"{nest.precision} {nest.param_enclosure} {ledger.total_units}")
    assert _sha256("\n".join(rows).encode()) == SOLVE["nest"]


def test_window_ends():
    rows = []
    for q in range(2, 9):
        i = 0
        while True:
            try:
                w = window_endpoints(q, i)
            except OracleFault as exc:
                rows.append(str(exc))
                break
            rows.append(f"{q}:{i} {w.left} {w.right}")
            i += 1
    assert _sha256("\n".join(rows).encode()) == WINDOW_ENDS
