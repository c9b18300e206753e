"""Certified outputs pinned by their sha256.

A change to the arithmetic underneath (rounding, the orbit loops, the root
queue of the cycle search) must leave every point list, every rendered row
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
    1: "d47b108fa2b4f2351aed866f59dc0ac65c19315d70da7e27cdef07e2fd7b424a",
    2: "deab778fd267820747ce57590319c51871eb0abf7356ad922e8672bc51b41399",
    3: "578b31073e64f26e36e7f16cb75e21b250aaa6a202065c919f2f36e65d9a39b7",
    4: "6c8e6bec58613d16cb008325d2bd8c66c56123ce40f65f9edf71d7f6cc93f7f1",
}

# The seven parameters of the benchmark's `render` workload: point covers of
# 1, 2, 3, 5 and 11 points and one interval cover.
RENDER = {
    "c=-1": (lambda: oracle_exact(Dyadic(-1)), Hints(),
        "1a106f5a293bda957a7098cc6af885e4daf1741d95b02f8d683e161375d0ff7d"),
    "c=-1/2": (lambda: oracle_exact(Dyadic(-1, -1)), Hints(),
        "bcb27438d8f8bc55314541029ff1de73cdf8529f9515409a60d02eb4e42e6f88"),
    "c=-9/8": (lambda: oracle_exact(Dyadic(-9, -3)), Hints(),
        "129f3bb49e20c4177f95d578e4dc5f791b30f9e4f3f9511b2f1b932a0577838f"),
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
    "f15bd7798902016564480dd12f084c19e638ce3ed71779167d1e125e661a4e46")


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
