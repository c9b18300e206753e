"""Kneading data, renormalization certificates, nest, essential period."""

from fractions import Fraction
from itertools import islice, product, takewhile
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from test_params import time_limit

import qal.renorm
from qal.cli import parse_oracle
from qal.dyadic import Dyadic, Interval, iv_iterate
from qal.dynamics import (ParameterRangeError, TrackedInterval,
                          _critical_enclosures, _critical_ints, iter_eval,
                          symmetric_trap)
from qal.oracle import QueryLedger, oracle_exact
from qal.params import (_centre_of, _centre_words, _window_at,
                        epsilon_family, feigenbaum_limit, superstable_center,
                        window_endpoints)
from qal.renorm import (CombinatorialType, _admissible, _alpha, _cycle_type,
                        _order, _parse, _pullback, _renorm_images, _symbols,
                        detect_renormalization, essential_period,
                        essential_structure, feigenbaum_word,
                        itinerary_type, kneading, locate_window,
                        principal_nest, window_left_word, window_tower)
from qal.solver import iv_sign

HALF_NEG = Dyadic(-1, -1)


class TestKneading:
    def test_superattracting_two_cycle(self):
        ks = kneading(oracle_exact(Dyadic(-1)), 8)
        assert ks.symbols == "CLCLCLCL"
        assert ks.certified_length == 8

    def test_chebyshev_parameter(self):
        # 0 -> -2 -> 2 -> 2 -> ...; never returns to 0
        assert kneading(oracle_exact(Dyadic(-2)), 8).symbols == "CLRRRRRR"

    def test_chebyshev_parameter_long_itinerary(self):
        # the bracket of c = -2 straddles the range; the orbit enclosure
        # must stay inside [-2, 2] instead of doubling its mantissa per step
        with time_limit(60):
            ks = kneading(oracle_exact(Dyadic(-2)), 200)
        assert ks.symbols == "CL" + "R" * 198
        assert ks.certified_length == 200

    def test_parameter_outside_the_range_is_refused(self):
        # c = 1 escapes; its bracket is certified outside [-2, 1/4]
        with time_limit(60), pytest.raises(ParameterRangeError):
            kneading(oracle_exact(Dyadic(1)), 40)

    def test_attracting_fixed_point(self):
        assert kneading(oracle_exact(HALF_NEG), 8).symbols == "CLLLLLLL"

    def test_superstable_three_marks_exact_returns(self):
        # the oracle's construction guarantees P^3(0) = 0, so C recurs
        ks = kneading(superstable_center(3), 9)
        assert ks.symbols == "CLRCLRCLR"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            kneading(oracle_exact(Dyadic(0)), 0)


class TestFeigenbaumWord:
    def test_doubling_rule(self):
        assert feigenbaum_word(1) == "L"
        assert feigenbaum_word(2) == "LRL"
        assert feigenbaum_word(3) == "LRLLLRL"
        assert len(feigenbaum_word(10)) == 1023

    def test_words_are_the_doubling_centres_itineraries(self):
        c8 = Interval(Dyadic.from_float(-1.38155), Dyadic.from_float(-1.38154))
        for k, centre in ((2, superstable_center(4, 1)),
                          (3, superstable_center(8, c8))):
            word = feigenbaum_word(k)
            ks = kneading(centre, 2 * len(word) + 3)
            assert ks.symbols == ("C" + word) * 2 + "C"


def centres(q: int) -> list:
    """Oracles for the real period-q centres, ascending (qal windows)."""
    return [_centre_of(B, f"superstable:{q}:{i}")
            for i, B in enumerate(_centre_words(q))]


def star(words: list) -> str:
    """The centre itinerary of a tower of relative itineraries: A * B is
    A b_1' A b_2' ... A, with b' = t for L and t' for R, t as for A."""
    A = words[0]
    for B in words[1:]:
        t = "LR"[A.count("L") % 2]
        A += "".join({"L": t, "R": "RL"[A.count("L") % 2]}[b] + A for b in B)
    return A


class TestKneadingParse:
    @pytest.mark.parametrize("q", range(2, 9))
    def test_admissible_itineraries_are_the_centres(self, q):
        # 1, 1, 2, 3, 5, 9, 16 real centres of period 2..8
        words = {"".join(w) for w in product("LR", repeat=q - 1)}
        got = {kneading(o, q).symbols[1:] for o in centres(q)}
        assert {w for w in words if _admissible(w)} == got

    def test_admissibility_stops_false_levels(self):
        # -1.375 has an attracting 8-cycle right of its centre: its kneading
        # is the right end word of the period-8 window, so the parse stops
        # after the period-2 and period-4 windows; without the check, the
        # word R passed as a period-2 window and levels went on
        assert not _admissible("R")
        assert window_tower(oracle_exact(Dyadic(-11, -3)), 5, 64, 8) \
            == (["L", "L"], False, "L")

    @pytest.mark.parametrize("q", range(2, 7))
    def test_parse_matches_the_certified_window_ends(self, q):
        eps = Dyadic(1, -30)
        for o in centres(q):
            B = kneading(o, q).symbols[1:]
            orbit = _critical_enclosures(o.enclosure(64), q - 1, 64)
            assert itinerary_type(B) == _cycle_type(
                [TrackedInterval(x, x) for x in orbit])
            win = _window_at(B, o)
            assert win.tau == itinerary_type(B)

            def tower(x):
                return window_tower(oracle_exact(x), 3, q, q)

            words, *_ = tower(win.left.hi + eps)
            assert star(words) == B
            for x in (win.left.lo - eps, win.right.hi + eps):
                words, *_ = tower(x)
                assert not words or star(words) != B
            # inside the right end, c lies in the period-q hyperbolic
            # component, whose kneading is the right end word: undecided,
            # and the parse names B's last level its candidate
            words, decided, candidate = tower(win.right.lo - eps)
            assert not decided and (not words or star(words) != B)
            assert star(words + [candidate]) == B

    def test_a_short_prefix_never_decides(self):
        # the prefix window_tower reads at m = 27
        c = feigenbaum_limit().enclosure(27)
        steps = _critical_ints(c, 108)[1]
        K = "".join(takewhile("?".__ne__,
                              islice(_symbols(steps, None), 4096)))
        full = _parse(K, 5, 64, 8)[:2]
        assert full == (["L"] * 5, True)
        for j in range(len(K)):
            words, decided, _ = _parse(K[:j], 5, 64, 8)
            assert words == full[0][:len(words)]
            assert not decided or (words, decided) == full
        for word in (window_left_word("L"), "L" * len(K)):
            word = "".join(w for w, _ in zip(word, K))
            first = next(i for i, (a, b) in enumerate(zip(K, word)) if a != b)
            for j in range(len(K)):
                got = _order(K[:j], word)
                assert got == (None if j <= first else _order(K, word))


class TestCombinatorialType:
    def test_single_cycle_recognition(self):
        assert CombinatorialType(3, (2, 3, 1)).is_single_cycle()
        assert CombinatorialType(2, (2, 1)).is_single_cycle()
        assert not CombinatorialType(3, (1, 3, 2)).is_single_cycle()


class TestRenormalization:
    def test_superstable_three(self):
        o = superstable_center(3)
        cert = detect_renormalization(o, 4)
        assert cert.period == 3
        assert cert.tau == CombinatorialType(3, (2, 3, 1))
        # the trap and its disjoint images, proved again at twice the bits
        p = 2 * cert.precision
        assert _renorm_images(cert.J, cert.period, o.enclosure(p), p)

    def test_superattracting_two_cycle(self):
        cert = detect_renormalization(oracle_exact(Dyadic(-1)), 4)
        assert cert.period == 2
        assert cert.tau == CombinatorialType(2, (2, 1))

    def test_fixed_point_basin_is_not_renormalizable(self):
        assert detect_renormalization(oracle_exact(HALF_NEG), 4) is None

    def test_certificate_geometry(self):
        cert = detect_renormalization(oracle_exact(Dyadic(-1)), 4)
        # J is symmetric around 0 and f^n(J) lands strictly inside
        assert cert.J.lo == -cert.J.hi
        last = cert.images[cert.period]
        assert cert.J.lo < last.lo.lo and last.hi.hi < cert.J.hi

    @pytest.mark.parametrize("spec,max_period,perm,max_units", [
        ("superstable:5:0", 5, (2, 3, 4, 5, 1), 400),
        ("superstable:5:1", 5, (2, 4, 5, 3, 1), 400),
        ("superstable:6:0", 6, (2, 3, 4, 5, 6, 1), 400),
        ("superstable:6:1", 6, (2, 3, 5, 6, 4, 1), 400),
        ("superstable:6:2", 6, (2, 4, 6, 5, 3, 1), 400),
        ("exact:-7*2^-3", 4, (2, 1), 400),
        # -7/4 - 2^-44 and -7/4 - 2^-48, by the saddle node: the pullback
        # contracts onto J's end so slowly that only Aitken steps reach it
        ("exact:-30786325577729*2^-44", 3, (2, 3, 1), 400),
        ("exact:-492581209243649*2^-48", 3, (2, 3, 1), 400),
        ("exact:-1*2^-1", 4, None, 200),
        ("exact:-3*2^-2", 4, None, 200),  # P^2 - id has a triple root
    ])
    def test_only_the_parsed_period_is_certified(self, spec, max_period,
                                                 perm, max_units):
        # the parse names the smallest window; no absent period is climbed
        # to 512 bits (9,808-17,296 units each before)
        ledger = QueryLedger()
        with time_limit(5):
            cert = detect_renormalization(parse_oracle(spec), max_period,
                                          ledger)
        want = perm and CombinatorialType(len(perm), perm)
        assert (cert and cert.tau) == want
        assert ledger.total_units <= max_units

    @pytest.mark.parametrize("c", [Dyadic(1), Dyadic(-3)])
    def test_a_parameter_outside_the_range_is_refused(self, c):
        # at the parse's first query: no climb of its query precision
        ledger = QueryLedger()
        with pytest.raises(ParameterRangeError):
            detect_renormalization(oracle_exact(c), 4, ledger)
        assert ledger.total_units <= 16

    @pytest.mark.parametrize("c, words", [
        (Dyadic(-3, -1), ["L"]), (Dyadic(-21, -4), ["L"]),
        (Dyadic(-1797, -10), ["LR"]), (Dyadic(1, -3), [])])
    def test_a_decided_parse_certifies_no_cycle(self, c, words,
                                                monkeypatch):
        # the cycle is certified only where the parse alone is undecided
        def no_cycle(*args, **kwargs):
            raise AssertionError("a cycle certified after a decided parse")
        monkeypatch.setattr(qal.renorm, "certify_attracting_cycle", no_cycle)
        ledgers = QueryLedger(), QueryLedger()
        assert locate_window(oracle_exact(c), 6, ledgers[0]) == (words, True)
        assert window_tower(oracle_exact(c), 1, 6, 6, ledgers[1]) == (
            words, True, None)
        assert ledgers[0] == ledgers[1]

    @pytest.mark.parametrize("q", range(3, 9))
    def test_every_centre_certifies_the_type_its_parse_names(self, q):
        # J's end is the pullback's fixed point along the parsed word B
        for B in _centre_words(q):
            words, _ = locate_window(_centre_of(B), q)
            cert = detect_renormalization(_centre_of(B), q)
            assert cert.period == len(words[0]) + 1
            assert cert.tau == itinerary_type(words[0])

    def test_the_cycle_decides_a_right_end_word(self):
        # -7/8 (an attracting 2-cycle) and -3/4 + 2^-10 (a fixed point)
        # share the kneading L^oo, the right end word of the period-2
        # window: the parse alone is undecided, the cycle's period decides
        seven_eighths = oracle_exact(Dyadic(-7, -3))
        cardioid = oracle_exact(Dyadic(-767, -10))
        for o in (seven_eighths, cardioid):
            assert window_tower(o, 1, 4, 4) == ([], False, "L")
        assert locate_window(seven_eighths, 4) == (["L"], True)
        assert locate_window(cardioid, 4) == ([], True)

    @pytest.mark.parametrize("q, i, first", [(3, 0, "LR"), (4, 1, "L"),
                                             (5, 2, "LRLL")])
    def test_a_plateau_point_is_located_by_its_cycle(self, q, i, first):
        # right.lo - 2^-k, k = 16, 24, ..., 56, lies between the centre of
        # A and its right end, where the kneading is the end word: the
        # parse names A's last level its candidate, and the cycle of
        # period q accepts it (4:1, the doubling of L, is in L's window)
        A = _centre_words(q)[i]
        right = window_endpoints(q, i, 80).right
        for k in range(16, 57, 8):
            o = oracle_exact((right.lo - Dyadic(1, -k)).round(80))
            words, decided, candidate = window_tower(o, 3, q, q)
            assert not decided and star(words + [candidate]) == A, k
            assert locate_window(o, q) == ([first], True), k

    def test_the_closed_form_decides_the_main_cardioid(self):
        # -1/2 shares that kneading too, but its 8-bit bracket certifies
        # 2 alpha > -1: in no window, before any symbol is read
        ledger = QueryLedger()
        assert window_tower(oracle_exact(HALF_NEG), 1, 4, 4, ledger) == (
            [], True, None)
        assert (ledger.total_units, ledger.query_count) == (8, 1)

    def test_a_trap_whose_images_overlap_is_no_renormalization(self):
        # the period-2 J at c = -1 traps P^4 too, but its images overlap
        o = oracle_exact(Dyadic(-1))
        cert = detect_renormalization(o, 4)
        p = cert.precision
        c = o.enclosure(p)
        assert symmetric_trap(cert.J.hi, c, 4, p) is not None
        assert _renorm_images(cert.J, 2, c, p) is not None
        assert _renorm_images(cert.J, 4, c, p) is None


class TestPrincipalNest:
    def test_closes_on_the_two_cycle(self):
        nest = principal_nest(oracle_exact(Dyadic(-1)), 8)
        assert nest.closed and not nest.truncated
        assert nest.depth == 1
        assert nest.return_iterates[1] == 2

    def test_levels_are_nested(self):
        nest = principal_nest(epsilon_family(1), 8)
        assert nest.closed
        for outer, inner in zip(nest.levels, nest.levels[1:]):
            assert inner.certainly_inside(outer) or inner is outer

    @pytest.mark.parametrize("k, t", [(200, 102), (508, 256), (510, None)])
    def test_a_late_first_return_is_read(self, k, t):
        # at c = -2 + 2^-k the orbit of 0 lingers by the fixed point near
        # 2, and first returns to I^0 at k/2 + 2; a return later than
        # _MAX_RETURN = 256 makes no level
        nest = principal_nest(oracle_exact(Dyadic(-2) + Dyadic(1, -k)), 64)
        assert not nest.truncated and not nest.closed
        assert nest.return_iterates == [None] + ([t] if t else [])

    @pytest.mark.parametrize("c", [Dyadic(-1, -1), Dyadic(-1, -2),
                                   Dyadic(-1, -30)])
    def test_the_main_cardioid_has_level_0_alone(self, c):
        # 2 alpha > -1 on the first read: no level below I^0, and no climb
        # (the first return's pullback of -alpha is |alpha| exactly, which
        # no precision tells from I^0's end)
        ledger = QueryLedger()
        nest = principal_nest(oracle_exact(c), 64, ledger)
        assert (nest.depth, nest.closed, nest.truncated) == (0, False, False)
        assert nest.levels[0].lo.contains(_alpha(Interval.point(c), 128).mid())
        assert (ledger.total_units, ledger.query_count) == (64, 1)
        ledger = QueryLedger()
        assert essential_period(oracle_exact(c), ledger) is None
        assert (ledger.total_units, ledger.query_count) == (64, 1)


def nest_key(nest) -> tuple:
    """Everything a NestRecord holds, with its levels as Interval pairs."""
    return ([(t.lo, t.hi) for t in nest.levels], nest.return_iterates,
            nest.noncentral_levels, nest.closed, nest.truncated,
            nest.precision, nest.param_enclosure)


def eps_oracle(n: int):
    """epsilon_family(n)'s oracle before anything has run on it."""
    return _centre_of("L" + "RLL" * n, f"eps-family:{n}")


def fresh_eps_3():
    return eps_oracle(3)


class TestNestResumes:
    def test_resumed_nest_is_a_fresh_build(self):
        o = epsilon_family(3)  # certifying its itinerary builds level 1
        shallow = principal_nest(o, 1)
        resumed_ledger, fresh_ledger = QueryLedger(), QueryLedger()
        resumed = principal_nest(o, 64, resumed_ledger)
        fresh = principal_nest(fresh_eps_3(), 64, fresh_ledger)
        assert shallow.precision == resumed.precision == 64
        assert resumed.depth > 1
        assert nest_key(resumed) == nest_key(fresh)
        assert resumed_ledger == fresh_ledger

    def test_a_shallow_nest_is_a_prefix(self):
        o = epsilon_family(3)
        full = principal_nest(o, 64)
        for d in range(full.depth + 1):
            ledgers = QueryLedger(), QueryLedger()
            fresh = principal_nest(fresh_eps_3(), d, ledgers[0])
            cut = principal_nest(o, d, ledgers[1])
            assert nest_key(cut) == nest_key(fresh)
            assert ledgers[0] == ledgers[1]
            assert nest_key(cut) == (
                [(t.lo, t.hi) for t in full.levels[:d + 1]],
                full.return_iterates[:d + 1],
                [m for m in full.noncentral_levels if m <= d],
                full.closed and d == full.depth, False, 64,
                full.param_enclosure)


def exhaustive_root(c, k, beta, domain, p):
    """Reference for a nest level's end: bisect every root of P^k = beta on
    domain, merge the boxes, then probe the signs between them at points.
    (box, clean): the first box across which the sign changes, clean when
    no box lies left of it, so that it certainly holds the leftmost root."""
    min_width = Dyadic(1, -max(16, p // 2))
    queue, boxes = [domain], []
    while queue:
        x = queue.pop()
        if not (iter_eval(x, c, k, p)[0] - beta).contains_zero():
            continue
        if x.width() <= min_width:
            boxes.append(x)
            continue
        mid = x.mid()
        queue += Interval(x.lo, mid), Interval(mid, x.hi)
    if not boxes:
        return None, True
    merged = []
    for box in sorted(boxes, key=lambda b: b.lo):
        if merged and not merged[-1].disjoint(box):
            merged[-1] = merged[-1].hull(box)
        else:
            merged.append(box)

    def sign_at(x):
        return iv_sign(iv_iterate(Interval.point(x), c, k, p) - beta)

    cur = sign_at(domain.lo)
    if cur == 0:
        return merged[0], False
    for idx, box in enumerate(merged):
        probe = box.hi if idx + 1 == len(merged) else \
            (box.hi + merged[idx + 1].lo).half()
        s = sign_at(probe)
        if s == 0:
            return box, False
        if s != cur:
            return box, idx == 0
    return merged[0], False


class TestLevelPullback:
    @pytest.mark.parametrize("make", [
        lambda: epsilon_family(1), lambda: epsilon_family(2),
        lambda: epsilon_family(3), lambda: superstable_center(5, 1),
        lambda: superstable_center(6, 1), lambda: superstable_center(7, 3),
        lambda: superstable_center(7, 8)],
        ids=["eps1", "eps2", "eps3", "5:1", "6:1", "7:3", "7:8"])
    def test_levels_lie_in_the_exhaustive_searchs_clean_boxes(self, make):
        # 17 levels in all: each end lies in the certified leftmost root
        # of P^t = sigma b on [0, b], b the last level's end
        nest = principal_nest(make(), 64)
        assert nest.closed and nest.depth >= 2
        c, p = nest.param_enclosure, nest.precision
        orbit = _critical_enclosures(c, max(nest.return_iterates[1:]), p)
        for prev, level, t in zip(nest.levels, nest.levels[1:],
                                  nest.return_iterates[1:]):
            sigma = prod(iv_sign(y) for y in orbit[1:t])
            beta = prev.hi if sigma > 0 else prev.lo
            box, clean = exhaustive_root(c, t, beta,
                                         Interval(Dyadic(0), prev.hi.hi), p)
            assert clean and box.contains_interval(level.hi)
            assert level.lo == -level.hi

    @given(st.integers(1, 1 << 11), st.integers(-(1 << 12), 1 << 9),
           st.integers(1, 5), st.integers(64, 128))
    def test_the_pullback_of_an_orbit_encloses_its_start(self, xm, cm, t, p):
        # x in (0, 2], c in [-2, 1/4]: pull back the exact P^t(x), and its
        # outward rounding to D_p, along the exact signs of P^j(x)
        x, c = Dyadic(xm, -10), Dyadic(cm, -11)
        ys = [x]
        for _ in range(t):
            ys.append(ys[-1] * ys[-1] + c)
        assume(all(abs(y) >= Dyadic(1, -8) for y in ys[1:t]))
        signs = [y.sign for y in ys[1:t]]
        end = Interval.point(ys[t] if prod(signs) > 0 else -ys[t])
        assert _pullback(end, Interval.point(c), signs, p) == \
            Interval.point(x)
        got = _pullback(end.round_out(p), Interval.point(c), signs, p)
        assert got.contains(x) and got.width() < Dyadic(1, 48 - p)


class TestAlphaClosedForm:
    @given(st.integers(-2 << 20, 1 << 18), st.integers(-2 << 20, 1 << 18),
           st.integers(16, 160))
    def test_the_box_holds_the_smaller_fixed_point(self, a, b, p):
        # alpha(c), the smaller root of f = x^2 - x + c, grows with c: the
        # box holds alpha over the bracket when f(lo) >= 0 at its low end
        # and f(hi) <= 0 at its high end, in exact Fractions
        for c in (Interval.point(Dyadic(a, -20)),
                  Interval(Dyadic(min(a, b), -20), Dyadic(max(a, b), -20))):
            box = _alpha(c, p)
            lo, hi = box.lo.as_fraction(), box.hi.as_fraction()
            assert lo * lo - lo + c.lo.as_fraction() >= 0 >= \
                hi * hi - hi + c.hi.as_fraction()
            assert lo <= Fraction(1, 2)
        # at a point, two steps of the working grid 2^-p at most
        assert _alpha(Interval.point(Dyadic(a, -20)), p).width() <= \
            Dyadic(1, 1 - p)


class TestNestUndecided:
    @pytest.mark.parametrize("make", [
        lambda: oracle_exact(Dyadic(-1802, -10)),
        lambda: superstable_center(6, 3)], ids=["-1802*2^-10", "6:3"])
    def test_a_level_end_near_the_last_is_not_the_end_of_the_nest(
            self, make):
        # both lie in the period-3 window, whose central cascade goes on;
        # the nest used to stop there, neither closed nor truncated
        nest = principal_nest(make(), 64)
        assert nest.truncated or nest.depth == 64
        assert not nest.closed and not nest.noncentral_levels
        assert set(nest.return_iterates[1:]) <= {3}

    def test_a_level_end_at_the_last_stays_undecided(self):
        # in the period-2 window the first level's end is the fixed point's
        # preimage -alpha itself: no precision separates them
        with time_limit(60):
            nest = principal_nest(oracle_exact(Dyadic(-3, -1)), 64)
        assert nest.truncated and nest.depth == -1

    def test_an_oracle_fault_is_undecided(self):
        # the top rung asks superstable:4:1 for more than its refiner's cap
        o = superstable_center(4, 1)
        with time_limit(60):
            assert principal_nest(o, 64).truncated
            assert essential_period(o) is None


class TestEssentialStructure:
    def test_two_cycle(self):
        d = essential_structure(oracle_exact(Dyadic(-1)))
        assert d.period == 2 and d.essential_period == 2
        assert d.reduced == CombinatorialType(2, (2, 1))

    def test_epsilon_family_stabilizes_at_five(self):
        # the full period grows as 3n + 2, but from n = 2 on the saddle-node
        # cascade annuli absorb 3(n - 1) intervals: p_e stays 5
        got = {}
        for n in (1, 2, 3):
            d = essential_structure(epsilon_family(n))
            assert d.period == 3 * n + 2
            got[n] = d
            assert d.essential_period == 5
        assert sum(got[2].neglectable) == 3
        assert sum(got[3].neglectable) == 6
        assert got[2].reduced == got[3].reduced

    @pytest.mark.parametrize("make", [
        lambda: oracle_exact(Dyadic(-1)), lambda: epsilon_family(1),
        lambda: epsilon_family(2)], ids=["-1", "eps1", "eps2"])
    def test_the_cycle_of_j_is_its_first_return_long(self, make):
        # J and its images up to the first return, in the real order of
        # the centre's critical cycle
        o = make()
        d = essential_structure(o)
        B = kneading(o, d.period).symbols[1:]
        assert len(d.neglectable) == d.period
        assert d.full == itinerary_type(B)

    @pytest.mark.parametrize("c", [Dyadic(1), Dyadic(-3)])
    def test_a_parameter_outside_the_range_is_refused(self, c):
        # at the nest's one read of c, without a separate range check
        for run in (lambda o: principal_nest(o, 64), essential_period):
            with pytest.raises(ParameterRangeError):
                run(oracle_exact(c))

    def test_undecidable_returns_none_not_a_guess(self):
        # a starved precision cap cannot close the nest; the answer is None
        d = essential_structure(oracle_exact(Dyadic(-1)), p_cap=2)
        assert d is None
