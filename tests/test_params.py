"""Parameter-space solvers: centers, window endpoints, eps family, limit."""

import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice, product
from math import ceil, floor

import pytest

import qal.oracle
import qal.params
from qal.dyadic import Dyadic, Interval, fixed_read
from qal.dynamics import _cycle_orbit, _minimal
from qal.oracle import OracleFault, WorstCaseOracle, oracle_exact
from qal.params import (_centre_of, _centre_words, _cross,
                        _parabolic_refine, _window_at, epsilon_family,
                        feigenbaum_limit, superstable_center,
                        window_endpoint_oracle, window_endpoints,
                        window_locate)
from qal.renorm import (CombinatorialType, detect_renormalization,
                        feigenbaum_word, kneading, kneading_order,
                        window_left_word)
from qal.solver import ladder

NEG_7_4 = Dyadic(-7, -2)


@contextmanager
def time_limit(seconds: int):
    """Fail, instead of hanging, when the body runs past seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def q_sign(c: Fraction, q: int) -> int:
    """Sign of Q_q(c) = P_c^q(0) in exact rational arithmetic."""
    x = Fraction(0)
    for _ in range(q):
        x = x * x + c
    return (x > 0) - (x < 0)


def orbit_boxes(c: Fraction, steps: int, bits: int = 256) -> list:
    """Fraction boxes of P_c^0(0), ..., P_c^steps(0), rounded outward to
    the 2^-bits grid each step."""
    grid = Fraction(1, 1 << bits)
    boxes = [(Fraction(0), Fraction(0))]
    for _ in range(steps):
        lo, hi = boxes[-1]
        top = max(lo * lo, hi * hi)
        bottom = 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
        boxes.append((floor((bottom + c) / grid) * grid,
                      ceil((top + c) / grid) * grid))
    return boxes


def q_difference_sign(c: Fraction, a: int, b: int, bits: int = 256) -> int:
    """Sign of Q_a(c) - Q_b(c), a > b, from Fraction boxes of the orbit
    rounded outward to the 2^-bits grid each step; 0 when undecided."""
    boxes = orbit_boxes(c, a, bits)
    (a_lo, a_hi), (b_lo, b_hi) = boxes[a], boxes[b]
    return (a_lo - b_hi > 0) - (a_hi - b_lo < 0)


def close(ans: Dyadic, ref: float, m: int) -> bool:
    """Contract-level agreement: |ans - ref| within 2^-(m-1) plus float slack."""
    return abs(float(ans) - ref) < 2.0 ** (1 - m) + 1e-12


class TestSuperstableCenters:
    def test_known_centers(self):
        assert float(superstable_center(1).query(40)) == 0.0
        assert close(superstable_center(2).query(40), -1.0, 40)
        assert close(superstable_center(3).query(53), -1.7548776662466927, 53)

    def test_known_critical_period_is_set(self):
        assert superstable_center(4, 0).known_critical_period == 4

    def test_primitive_period_excludes_divisor_roots(self):
        # Q_4 vanishes at the period-1 and period-2 centers too; the
        # delivered roots must all be primitive
        with pytest.raises(OracleFault):
            superstable_center(4)  # two primitive roots: index required
        vals = sorted(float(superstable_center(4, i).query(48))
                      for i in range(2))
        for v, ref in zip(vals, (-1.9407998065294847, -1.3107026413368328)):
            assert abs(v - ref) < 1e-10

    @pytest.mark.parametrize("q,i", [(5, 0), (5, 1), (6, 1)])
    def test_centers_near_the_precision_floor_answer(self, q, i):
        # interval Newton once shaved slivers off these brackets forever
        with time_limit(60):
            a = superstable_center(q, i).query(64).as_fraction()
        slack = Fraction(1, 1 << 63)
        assert q_sign(a - slack, q) * q_sign(a + slack, q) == -1

    def test_bracket_selector(self):
        hint = Interval(Dyadic.from_float(-1.32), Dyadic.from_float(-1.30))
        o = superstable_center(4, hint)
        assert close(o.query(48), -1.3107026413368328, 48)
        # a certified enclosure names its centre among the 51 of period 10
        enc = superstable_center(10, 50).enclosure(64)
        assert superstable_center(10, enc).enclosure(64) == enc
        with pytest.raises(OracleFault):
            superstable_center(4, Interval(Dyadic(-1), Dyadic(0)))
        # a hint at -2 keeps its padded end inside [-2, 1/4]
        o = superstable_center(3, Interval(Dyadic(-2), Dyadic(-1)))
        assert close(o.query(48), -1.7548776662466927, 48)
        # the leftmost period-15 centre lies about 1.4e-8 right of -2
        enc = superstable_center(15, 0).enclosure(64)
        assert superstable_center(15, enc).enclosure(64) == enc

    def test_a_long_expanding_word_is_signed_by_its_kneading(self):
        # Q_n signed the bracket's ends at a point from 64 bits up, where the
        # orbit of L R^54 escapes and its ints double in length each step
        # (4.3 s); the kneading order that isolated the bracket signs it now
        with time_limit(60):
            start = time.perf_counter()
            o = _centre_of("L" + "R" * 54)
            assert time.perf_counter() - start < 1.0
        # the answers that signing by Q_n gave
        assert o.query(160) == Dyadic(
            -2923003274661805836407369665432561872241861675929, -160)
        for k, man, exp in [
                (20, -2923003274660575934425123968988884272578155939289, -160),
                (40, -2923003274661805836407368546843229490020849319335, -160),
                (48, -730750818665451459101842416353874430144474408177, -158)]:
            assert _centre_of("L" + "R" * k).query(160) == Dyadic(man, exp)
        for i, man, exp in [
                (0, -3213853400385335077716977440174848256452525794510258733253203,
                 -200),
                (7, -401092650343927917173524576611987449542758430804255994919261,
                 -197),
                (30, -3100298239357781941873951607774768733232073798151213474820915,
                 -200)]:
            assert superstable_center(10, i).query(200) == Dyadic(man, exp)

    def test_validation(self):
        with pytest.raises(ValueError):
            superstable_center(0)
        with pytest.raises(OracleFault):
            superstable_center(3, 7)

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_index_selects_the_listed_centre(self, q):
        for i, B in enumerate(_centre_words(q)):
            got = superstable_center(q, i)
            want = _centre_of(B, f"superstable:{q}:{i}")
            assert got.spec == want.spec
            assert got.bracket == want.bracket
            assert got.enclosure(64) == want.enclosure(64)
            assert kneading(got, q).symbols == "C" + B

    @pytest.mark.parametrize("q, count", [(7, 9), (8, 16), (9, 28), (10, 51),
                                          (11, 93), (12, 170)])
    def test_every_real_centre_is_found(self, q, count):
        # the counts of Metropolis, Stein & Stein (OEIS A000048); a float
        # sign scan over 4,096 cells found 50, 85 and 131 at q = 10, 11, 12
        words = _centre_words(q)
        assert len(words) == count
        if q > 10:
            return
        got = [_centre_of(B).enclosure(64) for B in words]
        assert all(a.hi < b.lo for a, b in zip(got, got[1:]))
        for enc in got:
            ends = (enc.lo.as_fraction(), enc.hi.as_fraction())
            assert q_sign(ends[0], q) * q_sign(ends[1], q) == -1
        if q == 9:
            # real centres crowd at -2: these two lie 4.5e-4 apart
            for enc, want in zip(got, (-1.99994352, -1.99949144)):
                assert abs(float(enc.mid()) - want) < 1e-8

    def test_the_centres_after_the_scan_gap_answer(self):
        # a float sign scan of Q_10 over 4,096 cells misses the centre of
        # LRRRRLRRR, and with it the index of the largest period-10 centre
        assert abs(float(superstable_center(10, 50).query(53))
                   + 1.4470088) < 1e-7
        gap = _centre_words(10).index("LRRRRLRRR")
        assert abs(float(superstable_center(10, gap).query(53))
                   + 1.9854823) < 1e-7

    def test_index_certifies_only_the_centres_it_needs(self, monkeypatch):
        calls = []
        real = qal.params._centre_of
        monkeypatch.setattr(qal.params, "_centre_of",
                            lambda *a: calls.append(a) or real(*a))
        superstable_center(6, 1)
        assert calls == [(_centre_words(6)[1], "superstable:6:1")]

    def test_the_words_are_listed_once_per_period(self, monkeypatch):
        def admissible_calls(walk):
            calls = []
            real = qal.params._admissible
            monkeypatch.setattr(qal.params, "_admissible",
                                lambda B: calls.append(B) or real(B))
            _centre_words.cache_clear()
            walk()
            monkeypatch.setattr(qal.params, "_admissible", real)
            return len(calls)
        monkeypatch.setattr(qal.params, "_centre_of", lambda *a: a)
        once = admissible_calls(lambda: _centre_words(11))
        walk = admissible_calls(lambda: [superstable_center(11, i)
                                         for i in range(93)])
        assert walk == once == 2 ** 10

    @pytest.mark.parametrize("selector,message", [
        (5, "center index 5 out of range (5 roots)"),
        (-1, "center index -1 out of range (5 roots)"),
        (None, "5 period-6 centers; pass an index or bracket")])
    def test_fault_messages_count_every_centre(self, selector, message):
        with pytest.raises(OracleFault) as exc:
            superstable_center(6, selector)
        assert str(exc.value) == message


class TestWorkingPrecision:
    def test_precision_follows_the_request(self, monkeypatch):
        # Newton runs at a precision near twice the requested bits, so
        # refining a center far past 64 bits needs no bisection steps
        real, calls = qal.oracle.sign_bisect, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qal.oracle, "sign_bisect", counted)
        o = superstable_center(3)
        for m in (128, 256, 512):
            a = o.query(m).as_fraction()
            slack = Fraction(1, 1 << (m - 1))
            assert q_sign(a - slack, 3) * q_sign(a + slack, 3) == -1
        assert len(calls) <= 16

    def test_library_ignores_the_precision_variable(self, monkeypatch):
        want = superstable_center(3).query(64)
        monkeypatch.setenv("QAL_MAX_PRECISION", "16")
        assert superstable_center(3).query(64) == want


class TestWindowEndpoints:
    def test_period_three_right_endpoint_is_the_cusp(self):
        win = window_endpoints(3)
        assert win.right.contains(NEG_7_4)
        assert win.right.width() <= Dyadic(1, -30)
        assert win.tau == CombinatorialType(3, (2, 3, 1))

    def test_doubling_window_has_its_own_period(self):
        # 4:1 also renormalizes with period 2; the window's type is the
        # period-4 one all the same
        assert window_endpoints(4, 1).tau == CombinatorialType(4, (3, 4, 2, 1))

    def test_period_three_left_endpoint(self):
        win = window_endpoints(3)
        assert win.left.hi < win.right.lo
        assert abs(float(win.left.mid()) + 1.7903274919) < 1e-9

    def test_period_two_right_endpoint_closed_form(self):
        # the 2-cycle multiplier is 4(c + 1); it crosses -1 at c = -3/4
        win = window_endpoints(2)
        assert win.right.contains(Dyadic(-3, -2))
        assert win.right.width() <= Dyadic(1, -30)
        assert abs(float(win.left.mid()) + 1.5436890126920764) < 1e-9

    def test_a_point_box_at_an_exactly_dyadic_end_is_not_certified(
            self, monkeypatch):
        # the period-2 window's end solves P(w) = w, P'(w) = -1 at c = -3/4,
        # w = -1/2; on that point box N(Y) = Y, never strictly inside
        assert _parabolic_refine(1, -0.75, -0.5, 34, mult=-1) is not None
        monkeypatch.setattr(qal.params, "_SEED_RADIUS", 0.0)
        assert _parabolic_refine(1, -0.75, -0.5, 34, mult=-1) is None

    def test_the_cross_product_is_exact_at_its_corners(self):
        # a b - c d over int pairs: the 2x2 Newton's determinant and
        # numerators, bilinear in each pair, so extreme at the corners
        for a, b, c, d in product([(-2, 1), (0, 3), (-4, -1)], repeat=4):
            values = [w * x - y * z for w in a for x in b for y in c
                      for z in d]
            assert _cross(a, b, c, d) == (min(values), max(values))

    def test_a_divisor_cycle_is_no_right_end(self, monkeypatch):
        # at c = -3/4 the fixed point -1/2 is parabolic: as a 2-cycle its
        # two images are one point.  The 2-cycle's doubling at -5/4 solves
        # the period-4 saddle-node system too (multiplier (-1)^2 = 1); its
        # four images are two, so the right end of 4:0 passes over it
        q, w, cf = fixed_read(64, Interval.point(Dyadic(-1, -1)),
                              Interval.point(Dyadic(-3, -2)))
        assert not _minimal(_cycle_orbit(cf, 2, q, 64, w))
        assert _minimal(_cycle_orbit(cf, 1, q, 64, w))
        doubling = _parabolic_refine(2, -1.3, 0.0, 34, mult=-1)
        assert doubling[0].contains(Dyadic(-5, -2))
        want, seeds = window_endpoints(4, 0).right, []

        def doubling_first(*args, **kwargs):
            seeds.append(args)
            return doubling if len(seeds) == 1 else \
                _parabolic_refine(*args, **kwargs)
        monkeypatch.setattr(qal.params, "_parabolic_refine", doubling_first)
        got = window_endpoints(4, 0).right  # from the next seed
        assert len(seeds) > 1 and got.intersect(want) is not None

    @pytest.mark.parametrize("q", range(9, 13))
    def test_every_window_of_a_long_period_certifies(self, q):
        # each right end between its centre and the next centre: a seed
        # box wider than the window (some of period 11 are narrower than
        # 1e-4) gives no end or another window's, and so does a saddle
        # node tried in a doubling window (10:47, inside 5:2)
        words = _centre_words(q)
        centres = [_centre_of(A).enclosure(64) for A in words]
        for i, (A, centre) in enumerate(zip(words, centres)):
            win = _window_at(A, _centre_of(A))
            nxt = centres[i + 1].lo if i + 1 < len(words) else Dyadic(1, -2)
            assert win.left.hi <= centre.lo, (q, i)
            assert centre.hi < win.right.lo and win.right.hi < nxt, (q, i)

    def test_requested_width_is_honored(self):
        win = window_endpoints(3, width_exp=48)
        assert win.left.width() < Dyadic(1, -47)
        assert win.right.width() < Dyadic(1, -47)

    @pytest.mark.parametrize("n,index,right,tol", [(6, 3, -1.768529152, 1e-9),
                                                   (8, 7, -1.941538, 1e-6)])
    def test_right_end_is_not_a_cycle_of_smaller_period(self, n, index,
                                                        right, tol):
        # the 2x2 Newton also lands on parabolic cycles of a divisor period:
        # the 3-cycle saddle-node -7/4 for 6:3 (its window ends at the 3->6
        # doubling), the 4-cycle saddle-node for 8:7
        win = window_endpoints(n, index)
        assert abs(float(win.right.mid()) - right) < tol

    @pytest.mark.parametrize("n,index", [(2, 0), (4, 1), (6, 0), (7, 0),
                                         (7, 8), (8, 0), (8, 13)])
    def test_left_endpoint_is_the_root_next_to_the_centre(self, n, index):
        # Q_3n - Q_2n vanishes at the centre and the window's left end and
        # nowhere between; the period-6 windows near -2 are narrower than
        # 1e-5, 8:0 is 3e-9 wide, and other roots lie just outside them
        win = window_endpoints(n, index)
        centre = superstable_center(n, index).query(53).as_fraction()
        lo, hi = win.left.lo.as_fraction(), win.left.hi.as_fraction()
        assert hi < centre < win.right.lo.as_fraction()
        signs = [q_difference_sign(end, 3 * n, 2 * n) for end in (lo, hi)]
        assert sorted(signs) == [-1, 1]
        between = {q_difference_sign(hi + (centre - hi) * k / 64, 3 * n, 2 * n)
                   for k in range(1, 64)}
        assert between == {signs[1]}

    @pytest.mark.parametrize("n,index", [(3, None), (4, 0), (5, 2)])
    def test_type_is_the_renormalization_type(self, n, index):
        # the centre's cycle order against the certified search
        cert = detect_renormalization(superstable_center(n, index), n)
        assert window_endpoints(n, index).tau == cert.tau

    def test_validation(self):
        with pytest.raises(ValueError):
            window_endpoints(1)


class TestWindowLeftWord:
    @pytest.mark.parametrize("n,A,prefix", [(2, "L", "LRLLLLLL"),
                                            (3, "LR", "LRRLRLLR")])
    def test_word_is_the_itinerary_at_the_left_end(self, n, A, prefix):
        # A t (A t')^oo against the exact itinerary of both ends of the
        # certified enclosure, which follow the end's orbit for ~50 steps
        word = "".join(islice(window_left_word(A), 24))
        assert word.startswith(prefix)
        win = window_endpoints(n)
        for end in (win.left.lo, win.left.hi):
            boxes = orbit_boxes(end.as_fraction(), 24)[1:]
            assert "".join("R" if lo > 0 else "L" if hi < 0 else "?"
                           for lo, hi in boxes) == word

    def test_uncertified_itinerary_is_refused(self):
        with pytest.raises(OracleFault):
            window_left_word("L?")


class TestWindowLocate:
    def test_two_cycle_parameter_sits_in_the_doubling_window(self):
        win = window_locate(oracle_exact(Dyadic(-1)), 4)
        assert win.period == 2
        assert abs(float(win.right.mid()) + 0.75) < 1e-9

    def test_superstable_three_sits_in_its_window(self):
        assert window_locate(superstable_center(3), 4).period == 3

    def test_fixed_point_basin_is_in_no_window(self):
        assert window_locate(oracle_exact(Dyadic(-1, -1)), 4) is None

    def test_hyperbolic_component_is_in_its_centres_window(self):
        # c lies between the period-3 centre and -7/4, where the kneading is
        # the window's right end word: the attracting 3-cycle settles it
        win = window_locate(oracle_exact(Dyadic(-897, -9)), 4)
        assert win.period == 3
        assert close(win.right.mid(), -1.75, 30)

    @pytest.mark.parametrize("man,period", [
        (-122303643969052089653428795797, 2),
        (-122303643969052089653428926869, None)])
    def test_a_parameter_near_an_end_reads_a_long_prefix(self, man, period):
        # 2^-80 right and left of the period-2 window's left end: c's
        # kneading follows the end's L R L^oo for over 100 symbols
        win = window_locate(oracle_exact(Dyadic(man, -96)), 4)
        assert (win and win.period) == period


class TestEpsilonFamily:
    REFS = {1: -1.6254137251235081, 2: -1.7110794700129195,
            3: -1.7320062728695120, 4: -1.7397176014514633}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_centers_and_periods(self, n):
        o = epsilon_family(n)
        assert o.known_critical_period == 3 * n + 2
        assert close(o.query(48), self.REFS[n], 48)
        assert kneading(o, 3 * n + 2).symbols == "C" + "L" + "RLL" * n

    @pytest.mark.parametrize("B", ["L" + "RLL" * 32, "L" + "R" * 38],
                             ids=["cusp", "expanding"])
    def test_a_long_word_builds(self, B):
        # over a wide bracket the orbit enclosure escapes past 4, where its
        # ints double in length each step: the isolation test stops there.
        # Near -2 each step of L R^38 multiplies the rounding by about 4,
        # so the isolation test must work at more than 64 bits there
        with time_limit(30):
            o = _centre_of(B)
            assert kneading(o, len(B) + 1).symbols == "C" + B

    def test_accumulation_on_the_cusp(self):
        gaps = [self.REFS[n] - float(NEG_7_4) for n in (1, 2, 3, 4)]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            epsilon_family(0)


class TestWindowEndpointOracle:
    def test_right_of_period_three(self):
        o = window_endpoint_oracle(3, "right")
        assert o.spec == "window-right:3"
        assert close(o.query(24), -1.75, 24)

    def test_left_of_period_two(self):
        o = window_endpoint_oracle(2, "left")
        assert close(o.query(24), -1.5436890126920764, 24)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            window_endpoint_oracle(3, "middle")


class TestFeigenbaumLimit:
    C_F = -1.4011551890920506

    def test_contract_near_the_limit(self):
        o = feigenbaum_limit()
        for m in (8, 16, 20):
            assert close(o.query(m), self.C_F, m)

    def test_adversarial_wrapper_stays_admissible(self):
        o = WorstCaseOracle(feigenbaum_limit())
        assert close(o.query(14), self.C_F, 14)

    def test_infeasible_precision_faults_fast(self):
        with pytest.raises(OracleFault):
            feigenbaum_limit().query(64)

    def test_depth_cap_validation(self):
        with pytest.raises(ValueError):
            feigenbaum_limit(1)


class TestFeigenbaumKneadingOrder:
    C_F = Fraction("-1.4011551890920506")

    def test_order_signs_around_the_limit(self):
        word = feigenbaum_word(17)
        for k in range(3, 25):
            for side in (1, -1):
                x = Dyadic.from_fraction_rounded(
                    self.C_F + side * Fraction(1, 1 << k), 64)
                signs = (kneading_order(x, word, p) for p in ladder())
                assert next(s for s in signs if s != 0) == side, (k, side)

    def test_precision_thirty_answers(self):
        ans = feigenbaum_limit().query(30)
        assert abs(ans.as_fraction() - self.C_F) < Fraction(1, 1 << 29)

    def test_every_accepted_precision_answers(self):
        # the refusal comes before the word runs out: at a small depth,
        # each precision up to the first refused one answers
        o = feigenbaum_limit(10)
        m = 1
        while True:
            try:
                ans = o.query(m)
            except OracleFault as exc:
                assert "needs more of the Feigenbaum word" in str(exc)
                break
            assert abs(ans.as_fraction() - self.C_F) < Fraction(2, 1 << m)
            m += 1
        assert m > 10

    def test_word_too_short_for_the_bracket_is_an_invalid_depth(self):
        # W_5 cannot sign -1.40, so depth 5 is refused as an argument
        with pytest.raises(ValueError, match=">= 6"):
            feigenbaum_limit(5)
        assert feigenbaum_limit(6).query(4) is not None
