"""The three workloads: their inputs, their ops and each op's check.

An op is the unit of work the per-op metrics time: `run(ledger)` makes the
qal calls and returns the answer, `check(answer)` compares it with
`reference` and returns an error string or None.  Inputs are plain data made
by `make_inputs(workload, seed)`, a pure function of the seed; qal only
ever sees these generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

WORKLOADS = ("solve", "certify", "render")

# -- solve -------------------------------------------------------------------
EPS_INDICES = range(1, 6)
CENTRE_PERIODS = range(3, 7)
# Centres queried and certified.  5:0, 5:1 and 6:1 are left out because
# their query(64) never returns; 3:0, 4:0, 5:2, 6:0, 6:2 and 6:3 because
# their renormalization search takes 3 to 25 s each, more than a round can
# hold (3:0 still runs inside window_endpoints(3), which certifies its type).
CENTRES = ((4, 1), (6, 4))
QUERY_BITS = 64
FEIGENBAUM_BITS = 10

# -- certify -----------------------------------------------------------------
# Inner parts of the hyperbolic windows of periods 1-4 (the period-4 one is
# the period-doubling window after -5/4), as exact rationals.
CERTIFY_WINDOWS = {
    1: (Fraction(-7, 10), Fraction(1, 5)),
    2: (Fraction(-6, 5), Fraction(-4, 5)),
    3: (Fraction(-1766, 1000), Fraction(-1752, 1000)),
    4: (Fraction(-136, 100), Fraction(-126, 100)),
}
CERTIFY_DRAWS = 24  # per window and round
PARAM_BITS = 32  # c is drawn on the grid 2^-PARAM_BITS
CERTIFY_N = (8, 24)

# -- render ------------------------------------------------------------------
RENDER_N = 12
BLOCK = 256  # pixels per op
ROW_PIXELS = 4 << RENDER_N  # pixel centres j * 2^-12 for j in [-2^13, 2^13)
RENDER_BLOCKS = 8  # per parameter and round, one in each eighth of the row
# (key, oracle kind, its arguments, hint period, hint case).  Covers of 1, 2,
# 3, 5 and 11 points and one interval cover.  Seven parameters of equal
# weight put the 50th and 90th op-time percentiles inside one parameter's
# group of blocks rather than at the edge between two.
RENDER_PARAMS = (
    ("c=-1", "exact", (-1, 0), None, None),
    ("c=-1/2", "exact", (-1, -1), None, None),
    ("c=-9/8", "exact", (-9, -3), None, None),
    ("c=-2", "exact", (-1, 1), 1, "2"),
    ("superstable:3", "superstable", (3, None), None, None),
    ("eps-family:1", "eps", (1,), None, None),
    ("eps-family:3", "eps", (3,), None, None),
)


def make_inputs(workload: str, seed: int) -> list:
    """The workload's inputs for one round, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve":
        inputs = ([("eps", n) for n in EPS_INDICES]
                  + [("count", q) for q in CENTRE_PERIODS]
                  + [("centre", q, i) for q, i in CENTRES]
                  + [("window", 3), ("feigenbaum", FEIGENBAUM_BITS)])
    elif workload == "certify":
        # one c in each of CERTIFY_DRAWS equal strata of every window: the
        # cost of an op rises steeply toward the window's ends, so free
        # draws would make the work of a round depend on the seed
        inputs = []
        for period, (lo, hi) in CERTIFY_WINDOWS.items():
            for k in range(CERTIFY_DRAWS):
                a = lo + (hi - lo) * Fraction(k, CERTIFY_DRAWS)
                b = lo + (hi - lo) * Fraction(k + 1, CERTIFY_DRAWS)
                grid = rng.randint(int(a * (1 << PARAM_BITS)) + 1,
                                   int(b * (1 << PARAM_BITS)) - 1)
                inputs.append(("cycle", period, Fraction(grid, 1 << PARAM_BITS),
                               rng.randint(*CERTIFY_N)))
    elif workload == "render":
        # one block in each eighth of the row: the cost of a pixel depends
        # on where it lies relative to the cover's enclosures
        per_stratum = ROW_PIXELS // BLOCK // RENDER_BLOCKS
        inputs = [("block", key, -(ROW_PIXELS // 2)
                   + BLOCK * (k * per_stratum + rng.randrange(per_stratum)))
                  for key, *_ in RENDER_PARAMS for k in range(RENDER_BLOCKS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(inputs)
    return inputs


class Undecided(Exception):
    """qal answered 'undecided' (None, or its own undecided error)."""


@dataclass
class Op:
    name: str
    run: object  # (QueryLedger) -> answer
    check: object  # (answer) -> error string or None


def _frac(d) -> Fraction:
    """A qal Dyadic as a Fraction, from its mantissa and exponent."""
    return Fraction(d.man) * Fraction(2) ** d.exp


def _interval(iv) -> tuple:
    return _frac(iv.lo), _frac(iv.hi)


class Workload:
    """Set-up state: the ops of one round and anything built for them."""

    def __init__(self, name: str, inputs: list):
        import qal

        self.qal = qal
        self.setup_units = 0  # charged while render's certificates are built
        self.oracles = {}
        self._refs = {}
        self._undecided = (qal.ApproximationFailed, qal.OracleFault)
        if name == "render":
            self._build_render_oracles()
        self.ops = [getattr(self, f"_op_{item[0]}")(*item[1:]) for item in inputs]

    # -- solve ---------------------------------------------------------------

    def _op_eps(self, n: int) -> Op:
        q = self.qal

        def run(ledger):
            o = q.epsilon_family(n)
            answer = o.query(QUERY_BITS, ledger)
            return _frac(answer), q.essential_period(o, ledger)

        def check(answer):
            a, pe = answer
            lo, hi = ref.contract_bracket(a, QUERY_BITS)
            err = ref.check_center_bracket(lo, hi, 3 * n + 2)
            if err:
                return err
            try:
                visits = ref.eps_visits(lo, hi, n)
            except ValueError as exc:
                return str(exc)
            cands = ref.essential_period_candidates(visits, 3 * n + 2)
            return ref.check_essential_period(pe, cands)

        return Op(f"eps:{n}", self._decided(run), check)

    def _op_count(self, period: int) -> Op:
        q = self.qal

        def run(ledger):
            found = 0
            while found <= ref.PRIMITIVE_CENTRES[period]:
                try:
                    q.superstable_center(period, found)
                except q.OracleFault as exc:
                    if "out of range" not in str(exc):
                        raise
                    break
                found += 1
            return found

        def check(found):
            want = ref.PRIMITIVE_CENTRES[period]
            return None if found == want else \
                f"{found} real primitive period-{period} centres, expected {want}"

        return Op(f"count:{period}", run, check)

    def _op_centre(self, period: int, index: int) -> Op:
        q = self.qal

        def run(ledger):
            o = q.superstable_center(period, index)
            answer = o.query(QUERY_BITS, ledger)
            cert = q.detect_renormalization(o, period, ledger)
            if cert is None:
                return None
            return _frac(answer), cert.period, cert.tau.period, cert.tau.perm

        def check(answer):
            a, renorm_period, tau_period, perm = answer
            err = ref.check_center_bracket(*ref.contract_bracket(a, QUERY_BITS),
                                           period)
            if err:
                return err
            if period % renorm_period:
                return f"renormalization period {renorm_period} does not divide {period}"
            return ref.check_unimodal_cycle(tau_period, perm, renorm_period)

        return Op(f"centre:{period}:{index}", self._decided(run), check)

    def _op_window(self, period: int) -> Op:
        q = self.qal

        def run(ledger):
            win = q.window_endpoints(period)
            if win.tau is None:
                return None
            return (_interval(win.left), _interval(win.right),
                    win.tau.period, win.tau.perm)

        def check(answer):
            left, right, tau_period, perm = answer
            return ref.check_window3(left, right) or \
                ref.check_unimodal_cycle(tau_period, perm, period)

        return Op(f"window:{period}", self._decided(run), check)

    def _op_feigenbaum(self, bits: int) -> Op:
        q = self.qal

        def run(ledger):
            return _frac(q.feigenbaum_limit().query(bits, ledger))

        return Op(f"feigenbaum:{bits}", run,
                  lambda a: ref.check_feigenbaum(a, bits))

    # -- certify ---------------------------------------------------------------

    def _op_cycle(self, period: int, c: Fraction, n: int) -> Op:
        q = self.qal
        dyadic = q.Dyadic(c.numerator, 1 - c.denominator.bit_length())

        def run(ledger):
            out = q.approximate(q.oracle_exact(dyadic), n, ledger=ledger)
            return [_frac(p) for p in out.points]

        return Op(f"cycle:{period}:{c}:{n}", run,
                  lambda pts: ref.check_cycle_points(c, period, n, pts))

    # -- render ----------------------------------------------------------------

    def _build_render_oracles(self):
        q = self.qal
        build = {"exact": lambda man, exp: q.oracle_exact(q.Dyadic(man, exp)),
                 "superstable": q.superstable_center,
                 "eps": q.epsilon_family}
        for key, kind, args, hint_period, case in RENDER_PARAMS:
            o = build[kind](*args)
            hints = q.Hints(hint_period, case)
            # the first pixel builds and caches the certificate
            ledger = q.QueryLedger()
            pixel = q.Interval(q.Dyadic(0), q.Dyadic(0))
            q.render(o, RENDER_N, pixel, hints, ledger=ledger)
            self.setup_units += ledger.total_units
            self.oracles[key] = (o, hints)

    def _reference_attractor(self, key: str) -> ref.Attractor:
        if key not in self._refs:
            self._refs[key] = self._make_reference(key)
        return self._refs[key]

    def _make_reference(self, key: str) -> ref.Attractor:
        """The attractor of a render parameter, known apart from qal."""
        if key == "c=-1":
            return ref.Attractor.from_brackets([(Fraction(0), Fraction(0)),
                                                (Fraction(-1), Fraction(-1))])
        if key == "c=-1/2":
            return ref.Attractor.from_brackets([ref.fixed_point_alpha(Fraction(-1, 2))])
        if key == "c=-9/8":
            return ref.Attractor.from_brackets(ref.two_cycle(Fraction(-9, 8)))
        if key == "c=-2":
            return ref.Attractor([], interval=True)
        # superstable centre: the orbit of 0 over the contract bracket, once
        # Q_q is seen to change sign across that bracket
        o, _ = self.oracles[key]
        period = o.known_critical_period
        lo, hi = ref.contract_bracket(_frac(o.query(QUERY_BITS)), QUERY_BITS)
        err = ref.check_center_bracket(lo, hi, period)
        if err:
            raise ValueError(f"{key}: {err}")
        orbit = ref.critical_orbit(ref.fix_hull(lo, hi), period)
        return ref.Attractor(orbit[:period])

    def _op_block(self, key: str, first: int) -> Op:
        q = self.qal
        o, hints = self.oracles[key]
        view = q.Interval(q.Dyadic(first, -RENDER_N),
                          q.Dyadic(first + BLOCK - 1, -RENDER_N))

        def run(ledger):
            return q.render(o, RENDER_N, view, hints, ledger=ledger)

        def check(pgm):
            head = f"{BLOCK} 1\n255\n".encode()
            at = pgm.find(head)
            if not pgm.startswith(b"P5\n") or at < 0:
                return "malformed P5 header"
            row = pgm[at + len(head):]
            if len(row) != BLOCK or set(row) - {0, 255}:
                return f"row of {len(row)} bytes, values {sorted(set(row))}"
            try:
                att = self._reference_attractor(key)
            except ValueError as exc:
                return str(exc)
            return ref.check_pixels(att, RENDER_N, first,
                                    bytes(1 if b == 0 else 0 for b in row))

        return Op(f"block:{key}:{first}", run, check)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _decided(run):
        def decided(ledger):
            answer = run(ledger)
            if answer is None or answer[-1] is None:
                raise Undecided("qal answered undecided")
            return answer
        return decided

    def is_undecided(self, exc: Exception) -> bool:
        return isinstance(exc, (Undecided,) + self._undecided)
