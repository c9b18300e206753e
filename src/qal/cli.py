"""Command-line surface and the resolution-vs-cost profiler.

Subcommands: classify, approx, render, windows, essperiod, profile, escape.
Exit codes: 0 certified, 2 undecided at the given budget, 1 error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import random
import statistics
import sys
import time
from fractions import Fraction

from .attractor import (ApproximationFailed, Budget, Hints, approximate,
                        classify, pixel_query, render)
from .dyadic import Dyadic, Interval
from .dynamics import ParameterRangeError, PrecisionExhausted, escape_time
from .oracle import OracleFault, ParamOracle, QueryLedger, oracle_exact
from .params import (_centre_of, _centre_words, _window_at,
                     epsilon_family, feigenbaum_limit, superstable_center,
                     window_endpoint_oracle)
from .renorm import essential_period

EXIT_OK, EXIT_ERROR, EXIT_UNDECIDED = 0, 1, 2

PROFILE_HEADER = ["parameter", "n", "wall_nanos", "oracle_units",
                  "max_precision", "outcome"]
WINDOWS_HEADER = ["period", "l_lo", "l_hi", "r_lo", "r_hi", "tau"]
ESCAPE_HEADER = ["epsilon", "N", "N_sqrt_eps"]
# what a profile run reports as a failed row instead of ending the sweep
_FAULTS = (OracleFault, ParameterRangeError, ValueError)


def parse_oracle(spec: str) -> ParamOracle:
    """Build an oracle from the --c grammar.

    exact:<dyadic> | superstable:<period>[:index] |
    window-left:<period>[:index] | window-right:<period>[:index] |
    eps-family:<n> | feigenbaum
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "exact":
            return oracle_exact(Dyadic.parse(rest))
        if head in ("superstable", "window-left", "window-right"):
            parts = rest.split(":")
            period = int(parts[0])
            index = int(parts[1]) if len(parts) > 1 else None
            if head == "superstable":
                return superstable_center(period, index)
            return window_endpoint_oracle(period, head[len("window-"):], index)
        if head == "eps-family":
            return epsilon_family(int(rest))
        if head == "feigenbaum" and not rest:
            return feigenbaum_limit()
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed oracle spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown oracle spec {spec!r}")


def expand_specs(specs: list[str]) -> list[str]:
    """Range sugar for sweeps: eps-family:1..5 or superstable:2..6."""
    out = []
    for spec in specs:
        head, _, rest = spec.partition(":")
        if ".." in rest and ":" not in rest:
            a, _, z = rest.partition("..")
            out.extend(f"{head}:{i}" for i in range(int(a), int(z) + 1))
        else:
            out.append(spec)
    return out


def _budget(args) -> Budget:
    kw = {}
    if args.max_period is not None:
        kw["max_period"] = args.max_period
    if args.max_precision is not None:
        kw["max_precision"] = args.max_precision
    return Budget(**kw)


def _hints(args) -> Hints:
    return Hints(period=args.hint_period, case=args.hint_case)


def _resolutions(args) -> list[int]:
    if args.n_range:
        a, _, z = args.n_range.partition("..")
        return list(range(int(a), int(z) + 1))
    if args.n is None:
        raise ValueError("this subcommand needs --n or --n-range")
    return [args.n]


def _emit(payload: bytes | str, out: str | None):
    if out:
        mode = "wb" if isinstance(payload, bytes) else "w"
        with open(out, mode) as fh:
            fh.write(payload)
    elif isinstance(payload, bytes):
        sys.stdout.buffer.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_classify(args) -> int:
    o = parse_oracle(args.c)
    cls = classify(o, _hints(args), _budget(args))
    if cls is None:
        print("undecided")
        return EXIT_UNDECIDED
    print(cls.describe())
    return EXIT_OK


def cmd_approx(args) -> int:
    o = parse_oracle(args.c)
    (n,) = _resolutions(args)
    result = approximate(o, n, _hints(args), _budget(args))
    _emit("".join(f"{pt}\n" for pt in result.points), args.out)
    return EXIT_OK


def cmd_render(args) -> int:
    o = parse_oracle(args.c)
    (n,) = _resolutions(args)
    lo, _, hi = (args.viewport or "-2..2").partition("..")
    viewport = Interval(Dyadic.parse(lo), Dyadic.parse(hi))
    pgm = render(o, n, viewport, _hints(args), _budget(args))
    _emit(pgm, args.out)
    return EXIT_OK


def _csv(rows: list[list], header: list[str], out: str | None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _emit(buf.getvalue(), out)


def cmd_windows(args) -> int:
    n = args.period
    if n is None:
        raise ValueError("windows needs --period")
    if n < 2:
        raise ValueError("windows have period >= 2")
    rows = []
    for i, A in enumerate(_centre_words(n)):
        try:
            win = _window_at(A, _centre_of(A, f"superstable:{n}:{i}"))
        except OracleFault as exc:
            print(f"undecided: window {n}:{i}: {exc}", file=sys.stderr)
            return EXIT_UNDECIDED
        tau = f"({','.join(map(str, win.tau.perm))})"
        rows.append([n, win.left.lo, win.left.hi,
                     win.right.lo, win.right.hi, tau])
    _csv(rows, WINDOWS_HEADER, args.out)
    return EXIT_OK


def cmd_essperiod(args) -> int:
    o = parse_oracle(args.c)
    pe = essential_period(o)
    if pe is None:
        print("undecided")
        return EXIT_UNDECIDED
    print(f"p_e={pe}")
    return EXIT_OK


def profile_row(spec: str, n: int, hints: Hints, budget: Budget) -> list:
    """One ProfileRow: the full approximate() call, median wall of 3 runs.

    Oracle units are deterministic (a fresh oracle per run replays the same
    query schedule); wall time is the only nondeterministic field.  A spec
    whose oracle cannot be built gets a failed row with zero cost.
    """
    walls, units, max_p, outcome = [], 0, 0, "ok"
    for _ in range(3):
        try:
            o = parse_oracle(spec)
        except _FAULTS:
            return [spec, n, 0, 0, 0, "failed"]
        ledger = QueryLedger()
        t0 = time.perf_counter_ns()
        try:
            approximate(o, n, hints, budget, ledger)
            outcome = "ok"
        except ApproximationFailed:
            outcome = "undecided"
        except _FAULTS:
            outcome = "failed"
        walls.append(time.perf_counter_ns() - t0)
        units, max_p = ledger.total_units, ledger.max_precision
    return [spec, n, int(statistics.median(walls)), units, max_p, outcome]


def _pixel_max_row(spec: str, n: int, hints: Hints, budget: Budget,
                   seed: int) -> list:
    """Max single-pixel cost over a 64-pixel sample, labeled '#pixel-max'."""
    label = f"{spec}#pixel-max"
    try:
        o = parse_oracle(spec)
    except _FAULTS:
        return [label, n, 0, 0, 0, "failed"]
    rng = random.Random(seed)
    worst, max_p, outcome = 0, 0, "ok"
    t0 = time.perf_counter_ns()
    for _ in range(64):
        x = Dyadic(rng.randint(-(2 << n), 2 << n), -n)
        ledger = QueryLedger()
        try:
            pixel_query(o, n, x, hints, budget, ledger)
        except ApproximationFailed:
            outcome = "undecided"
            break
        except _FAULTS:
            outcome = "failed"
            break
        worst = max(worst, ledger.total_units)
        max_p = max(max_p, ledger.max_precision)
    wall = time.perf_counter_ns() - t0
    return [label, n, wall, worst, max_p, outcome]


def cmd_profile(args) -> int:
    if not args.c:
        raise ValueError("profile needs at least one --c")
    specs = expand_specs(args.c)
    hints, budget = _hints(args), _budget(args)
    rows = []
    for spec in specs:
        for n in _resolutions(args):
            rows.append(profile_row(spec, n, hints, budget))
            if args.seed is not None:
                rows.append(_pixel_max_row(spec, n, hints, budget, args.seed))
    _csv(rows, PROFILE_HEADER, args.out)
    return EXIT_OK


def cmd_escape(args) -> int:
    if not args.eps:
        raise ValueError("escape needs at least one --eps")
    gate = Interval(Dyadic(-1, -2), Dyadic(1, -2))
    rows = []
    for text in args.eps:
        # decimal epsilons like 1e-4 are welcome; they are rounded to D_64
        eps = Dyadic.from_fraction_rounded(Fraction(text), 64)
        if not eps > Dyadic(0):
            raise ValueError(f"epsilon must be positive, got {text}")
        steps = escape_time(eps, gate)
        rows.append([text, steps, f"{steps * float(eps) ** 0.5:.6f}"])
    _csv(rows, ESCAPE_HEADER, args.out)
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "approx": cmd_approx,
    "render": cmd_render,
    "windows": cmd_windows,
    "essperiod": cmd_essperiod,
    "profile": cmd_profile,
    "escape": cmd_escape,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qal",
        description="certified attractors of x^2 + c under oracle access")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--c", action="append", default=None, metavar="SPEC",
                    help="oracle spec; repeatable for profile sweeps")
    ap.add_argument("--n", type=int)
    ap.add_argument("--n-range", metavar="A..B")
    ap.add_argument("--hint-period", type=int)
    ap.add_argument("--hint-case", choices=["1a", "1b", "1c", "2", "3"])
    ap.add_argument("--max-period", type=int)
    ap.add_argument("--max-precision", type=int)
    ap.add_argument("--period", type=int, help="window period (windows)")
    ap.add_argument("--viewport", metavar="LO..HI", help="render range")
    ap.add_argument("--eps", action="append", help="epsilon (escape)")
    ap.add_argument("--out", metavar="PATH")
    ap.add_argument("--seed", type=int)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    single = {"classify", "approx", "render", "essperiod"}
    try:
        if args.max_precision is None and "QAL_MAX_PRECISION" in os.environ:
            args.max_precision = int(os.environ["QAL_MAX_PRECISION"])
        if args.command in single:
            if not args.c or len(args.c) != 1:
                raise ValueError(f"{args.command} needs exactly one --c")
            args.c = args.c[0]
        return COMMANDS[args.command](args)
    except (ApproximationFailed, PrecisionExhausted) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (ValueError, ParameterRangeError, OracleFault, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
