"""Benchmark of qal: the solve, certify and render workloads.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, sets up, then repeats whole
rounds of the workload's ops until --seconds have passed, checking every
answer against bench/reference.py.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is traced and the
metrics are per module (see README.md).  --workload all runs each workload
in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

from fractions import Fraction

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9  # fresh processes whose set-up time gives setup_s

# The speed of the machine this was written on (a 2-core 2.1 GHz Xeon VM)
# drifts by up to 2x over tens of seconds, and every timing drifts with it.
# A calibration slice of fixed big-integer arithmetic from reference.py,
# which shares no code with qal, is timed before and after every timed op
# and every SAMPLE_S while it runs; each time is reported at the speed where
# a slice takes CAL_REF_NS.  The ratio of an op to its slices kept an
# interquartile spread of 3% over 5 s windows where the raw op times spread
# by 26%.
CAL_REPS = 40
CAL_REF_NS = 2_000_000  # a slice on that VM, between its fast and slow phases
SAMPLE_S = 0.05
_CAL_C = reference.fix(Fraction(-1759, 1000))


def calibration_slice() -> int:
    """ns taken by a fixed piece of work that does not use qal."""
    t0 = time.perf_counter_ns()
    for _ in range(CAL_REPS):
        reference.critical_orbit(_CAL_C, 40)
    return time.perf_counter_ns() - t0


def at_reference_speed(ns: int, slices: list) -> float:
    """ns rescaled by the calibration slices taken around and during it."""
    return ns * CAL_REF_NS / statistics.fmean(slices)


class InOpSlices:
    """Calibration slices taken every SAMPLE_S (on SIGALRM) while an op runs.

    solve has ops of several seconds, over which the machine's speed moves;
    slices at an op's two ends alone misjudged them by up to 35%.  The time
    spent in the handler is taken off the op's time.
    """

    def __init__(self):
        self.slices = []
        self.spent = 0

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.slices.append(calibration_slice())
        self.spent += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _import_qal():
    """Put the checkout's src/ first on the path; exit 1 if qal is missing."""
    sys.path.insert(0, SRC)
    try:
        import qal
    except ImportError as exc:
        sys.exit(f"bench: cannot import qal from {SRC}: {exc}")
    if not os.path.abspath(qal.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: qal was imported from {qal.__file__}, not {SRC}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Rounds:
    """Runs whole rounds of a workload's ops and keeps what they measured."""

    def __init__(self, workload):
        from qal import QueryLedger

        self.workload = workload
        self.ledger_type = QueryLedger
        self.walls = []  # ns per round, the sum of its op times
        self.op_ns = [[] for _ in workload.ops]  # per op, one time a round
        self.speed = []  # reference slice time over measured, per op
        self.units = []  # oracle units per round
        self.max_precision = []
        self.attempted = self.failed = self.wrong = 0
        self._reported = set()

    def run_round(self):
        wall = units = max_p = 0
        before = calibration_slice()
        for op, times in zip(self.workload.ops, self.op_ns):
            ledger = self.ledger_type()
            self.attempted += 1
            t0 = time.perf_counter_ns()
            with InOpSlices() as during:
                try:
                    answer = op.run(ledger)
                    error = None
                except Exception as exc:  # an op that raises fails; go on
                    answer, error = None, exc
            dt = time.perf_counter_ns() - t0 - during.spent
            after = calibration_slice()
            scaled = at_reference_speed(dt, [before, after] + during.slices)
            self.speed.append(scaled / dt)
            before = after
            wall += scaled
            times.append(scaled)
            units += ledger.total_units
            max_p = max(max_p, ledger.max_precision)
            if error is not None:
                self.failed += 1
                self._report(op, "undecided" if self.workload.is_undecided(error)
                             else "error", error)
                continue
            mismatch = op.check(answer)
            if mismatch:
                self.failed += 1
                self.wrong += 1
                self._report(op, "wrong answer", mismatch)
        self.walls.append(wall)
        self.units.append(units)
        self.max_precision.append(max_p)

    def _report(self, op, kind: str, detail):
        if op.name in self._reported:
            return
        self._reported.add(op.name)
        print(f"bench: {op.name}: {kind}: {detail}", file=sys.stderr)
        if isinstance(detail, Exception) and kind == "error":
            traceback.print_exception(detail, file=sys.stderr)

    def repeat(self, seconds: float):
        """Whole rounds until `seconds` have passed (at least one)."""
        end = time.perf_counter() + seconds
        self.run_round()
        while time.perf_counter() < end:
            self.run_round()

    def wall_s(self) -> float:
        return statistics.median(self.walls) / 1e9

    def op_ms(self) -> tuple:
        """50th and 90th percentiles over the ops of each op's median time.

        Taking each op's median first keeps the percentiles from depending
        on how many rounds a run held; with few ops a round (solve has 13)
        the pooled percentiles jumped between neighbouring ops.
        """
        medians = [statistics.median(t) / 1e6 for t in self.op_ns]
        deciles = statistics.quantiles(medians, n=10, method="inclusive")
        return statistics.median(medians), deciles[8]


def setup(workload_name: str, seed: int):
    from workloads import Workload, make_inputs
    return Workload(workload_name, make_inputs(workload_name, seed))


def measure_setup(args) -> float:
    """Median time, in s, from starting a fresh process to the end of set-up."""
    samples = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        before = calibration_slice()
        t0 = time.perf_counter_ns()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter_ns()
            child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"bench: set-up of {args.workload} failed in a fresh process")
        samples.append(at_reference_speed(t1 - t0, [before, calibration_slice()]))
    return statistics.median(samples) / 1e9


def end_to_end(args) -> str:
    setup_s = measure_setup(args)
    wl = setup(args.workload, args.seed)
    rounds = Rounds(wl)
    rounds.repeat(args.seconds)
    p50, p90 = rounds.op_ms()
    units = wl.setup_units if args.workload == "render" else rounds.units[0]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(rounds.wall_s(), "s"),
        "op_ms.p50": _metric(p50, "ms"),
        "op_ms.p90": _metric(p90, "ms"),
        "oracle_units": _metric(units, "units"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if len(set(rounds.units)) > 1:
        print(f"bench: oracle units differ between rounds: {rounds.units}",
              file=sys.stderr)
    print(f"bench: {args.workload}: median speed factor "
          f"{statistics.median(rounds.speed):.4f}", file=sys.stderr)
    return _result(rounds.wrong == 0, rounds.attempted, rounds.failed, metrics)


def traced(args) -> str:
    """Untraced rounds for half the time, then traced rounds for the rest."""
    from tracing import Tracer, per_layer_names

    wl = setup(args.workload, args.seed)
    plain = Rounds(wl)
    plain.repeat(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    spanned = Rounds(wl)
    summaries = []
    end = time.perf_counter() + args.seconds / 2
    try:
        while not summaries or time.perf_counter() < end:
            mark = tracer.mark()
            spanned.run_round()
            summaries.append(tracer.summary(mark))
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    first = summaries[0]
    for later in summaries[1:]:
        moved = [k for k in first if not k.endswith(".self_s") and later[k] != first[k]]
        if moved:
            print(f"bench: counts differ between traced rounds: {moved}",
                  file=sys.stderr)
    metrics = {}
    for name in per_layer_names():
        if name.endswith(".self_s"):
            metrics[name] = _metric(statistics.median(s[name] for s in summaries), "s")
        elif name in first:
            metrics[name] = _metric(first[name], "count")
    metrics["oracle.units"] = _metric(spanned.units[0], "units")
    metrics["oracle.max_precision_bits"] = _metric(spanned.max_precision[0], "bits")
    metrics["trace.overhead"] = _metric(spanned.wall_s() / plain.wall_s(), "ratio")
    wrong = plain.wrong + spanned.wrong
    return _result(wrong == 0, plain.attempted + spanned.attempted,
                   plain.failed + spanned.failed, metrics)


def run_all(args) -> str:
    """Each workload in a fresh process; metrics are prefixed by workload."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"bench: workload {name} exited {done.returncode}")
        line = done.stdout.strip().splitlines()[-1]
        print(f"{name}: {line}")
        res = json.loads(line)
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return _result(correct, attempted, failed, metrics)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        print(run_all(args))
        return 0
    _import_qal()
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    print(traced(args) if args.trace else end_to_end(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
