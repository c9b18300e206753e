"""The mutation table: each mutant of src/qal must fail the tests it names.

Run from the repository root:

    python tests/mutants.py

Each row of MUTANTS is (file, old text, new text, tests).  For each row the
script copies src/, tests/ and pyproject.toml to a temporary directory,
replaces the one occurrence of the old text in the file with the new text,
and runs the named tests there, with hypothesis seeded so that every run
draws the same examples.  It exits non-zero when a mutant survives (its
tests pass), when the old text does not occur in the file exactly once,
when a row's tests end in an error rather than a failure, or when the named
tests fail on the unmutated copy.  A refactor that moves a row's code
carries the row along.  Standard library only; pytest and hypothesis are
the test suite's own.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DYN = "tests/test_dynamics.py"
NEWTON = DYN + "::TestIntervalNewton::"
CYCLE = DYN + "::TestCycleCertification::"
SQUEEZE = CYCLE + "test_each_point_enclosure_holds_a_root"
CENTRES = "tests/test_params.py::TestSuperstableCenters::"
INTERVAL = "tests/test_dyadic.py::TestInterval::"
PULLBACK = ("tests/test_renorm.py::TestLevelPullback"
            "::test_the_pullback_of_an_orbit_encloses_its_start")
COVER = "tests/test_attractor.py::TestNestedCycleCover::"
RENORM = "tests/test_renorm.py::TestRenormalization::"
ESSENTIAL = "tests/test_renorm.py::TestEssentialStructure::"

MUTANTS = [
    # the one interval Newton (qal.solver), its closures on G = P^n - id,
    # and the outward quotient it shares with the 2x2 parabolic Newton
    # (qal.dyadic)
    ("dyadic.py", "-min(-a0 // b0, -a0 // b1, -a1 // b0, -a1 // b1)",
     "max(a0 // b0, a0 // b1, a1 // b0, a1 // b1)",
     [INTERVAL + "test_fixed_quotient_sound", SQUEEZE]),
    ("dynamics.py", "return dl - one, dh - one", "return dl, dh",
     [CYCLE + "test_a_multiplier_near_one_certifies"]),
    # the cycle search (qal.dynamics): the strict -1 < multiplier (the
    # closed form's 2 alpha among them), the relative doubling that ends a
    # walk, the disjoint images that fix the period, and the parse's
    # symbols past 32 and its climb where '?' cuts them short
    ("dynamics.py", "not -one < orbit[-1][2][0]",
     "not -one <= orbit[-1][2][0]",
     [CYCLE + "test_a_multiplier_of_minus_one_is_not_attracting"]),
    ("dynamics.py", 'for k, A in enumerate(levels + ["L"]):',
     "for k, A in enumerate(levels):",
     [CYCLE + "test_both_sides_of_a_doubling_certify"]),
    ("dynamics.py",
     "    return all(a[1] < b[0] for a, b in zip(ends, ends[1:]))\n",
     "    return True\n",
     [CYCLE + "test_a_multiple_of_the_period_is_not_certified"]),
    ("dynamics.py", "2 * max_period + 2, []", "32, []",
     [CYCLE + "test_a_window_of_any_period_up_to_max_period_certifies"]),
    ("dynamics.py",
     "            raise _Undecided(\"the kneading runs into '?'\")\n",
     "            return None\n",
     [CYCLE + "test_a_window_of_any_period_up_to_max_period_certifies"]),
    ("solver.py", "unique = unique or lo < nlo and nhi < hi", "unique = True",
     [NEWTON + "test_unique_once_a_step_lands_strictly_inside"]),
    ("solver.py", "        if nlo > hi or nhi < lo:\n            return None\n",
     "", [NEWTON + "test_a_box_without_a_root_gives_none"]),
    ("solver.py", "        if dl <= 0 <= dh:\n            break\n", "",
     [NEWTON + "test_a_box_where_the_derivative_may_vanish_comes_back_whole"]),
    # the centre's kneading sign, which its Newton oracle's bisection reads
    ("params.py", "return lambda x, p: kneading_order(",
     "return lambda x, p: -kneading_order(",
     [CENTRES + "test_bracket_selector"]),
    ("params.py", "probe.pred, probe.bracket,",
     "lambda x, pr: (lambda v: (v.lo.sign > 0) - (v.hi.sign < 0))("
     "critical_value_eval(Interval.point(x), n, pr)[0]), probe.bracket,",
     [CENTRES + "test_a_long_expanding_word_is_signed_by_its_kneading"]),
    # the integer orbit kernel (qal.dyadic.fixed_orbit)
    ("dyadic.py", "-((-sh - ch) >> s) << up", "((sh + ch) >> s) << up",
     [INTERVAL + "test_quad_step_sound"]),
    ("dyadic.py", "else (0, max(a2, b2))", "else (min(a2, b2), max(a2, b2))",
     [INTERVAL + "test_quad_step_is_tightest_outward"]),
    ("dyadic.py", "a, s, up = add << 2 * q,", "a, s, up = add,",
     [INTERVAL + "test_deriv_step_is_tightest_outward"]),
    # the cost model and the exact critical period (qal.oracle)
    ("oracle.py",
     "        if m not in self._cache:\n"
     "            self._cache[m] = self._answer(m)\n"
     "        ans = self._cache[m]\n"
     "        if ledger is not None:\n",
     "        hit = m in self._cache\n"
     "        if not hit:\n"
     "            self._cache[m] = self._answer(m)\n"
     "        ans = self._cache[m]\n"
     "        if ledger is not None and not hit:\n",
     ["tests/test_oracle.py::TestLedger"
      "::test_charges_every_query_including_cache_hits"]),
    ("oracle.py", "{ZERO: 1, Dyadic(-1): 2}", "{ZERO: 1, Dyadic(-2): 2}",
     ["tests/test_oracle.py::TestExactCriticalPeriod"
      "::test_the_rule_is_the_loop_on_integers"]),
    # kneading words and the nest's pullback (qal.renorm)
    ("renorm.py", "return all(_order(w[j:], w) == 1",
     "return True or all(_order(w[j:], w) == 1",
     [CENTRES + "test_every_real_centre_is_found"]),
    ("renorm.py", "1 + isqrt((rh << q) - 1)", "isqrt(rh << q)", [PULLBACK]),
    ("renorm.py", "if prod(signs) < 0:", "if prod(signs) < -1:", [PULLBACK]),
    ("renorm.py",
     "            return _nest_at_precision(o, p, max_depth, ledger)\n"
     "        except _Undecided:\n            pass\n"
     "        except OracleFault:\n",
     "            return _nest_at_precision(o, p, max_depth, ledger)\n"
     "        except _Undecided:\n            pass\n"
     "        except _NestStop:\n",
     ["tests/test_renorm.py::TestNestUndecided"
      "::test_an_oracle_fault_is_undecided"]),
    # the symmetric trap that the case-3 cover and the renormalization
    # certificate share: one-sided, and without its escape exit
    # (qal.dynamics)
    ("dynamics.py", "return (q, chain) if -k < lo and hi < k else None",
     "return (q, chain) if hi < k else None",
     [COVER + "test_the_cover_is_forward_invariant"]),
    ("dynamics.py",
     "        if hi > four or lo < -four:\n            return None\n", "",
     [DYN + "::TestSymmetricTrap::test_an_escape_ends_the_run"]),
    # the case-3 cover: its stop at the first limit and its one climb of the
    # query precision (qal.attractor)
    ("attractor.py",
     "            except OracleFault as exc:\n"
     "                raise ApproximationFailed(\n",
     "            except OracleFault as exc:\n"
     "                trap = (0, [(-1, 1)] * P)  # the next period\n"
     "                break\n"
     "                raise ApproximationFailed(\n",
     [COVER + "test_a_give_up_names_the_first_period_that_failed"]),
    ("attractor.py", "        trap = None\n        while trap is None:\n",
     "        trap, m = None, n + 10\n        while trap is None:\n",
     [COVER + "test_the_feigenbaum_ledgers"]),
    # the one window search: the cycle period in the locate step, the
    # renormalization's disjoint images, K read in growing lengths
    # (qal.renorm)
    ("renorm.py", "max_period, ledger, cycle_period=q)",
     "max_period, ledger, cycle_period=None)",
     [RENORM + "test_the_cycle_decides_a_right_end_word"]),
    ("renorm.py",
     "    if any(a[1] > b[0] for a, b in zip(ends, ends[1:])):\n"
     "        return None\n", "",
     [RENORM + "test_a_trap_whose_images_overlap_is_no_renormalization"]),
    ("renorm.py", "for length in (64, 512, _PREFIX_CAP):",
     "for length in (64,):",
     ["tests/test_params.py::TestWindowLocate"
      "::test_a_parameter_near_an_end_reads_a_long_prefix"]),
    # the critical orbit on ints: its [-2, 2] clamp, the kneading sign read
    # off the ints, and the nest's lazy read up to _MAX_RETURN; the parse
    # before the cycle in the locate step (qal.dynamics, qal.renorm)
    ("dynamics.py", "if clamp and (lo < -two <= hi or lo <= two < hi):",
     "if False:",
     [DYN + "::TestCriticalSteps"
      "::test_a_bracket_that_straddles_minus_2_is_clamped"]),
    ("renorm.py", "_SYMBOL[(lo > 0) - (hi < 0)]",
     "_SYMBOL[(lo >= 0) - (hi < 0)]",
     [DYN + "::TestCriticalSteps::test_an_exact_zero_reads_undecided"]),
    ("renorm.py", "_orbit_reader(c, _MAX_RETURN, p)",
     "_orbit_reader(c, 64, p)",
     ["tests/test_renorm.py::TestPrincipalNest"
      "::test_a_late_first_return_is_read"]),
    ("renorm.py", "        if decided:\n            return words, decided\n",
     "", [RENORM + "test_a_decided_parse_certifies_no_cycle"]),
    # J by pullback: Aitken steps from just below |alpha| and every
    # |P^k(0)|; alpha in closed form on the nest's one range-checked read;
    # J's cycle as long as its first return (qal.renorm)
    ("renorm.py", "y = t0 - (t1 - t0) ** 2 // d if d else t2", "y = t2",
     [RENORM + "test_only_the_parsed_period_is_certified"]),
    ("renorm.py", "ends = [_alpha(c, p), *", "ends = [*",
     [RENORM + "test_only_the_parsed_period_is_certified"]),
    ("renorm.py", ", *_critical_enclosures(c, len(signs), p)[1:]]", "]",
     [RENORM + "test_every_centre_certifies_the_type_its_parse_names"]),
    ("renorm.py", "one - 1 - isqrt(max(0, ((one - 4 * cl) << q) - 1))",
     "one - isqrt(max(0, (one - 4 * cl) << q))",
     ["tests/test_renorm.py::TestAlphaClosedForm"
      "::test_the_box_holds_the_smaller_fixed_point"]),
    ("renorm.py", "c = check_range(o.enclosure(p, ledger))\n    alpha",
     "c = o.enclosure(p, ledger)\n    alpha",
     [ESSENTIAL + "test_a_parameter_outside_the_range_is_refused"]),
    ("renorm.py", "while len(cycle) < period:", "while len(cycle) <= period:",
     [ESSENTIAL + "test_the_cycle_of_j_is_its_first_return_long"]),
    # the 2x2 parabolic Newton on ints: its determinant's corners, its
    # strict inclusion test (qal.params); the escape count's upward
    # rounding and its step-limit exit (qal.dynamics)
    ("params.py", "return min(m) - max(k), max(m) - min(k)",
     "return min(m) - min(k), max(m) - max(k)",
     ["tests/test_params.py::TestWindowEndpoints"
      "::test_period_two_right_endpoint_closed_form"]),
    ("params.py", "(cl < nc[0] and nc[1] < ch\n"
     "                                      and wl < nw[0] and nw[1] < wh)",
     "(cl <= nc[0] and nc[1] <= ch\n"
     "                                      and wl <= nw[0] and nw[1] <= wh)",
     ["tests/test_params.py::TestWindowEndpoints"
      "::test_a_point_box_at_an_exactly_dyadic_end_is_not_certified"]),
    ("dynamics.py", "1 if mode == UP else 0", "0",
     [DYN + "::TestEscapeTime::test_the_count_is_the_dyadic_loop"]),
    ("dynamics.py",
     "        if n_hi is None:\n            raise PrecisionExhausted(\n",
     "        if False:\n            raise PrecisionExhausted(\n",
     [DYN + "::TestEscapeTime"
      "::test_the_step_limit_ends_the_run_at_its_first_rung"]),
    # a cached render charged as often as it is asked (qal.attractor)
    ("attractor.py", "ledger.add(cost, times)", "ledger.add(cost)",
     ["tests/test_attractor.py::TestRender"
      "::test_render_is_pixel_query_on_every_cover"]),
]


def run_tests(tree: Path, tests: list) -> int:
    """pytest's exit code for tests in tree, on tree's own src/."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--hypothesis-seed=0", *tests]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_tree(dest: Path):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def main() -> int:
    start, faults = time.perf_counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for *_, ts in MUTANTS for t in ts})
        if run_tests(base, tests) != 0:
            faults.append("the named tests do not pass on the unmutated tree")
        for k, (name, old, new, ts) in enumerate(MUTANTS):
            path = Path("src/qal") / name
            text = (ROOT / path).read_text()
            label = f"row {k}: {name}: {old.strip()[:60]!r}"
            if text.count(old) != 1:
                faults.append(f"{label}: old text occurs "
                              f"{text.count(old)} times")
                continue
            tree = Path(tmp) / f"m{k}"
            copy_tree(tree)
            (tree / path).write_text(text.replace(old, new))
            code = run_tests(tree, ts)
            shutil.rmtree(tree)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
            print(f"{verdict:9} {label}", flush=True)
            if code != 1:
                faults.append(f"{label}: {verdict}")
    print(f"{len(MUTANTS)} rows, {len(faults)} faults, "
          f"{time.perf_counter() - start:.0f} s")
    for fault in faults:
        print("FAULT", fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
