"""Command-line surface tying the library together.

Exit codes: 0 success, 2 validation error (including a random matrix draw
with a zero column or a zero noise direction), 3 capacity/budget error (a
subset budget, or the ceiling on a run's trials), an allocation that
failed for lack of memory, or a failed worker pool (a pool
worker died, e.g. killed for lack of memory), 4 guarantee violation (a
proven property failed, i.e. an implementation bug). `main` is the one place
that decides them: a command function returns nothing and reports a failure
by raising.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace

from .experiments import (
    lemma_sweep,
    phase_table,
    read_config,
    save_failure_instance,
    sharpness_probe,
    theorem1_validation,
    write_rows_csv,
)
from .linalg import SingularSystemError, read_matrix, read_vector
from .omp import GuaranteeViolation, StopRule, omp_result_json, omp_run, write_trace_csv
from .ripcheck import (
    DEFAULT_SUBSET_BUDGET,
    CapacityError,
    check_theorem1_conditions,
    condition_verdict_json,
    exact_ric,
    ric_report_json,
)
from .sensing import read_signal

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_GUARANTEE = 4


def _cmd_ric(args):
    A = read_matrix(args.matrix)
    report = exact_ric(A, args.order, budget=args.budget)
    print(ric_report_json(report))


def _cmd_omp(args):
    A = read_matrix(args.matrix)
    y = read_vector(args.measurement)
    if args.max_iter is not None:
        rule = StopRule.max_iterations(args.max_iter)
    else:
        rule = StopRule.residual_at_most(args.eps)
    result = omp_run(A, y, rule)
    if args.trace:
        write_trace_csv(args.trace, result)
    print(omp_result_json(result))


def _cmd_check(args):
    A = read_matrix(args.matrix)
    signal = read_signal(args.signal)
    verdict = check_theorem1_conditions(A, signal, args.eps)
    print(condition_verdict_json(verdict))


def _run_grid(args, harness):
    """Read the config, apply --parallelism, run the harness, write the CSV."""
    config = read_config(args.config)
    if args.parallelism is not None:
        config = replace(config, parallelism=args.parallelism)
    rows = harness(config)
    write_rows_csv(args.out, rows)
    return rows


def _cmd_validate_theorem1(args):
    rows = _run_grid(args, theorem1_validation)
    held = sum(r.conditions_held_count or 0 for r in rows)
    print(f"wrote {len(rows)} cells to {args.out}; "
          f"{held} condition-holding trials, 0 failures")


def _cmd_phase(args):
    rows = _run_grid(args, phase_table)
    print(f"wrote {len(rows)} cells to {args.out}")


def _cmd_sharpness(args):
    # --budget and --seed steered a former search and change nothing; a given
    # --budget stays validated so existing command lines keep exit codes.
    if args.budget is not None and args.budget < 1:
        raise ValueError("--budget must be positive")
    found = sharpness_probe(args.k, args.t)
    report = {"found": found is not None, "k": args.k, "t": args.t}
    if found is not None:
        save_failure_instance(args.out, found)
        report.update(verified_delta=found.verified_delta,
                      sharp_bound=found.sharp_bound, directory=args.out)
    print(json.dumps(report, indent=2))


def _cmd_lemmas(args):
    report = lemma_sweep(args.seed, args.instances)
    print(json.dumps(asdict(report), indent=2))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="omplab",
        description="Sparse-recovery laboratory: orthogonal matching pursuit "
        "with exact restricted-isometry analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ric", help="exact RIC of a matrix at a given order")
    p.add_argument("--matrix", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(func=_cmd_ric)

    p = sub.add_parser("omp", help="run the solver on a measurement")
    p.add_argument("--matrix", required=True)
    p.add_argument("--measurement", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max-iter", type=int, default=None)
    group.add_argument("--eps", type=float, default=None)
    p.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p.set_defaults(func=_cmd_omp)

    p = sub.add_parser("check", help="evaluate the recovery conditions")
    p.add_argument("--matrix", required=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_check)

    for name, func, help_text in (
        ("validate-theorem1", _cmd_validate_theorem1,
         "Monte Carlo validation of the recovery guarantee"),
        ("phase", _cmd_phase, "unconditioned success-rate table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--parallelism", type=int, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser(
        "sharpness", help="build and verify a greedy-failure instance at RIC = t"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    unused = "accepted for compatibility; does not affect the result"
    p.add_argument("--budget", type=int, help=unused)
    p.add_argument("--seed", type=int, help=unused)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("lemmas", help="randomized sweep of the four lemmas")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--instances", type=int, required=True)
    p.set_defaults(func=_cmd_lemmas)

    return parser


@functools.cache
def _parser():
    """The parser ``main`` reads, built once per process: a program may call
    ``main`` many times, and each build costs about a millisecond."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except BrokenProcessPool as exc:
        print(f"worker pool failed: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GuaranteeViolation as exc:
        print(f"guarantee violation: {exc}", file=sys.stderr)
        return EXIT_GUARANTEE
    except (ValueError, IndexError, ArithmeticError, SingularSystemError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
