"""Wall-clock benchmark harness over the scenario x backend matrix.

Usage:
    python tools/bench.py                              # full run -> BENCH_PR9.json
    python tools/bench.py --quick                      # CI smoke sizes
    python tools/bench.py --baseline BENCH_PR9.json    # run + regression gate
    python tools/bench.py --validate BENCH_PR9.json    # schema-check a report
    python tools/bench.py --compare OLD.json NEW.json  # gate two reports
    python tools/bench.py --profile                    # hot functions -> stderr

Scenarios (see ``repro.benchmark``): bulk_load, insert_burst (the
batched ``insert_many`` fast path), mixed, and stream_scan (dense file
vs. the B+-tree baseline).  Each cell reports ops/sec, logical page
accesses (the paper's metered quantity — identical on every backend),
p50/p99 latency, and the backend stack's physical counters.

Exit codes: 0 ok, 2 invalid report, 4 regression beyond the threshold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import benchmark  # noqa: E402


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _validate(path: str) -> int:
    problems = benchmark.validate_report(_load(path))
    if problems:
        print(f"{path}: INVALID")
        for problem in problems:
            print(f"  {problem}")
        return 2
    print(f"{path}: valid {benchmark.SCHEMA} report")
    return 0


def _compare(baseline_path: str, current_path: str, max_regression) -> int:
    baseline = _load(baseline_path)
    current = _load(current_path)
    for path, report in ((baseline_path, baseline), (current_path, current)):
        problems = benchmark.validate_report(report)
        if problems:
            print(f"{path}: INVALID ({'; '.join(problems)})")
            return 2
    kwargs = {}
    if max_regression is not None:
        kwargs["max_regression"] = max_regression
    regressions = benchmark.compare_reports(baseline, current, **kwargs)
    if regressions:
        print(f"REGRESSION ({current_path} vs {baseline_path}):")
        for line in regressions:
            print(f"  {line}")
        return 4
    print(f"no regression ({current_path} vs {baseline_path})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: shrink operation counts")
    parser.add_argument("--ops", type=int, default=None,
                        help="records per scenario (default 4000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_PR9.json",
                        help="JSON report path ('-' to skip writing)")
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        choices=list(benchmark.SCENARIOS), default=None,
                        help="run only this scenario (repeatable)")
    parser.add_argument("--backend", action="append", dest="backends",
                        choices=list(benchmark.BACKENDS), default=None,
                        help="benchmark this backend (repeatable; "
                        "default: memory+buffered)")
    parser.add_argument("--baseline", default=None,
                        help="compare the fresh run against this report")
    parser.add_argument("--max-regression", type=float, default=None,
                        help="allowed throughput drop in percent (default "
                        f"{benchmark.DEFAULT_MAX_REGRESSION:.0f})")
    parser.add_argument("--validate", metavar="REPORT", default=None,
                        help="schema-check an existing report and exit")
    parser.add_argument("--compare", nargs=2,
                        metavar=("BASELINE", "CURRENT"), default=None,
                        help="gate two existing reports and exit")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile; print the hottest "
                        "functions (cumulative) to stderr")
    parser.add_argument("--profile-out", metavar="FILE", default=None,
                        help="write the profile table to FILE instead of "
                        "stderr (implies --profile)")
    parser.add_argument("--profile-top", type=int, default=25, metavar="N",
                        help="functions in the profile table (default 25)")
    args = parser.parse_args()

    if args.validate:
        return _validate(args.validate)
    if args.compare:
        return _compare(args.compare[0], args.compare[1], args.max_regression)

    kwargs = dict(
        seed=args.seed,
        quick=args.quick,
        scenarios=tuple(args.scenarios or benchmark.SCENARIOS),
        backends=tuple(args.backends or ("memory", "buffered")),
    )
    if args.ops is not None:
        kwargs["ops"] = args.ops

    if args.profile or args.profile_out is not None:
        report, table = benchmark.run_bench_profiled(
            profile_top=args.profile_top, **kwargs
        )
        if args.profile_out:
            with open(args.profile_out, "w") as handle:
                handle.write(table)
            print(f"profile written to {args.profile_out}")
        else:
            sys.stderr.write(table)
        print("note: wall-clock figures below include cProfile overhead")
    else:
        report = benchmark.run_bench(**kwargs)
    print(benchmark.render_report(report))
    if args.out and args.out != "-":
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    if args.baseline:
        baseline = _load(args.baseline)
        problems = benchmark.validate_report(baseline)
        if problems:
            print(f"{args.baseline}: INVALID ({'; '.join(problems)})")
            return 2
        kwargs = {}
        if args.max_regression is not None:
            kwargs["max_regression"] = args.max_regression
        regressions = benchmark.compare_reports(baseline, report, **kwargs)
        if regressions:
            print(f"REGRESSION vs {args.baseline}:")
            for line in regressions:
                print(f"  {line}")
            return 4
        print(f"no regression vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
