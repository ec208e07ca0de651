"""``python -m bench`` — the repository's regression benchmark.

Driver contract (one run, last stdout line is the result object)::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

For people::

    python -m bench list
    python -m bench run   [--workload NAME]... [--seed N] [--runs N] [--out FILE]
    python -m bench trace [--workload NAME]... [--seed N] [--out FILE]
    python -m bench compare A.json B.json [--force]
    python -m bench pins                       # rewrite bench/pins.json
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from bench import spec, sut

try:
    sut.require_src()
except sut.BenchError as error:
    sys.exit(f"bench: {error}")
sys.path.insert(0, str(sut.SRC_DIR))

from bench import checks, compare, runner, traced  # noqa: E402
from bench.datasets import Sizing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SUBCOMMANDS = ("list", "run", "trace", "compare", "pins")
DEFAULT_SEED = 1


DRIVER_KEYS = ("correct", "attempted", "failed", "metrics")


def result_line(result: Dict[str, object], full: bool = False) -> str:
    """The driver's result object: exactly four keys (all of them with ``--full``)."""
    return json.dumps(result if full else {key: result[key] for key in DRIVER_KEYS})


def driver(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run = traced.run_traced if args.trace else runner.run_untraced
    result = run(args.workload, args.seed, args.seconds, Sizing().scaled(args.scale))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(result_line(result, args.full))
    return 0


def cmd_list(_: argparse.Namespace) -> int:
    print("workloads")
    for name, why in spec.WORKLOADS:
        print(f"  {name}: {why}")
    print("end-to-end metrics (untraced run; bound = share of the parent's median)")
    for name, unit, better, bound in spec.END_TO_END:
        print(f"  {name} [{unit}] {better} is better, bound {bound:g}")
    print("per-layer metrics (traced run; no bound) -> should move")
    for name, unit, better, moves in spec.PER_LAYER:
        print(f"  {name} [{unit}] {better} is better -> {moves}")
    return 0


def _selected(args: argparse.Namespace) -> List[str]:
    return args.workload or spec.workload_names()


def _print_run(result: Dict[str, object]) -> None:
    samples = result.get("samples", {})
    print(f"{result['workload']} seed={result['seed']}")
    for name, value in result["metrics"].items():
        count = ""
        if name.startswith("query_"):
            count = f" (n={samples['query']['n']})"
        elif name.startswith("append_"):
            count = f" (n={samples['append']['n']})"
        print(f"  {name} = {value['value']:.6g} {value['unit']}{count}")
    for kind, summary in samples.items():
        tails = {k: v for k, v in summary.items() if k not in ("n", "p50_ms")}
        for tail, value in tails.items():
            print(f"  {kind} {tail} = {value:.6g} ms (n={summary['n']})")
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def _run_many(args: argparse.Namespace, trace: int) -> int:
    """Each run in a fresh process, exactly as the driver starts it.

    (The library workload's peak RSS and CPU are this process's own: a
    second workload in the same process would inherit the first's heap.)
    """
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS * args.scale
    runs = []
    for number in range(args.runs):
        for name in _selected(args):
            argv = [
                sys.executable, "-m", "bench", "--workload", name,
                "--seed", str(args.seed + number), "--seconds", str(seconds),
                "--trace", str(trace), "--scale", str(args.scale), "--full",
            ]
            done = subprocess.run(
                argv, cwd=sut.REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False
            )
            if done.returncode != 0:
                raise sut.BenchError(f"{' '.join(argv)} exited {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            _print_run(result)
            runs.append(result)
    document = {
        "machine": sut.machine_block(),
        "command": [sys.executable, "-m", "bench", *sys.argv[1:]],
        "scale": args.scale,
        "runs": runs,
        "claim": None,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if all(result["correct"] for result in runs) else 1


def cmd_run(args: argparse.Namespace) -> int:
    return _run_many(args, trace=0)


def cmd_trace(args: argparse.Namespace) -> int:
    return _run_many(args, trace=1)


def cmd_compare(args: argparse.Namespace) -> int:
    return compare.main(args.parent, args.change, force=args.force)


def cmd_pins(_: argparse.Namespace) -> int:
    """Recompute ``pins.json`` from full-size warm-ups (no timed phase)."""
    pins = {}
    for name in spec.workload_names():
        workload = WORKLOADS[name](DEFAULT_SEED, Sizing())
        try:
            workload.cold_start()
            workload.warm_up()
            pins[name] = checks.compute_pins(workload)
        finally:
            workload.close()
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.PINS_PATH}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list").set_defaults(handler=cmd_list)
    for name, handler in (("run", cmd_run), ("trace", cmd_trace)):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", action="append", choices=spec.workload_names())
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--runs", type=int, default=1,
                         help="runs per workload, seeds seed, seed+1, ...")
        sub.add_argument("--seconds", type=float, default=None,
                         help=f"timed phase length (default {spec.RUN_SECONDS} x scale)")
        sub.add_argument("--scale", type=float, default=1.0,
                         help="shrink inputs and run length (self-tests use 0.02)")
        sub.add_argument("--out", default=None, help="write results as JSON")
        sub.set_defaults(handler=handler)
    sub = commands.add_parser("compare")
    sub.add_argument("parent")
    sub.add_argument("change")
    sub.add_argument("--force", action="store_true",
                     help="compare even when the machine blocks differ")
    sub.set_defaults(handler=cmd_compare)
    commands.add_parser("pins").set_defaults(handler=cmd_pins)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A terminated run must still stop its servers: unwind through ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sut.check_environment()
        if argv and argv[0] in SUBCOMMANDS:
            args = build_parser().parse_args(argv)
            return args.handler(args)
        return driver(argv)
    except sut.BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
