#!/usr/bin/env python3
"""Time the stages of scalar CLI calls in-process, alternating two checkouts.

For `classify`, `verify --thresholds` and `simulate` at demo-b's point,
written as ``--flag=value`` the way perfbench's ``param_argv`` writes it,
each stage of one call is timed on its own:

    parse    the argv parsed as ``cli.run`` parses it, by ``cli._parse``
    collect  ``cli._collect_params``
    compute  classify; verify_period1 + oracle_thresholds;
             StrategyProfile + simulate
    plain    ``cli._plain`` of the report
    encode   the report's text, by ``cli._indented``
    run      the whole ``cli.run`` into a StringIO

Each round times every checkout in a fresh interpreter that imports the
checkout's ``src``; the parent goes first in rounds 1, 3, 5, ....  Within a
round each stage is timed as REPEATS repeats of CALLS calls.  Per call, in
microseconds, ``min`` is the best repeat over all rounds and ``median`` the
median over rounds of each round's median repeat.  The JSON printed (or
written to --out) is what ``scripts/bench_record.py --in-process`` copies
into a BENCH record.

Each checkout must have ``cli._parse`` and ``cli._indented``.  The parent
that ``BENCH_42.json`` compares against has neither; that record's
``in_process`` block reproduces with this script as of commit 9035784,
which fell back to the top-level parser and ``json.dumps``.

Usage:
    python scripts/stage_split.py --parent DIR --change DIR [--rounds 5] \\
        [--repeats 7] [--calls 300] [--out PATH]
    python scripts/stage_split.py --checkout DIR   # one round, one checkout
"""
import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time

COMMANDS = ("classify", "verify --thresholds", "simulate")
STAGES = ("parse", "collect", "compute", "plain", "encode", "run")
SIMULATE_ARGS = ["--mode", "inefficient", "--runs", "20", "--horizon", "30",
                 "--seed", "5"]


def _argv(command: str) -> list[str]:
    from barriergame import cli
    from barriergame.presets import get_preset

    q = get_preset("demo-b").params
    point = [f"{flag}={getattr(q, name)!r}"
             for name, flag in cli._PARAM_FLAGS.items()]
    point.append(f"--elimination-mode={q.elimination_mode.value}")
    words = command.split()
    extra = SIMULATE_ARGS if words[0] == "simulate" else []
    return words[:1] + point + words[1:] + extra


def _stages(command: str) -> dict:
    """Each stage of one call of command as a function of no arguments."""
    from barriergame import cli
    from barriergame.classifier import classify
    from barriergame.engine import StrategyProfile, simulate
    from barriergame.oracle import oracle_thresholds, verify_period1
    from barriergame.params import BarrierDistribution

    argv = _argv(command)
    args = cli._parse(argv)
    params = cli._collect_params(args)

    name = command.split()[0]
    if name == "classify":
        def compute():
            return {"params": params, "report": classify(params)}
    elif name == "verify":
        def compute():
            return {"params": params,
                    "report": verify_period1(params, cli._MODES[args.mode],
                                             tol=args.tol),
                    "oracle_thresholds": oracle_thresholds(params)}
    else:
        def compute():
            mode = cli._MODES[args.mode]
            dist = BarrierDistribution.degenerate(params.mu)
            stats = simulate(StrategyProfile(mode, params), params, dist,
                             horizon=args.horizon, n_runs=args.runs,
                             seed=args.seed, trace=None)
            return {"params": params, "mode": mode,
                    "distribution": dist.describe(), "stats": stats}
    report = compute()
    tree = cli._plain(report)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0

    return {"parse": lambda: cli._parse(argv),
            "collect": lambda: cli._collect_params(args),
            "compute": compute,
            "plain": lambda: cli._plain(report),
            "encode": lambda: cli._indented(tree),
            "run": run}


def time_checkout(repeats: int, calls: int) -> dict:
    """command -> stage -> per-call microseconds of each repeat, for the
    barriergame on sys.path."""
    out = {}
    for command in COMMANDS:
        stages = _stages(command)
        out[command] = {}
        for stage in STAGES:
            fn = stages[stage]
            fn()
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append((time.perf_counter() - t0) / calls * 1e6)
            out[command][stage] = times
    return out


def _round(checkout: str, repeats: int, calls: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--checkout", checkout,
         "--repeats", str(repeats), "--calls", str(calls)],
        check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def summarize(rounds: list[dict]) -> dict:
    """command -> stage_us -> {min, median} over rounds of one checkout."""
    return {command: {f"{stage}_us": {
                "min": round(min(min(r[command][stage]) for r in rounds), 1),
                "median": round(statistics.median(
                    statistics.median(r[command][stage]) for r in rounds), 1)}
            for stage in STAGES} for command in COMMANDS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="the parent's checkout")
    ap.add_argument("--change", help="the change's checkout")
    ap.add_argument("--checkout",
                    help="time one round of this checkout and print it")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--calls", type=int, default=300)
    ap.add_argument("--out", help="default: stdout")
    args = ap.parse_args(argv)

    if args.checkout:
        sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
        print(json.dumps(time_checkout(args.repeats, args.calls)))
        return 0
    if not (args.parent and args.change):
        ap.error("give --parent and --change, or --checkout")
    sides = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(_round(getattr(args, side), args.repeats,
                                      args.calls))
    record = {
        "method": (
            f"in-process, parent and change checkouts alternated over "
            f"{args.rounds} rounds (parent first in rounds 1, 3, 5, ...); "
            f"each stage timed as {args.repeats} repeats of {args.calls} "
            f"calls, per-call microseconds; min is the best repeat over all "
            f"rounds, median the median over rounds of each round's median "
            f"repeat; made by scripts/stage_split.py, whose docstring names "
            f"the point and the stages"),
        **{side: summarize(rounds) for side, rounds in sides.items()},
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
