#!/usr/bin/env python3
"""Turn a change's alternated benchmark runs into its BENCH_<pr>.json.

Each side's directory holds copies of the run records that
`perfbench/run.py` writes to `perfbench/_out/result-<workload>-trace<t>.json`,
one file per run, under any name ending in `.json`.  Untraced runs
(`--trace 0`) are paired by workload and seed: every seed must have run once
on each side.  Traced runs (`--trace 1`), if any, are copied per workload as
their per-layer values.  The machine block, copied from the run records,
gains PYTHONDONTWRITEBYTECODE ('unset' if it is not set), which decides
whether each fresh interpreter of ``setup_s`` compiles a source checkout;
it is read where the record is written, so write the record in the runs'
environment.  ``--in-process`` copies the JSON that
``scripts/stage_split.py`` writes into the record as its ``in_process``
block.

Usage:
    python scripts/bench_record.py --parent DIR --change DIR --pr N \\
        --change-text "what the change does" [--seeds-note TEXT] \\
        [--in-process FILE] [--benchmark BENCHMARK.json] [--out PATH]
"""
import argparse
import glob
import json
import os
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

UNITS = ("reference units: timings rescaled by the interleaved reference "
         "probe (perfbench/README.md)")
STATISTICS = ("median and quartiles (numpy percentile, linear) over the runs "
              "of each side; change_wins counts pairs where the change reads "
              "better")
PAIRS = ("parent and change checked out in separate directories, run "
         "alternately, parent first in pairs 1, 3, 5, ... of each workload")


def load_records(directory: str) -> list[dict]:
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise ValueError(f"no run records (*.json) in {directory}")
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def _by_seed(records: list[dict], trace: int) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record, for the runs at the given trace level."""
    out: dict[str, dict[int, dict]] = {}
    for rec in records:
        args = rec["args"]
        if args["trace"] != trace:
            continue
        runs = out.setdefault(args["workload"], {})
        if args["seed"] in runs:
            raise ValueError(f"{args['workload']} seed {args['seed']} "
                             f"(trace {trace}) recorded twice")
        runs[args["seed"]] = rec
    return out


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _metric(better: str, parent: list[float], change: list[float]) -> dict:
    p, c = _quartiles(parent), _quartiles(change)
    wins = sum((b < a) if better == "lower" else (b > a)
               for a, b in zip(parent, change))
    return {"better": better, "parent": p, "change": c,
            "change_over_parent": c["median"] / p["median"],
            "parent_iqr": p["q3"] - p["q1"], "change_wins": int(wins),
            "pairs": len(parent), "runs": {"parent": parent, "change": change}}


def _failed(records) -> int:
    return sum(len(rec["failures"]) for rec in records)


def build_record(parent: list[dict], change: list[dict], spec: dict, pr: int,
                 change_text: str, seeds_note: str = "") -> dict:
    machines = {json.dumps(rec["machine"], sort_keys=True)
                for rec in parent + change}
    if len(machines) != 1:
        raise ValueError("the runs were not all made on one machine")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    workloads = {}
    p_runs, c_runs = _by_seed(parent, 0), _by_seed(change, 0)
    if p_runs.keys() != c_runs.keys():
        raise ValueError(f"workloads differ: parent {sorted(p_runs)}, "
                         f"change {sorted(c_runs)}")
    seconds = set()
    for workload in sorted(p_runs):
        if p_runs[workload].keys() != c_runs[workload].keys():
            raise ValueError(f"{workload}: the two sides ran different seeds")
        seeds = sorted(p_runs[workload])
        pairs = [(p_runs[workload][s], c_runs[workload][s]) for s in seeds]
        seconds.update(rec["args"]["seconds"] for pair in pairs
                       for rec in pair)
        metrics = {}
        for name, direction in better.items():
            metrics[name] = _metric(
                direction,
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs])
        workloads[workload] = {
            "seeds": seeds,
            "failed_checks": {"parent": _failed(p for p, _ in pairs),
                              "change": _failed(c for _, c in pairs)},
            "metrics": metrics,
        }
    if not workloads:
        raise ValueError("no untraced (--trace 0) runs to pair")
    if len(seconds) != 1:
        raise ValueError(f"runs of different lengths: {sorted(seconds)}")

    out = {
        "pr": pr,
        "change": change_text,
        "machine": json.loads(machines.pop()),
        "harness": {
            "command": ("python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {seconds.pop():g} --trace 0"),
            "units": UNITS,
            "pairs": PAIRS,
            "statistics": STATISTICS,
            **({"seeds_note": seeds_note} if seeds_note else {}),
        },
        "workloads": workloads,
    }
    p_traced, c_traced = _by_seed(parent, 1), _by_seed(change, 1)
    traces = {}
    for workload in sorted(p_traced.keys() | c_traced.keys()):
        traces[workload] = {
            side: {str(seed): {"failed_checks": len(rec["failures"]),
                               **{name: m["value"] for name, m
                                  in sorted(rec["metrics"].items())}}
                   for seed, rec in sorted(runs.get(workload, {}).items())}
            for side, runs in (("parent", p_traced), ("change", c_traced))}
    if traces:
        lengths = "/".join(sorted({f"{rec['args']['seconds']:g}"
                                   for rec in parent + change
                                   if rec["args"]["trace"] == 1}))
        out["traces"] = {
            "command": ("python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {lengths} --trace 1"),
            "units": ("one traced round; counts exact, self times in "
                      "wall-clock seconds (span minus child spans)"),
            **traces,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="directory of the parent's run records")
    ap.add_argument("--change", required=True,
                    help="directory of the change's run records")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--change-text", required=True,
                    help="one line saying what the change does")
    ap.add_argument("--seeds-note", default="")
    ap.add_argument("--in-process",
                    help="stage timings written by scripts/stage_split.py")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--out", help="default: BENCH_<pr>.json at the repo root")
    args = ap.parse_args(argv)

    with open(args.benchmark) as fh:
        spec = json.load(fh)
    try:
        record = build_record(load_records(args.parent),
                              load_records(args.change), spec, args.pr,
                              args.change_text, args.seeds_note)
    except ValueError as e:
        print(f"bench_record: {e}", file=sys.stderr)
        return 2
    record["machine"]["PYTHONDONTWRITEBYTECODE"] = os.environ.get(
        "PYTHONDONTWRITEBYTECODE", "unset")
    if args.in_process:
        with open(args.in_process) as fh:
            record["in_process"] = json.load(fh)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
