"""Benchmark of the barriergame package: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload raster|oracle|montecarlo \
        --seed N --seconds S --trace 0|1 [--smoke]

``--trace 0`` runs rounds of the workload until ``--seconds`` have passed and
reports the end-to-end metrics.  ``--trace 1`` runs one round untraced and the
same round traced, and reports the per-layer metrics together with the
tracing overhead.  ``--smoke`` shrinks every round to a few operations.

Timings are in reference seconds: wall-clock seconds rescaled by a probe of
the machine's current speed (see ``workloads.py``); the report prints the
wall-clock value beside each metric.

The report goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the machine description, is written under ``perfbench/_out``.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported; this affects
# this process and the interpreters it starts, nothing else.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

# What each role-named end-to-end metric measures on each workload.
E2E_MEANING = {
    "raster": {
        "primary_per_s": "raster_cells_per_s: figure cells classified and "
                         "written to SVG and CSV per second",
        "secondary_per_s": "sweep_points_per_s: sweep points per second",
        "call_ms_p50": "classify_ms_p50: single-point `classify` latency",
        "call_ms_p95": "classify_ms_p95: single-point `classify` latency",
    },
    "oracle": {
        "primary_per_s": "agreement_points_per_s: `verify --agreement` "
                         "points per second",
        "secondary_per_s": "verify_per_s: single-point `verify --thresholds` "
                           "calls per busy second",
        "call_ms_p50": "verify_ms_p50: single-point `verify --thresholds` "
                       "latency",
        "call_ms_p95": "verify_ms_p95: single-point `verify --thresholds` "
                       "latency",
    },
    "montecarlo": {
        "primary_per_s": "sim_peace_run_periods_per_s: custom peace profile "
                         "run-periods per second",
        "secondary_per_s": "sim_war_draws_per_s: always-war postwar barrier "
                           "draws per second",
        "call_ms_p50": "sim_cli_ms_p50: `simulate` of a built-in profile",
        "call_ms_p95": "sim_cli_ms_p95: `simulate` of a built-in profile",
    },
}
E2E_COMMON = {
    "setup_s": "fresh interpreter through `import barriergame.cli` and "
               "build_parser(), median, against a numpy-only interpreter",
    "peak_rss_mb": "peak RSS of the workload process (getrusage)",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_program() -> None:
    """Import the package from this checkout's sources, never from
    anywhere else on the path."""
    sys.path.insert(0, SRC)
    try:
        import barriergame
    except ImportError as e:
        raise SystemExit(f"cannot import barriergame from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(barriergame.__file__))
    if where != os.path.join(SRC, "barriergame"):
        raise SystemExit(f"barriergame imported from {where}, not from {SRC}")


def machine_record() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "note": "no CPU pinning or frequency control; no machine setting "
                "was changed",
    }


# Set-up is timed against a reference interpreter that only imports numpy,
# started alternately with the measured one: interpreter start-up reacts to
# the machine's drift differently from the in-process probe.
STARTUP_REFERENCE = "import numpy"
STARTUP_NOMINAL_S = 0.2


def measure_setup(ctx, repeats: int) -> None:
    """Time fresh interpreters through ``import barriergame.cli`` and
    ``build_parser()``; samples go to ``setup_s``."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            f"import barriergame.cli as c; c.build_parser()")

    def start(source: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", source],
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"interpreter failed: {proc.stderr[-300:]}")
        return elapsed

    for _ in range(repeats):
        reference = start(STARTUP_REFERENCE)
        elapsed = start(code)
        ctx.samples["setup_s"].append(elapsed * STARTUP_NOMINAL_S / reference)
        ctx.wall_samples["setup_s"].append(elapsed)


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def e2e_values(samples: dict) -> dict:
    """End-to-end metrics of the samples taken: (value, samples, unit)."""
    out = {}
    for rate in ("primary_per_s", "secondary_per_s"):
        vals = samples.get(rate, [])
        out[rate] = (statistics.median(vals) if vals else math.nan,
                     len(vals), "1/s")
    calls = samples.get("call_ms", [])
    out["call_ms_p50"] = (statistics.median(calls) if calls else math.nan,
                          len(calls), "ms")
    out["call_ms_p95"] = (p95(calls) if len(calls) >= 2 else math.nan,
                          len(calls), "ms")
    setup = samples.get("setup_s", [])
    out["setup_s"] = (statistics.median(setup) if setup else math.nan,
                      len(setup), "s")
    return out


def layer_metrics(tracer, ctx, distinct_points: set, sim_runs: list) -> dict:
    """Per-layer metrics of one traced round."""
    s = tracer.summary()

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def us_per_call(name):
        return 1e6 * self_s(name) / calls(name) if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    cells = ctx.units["cells"]
    runs = sum(r for r, _ in sim_runs)
    wars = sum(w for _, w in sim_runs)
    m = {
        "classifier.classify.calls": (calls("classifier.classify"), "count"),
        "classifier.classify.self_us_per_call":
            (us_per_call("classifier.classify"), "us"),
        "classifier.region_grid.self_s": (self_s("classifier.region_grid"), "s"),
        "classifier.region_grid.cells": (int(cells), "count"),
        "classifier.region_grid.skipped_ratio":
            (ratio(ctx.units["skipped_cells"], cells), "ratio"),
        "classifier.comparative_static.self_s":
            (self_s("classifier.comparative_static"), "s"),
        "thresholds.compute_thresholds.calls":
            (calls("thresholds.compute_thresholds"), "count"),
        "thresholds.compute_thresholds.self_us_per_call":
            (us_per_call("thresholds.compute_thresholds"), "us"),
        "thresholds.compute_thresholds.calls_per_distinct_point":
            (ratio(calls("thresholds.compute_thresholds"), len(distinct_points)),
             "ratio"),
        "params.validate.calls": (calls("params.validate"), "count"),
        "params.validate.self_us_per_call": (us_per_call("params.validate"), "us"),
        "output.csv_rows.self_s": (self_s("output.csv_rows"), "s"),
        "output.render_svg.self_s": (self_s("output.render_svg"), "s"),
        "output.write_s": (self_s("output.emit_csv") + self_s("output.emit_svg"), "s"),
        "output.bytes_written": (int(ctx.units["bytes_written"]), "bytes"),
        "oracle.oracle_thresholds.calls": (calls("oracle.oracle_thresholds"), "count"),
        "oracle.oracle_thresholds.self_s": (self_s("oracle.oracle_thresholds"), "s"),
        "oracle.verify_period1.calls": (calls("oracle.verify_period1"), "count"),
        "oracle.verify_period1.self_us_per_call":
            (us_per_call("oracle.verify_period1"), "us"),
        "oracle.verify_period1.calls_per_point":
            (ratio(tracer.count_under("oracle.verify_period1",
                                      "oracle.oracle_thresholds"),
                   calls("oracle.oracle_thresholds")), "ratio"),
        "oracle.postwar_market_mean.calls":
            (calls("oracle.postwar_market_mean"), "count"),
        "oracle.postwar_market_mean.self_us_per_call":
            (us_per_call("oracle.postwar_market_mean"), "us"),
        "engine.expected_war_payoffs.calls":
            (calls("engine.expected_war_payoffs"), "count"),
        "engine.expected_war_payoffs.self_us_per_call":
            (us_per_call("engine.expected_war_payoffs"), "us"),
        "engine.step.calls": (calls("engine.step"), "count"),
        "engine.step.self_us_per_call": (us_per_call("engine.step"), "us"),
        "engine.simulate.self_s": (self_s("engine.simulate"), "s"),
        "params.BarrierDistribution.sample.calls":
            (calls("params.BarrierDistribution.sample"), "count"),
        "params.BarrierDistribution.sample.self_us_per_call":
            (us_per_call("params.BarrierDistribution.sample"), "us"),
        "engine.war_ratio": (ratio(wars, runs), "ratio"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), "s"),
        "cli.nonfinite_json_tokens": (ctx.nonfinite_json_tokens, "count"),
        "trace.spans": (len(tracer.span_start), "count"),
    }
    return m


def coverage_failures(tracer, ctx, stale: list[str]) -> list[str]:
    """The trace must see every layer call the workload's own accounting
    implies; a missed rebinding would otherwise zero a layer silently."""
    problems = [f"untraced reference {name}" for name in stale]
    s = tracer.summary()
    classify_calls = s.get("classifier.classify", {}).get("calls", 0)
    want = int(ctx.units["cells"] + ctx.units["sweep_points"]
               + ctx.units["classify_calls"])
    if classify_calls != want:
        problems.append(f"classifier.classify.calls={classify_calls}, but "
                        f"cells + sweep points + classify calls = {want}")
    step_calls = s.get("engine.step", {}).get("calls", 0)
    if step_calls != int(ctx.units["run_periods"]):
        problems.append(f"engine.step.calls={step_calls}, but the simulations "
                        f"imply {int(ctx.units['run_periods'])} run-periods")
    return problems


def run_traced(ctx, run_round, inputs: dict, size: dict):
    """Run one round untraced, then the same round traced; return the
    per-layer metrics, the tracing overhead and the tracer."""
    import spans

    gc.collect()
    busy0 = ctx.busy_ref_s
    run_round(ctx, inputs, size)
    untraced_busy = ctx.busy_ref_s - busy0
    untraced = e2e_values(ctx.samples)
    ctx.clear()

    distinct_points: set = set()
    sim_runs: list = []

    def see_thresholds(a, kw, result):
        q = a[0] if a else kw["params"]
        distinct_points.add(tuple(v for k, v in q.to_dict().items()
                                  if k not in ("c_R", "c_D")))

    def see_simulate(a, kw, stats):
        # built-in profiles take the on-path shortcut and simulate no runs
        if (a[0] if a else kw["profile"]).mode.value == "Custom":
            sim_runs.append((stats.n_runs,
                             round(stats.war_frequency * stats.n_runs)))

    tracer = spans.Tracer()
    tracer.observers["thresholds.compute_thresholds"] = see_thresholds
    tracer.observers["engine.simulate"] = see_simulate
    extra = [sys.modules["workloads"]]
    tracer.install(extra)
    stale = tracer.stale_references(extra)
    ctx.tracer = tracer
    gc.collect()
    busy0 = ctx.busy_ref_s
    try:
        run_round(ctx, inputs, size)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    traced_busy = ctx.busy_ref_s - busy0
    traced = e2e_values(ctx.samples)

    problems = coverage_failures(tracer, ctx, stale)
    ctx.attempted += 1
    if problems:
        ctx.failed += 1
        ctx.failures.extend(f"coverage: {p}" for p in problems)
    values = layer_metrics(tracer, ctx, distinct_points, sim_runs)
    values["trace.overhead_s"] = (traced_busy - untraced_busy, "s")
    values["trace.overhead_ratio"] = (
        traced_busy / untraced_busy - 1.0 if untraced_busy else 0.0, "ratio")
    overhead = {name: {"untraced": untraced[name][0], "traced": traced[name][0],
                       "traced_minus_untraced": traced[name][0] - untraced[name][0]}
                for name in untraced}
    overhead["busy_ref_s"] = {"untraced": untraced_busy, "traced": traced_busy,
                          "traced_minus_untraced": traced_busy - untraced_busy}
    return {k: (v, 1, u) for k, (v, u) in values.items()}, overhead, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny rounds: proves every metric is emitted")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    import_program()
    import numpy as np

    import workloads as wl

    size = wl.SIZES["smoke" if args.smoke else "full"]
    make_inputs, run_round = wl.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    ctx = wl.Context(ROOT, workdir)
    machine = machine_record()

    if not args.trace:
        ctx.op("setup", lambda: measure_setup(ctx, 2 if args.smoke else 9))
        setup = (ctx.samples.pop("setup_s", []), ctx.wall_samples.pop("setup_s", []))

    # warm-up: lazy imports and first-call costs are paid before timing;
    # its operations are checked and counted, its timings dropped
    if args.workload == "raster":
        wl.golden_check(ctx)
    run_round(ctx, make_inputs(np.random.default_rng([args.seed, 2 ** 20]),
                               wl.SIZES["smoke"]), wl.SIZES["smoke"])
    ctx.clear()

    report: dict = {}
    rounds = 0
    if not args.trace:
        t_end = time.perf_counter() + args.seconds
        while rounds == 0 or time.perf_counter() < t_end:
            rng = np.random.default_rng([args.seed, rounds])
            inputs = make_inputs(rng, size)
            gc.collect()  # the previous round's garbage is not this round's cost
            run_round(ctx, inputs, size)
            rounds += 1
        ctx.samples["setup_s"], ctx.wall_samples["setup_s"] = setup
        values = e2e_values(ctx.samples)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "MB")
        report["wall_clock"] = {k: v for k, (v, _, _) in
                                e2e_values(ctx.wall_samples).items()}
        metric_specs = spec["end_to_end"]
    else:
        inputs = make_inputs(np.random.default_rng([args.seed, 0]), size)
        values, report["overhead"], tracer = run_traced(ctx, run_round,
                                                        inputs, size)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
        rounds = 1
        metric_specs = spec["per_layer"]

    # call_ms_p95 is reported but not gated: tail latency on a shared host
    # spreads too much between runs (see README)
    reported = [(m["name"], True) for m in metric_specs]
    if not args.trace:
        reported.append(("call_ms_p95", False))
    metrics, record_metrics = {}, {}
    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} rounds={rounds}"
             f"{' smoke' if args.smoke else ''}",
             "machine: " + json.dumps(machine, sort_keys=True)]
    meaning = {**E2E_MEANING[args.workload], **E2E_COMMON}
    for name, gated in reported:
        value, n, unit = values[name]
        if not math.isfinite(value):  # no successful sample to measure
            ctx.attempted += 1
            ctx.failed += 1
            ctx.failures.append(f"metric {name} has no value")
            value = None
        if gated:
            metrics[name] = {"value": value, "unit": unit}
        record_metrics[name] = {"value": value, "unit": unit, "n": n,
                                "gated": gated}
        wall = report.get("wall_clock", {}).get(name)
        lines.append(f"  {name:<52} {math.nan if value is None else value:>16.6f}"
                     f" {unit:<6} n={n}"
                     + (f"  wall-clock {wall:.6g}" if wall is not None else "")
                     + f"  {meaning.get(name, '')}"
                     + ("" if gated else "  (reported, not gated)"))
    for name, row in report.get("overhead", {}).items():
        lines.append(f"  overhead {name:<16} untraced={row['untraced']:.6g} "
                     f"traced={row['traced']:.6g} "
                     f"diff={row['traced_minus_untraced']:.6g}")
    error_rate = ctx.failed / ctx.attempted if ctx.attempted else 1.0
    lines.append(f"  error_rate {ctx.failed}/{ctx.attempted} = {error_rate:.6g}")
    lines.extend(f"  FAILED {f}" for f in ctx.failures[:20])

    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}
    record = {"args": vars(args), "machine": machine, "rounds": rounds,
              "metrics": record_metrics,
              "error_rate": error_rate, "failures": ctx.failures,
              "units": dict(ctx.units), "samples": dict(ctx.samples),
              "wall_samples": dict(ctx.wall_samples), **report}
    with open(os.path.join(
            OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
