"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload runs in rounds.  A round draws fresh inputs from the round's
seed, runs every operation of the workload once through ``barriergame.cli.run``
or the public library functions, times each operation with
``time.perf_counter`` and checks its output.  An operation fails when it
raises, exits nonzero or fails its check; failures are counted, never hidden.

Input generation and checks run with the tracer paused, so a traced round
records only the program's own work.

The machine this benchmark was built on changes speed by up to 1.8x over
tens of seconds, most likely from other tenants on the same cores, and
every kind of code slows down alike.  So a fixed reference probe that
shares no code with the program is timed every ~0.15 s of program time,
and each timing is rescaled to a machine on which the probe takes
``PROBE_NOMINAL_S``.  The metrics are these rescaled times; the wall-clock
values are reported beside them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
import traceback
import xml.etree.ElementTree as ET
from collections import defaultdict, deque

import numpy as np

import barriergame.classifier as bg_classifier
import barriergame.cli as bg_cli
import barriergame.engine as bg_engine
import barriergame.params as bg_params
import barriergame.presets as bg_presets
import barriergame.thresholds as bg_thresholds

SVG_NS = "{http://www.w3.org/2000/svg}"
CELL_FILLS = {"#c0392b", "#e8a33d", "#2e8b57", "#bbbbbb"}
REGION_CSV_HEADER = "c_R,c_D,label,margin_efficient,margin_cd,margin_joint"
GOLDEN_FIGURES = ("regions", "mu-shift", "p-shift")
PARAM_FLAGS = (("delta", "--delta"), ("p", "--p"), ("p1", "--p1"),
               ("mu", "--mu"), ("h0", "--h0"), ("c_R", "--c-r"),
               ("c_D", "--c-d"), ("rho", "--rho"), ("theta", "--theta"))

PROBE_NOMINAL_S = 0.0025
PROBE_EVERY_S = 0.15
PROBE_WINDOW = 5

# Work per round.  "full" is what the benchmark measures; "smoke" only
# proves that every metric is produced.
SIZES = {
    "full": {"resolution": 200, "sweep_values": 2000, "sweeps_per_knob": 3,
             "classify_calls": 150,
             "agreement_points": 100, "verify_calls": 60,
             "peace_runs": 100, "war_runs": 200, "horizon": 150,
             "sim_cli_calls": 8, "recheck_cells": 64},
    "smoke": {"resolution": 12, "sweep_values": 20, "sweeps_per_knob": 1,
              "classify_calls": 4,
              "agreement_points": 2, "verify_calls": 3,
              "peace_runs": 50, "war_runs": 50, "horizon": 20,
              "sim_cli_calls": 1, "recheck_cells": 8},
}


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def reference_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work
    that shares no code with the program and allocates no tracked objects."""
    t0 = time.perf_counter()
    acc = 0.0
    table = dict.fromkeys(range(97), 0.0)
    for i in range(4000):
        x = i * 0.5
        table[i % 97] = x
        acc += x * (i ** 0.5) - (i + 1.0)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        acc += float(np.where(a >= 0.5, a, 0.0).max())
    return time.perf_counter() - t0


def param_argv(q: bg_params.ModelParams) -> list[str]:
    # "--flag=value" keeps negative values from reading as options
    argv = [f"{flag}={getattr(q, name)!r}" for name, flag in PARAM_FLAGS]
    argv.append(f"--elimination-mode={q.elimination_mode.value}")
    return argv


class Context:
    """Counts operations and failures and collects timing samples."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.nonfinite_json_tokens = 0
        # seconds inside timed program calls, wall-clock and rescaled
        self.busy_s = 0.0
        self.busy_ref_s = 0.0
        self.scale = 1.0  # reference seconds per wall-clock second
        self._busy_at_probe = -math.inf
        self._probes: deque[float] = deque(maxlen=PROBE_WINDOW)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.wall_samples: dict[str, list[float]] = defaultdict(list)
        self.units: dict[str, float] = defaultdict(float)

    def calibrate(self, force: bool = False) -> None:
        """Re-time the reference probe when enough program time has passed.
        The scale follows the median of the last few probes, which tracks
        the machine's drift without passing on one probe's noise."""
        if force or self.busy_s - self._busy_at_probe >= PROBE_EVERY_S:
            self._probes.append(min(reference_probe() for _ in range(3)))
            self.scale = PROBE_NOMINAL_S / statistics.median(self._probes)
            self._busy_at_probe = self.busy_s

    def spent(self, elapsed: float) -> float:
        """Book ``elapsed`` wall seconds of program time; returns them in
        reference seconds."""
        self.busy_s += elapsed
        self.busy_ref_s += elapsed * self.scale
        return elapsed * self.scale

    def rate(self, metric: str, units: float, elapsed: float) -> None:
        self.samples[metric].append(units / (elapsed * self.scale))
        self.wall_samples[metric].append(units / elapsed)

    def latency(self, elapsed: float) -> None:
        self.samples["call_ms"].append(1e3 * elapsed * self.scale)
        self.wall_samples["call_ms"].append(1e3 * elapsed)

    def clear(self) -> None:
        """Forget the samples and work counts taken so far."""
        self.samples.clear()
        self.wall_samples.clear()
        self.units.clear()
        self.nonfinite_json_tokens = 0

    @contextlib.contextmanager
    def paused(self):
        """Run input generation and checks outside the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.active[0] = False
        try:
            yield
        finally:
            self.tracer.active[0] = True

    def op(self, what: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except CheckFailed as e:
            self.failed += 1
            self.failures.append(f"{what}: {e}"[:400])
        except Exception:  # an operation's failure is data, not a crash
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=-3)}"[-800:])

    def cli(self, argv: list[str]) -> tuple[float, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = bg_cli.run(argv)
            elapsed = time.perf_counter() - t0
        self.spent(elapsed)
        require(code == 0, f"exit {code}: {err.getvalue().strip()[:300]}")
        return elapsed, out.getvalue()

    def load_json(self, text: str):
        """Parse CLI JSON, counting the non-standard NaN/Infinity tokens."""
        def constant(token):
            self.nonfinite_json_tokens += 1
            return float(token)
        return json.loads(text, parse_constant=constant)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class RoundRates:
    """Units of work and busy seconds per rate metric within one round, for
    workloads whose operations cost different amounts per unit."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.acc: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])

    def add(self, metric: str, units: float, elapsed: float) -> None:
        acc = self.acc[metric]
        acc[0] += units
        acc[1] += elapsed * self.ctx.scale
        acc[2] += elapsed

    def close(self) -> None:
        for metric, (units, ref_s, wall_s) in self.acc.items():
            if wall_s > 0.0:
                self.ctx.samples[metric].append(units / ref_s)
                self.ctx.wall_samples[metric].append(units / wall_s)


def run_interleaved(ctx: Context, *groups) -> None:
    """Run groups of (name, thunk) operations spread evenly among each
    other, so that a slow spell of the machine falls on every kind of
    operation rather than on one."""
    ops = [((i + 0.5) / len(group), g, what, fn)
           for g, group in enumerate(groups)
           for i, (what, fn) in enumerate(group)]
    ctx.calibrate(force=True)
    for _, _, what, fn in sorted(ops, key=lambda op: op[:2]):
        ctx.calibrate()
        ctx.op(what, fn)


# ---------------------------------------------------------------- raster
def _raster_ranges(q: bg_params.ModelParams):
    """Cost ranges that straddle the point's nonnegative thresholds and
    reach a fixed tenth into negative costs, so about 17% of the cells are
    Skipped whatever the seed."""
    ts = bg_thresholds.compute_thresholds(q)
    cd_hi = 1.25 * max(ts.cbar_D, ts.clow_D, ts.Clow, 1.0)
    cr_hi = 1.25 * max(ts.Clow, 1.0)
    return (-0.1 * cr_hi, cr_hi), (-0.1 * cd_hi, cd_hi)


def raster_inputs(rng: np.random.Generator, size: dict) -> dict:
    base = bg_params.sample_valid_params(rng)
    cr_range, cd_range = _raster_ranges(base)
    mu_values = (round(float(rng.uniform(0.4, 0.65)), 3),
                 round(float(rng.uniform(0.7, 1.0)), 3))
    sweep_base = bg_params.sample_valid_params(rng, theta_spread=False)
    k = size["sweep_values"]
    floor = bg_thresholds.theta_floor(sweep_base)
    bounds = {"mu": (0.05, 1.0), "p": (0.0, 0.999 * sweep_base.p1),
              "theta": (max(floor, 0.05), (1.0 - 1e-9) / sweep_base.p1)}
    sweeps = [(knob, [float(v) for v in rng.uniform(lo, hi, k)])
              for _ in range(size["sweeps_per_knob"])
              for knob, (lo, hi) in bounds.items()]
    points = [bg_params.sample_valid_params(rng)
              for _ in range(size["classify_calls"])]
    return {"base": base, "cr_range": cr_range, "cd_range": cd_range,
            "mu_values": mu_values, "sweep_base": sweep_base,
            "sweeps": sweeps,
            "points": points,
            "recheck_seed": int(rng.integers(2 ** 31))}


def check_region_svg(path: str, panels: int, n: int) -> None:
    root = ET.parse(path).getroot()
    cells = sum(1 for r in root.iter(SVG_NS + "rect")
                if r.get("fill") in CELL_FILLS and r.get("stroke") is None)
    require(cells == panels * n * n,
            f"{os.path.basename(path)}: {cells} cell rects, "
            f"expected {panels * n * n}")


def _expected_label(me: float, mc: float, mj: float) -> str:
    efficient = me >= 0.0
    inefficient = mc >= 0.0 and mj >= 0.0
    if efficient and inefficient:
        return "Both"
    if efficient:
        return "EfficientPeace"
    if inefficient:
        return "InefficientPeace"
    return "War"


def check_region_csv(path: str, n: int, base: bg_params.ModelParams,
                     rng: np.random.Generator, recheck: int) -> int:
    """Check rows, label signs and a seeded sample against ``classify``;
    returns the number of Skipped cells."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = fh.read().splitlines()
    name = os.path.basename(path)
    require(header == REGION_CSV_HEADER, f"{name}: header {header!r}")
    require(len(rows) == n * n, f"{name}: {len(rows)} rows, expected {n * n}")
    skipped = 0
    for row in rows:
        _, _, label, me, mc, mj = row.split(",")
        if label == "Skipped":
            require(me == mc == mj == "nan", f"{name}: Skipped with margins")
            skipped += 1
            continue
        expected = _expected_label(float(me), float(mc), float(mj))
        require(label == expected, f"{name}: {row} should be {expected}")
    for i in rng.choice(len(rows), size=min(recheck, len(rows)), replace=False):
        cr, cd, label, me, mc, mj = rows[int(i)].split(",")
        try:
            rep = bg_classifier.classify(
                base.with_overrides(c_R=float(cr), c_D=float(cd)))
        except bg_classifier.InvalidParamsError:
            require(label == "Skipped", f"{name}: {rows[int(i)]} is invalid")
            continue
        m = rep.margins
        for got, want in ((float(me), m.efficient), (float(mc), m.cd),
                          (float(mj), m.joint)):
            require(close(got, want, 1e-9),
                    f"{name}: {rows[int(i)]} margin {got} vs classify {want}")
        boundary = min(abs(m.efficient), abs(m.cd), abs(m.joint)) <= 1e-9
        require(boundary or label == rep.label.value,
                f"{name}: {rows[int(i)]} vs classify {rep.label.value}")
    return skipped


def golden_check(ctx: Context) -> None:
    """The three demo-b figures at resolution 32 must equal the goldens."""
    for fig in GOLDEN_FIGURES:
        def run(fig=fig):
            svg = ctx.path(f"golden-{fig}.svg")
            ctx.cli(["figure", fig, "--preset", "demo-b", "-o", svg,
                     "--csv", ctx.path(f"golden-{fig}.csv"),
                     "--resolution", "32"])
            with open(svg, "rb") as got, open(os.path.join(
                    ctx.root, "tests", "golden", f"{fig}.svg"), "rb") as want:
                require(got.read() == want.read(),
                        f"{fig}.svg differs from the golden file")
        ctx.op(f"golden {fig}", run)


def raster_round(ctx: Context, inp: dict, size: dict) -> None:
    n = size["resolution"]
    recheck_rng = np.random.default_rng(inp["recheck_seed"])

    def figure(argv, panel_params, csv_paths, svg):
        for p in csv_paths + [svg]:
            if os.path.exists(p):
                os.remove(p)
        elapsed, _ = ctx.cli(argv)
        cells = len(panel_params) * n * n
        ctx.units["cells"] += cells
        with ctx.paused():
            ctx.units["bytes_written"] += sum(
                os.path.getsize(p) for p in csv_paths + [svg])
            check_region_svg(svg, len(panel_params), n)
            for q, p in zip(panel_params, csv_paths):
                ctx.units["skipped_cells"] += check_region_csv(
                    p, n, q, recheck_rng, size["recheck_cells"])
        ctx.rate("primary_per_s", cells, elapsed)

    def sweep(knob, values):
        elapsed, out = ctx.cli(
            ["sweep", *param_argv(sweep_base), "--knob", knob,
             "--values", ",".join(repr(v) for v in values)])
        ctx.units["sweep_points"] += len(values)
        with ctx.paused():
            check_sweep(out, knob, values, sweep_base)
        ctx.rate("secondary_per_s", len(values), elapsed)

    def classify(q):
        elapsed, out = ctx.cli(["classify", *param_argv(q)])
        ctx.units["classify_calls"] += 1
        with ctx.paused():
            check_classify(ctx.load_json(out), q)
        ctx.latency(elapsed)

    with ctx.paused():
        base = inp["base"]
        demo = bg_presets.get_preset("demo-b").params
        cr_lo, cr_hi = inp["cr_range"]
        cd_lo, cd_hi = inp["cd_range"]
        sweep_base = inp["sweep_base"]
        mus = inp["mu_values"]
    figures = [
        ("figure regions", lambda: figure(
            ["figure", "regions", *param_argv(base),
             "-o", ctx.path("regions.svg"), "--csv", ctx.path("regions.csv"),
             f"--cr-range={cr_lo!r}:{cr_hi!r}", f"--cd-range={cd_lo!r}:{cd_hi!r}",
             "--resolution", str(n)],
            [base], [ctx.path("regions.csv")], ctx.path("regions.svg"))),
        ("figure mu-shift", lambda: figure(
            ["figure", "mu-shift", "--preset", "demo-b",
             "-o", ctx.path("mu-shift.svg"), "--csv", ctx.path("mu-shift.csv"),
             "--values", ",".join(repr(v) for v in mus), "--resolution", str(n)],
            [demo.with_overrides(mu=v) for v in mus],
            [ctx.path(f"mu-shift-mu-{format(v, '.6g')}.csv") for v in mus],
            ctx.path("mu-shift.svg"))),
    ]
    run_interleaved(
        ctx, figures,
        [(f"sweep {knob}", lambda knob=knob, v=v: sweep(knob, v))
         for knob, v in inp["sweeps"]],
        [("classify", lambda q=q: classify(q)) for q in inp["points"]])


def check_sweep(out: str, knob: str, values: list[float],
                base: bg_params.ModelParams) -> None:
    lines = out.splitlines()
    require(lines[0] == f"{knob},cbar_D,clow_D,Clow,postwar_mean,"
                       f"efficient,inefficient,war", f"sweep header {lines[0]!r}")
    require(len(lines) - 1 == len(values),
            f"sweep printed {len(lines) - 1} rows for {len(values)} values")
    cd, cr = base.c_D, base.c_R
    for line, v in zip(lines[1:], values):
        f = line.split(",")
        require(close(float(f[0]), v, 1e-11), f"sweep row {line} for {v}")
        cbar, clow, joint = float(f[1]), float(f[2]), float(f[3])
        eff, inef, war = (x == "true" for x in f[5:8])
        if min(abs(cd - cbar), abs(cd - clow), abs(cd + cr - joint)) <= 1e-9 * (
                1.0 + abs(cbar) + abs(clow) + abs(joint)):
            continue  # on a boundary at print precision
        want_eff = cd >= cbar
        want_inef = cd >= clow and cd + cr >= joint
        require((eff, inef, war) == (want_eff, want_inef,
                                     not want_eff and not want_inef),
                f"sweep flags disagree with thresholds: {line}")


def check_classify(payload: dict, q: bg_params.ModelParams) -> None:
    require(payload["params"]["c_D"] == q.c_D and payload["params"]["c_R"] == q.c_R,
            "classify echoed other costs")
    rep, ts = payload["report"], payload["report"]["thresholds"]
    m = rep["margins"]
    require(close(m["efficient"], q.c_D - ts["cbar_D"], 1e-12)
            and close(m["cd"], q.c_D - ts["clow_D"], 1e-12)
            and close(m["joint"], q.c_D + q.c_R - ts["Clow"], 1e-12),
            "classify margins disagree with its thresholds")
    label = _expected_label(m["efficient"], m["cd"], m["joint"])
    require(rep["label"] == label, f"classify label {rep['label']} vs {label}")
    require(rep["efficient_peace_exists"] == (m["efficient"] >= 0.0)
            and rep["war_inevitable"] == (label == "War"),
            "classify flags disagree with margins")


# ---------------------------------------------------------------- oracle
def oracle_inputs(rng: np.random.Generator, size: dict) -> dict:
    return {"agreement_seed": int(rng.integers(2 ** 31)),
            "points": [bg_params.sample_valid_params(rng)
                       for _ in range(size["verify_calls"])]}


def oracle_round(ctx: Context, inp: dict, size: dict) -> None:
    rates = RoundRates(ctx)
    n = size["agreement_points"]

    def agreement():
        csv = ctx.path("agreement.csv")
        if os.path.exists(csv):
            os.remove(csv)
        elapsed, out = ctx.cli(["verify", "--preset", "demo-b",
                                "--agreement", str(n),
                                "--seed", str(inp["agreement_seed"]),
                                "--agreement-csv", csv])
        with ctx.paused():
            ctx.load_json(out)
            with open(csv) as fh:
                header = fh.readline().rstrip("\n").split(",")
                rows = fh.read().splitlines()
            require(len(header) == 15 and header[13] == "max_abs_diff",
                    f"agreement header {header}")
            require(len(rows) == n, f"{len(rows)} agreement rows for {n}")
            for row in rows:
                f = row.split(",")
                diff = max(abs(float(f[7]) - float(f[8])),
                           abs(float(f[9]) - float(f[10])),
                           abs(float(f[11]) - float(f[12])))
                require(float(f[13]) <= 1e-6 and diff <= 1e-6,
                        f"oracle disagrees with closed forms: {row}")
                require(int(f[14]) == 0, f"oracle anomalies: {row}")
        rates.add("primary_per_s", n, elapsed)

    def verify(q):
        elapsed, out = ctx.cli(["verify", *param_argv(q), "--thresholds"])
        with ctx.paused():
            ot = ctx.load_json(out)["oracle_thresholds"]
            ts = bg_thresholds.compute_thresholds(q)
            require(ot["anomalies"] == [], f"anomalies {ot['anomalies']}")
            for key in ("cbar_D", "clow_D", "Clow"):
                got = ot[key]["value"]
                require(abs(got - getattr(ts, key)) <= 1e-6,
                        f"oracle {key}={got} vs closed form {getattr(ts, key)}")
        ctx.latency(elapsed)
        rates.add("secondary_per_s", 1, elapsed)

    run_interleaved(ctx, [("verify --agreement", agreement)],
                    [("verify --thresholds", lambda q=q: verify(q))
                     for q in inp["points"]])
    rates.close()


# ------------------------------------------------------------ montecarlo
_CLI_MODES = {"efficient": bg_engine.ProfileMode.EFFICIENT_PEACE,
              "inefficient": bg_engine.ProfileMode.INEFFICIENT_PEACE,
              "cooperative": bg_engine.ProfileMode.COOPERATIVE_INEFFICIENT}


def _existing_point(rng: np.random.Generator, mode: str) -> bg_params.ModelParams:
    """A valid point at which the built-in profile of ``mode`` exists."""
    q = bg_params.sample_valid_params(rng)
    ts = bg_thresholds.compute_thresholds(q)
    if mode == "efficient":
        return q.with_overrides(c_D=max(ts.cbar_D, 0.0) + rng.uniform(0.1, 5.0),
                                c_R=rng.uniform(0.0, 10.0))
    c_d = max(ts.clow_D, 0.0) + rng.uniform(0.1, 5.0)
    q = q.with_overrides(c_D=c_d, c_R=max(ts.Clow - c_d, 0.0)
                         + rng.uniform(0.1, 5.0))
    if mode == "cooperative":
        q = q.with_overrides(
            elimination_mode=bg_params.EliminationMode.COOPERATIVE)
    return q


def montecarlo_inputs(rng: np.random.Generator, size: dict) -> dict:
    q = bg_params.sample_valid_params(rng, rho_spread=False)
    return {
        "params": q,
        "split": float(rng.uniform(0.2, 0.8)),
        "dists": (bg_params.BarrierDistribution.uniform_with_mean(q.mu, 0.2),
                  bg_params.BarrierDistribution.scaled_beta_with_mean(q.mu, 8.0)),
        "seeds": [int(s) for s in rng.integers(2 ** 31, size=4)],
        "cli": [(mode, _existing_point(rng, mode), int(rng.integers(2 ** 31)))
                for mode in _CLI_MODES
                for _ in range(size["sim_cli_calls"])],
    }


def _draw_variance(dist: bg_params.BarrierDistribution) -> float:
    if dist.kind is bg_params.DistributionKind.UNIFORM:
        return (dist.b - dist.a) ** 2 / 12.0
    if dist.kind is bg_params.DistributionKind.SCALED_BETA:
        n = dist.a + dist.b
        return dist.a * dist.b / (n * n * (n + 1.0))
    return 0.0


def _peace_moments(q, dist, split: float, horizon: int):
    """Mean and variance of each side's payoff under the peace profile: the
    barrier stands in periods 1-2 (resource h0, then one draw), falls in
    period 3 (full resource from then on), and the offer is split * y."""
    d = q.delta
    pie = q.h0 + d * q.mu + sum(d ** (t - 1) for t in range(3, horizon + 1))
    var = d * d * _draw_variance(dist)
    return ((1.0 - split) * pie, (1.0 - split) ** 2 * var,
            split * pie, split ** 2 * var)


def _war_moments(q, dist, horizon: int):
    """Mean and variance of each side's payoff under always-war: war in
    period 1 with the barrier standing and rho = 0, so the winner takes h0
    and one barrier draw in each later period."""
    d = q.delta
    spoils = q.h0 + q.mu * d * (1.0 - d ** (horizon - 1)) / (1.0 - d)
    var_spoils = (_draw_variance(dist) * d * d
                  * (1.0 - d ** (2 * (horizon - 1))) / (1.0 - d * d))
    wp = q.theta * q.p1
    bern = wp * (1.0 - wp) * spoils * spoils
    return ((1.0 - wp) * spoils - q.c_R, (1.0 - wp) * var_spoils + bern,
            wp * spoils - q.c_D, wp * var_spoils + bern)


def montecarlo_round(ctx: Context, inp: dict, size: dict) -> None:
    rates = RoundRates(ctx)
    with ctx.paused():
        q, split, horizon = inp["params"], inp["split"], size["horizon"]
        custom = bg_engine.ProfileMode.CUSTOM
        peace = bg_engine.StrategyProfile(
            custom, q,
            custom_eliminate=lambda t, y, barrier: t >= 3,
            custom_offer=lambda t, y, barrier: split * y,
            custom_accept=lambda t, y, barrier, offer: True)
        war = bg_engine.StrategyProfile(
            custom, q,
            custom_offer=lambda t, y, barrier: 0.0,
            custom_accept=lambda t, y, barrier, offer: False)

    def sim(kind, dist, seed):
        profile, runs = ((peace, size["peace_runs"]) if kind == "peace"
                         else (war, size["war_runs"]))
        t0 = time.perf_counter()
        stats = bg_engine.simulate(profile, q, dist, horizon=horizon,
                                   n_runs=runs, seed=seed)
        elapsed = time.perf_counter() - t0
        ctx.spent(elapsed)
        # every peace run plays all periods; every war run ends in period 1
        ctx.units["run_periods"] += runs * horizon if kind == "peace" else runs
        with ctx.paused():
            if kind == "peace":
                freq, moments = 0.0, _peace_moments(q, dist, split, horizon)
            else:
                freq, moments = 1.0, _war_moments(q, dist, horizon)
            mean_r, var_r, mean_d, var_d = moments
            require(stats.war_frequency == freq,
                    f"{kind} war frequency {stats.war_frequency}")
            for side, got, want, var in (
                    ("R", stats.payoff_r_mean, mean_r, var_r),
                    ("D", stats.payoff_d_mean, mean_d, var_d)):
                se = math.sqrt(var / runs)
                require(abs(got - want) <= 5.0 * se + 1e-12 * (1.0 + abs(want)),
                        f"{kind} {dist.describe()}: {side} mean {got} "
                        f"is more than 5 se ({se}) from {want}")
        if kind == "peace":
            rates.add("primary_per_s", runs * horizon, elapsed)
        else:  # one barrier draw per postwar period
            rates.add("secondary_per_s", runs * (horizon - 1), elapsed)

    def sim_cli(mode, point, seed):
        elapsed, out = ctx.cli(["simulate", *param_argv(point), "--mode", mode,
                                "--runs", "1000", "--horizon", "400",
                                "--seed", str(seed)])
        with ctx.paused():
            stats = ctx.load_json(out)["stats"]
            require(stats["war_frequency"] == 0.0,
                    f"simulate {mode}: war frequency {stats['war_frequency']}")
            v_r, v_d = bg_engine.analytic_payoffs(point, _CLI_MODES[mode])
            slack = stats["tail_bound"]
            require(abs(stats["payoff_r_mean"] - v_r) <= slack + 1e-9 * (1 + abs(v_r))
                    and abs(stats["payoff_d_mean"] - v_d) <= slack + 1e-9 * (1 + abs(v_d)),
                    f"simulate {mode}: payoffs differ from analytic ones")
        ctx.latency(elapsed)

    seeds = iter(inp["seeds"])
    run_interleaved(
        ctx,
        [(f"simulate {kind} {dist.kind.value}",
          lambda kind=kind, dist=dist, seed=next(seeds): sim(kind, dist, seed))
         for dist in inp["dists"] for kind in ("peace", "war")],
        [(f"simulate --mode {mode}",
          lambda mode=mode, point=point, seed=seed: sim_cli(mode, point, seed))
         for mode, point, seed in inp["cli"]])
    rates.close()


WORKLOADS = {
    "raster": (raster_inputs, raster_round),
    "oracle": (oracle_inputs, oracle_round),
    "montecarlo": (montecarlo_inputs, montecarlo_round),
}
