"""Command-line surface.

Subcommands: thresholds, classify, sweep, figure, simulate, verify, presets.
Parameter precedence: CLI flags > config file > preset > defaults.  Errors
leave a machine-readable JSON object on stderr and a nonzero exit status.
The BARRIERGAME_OUTDIR environment variable prefixes relative output paths.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional, Sequence

from .classifier import (
    SWEEPABLE_KNOBS,
    classify,
    comparative_static,
    intersection_nonempty,
    region_grid,
)
from .engine import (
    GameError,
    ProfileMode,
    equilibrium_profile,
    simulate,
)
from .oracle import (
    AGREEMENT_CSV_HEADER,
    agreement_rows,
    oracle_thresholds,
    verify_period1,
)
from .output import CSV_HEADER, emit_csv, emit_svg
from .params import (
    BarrierDistribution,
    EliminationMode,
    InvalidParamsError,
    ModelParams,
    require_valid,
)
from .presets import get_preset, list_presets
from .thresholds import compute_thresholds

_PARAM_FLAGS = {
    "delta": "--delta",
    "p": "--p",
    "p1": "--p1",
    "mu": "--mu",
    "h0": "--h0",
    "c_R": "--c-r",
    "c_D": "--c-d",
    "rho": "--rho",
    "theta": "--theta",
}

_MODES = {
    "efficient": ProfileMode.EFFICIENT_PEACE,
    "inefficient": ProfileMode.INEFFICIENT_PEACE,
    "cooperative": ProfileMode.COOPERATIVE_INEFFICIENT,
}

# upper bounds on the sizes that set allocations
_MAX_AGREEMENT = 100_000
_MAX_RESOLUTION = 4_000
_MAX_RUNS = 10_000_000
_MAX_HORIZON = 1_000_000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route usage errors (unknown flags, bad choices) through the
    # machine-readable error path instead of bare usage text
    def error(self, message):
        raise CliError(message)


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--preset", help="named parameter preset")
    sp.add_argument("--config", help="JSON file with parameter fields")
    for name, flag in _PARAM_FLAGS.items():
        sp.add_argument(flag, dest=f"param_{name}", type=float, default=None)
    sp.add_argument("--elimination-mode", dest="param_elimination_mode",
                    choices=[m.value for m in EliminationMode], default=None)


def _collect_params(args: argparse.Namespace) -> ModelParams:
    layered: dict = {}
    if args.preset:
        try:
            layered.update(get_preset(args.preset).params.to_dict())
        except KeyError as e:
            raise CliError(str(e))
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as e:
            raise CliError(f"unreadable config: {e}")
        except json.JSONDecodeError as e:
            raise CliError(f"config is not valid JSON: {e}")
        if not isinstance(cfg, dict):
            raise CliError("config must be a JSON object of parameter fields")
        layered.update(cfg)
    for name in _PARAM_FLAGS:
        value = getattr(args, f"param_{name}")
        if value is not None:
            layered[name] = value
    if args.param_elimination_mode is not None:
        layered["elimination_mode"] = args.param_elimination_mode
    missing = [k for k in ("delta", "p", "p1", "mu", "h0", "c_R", "c_D")
               if k not in layered]
    if missing:
        raise CliError(f"missing parameters {missing}; supply a preset, a "
                       f"config file, or flags")
    try:
        return ModelParams.from_dict(layered)
    except (ValueError, TypeError) as e:
        raise CliError(str(e))


def _out_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("BARRIERGAME_OUTDIR", "."), path)


def _finite(value):
    # strict JSON has no token for inf or nan; they are reported as null
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _json_text(payload: dict, **fmt) -> str:
    """Serialize a stdout, --out or stderr payload as strict JSON."""
    return json.dumps(_finite(payload), allow_nan=False, **fmt) + "\n"


def _require_size(value: int, flag: str, cap: int) -> None:
    # called before any work starts, since these sizes set allocations
    if not 1 <= value <= cap:
        raise CliError(f"{flag} must lie in 1..{cap}, got {value}")


def _write(text: str, out: Optional[str]) -> None:
    # the file named on the command line, else stdout
    if out:
        with open(_out_path(out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _write(_json_text(payload, indent=2, sort_keys=True), out)


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise CliError(f"{flag} expects LO:HI, got {text!r}")
    # nan or inf in either end, or a width that overflows, makes hi - lo
    # non-finite; any of them would put nan into the figure's geometry
    if not math.isfinite(hi - lo):
        raise CliError(f"{flag} requires finite LO, HI and HI - LO, "
                       f"got {text!r}")
    if not hi > lo:
        raise CliError(f"{flag} requires HI > LO, got {text!r}")
    return lo, hi


def _build_dist(args: argparse.Namespace, params: ModelParams) -> BarrierDistribution:
    kind = args.dist
    if kind == "degenerate":
        return BarrierDistribution.degenerate(params.mu)
    if kind == "uniform":
        return BarrierDistribution.uniform_with_mean(params.mu, args.dist_width)
    return BarrierDistribution.scaled_beta_with_mean(params.mu,
                                                     args.dist_concentration)


def _cmd_thresholds(args) -> int:
    params = _collect_params(args)
    require_valid(params)
    payload = {"params": params.to_dict(),
               "thresholds": compute_thresholds(params).to_dict()}
    if args.intersection:
        payload["intersection"] = intersection_nonempty(params).to_dict()
    _emit_json(payload, args.out)
    return 0


def _cmd_classify(args) -> int:
    params = _collect_params(args)
    report = classify(params)
    payload = {"params": params.to_dict(), "report": report.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _collect_params(args)
    require_valid(params)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"--values expects a comma list of numbers, got {args.values!r}")
    if not values:
        raise CliError("--values is empty")
    try:
        reports = comparative_static(params, args.knob, values)
    except ValueError as e:
        raise CliError(str(e))
    header = (f"{args.knob},cbar_D,clow_D,Clow,postwar_mean,"
              f"efficient,inefficient,war")
    lines = [header]
    for value, rep in zip(values, reports):
        ts = rep.thresholds
        lines.append(",".join([
            format(value, ".12g"), format(ts.cbar_D, ".12g"),
            format(ts.clow_D, ".12g"), format(ts.Clow, ".12g"),
            format(ts.postwar_mean, ".12g"),
            str(rep.efficient_peace_exists).lower(),
            str(rep.inefficient_peace_exists).lower(),
            str(rep.war_inevitable).lower(),
        ]))
    _write("\n".join(lines) + "\n", args.out)
    return 0


# figure id -> (swept knob or None, default knob values, title)
_FIGURES = {
    "regions": (None, (), "Equilibrium regions in the (c_R, c_D) plane"),
    "mu-shift": ("mu", (0.5, 0.8),
                 "Barrier severity and the scope of inefficient peace"),
    "p-shift": ("p", (0.2, 0.4),
                "Size of the power shift and the scope of peace"),
}


def _cmd_figure(args) -> int:
    _require_size(args.resolution, "--resolution", _MAX_RESOLUTION)
    cr_range = _parse_range(args.cr_range, "--cr-range")
    cd_range = _parse_range(args.cd_range, "--cd-range")
    params = _collect_params(args)
    require_valid(params)
    knob, default_values, title = _FIGURES[args.figure_id]
    if knob is None:
        panels = [("base", region_grid(params, cr_range, cd_range,
                                       args.resolution))]
    else:
        if args.values:
            try:
                values = tuple(float(v) for v in args.values.split(","))
            except ValueError:
                raise CliError(f"--values expects numbers, got {args.values!r}")
        else:
            values = default_values
        panels = [(f"{knob} = {format(v, '.6g')}",
                   region_grid(params.with_overrides(**{knob: v}), cr_range,
                               cd_range, args.resolution))
                  for v in values]
    emit_svg(panels, title, _out_path(args.out))
    if args.csv:
        base = _out_path(args.csv)
        if len(panels) == 1:
            emit_csv(panels[0][1], base)
        else:
            stem, ext = os.path.splitext(base)
            for subtitle, grid in panels:
                tag = subtitle.replace(" ", "").replace("=", "-")
                emit_csv(grid, f"{stem}-{tag}{ext or '.csv'}")
    return 0


def _cmd_simulate(args) -> int:
    _require_size(args.runs, "--runs", _MAX_RUNS)
    _require_size(args.horizon, "--horizon", _MAX_HORIZON)
    params = _collect_params(args)
    mode = _MODES[args.mode]
    profile = equilibrium_profile(params, mode)
    dist = _build_dist(args, params)
    trace_fh = open(_out_path(args.trace), "w") if args.trace else None
    try:
        stats = simulate(profile, params, dist, horizon=args.horizon,
                         n_runs=args.runs, seed=args.seed, trace=trace_fh)
    finally:
        if trace_fh:
            trace_fh.close()
    payload = {"params": params.to_dict(), "mode": mode.value,
               "distribution": dist.describe(), "stats": stats.to_dict()}
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.agreement is not None:
        _require_size(args.agreement, "--agreement", _MAX_AGREEMENT)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be finite and >= 0, got {args.tol}")
    params = _collect_params(args)
    require_valid(params)
    mode = _MODES[args.mode]
    report = verify_period1(params, mode, tol=args.tol)
    payload = {"params": params.to_dict(), "report": report.to_dict()}
    if args.thresholds:
        payload["oracle_thresholds"] = oracle_thresholds(params).to_dict()
    _emit_json(payload, args.out)
    if args.agreement:
        rows = agreement_rows(args.agreement, seed=args.seed)
        _write(AGREEMENT_CSV_HEADER + "\n" + "\n".join(rows) + "\n",
               args.agreement_csv)
    return 0


def _cmd_presets(args) -> int:
    payload = {"presets": [p.to_dict() for p in list_presets()]}
    _emit_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="barriergame",
        description=("Solve, classify, simulate, and verify the two-player "
                     "crisis-bargaining game with a removable trade barrier."))
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    sp = sub.add_parser("thresholds", help="closed-form thresholds as JSON")
    _add_param_flags(sp)
    sp.add_argument("--intersection", action="store_true",
                    help="also report the exact inefficient-only cost band")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_thresholds)

    sp = sub.add_parser("classify", help="equilibrium taxonomy at one point")
    _add_param_flags(sp)
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("sweep", help="comparative statics along one knob")
    _add_param_flags(sp)
    sp.add_argument("--knob", required=True,
                    choices=SWEEPABLE_KNOBS)
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("figure", help="region figures as SVG (+ CSV twin)")
    sp.add_argument("figure_id", choices=sorted(_FIGURES))
    _add_param_flags(sp)
    sp.add_argument("-o", "--out", required=True, help="SVG output path")
    sp.add_argument("--csv", help="CSV twin output path")
    sp.add_argument("--resolution", type=int, default=40,
                    help=f"cells per axis (1..{_MAX_RESOLUTION})")
    sp.add_argument("--cr-range", default="0:10")
    sp.add_argument("--cd-range", default="0:40")
    sp.add_argument("--values", help="override knob values for shift figures")
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("simulate", help="Monte Carlo payoffs under a profile")
    _add_param_flags(sp)
    sp.add_argument("--mode", choices=sorted(_MODES), default="inefficient")
    sp.add_argument("--runs", type=int, default=10_000,
                    help=f"Monte Carlo runs (1..{_MAX_RUNS})")
    sp.add_argument("--horizon", type=int, default=400,
                    help=f"periods per run (1..{_MAX_HORIZON})")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dist", choices=["degenerate", "uniform", "scaled-beta"],
                    default="degenerate")
    sp.add_argument("--dist-width", type=float, default=0.2)
    sp.add_argument("--dist-concentration", type=float, default=8.0)
    sp.add_argument("--trace", help="write per-period JSONL trajectory records")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="deviation-check a built-in profile")
    _add_param_flags(sp)
    sp.add_argument("--mode", choices=sorted(_MODES), default="inefficient")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--thresholds", action="store_true",
                    help="also re-derive thresholds by bisection")
    sp.add_argument("--agreement", type=int, metavar="N",
                    help="emit an oracle-vs-formula agreement summary over "
                         "N random points, bisected as one batch "
                         f"(1..{_MAX_AGREEMENT})")
    sp.add_argument("--agreement-csv", help="agreement summary output path")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("presets", help="list shipped parameter presets")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_presets)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the tree untouched and the handlers look up the library
    # functions as module globals when called, so one tree serves every
    # in-process run; a shell command still builds exactly one
    return build_parser()


def run(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        # --help and friends
        return int(e.code or 0)
    except InvalidParamsError as e:
        sys.stderr.write(_json_text({"error": "invalid parameters",
                                     "detail": list(e.violations)}))
        return 2
    except (CliError, GameError, OSError, ValueError) as e:
        sys.stderr.write(_json_text({"error": str(e)}))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
