"""Command-line surface.

Subcommands: thresholds, classify, sweep, figure, simulate, verify, presets.
Parameter precedence: CLI flags > config file > preset > defaults.  Errors
leave a machine-readable JSON object on stderr and a nonzero exit status.
The BARRIERGAME_OUTDIR environment variable prefixes relative output paths.
"""
from __future__ import annotations

import argparse
import contextlib
import enum
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
    StrategyProfile,
    simulate,
)
from .oracle import (
    AGREEMENT_CSV_HEADER,
    agreement_rows,
    oracle_thresholds,
    verify_period1,
)
from .output import emit_figure
from .params import (
    BarrierDistribution,
    EliminationMode,
    InvalidParamsError,
    ModelParams,
    require_valid,
)
from .presets import get_preset, list_presets
from .thresholds import compute_thresholds

# the config keys and flags are ModelParams' fields (c_R -> --c-r); a field
# without a default is required
_PARAM_FLAGS = {name: "--" + name.lower().replace("_", "-")
                for name in ModelParams._fields if name != "elimination_mode"}

_MODES = {
    "efficient": ProfileMode.EFFICIENT_PEACE,
    "inefficient": ProfileMode.INEFFICIENT_PEACE,
    "cooperative": ProfileMode.COOPERATIVE_INEFFICIENT,
}

# upper bounds on the sizes a command accepts.  --agreement sets the points
# and rows held in memory; --resolution the cells of one raster row, the
# most a figure holds, since it streams row by row; a figure's total cells
# (panels x resolution^2, at most _MAX_RESOLUTION ** 2) bound its work, not
# its memory.  On the built-in path the CLI plays, --runs sets no
# allocation, and --horizon the periods walked and traced.
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


def _collect_params(args: argparse.Namespace) -> ModelParams:
    layered: dict = {}
    if args.preset:
        try:
            layered.update(get_preset(args.preset).params._asdict())
        except KeyError as e:
            raise CliError(e.args[0])
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
    for name in ModelParams._fields:
        value = getattr(args, f"param_{name}")
        if value is not None:
            layered[name] = value
    missing = [name for name in ModelParams._fields if name not in layered
               and name not in ModelParams._field_defaults]
    if missing:
        raise CliError(f"missing parameters {missing}; supply a preset, a "
                       f"config file, or flags")
    try:
        params = ModelParams.from_dict(layered)
    except (ValueError, TypeError) as e:
        raise CliError(str(e))
    require_valid(params)
    return params


def _out_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get("BARRIERGAME_OUTDIR", "."), path)


@functools.cache
def _json_keys(record_type: type) -> tuple[str, ...]:
    # a record's JSON keys: its fields, then the properties its class defines
    return record_type._fields + tuple(
        name for name, attr in vars(record_type).items()
        if isinstance(attr, property))


def _plain(value):
    """The one JSON rule: a named-tuple record is an object of its fields
    and properties, an enum its value, a dict key its ``str``, any other
    tuple a list, and a non-finite float null, since strict JSON has no
    token for inf or nan."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: _plain(getattr(value, k)) for k in _json_keys(type(value))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _json_text(payload: dict, **fmt) -> str:
    """Serialize a stdout, --out or stderr payload as strict JSON."""
    return json.dumps(_plain(payload), allow_nan=False, **fmt) + "\n"


def _require_size(value: int, flag: str, cap: int) -> None:
    # called before any work starts, since these sizes set work or memory
    if not 1 <= value <= cap:
        raise CliError(f"{flag} must lie in 1..{cap}, got {value}")


def _refuse_outputs(*paths: Optional[str]) -> None:
    """Refuse, before any work, an output file whose directory does not
    exist, an output that names a directory and two output files that
    resolve to one path."""
    real = [os.path.realpath(_out_path(p)) for p in paths if p]
    for i, path in enumerate(real):
        if not os.path.isdir(os.path.dirname(path)):
            raise CliError(f"no directory for output {path}")
        if os.path.isdir(path):
            raise CliError(f"output {path} is a directory")
        if path in real[:i]:
            raise CliError(f"two outputs would write to {path}")


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


def _parse_values(text: str) -> list[float]:
    """A --values comma list; blank entries are skipped, an empty list refused."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"--values expects a comma list of numbers, got {text!r}")
    if not values:
        raise CliError("--values is empty")
    return values


def _played_point(args) -> tuple[ModelParams, ProfileMode]:
    """Check --seed, then read the point and the profile mode to play."""
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    return _collect_params(args), _MODES[args.mode]


def _cmd_thresholds(args) -> int:
    params = _collect_params(args)
    payload = {"params": params, "thresholds": compute_thresholds(params)}
    if args.intersection:
        payload["intersection"] = intersection_nonempty(params)
    _emit_json(payload, args.out)
    return 0


def _cmd_classify(args) -> int:
    params = _collect_params(args)
    _emit_json({"params": params, "report": classify(params)}, args.out)
    return 0


def _cmd_sweep(args) -> int:
    params = _collect_params(args)
    values = _parse_values(args.values)
    reports = comparative_static(params, args.knob, values)
    lines = [f"{args.knob},cbar_D,clow_D,Clow,postwar_mean,"
             f"efficient,inefficient,war"]
    for value, rep in zip(values, reports):
        ts = rep.thresholds
        flags = (rep.efficient_peace_exists, rep.inefficient_peace_exists,
                 rep.war_inevitable)
        lines.append("%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s,%s" % (
            value, ts.cbar_D, ts.clow_D, ts.Clow, ts.postwar_mean,
            *(str(flag).lower() for flag in flags)))
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


def _panel_csvs(csv: str, knob: Optional[str],
                values: Sequence[float]) -> list[str]:
    """The CSV twins of a figure whose panels set ``knob`` to ``values``:
    ``csv`` itself for one panel, else one per panel, named
    ``<stem>-<knob>-<value><ext>`` with the value as its panel label prints
    it (``mu-shift.csv`` -> ``mu-shift-mu-0.5.csv``)."""
    if len(values) < 2:
        return [csv]
    stem, ext = os.path.splitext(csv)
    return [f"{stem}-{knob}-{format(v, '.6g')}{ext or '.csv'}" for v in values]


def _cmd_figure(args) -> int:
    _require_size(args.resolution, "--resolution", _MAX_RESOLUTION)
    cr_range = _parse_range(args.cr_range, "--cr-range")
    cd_range = _parse_range(args.cd_range, "--cd-range")
    params = _collect_params(args)
    knob, values, title = _FIGURES[args.figure_id]
    if knob is None:
        if args.values is not None:
            raise CliError("--values applies to the shift figures, not regions")
        points = [("base", params)]
    else:
        if args.values is not None:
            values = _parse_values(args.values)
        points = [(f"{knob} = {format(v, '.6g')}",
                   params.with_overrides(**{knob: v})) for v in values]
    # every panel is sized and checked before the first raster
    _require_size(len(points) * args.resolution ** 2,
                  "figure cells (panels x resolution^2)", _MAX_RESOLUTION ** 2)
    labels: set[str] = set()
    for subtitle, point in points:
        # a repeated label would draw two panels alike and share a CSV twin
        if subtitle in labels:
            raise CliError(f"--values gives two panels labeled {subtitle!r}")
        labels.add(subtitle)
        require_valid(point)
    csvs = _panel_csvs(args.csv, knob, values) if args.csv else []
    # a figure of several panels writes no file named --csv itself, so its
    # outputs are checked here, under the names it writes
    _refuse_outputs(args.out, *csvs)
    panels = [(subtitle, region_grid(point, cr_range, cd_range,
                                     args.resolution))
              for subtitle, point in points]
    emit_figure(panels, title, _out_path(args.out),
                [_out_path(path) for path in csvs])
    return 0


def _cmd_simulate(args) -> int:
    _require_size(args.runs, "--runs", _MAX_RUNS)
    _require_size(args.horizon, "--horizon", _MAX_HORIZON)
    params, mode = _played_point(args)
    profile = StrategyProfile(mode, params)
    # built-in play draws no barrier value, so the point mass at mu prices
    # it as every distribution with that mean would
    dist = BarrierDistribution.degenerate(params.mu)
    with (open(_out_path(args.trace), "w") if args.trace
          else contextlib.nullcontext()) as trace_fh:
        stats = simulate(profile, params, dist, horizon=args.horizon,
                         n_runs=args.runs, seed=args.seed, trace=trace_fh)
    payload = {"params": params, "mode": mode,
               "distribution": dist.describe(), "stats": stats}
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.agreement_csv is not None and args.agreement is None:
        raise CliError("--agreement-csv requires --agreement")
    if args.agreement is not None:
        _require_size(args.agreement, "--agreement", _MAX_AGREEMENT)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise CliError(f"--tol must be finite and >= 0, got {args.tol}")
    params, mode = _played_point(args)
    if args.agreement and not (args.out or args.agreement_csv):
        raise CliError("two outputs would write to stdout")
    report = verify_period1(params, mode, tol=args.tol)
    payload = {"params": params, "report": report}
    if args.thresholds:
        payload["oracle_thresholds"] = oracle_thresholds(params)
    _emit_json(payload, args.out)
    if args.agreement:
        rows = agreement_rows(args.agreement, seed=args.seed)
        _write(AGREEMENT_CSV_HEADER + "\n" + "\n".join(rows) + "\n",
               args.agreement_csv)
    return 0


def _cmd_presets(args) -> int:
    _emit_json({"presets": list_presets()}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="barriergame",
        description=("Solve, classify, simulate, and verify the two-player "
                     "crisis-bargaining game with a removable trade barrier."))
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    # the flags several subcommands share, each declared once
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--preset", help="named parameter preset")
    params.add_argument("--config", help="JSON file with parameter fields")
    for name, flag in _PARAM_FLAGS.items():
        params.add_argument(flag, dest=f"param_{name}", type=float)
    params.add_argument("--elimination-mode", dest="param_elimination_mode",
                        choices=[m.value for m in EliminationMode])
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out")
    played = argparse.ArgumentParser(add_help=False)
    played.add_argument("--mode", choices=sorted(_MODES), default="inefficient")
    played.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("thresholds", parents=[params, out],
                        help="closed-form thresholds as JSON")
    sp.add_argument("--intersection", action="store_true",
                    help="also report the exact inefficient-only cost band")
    sp.set_defaults(func=_cmd_thresholds)

    sp = sub.add_parser("classify", parents=[params, out],
                        help="equilibrium taxonomy at one point")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("sweep", parents=[params, out],
                        help="comparative statics along one knob")
    sp.add_argument("--knob", required=True, choices=SWEEPABLE_KNOBS)
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("figure", parents=[params],
                        help="region figures as SVG (+ CSV twin)")
    sp.add_argument("figure_id", choices=sorted(_FIGURES))
    sp.add_argument("-o", "--out", required=True, help="SVG output path")
    sp.add_argument("--csv", help="CSV twin output path; a figure of "
                    "several panels writes one twin per panel, "
                    "<stem>-<knob>-<value><ext>")
    sp.add_argument("--resolution", type=int, default=40,
                    help=f"cells per axis (1..{_MAX_RESOLUTION})")
    sp.add_argument("--cr-range", default="0:10")
    sp.add_argument("--cd-range", default="0:40")
    sp.add_argument("--values", help="override knob values for shift figures")
    sp.set_defaults(func=_cmd_figure)

    sp = sub.add_parser("simulate", parents=[params, out, played],
                        help="Monte Carlo payoffs under a profile")
    sp.add_argument("--runs", type=int, default=10_000,
                    help=f"Monte Carlo runs (1..{_MAX_RUNS})")
    sp.add_argument("--horizon", type=int, default=400,
                    help=f"periods per run (1..{_MAX_HORIZON})")
    sp.add_argument("--trace", help="write per-period JSONL trajectory records")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", parents=[params, out, played],
                        help="deviation-check a built-in profile")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--thresholds", action="store_true",
                    help="also re-derive thresholds by the oracle's solve")
    sp.add_argument("--agreement", type=int, metavar="N",
                    help="emit an oracle-vs-formula agreement summary over "
                         f"N random points (1..{_MAX_AGREEMENT})")
    sp.add_argument("--agreement-csv", help="agreement summary output path")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("presets", parents=[out],
                        help="list shipped parameter presets")
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
        _refuse_outputs(*(getattr(args, dest, None) for dest
                          in ("out", "trace", "agreement_csv")))
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
