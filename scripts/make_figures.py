#!/usr/bin/env python3
"""Regenerate the region figures (and optionally the golden copies used by
the acceptance suite).

Usage:
    python scripts/make_figures.py [--outdir OUT] [--golden] [--resolution N]
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from barriergame.cli import _FIGURES, _panel_csvs, run  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--golden", action="store_true",
                    help="also refresh tests/golden (resolution forced to 32)")
    ap.add_argument("--resolution", type=int, default=32)
    args = ap.parse_args()

    # (directory, resolution, with a CSV twin); the goldens are SVG only
    targets = [(args.outdir, args.resolution, True)]
    if args.golden:
        golden = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")
        targets.append((golden, 32, False))
    for outdir, resolution, with_csv in targets:
        os.makedirs(outdir, exist_ok=True)
        for figure_id in _FIGURES:
            svg = os.path.join(outdir, f"{figure_id}.svg")
            csv = os.path.join(outdir, f"{figure_id}.csv")
            code = run(["figure", figure_id, "--preset", "demo-b", "-o", svg,
                        *(["--csv", csv] if with_csv else []),
                        "--resolution", str(resolution)])
            if code != 0:
                return code
            written = [svg]
            if with_csv:
                knob, values, _ = _FIGURES[figure_id]
                written += _panel_csvs(csv, knob, values)
            for path in written:
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
