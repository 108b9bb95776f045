"""SVG and CSV emission for region figures.

SVG is hand-emitted primitive shapes with fixed number formatting so output
is byte-stable and suitable for golden-file comparison.  A figure is
written one raster row at a time, as its cells are classified.
"""
from __future__ import annotations

import contextlib
from typing import Optional, Sequence, TextIO

from .classifier import RegionGrid, RegionLabel

CSV_HEADER = "c_R,c_D,label,margin_efficient,margin_cd,margin_joint"

# Both collapses onto the efficient-peace color for figure reproduction;
# the CSV keeps the raw labels.
_FILL = {
    RegionLabel.WAR: "#c0392b",
    RegionLabel.INEFFICIENT_PEACE: "#e8a33d",
    RegionLabel.EFFICIENT_PEACE: "#2e8b57",
    RegionLabel.BOTH: "#2e8b57",
    RegionLabel.SKIPPED: "#bbbbbb",
}
_LEGEND = (
    (RegionLabel.WAR, "War"),
    (RegionLabel.INEFFICIENT_PEACE, "Inefficient peace"),
    (RegionLabel.EFFICIENT_PEACE, "Efficient peace"),
)


_PLOT_W = 320.0
_PLOT_H = 280.0
_MARGIN_L = 64.0
_MARGIN_T = 36.0
_MARGIN_B = 64.0
_PANEL_GAP = 28.0
_LEGEND_H = 30.0


def _px(v: float) -> str:
    return f"{v:.2f}"


def _panel_marks(grid: RegionGrid, x0: float, y0: float,
                 subtitle: str) -> list[str]:
    """A panel's frame, boundary curves and annotations: all but its cells."""
    cr_lo, cr_hi = grid.cr_range
    cd_lo, cd_hi = grid.cd_range

    def sx(cr: float) -> float:
        return x0 + (cr - cr_lo) / (cr_hi - cr_lo) * _PLOT_W

    def sy(cd: float) -> float:
        return y0 + _PLOT_H - (cd - cd_lo) / (cd_hi - cd_lo) * _PLOT_H

    parts = []
    # frame
    parts.append(f'<rect x="{_px(x0)}" y="{_px(y0)}" width="{_px(_PLOT_W)}" '
                 f'height="{_px(_PLOT_H)}" fill="none" stroke="#222" '
                 f'stroke-width="1"/>')
    # dashed horizontal boundaries at the two responder-cost thresholds
    ts = grid.thresholds
    for value, name in ((ts.cbar_D, "upper"), (ts.clow_D, "lower")):
        if cd_lo <= value <= cd_hi:
            y = sy(value)
            parts.append(f'<line x1="{_px(x0)}" y1="{_px(y)}" '
                         f'x2="{_px(x0 + _PLOT_W)}" y2="{_px(y)}" '
                         f'stroke="#111" stroke-width="1.5" '
                         f'stroke-dasharray="6,4"/>')
            parts.append(f'<text x="{_px(x0 + _PLOT_W + 4)}" y="{_px(y + 4)}" '
                         f'font-size="11" fill="#111">{name}</text>')
    # slanted joint-cost boundary c_D + c_R = Clow, when it crosses the box
    clow = ts.Clow
    pts = []
    for cr in (cr_lo, cr_hi):
        cd = clow - cr
        if cd_lo <= cd <= cd_hi:
            pts.append((cr, cd))
    for cd in (cd_lo, cd_hi):
        cr = clow - cd
        if cr_lo < cr < cr_hi:
            pts.append((cr, cd))
    if len(pts) >= 2:
        (a_cr, a_cd), (b_cr, b_cd) = pts[0], pts[-1]
        parts.append(f'<line x1="{_px(sx(a_cr))}" y1="{_px(sy(a_cd))}" '
                     f'x2="{_px(sx(b_cr))}" y2="{_px(sy(b_cd))}" '
                     f'stroke="#111" stroke-width="1.5" '
                     f'stroke-dasharray="2,3"/>')
    # axes annotation
    parts.append(f'<text x="{_px(x0 + _PLOT_W / 2)}" y="{_px(y0 + _PLOT_H + 30)}" '
                 f'font-size="13" text-anchor="middle" fill="#111">c_R</text>')
    parts.append(f'<text x="{_px(x0 - 44)}" y="{_px(y0 + _PLOT_H / 2)}" '
                 f'font-size="13" text-anchor="middle" fill="#111" '
                 f'transform="rotate(-90 {_px(x0 - 44)} {_px(y0 + _PLOT_H / 2)})"'
                 f'>c_D</text>')
    for cr in (cr_lo, cr_hi):
        parts.append(f'<text x="{_px(sx(cr))}" y="{_px(y0 + _PLOT_H + 14)}" '
                     f'font-size="10" text-anchor="middle" fill="#333">'
                     f'{format(cr, ".6g")}</text>')
    for cd in (cd_lo, cd_hi):
        parts.append(f'<text x="{_px(x0 - 6)}" y="{_px(sy(cd) + 3)}" '
                     f'font-size="10" text-anchor="end" fill="#333">'
                     f'{format(cd, ".6g")}</text>')
    parts.append(f'<text x="{_px(x0 + _PLOT_W / 2)}" y="{_px(y0 - 10)}" '
                 f'font-size="13" text-anchor="middle" fill="#111">'
                 f'{subtitle}</text>')
    return parts


def _write_cells(svg: TextIO, csv: Optional[TextIO], grid: RegionGrid,
                 x0: float, y0: float) -> None:
    """Write a panel's cell rects to ``svg`` and, unless ``csv`` is None,
    its CSV twin, one raster row at a time.  CSV rows run by increasing c_D
    then c_R with 12 significant digits; a Skipped cell's nan margins print
    as ``nan``.  Each c_R and cell x is formatted once per column, each c_D
    and cell y once per row."""
    n_cr = len(grid.cr_values)
    cw = _PLOT_W / n_cr
    ch = _PLOT_H / len(grid.cd_values)
    heads = [f'<rect x="{_px(x0 + j * cw)}" y="' for j in range(n_cr)]
    size = f'" width="{_px(cw)}" height="{_px(ch)}" fill="'
    cr_texts = [format(cr, ".12g") for cr in grid.cr_values]
    if csv is not None:
        csv.write(CSV_HEADER + "\n")
    for i, (cd, row) in enumerate(zip(grid.cd_values, grid.rows())):
        mid = _px(y0 + _PLOT_H - (i + 1) * ch) + size
        svg.write("".join([f'{head}{mid}{_FILL[label]}"/>\n'
                           for head, (label, _) in zip(heads, row)]))
        if csv is not None:
            mid = f",{cd:.12g},"
            csv.write("".join([
                f"{cr}{mid}{label.value},{m.efficient:.12g},{m.cd:.12g},"
                f"{m.joint:.12g}\n" for cr, (label, m) in zip(cr_texts, row)]))


def emit_figure(panels: Sequence[tuple[str, RegionGrid]], title: str,
                svg: str, csvs: Sequence[str]) -> None:
    """Write the figure of ``panels`` to the file ``svg`` and, when ``csvs``
    names one file per panel, each panel's CSV twin.  Each grid's rows are
    read once, and each row is written to both files before the next is
    read, so memory grows with the resolution, not its square."""
    n = len(panels)
    if n == 0 or len(csvs) not in (0, n):
        raise ValueError(f"{n} panels and {len(csvs)} CSV paths: a figure "
                         f"needs a panel, and no CSV or one per panel")
    width = _MARGIN_L + n * _PLOT_W + (n - 1) * _PANEL_GAP + _MARGIN_L
    height = _MARGIN_T + _PLOT_H + _MARGIN_B + _LEGEND_H
    y0 = _MARGIN_T + 16
    with open(svg, "w") as out:
        out.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_px(width)}" '
            f'height="{_px(height)}" viewBox="0 0 {_px(width)} '
            f'{_px(height)}">\n'
            f'<rect x="0" y="0" width="{_px(width)}" height="{_px(height)}" '
            f'fill="#ffffff"/>\n'
            f'<text x="{_px(width / 2)}" y="20" font-size="15" '
            f'text-anchor="middle" fill="#111">{title}</text>\n')
        for k, (subtitle, grid) in enumerate(panels):
            x0 = _MARGIN_L + k * (_PLOT_W + _PANEL_GAP)
            with (open(csvs[k], "w", newline="") if csvs
                  else contextlib.nullcontext()) as csv:
                _write_cells(out, csv, grid, x0, y0)
            out.write("\n".join(_panel_marks(grid, x0, y0, subtitle)) + "\n")
        # legend
        lx = _MARGIN_L
        ly = height - _LEGEND_H + 8
        for label, text in _LEGEND:
            out.write(f'<rect x="{_px(lx)}" y="{_px(ly)}" width="14" '
                      f'height="14" fill="{_FILL[label]}" stroke="#222" '
                      f'stroke-width="0.5"/>\n'
                      f'<text x="{_px(lx + 20)}" y="{_px(ly + 11)}" '
                      f'font-size="12" fill="#111">{text}</text>\n')
            lx += 20 + 8 * len(text) + 30
        out.write("</svg>\n")
