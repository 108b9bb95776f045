import math

import pytest

from barriergame.classifier import (
    EquilibriumReport,
    RegionLabel,
    Margins,
    region_grid,
)
from barriergame.output import (
    _FILL,
    _MARGIN_L,
    _MARGIN_T,
    _PANEL_GAP,
    _PLOT_H,
    _PLOT_W,
    CSV_HEADER,
    emit_figure,
)
from barriergame.presets import get_preset
from barriergame.thresholds import compute_thresholds
from conftest import grid_labels, make


def render(tmp_path, panels, title="regions", csvs=()):
    """The SVG text emit_figure writes for ``panels``."""
    path = tmp_path / "fig.svg"
    emit_figure(panels, title, str(path), [str(tmp_path / c) for c in csvs])
    return path.read_text()


def write_csv(grid, path):
    emit_figure([("base", grid)], "regions", str(path) + ".svg", [str(path)])


def parse_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        cr, cd, label, m_eff, m_cd, m_joint = line.split(",")
        rows.append((float(cr), float(cd), label,
                     float(m_eff), float(m_cd), float(m_joint)))
    return rows


# Per-cell reference formatters: the emitters as they were before they
# built their strings from per-row and per-column prefixes.  They read the
# cells through RegionGrid.rows, as the emitter does.

def reference_num(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(x, ".12g")


def reference_csv_rows(grid):
    rows = []
    for cd, cells in zip(grid.cd_values, grid.rows()):
        for cr, (label, m) in zip(grid.cr_values, cells):
            rows.append(",".join([
                reference_num(cr), reference_num(cd), label.value,
                reference_num(m.efficient), reference_num(m.cd),
                reference_num(m.joint),
            ]))
    return rows


def reference_cell_rects(grid, x0, y0):
    def px(v):
        return f"{v:.2f}"

    cw = _PLOT_W / len(grid.cr_values)
    ch = _PLOT_H / len(grid.cd_values)
    parts = []
    for i, cells in enumerate(grid.rows()):
        for j, (label, _) in enumerate(cells):
            fill = _FILL[label]
            x = x0 + j * cw
            y = y0 + _PLOT_H - (i + 1) * ch
            parts.append(f'<rect x="{px(x)}" y="{px(y)}" width="{px(cw)}" '
                         f'height="{px(ch)}" fill="{fill}"/>')
    return parts


def cell_rects(svg):
    # cell rects are the rects with neither a stroke nor the white page fill
    return [line for line in svg.splitlines()
            if line.startswith("<rect ") and "stroke" not in line
            and 'fill="#ffffff"' not in line]


REFERENCE_GRIDS = [
    # (base, c_R range, c_D range): Skipped cells below zero, ranges that
    # cross zero, and a point whose joint threshold is positive
    (get_preset("demo-b").params, (0.0, 10.0), (0.0, 40.0)),
    (get_preset("demo-b").params, (-3.0, 3.0), (-10.0, 40.0)),
    (make(delta=0.5, p=0.5, p1=0.55, mu=0.95, h0=0.1), (-0.5, 1.0), (-0.2, 1.0)),
    (make(mu=0.5), (-1e-3, 7.25), (-40.0, 40.0)),
]


class TestAgainstPerCellReference:
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("case", range(len(REFERENCE_GRIDS)))
    def test_csv_rows(self, tmp_path, n, case):
        base, cr_range, cd_range = REFERENCE_GRIDS[case]
        grid = region_grid(base, cr_range, cd_range, n)
        path = tmp_path / "grid.csv"
        write_csv(grid, path)
        assert path.read_text() == "\n".join(
            [CSV_HEADER, *reference_csv_rows(grid)]) + "\n"

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_render_svg_cells(self, tmp_path, n):
        grids = [region_grid(base, cr_range, cd_range, n)
                 for base, cr_range, cd_range in REFERENCE_GRIDS]
        want = []
        for k, grid in enumerate(grids):
            want += reference_cell_rects(
                grid, _MARGIN_L + k * (_PLOT_W + _PANEL_GAP), _MARGIN_T + 16)
        svg = render(tmp_path, [(f"panel {k}", g) for k, g in enumerate(grids)],
                     "t", [f"panel{k}.csv" for k in range(len(grids))])
        assert cell_rects(svg) == want
        # each panel's CSV twin is written beside the SVG from the same rows
        for k, grid in enumerate(grids):
            assert (tmp_path / f"panel{k}.csv").read_text() == "\n".join(
                [CSV_HEADER, *reference_csv_rows(grid)]) + "\n"

    def test_skipped_and_crossing_zero_covered(self):
        grid = region_grid(*REFERENCE_GRIDS[1], 64)
        labels = {l for row in grid_labels(grid) for l in row}
        assert RegionLabel.SKIPPED in labels and len(labels) == 4
        assert any(cr < 0 for cr in grid.cr_values)
        assert any(cr > 0 for cr in grid.cr_values)


class TestCsv:
    def test_shape_2x2(self, tmp_path):
        grid = region_grid(make(), (0.0, 2.0), (0.0, 40.0), 2)
        path = tmp_path / "grid.csv"
        write_csv(grid, path)
        rows = parse_csv(path)
        assert len(rows) == 4

    def test_order_cd_then_cr(self, tmp_path):
        grid = region_grid(make(), (0.0, 2.0), (0.0, 40.0), 2)
        path = tmp_path / "grid.csv"
        write_csv(grid, path)
        rows = parse_csv(path)
        cds = [r[1] for r in rows]
        assert cds == sorted(cds)
        assert rows[0][0] < rows[1][0]  # c_R ascends within a c_D block

    def test_labels_roundtrip_from_margins(self, tmp_path):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 12)
        path = tmp_path / "grid.csv"
        write_csv(grid, path)
        ts = compute_thresholds(make())
        for cr, cd, label, m_eff, m_cd, m_joint in parse_csv(path):
            rebuilt = EquilibriumReport(
                Margins(efficient=m_eff, cd=m_cd, joint=m_joint), ts)
            assert rebuilt.label.value == label

    def test_twelve_significant_digits(self, tmp_path):
        grid = region_grid(make(), (0.0, 3.0), (0.0, 40.0), 3)
        path = tmp_path / "grid.csv"
        write_csv(grid, path)
        rows = parse_csv(path)
        # margins survive the 12-digit round trip at 1e-9 relative error
        for cr, cd, label, m_eff, m_cd, m_joint in rows:
            ts = compute_thresholds(make())
            assert abs(m_eff - (cd - ts.cbar_D)) <= 1e-9 * max(1.0, abs(m_eff))

    def test_boundary_cell_takes_weak_side(self):
        ts = compute_thresholds(make())
        rep = EquilibriumReport(Margins(efficient=0.0, cd=0.0, joint=0.0), ts)
        assert rep.efficient_peace_exists and rep.inefficient_peace_exists
        assert rep.label is RegionLabel.BOTH


class TestSvg:
    def test_deterministic(self, tmp_path):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 8)
        a = render(tmp_path, [("base", grid)])
        b = render(tmp_path, [("base", grid)])
        assert a == b

    def test_layout_elements(self, tmp_path):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 8)
        svg = render(tmp_path, [("base", grid)])
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        # both responder-cost thresholds are inside [0, 40]: two dashed lines
        assert svg.count('stroke-dasharray="6,4"') == 2
        # joint-cost line invisible in the positive quadrant when Clow < 0
        assert svg.count('stroke-dasharray="2,3"') == 0
        assert ">c_R</text>" in svg and ">c_D</text>" in svg
        for legend in ("War", "Inefficient peace", "Efficient peace"):
            assert legend in svg

    def test_slanted_line_when_joint_threshold_positive(self, tmp_path):
        params = make(delta=0.5, p=0.5, p1=0.55, mu=0.95, h0=0.1, c_D=0.1)
        ts = compute_thresholds(params)
        assert ts.Clow > 0.0
        grid = region_grid(params, (0.0, 1.0), (0.0, 1.0), 10)
        svg = render(tmp_path, [("base", grid)])
        assert svg.count('stroke-dasharray="2,3"') == 1

    def test_both_collapses_to_efficient_color(self, tmp_path):
        grid = region_grid(make(c_D=35.0), (0.0, 1.0), (34.0, 40.0), 2)
        assert all(l is RegionLabel.BOTH for row in grid_labels(grid)
                   for l in row)
        svg = render(tmp_path, [("base", grid)])
        assert svg.count('fill="#2e8b57"') >= 4

    def test_emit_figure_takes_title(self, tmp_path):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 4)
        titled = render(tmp_path, [("base", grid)], "Some title").splitlines()
        plain = render(tmp_path, [("base", grid)], "regions").splitlines()
        # the title is the one line that differs
        assert [k for k, (a, b) in enumerate(zip(titled, plain)) if a != b] \
            == [2] and len(titled) == len(plain)
        assert titled[2].endswith(">Some title</text>")

    def test_empty_panels_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render(tmp_path, [], "nothing")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("panels, csvs", [(2, 1), (1, 2)])
    def test_csv_count_must_match_panels(self, tmp_path, panels, csvs):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 4)
        with pytest.raises(ValueError):
            render(tmp_path, [("base", grid)] * panels, "nothing",
                   [f"f{k}.csv" for k in range(csvs)])
        assert list(tmp_path.iterdir()) == []


class TestShiftFigures:
    def test_mu_shift_band_grows_as_mu_falls(self):
        lo = region_grid(make(mu=0.5), (0.0, 10.0), (0.0, 40.0), 20)
        hi = region_grid(make(mu=0.8), (0.0, 10.0), (0.0, 40.0), 20)

        def count(grid, label):
            return sum(l is label for row in grid_labels(grid) for l in row)

        assert count(lo, RegionLabel.INEFFICIENT_PEACE) > \
            count(hi, RegionLabel.INEFFICIENT_PEACE)
        assert count(lo, RegionLabel.WAR) < count(hi, RegionLabel.WAR)

    def test_p_shift_lowers_both_boundaries(self):
        low_p = compute_thresholds(make(p=0.2))
        high_p = compute_thresholds(make(p=0.4))
        assert high_p.cbar_D < low_p.cbar_D
        assert high_p.clow_D < low_p.clow_D
