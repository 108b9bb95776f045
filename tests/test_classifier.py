import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barriergame.classifier as classifier_mod
from barriergame.classifier import (
    EquilibriumReport,
    IntersectionResult,
    InvalidParamsError,
    Margins,
    RegionLabel,
    classify,
    comparative_static,
    intersection_nonempty,
    region_grid,
)
from barriergame.params import ModelParams, sample_valid_params, validate
from barriergame.presets import get_preset
from barriergame.thresholds import compute_thresholds
from conftest import random_valid_params


def make(**kw):
    base = dict(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6, c_R=1.0, c_D=25.0)
    base.update(kw)
    return ModelParams(**base)


class TestClassify:
    def test_inefficient_only(self):
        rep = classify(make(c_D=25.0, c_R=1.0))
        assert not rep.efficient_peace_exists
        assert rep.inefficient_peace_exists
        assert not rep.war_inevitable
        assert rep.assumption_holds
        assert rep.label is RegionLabel.INEFFICIENT_PEACE

    def test_both(self):
        rep = classify(make(c_D=35.0))
        assert rep.efficient_peace_exists
        assert rep.inefficient_peace_exists
        assert rep.label is RegionLabel.BOTH
        assert not rep.assumption_holds

    def test_war(self):
        rep = classify(make(c_D=10.0))
        assert not rep.efficient_peace_exists
        assert not rep.inefficient_peace_exists
        assert rep.war_inevitable
        assert rep.label is RegionLabel.WAR

    def test_invalid_refused(self):
        with pytest.raises(InvalidParamsError) as err:
            classify(make(p1=0.2))
        assert any("p1 > p" in v for v in err.value.violations)

    def test_nonfinite_margins_refused(self):
        # finite costs whose sum overflows: the joint margin is inf
        demo = get_preset("demo-b").params
        with pytest.raises(InvalidParamsError) as err:
            classify(demo.with_overrides(c_R=1.7e308, c_D=1.7e308))
        assert any("finite margins" in v for v in err.value.violations)
        # one huge cost alone keeps every margin finite
        rep = classify(demo.with_overrides(c_R=1.7e308, c_D=1.0))
        assert rep.margins.joint == 1.7e308

    def test_boundary_weak_side(self):
        ts = compute_thresholds(make())
        rep = classify(make(c_D=ts.clow_D))
        assert rep.inefficient_peace_exists
        rep = classify(make(c_D=ts.cbar_D))
        assert rep.efficient_peace_exists

    @given(st.integers(0, 2**31), st.floats(0, 50), st.floats(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_labels_recomputable_from_margins(self, seed, c_d, c_r):
        params = random_valid_params(np.random.default_rng(seed))
        params = params.with_overrides(c_D=c_d, c_R=c_r)
        rep = classify(params)
        twin = EquilibriumReport(rep.margins, rep.thresholds)
        assert twin.efficient_peace_exists == rep.efficient_peace_exists
        assert twin.inefficient_peace_exists == rep.inefficient_peace_exists
        assert twin.war_inevitable == rep.war_inevitable
        assert twin.label == rep.label

    @given(st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_existence_monotone_in_cd(self, seed):
        rng = np.random.default_rng(seed)
        params = random_valid_params(rng)
        cds = np.sort(rng.uniform(0.0, 50.0, 12))
        reports = [classify(params.with_overrides(c_D=c)) for c in cds]
        eff = [r.efficient_peace_exists for r in reports]
        inef = [r.inefficient_peace_exists for r in reports]
        # each boolean flips at most once, false -> true
        assert eff == sorted(eff)
        assert inef == sorted(inef)


class TestRegionGrid:
    def test_three_bands_demo(self):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 40)
        ts = compute_thresholds(make())
        for i, cd in enumerate(grid.cd_values):
            for j in range(len(grid.cr_values)):
                label = grid.labels[i][j]
                if cd < ts.clow_D:
                    assert label is RegionLabel.WAR
                elif cd < ts.cbar_D:
                    assert label is RegionLabel.INEFFICIENT_PEACE
                else:
                    assert label is RegionLabel.BOTH

    def test_band_order_along_cd(self):
        grid = region_grid(make(), (0.0, 10.0), (0.0, 40.0), 25)
        order = {RegionLabel.WAR: 0, RegionLabel.INEFFICIENT_PEACE: 1,
                 RegionLabel.BOTH: 2}
        for j in range(len(grid.cr_values)):
            ranks = [order[grid.labels[i][j]] for i in range(len(grid.cd_values))]
            assert ranks == sorted(ranks)

    def test_single_cell_matches_classify(self):
        grid = region_grid(make(), (0.9, 1.1), (24.0, 26.0), 1)
        center = make(c_R=1.0, c_D=25.0)
        assert grid.labels[0][0] == classify(center).label

    def test_invalid_cells_skipped(self):
        grid = region_grid(make(), (0.0, 1.0), (-2.0, 2.0), 2)
        assert grid.labels[0][0] is RegionLabel.SKIPPED  # c_D < 0 there
        assert grid.labels[1][0] is not RegionLabel.SKIPPED

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            region_grid(make(), (0, 1), (0, 1), 0)

    @pytest.mark.parametrize("override", [dict(delta=1.0), dict(p1=0.1)])
    def test_invalid_base_refused(self, override):
        # the boundary lines come from the base's own thresholds, so an
        # invalid base is refused, not rastered as all Skipped
        base = get_preset("demo-b").params.with_overrides(**override)
        with pytest.raises(InvalidParamsError) as err:
            region_grid(base, (0.0, 10.0), (0.0, 40.0), 4)
        assert err.value.violations == validate(base).violations

    def test_overflowing_margins_skipped(self):
        demo = get_preset("demo-b").params
        grid = region_grid(demo, (1e308, 1.7e308), (1e308, 1.7e308), 2)
        assert all(l is RegionLabel.SKIPPED for row in grid.labels for l in row)
        for margins in (grid.margins_efficient, grid.margins_cd,
                        grid.margins_joint):
            assert all(math.isnan(m) for row in margins for m in row)
        # only the cells whose joint cost overflows are Skipped
        grid = region_grid(demo, (0.0, 1.7e308), (0.0, 1.7e308), 2)
        assert [[l is RegionLabel.SKIPPED for l in row]
                for row in grid.labels] == [[False, False], [False, True]]


def count_classify(monkeypatch):
    calls = []
    real = classifier_mod.classify

    def counted(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(classifier_mod, "classify", counted)
    return calls


class TestOneClassifyPerPoint:
    # The benchmark's traced coverage check counts classifier.classify calls
    # and requires exactly one per raster cell and per sweep point.

    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_region_grid_calls_classify_per_cell(self, monkeypatch, n):
        calls = count_classify(monkeypatch)
        grid = region_grid(make(), (-1.0, 4.0), (-10.0, 40.0), n)
        assert len(calls) == n * n
        skipped = sum(l is RegionLabel.SKIPPED for row in grid.labels for l in row)
        assert n == 1 or skipped > 0   # Skipped cells are classified too
        assert [(q.c_D, q.c_R) for q in calls] == [
            (cd, cr) for cd in grid.cd_values for cr in grid.cr_values]

    def test_comparative_static_calls_classify_per_value(self, monkeypatch):
        calls = count_classify(monkeypatch)
        values = [0.3, 0.5, 0.7, 0.9, 1.0]
        comparative_static(make(), "mu", values)
        assert [q.mu for q in calls] == values


class TestComparativeStatic:
    def test_smaller_mu_widens_inefficient_region(self):
        points = comparative_static(make(), "mu", [0.9, 0.7, 0.5, 0.3])
        clows = [rep.thresholds.clow_D for rep in points]
        cjoints = [rep.thresholds.Clow for rep in points]
        assert all(b <= a for a, b in zip(clows, clows[1:]))
        assert all(b <= a for a, b in zip(cjoints, cjoints[1:]))

    def test_larger_p_lowers_both_cd_thresholds(self):
        points = comparative_static(make(), "p", np.linspace(0.05, 0.6, 100))
        cbars = [rep.thresholds.cbar_D for rep in points]
        clows = [rep.thresholds.clow_D for rep in points]
        assert all(b <= a for a, b in zip(cbars, cbars[1:]))
        assert all(b <= a for a, b in zip(clows, clows[1:]))

    def test_h0_lowers_clow_but_not_monotone_overall(self):
        points = comparative_static(make(), "h0", np.linspace(0.1, 0.9, 50))
        clows = [rep.thresholds.clow_D for rep in points]
        assert all(b <= a for a, b in zip(clows, clows[1:]))

    def test_cbar_invariant_along_nuisance_sweeps(self):
        base = compute_thresholds(make()).cbar_D
        for knob, values in (("mu", [0.4, 0.6, 1.0]), ("h0", [0.1, 0.5, 0.9]),
                             ("rho", [0.0, 0.5, 1.0]), ("theta", [1.0, 1.2])):
            for rep in comparative_static(make(), knob, values):
                assert rep.thresholds.cbar_D == base

    def test_unknown_knob(self):
        with pytest.raises(ValueError, match="unknown knob"):
            comparative_static(make(), "delta2", [0.5])


def corner_label(params):
    """The classify label at the band's lower corner, c_D = cd_lo and
    c_R on the joint floor."""
    band = intersection_nonempty(params)
    return classify(params.with_overrides(
        c_D=band.cd_lo, c_R=max(band.Clow - band.cd_lo, 0.0))).label


class TestIntersection:
    def test_band_matches_classify(self):
        rng = np.random.default_rng(6)
        points = [get_preset("demo-b").params, make(), make(p=0.35),
                  make(mu=1.0)]
        points += [sample_valid_params(rng) for _ in range(500)]
        found = 0
        for params in points:
            band = intersection_nonempty(params)
            found += band.found
            # the lower corner is inefficient-only exactly when the band is
            # nonempty; an empty band's corner has efficient peace
            assert (corner_label(params) is RegionLabel.INEFFICIENT_PEACE) \
                == band.found
            if band.cd_hi >= 0.0:
                at_hi = classify(params.with_overrides(c_D=band.cd_hi))
                assert at_hi.label is not RegionLabel.INEFFICIENT_PEACE
            below = params.with_overrides(
                c_D=math.nextafter(band.cd_lo, -math.inf))
            if band.cd_lo > 0.0:
                assert not classify(below).inefficient_peace_exists
            else:
                with pytest.raises(InvalidParamsError):
                    classify(below)
        assert 0 < found < len(points)

    @pytest.mark.parametrize("grid_points", [1, 7, 64])
    def test_closed_form_matches_scan_off_axis(self, monkeypatch, grid_points):
        # On valid points a nonempty band has Clow <= c_D, so synthetic
        # thresholds with Clow above the band exercise a positive c_R floor.
        # A (c_R, c_D) scan at grid_points steps per axis, plus the float
        # neighbours of each band edge, must agree with classify.
        rng = np.random.default_rng(grid_points)
        real = compute_thresholds(make())
        cases = []
        for _ in range(20):
            clow_d = rng.uniform(-1.0, 1.0)
            cd = max(clow_d, 0.0)
            cbar_d = cd + rng.uniform(0.01, 5.0)
            k = int(rng.integers(0, grid_points + 1))
            # Clow on the k-th c_R grid line of the lowest row, and anywhere
            joints = [cd + 10.0 * k / grid_points, rng.uniform(-20.0, 20.0)]
            cases += [(clow_d, cbar_d, joint) for joint in joints]
        floors = set()
        for clow_d, cbar_d, joint in cases:
            ts = dataclasses.replace(real, clow_D=clow_d, cbar_D=cbar_d,
                                     Clow=joint)
            monkeypatch.setattr(classifier_mod, "compute_thresholds",
                                lambda params: ts)
            band = intersection_nonempty(make())
            assert band == IntersectionResult(max(clow_d, 0.0), cbar_d, joint)
            assert band.found
            floors.add(band.Clow - band.cd_lo > 0.0)
            cr_hi = 10.0 * max(1.0, abs(joint))
            cds = [band.cd_lo + (band.cd_hi - band.cd_lo) * i / grid_points
                   for i in range(grid_points + 1)]
            cds += [math.nextafter(band.cd_lo, -math.inf),
                    math.nextafter(band.cd_hi, -math.inf)]
            for cd in (x for x in cds if x >= 0.0):
                floor = max(joint - cd, 0.0)
                crs = [cr_hi * j / grid_points for j in range(grid_points + 1)]
                crs += [floor, math.nextafter(floor, -math.inf),
                        math.nextafter(floor, math.inf)]
                for cr in (x for x in crs if x >= 0.0):
                    inside = band.cd_lo <= cd < band.cd_hi and cd + cr >= joint
                    label = classify(make(c_D=cd, c_R=cr)).label
                    assert (label is RegionLabel.INEFFICIENT_PEACE) == inside
        assert floors == {False, True}

    def test_positive_joint_floor(self, monkeypatch):
        # on valid points a nonempty band has Clow <= c_D, so synthetic
        # thresholds with Clow above the band make the c_R floor positive
        ts = dataclasses.replace(compute_thresholds(make()), clow_D=0.5,
                                 cbar_D=2.0, Clow=3.0)
        monkeypatch.setattr(classifier_mod, "compute_thresholds",
                            lambda params: ts)
        band = intersection_nonempty(make())
        assert band == IntersectionResult(0.5, 2.0, 3.0) and band.found
        assert corner_label(make()) is RegionLabel.INEFFICIENT_PEACE
        below_floor = make(c_D=0.5, c_R=math.nextafter(2.5, 0.0))
        assert not classify(below_floor).inefficient_peace_exists
        assert classify(make(c_D=1.5, c_R=1.5)).label \
            is RegionLabel.INEFFICIENT_PEACE
        assert classify(make(c_D=2.0, c_R=1.0)).efficient_peace_exists

    def test_demo_witness(self):
        # the point test_inefficient_only classifies lies in the band
        result = intersection_nonempty(make())
        assert result.found
        assert result.cd_lo <= 25.0 < result.cd_hi
        assert 25.0 + 1.0 >= result.Clow
        assert result.to_dict() == {"found": True, "cd_lo": result.cd_lo,
                                    "cd_hi": result.cd_hi,
                                    "Clow": result.Clow}

    def test_empty_band_recorded(self):
        # mu = 1 removes all barrier damage: the inefficient band vanishes
        result = intersection_nonempty(make(mu=1.0))
        assert not result.found and result.cd_lo >= result.cd_hi
        assert result.to_dict()["found"] is False

    def test_vacuous_joint_constraint(self):
        params = make(p=0.35)
        ts = compute_thresholds(params)
        assert ts.Clow <= 0.0 and ts.cbar_D > ts.clow_D
        result = intersection_nonempty(params)
        assert result.found
        assert max(result.Clow - result.cd_lo, 0.0) == 0.0  # c_R = 0 suffices
