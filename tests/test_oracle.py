import dataclasses
import hashlib
import inspect
import math
import os
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from barriergame import engine, oracle, params, thresholds
from barriergame.cli import _plain
from barriergame.engine import GameError, ProfileMode, StrategyProfile
from barriergame.oracle import (
    AGREEMENT_CSV_HEADER,
    Bracket,
    OracleThresholds,
    _mean,
    _solve,
    agreement_rows,
    oracle_thresholds,
    postwar_market_mean,
    verify_period1,
)
from barriergame.params import (SAMPLE_CHUNK, SAMPLE_MAX_DRAWS,
                                EliminationMode, InvalidParamsError,
                                ModelParams, sample_valid_points)
from barriergame.thresholds import (
    compute_thresholds,
    effective_mu,
)
from conftest import assert_close, exact, make, random_valid_params


EDGE_POINTS = [
    ModelParams(delta=0.99, p=0.3, p1=0.7, mu=0.8, h0=0.6,
                c_R=1.0, c_D=25.0),
    ModelParams(delta=0.8, p=0.0, p1=1.0, mu=0.7, h0=0.4,
                c_R=2.0, c_D=8.0),
    # theta at its admissible cap: theta * p1 == 1
    ModelParams(delta=0.6, p=0.2, p1=0.8, mu=0.9, h0=0.5,
                c_R=1.0, c_D=5.0, theta=1.25),
    ModelParams(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6,
                c_R=1.0, c_D=25.0, rho=0.5, theta=1.2),
]


# the postwar mean's map contracts by (1 - rho) * delta ~ 0.99999, so an
# iteration of it would still be moving after 100 000 steps
SLOW_MEAN = make(delta=0.99999, rho=1e-6)
# so patient that rounding hides the fall of every row, the mean's included
UNRESOLVED = make(delta=1.0 - 1e-15)


def playable(q, mode):
    """q under the elimination mode the built-in profile is played under."""
    if mode is ProfileMode.COOPERATIVE_INEFFICIENT:
        return q.with_overrides(elimination_mode=EliminationMode.COOPERATIVE)
    return q


# 6000 random points, 50 of them with overflowing costs and 50 with a
# negative c_D
REPORT_POINTS = list(sample_valid_points(np.random.default_rng(5), 6000))
REPORT_POINTS += ([q._replace(c_R=1e308, c_D=1e308) for q in REPORT_POINTS[:50]]
                  + [q._replace(c_D=-3.0) for q in REPORT_POINTS[:50]])
BUILT_IN_MODES = (ProfileMode.EFFICIENT_PEACE, ProfileMode.INEFFICIENT_PEACE,
                  ProfileMode.COOPERATIVE_INEFFICIENT)


def report_digest(points, text) -> str:
    """SHA-256 over text(report), or the refusal's type and text, of each
    point under each built-in profile, in the elimination mode the profile
    is played under."""
    digest = hashlib.sha256()
    for q in points:
        for mode in BUILT_IN_MODES:
            try:
                r = verify_period1(playable(q, mode), mode)
            except Exception as e:
                line = type(e).__name__ + str(e)
            else:
                line = text(r)
            digest.update(line.encode())
    return digest.hexdigest()


class TestPostwarMean:
    def test_matches_closed_form(self):
        for rho in (0.0, 0.25, 0.5, 0.9, 1.0):
            params = make(rho=rho)
            assert_close(postwar_market_mean(params), effective_mu(params), 1e-10)

    @pytest.mark.parametrize("q", [SLOW_MEAN, make(delta=0.9999, rho=1e-3),
                                   make(), make(rho=0.37), make(rho=1.0)],
                             ids=["slow", "patient", "rho-zero", "rho",
                                  "rho-one"])
    def test_solved_within_band_of_exact(self, q):
        # the mean is solved from three evaluations of its affine map, so a
        # slow contraction (0.99999 here) costs no more than a fast one and
        # lands within its rounding band of the exact fixed point
        mean, note = _mean(q)
        assert note is None and mean.value == postwar_market_mean(q)
        assert mean.lo <= effective_mu(exact(q)) <= mean.hi
        assert mean.hi - mean.lo <= 1e-9

    def test_never_nan_at_valid_points(self):
        # the map contracts at every valid point, so its row falls; only a
        # fall within rounding of zero, (1 - rho) * delta within about
        # 1e-14 of 1, is left unsolved
        points = list(sample_valid_points(np.random.default_rng(4), 2000))
        points += [q._replace(delta=1.0 - 10.0 ** -k, rho=r)
                   for q in points[:50] for k in range(1, 14)
                   for r in (0.0, 1e-9, 0.5)]
        assert not any(math.isnan(postwar_market_mean(q)) for q in points)
        mean, note = _mean(UNRESOLVED)
        assert all(map(math.isnan, mean))
        assert note.startswith("row does not fall beyond rounding: ")


class TestVerify:
    @pytest.mark.parametrize("mode", [ProfileMode.EFFICIENT_PEACE,
                                      ProfileMode.INEFFICIENT_PEACE])
    def test_slow_mean_point_gets_the_exact_verdict(self, mode):
        # a slow postwar mean is solved, not iterated, so the point gets a
        # verdict; on the exact parameters the same code gives the same one
        report = verify_period1(SLOW_MEAN, mode)
        truth = verify_period1(exact(SLOW_MEAN), mode)
        assert (report.passed, report.feasible, report.best_deviation) == (
            truth.passed, truth.feasible, truth.best_deviation)
        assert list(report.gains) == list(truth.gains)
        for key, gain in truth.gains.items():
            assert report.gains[key] == gain or (
                abs(report.gains[key] - gain) <= 1e-9 * max(1, abs(gain)))

    def test_pass_at_demo_point(self):
        report = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.passed and report.feasible
        assert report.max_gain_r <= 1e-9
        assert report.max_gain_d <= 1e-9

    def test_fail_below_cd_threshold(self):
        report = verify_period1(make(c_D=20.0), ProfileMode.INEFFICIENT_PEACE)
        assert not report.passed
        # the responder strictly prefers war by the scaled feasibility gap
        gap = (1.0 - 0.9) * (21.6 - 20.0)
        assert_close(report.max_gain_d, gap, 1e-9)
        assert "responder" in report.best_deviation

    def test_pass_exactly_at_threshold(self):
        c_low = compute_thresholds(make()).clow_D
        report = verify_period1(make(c_D=c_low), ProfileMode.INEFFICIENT_PEACE)
        assert report.passed
        assert abs(report.max_gain_d) <= 1e-9
        assert report.max_gain_r <= 1e-9

    def test_efficient_profile(self):
        assert verify_period1(make(c_D=35.0), ProfileMode.EFFICIENT_PEACE).passed
        report = verify_period1(make(c_D=30.0), ProfileMode.EFFICIENT_PEACE)
        assert not report.passed
        assert_close(report.max_gain_d, (1.0 - 0.9) * (33.0 - 30.0), 1e-9)

    def test_joint_condition_detected(self):
        # weak power shift with a mild barrier: Clow > 0 > clow_D, so cheap
        # joint costs make eliminating-and-fighting profitable
        params = make(delta=0.5, p=0.5, p1=0.55, mu=0.95, h0=0.1,
                      c_D=0.1, c_R=0.0)
        ts = compute_thresholds(params)
        assert ts.clow_D <= params.c_D and params.c_D + params.c_R < ts.Clow
        report = verify_period1(params, ProfileMode.INEFFICIENT_PEACE)
        assert not report.passed
        assert_close(report.gains["eliminate_then_war"],
                     ts.Clow - (params.c_D + params.c_R), 1e-9)
        assert "proposer" in report.best_deviation

    def test_cooperative_same_numbers(self):
        a = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        b = verify_period1(
            make(c_D=25.0, elimination_mode=EliminationMode.COOPERATIVE),
            ProfileMode.COOPERATIVE_INEFFICIENT)
        # gains, diagnostics and verdict alike
        assert a._replace(mode=b.mode) == b

    def test_custom_rejected(self):
        with pytest.raises(ValueError):
            verify_period1(make(), ProfileMode.CUSTOM)

    @pytest.mark.parametrize("q, mode", [
        (make(), ProfileMode.COOPERATIVE_INEFFICIENT),
        (make(c_D=35.0, elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.EFFICIENT_PEACE),
        (make(elimination_mode=EliminationMode.COOPERATIVE),
         ProfileMode.INEFFICIENT_PEACE),
    ], ids=["cooperative", "efficient", "inefficient"])
    def test_unplayable_elimination_mode_refused(self, q, mode):
        # no profile is certified under an elimination mode it cannot be
        # played under; the refusal is the one StrategyProfile makes
        with pytest.raises(GameError) as built:
            StrategyProfile(mode, q)
        with pytest.raises(GameError) as verified:
            verify_period1(q, mode)
        assert str(verified.value) == str(built.value)
        assert verify_period1(playable(q.with_overrides(
            elimination_mode=EliminationMode.UNILATERAL), mode), mode).passed

    @pytest.mark.parametrize("mode,last", [
        (ProfileMode.EFFICIENT_PEACE, "keep_trigger=-inf"),
        (ProfileMode.INEFFICIENT_PEACE, "eliminate_then_war=-inf"),
        (ProfileMode.COOPERATIVE_INEFFICIENT, "eliminate_then_war=-inf"),
    ])
    def test_overflowing_gains_refused(self, mode, last):
        # both costs are finite, but the proposer's gains overflow to -inf;
        # no verdict is read off them
        with pytest.raises(InvalidParamsError) as info:
            verify_period1(playable(make(c_R=1.7e308, c_D=1.7e308), mode),
                           mode)
        assert info.value.violations == (
            "finite period-1 terms required, got war_period1=-inf, "
            f"proposer_stationary=-inf, {last}",)

    def test_nonfinite_war_value_named(self):
        with pytest.raises(InvalidParamsError,
                           match=r"got war_r_free=-inf, war_r_bar=-inf, "):
            verify_period1(make(c_R=math.inf), ProfileMode.INEFFICIENT_PEACE)
        with pytest.raises(InvalidParamsError,
                           match=r"got war_d_free=nan, war_d_bar=nan, "
                                 r"v_d2=nan, v_r2=nan, "):
            verify_period1(make(c_D=math.nan), ProfileMode.EFFICIENT_PEACE)

    def test_unacceptable_offer_sentinel_kept(self):
        # no offer fits the barrier-keeping path: the scan's -inf is a
        # deliberate verdict, not an overflow
        report = verify_period1(make(c_D=5.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.gains["offer_scan"] == -math.inf
        assert not report.passed
        assert all(math.isfinite(v) for k, v in report.gains.items()
                   if k != "offer_scan")

    def test_large_finite_costs_still_certified(self):
        # a huge c_R alone leaves every gain finite
        report = verify_period1(make(c_R=1.7e308),
                                ProfileMode.INEFFICIENT_PEACE)
        assert report.passed

    def test_grid_quantum_bound(self):
        report = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        # the scan offers the exact indifference point, so its gain is zero
        assert abs(report.gains["offer_scan"]) <= 1e-12

    def test_reports_pinned(self):
        # every report (repr, and the order of its gains and diagnostics) or
        # refusal at REPORT_POINTS
        assert report_digest(REPORT_POINTS, lambda r: (
            repr(r) + repr(list(r.gains.items()))
            + repr(list(r.diagnostics.items())))) == (
            "0fb7f553b43026d09265643e65293ed677a3482c32224ee6ffbf9d8323f677c3")

    def test_verdicts_pinned(self):
        # the verdict of every report (or the refusal) at REPORT_POINTS and
        # at 300 of them with c_D drawn five times from U(-5, 60), which
        # puts the period-1 cutoffs below, inside and above [0, y1]
        draws = np.random.default_rng(7).uniform(-5.0, 60.0, (300, 5))
        points = REPORT_POINTS + [q._replace(c_D=float(c)) for q, row
                                  in zip(REPORT_POINTS, draws) for c in row]
        assert report_digest(points, lambda r: repr(
            (r.passed, r.feasible, r.max_gain_r, r.max_gain_d))) == (
            "3cf861e13e592e812639ec7e952fa7991d46785fc3971c84e79d641029f8eb67")


def dense_offer_scan(q, mode):
    """The offer-scan gain of a dense reference scan: the best of 10 001
    evenly spaced offers in [0, y1], plus the cutoff when it lies in
    [0, y1], that the responder accepts, priced on the period-1 terms
    ``verify_period1`` reads; -inf when it accepts none."""
    w = oracle._war_terms(q, postwar_market_mean(q))
    efficient = mode is ProfileMode.EFFICIENT_PEACE
    y1, gross = (1.0, w.free) if efficient else (q.h0, w.bar)
    cutoff1 = w.cutoff1(gross[1], q.c_D)
    v_eq_r = w.v_eq_r(y1, cutoff1, q.c_D)
    grid = np.linspace(0.0, y1, 10_001)
    if 0.0 <= cutoff1 <= y1:
        grid = np.append(grid, cutoff1)
    accepted = grid[grid >= cutoff1]
    if not accepted.size:
        return -math.inf
    return float(((y1 - accepted) + q.delta * (w.r_flow + q.c_D)).max()) - v_eq_r


class TestOfferCandidates:
    D_KEYS = ("feasibility", "responder_period1", "responder_stationary")

    def test_dense_scan_is_reference(self):
        # demo-b's barrier-keeping cutoff lies below 0, inside [0, h0] and
        # above h0 at c_D = 35, 25 and 5
        named = [make(c_D=c) for c in (35.0, 25.0, 5.0)]
        cutoffs = [compute_thresholds(q).offer1_inefficient for q in named]
        assert cutoffs[0] < 0.0 <= cutoffs[1] <= 0.6 < cutoffs[2]
        rng = np.random.default_rng(20240823)
        points = [random_valid_params(rng) for _ in range(1000)] + named
        for q in points:
            for mode in BUILT_IN_MODES:
                r = verify_period1(playable(q, mode), mode)
                gains = {**r.gains, "offer_scan": dense_offer_scan(q, mode)}
                # the verdict the dense gains give, by verify_period1's rule
                max_gain_d = max(gains[k] for k in self.D_KEYS)
                max_gain_r = max(v for k, v in gains.items()
                                 if k not in self.D_KEYS)
                passed = max_gain_r <= r.tol and max_gain_d <= r.tol
                worst = max(gains, key=lambda k: gains[k])
                assert r.gains == gains
                assert (r.max_gain_r, r.max_gain_d, r.passed) == (
                    max_gain_r, max_gain_d, passed)
                assert r.feasible == (gains["feasibility"] <= r.tol)
                if passed:
                    assert r.best_deviation == "none above tolerance"
                elif worst in self.D_KEYS:
                    assert r.best_deviation.startswith("responder rejects")
                else:
                    assert r.best_deviation.startswith(f"proposer {worst} ")


class TestDiagnostics:
    def test_full_deviation_scan_clean_in_assumption_region(self):
        # theta = 1 and c_D below the efficient threshold: every cross-
        # elimination deviation is also unprofitable
        report = verify_period1(make(c_D=25.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.diagnostics["eliminate_best_response"] <= 1e-9
        report = verify_period1(make(c_D=22.0), ProfileMode.INEFFICIENT_PEACE)
        assert report.diagnostics["eliminate_best_response"] <= 1e-9

    def test_keep_branch_flagged_when_barrier_path_dominates(self):
        # where both peace regimes coexist and the joint threshold is
        # negative, retaining the barrier beats the efficient construction;
        # certification follows the existence conditions and the diagnostic
        # records the gap
        params = make(c_D=35.0)
        ts = compute_thresholds(params)
        assert ts.Clow < 0.0
        report = verify_period1(params, ProfileMode.EFFICIENT_PEACE)
        assert report.passed
        assert_close(report.diagnostics["keep_best_response"], -ts.Clow, 1e-9)

    def test_military_advantage_gap_exposed(self):
        # small theta makes the barrier a military asset for the proposer:
        # the existence formulas ignore the keep-and-fight route, which the
        # diagnostics surface
        params = ModelParams(delta=0.5, p=0.05, p1=0.6, mu=0.9, h0=0.9,
                             c_R=0.1, c_D=0.35, theta=0.01)
        ts = compute_thresholds(params)
        assert params.c_D >= ts.cbar_D
        report = verify_period1(params, ProfileMode.EFFICIENT_PEACE)
        assert report.passed  # certification mirrors the existence conditions
        assert report.diagnostics["keep_trigger"] > 0.0
        assert report.diagnostics["keep_best_response"] > 0.0


class TestAgreementSummary:
    def test_rows_pair_with_header(self):
        rows = list(agreement_rows(4, seed=11))
        assert len(rows) == 4
        n_cols = len(AGREEMENT_CSV_HEADER.split(","))
        for row in rows:
            fields = row.split(",")
            assert len(fields) == n_cols
            assert float(fields[-2]) <= 1e-6
            assert fields[-1] == "0"

    @pytest.mark.parametrize("key", ["cbar_D", "clow_D", "Clow"])
    def test_max_abs_diff_nan_when_a_bracket_has_no_value(self, monkeypatch,
                                                         key):
        # max alone keeps a finite diff over a nan that comes after it
        real = oracle.oracle_thresholds

        def no_value(params):
            r = real(params)
            kw = {k: getattr(r, k) for k in ("cbar_D", "clow_D", "Clow")}
            kw[key] = Bracket(math.nan, kw[key].lo, kw[key].hi)
            return OracleThresholds(**kw)

        monkeypatch.setattr(oracle, "oracle_thresholds", no_value)
        col = AGREEMENT_CSV_HEADER.split(",").index(f"{key}_oracle")
        for row in agreement_rows(4, seed=11):
            fields = row.split(",")
            assert (fields[col], fields[-2], fields[-1]) == ("nan", "nan", "0")


    def test_rows_stream_a_chunk_at_a_time(self, monkeypatch):
        # in each chunk the oracle runs over every point before the closed
        # forms do, and the chunk's rows are out before the next chunk's
        # oracle runs; chunking moves no byte
        whole = list(agreement_rows(7, seed=11))
        log = []
        for module, name, tag in ((oracle, "oracle_thresholds", "O"),
                                  (thresholds, "compute_thresholds", "C")):
            def logged(q, real=getattr(module, name), tag=tag):
                log.append(tag)
                return real(q)
            monkeypatch.setattr(module, name, logged)
        monkeypatch.setattr(params, "SAMPLE_CHUNK", 3)
        rows = []
        for row in agreement_rows(7, seed=11):
            rows.append(row)
            log.append("r")
        assert rows == whole
        assert "".join(log) == ("OOO" + "Cr" * 3) * 2 + "OCr"

    def test_memory_does_not_grow_with_points(self):
        # beyond its block of draws, SAMPLE_MAX_DRAWS doubles a point, the
        # census holds one chunk however many points it covers: the chunk's
        # points, oracle records and unpacked doubles, about 1.2 kB a point
        # (Python 3.11); holding two chunks at once reads about 1.7 kB
        def held(n_points):
            tracemalloc.start()
            for _ in agreement_rows(n_points, seed=3):
                pass
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak - 8 * SAMPLE_MAX_DRAWS * n_points

        list(agreement_rows(1, seed=3))  # imports and caches, held apart
        small, large = held(2 * SAMPLE_CHUNK), held(4 * SAMPLE_CHUNK)
        assert large - small < 100_000
        assert large < 1450 * SAMPLE_CHUNK


class TestOracleThresholds:
    def test_demo_point(self):
        result = oracle_thresholds(make())
        assert_close(result.cbar_D.value, 33.0, 1e-6)
        assert_close(result.clow_D.value, 21.6, 1e-6)
        assert_close(result.Clow.value, -1.14, 1e-6)
        assert result.anomalies == ()

    def test_theta_variant(self):
        result = oracle_thresholds(make(theta=1.2))
        assert_close(result.clow_D.value, 32.52, 1e-6)
        assert_close(result.cbar_D.value, 33.0, 1e-6)

    def test_rho_one_uses_full_postwar_market(self):
        params = make(rho=1.0)
        result = oracle_thresholds(params)
        assert_close(result.clow_D.value, compute_thresholds(params).clow_D, 1e-6)
        # effective market value is 1, so the threshold exceeds the baseline
        assert result.clow_D.value > 21.6

    def test_negative_threshold_recovered(self):
        params = make(delta=0.5, p=0.2, p1=0.6, mu=0.5, h0=0.5)
        result = oracle_thresholds(params)
        assert_close(result.clow_D.value, -0.2, 1e-6)
        assert_close(result.cbar_D.value, 0.0, 1e-6)
        assert_close(result.Clow.value, -0.1, 1e-6)

    def test_brackets_contain_values(self):
        result = oracle_thresholds(make())
        for bracket in (result.cbar_D, result.clow_D, result.Clow):
            assert bracket.lo <= bracket.value <= bracket.hi
            assert bracket.hi - bracket.lo <= 1e-7

    def test_random_points_agree(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            params = random_valid_params(rng)
            ts = compute_thresholds(params)
            result = oracle_thresholds(params)
            assert_close(result.cbar_D.value, ts.cbar_D, 1e-6)
            assert_close(result.clow_D.value, ts.clow_D, 1e-6)
            assert_close(result.Clow.value, ts.Clow, 1e-6)

    @pytest.mark.parametrize("override", [{"delta": 1.0}, {"p1": 0.1}],
                             ids=["delta-one", "p1-below-p"])
    def test_invalid_point_refused(self, override):
        bad = make(**override)
        with pytest.raises(InvalidParamsError):
            oracle_thresholds(bad)

    @pytest.mark.parametrize("params", EDGE_POINTS,
                             ids=["patient", "p-zero-p1-one", "theta-cap",
                                  "composed"])
    def test_edge_parameter_agreement(self, params):
        ts = compute_thresholds(params)
        result = oracle_thresholds(params)
        assert result.anomalies == ()
        assert_close(result.cbar_D.value, ts.cbar_D, 1e-6)
        assert_close(result.clow_D.value, ts.clow_D, 1e-6)
        assert_close(result.Clow.value, ts.Clow, 1e-6)


class TestRecords:
    """The records as ``oracle_thresholds`` builds them, at a solved and an
    unsolved point: the contract itself is ``RECORDS`` in
    ``test_records.py``."""

    OLD = {"Bracket": dataclasses.make_dataclass(
               "Bracket", ["value", "lo", "hi"], frozen=True),
           "OracleThresholds": dataclasses.make_dataclass(
               "OracleThresholds", ["cbar_D", "clow_D", "Clow",
                                    ("anomalies", tuple, dataclasses.field(
                                        default=()))], frozen=True)}

    @pytest.mark.parametrize("record, field", [
        (Bracket(1.0, 0.5, 2.0), "value"),
        (oracle_thresholds(make()), "clow_D"),
        (oracle_thresholds(make()), "anomalies")],
        ids=["Bracket", "OracleThresholds", "OracleThresholds-default"])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.unknown = 0.0

    @pytest.mark.parametrize("params", [make(), UNRESOLVED],
                             ids=["finite", "nan"])
    def test_repr_is_the_dataclass_repr(self, params):
        result = oracle_thresholds(params)
        brackets = [self.OLD["Bracket"](*b) for b in result[:3]]
        old = self.OLD["OracleThresholds"](*brackets, *result[3:])
        assert repr(result) == repr(old)
        assert repr(result.Clow).startswith(
            "Bracket(value=nan, " if params is UNRESOLVED
            else "Bracket(value=-1.1")

    def test_to_dict_keys_are_fields(self):
        # an unsolved point writes null brackets
        d = _plain(oracle_thresholds(UNRESOLVED))
        assert list(d) == list(OracleThresholds._fields)
        for key in ("cbar_D", "clow_D", "Clow"):
            assert d[key] == {"value": None, "lo": None, "hi": None}
        # the mean's anomaly comes first: the clow_D and Clow rows read it
        assert isinstance(d["anomalies"], list) and len(d["anomalies"]) == 4
        assert d["anomalies"][0].startswith(
            "postwar_mean: row does not fall beyond rounding: ")


class TestSolver:
    def test_agreement_golden_bytes(self):
        # the solved values at .12g beside the closed forms;
        # test_oracle_brackets.py holds every bracket end to the bit.
        # Regenerate with: barriergame verify --preset demo-b --agreement 20
        #   --seed 11 --agreement-csv tests/golden/agreement-seed11.csv
        path = os.path.join(os.path.dirname(__file__), "golden",
                            "agreement-seed11.csv")
        with open(path) as fh:
            golden = fh.read()
        text = AGREEMENT_CSV_HEADER + "\n" + "\n".join(
            agreement_rows(20, seed=11)) + "\n"
        assert text == golden

    def test_three_evaluations_per_row(self, monkeypatch):
        # everything but the cost is computed once per point: each of the
        # four rows (the mean and three thresholds) is evaluated three
        # times, the engine's lottery is read three times (two sets of war
        # terms and the mean band's shift), no ModelParams is built, and
        # numpy is never imported
        calls = Counter()
        evaluations = []
        solve = oracle._solve

        def counted_solve(f, *args):
            evaluations.append(0)
            k = len(evaluations) - 1

            def row(c):
                evaluations[k] += 1
                return f(c)
            return solve(row, *args)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        q = make()
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(ModelParams, "__new__",
                            counted("ModelParams", ModelParams.__new__))
        monkeypatch.setattr(engine, "war_lottery",
                            counted("war_lottery", engine.war_lottery))
        monkeypatch.setattr(oracle, "_solve", counted_solve)
        assert oracle_thresholds(q).anomalies == ()
        assert evaluations == [3, 3, 3, 3]
        assert calls == {"war_lottery": 3}

    @pytest.mark.parametrize("row, scale, note", [
        (lambda c: 0.37 - c ** 3, 1,
         "row not affine: slope -1.0 on [0, 1], -1.5069"),
        (lambda c: 1.0, 1, "row does not fall: 1.0 at 0, 1.0 at 1"),
        (lambda c: c - 0.37, 1, "row does not fall: -0.37 at 0, 0.63 at 1"),
        # a fall of 1e-15 where rounding of terms near 1e16 hides it
        (lambda c: 1.0 - 1e-15 * c, 1e16,
         "row does not fall beyond rounding: slope -1e-15 on [0, "),
    ], ids=["cubic", "flat", "rising", "under-rounding"])
    def test_anomaly_paths(self, row, scale, note):
        # a row that does not fall, or is not affine, is never solved
        bracket, got = _solve(row, scale)
        assert all(map(math.isnan, bracket))
        assert got.startswith(note), got

    def test_affine_row_solved_to_the_ulp(self):
        band = 8 * math.ulp(1.0) + math.ulp(0.37)
        assert _solve(lambda c: 0.37 - c, 1) == (
            Bracket(0.37, 0.37 - band, 0.37 + band), None)
        # a row's inputs that may be off by slack widen the band by
        # slack over the slope
        bracket, _ = _solve(lambda c: 2.0 - 0.5 * c, 1, slack=1e-9)
        band = (8 * math.ulp(4.0) + 1e-9) / 0.5 + math.ulp(4.0)
        assert bracket == Bracket(4.0, 4.0 - band, 4.0 + band)

    def test_no_false_anomaly(self):
        # the affinity check allows for rounding, so no point of the
        # 20 000-point census is refused; criterion 11 checks its corpus
        # near delta = 1
        points = sample_valid_points(np.random.default_rng(4), 20_000)
        assert not any(oracle_thresholds(q).anomalies for q in points)

    def test_no_false_anomaly_near_delta_one(self):
        # the feasibility rows fall with the cost at rate 1 - delta, so
        # near delta = 1 rounding alone moves them by about
        # ulp(1 / (1 - delta)) for each unit of slope; the allowance
        # scales with the row's terms, not with its value
        q = ModelParams(delta=0.9998937534481658, p=0.47889639294569647,
                        p1=0.6252236074796401, mu=0.7365483637824521,
                        h0=0.06566167438462142, c_R=3.6534990202737125,
                        c_D=4.88142903470984)
        result = oracle_thresholds(q)
        assert result.anomalies == ()
        assert result.clow_D == Bracket(-1629083.223143402,
                                        -1629083.224086862,
                                        -1629083.222199942)
        exact_clow = compute_thresholds(exact(q)).clow_D
        assert result.clow_D.lo <= exact_clow <= result.clow_D.hi
        closed = compute_thresholds(q).clow_D
        assert abs(result.clow_D.value - closed) <= 1e-9 * abs(closed)


class TestReadsNoClosedForm:
    @staticmethod
    def results(points) -> str:
        single = [[verify_period1(playable(q, mode), mode)
                   for mode in BUILT_IN_MODES]
                  + [oracle_thresholds(q)] for q in points]
        return repr(single)

    def test_results_unchanged_without_thresholds(self, monkeypatch):
        # the oracle re-derives what the closed forms state: with every
        # public function of barriergame.thresholds replaced by a raiser,
        # wherever a module of the package holds it, nothing it returns
        # moves.  agreement_rows compares against the closed forms on
        # purpose, so it is not run here.
        rng = np.random.default_rng(2019)
        points = [make(), make(rho=0.3, theta=1.1)] + \
            [random_valid_params(rng) for _ in range(50)]
        expected = self.results(points)
        closed_forms = {
            id(obj): name for name, obj in vars(thresholds).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == thresholds.__name__}

        def raiser(name):
            def closed_form(*args, **kwargs):
                raise AssertionError(f"the oracle read thresholds.{name}")
            return closed_form

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "barriergame":
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in closed_forms:
                    monkeypatch.setattr(module, attr,
                                        raiser(closed_forms[id(obj)]))
        with pytest.raises(AssertionError, match="effective_mu"):
            thresholds.effective_mu(make())
        assert self.results(points) == expected
