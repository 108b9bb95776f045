import math
import os
from collections import Counter

import numpy as np
import pytest

from barriergame import engine, oracle
from barriergame.engine import ProfileMode
from barriergame.oracle import (
    AGREEMENT_CSV_HEADER,
    Bracket,
    _bisect_up_sets,
    agreement_rows,
    oracle_thresholds,
    oracle_thresholds_batch,
    postwar_market_mean,
    verify_period1,
)
from barriergame.params import InvalidParamsError, ModelParams
from barriergame.thresholds import (
    compute_thresholds,
    effective_mu,
    inefficient_cd_threshold,
)
from conftest import assert_close, random_valid_params


def make(**kw):
    base = dict(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6, c_R=1.0, c_D=25.0)
    base.update(kw)
    return ModelParams(**base)


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


# the postwar mean is still moving after POSTWAR_MEAN_MAX_ITER steps
SLOW_MEAN = make(delta=0.99999, rho=1e-6)


class TestPostwarMean:
    def test_matches_closed_form(self):
        for rho in (0.0, 0.25, 0.5, 0.9, 1.0):
            params = make(rho=rho)
            assert_close(postwar_market_mean(params), effective_mu(params), 1e-10)

    def test_unconverged_is_nan(self):
        # contraction factor (1 - rho) * delta ~ 0.99999: the last iterate
        # (0.81213) is far from the fixed point (0.81818), so none is given
        assert math.isnan(postwar_market_mean(SLOW_MEAN))
        assert_close(effective_mu(SLOW_MEAN), 0.8181818, 1e-6)


class TestVerify:
    @pytest.mark.parametrize("mode", [ProfileMode.EFFICIENT_PEACE,
                                      ProfileMode.INEFFICIENT_PEACE])
    def test_unconverged_postwar_mean_refused(self, mode):
        with pytest.raises(InvalidParamsError) as err:
            verify_period1(SLOW_MEAN, mode)
        assert err.value.violations == (
            "postwar_mean: no convergence in 100000 steps",)

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
        c_low = inefficient_cd_threshold(make())
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
        b = verify_period1(make(c_D=25.0), ProfileMode.COOPERATIVE_INEFFICIENT)
        assert a.passed == b.passed
        assert a.max_gain_r == b.max_gain_r
        assert b.diagnostics["responder_vote_switch"] == 0.0

    def test_custom_rejected(self):
        with pytest.raises(ValueError):
            verify_period1(make(), ProfileMode.CUSTOM)

    @pytest.mark.parametrize("mode,last", [
        (ProfileMode.EFFICIENT_PEACE, "keep_trigger=-inf"),
        (ProfileMode.INEFFICIENT_PEACE, "eliminate_then_war=-inf"),
        (ProfileMode.COOPERATIVE_INEFFICIENT, "eliminate_then_war=-inf"),
    ])
    def test_overflowing_gains_refused(self, mode, last):
        # both costs are finite, but the proposer's gains overflow to -inf;
        # no verdict is read off them
        with pytest.raises(InvalidParamsError) as info:
            verify_period1(make(c_R=1.7e308, c_D=1.7e308), mode)
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


def dense_offer_candidates(y, cutoff):
    """A dense reference scan: 10 001 evenly spaced offers in [0, y], plus
    the cutoff when it lies in [0, y]."""
    grid = np.linspace(0.0, y, 10_001)
    if 0.0 <= cutoff <= y:
        grid = np.append(grid, cutoff)
    return grid


class TestOfferCandidates:
    MODES = (ProfileMode.EFFICIENT_PEACE, ProfileMode.INEFFICIENT_PEACE,
             ProfileMode.COOPERATIVE_INEFFICIENT)

    @classmethod
    def report_fields(cls, points):
        out = []
        for q in points:
            for mode in cls.MODES:
                r = verify_period1(q, mode)
                out.append((r.passed, r.feasible, r.max_gain_r, r.max_gain_d,
                            r.best_deviation, r.gains, r.diagnostics))
        return out

    def test_dense_scan_is_reference(self, monkeypatch):
        # demo-b's barrier-keeping cutoff lies below 0, inside [0, h0] and
        # above h0 at c_D = 35, 25 and 5
        named = [make(c_D=c) for c in (35.0, 25.0, 5.0)]
        cutoffs = [compute_thresholds(q).offer1_inefficient for q in named]
        assert cutoffs[0] < 0.0 <= cutoffs[1] <= 0.6 < cutoffs[2]
        rng = np.random.default_rng(20240823)
        points = [random_valid_params(rng) for _ in range(1000)] + named
        three = self.report_fields(points)
        monkeypatch.setattr(oracle, "_offer_candidates", dense_offer_candidates)
        assert self.report_fields(points) == three


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
        rows = agreement_rows(4, seed=11)
        assert len(rows) == 4
        n_cols = len(AGREEMENT_CSV_HEADER.split(","))
        for row in rows:
            fields = row.split(",")
            assert len(fields) == n_cols
            assert float(fields[-2]) <= 1e-6
            assert fields[-1] == "0"


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
        assert_close(result.clow_D.value, inefficient_cd_threshold(params), 1e-6)
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


class TestLockstepBatch:
    def test_agreement_golden_bytes(self):
        # brackets are bit-for-bit those of the one-point-at-a-time scalar
        # bisection that produced this file; a one-ulp move fails here
        path = os.path.join(os.path.dirname(__file__), "golden",
                            "agreement-seed11.csv")
        with open(path) as fh:
            golden = fh.read()
        text = AGREEMENT_CSV_HEADER + "\n" + "\n".join(
            agreement_rows(20, seed=11)) + "\n"
        assert text == golden

    def test_lanes_independent_of_batch(self):
        points = [
            make(rho=0.0), make(rho=0.37), make(rho=1.0),
            make(theta=1.2), make(theta=0.9, rho=0.6),
            # negative clow_D and Clow
            make(delta=0.5, p=0.2, p1=0.6, mu=0.5, h0=0.5),
            *EDGE_POINTS,
        ]
        rng = np.random.default_rng(7)
        points += [random_valid_params(rng) for _ in range(10)]
        batch = oracle_thresholds_batch(points)
        assert len(batch) == len(points)
        for params, result in zip(points, batch):
            assert result == oracle_thresholds(params)
        assert oracle_thresholds_batch([]) == []

    def test_setup_work_independent_of_steps(self, monkeypatch):
        # everything but the bisected cost is computed once per batch: a
        # tighter tolerance adds predicate calls, but no ModelParams
        # constructions and no engine calls
        q = make()
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ModelParams, "__init__",
                            counted("ModelParams", ModelParams.__init__))
        for name in ("war_lottery", "win_prob_d", "pie_present_value"):
            monkeypatch.setattr(engine, name,
                                counted(name, getattr(engine, name)))
        bisect = oracle._bisect_up_sets
        monkeypatch.setattr(
            oracle, "_bisect_up_sets",
            lambda predicate, n, **kw: bisect(counted("predicate", predicate),
                                              n, **kw))
        per_tol = {}
        for tol in (1e-4, 1e-13):
            counts.clear()
            monkeypatch.setattr(oracle, "SEARCH_TOL", tol)
            oracle_thresholds(q)
            per_tol[tol] = dict(counts)
        loose, tight = per_tol[1e-4], per_tol[1e-13]
        assert tight.pop("predicate") >= loose.pop("predicate") + 40
        assert tight == loose
        assert loose["ModelParams"] <= 2 and loose["war_lottery"] <= 4

    def test_unconverged_postwar_mean_is_an_anomaly(self):
        # the slow point's mean is nan, so clow_D and Clow
        # have no value, and the anomaly names the cause first; cbar_D does
        # not read the mean, and the other lane is untouched
        demo, slow = oracle_thresholds_batch([make(), SLOW_MEAN])
        assert demo == oracle_thresholds(make())
        assert slow.anomalies == (
            "postwar_mean: no convergence in 100000 steps",
            "clow_D: no passing point up to 1.8446744073709552e+19",
            "Clow: no passing point up to 1.8446744073709552e+19")
        assert math.isnan(slow.clow_D.value) and math.isnan(slow.Clow.value)
        assert math.isclose(slow.cbar_D.value,
                            compute_thresholds(SLOW_MEAN).cbar_D, rel_tol=1e-9)

    def test_anomaly_paths(self):
        def predicate(x):
            return np.array([
                False,                                  # never passes
                True,                                   # never fails
                # a passing island just below the boundary at 2.5
                x[2] >= 2.5 or 2.5 - 1.5e-6 < x[2] < 2.5 - 0.5e-6,
                x[3] >= 0.37,                           # well behaved
            ])

        (never_pass, n0), (never_fail, n1), (island, n2), (normal, n3) = \
            _bisect_up_sets(predicate, 4)
        assert math.isnan(never_pass.value)
        assert (never_pass.lo, never_pass.hi) == (-1.0, 2.0 ** 64)
        assert n0 == "no passing point up to 1.8446744073709552e+19"
        assert math.isnan(never_fail.value)
        assert (never_fail.lo, never_fail.hi) == (-(2.0 ** 64), 1.0)
        assert n1 == "no failing point down to -1.8446744073709552e+19"
        assert island == Bracket(2.4999985015019774, 2.4999984968453646,
                                 2.4999985061585903)
        assert n2 == ("predicate not monotone around 2.4999985015019774; "
                      "the existence condition may not be an interval")
        assert normal == Bracket(0.3700000010430813, 0.369999997317791,
                                 0.3700000047683716)
        assert n3 is None
        # the same lane alone takes the same steps
        assert _bisect_up_sets(lambda x: x >= 0.37, 1) == [(normal, None)]

    def test_no_false_anomaly_near_delta_one(self):
        # the feasibility predicate moves with the cost at rate 1 - delta,
        # so near delta = 1 rounding alone flips it within about
        # ulp(|clow_D|) / (1 - delta) = 2.2e-6 of the boundary, wider than
        # a fixed 1e-6 probe; the probe scales with that band instead
        q = ModelParams(delta=0.9998937534481658, p=0.47889639294569647,
                        p1=0.6252236074796401, mu=0.7365483637824521,
                        h0=0.06566167438462142, c_R=3.6534990202737125,
                        c_D=4.88142903470984)
        result = oracle_thresholds(q)
        assert result.anomalies == ()
        assert result.clow_D == Bracket(-1629083.2231412013,
                                        -1629083.223141205,
                                        -1629083.2231411976)
        closed = compute_thresholds(q).clow_D
        assert abs(result.clow_D.value - closed) <= 1e-9 * abs(closed)
