import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from barriergame.cli import _plain
from barriergame.engine import ProfileMode, StrategyProfile
from barriergame.params import ModelParams
from barriergame.thresholds import (
    compute_thresholds,
    effective_mu,
    theta_floor,
)
from conftest import (assert_close, inefficient_joint_threshold_compact,
                      make, random_valid_params)
from test_engine import existing_point
from test_oracle import BUILT_IN_MODES


valid_point = st.builds(
    lambda seed: random_valid_params(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=2**31),
)


class TestEffectiveMu:
    def test_endpoints_exact(self):
        assert effective_mu(make(rho=0.0)) == 0.8
        assert effective_mu(make(rho=1.0)) == 1.0

    def test_fixed_point(self):
        params = make(rho=0.5, delta=0.9, mu=0.8)
        x = 0.8
        for _ in range(10_000):
            nxt = 0.5 + 0.5 * (0.1 * 0.8 + 0.9 * x)
            if abs(nxt - x) < 1e-15:
                break
            x = nxt
        assert_close(effective_mu(params), x, 1e-12)
        assert_close(effective_mu(params), 0.5400 / 0.55, 1e-12)

    @given(valid_point)
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, params):
        m = effective_mu(params)
        assert min(params.mu, 1.0) - 1e-12 <= m <= 1.0 + 1e-12

    def test_monotone_continuous_in_rho(self):
        rhos = np.linspace(0.0, 1.0, 200)
        vals = [effective_mu(make(rho=r)) for r in rhos]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # continuity at the short-circuited endpoints
        assert abs(vals[1] - vals[0]) < 0.05
        assert abs(vals[-1] - vals[-2]) < 0.05


class TestEfficientThreshold:
    def test_zero_case(self):
        assert_close(compute_thresholds(
            make(delta=0.5, p=0.2, p1=0.6)).cbar_D, 0.0)

    def test_demo_case(self):
        assert_close(compute_thresholds(
            make(delta=0.9, p=0.3, p1=0.7)).cbar_D, 33.0)

    def test_vanishing_power_shift(self):
        # with p1 -> p the threshold tends to (p - 1)/(1 - delta) < 0:
        # no power shift makes barrier-free peace unconditional
        params = make(delta=0.6, p=0.4, p1=0.4 + 1e-9)
        limit = (0.4 - 1.0) / (1.0 - 0.6)
        assert_close(compute_thresholds(params).cbar_D, limit, 1e-6)
        assert compute_thresholds(params).cbar_D < 0

    def test_invariant_to_other_knobs(self):
        base = compute_thresholds(make()).cbar_D
        for kw in ({"mu": 0.4}, {"h0": 0.2}, {"rho": 0.7}, {"theta": 1.2}):
            assert compute_thresholds(make(**kw)).cbar_D == base


class TestInefficientThresholds:
    def test_cd_demo(self):
        assert_close(compute_thresholds(make()).clow_D, 21.6)

    def test_cd_theta(self):
        assert_close(compute_thresholds(make(theta=1.2)).clow_D, 32.52)
        assert compute_thresholds(make(theta=1.2)).clow_D > \
            compute_thresholds(make(theta=1.0)).clow_D

    def test_cd_negative_case(self):
        assert_close(compute_thresholds(
            make(delta=0.5, p=0.2, p1=0.6, mu=0.5, h0=0.5)).clow_D, -0.2)

    def test_joint_demo(self):
        assert_close(compute_thresholds(make()).Clow, -1.14)
        assert_close(inefficient_joint_threshold_compact(make()), -1.14)

    def test_joint_simple(self):
        assert_close(compute_thresholds(
            make(delta=0.5, p1=0.6, mu=0.5, h0=0.5)).Clow, -0.1)

    def test_joint_vanishes_without_damage(self):
        # mu = 1 and h0 -> 1 leaves the proposer exactly break even
        for eps in (1e-3, 1e-6, 1e-9):
            value = compute_thresholds(make(mu=1.0, h0=1.0 - eps)).Clow
            assert 0.0 < value < eps
        assert_close(compute_thresholds(make(mu=1.0, h0=1.0 - 1e-12)).Clow,
                     0.0, 1e-11)

    @given(valid_point)
    @settings(max_examples=200, deadline=None)
    def test_twin_identity(self, params):
        point = params.with_overrides(theta=1.0)
        a = compute_thresholds(point).Clow
        b = inefficient_joint_threshold_compact(point)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    @given(valid_point)
    @settings(max_examples=200, deadline=None)
    def test_affine_dependence(self, params):
        # the three thresholds are affinely dependent:
        # Clow = (1 - delta) * (clow_D - cbar_D), at every theta and rho
        ts = compute_thresholds(params)
        expected = (1.0 - params.delta) * (ts.clow_D - ts.cbar_D)
        assert abs(ts.Clow - expected) <= 1e-9 * max(1.0, abs(ts.Clow))

    def test_monotone_in_theta(self):
        thetas = np.linspace(0.9, 1.0 / 0.7 - 1e-9, 100)
        cds = [compute_thresholds(make(theta=t)).clow_D for t in thetas]
        cjs = [compute_thresholds(make(theta=t)).Clow for t in thetas]
        assert all(b >= a for a, b in zip(cds, cds[1:]))
        assert all(b >= a for a, b in zip(cjs, cjs[1:]))

    def test_monotone_in_effective_mu(self):
        rhos = np.linspace(0.0, 1.0, 100)
        cds = [compute_thresholds(make(rho=r)).clow_D for r in rhos]
        cjs = [compute_thresholds(make(rho=r)).Clow for r in rhos]
        assert all(b >= a for a, b in zip(cds, cds[1:]))
        assert all(b >= a for a, b in zip(cjs, cjs[1:]))


class TestReduction:
    def test_theta_one_reproduces_baseline_bitwise(self):
        params = make(theta=1.0, rho=0.0)
        d, p, p1, mu, h0 = params.delta, params.p, params.p1, params.mu, params.h0
        ts = compute_thresholds(params)
        assert ts.clow_D == \
            (d / (1.0 - d) * (mu * p1 - p) - (1.0 - p1) * h0) / (1.0 - d)
        assert ts.Clow == \
            (1.0 - p1 - ((1.0 - d) * h0 * (1.0 - p1)
                         + d * (1.0 - mu * p1))) / (1.0 - d)
        assert ts.cbar_D == \
            ((p1 - d * p) / (1.0 - d) - 1.0) / (1.0 - d)


class TestOffers:
    # the played offer is StrategyProfile.offer, the raw offer of the
    # ThresholdSet clamped into [0, y]

    def test_inefficient_offer_demo(self):
        params = make(c_D=25.0)
        offers = compute_thresholds(params)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        assert_close(offers.offer1_inefficient, 0.26)
        assert profile.offer(1, params.h0, True) == offers.offer1_inefficient
        assert offers.offer1_inefficient <= 0.6  # feasible at c_D = 25 >= 21.6

    def test_efficient_offer_demo(self):
        offers = compute_thresholds(make(c_D=35.0))
        assert_close(offers.offer1_efficient, 0.8)

    def test_stationary_clamp(self):
        params = make(c_D=25.0)
        offers = compute_thresholds(params)
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, params)
        assert_close(offers.offer_stationary, -2.2)
        assert profile.offer(2, 1.0, False) == 0.0

    @given(valid_point, st.floats(0.0, 60.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_feasibility_equivalence(self, params, c_d):
        # offer1_inefficient <= h0 exactly when c_D >= clow_D
        point = params.with_overrides(c_D=c_d)
        offers = compute_thresholds(point)
        clow = offers.clow_D
        margin = (1.0 - point.delta) * (c_d - clow)
        if abs(margin) > 1e-9:
            assert (offers.offer1_inefficient <= point.h0) == (c_d >= clow)

    @given(st.integers(min_value=0, max_value=2**31),
           st.sampled_from(BUILT_IN_MODES))
    @settings(max_examples=100, deadline=None)
    def test_clamps_in_bounds(self, seed, mode):
        # drawn where the profile exists, since only there does it offer
        params = existing_point(np.random.default_rng(seed), mode)
        profile = StrategyProfile(mode, params)
        kept = profile.elim_period > 1
        y1 = params.h0 if kept else 1.0
        assert 0.0 <= profile.offer(1, y1, kept) <= y1
        assert 0.0 <= profile.offer(2, 1.0, False) <= 1.0


class TestThetaFloor:
    def test_demo(self):
        assert_close(theta_floor(make(mu=0.8, p=0.3)), 0.1 / 0.24, 1e-12)

    def test_full_power(self):
        assert theta_floor(make(mu=1.0, p=1.0, p1=1.0)) == 1.0

    def test_nonpositive_when_slack(self):
        assert theta_floor(make(mu=0.5, p=0.4)) <= 0.0

    def test_undefined_when_p_zero(self):
        assert theta_floor(make(p=0.0)) == -math.inf


class TestThresholdSet:
    def test_extension_labels(self):
        def extension(**kw):
            return compute_thresholds(make(**kw)).extension

        assert extension() == "baseline"
        assert extension(rho=0.3) == "rho"
        assert extension(theta=1.1) == "theta"
        assert extension(rho=0.3, theta=1.1) == "composed"

    def test_to_dict_floor_undefined(self):
        d = _plain(compute_thresholds(make(p=0.0)))
        assert d["theta_floor"] is None

    @given(valid_point)
    @settings(max_examples=100, deadline=None)
    def test_all_finite(self, params):
        ts = compute_thresholds(params)
        for name in ("cbar_D", "clow_D", "Clow", "postwar_mean",
                     "offer1_efficient", "offer1_inefficient",
                     "offer_stationary"):
            assert math.isfinite(getattr(ts, name))


def _digest_points() -> list[ModelParams]:
    """Sampled, patient and edge points whose threshold records are pinned."""
    rng = np.random.default_rng(19)
    sampled = [random_valid_params(rng) for _ in range(2000)]
    rng = np.random.default_rng(1919)
    patient = [random_valid_params(rng).with_overrides(
                   delta=rng.uniform(0.95, 0.9999)) for _ in range(500)]
    edges = [point.with_overrides(**kw)
             for point in [make(), make(rho=0.3, theta=1.1)] + sampled[:10]
             for kw in ({"rho": 0.0}, {"rho": 1.0}, {"theta": 1.0},
                        {"mu": 1.0}, {"h0": 1.0 - 1e-12}, {"p": 0.0})]
    return sampled + patient + edges


class TestThresholdDigest:
    # SHA-256 of the full-precision reprs of compute_thresholds over
    # _digest_points().  The goldens print at .12g, so this is what catches
    # a one-ulp change in a closed form.  Adding or deleting a ThresholdSet
    # field (such as C_keep and C_keep2 of ROADMAP items 3 and 7) changes
    # the repr, so that change re-records the digest; nothing else should.
    DIGEST = "6345ceac5810fafaf8b8f1443db6e0a9f1f44cf4c9b21a876856a209fb22ea3f"

    def test_threshold_records_pinned(self):
        text = "\n".join(repr(compute_thresholds(q)) for q in _digest_points())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
