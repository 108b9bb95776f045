import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barriergame import params
from barriergame.params import (
    SAMPLE_COST_SCALE,
    SAMPLE_MAX_DRAWS,
    BarrierDistribution,
    DistributionKind,
    EliminationMode,
    ModelParams,
    _power_floor,
    _sample_point,
    require_mean_matches,
    sample_valid_chunks,
    sample_valid_params,
    sample_valid_points,
    validate,
)


def make(**kw):
    base = dict(delta=0.5, p=0.2, p1=0.6, mu=0.5, h0=0.5, c_R=1.0, c_D=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestValidate:
    def test_ok_point(self):
        assert validate(make(rho=0.0, theta=1.0)) == ()

    def test_no_power_shift_rejected(self):
        violations = validate(make(p1=0.2, p=0.2))
        assert any("p1 > p" in v for v in violations)

    def test_theta_below_floor(self):
        msgs = [v for v in validate(make(mu=0.8, p=0.3, theta=0.3))
                if "theta below floor" in v]
        assert len(msgs) == 1
        assert "0.41666" in msgs[0]

    def test_theta_above_floor_ok(self):
        assert validate(make(mu=0.8, p=0.3, theta=0.5)) == ()

    def test_theta_probability_bounds(self):
        assert any("theta*p1" in v for v in validate(make(p1=0.9, theta=1.2)))

    def test_negative_costs(self):
        violations = validate(make(c_R=-1.0, c_D=-2.0))
        assert sum("c_R" in v or "c_D" in v for v in violations) == 2

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_costs(self, value):
        for name in ("c_R", "c_D"):
            assert [v for v in validate(make(**{name: value})) if name in v] == \
                [f"finite {name} >= 0 required, got {value}"]

    @given(
        delta=st.floats(-1, 2, allow_nan=False),
        p=st.floats(-1, 2, allow_nan=False),
        p1=st.floats(-1, 2, allow_nan=False),
        mu=st.floats(-1, 2, allow_nan=False),
        h0=st.floats(-1, 2, allow_nan=False),
        c_r=st.floats(-5, 5, allow_nan=False),
        c_d=st.floats(-5, 5, allow_nan=False),
        rho=st.floats(-1, 2, allow_nan=False),
        theta=st.floats(-1, 3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_total(self, delta, p, p1, mu, h0, c_r, c_d, rho, theta):
        # every input yields a tuple of violation strings, never an exception
        violations = validate(ModelParams(delta, p, p1, mu, h0, c_r, c_d, rho, theta))
        assert type(violations) is tuple
        assert all(type(v) is str for v in violations)


def same_fields(a, b):
    return type(a) is type(b) and all(
        x is y or np.array_equal(x, y) for x, y in zip(a, b))


def built(q, **kw):
    """The record the constructor builds from q's fields with kw swapped in."""
    return ModelParams(**{**q._asdict(), **kw})


class TestWithOverrides:
    """``with_overrides`` is the named tuple's ``_replace``."""

    @pytest.mark.parametrize("kw", [
        {}, {"c_D": 3.0}, {"c_D": 3.0, "c_R": 0.5}, {"mu": 0.9, "rho": 0.4},
        {"theta": 1.1, "elimination_mode": EliminationMode.COOPERATIVE},
    ])
    def test_matches_constructor(self, kw):
        base = make(rho=0.25, theta=1.05)
        got = base.with_overrides(**kw)
        assert got == built(base, **kw)
        assert hash(got) == hash(built(base, **kw))
        assert same_fields(got, built(base, **kw))
        assert base == make(rho=0.25, theta=1.05)   # the base is untouched

    def test_unknown_field_raises(self):
        # _replace refuses and lists unknown names with ValueError, a known
        # name alongside or not; the constructor refuses them with TypeError
        with pytest.raises(ValueError, match=r"\['c_d'\]"):
            make().with_overrides(c_d=1.0)
        with pytest.raises(TypeError):
            built(make(), c_d=1.0)
        with pytest.raises(ValueError, match=r"\['c_d', 'cr'\]"):
            make().with_overrides(c_D=2.0, c_d=1.0, cr=0.5)

    def test_copy_shares_no_dict(self):
        # a named tuple keeps its fields in the tuple, with no instance dict
        # to copy or share; the copy is a new record whose fields are fixed
        base = make()
        got = base.with_overrides(c_R=4.0)
        assert not hasattr(base, "__dict__")
        assert not hasattr(got, "__dict__")
        assert got is not base and base.c_R is not got.c_R
        with pytest.raises(AttributeError):
            got.c_R = 1.0


class TestSerialization:
    def test_round_trip(self):
        params = make(rho=0.25, theta=1.1,
                      elimination_mode=EliminationMode.COOPERATIVE)
        assert ModelParams.from_dict(params.to_dict()) == params

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ModelParams.from_dict({"delta": 0.5, "bogus": 1})

    def test_bad_mode(self):
        data = make().to_dict()
        data["elimination_mode"] = "Joint"
        with pytest.raises(ValueError, match="elimination_mode"):
            ModelParams.from_dict(data)

    def test_mode_given_as_enum(self):
        data = {**make().to_dict(),
                "elimination_mode": EliminationMode.COOPERATIVE}
        params = ModelParams.from_dict(data)
        assert params.elimination_mode is EliminationMode.COOPERATIVE
        assert params == make(elimination_mode=EliminationMode.COOPERATIVE)

    @pytest.mark.parametrize("value", [True, False, "25", None, [1.0]])
    def test_non_number_value_refused(self, value):
        # only JSON numbers: float() would read True as 1.0 and "25" as 25.0
        data = {**make().to_dict(), "c_R": value}
        message = f"c_R must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ModelParams.from_dict(data)

    @pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400)],
                             ids=["1e400", "-1e400"])
    def test_integer_beyond_float_range_refused(self, value):
        # a JSON integer is unbounded; float() would raise OverflowError
        data = {**make().to_dict(), "c_R": value}
        with pytest.raises(ValueError,
                           match="^c_R is an integer beyond float range$"):
            ModelParams.from_dict(data)

    def test_int_values_pass(self):
        data = {**make().to_dict(), "c_R": 2}
        params = ModelParams.from_dict(data)
        assert params == make(c_R=2.0)
        assert type(params.c_R) is float

    def test_invalid_mode_is_a_violation(self):
        # the constructor does not coerce; validate names the bad value
        assert validate(make(elimination_mode="Cooperative")) == (
            "elimination_mode invalid: 'Cooperative'",)


class TestDistributions:
    def test_degenerate_bit_identical(self):
        dist = BarrierDistribution.degenerate(0.5)
        rng = np.random.default_rng(0)
        assert all(dist.sample(rng) == 0.5 for _ in range(100))
        assert (dist.sample(rng, 100) == 0.5).all()

    def test_uniform_support(self):
        dist = BarrierDistribution.uniform(0.3, 0.7)
        rng = np.random.default_rng(7)
        draws = dist.sample(rng, 10_000)
        assert draws.min() >= 0.3 and draws.max() <= 0.7
        assert abs(dist.mean - 0.5) == 0.0

    def test_scaled_beta_lln(self):
        dist = BarrierDistribution.scaled_beta_with_mean(0.6)
        rng = np.random.default_rng(11)
        draws = dist.sample(rng, 1_000_000)
        se = draws.std() / 1000.0
        assert abs(draws.mean() - 0.6) <= 3.0 * se
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    @pytest.mark.parametrize("dist", [
        BarrierDistribution.degenerate(0.8),
        BarrierDistribution.uniform_with_mean(0.8, 0.3),
        BarrierDistribution.scaled_beta_with_mean(0.8),
    ])
    def test_lln_all_families(self, dist):
        rng = np.random.default_rng(3)
        draws = np.asarray(dist.sample(rng, 1_000_000))
        se = draws.std() / 1000.0
        assert abs(draws.mean() - 0.8) <= max(3.0 * se, 1e-12)

    def test_mean_mismatch_detected(self):
        params = make(mu=0.5)
        with pytest.raises(ValueError, match="does not match mu"):
            require_mean_matches(BarrierDistribution.degenerate(0.6), params)
        # a subnormal beta shape loses the mean it was built with
        with pytest.raises(ValueError) as refused:
            require_mean_matches(
                BarrierDistribution.scaled_beta_with_mean(0.8, 1e-320),
                make(mu=0.8))
        assert str(refused.value) == ("distribution mean 0.799901185770751 "
                                      "does not match mu=0.8 within 1e-12")

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            BarrierDistribution.uniform(-0.1, 0.5)
        with pytest.raises(ValueError):
            BarrierDistribution.degenerate(1.5)
        with pytest.raises(ValueError):
            BarrierDistribution.scaled_beta(0.0, 1.0)
        with pytest.raises(ValueError, match=r"beta mean must lie in \(0, 1\)"):
            BarrierDistribution.scaled_beta_with_mean(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_nonfinite_or_negative_shape_refused(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            BarrierDistribution.scaled_beta(bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            BarrierDistribution.scaled_beta(1.0, bad)
        with pytest.raises(ValueError, match="positive and finite"):
            BarrierDistribution.scaled_beta_with_mean(0.8, bad)

    def test_nan_mean_never_matches(self):
        # a record built around the constructors' checks still cannot pass
        # the simulation entry check with a nan mean
        dist = BarrierDistribution(DistributionKind.UNIFORM, math.nan, math.nan)
        with pytest.raises(ValueError, match="does not match mu"):
            require_mean_matches(dist, make(mu=0.5))

    def test_describe(self):
        assert BarrierDistribution.degenerate(0.5).describe() == "Degenerate(0.5)"
        assert BarrierDistribution.uniform(0.25, 0.75).describe() == \
            "Uniform(0.25, 0.75)"
        assert BarrierDistribution.scaled_beta(2.0, 3.0).describe() == \
            "ScaledBeta(2.0, 3.0)"


def uniform_reference(rng, theta_spread=True, rho_spread=True):
    """The sampled distribution stated with numpy's uniform draws."""
    delta = rng.uniform(0.15, 0.95)
    p = rng.uniform(0.02, 0.9)
    p1 = rng.uniform(p + 0.02, 1.0)
    mu = rng.uniform(0.3, 1.0)
    h0 = rng.uniform(0.05, 0.95)
    rho = rng.uniform(0.0, 1.0) if (rho_spread and rng.random() < 0.5) else 0.0
    if theta_spread and rng.random() < 0.5:
        theta = rng.uniform(max(_power_floor(mu, p), 0.05), 1.0 / p1)
    else:
        theta = 1.0
    c_d = rng.uniform(0.0, SAMPLE_COST_SCALE)
    c_r = rng.uniform(0.0, SAMPLE_COST_SCALE)
    return ModelParams(delta=delta, p=p, p1=p1, mu=mu, h0=h0,
                       c_R=c_r, c_D=c_d, rho=rho, theta=theta)


SPREADS = [dict(theta_spread=t, rho_spread=r)
           for t in (True, False) for r in (True, False)]
SPREAD_IDS = ["both", "theta", "rho", "none"]


class TestSampling:
    """``sample_valid_params`` draws ``lo + (hi - lo) * u`` from scalar
    doubles and ``sample_valid_points`` from one block of them; both give
    the points numpy's ``uniform`` gives, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_block_equals_scalar_calls(self, seed):
        rng = np.random.default_rng(seed)
        scalar = [sample_valid_params(rng) for _ in range(2000)]
        block = list(sample_valid_points(np.random.default_rng(seed), 2000))
        assert repr(block) == repr(scalar)
        # a seed stands for the generator numpy.random.default_rng makes
        assert repr(list(sample_valid_points(seed, 2000))) == repr(scalar)
        assert list(sample_valid_points(np.random.default_rng(seed), 0)) == []

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunks_keep_every_point(self, monkeypatch, chunk):
        # the block becomes floats chunk by chunk, so a point's draws may
        # straddle two chunks; the block is drawn at the call, so later use
        # of the generator moves no point
        monkeypatch.setattr(params, "SAMPLE_CHUNK", chunk)
        rng = np.random.default_rng(11)
        scalar = [sample_valid_params(rng) for _ in range(300)]
        rng = np.random.default_rng(11)
        points = sample_valid_points(rng, 300)
        rng.random(5)
        assert repr(list(points)) == repr(scalar)
        full, rest = divmod(300, chunk)
        sizes = [len(c) for c in sample_valid_chunks(11, 300)]
        assert sizes == [chunk] * full + [rest] * (rest > 0)

    @pytest.mark.parametrize("kw", SPREADS, ids=SPREAD_IDS)
    @pytest.mark.parametrize("seed", [3, 7])
    def test_scalar_equals_uniform_reference(self, kw, seed):
        # the same points from the same generator state, which the scalar
        # sampler leaves where numpy's uniform draws leave it
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [sample_valid_params(a, **kw) for _ in range(2000)]
        want = [uniform_reference(b, **kw) for _ in range(2000)]
        assert repr(got) == repr(want)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("kw", SPREADS, ids=SPREAD_IDS)
    def test_no_point_reads_more_than_max_draws(self, kw):
        rng = np.random.default_rng(5)
        reads = []

        def u():
            reads[-1] += 1
            return rng.random()

        for _ in range(2000):
            reads.append(0)
            _sample_point(u, **kw)
        assert max(reads) == 7 + kw["theta_spread"] * 2 + kw["rho_spread"] * 2
        assert max(reads) <= SAMPLE_MAX_DRAWS

    def test_affine_draw_is_numpy_uniform(self):
        # numpy's uniform(lo, hi) is lo + (hi - lo) * next_double; a numpy
        # release that computes it otherwise would move every sampled point
        rng = np.random.default_rng(9)
        p = rng.uniform(0.02, 0.9, 50)
        p1 = rng.uniform(p + 0.02, 1.0)
        mu = rng.uniform(0.3, 1.0, 50)
        bounds = [(0.15, 0.95), (0.02, 0.9), (0.3, 1.0), (0.05, 0.95),
                  (0.0, 1.0), (0.0, SAMPLE_COST_SCALE)]
        for pi, p1i, mui in zip(p.tolist(), p1.tolist(), mu.tolist()):
            bounds += [(pi + 0.02, 1.0),
                       (max(_power_floor(mui, pi), 0.05), 1.0 / p1i)]
        for lo, hi in bounds:
            a, b = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(400):
                assert lo + (hi - lo) * a.random() == b.uniform(lo, hi)
