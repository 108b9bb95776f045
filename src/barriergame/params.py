"""Model parameters, barrier-value distributions, and validation.

All objects here are immutable values; random draws take an explicit
numpy Generator so there is no hidden global state.
"""
from __future__ import annotations

import enum
import itertools
import math
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence


class EliminationMode(enum.Enum):
    UNILATERAL = "Unilateral"
    COOPERATIVE = "Cooperative"


def _power_floor(mu: float, p: float) -> float:
    """Lower bound on theta below which maintaining the barrier becomes a
    deliberate military advantage for the proposer.  Returns -inf when
    mu * p == 0 (the bound is vacuous there: any positive theta qualifies)."""
    if mu * p == 0.0:
        return -math.inf
    return (mu + p - 1) / (mu * p)


class ModelParams(NamedTuple):
    """Full parameter vector of the bargaining game.

    delta: per-period discount factor
    p:     responder's war-win probability from period 2 on (free trade)
    p1:    responder's war-win probability in period 1 (free trade)
    mu:    mean of the barrier-value distribution
    h0:    default period-1 barrier-reduced resource level
    c_R:   proposer's one-time war cost
    c_D:   responder's one-time war cost
    rho:   per-period probability that the postwar market renormalizes to 1
    theta: multiplier on the responder's win probability while the barrier stands
    """

    delta: float
    p: float
    p1: float
    mu: float
    h0: float
    c_R: float
    c_D: float
    rho: float = 0.0
    theta: float = 1.0
    elimination_mode: EliminationMode = EliminationMode.UNILATERAL

    def with_overrides(self, **kwargs: Any) -> "ModelParams":
        return self._replace(**kwargs)

    def to_dict(self) -> dict:
        return {**self._asdict(), "elimination_mode": self.elimination_mode.value}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        mode = data.get("elimination_mode", EliminationMode.UNILATERAL.value)
        try:
            em = EliminationMode(mode)
        except ValueError:
            raise ValueError(f"elimination_mode must be one of "
                             f"{[m.value for m in EliminationMode]}, got {mode!r}")
        values = {k: v for k, v in data.items() if k != "elimination_mode"}
        for k, v in values.items():
            # JSON numbers only: bool is an int subclass; "25" and null are not
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{k} must be a number, got {v!r}")
            try:
                values[k] = float(v)
            except OverflowError:
                raise ValueError(f"{k} is an integer beyond float range")
        return cls(elimination_mode=em, **values)


class InvalidParamsError(ValueError):
    """Raised when an operation refuses invalid parameters."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


def validate(params: ModelParams) -> tuple[str, ...]:
    """Every violated parameter restriction, empty when the point is valid;
    ``require_valid`` is the one place that turns them into an exception."""
    v: list[str] = []
    q = params
    if not (0.0 < q.delta < 1.0):
        v.append(f"0 < delta < 1 required, got {q.delta}")
    if not (0.0 <= q.p <= 1.0):
        v.append(f"0 <= p <= 1 required, got {q.p}")
    if not (0.0 <= q.p1 <= 1.0):
        v.append(f"0 <= p1 <= 1 required, got {q.p1}")
    if not (0.0 < q.h0 < 1.0):
        v.append(f"0 < h0 < 1 required, got {q.h0}")
    if not (0.0 < q.mu <= 1.0):
        v.append(f"0 < mu <= 1 required, got {q.mu}")
    if not (q.p1 > q.p):
        v.append(f"p1 > p required (declining power), got p1={q.p1}, p={q.p}")
    if not (0.0 <= q.c_R < math.inf):
        v.append(f"finite c_R >= 0 required, got {q.c_R}")
    if not (0.0 <= q.c_D < math.inf):
        v.append(f"finite c_D >= 0 required, got {q.c_D}")
    if not (0.0 <= q.rho <= 1.0):
        v.append(f"0 <= rho <= 1 required, got {q.rho}")
    if not (q.theta > 0.0):
        v.append(f"theta > 0 required, got {q.theta}")
    else:
        if q.theta * q.p1 > 1.0:
            v.append(f"theta*p1 <= 1 required, got {q.theta * q.p1}")
        if q.theta * q.p > 1.0:
            v.append(f"theta*p <= 1 required, got {q.theta * q.p}")
        if q.theta != 1.0:
            floor = _power_floor(q.mu, q.p)
            if math.isfinite(floor) and q.theta < floor:
                v.append(f"theta below floor {floor}")
    if not isinstance(q.elimination_mode, EliminationMode):
        v.append(f"elimination_mode invalid: {q.elimination_mode!r}")
    return tuple(v)


def require_valid(params: ModelParams) -> None:
    """Raise InvalidParamsError listing every violation, if there are any."""
    violations = validate(params)
    if violations:
        raise InvalidParamsError(violations)


class DistributionKind(enum.Enum):
    DEGENERATE = "Degenerate"
    UNIFORM = "Uniform"
    SCALED_BETA = "ScaledBeta"


class BarrierDistribution(NamedTuple):
    """Barrier-value distribution on [0, 1].

    Three families are supported so closed-form results, which depend on
    the distribution only through its mean, can be checked to be
    distribution-invariant.
    """

    kind: DistributionKind
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def degenerate(cls, mu: float) -> "BarrierDistribution":
        if not (0.0 <= mu <= 1.0):
            raise ValueError(f"degenerate point must lie in [0, 1], got {mu}")
        return cls(DistributionKind.DEGENERATE, mu, mu)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "BarrierDistribution":
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"uniform support must satisfy 0 <= lo <= hi <= 1, "
                             f"got [{lo}, {hi}]")
        return cls(DistributionKind.UNIFORM, lo, hi)

    @classmethod
    def scaled_beta(cls, alpha: float, beta: float) -> "BarrierDistribution":
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise ValueError(f"beta shape parameters must be positive and "
                             f"finite, got alpha={alpha}, beta={beta}")
        return cls(DistributionKind.SCALED_BETA, alpha, beta)

    @classmethod
    def uniform_with_mean(cls, mu: float, width: float) -> "BarrierDistribution":
        """Uniform with the given mean; width is shrunk if it would leave [0, 1]."""
        half = min(width / 2.0, mu, 1.0 - mu)
        return cls.uniform(mu - half, mu + half)

    @classmethod
    def scaled_beta_with_mean(cls, mu: float, concentration: float = 8.0) -> "BarrierDistribution":
        if not (0.0 < mu < 1.0):
            raise ValueError(f"beta mean must lie in (0, 1), got {mu}")
        return cls.scaled_beta(mu * concentration, (1.0 - mu) * concentration)

    @property
    def mean(self) -> float:
        if self.kind is DistributionKind.DEGENERATE:
            return self.a
        if self.kind is DistributionKind.UNIFORM:
            return (self.a + self.b) / 2.0
        return self.a / (self.a + self.b)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if self.kind is DistributionKind.DEGENERATE:
            # point mass: draws are bit-identical to the mean
            if size is None:
                return self.a
            import numpy as np
            return np.full(size, self.a)
        if self.kind is DistributionKind.UNIFORM:
            return rng.uniform(self.a, self.b, size)
        return rng.beta(self.a, self.b, size)

    def describe(self) -> str:
        if self.kind is DistributionKind.DEGENERATE:
            return f"Degenerate({self.a})"
        if self.kind is DistributionKind.UNIFORM:
            return f"Uniform({self.a}, {self.b})"
        return f"ScaledBeta({self.a}, {self.b})"


MEAN_MATCH_TOL = 1e-12


def require_mean_matches(dist: BarrierDistribution, params: ModelParams) -> None:
    """Simulation entry points require the distribution mean to equal mu."""
    if not abs(dist.mean - params.mu) <= MEAN_MATCH_TOL:
        raise ValueError(
            f"distribution mean {dist.mean} does not match mu={params.mu} "
            f"within {MEAN_MATCH_TOL}")


# upper end of the uniform draw of each war cost in sample_valid_params
SAMPLE_COST_SCALE = 10.0
SAMPLE_MAX_DRAWS = 11   # the most doubles one sampled point reads
# the points sample_valid_chunks makes at once, doubles unpacked with them:
# the agreement census's memory beyond its block of draws
SAMPLE_CHUNK = 512


def _sample_point(u: Callable[[], float], theta_spread: bool,
                  rho_spread: bool) -> ModelParams:
    """One valid point from the doubles u() returns; each draw
    lo + (hi - lo) * u() is bit for bit numpy's uniform(lo, hi)."""
    delta = 0.15 + (0.95 - 0.15) * u()
    p = 0.02 + (0.9 - 0.02) * u()
    lo = p + 0.02
    p1 = lo + (1.0 - lo) * u()
    mu = 0.3 + (1.0 - 0.3) * u()
    h0 = 0.05 + (0.95 - 0.05) * u()
    rho = u() if (rho_spread and u() < 0.5) else 0.0    # uniform(0, 1)
    if theta_spread and u() < 0.5:
        lo = max(_power_floor(mu, p), 0.05)
        theta = lo + (1.0 / p1 - lo) * u()
    else:
        theta = 1.0
    c_d = SAMPLE_COST_SCALE * u()
    c_r = SAMPLE_COST_SCALE * u()
    return ModelParams(delta=delta, p=p, p1=p1, mu=mu, h0=h0,
                       c_R=c_r, c_D=c_d, rho=rho, theta=theta)


def sample_valid_params(rng: np.random.Generator, *, theta_spread: bool = True,
                        rho_spread: bool = True) -> ModelParams:
    """Sample one valid parameter point for agreement and property tests.

    theta is drawn from {1} union [floor, 1/p1] (floor clipped away from
    zero) and rho uniformly on [0, 1], each active half the time.
    """
    return _sample_point(rng.random, theta_spread, rho_spread)


def sample_valid_chunks(rng, n: int) -> Iterator[list[ModelParams]]:
    """n calls of sample_valid_params bit for bit, from one block of draws
    taken now, in lists of up to SAMPLE_CHUNK points: the block becomes
    Python floats one chunk's worth at a time, so the points are never all
    held.  The generator's state afterwards differs from that after the
    calls.  rng is a numpy Generator, or a seed for numpy.random.default_rng."""
    import numpy as np
    block = np.random.default_rng(rng).random(SAMPLE_MAX_DRAWS * n)
    step = SAMPLE_MAX_DRAWS * SAMPLE_CHUNK
    u = itertools.chain.from_iterable(
        block[i:i + step].tolist() for i in range(0, block.size, step)).__next__
    return ([_sample_point(u, True, True)
             for _ in range(min(SAMPLE_CHUNK, n - start))]
            for start in range(0, n, SAMPLE_CHUNK))


def sample_valid_points(rng, n: int) -> Iterator[ModelParams]:
    """The points of sample_valid_chunks(rng, n), one by one."""
    return itertools.chain.from_iterable(sample_valid_chunks(rng, n))
