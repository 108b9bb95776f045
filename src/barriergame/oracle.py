"""Independent verification of the built-in profiles and brute-force
re-derivation of the thresholds.

Nothing here reads the closed-form threshold formulas: war values come from
the engine's lottery primitives, the postwar market mean comes from a
fixed-point iteration, and continuation values come from the stationary
indifference structure (the responder is held at its war value once the
power shift has passed and the barrier is gone).

The certification verdict checks each profile against the deviation set
that supports it: period-1 offer feasibility, the proposer's war deviation
at the prescribed barrier state, the eliminate-then-fight deviation for the
barrier-keeping profile, the responder's acceptance rule, and the
stationary phase via the one-shot deviation principle.  Cross-elimination
deviations answered by the profile's sequentially-rational opponent are
reported as diagnostics; see the `diagnostics` field.

The thresholds are re-derived by lockstep bisection.  A batch of points
becomes numpy lanes, one lane per bisection, and every step evaluates one
array predicate over all lanes: first the period-1 feasibility gain for
`cbar_D` and `clow_D` together (two lanes per point, told apart by a
per-lane profile mask), then the eliminate-then-war gain for `Clow` (one
lane per point, at a feasible `c_D`).  Everything that does not move with
the bisected cost -- the gross war lotteries with the barrier gone and
standing, the stationary flows, the profile's period-1 path, and in the
`Clow` phase the proposer's equilibrium value -- is computed once per
batch, from the same cost-free terms `verify_period1` reads; a predicate
call is a few array operations on the cost, with no `ModelParams` built
and no engine call.  Each term is the same float `verify_period1` would
compute at that cost, the postwar mean is iterated once per point, and
each lane takes exactly the steps a lone bisection would, so a point's
brackets do not depend on the batch it is in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import engine
from .engine import ProfileMode
from .params import InvalidParamsError, ModelParams, sample_valid_params


# fixed-point iteration of the postwar mean: convergence step and step cap
POSTWAR_MEAN_TOL = 1e-14
POSTWAR_MEAN_MAX_ITER = 100_000
_UNCONVERGED_MEAN = f"postwar_mean: no convergence in {POSTWAR_MEAN_MAX_ITER} steps"
# doublings a bisection bracket may take while looking for each end
MAX_EXPAND = 64
# a bisection stops once its bracket is no wider than this
SEARCH_TOL = 1e-8


def postwar_market_mean(params: ModelParams) -> float:
    """Mean postwar market value by fixed-point iteration of the
    renormalization recursion x = rho + (1-rho)*((1-delta)*mu + delta*x),
    on plain floats.  A point still moving after POSTWAR_MEAN_MAX_ITER
    steps reads nan, because its last iterate is not the fixed point;
    callers refuse or report it.
    """
    rho, delta, mu = params.rho, params.delta, params.mu
    x = mu
    for _ in range(POSTWAR_MEAN_MAX_ITER):
        nxt = rho + (1.0 - rho) * ((1.0 - delta) * mu + delta * x)
        if abs(nxt - x) <= POSTWAR_MEAN_TOL:
            return nxt
        x = nxt
    return math.nan


@dataclass(frozen=True)
class VerificationReport:
    mode: ProfileMode
    passed: bool
    feasible: bool
    max_gain_r: float
    max_gain_d: float
    best_deviation: str
    tol: float
    gains: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "passed": self.passed,
            "feasible": self.feasible,
            "max_gain_r": self.max_gain_r,
            "max_gain_d": self.max_gain_d,
            "best_deviation": self.best_deviation,
            "tol": self.tol,
            "gains": dict(self.gains),
            "diagnostics": dict(self.diagnostics),
        }


class _WarTerms(NamedTuple):
    """Period-1 terms that do not depend on the costs of war.  Each field is
    a float, or an array with one entry per lane."""

    delta: Any
    h0: Any
    free: tuple     # gross (proposer, responder) war lotteries, barrier gone
    bar: tuple      # the same with the barrier standing
    d_flow: Any     # p/(1-delta): responder's stationary war value before c_D
    r_flow: Any     # (1-p)/(1-delta): the complement the proposer keeps

    def cutoff1(self, gross_d, c_D):
        """Offer that holds the responder at its war value: the war payoff
        gross_d - c_D less the discounted stationary continuation
        v_d2 = d_flow - c_D."""
        return (gross_d - c_D) - self.delta * (self.d_flow - c_D)

    def v_eq_r(self, y1, cutoff1, c_D):
        """Proposer's equilibrium value: the period-1 rent plus the
        discounted continuation v_r2 = r_flow + c_D."""
        return (y1 - cutoff1) + self.delta * (self.r_flow + c_D)


def _war_terms(q: ModelParams, m) -> _WarTerms:
    """Cost-free period-1 terms at postwar mean m.  The fields of q may be
    arrays of lanes; its costs are not read."""
    delta = q.delta
    return _WarTerms(delta, q.h0,
                     engine.war_lottery(q, 1, False, 1.0, m),
                     engine.war_lottery(q, 1, True, q.h0, m),
                     q.p / (1.0 - delta), (1.0 - q.p) / (1.0 - delta))


def _offer_candidates(y: float, cutoff: float) -> np.ndarray:
    """The offers in [0, y] that can be the proposer's best response.

    An accepted offer x is worth (y - x) plus a continuation that does not
    move with x, so its value falls one for one with x (in floats too:
    each operation rounds monotonically); a rejected offer is worth the
    flat war value.  The best accepted offer is thus the least one: the
    cutoff when it lies in [0, y], else 0 (every offer is accepted) or
    none (no offer is); and 0 is rejected whenever any offer is.  Any
    finer grid of [0, y] holding these points has the same maximum.
    """
    if 0.0 <= cutoff <= y:
        return np.array([0.0, y, cutoff])
    return np.array([0.0, y])


def verify_period1(params: ModelParams, mode: ProfileMode,
                   tol: float = 1e-9) -> VerificationReport:
    """Deviation-check one built-in profile at period 1; the stationary phase
    is certified by exact one-shot checks.

    Works on raw cost values without consulting parameter validation, but
    refuses a point whose war values, continuations or gains are not finite
    (InvalidParamsError naming them): costs near the float maximum overflow
    the gains, and a verdict read off them would mean nothing.  A point
    whose postwar mean does not converge is refused the same way.
    """
    if mode is ProfileMode.CUSTOM:
        raise ValueError("only built-in profiles can be certified")
    q = params
    delta = q.delta
    efficient = mode is ProfileMode.EFFICIENT_PEACE
    m = postwar_market_mean(q)
    if math.isnan(m):
        raise InvalidParamsError([_UNCONVERGED_MEAN])
    w = _war_terms(q, m)
    v_d2 = w.d_flow - q.c_D
    v_r2 = w.r_flow + q.c_D
    war_r_free, war_d_free = w.free[0] - q.c_R, w.free[1] - q.c_D
    war_r_bar, war_d_bar = w.bar[0] - q.c_R, w.bar[1] - q.c_D
    cutoff_eff = w.cutoff1(w.free[1], q.c_D)
    cutoff_keep = w.cutoff1(w.bar[1], q.c_D)
    if efficient:
        y1, cutoff1 = 1.0, cutoff_eff
        war_r_onpath, war_d_onpath = war_r_free, war_d_free
    else:
        y1, cutoff1 = q.h0, cutoff_keep
        war_r_onpath, war_d_onpath = war_r_bar, war_d_bar
    v_eq_r = w.v_eq_r(y1, cutoff1, q.c_D)
    feasibility = cutoff1 - y1

    feasible = feasibility <= tol

    gains: dict[str, float] = {}
    diagnostics: dict[str, float] = {}

    gains["feasibility"] = feasibility
    # responder's one-shot check at the indifference offer (zero up to
    # rounding by construction)
    gains["responder_period1"] = war_d_onpath - (cutoff1 + delta * v_d2)
    # responder's stationary one-shot check
    x_stat = v_d2 - delta * v_d2
    war_d_stat = q.p * (1.0 + delta / (1.0 - delta)) - q.c_D
    gains["responder_stationary"] = war_d_stat - (x_stat + delta * v_d2)

    # proposer's offer deviations at the prescribed elimination state
    offers = _offer_candidates(y1, cutoff1)
    accepted = offers >= cutoff1
    values = np.where(accepted, (y1 - offers) + delta * v_r2, war_r_onpath)
    if efficient:
        gains["offer_scan"] = float(values.max()) - v_eq_r
    else:
        if accepted.any():
            gains["offer_scan"] = float(values[accepted].max()) - v_eq_r
        else:
            gains["offer_scan"] = -math.inf
        if (~accepted).any():
            diagnostics["keep_provoke_war"] = war_r_onpath - v_eq_r

    # proposer's war deviation at the prescribed barrier state
    gains["war_period1"] = war_r_onpath - v_eq_r
    # proposer's stationary one-shot check
    war_r_stat = (1.0 - q.p) * (1.0 + delta / (1.0 - delta)) - q.c_R
    gains["proposer_stationary"] = war_r_stat - v_r2

    if efficient:
        # retaining the barrier, answered by the profile's war trigger
        diagnostics["keep_trigger"] = war_r_bar - v_eq_r
        best = war_r_bar
        if cutoff_keep <= q.h0:
            best = max(best, (q.h0 - cutoff_keep) + delta * v_r2)
        diagnostics["keep_best_response"] = best - v_eq_r
    else:
        # eliminating first, answered by the profile's war trigger: the
        # joint-cost condition
        gains["eliminate_then_war"] = war_r_free - v_eq_r
        best = war_r_free
        if cutoff_eff <= 1.0:
            best = max(best, (1.0 - cutoff_eff) + delta * v_r2)
        diagnostics["eliminate_best_response"] = best - v_eq_r
        if mode is ProfileMode.COOPERATIVE_INEFFICIENT:
            # a lone consent switch by the responder cannot force elimination
            diagnostics["responder_vote_switch"] = 0.0

    terms = {"war_r_free": war_r_free, "war_d_free": war_d_free,
             "war_r_bar": war_r_bar, "war_d_bar": war_d_bar,
             "v_d2": v_d2, "v_r2": v_r2, **gains, **diagnostics}
    if not efficient and not accepted.any():
        del terms["offer_scan"]     # -inf by design: no offer is accepted
    nonfinite = [f"{k}={v}" for k, v in terms.items() if not math.isfinite(v)]
    if nonfinite:
        raise InvalidParamsError(
            [f"finite period-1 terms required, got {', '.join(nonfinite)}"])

    d_keys = ("feasibility", "responder_period1", "responder_stationary")
    max_gain_d = max(gains[k] for k in d_keys)
    max_gain_r = max(v for k, v in gains.items() if k not in d_keys)
    passed = max_gain_r <= tol and max_gain_d <= tol

    worst = max(gains, key=lambda k: gains[k])
    if passed:
        best_deviation = "none above tolerance"
    elif worst in d_keys:
        best_deviation = (f"responder rejects: war value exceeds the offer "
                          f"by {gains[worst]:.6g}")
    else:
        best_deviation = f"proposer {worst} gains {gains[worst]:.6g}"

    return VerificationReport(
        mode=mode, passed=passed, feasible=feasible,
        max_gain_r=max_gain_r, max_gain_d=max_gain_d,
        best_deviation=best_deviation, tol=tol,
        gains=gains, diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class Bracket:
    value: float
    lo: float
    hi: float


@dataclass(frozen=True)
class OracleThresholds:
    cbar_D: Bracket
    clow_D: Bracket
    Clow: Bracket
    search_tol: float
    anomalies: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "cbar_D": vars(self.cbar_D).copy(),
            "clow_D": vars(self.clow_D).copy(),
            "Clow": vars(self.Clow).copy(),
            "search_tol": self.search_tol,
            "anomalies": list(self.anomalies),
        }


def _bisect_up_sets(predicate: Callable[[np.ndarray], np.ndarray],
                    n: int, slope=1.0) -> list[tuple[Bracket, Optional[str]]]:
    """Locate, in lockstep, the boundaries of n pass regions of the form
    [threshold, inf).

    predicate maps an array of n points to n booleans, lane by lane, and
    must not depend on the other lanes.  Each lane expands its bracket,
    bisects and probes exactly as a lone bisection would; a lane that has
    stopped keeps its state while the others finish.  Returns one
    (bracket, anomaly note or None) per lane.

    slope (a float, or one per lane) is the rate at which the tested
    quantity moves with the bisected point; it widens the monotonicity
    probe past the band where rounding alone can flip the predicate.
    """
    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    has_hi = np.zeros(n, dtype=bool)
    for _ in range(MAX_EXPAND):
        has_hi |= predicate(hi)
        if has_hi.all():
            break
        hi = np.where(has_hi, hi, np.where(hi > 0, hi * 2.0, hi * 0.5 + 1.0))
    has_lo = np.zeros(n, dtype=bool)
    for _ in range(MAX_EXPAND):
        has_lo |= has_hi & ~predicate(lo)
        settled = has_lo | ~has_hi
        if settled.all():
            break
        lo = np.where(settled, lo, np.where(lo < 0, lo * 2.0, lo * 0.5 - 1.0))
    active = has_hi & has_lo
    while True:
        mid = 0.5 * (lo + hi)
        active &= (hi - lo > SEARCH_TOL) & (mid != lo) & (mid != hi)
        if not active.any():
            break
        up = predicate(mid)
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    value = 0.5 * (lo + hi)
    probe = np.maximum(max(SEARCH_TOL * 100.0, 1e-6),
                       4.0 * np.spacing(np.abs(value)) / slope)
    odd = predicate(value - probe) | ~predicate(value + probe)

    out = []
    for i in range(n):
        lo_i, hi_i = float(lo[i]), float(hi[i])
        if not has_hi[i]:
            out.append((Bracket(math.nan, lo_i, hi_i),
                        f"no passing point up to {hi_i}"))
        elif not has_lo[i]:
            out.append((Bracket(math.nan, lo_i, hi_i),
                        f"no failing point down to {lo_i}"))
        else:
            v = float(value[i])
            note = (f"predicate not monotone around {v}; the existence "
                    f"condition may not be an interval") if odd[i] else None
            out.append((Bracket(v, lo_i, hi_i), note))
    return out


def _lanes(points: Sequence[ModelParams]) -> ModelParams:
    """One ModelParams whose numeric fields are arrays, a lane per point."""
    return ModelParams(**{
        f.name: np.array([getattr(q, f.name) for q in points], dtype=float)
        for f in fields(ModelParams) if f.name != "elimination_mode"})


def oracle_thresholds_batch(points: Sequence[ModelParams]) -> list[OracleThresholds]:
    """Re-derive the three thresholds at every point by lockstep bisection
    of period-1 gains, to SEARCH_TOL; one OracleThresholds per point.

    The two cost-of-war thresholds come from the feasibility flip of the
    period-1 offer; the joint threshold comes from the eliminate-then-fight
    deviation flip at a fixed feasible c_D.
    """
    n = len(points)
    lanes = _lanes(points)
    m = np.array([postwar_market_mean(q) for q in points], dtype=float)

    # lanes [0, n) bisect cbar_D on the efficient path, lanes [n, 2n)
    # clow_D on the barrier-keeping path; the period-1 offer is feasible
    # when the cutoff fits the path's resource y1
    pair = _war_terms(_lanes([*points, *points]), np.concatenate([m, m]))
    efficient = np.arange(2 * n) < n
    gross_d = np.where(efficient, pair.free[1], pair.bar[1])
    y1 = np.where(efficient, 1.0, pair.h0)
    feasibility = _bisect_up_sets(
        lambda c: pair.cutoff1(gross_d, c) - y1 <= 0.0, 2 * n,
        slope=1.0 - pair.delta)
    cbar, clow = feasibility[:n], feasibility[n:]

    # the eliminate-then-war gain at a fixed feasible c_D; the proposer's
    # equilibrium value does not move with c_R = s - cd_star
    clow_value = np.array([b.value for b, _ in clow])
    cd_star = np.where(np.isfinite(clow_value), clow_value + 1.0, lanes.c_D)
    w = _war_terms(lanes, m)
    v_eq_r = w.v_eq_r(w.h0, w.cutoff1(w.bar[1], cd_star), cd_star)
    joint = _bisect_up_sets(
        lambda s: (w.free[0] - (s - cd_star)) - v_eq_r <= 0.0, n, slope=1.0)

    results = []
    for mean, *per_point in zip(m, cbar, clow, joint):
        brackets, notes = zip(*per_point)
        anomalies = tuple(f"{name}: {note}" for name, note
                          in zip(("cbar_D", "clow_D", "Clow"), notes) if note)
        if math.isnan(mean):
            # the clow_D and Clow lanes found no passing point at a nan
            # mean; name the cause first
            anomalies = (_UNCONVERGED_MEAN, *anomalies)
        results.append(OracleThresholds(*brackets, search_tol=SEARCH_TOL,
                                        anomalies=anomalies))
    return results


def oracle_thresholds(params: ModelParams) -> OracleThresholds:
    """Re-derive the three thresholds at one point: a batch of one."""
    return oracle_thresholds_batch([params])[0]


AGREEMENT_CSV_HEADER = (
    "delta,p,p1,mu,h0,rho,theta,"
    "cbar_D_closed,cbar_D_oracle,clow_D_closed,clow_D_oracle,"
    "Clow_closed,Clow_oracle,max_abs_diff,anomalies")


def agreement_rows(n_points: int, seed: Optional[int] = None) -> list[str]:
    """Summary rows comparing bisected thresholds against the closed forms
    at random valid parameter points; pairs with AGREEMENT_CSV_HEADER.
    All points are sampled first and bisected as one batch."""
    # local import: the closed forms stay out of the verification machinery
    from .thresholds import compute_thresholds

    rng = np.random.default_rng(seed)
    points = [sample_valid_params(rng) for _ in range(n_points)]
    rows = []
    for params, result in zip(points, oracle_thresholds_batch(points)):
        ts = compute_thresholds(params)
        diff = max(abs(result.cbar_D.value - ts.cbar_D),
                   abs(result.clow_D.value - ts.clow_D),
                   abs(result.Clow.value - ts.Clow))
        values = [params.delta, params.p, params.p1, params.mu, params.h0,
                  params.rho, params.theta,
                  ts.cbar_D, result.cbar_D.value,
                  ts.clow_D, result.clow_D.value,
                  ts.Clow, result.Clow.value, diff]
        rows.append(",".join(format(v, ".12g") for v in values)
                    + f",{len(result.anomalies)}")
    return rows
