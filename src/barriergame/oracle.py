"""Independent verification of the built-in profiles and brute-force
re-derivation of the thresholds.

Nothing here reads the closed-form threshold formulas: war values come from
the engine's lottery primitives, the postwar market mean comes from a
fixed-point iteration, and continuation values come from the stationary
indifference structure (the responder is held at its war value once the
power shift has passed and the barrier is gone).

The certification verdict checks each profile against the deviation set
that supports it: period-1 offer feasibility, the proposer's best accepted
offer and its war deviation at the prescribed barrier state (the one price
of the war any rejected offer provokes), the eliminate-then-fight deviation
for the barrier-keeping profile, the responder's acceptance rule, and the
stationary phase via the one-shot deviation principle.  Cross-elimination
deviations are reported as diagnostics (see the `diagnostics` field):
`keep_trigger` prices keeping the barrier against the profile's war
trigger, and only the `*_best_response` keys answer the deviation with a
responder that accepts its cutoff.

The thresholds are re-derived by bisection of period-1 gains: the
feasibility gain for `cbar_D` (efficient path) and `clow_D`
(barrier-keeping path), then the eliminate-then-war gain for `Clow` at a
feasible `c_D`.  Everything that does not move with the bisected cost --
the gross war lotteries with the barrier gone and standing, the stationary
flows, the profile's period-1 path, and for `Clow` the proposer's
equilibrium value -- is computed once, from the same cost-free terms
`verify_period1` reads, so a predicate call is a few operations on the
cost, with no `ModelParams` built and no engine call.

The path follows what the caller passes.  One point (`oracle_thresholds`)
is bisected alone on plain floats by `_bisect_up`.  A batch
(`oracle_thresholds_batch`) becomes numpy lanes, one per bisection, and
`_bisect_up_sets` steps them in lockstep, one array predicate over all
lanes per step.  Each lane takes exactly the steps `_bisect_up` takes on
that lane's predicate, and the tests hold every lane to it, so a point's
brackets do not depend on the path or on the batch it is in.
"""
from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import engine
from .engine import ProfileMode
from .params import (InvalidParamsError, ModelParams, lanes, require_valid,
                     sample_valid_points)


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


class VerificationReport(NamedTuple):
    mode: ProfileMode
    passed: bool
    feasible: bool
    max_gain_r: float
    max_gain_d: float
    best_deviation: str
    tol: float
    gains: dict
    diagnostics: dict


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


def verify_period1(params: ModelParams, mode: ProfileMode,
                   tol: float = 1e-9) -> VerificationReport:
    """Deviation-check one built-in profile at period 1; the stationary phase
    is certified by exact one-shot checks.

    Refuses (GameError) an elimination mode the profile is not played under.
    Works on raw cost values without consulting parameter validation, but
    refuses a point whose war values, continuations or gains are not finite
    (InvalidParamsError naming them): costs near the float maximum overflow
    the gains, and a verdict read off them would mean nothing.  A point
    whose postwar mean does not converge is refused the same way.
    """
    if mode is ProfileMode.CUSTOM:
        raise ValueError("only built-in profiles can be certified")
    engine.require_elimination_mode(mode, params)
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
    # a period-1 path, barrier gone or kept: (resource, cutoff offer,
    # proposer's war value, responder's war value).  The profile plays its
    # own; a cross-elimination deviation reaches the other.
    free = (1.0, w.cutoff1(w.free[1], q.c_D), war_r_free, war_d_free)
    bar = (q.h0, w.cutoff1(w.bar[1], q.c_D), war_r_bar, war_d_bar)
    path, crossing = (free, bar) if efficient else (bar, free)
    y1, cutoff1, war_r_onpath, war_d_onpath = path
    v_eq_r = w.v_eq_r(y1, cutoff1, q.c_D)
    feasibility = cutoff1 - y1
    feasible = feasibility <= tol

    gains: dict[str, float] = {}
    diagnostics: dict[str, float] = {}

    gains["feasibility"] = feasibility
    # responder's one-shot check at the indifference offer (zero up to
    # rounding by construction)
    gains["responder_period1"] = war_d_onpath - (cutoff1 + delta * v_d2)
    # responder's stationary one-shot check, against the gross war
    # lotteries once the barrier is gone and power has shifted
    x_stat = v_d2 - delta * v_d2
    stat_r, stat_d = engine.war_lottery(q, 2, False, 1.0, m)
    gains["responder_stationary"] = (stat_d - q.c_D) - (x_stat + delta * v_d2)

    # proposer's offer deviations at the prescribed elimination state.  An
    # accepted offer x is worth (y1 - x) plus a continuation that does not
    # move with x, so its value falls one for one with x (in floats too:
    # each operation rounds monotonically).  The best accepted offer is thus
    # the least one the responder accepts, when it fits in [0, y1]; -inf
    # when none does.  A rejected offer provokes the war war_period1 prices.
    least = max(cutoff1, 0.0)
    accepted = least <= y1
    gains["offer_scan"] = ((y1 - least) + delta * v_r2 - v_eq_r if accepted
                           else -math.inf)

    # proposer's war deviation at the prescribed barrier state
    gains["war_period1"] = war_r_onpath - v_eq_r
    # proposer's stationary one-shot check
    gains["proposer_stationary"] = (stat_r - q.c_R) - v_r2

    # crossing to the other path (retaining the barrier, or eliminating it
    # first), answered by the profile's war trigger or by a responder that
    # accepts its cutoff
    y_x, cutoff_x, war_r_x, _ = crossing
    trigger = war_r_x - v_eq_r
    best = war_r_x
    if cutoff_x <= y_x:
        best = max(best, (y_x - cutoff_x) + delta * v_r2)
    if efficient:
        diagnostics["keep_trigger"] = trigger
    else:
        gains["eliminate_then_war"] = trigger   # the joint-cost condition
    best_key = "keep_best_response" if efficient else "eliminate_best_response"
    diagnostics[best_key] = best - v_eq_r

    terms = {"war_r_free": war_r_free, "war_d_free": war_d_free,
             "war_r_bar": war_r_bar, "war_d_bar": war_d_bar,
             "v_d2": v_d2, "v_r2": v_r2, **gains, **diagnostics}
    if not accepted:
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


class Bracket(NamedTuple):
    value: float
    lo: float
    hi: float


class OracleThresholds(NamedTuple):
    cbar_D: Bracket
    clow_D: Bracket
    Clow: Bracket
    search_tol: float
    anomalies: tuple[str, ...] = ()


def _finish(lo: float, hi: float, has_hi: bool, has_lo: bool, value: float,
            odd: bool) -> tuple[Bracket, Optional[str]]:
    """A bisection's bracket and anomaly note (or None) from its end state:
    its ends, whether a passing (hi) and a failing (lo) end were found, the
    midpoint value, and whether the monotonicity probe read the wrong way.
    Without both ends the bracket has no value."""
    if not has_hi:
        return Bracket(math.nan, lo, hi), f"no passing point up to {hi}"
    if not has_lo:
        return Bracket(math.nan, lo, hi), f"no failing point down to {lo}"
    note = (f"predicate not monotone around {value}; the existence "
            f"condition may not be an interval") if odd else None
    return Bracket(value, lo, hi), note


def _bisect_up(predicate: Callable[[float], bool],
               slope: float = 1.0) -> tuple[Bracket, Optional[str]]:
    """Locate the boundary of a pass region of the form [threshold, inf),
    on plain floats.

    hi doubles from 1 until the predicate passes, then lo doubles from -1
    until it fails (MAX_EXPAND tries each); the bracket is halved while it
    is wider than SEARCH_TOL and its midpoint lies strictly inside.  The
    value is then probed on each side, max(1e-6, 100*SEARCH_TOL,
    4*ulp(|value|)/slope) away, where slope is the rate at which the tested
    quantity moves with the point: a predicate that reads the wrong way
    there is not monotone.  Returns the bracket and an anomaly note or None.
    """
    hi = 1.0
    for _ in range(MAX_EXPAND):
        if predicate(hi):
            break
        hi *= 2.0
    else:
        return _finish(-1.0, hi, False, False, math.nan, False)
    lo = -1.0
    for _ in range(MAX_EXPAND):
        if not predicate(lo):
            break
        lo *= 2.0
    else:
        return _finish(lo, hi, True, False, math.nan, False)
    while True:
        mid = 0.5 * (lo + hi)
        if not (hi - lo > SEARCH_TOL and mid != lo and mid != hi):
            break
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    value = 0.5 * (lo + hi)
    probe = max(SEARCH_TOL * 100.0, 1e-6, 4.0 * math.ulp(abs(value)) / slope)
    odd = predicate(value - probe) or not predicate(value + probe)
    return _finish(lo, hi, True, True, value, odd)


def _bisect_up_sets(predicate: Callable[[np.ndarray], np.ndarray],
                    n: int, slope=1.0) -> list[tuple[Bracket, Optional[str]]]:
    """Locate, in lockstep, the boundaries of n pass regions of the form
    [threshold, inf).

    predicate maps an array of n points to n booleans, lane by lane, and
    must not depend on the other lanes.  Each lane takes exactly the steps
    of _bisect_up on its own predicate; a lane that has stopped keeps its
    state while the others finish.  Returns one (bracket, anomaly note or
    None) per lane.

    slope (a float, or one per lane) is the rate at which the tested
    quantity moves with the bisected point; it widens the monotonicity
    probe past the band where rounding alone can flip the predicate.
    """
    import numpy as np
    lo = np.full(n, -1.0)
    hi = np.full(n, 1.0)
    has_hi = np.zeros(n, dtype=bool)
    for _ in range(MAX_EXPAND):
        has_hi |= predicate(hi)
        if has_hi.all():
            break
        hi = np.where(has_hi, hi, hi * 2.0)
    has_lo = np.zeros(n, dtype=bool)
    for _ in range(MAX_EXPAND):
        has_lo |= has_hi & ~predicate(lo)
        settled = has_lo | ~has_hi
        if settled.all():
            break
        lo = np.where(settled, lo, lo * 2.0)
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
    return [_finish(*end) for end in zip(
        *(a.tolist() for a in (lo, hi, has_hi, has_lo, value, odd)))]


def _thresholds_from(mean: float, cbar, clow, joint) -> OracleThresholds:
    """One point's record from its three (bracket, note) pairs."""
    brackets, notes = zip(cbar, clow, joint)
    anomalies = tuple(f"{name}: {note}" for name, note
                      in zip(("cbar_D", "clow_D", "Clow"), notes) if note)
    if math.isnan(mean):
        # the clow_D and Clow bisections found no passing point at a nan
        # mean; name the cause first
        anomalies = (_UNCONVERGED_MEAN, *anomalies)
    return OracleThresholds(*brackets, SEARCH_TOL, anomalies)


def oracle_thresholds(params: ModelParams) -> OracleThresholds:
    """Re-derive the three thresholds at one point by bisection of period-1
    gains on plain floats, to SEARCH_TOL.

    The two cost-of-war thresholds come from the feasibility flip of the
    period-1 offer: the offer that holds the responder at its war value
    fits the path's resource (1 on the efficient path, h0 with the barrier
    kept).  The joint threshold comes from the eliminate-then-fight
    deviation flip at a fixed feasible c_D, clow_D + 1.  Raises
    InvalidParamsError on an invalid point; an unconverged postwar mean is
    reported as an anomaly.  oracle_thresholds_batch gives the same record
    for the point bit for bit.
    """
    require_valid(params)
    m = postwar_market_mean(params)
    w = _war_terms(params, m)
    slope = 1.0 - w.delta
    cbar = _bisect_up(lambda c: w.cutoff1(w.free[1], c) - 1.0 <= 0.0, slope)
    clow = _bisect_up(lambda c: w.cutoff1(w.bar[1], c) - w.h0 <= 0.0, slope)
    # the proposer's equilibrium value does not move with c_R = s - cd_star
    clow_value = clow[0].value
    cd_star = clow_value + 1.0 if math.isfinite(clow_value) else params.c_D
    v_eq_r = w.v_eq_r(w.h0, w.cutoff1(w.bar[1], cd_star), cd_star)
    joint = _bisect_up(lambda s: (w.free[0] - (s - cd_star)) - v_eq_r <= 0.0)
    return _thresholds_from(m, cbar, clow, joint)


def oracle_thresholds_batch(points: Sequence[ModelParams]) -> list[OracleThresholds]:
    """Re-derive the three thresholds at every point, as oracle_thresholds
    does, by lockstep bisection of array lanes; one OracleThresholds per
    point, each equal to oracle_thresholds at that point.  Raises
    InvalidParamsError if any point is invalid.
    """
    import numpy as np
    for q in points:
        require_valid(q)
    n = len(points)
    batch = lanes(points)
    m = np.array([postwar_market_mean(q) for q in points], dtype=float)
    w = _war_terms(batch, m)

    # lanes [0, n) bisect cbar_D on the efficient path, lanes [n, 2n)
    # clow_D on the barrier-keeping path
    pair = w._replace(delta=np.tile(w.delta, 2), d_flow=np.tile(w.d_flow, 2))
    gross_d = np.concatenate([w.free[1], w.bar[1]])
    y1 = np.concatenate([np.ones(n), w.h0])
    feasibility = _bisect_up_sets(
        lambda c: pair.cutoff1(gross_d, c) - y1 <= 0.0, 2 * n,
        slope=1.0 - pair.delta)
    cbar, clow = feasibility[:n], feasibility[n:]

    clow_value = np.array([b.value for b, _ in clow])
    cd_star = np.where(np.isfinite(clow_value), clow_value + 1.0, batch.c_D)
    v_eq_r = w.v_eq_r(w.h0, w.cutoff1(w.bar[1], cd_star), cd_star)
    joint = _bisect_up_sets(
        lambda s: (w.free[0] - (s - cd_star)) - v_eq_r <= 0.0, n, slope=1.0)
    return [_thresholds_from(*per_point)
            for per_point in zip(m, cbar, clow, joint)]


AGREEMENT_CSV_HEADER = (
    "delta,p,p1,mu,h0,rho,theta,"
    "cbar_D_closed,cbar_D_oracle,clow_D_closed,clow_D_oracle,"
    "Clow_closed,Clow_oracle,max_abs_diff,anomalies")
_AGREEMENT_ROW = "%.12g," * 14 + "%d"


def agreement_rows(n_points: int, seed: Optional[int] = None) -> list[str]:
    """Summary rows comparing bisected thresholds against the closed forms
    at random valid parameter points; pairs with AGREEMENT_CSV_HEADER.
    All points come from one block of draws and are bisected as one batch."""
    # local import: the closed forms stay out of the verification machinery
    import numpy as np
    from .thresholds import compute_thresholds

    points = sample_valid_points(np.random.default_rng(seed), n_points)
    rows = []
    for params, result in zip(points, oracle_thresholds_batch(points)):
        ts = compute_thresholds(params)
        diffs = (abs(result.cbar_D.value - ts.cbar_D),
                 abs(result.clow_D.value - ts.clow_D),
                 abs(result.Clow.value - ts.Clow))
        # nan when any bracket has no value: max alone drops a later nan
        diff = math.nan if any(map(math.isnan, diffs)) else max(diffs)
        rows.append(_AGREEMENT_ROW % (
            params.delta, params.p, params.p1, params.mu, params.h0,
            params.rho, params.theta,
            ts.cbar_D, result.cbar_D.value,
            ts.clow_D, result.clow_D.value,
            ts.Clow, result.Clow.value, diff, len(result.anomalies)))
    return rows
