"""Solver, simulator, and verifier for a two-player infinite-horizon
crisis-bargaining game with a removable trade barrier."""

from .params import (
    BarrierDistribution,
    EliminationMode,
    InvalidParamsError,
    ModelParams,
    require_valid,
    validate,
)
from .thresholds import (
    ThresholdSet,
    compute_thresholds,
    effective_mu,
    theta_floor,
)
from .classifier import (
    EquilibriumReport,
    Margins,
    RegionGrid,
    RegionLabel,
    classify,
    comparative_static,
    intersection_nonempty,
    region_grid,
)
from .engine import (
    ActionRecord,
    GameError,
    GameState,
    ProfileExistenceError,
    ProfileMode,
    Response,
    SimStats,
    StrategyProfile,
    analytic_payoffs,
    simulate,
    step,
)
from .oracle import (
    OracleThresholds,
    VerificationReport,
    oracle_thresholds,
    postwar_market_mean,
    verify_period1,
)
from .presets import Preset, get_preset, list_presets

__version__ = "0.1.0"
