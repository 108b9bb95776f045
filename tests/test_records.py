"""The one statement of the value-record contract.  Every public named
tuple of ``barriergame`` has a row in ``RECORDS``, and each row holds its
record to the frozen dataclass it replaces: the same fields, order,
defaults and ``repr``, built by keyword and immutable, equal to the plain
tuple of its values, and written as JSON by its fields then its
properties."""
import copy
import dataclasses
import importlib
import pkgutil

import pytest

import barriergame
from barriergame.classifier import (
    EquilibriumReport,
    IntersectionResult,
    Margins,
    RegionGrid,
    classify,
    intersection_nonempty,
    region_grid,
)
from barriergame.cli import _plain
from barriergame.engine import (
    ActionRecord,
    GameError,
    GameState,
    ProfileExistenceError,
    ProfileMode,
    Response,
    SimStats,
    StrategyProfile,
    simulate,
)
from barriergame.oracle import (Bracket, OracleThresholds, VerificationReport,
                                oracle_thresholds, verify_period1)
from barriergame.params import (BarrierDistribution, EliminationMode,
                                InvalidParamsError, ModelParams)
from barriergame.presets import Preset, get_preset
from barriergame.thresholds import ThresholdSet
from conftest import make


def _twin(name, *fields, **defaults):
    """A frozen dataclass with these fields, then these defaulted ones."""
    return dataclasses.make_dataclass(name, [*fields, *(
        (key, object, dataclasses.field(default=value))
        for key, value in defaults.items())], frozen=True)


def _demo_stats():
    q = make()
    return simulate(StrategyProfile(ProfileMode.INEFFICIENT_PEACE, q), q,
                    BarrierDistribution.degenerate(q.mu), horizon=3, n_runs=2)


_REPORT = classify(make(c_R=1.0, c_D=25.0))
_ORACLE = oracle_thresholds(make())

# record -> (a built instance, the frozen dataclass it replaces, the
# properties its class defines, which its JSON object holds after its fields)
RECORDS = {
    ModelParams: (
        make(rho=0.25, theta=1.1),
        _twin("ModelParams", "delta", "p", "p1", "mu", "h0", "c_R", "c_D",
              rho=0.0, theta=1.0,
              elimination_mode=EliminationMode.UNILATERAL), ()),
    BarrierDistribution: (
        BarrierDistribution.uniform(0.2, 0.6),
        _twin("BarrierDistribution", "kind", a=0.0, b=0.0), ("mean",)),
    Preset: (
        get_preset("demo-b"),
        _twin("Preset", "name", "params", "annotation"), ()),
    ThresholdSet: (
        _REPORT.thresholds,
        _twin("ThresholdSet", "cbar_D", "clow_D", "Clow", "postwar_mean",
              "theta_floor", "offer1_efficient", "offer1_inefficient",
              "offer_stationary", "extension"), ()),
    Margins: (_REPORT.margins,
              _twin("Margins", "efficient", "cd", "joint"), ()),
    EquilibriumReport: (
        _REPORT, _twin("EquilibriumReport", "margins", "thresholds"),
        ("efficient_peace_exists", "inefficient_peace_exists",
         "war_inevitable", "assumption_holds", "label")),
    RegionGrid: (
        region_grid(make(), (-1.0, 10.0), (0.0, 40.0), 2),
        _twin("RegionGrid", "base", "cr_values", "cd_values", "cr_range",
              "cd_range", "thresholds"), ()),
    IntersectionResult: (
        intersection_nonempty(make()),
        _twin("IntersectionResult", "cd_lo", "cd_hi", "Clow"), ("found",)),
    GameState: (
        GameState(t=2, barrier_present=False, y=1.0, war_occurred=True,
                  winner="D"),
        _twin("GameState", "t", "barrier_present", "y", war_occurred=False,
              winner=None), ()),
    ActionRecord: (
        ActionRecord(elim_r=True, offer=0.5, response=Response.REJECT,
                     elim_d=False),
        _twin("ActionRecord", "elim_r", "offer", "response", elim_d=None),
        ()),
    SimStats: (
        _demo_stats(),
        _twin("SimStats", "n_runs", "horizon", "payoff_r_mean",
              "payoff_r_se", "payoff_d_mean", "payoff_d_se", "war_frequency",
              "elimination_periods", "tail_bound"), ()),
    # its dataclass's two dict factories are gone: its one constructor
    # passes both dicts
    VerificationReport: (
        verify_period1(make(), ProfileMode.INEFFICIENT_PEACE),
        _twin("VerificationReport", "mode", "passed", "feasible",
              "max_gain_r", "max_gain_d", "best_deviation", "tol", "gains",
              "diagnostics"), ()),
    Bracket: (_ORACLE.Clow, _twin("Bracket", "value", "lo", "hi"), ()),
    OracleThresholds: (
        _ORACLE,
        _twin("OracleThresholds", "cbar_D", "clow_D", "Clow", anomalies=()),
        ()),
    StrategyProfile: (
        StrategyProfile(ProfileMode.INEFFICIENT_PEACE, make()),
        _twin("StrategyProfile", "mode", "params", custom_eliminate=None,
              custom_eliminate_d=None, custom_offer=None, custom_accept=None),
        ("elim_period",)),
}
IDS = [cls.__name__ for cls in RECORDS]


def test_every_public_record_is_in_the_table():
    # a named tuple class of a module, public, and defined there
    found = set()
    for module in pkgutil.iter_modules(barriergame.__path__):
        namespace = vars(importlib.import_module(f"barriergame.{module.name}"))
        found.update(
            value for name, value in namespace.items()
            if not name.startswith("_") and isinstance(value, type)
            and issubclass(value, tuple) and hasattr(value, "_fields")
            and value.__module__ == namespace["__name__"])
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_and_defaults_are_the_dataclass_ones(self, cls):
        _, old, _ = RECORDS[cls]
        old_fields = dataclasses.fields(old)
        assert cls._fields == tuple(f.name for f in old_fields)
        assert cls._field_defaults == {
            f.name: f.default for f in old_fields
            if f.default is not dataclasses.MISSING}

    def test_keyword_construction(self, cls):
        record, _, properties = RECORDS[cls]
        built = cls(**dict(zip(cls._fields, record)))
        assert built == record and built is not record
        for name, value in zip(cls._fields, record):
            assert getattr(built, name) is value
        for name in properties:
            assert getattr(built, name) == getattr(record, name)
        # the fields left out take their defaults
        required = len(cls._fields) - len(cls._field_defaults)
        short = cls(**dict(zip(cls._fields[:required], record)))
        assert short[required:] == tuple(cls._field_defaults.values())

    def test_fields_cannot_be_assigned(self, cls):
        record, _, properties = RECORDS[cls]
        for name in (*cls._fields, *properties, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)

    def test_repr_is_the_dataclass_repr(self, cls):
        record, old, _ = RECORDS[cls]
        assert repr(record) == repr(old(*record))

    def test_equal_to_the_plain_tuple(self, cls):
        # a named tuple compares and hashes as the tuple of its values
        record, _, _ = RECORDS[cls]
        assert record == tuple(record) and tuple(record) == record
        try:
            expected = hash(tuple(record))
        except TypeError:   # SimStats and VerificationReport hold dicts
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_json_keys_are_fields_then_properties(self, cls):
        record, _, properties = RECORDS[cls]
        assert tuple(_plain(record)) == cls._fields + properties


def _offer(t, y, b):
    return 0.0


def _accept(t, y, b, o):
    return True


class TestStrategyProfileChecks:
    """A profile checks itself however it is built: by its constructor, by
    ``_replace``, by ``_make`` and by ``copy.copy``."""

    CUSTOM = StrategyProfile(ProfileMode.CUSTOM, make(), custom_offer=_offer,
                             custom_accept=_accept)
    BUILTIN = StrategyProfile(ProfileMode.EFFICIENT_PEACE, make(c_D=35.0))
    # (error, text, an unchecked record of the fields, the same fields as
    # a _replace of a checked profile)
    REFUSED = {
        "below-threshold": (
            ProfileExistenceError, "below cbar_D",
            (ProfileMode.EFFICIENT_PEACE, make(c_D=25.0)) + 4 * (None,),
            (BUILTIN, {"params": make(c_D=25.0)})),
        "no-accept-callback": (
            GameError, "lacks an accept callback",
            (ProfileMode.CUSTOM, make(), None, None, _offer, None),
            (CUSTOM, {"custom_accept": None})),
        # a custom profile's params are checked as a built-in one's are
        "invalid-custom-params": (
            InvalidParamsError, "0 < delta < 1 required",
            (ProfileMode.CUSTOM, make(delta=2.0, c_D=-5.0), None, None,
             _offer, _accept),
            (CUSTOM, {"params": make(delta=2.0, c_D=-5.0)})),
    }
    BUILDS = {
        "constructor": lambda fields, replace: StrategyProfile(*fields),
        "_replace": lambda fields, replace: replace[0]._replace(**replace[1]),
        "_make": lambda fields, replace: StrategyProfile._make(fields),
        "copy": lambda fields, replace: copy.copy(
            tuple.__new__(StrategyProfile, fields)),
    }

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("case", REFUSED)
    def test_every_build_checks(self, case, build):
        error, text, fields, replace = self.REFUSED[case]
        with pytest.raises(error, match=text):
            self.BUILDS[build](fields, replace)

    @pytest.mark.parametrize("build", BUILDS)
    def test_every_build_keeps_a_valid_profile(self, build):
        for profile in (self.CUSTOM, self.BUILTIN):
            got = self.BUILDS[build](tuple(profile), (profile, {}))
            assert type(got) is StrategyProfile and got == profile

    def test_thresholds_cached_and_not_assignable(self):
        profile = StrategyProfile(ProfileMode.INEFFICIENT_PEACE, make())
        assert profile.thresholds is profile.thresholds
        # a copy keeps the record its original computed
        assert copy.copy(profile).thresholds is profile.thresholds
        with pytest.raises(AttributeError):
            profile.thresholds = None

    @pytest.mark.parametrize("method, args", [
        ("offer", (1, 0.6, True)), ("accepts", (1, 0.6, True, 0.0))])
    def test_custom_profile_prescribes_via_callbacks(self, method, args):
        # simulate calls a custom profile's callbacks directly; these
        # methods serve built-in profiles only
        with pytest.raises(GameError, match="prescribe via callbacks"):
            getattr(self.CUSTOM, method)(*args)
