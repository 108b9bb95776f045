"""The value records that were frozen dataclasses are named tuples with the
same fields, order, defaults and ``repr``: built by keyword and immutable.
``test_cli.py::test_json_keys_are_fields_and_properties`` holds their JSON
keys to their fields and properties."""
import copy
import dataclasses

import pytest

from barriergame.classifier import (
    IntersectionResult,
    RegionGrid,
    intersection_nonempty,
    region_grid,
)
from barriergame.engine import (
    GameError,
    ProfileExistenceError,
    ProfileMode,
    SimStats,
    StrategyProfile,
    simulate,
)
from barriergame.oracle import VerificationReport, verify_period1
from barriergame.params import (BarrierDistribution, EliminationMode,
                                InvalidParamsError, ModelParams)
from barriergame.presets import Preset, get_preset
from conftest import make


def _demo_stats():
    q = make()
    return simulate(StrategyProfile(ProfileMode.INEFFICIENT_PEACE, q), q,
                    BarrierDistribution.degenerate(q.mu), horizon=3, n_runs=2)


# record -> (a built instance, the frozen dataclass it replaces)
RECORDS = {
    ModelParams: (
        make(rho=0.25, theta=1.1),
        dataclasses.make_dataclass("ModelParams", [
            "delta", "p", "p1", "mu", "h0", "c_R", "c_D",
            ("rho", float, dataclasses.field(default=0.0)),
            ("theta", float, dataclasses.field(default=1.0)),
            ("elimination_mode", EliminationMode, dataclasses.field(
                default=EliminationMode.UNILATERAL))], frozen=True)),
    BarrierDistribution: (
        BarrierDistribution.uniform(0.2, 0.6),
        dataclasses.make_dataclass("BarrierDistribution", [
            "kind", ("a", float, dataclasses.field(default=0.0)),
            ("b", float, dataclasses.field(default=0.0))], frozen=True)),
    Preset: (
        get_preset("demo-b"),
        dataclasses.make_dataclass(
            "Preset", ["name", "params", "annotation"], frozen=True)),
    RegionGrid: (
        region_grid(make(), (-1.0, 10.0), (0.0, 40.0), 2),
        dataclasses.make_dataclass("RegionGrid", [
            "base", "cr_values", "cd_values", "cr_range", "cd_range",
            "thresholds"], frozen=True)),
    IntersectionResult: (
        intersection_nonempty(make()),
        dataclasses.make_dataclass(
            "IntersectionResult", ["cd_lo", "cd_hi", "Clow"], frozen=True)),
    VerificationReport: (
        verify_period1(make(), ProfileMode.INEFFICIENT_PEACE),
        dataclasses.make_dataclass("VerificationReport", [
            "mode", "passed", "feasible", "max_gain_r", "max_gain_d",
            "best_deviation", "tol",
            ("gains", dict, dataclasses.field(default_factory=dict)),
            ("diagnostics", dict, dataclasses.field(default_factory=dict))],
            frozen=True)),
    SimStats: (
        _demo_stats(),
        dataclasses.make_dataclass("SimStats", [
            "n_runs", "horizon", "payoff_r_mean", "payoff_r_se",
            "payoff_d_mean", "payoff_d_se", "war_frequency",
            "elimination_periods", "tail_bound"], frozen=True)),
    StrategyProfile: (
        StrategyProfile(ProfileMode.INEFFICIENT_PEACE, make()),
        dataclasses.make_dataclass("StrategyProfile", ["mode", "params"] + [
            (name, object, dataclasses.field(default=None)) for name in (
                "custom_eliminate", "custom_eliminate_d", "custom_offer",
                "custom_accept")], frozen=True)),
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_and_defaults_are_the_dataclass_ones(self, cls):
        _, old = RECORDS[cls]
        old_fields = dataclasses.fields(old)
        assert cls._fields == tuple(f.name for f in old_fields)
        # VerificationReport's default factories are dropped: its one
        # constructor passes both dicts
        assert cls._field_defaults == {
            f.name: f.default for f in old_fields
            if f.default is not dataclasses.MISSING}

    def test_keyword_construction(self, cls):
        record, _ = RECORDS[cls]
        built = cls(**dict(zip(cls._fields, record)))
        assert built == record and built is not record
        for name, value in zip(cls._fields, record):
            assert getattr(built, name) is value

    def test_fields_cannot_be_assigned(self, cls):
        record, _ = RECORDS[cls]
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[-1], 0.0)
        with pytest.raises(AttributeError):
            record.unknown = 0.0

    def test_repr_is_the_dataclass_repr(self, cls):
        record, old = RECORDS[cls]
        assert repr(record) == repr(old(*record))

    def test_equal_to_the_plain_tuple(self, cls):
        # a named tuple compares and hashes as the tuple of its values
        record, _ = RECORDS[cls]
        assert record == tuple(record) and tuple(record) == record
        if cls not in (SimStats, VerificationReport):   # these hold dicts
            assert hash(record) == hash(tuple(record))


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
