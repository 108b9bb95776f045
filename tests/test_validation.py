"""One validation path and one existence predicate across every entry point."""
import ast
from pathlib import Path

import numpy as np
import pytest

import barriergame
from barriergame.classifier import classify, intersection_nonempty
from barriergame.engine import (
    ProfileExistenceError,
    ProfileMode,
    StrategyProfile,
    analytic_payoffs,
    simulate,
)
from barriergame.params import (
    BarrierDistribution,
    EliminationMode,
    InvalidParamsError,
    ModelParams,
    sample_valid_params,
    validate,
)
from barriergame.thresholds import compute_thresholds

DEMO = ModelParams(delta=0.9, p=0.3, p1=0.7, mu=0.8, h0=0.6, c_R=1.0, c_D=25.0)


def custom_peace(params):
    return StrategyProfile(
        mode=ProfileMode.CUSTOM, params=params,
        custom_eliminate=lambda t, y, b: t >= 2,
        custom_offer=lambda t, y, b: 0.0,
        custom_accept=lambda t, y, b, o: True)


def simulate_at(q):
    return simulate(custom_peace(q), q, BarrierDistribution.degenerate(0.8),
                    horizon=5, n_runs=2, seed=0)


ENTRY_POINTS = {
    "StrategyProfile": lambda q: StrategyProfile(
        ProfileMode.INEFFICIENT_PEACE, q),
    "simulate": simulate_at,
    "analytic_payoffs": lambda q: analytic_payoffs(
        q, ProfileMode.INEFFICIENT_PEACE),
    "classify": classify,
    "intersection_nonempty": intersection_nonempty,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_invalid_params_one_error(name):
    q = DEMO.with_overrides(p1=0.1, c_D=-1.0)
    with pytest.raises(InvalidParamsError) as err:
        ENTRY_POINTS[name](q)
    assert err.value.violations == validate(q)
    assert len(err.value.violations) == 2


@pytest.mark.parametrize("mode", [ProfileMode.EFFICIENT_PEACE,
                                  ProfileMode.INEFFICIENT_PEACE])
def test_overflowing_margins_refused_like_classify(mode):
    # every input finite, but c_D + c_R overflows the joint margin
    q = DEMO.with_overrides(c_R=1.7e308, c_D=1.7e308)
    with pytest.raises(InvalidParamsError) as want:
        classify(q)
    for refuse in (lambda: StrategyProfile(mode, q),
                   lambda: analytic_payoffs(q, mode)):
        with pytest.raises(InvalidParamsError) as got:
            refuse()
        assert got.value.violations == want.value.violations
    with pytest.raises(InvalidParamsError) as got:
        # a built-in profile is refused where it is built, before simulate
        # sees it
        simulate(StrategyProfile(mode=mode, params=q), q,
                 BarrierDistribution.degenerate(q.mu), horizon=5, n_runs=1)
    assert got.value.violations == want.value.violations


def test_invalid_params_error_defined_once():
    from barriergame import classifier, params
    assert (barriergame.InvalidParamsError is classifier.InvalidParamsError
            is params.InvalidParamsError)
    assert issubclass(InvalidParamsError, ValueError)


def builds(q, mode):
    try:
        StrategyProfile(mode, q)
    except ProfileExistenceError:
        return False
    return True


def boundary_points():
    """Points sitting exactly on the weak inequalities c_D = cbar_D and
    c_D = clow_D, where both predicates must take the existence side."""
    rng = np.random.default_rng(17)
    base = [DEMO] + [sample_valid_params(rng) for _ in range(60)]
    out = []
    for q in base:
        ts = compute_thresholds(q)
        for name, value in (("efficient", ts.cbar_D), ("cd", ts.clow_D)):
            point = q.with_overrides(c_D=value, c_R=abs(ts.Clow) + 1.0)
            if not validate(point):
                out.append((name, point))
    return out


def test_existence_agreement():
    rng = np.random.default_rng(7)
    points = [sample_valid_params(rng) for _ in range(500)]
    boundary = boundary_points()
    # both boundaries are really hit, with margin exactly zero
    for name in ("efficient", "cd"):
        hits = [q for n, q in boundary if n == name]
        assert len(hits) >= 10
        for q in hits:
            assert getattr(classify(q).margins, name) == 0.0
    seen = {True: 0, False: 0}
    for q in points + [q for _, q in boundary]:
        rep = classify(q)
        assert builds(q, ProfileMode.EFFICIENT_PEACE) == rep.efficient_peace_exists
        assert (builds(q, ProfileMode.INEFFICIENT_PEACE)
                == rep.inefficient_peace_exists)
        coop = q.with_overrides(elimination_mode=EliminationMode.COOPERATIVE)
        assert (builds(coop, ProfileMode.COOPERATIVE_INEFFICIENT)
                == classify(coop).inefficient_peace_exists)
        seen[rep.efficient_peace_exists] += 1
        seen[rep.inefficient_peace_exists] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_validate_called_only_in_params():
    """``validate(...)`` becomes an exception in ``params.require_valid``
    only; every other module calls ``require_valid``."""
    package = Path(barriergame.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "params.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name == "validate":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_imports_used_and_no_dataclasses():
    """Every name a module imports is used in it, and no module imports
    ``dataclasses``: every record is a named tuple."""
    package = Path(barriergame.__file__).parent
    unused, dataclass_importers = [], []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                imported.update((alias.asname or alias.name.split(".")[0],
                                 node.lineno) for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                modules = [node.module]
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
            else:
                continue
            if "dataclasses" in modules:
                dataclass_importers.append(f"{path.name}:{node.lineno}")
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
    assert dataclass_importers == []


def test_to_dict_only_on_model_params():
    """The CLI's one encoder writes every record's JSON, so no module
    defines a ``to_dict`` of its own; ``ModelParams`` keeps one because the
    benchmark harness calls it."""
    package = Path(barriergame.__file__).parent
    owners = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            owners += [f"{path.name}:{getattr(node, 'name', '<module>')}"
                       for child in ast.iter_child_nodes(node)
                       if isinstance(child, ast.FunctionDef)
                       and child.name == "to_dict"]
    assert owners == ["params.py:ModelParams"]


def test_no_module_calls_to_dict():
    """``ModelParams.to_dict`` is kept for the benchmark harness alone: the
    CLI layers a preset from ``_asdict()``, which ``from_dict`` reads with
    its enum."""
    package = Path(barriergame.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        callers += [f"{path.name}:{node.lineno}"
                    for node in ast.walk(ast.parse(path.read_text(), str(path)))
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "to_dict"]
    assert callers == []
