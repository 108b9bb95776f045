"""The benchmark's workloads call the program through module aliases
(``import barriergame.<module> as bg_<module>``).  Every name they read
that way must exist, and every call must bind to its callee's signature
(each keyword a parameter, no surplus positional argument), so a rename or
deletion in the program fails here rather than only when the benchmark
runs."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def dotted(node):
    """['bg_engine', 'StrategyProfile'] for ``bg_engine.StrategyProfile``;
    None for anything but a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def check_references(source):
    """(checked, problems): how many names and calls ``source`` makes
    through its barriergame module aliases, and one line for each name that
    does not exist or call whose arguments its callee does not take."""
    tree = ast.parse(source)
    aliases = {alias.asname: importlib.import_module(alias.name)
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names
               if alias.name.startswith("barriergame.") and alias.asname}
    checked, problems = 0, set()

    def resolve(parts):
        obj = aliases[parts[0]]
        for i, attr in enumerate(parts[1:], 2):
            if not hasattr(obj, attr):
                problems.add(f"no {'.'.join(parts[:i])}")
                return None
            obj = getattr(obj, attr)
        return obj

    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node
        parts = dotted(target) if isinstance(target, ast.Attribute) else None
        if not parts or parts[0] not in aliases:
            continue
        checked += 1
        obj = resolve(parts)
        if obj is None or not isinstance(node, ast.Call) or any(
                isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        try:
            inspect.signature(obj).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as e:
            problems.add(f"{'.'.join(parts)}: {e}")
    return checked, sorted(problems)


def test_workloads_reference_existing_names_and_parameters():
    checked, problems = check_references(WORKLOADS.read_text())
    assert problems == []
    assert checked > 20


@pytest.mark.parametrize("call,problem", [
    ("bg_engine.equilibrium_profile(q, m)",
     "no bg_engine.equilibrium_profile"),
    ("bg_engine.simulate(p, q, d, horizon=1, n_runs=1, trace_runs=1)",
     "bg_engine.simulate: got an unexpected keyword argument 'trace_runs'"),
    ("bg_engine.analytic_payoffs(q, m, False)",
     "bg_engine.analytic_payoffs: too many positional arguments"),
])
def test_removed_name_is_caught(call, problem):
    source = f"import barriergame.engine as bg_engine\n{call}\n"
    assert check_references(source)[1] == [problem]


@pytest.mark.parametrize("name,first", [
    ("engine.simulate", "profile"),
    ("thresholds.compute_thresholds", "params"),
])
def test_observed_calls_keep_first_parameter(name, first):
    # the benchmark's tracer observers (perfbench/run.py) read the first
    # argument of these calls by position, or by keyword under this name
    module, func = name.split(".")
    callee = getattr(importlib.import_module(f"barriergame.{module}"), func)
    assert next(iter(inspect.signature(callee).parameters)) == first
    run_py = WORKLOADS.with_name("run.py").read_text()
    assert f'observers["{name}"]' in run_py and f'kw["{first}"]' in run_py
