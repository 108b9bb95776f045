"""The benchmark's workloads call the program through module aliases
(``import barriergame.<module> as bg_<module>``).  Every name they read
that way must exist, and every call must bind to its callee's signature
(each keyword a parameter, no surplus positional argument), and every
option of each command line they run must be one its subcommand declares,
so a rename or deletion in the program fails here rather than only when
the benchmark runs."""
import argparse
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from barriergame.cli import build_parser
from barriergame.presets import get_preset

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


def declared_options():
    """Each subcommand's option strings, as ``cli.build_parser`` declares
    them."""
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return {name: set(sp._option_string_actions)
            for name, sp in commands.items()}


def param_options():
    """The options ``workloads.param_argv`` writes: one per ``PARAM_FLAGS``
    entry, then ``--elimination-mode``."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argv = workloads.param_argv(get_preset("demo-b").params)
    return [arg.split("=", 1)[0] for arg in argv]


def cli_argvs(tree):
    """Each literal argv list that ``tree`` passes to ``ctx.cli``: given
    directly, or given to a function that hands its parameter on."""
    def calls(node, name):
        return [call.args for call in ast.walk(node)
                if isinstance(call, ast.Call) and dotted(call.func) == name]

    argvs = [args[0] for args in calls(tree, ["ctx", "cli"])]
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = [arg.arg for arg in func.args.args]
        for argv, *_ in calls(func, ["ctx", "cli"]):
            if isinstance(argv, ast.Name) and argv.id in params:
                i = params.index(argv.id)
                argvs += [args[i] for args in calls(tree, [func.name])]
    return [argv for argv in argvs if isinstance(argv, ast.List)]


def option_of(node, params):
    """The options an argv element passes: a "-" string or f-string up to
    its "=", each option of a starred ``param_argv`` call, or none for a
    value."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
        return [text.split("=", 1)[0]] if text.startswith("-") else []
    if isinstance(node, ast.Starred):
        if isinstance(node.value, ast.Call) and dotted(
                node.value.func) == ["param_argv"]:
            return params
        return [f"<unread {ast.unparse(node)}>"]
    return []


def check_cli_argvs(source, params):
    """(commands, problems): the subcommand of each argv ``source`` passes
    to ``ctx.cli``, and one line for each argv that names no subcommand
    and each option its subcommand does not declare."""
    declared = declared_options()
    commands, problems = [], set()
    for argv in cli_argvs(ast.parse(source)):
        first = argv.elts[0] if argv.elts else None
        command = first.value if isinstance(first, ast.Constant) else None
        if command not in declared:
            problems.add(f"no subcommand in {ast.unparse(argv)}")
            continue
        commands.append(command)
        for node in argv.elts[1:]:
            problems.update(f"{command}: no option {option}"
                            for option in option_of(node, params)
                            if option not in declared[command])
    return commands, sorted(problems)


def test_workloads_pass_declared_options():
    commands, problems = check_cli_argvs(WORKLOADS.read_text(),
                                         param_options())
    assert problems == []
    assert set(commands) == {"figure", "sweep", "classify", "verify",
                             "simulate"}


@pytest.mark.parametrize("source,problem", [
    ('ctx.cli(["simulate", *param_argv(q), "--runs", "10", '
     '"--dist", "uniform"])', "simulate: no option --dist"),
    ('ctx.cli(["simulate", "--preset", "demo-b", "--run", "10"])',
     "simulate: no option --run"),
    ('def go(argv):\n    ctx.cli(argv)\n'
     'go(["simulate", "--dist-width=0.2"])',
     "simulate: no option --dist-width"),
    ('ctx.cli(["simulat", "--runs", "10"])',
     "no subcommand in ['simulat', '--runs', '10']"),
    ('ctx.cli(["classify", *param_argv(q), "--elimination-mode=Unilateral",'
     ' "--c-d=-1"])', None),
])
def test_undeclared_option_is_caught(source, problem):
    _, problems = check_cli_argvs(source, param_options())
    assert problems == ([problem] if problem else [])
