"""numpy is imported only where numbers are sampled or integrated, and each
CLI command loads only the package modules it runs.  No command loads
``dataclasses``, and ``json`` loads only where JSON is read or written.  ``verify`` samples its
classical residual, but a residual that is an exact constant needs no float
evaluation, and the Chebyshev nodes are plain floats, equal bit for bit to
numpy's; so ``verify`` of a candidate whose residual is proven 0, with
exact jumps at the ends, loads no numpy either.

Each check runs in a fresh interpreter, since the test process itself has
numpy and every module loaded long before."""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import distalg

SRC = str(Path(distalg.__file__).resolve().parents[1])

# argv, and the README's output where it gives one
EXACT_COMMANDS = [
    (["mul", "delta(x)", "H(x)"], "delta(x)\n"),
    (["fmt", "H(x)+(1+x)^2*H(x-1)", "--mode", "json"], None),
    (["diff", "H(x)", "-n", "2"], "delta[1](x)\n"),
    (["antideriv", "delta(x)+x*H(x-1)"], None),
    (["bracket", "delta(x)", "H(x)"], "delta(x)\n"),
    (["confine", "--ode", "1,0,0;0", "--interval", "0,1"], None),
    (["residual", "--ode", "1,1;0", "--interval", "0", "H(x)"], None),
    (["residual", "--ode", "1,0,0;0", "--interval", "0", "(3+2*x)*H(x)"],
     "0\n"),
    (["verify", "--ode", "1,1;0", "--interval", "0", "exp(-x)"],
     "verdict: Equal\nresidual: 0\nclassical_max: 0\n"),
    (["verify", "--ode", "1,0,0;0", "--interval=-2,-1", "3+2*x"],
     "verdict: Equal\nresidual: 0\nclassical_max: 0\n"),
]

CHILD = """
import contextlib, io, json, sys
import distalg
from distalg.cli import main
report = {"import": "numpy" in sys.modules, "runs": []}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report["runs"].append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(report))
"""


def run_child(code, *args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_commands_leave_numpy_unloaded():
    from test_parser_cli import run
    argvs = [argv for argv, _ in EXACT_COMMANDS]
    report = json.loads(run_child(CHILD, json.dumps(argvs)))
    assert report["import"] is False, "import distalg loaded numpy"
    for (argv, readme), (code, out, loaded) in zip(EXACT_COMMANDS,
                                                   report["runs"]):
        assert not loaded, f"{argv[0]} loaded numpy"
        assert (code, out) == run(*argv)[:2]
        assert code == 0
        if readme is not None:
            assert out == readme


def test_sampling_paths_still_work():
    out = run_child("""
import contextlib, io, sys
import distalg as d
from distalg.cli import main
for argv in (["verify", "--ode", "1,1;0", "--interval", "0", "exp(-x)"],
             ["oracle", "delta(x)", "H(x)", "--bump", "-1,1"]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    print(buf.getvalue().strip().replace("\\n", "|"))
e = d.parse_smooth_expr
print(d.expr_equal(e("exp(x)"), e("exp(x)+1/1000")),
      d.expr_equal(e("exp(x)^2"), e("exp(2*x)")))
""").splitlines()
    assert "verdict: Equal" in out[0] and "residual: 0" in out[0]
    assert abs(float(out[1]) - 0.367879441171) < 1e-6
    assert out[2] == "Unequal Unknown"


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("lo,hi", [(Fraction(0), None),
                                   (Fraction(-1, 3), Fraction(5, 2)),
                                   (Fraction(-2), Fraction(-1))],
                         ids=["half-line", "bounded", "negative"])
def test_chebyshev_nodes_equal_numpys_bit_for_bit(lo, hi, n):
    """The sample points, built with math.cos, are the floats that numpy's
    elementwise expression gives, so no sampled verdict moves."""
    import numpy as np
    from distalg.expr import _sample_points
    a = float(lo)
    b = a + 8.0 if hi is None else float(hi)
    ks = np.arange(n)
    ref = (a + b) / 2 + (b - a) / 2 * np.cos(np.pi * (2 * ks + 1) / (2 * n))
    got = _sample_points(lo, hi, n)
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [float(x).hex() for x in ref]


# argv of one call per command; the modules it must leave unloaded
COMMAND_MODULES = [
    (["mul", "delta(x)", "H(x)"], {"weak", "ode"}),
    (["fmt", "H(x)+H(x)"], {"weak", "ode"}),
    (["diff", "H(x)"], {"weak", "ode"}),
    (["antideriv", "delta(x)"], {"weak", "ode"}),
    (["bracket", "delta(x)", "H(x)"], {"weak", "ode"}),
    (["confine", "--ode", "1,0,0;0", "--interval", "0"], {"weak"}),
    (["residual", "--ode", "1,1;0", "--interval", "0", "H(x)"], {"weak"}),
    (["particular-rhs", "--ode", "1,0,0;0", "--at", "0", "--values", "3,2"],
     {"weak"}),
    (["verify", "--ode", "1,1;0", "--interval", "0", "exp(-x)"], {"weak"}),
    (["action", "delta(x)", "--bump", "-1,1"], {"ode"}),
    (["oracle", "delta(x)", "H(x)", "--bump", "-1,1"], {"ode"}),
]

MODULES_CHILD = """
import contextlib, io, json, sys
from distalg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m.split(".")[1] for m in sys.modules
                               if m.startswith("distalg."))]))
"""


@pytest.mark.parametrize("argv,unloaded", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_command_loads_only_the_modules_it_runs(argv, unloaded):
    code, loaded = json.loads(run_child(MODULES_CHILD, json.dumps(argv)))
    assert code == 0
    assert {"cli", "parser", "fmt", "star", "dist"} <= set(loaded)
    assert not unloaded & set(loaded), loaded


# a child that imports neither dataclasses nor json itself
LEAN_CHILD = """
import contextlib, io, sys
from distalg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(m in sys.modules for m in ("dataclasses", "json")))
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMAND_MODULES] + [
    ["fmt", "H(x)", "--mode", "json"]], ids=[
        argv[0] for argv, _ in COMMAND_MODULES] + ["fmt-json"])
def test_cold_start_loads_no_dataclasses_and_json_only_for_json(argv):
    out = run_child(LEAN_CHILD, *argv).split()
    assert out[:2] == ["0", "False"], argv
    if argv[0] in ("mul", "fmt", "diff"):
        assert out[2] == str("json" in argv), argv


def test_bare_import_loads_no_dataclasses_or_json():
    out = run_child("import sys\nimport distalg\nprint(*(m in sys.modules "
                    "for m in ('dataclasses', 'json')))\n")
    assert out == "False False\n"


def test_no_module_imports_dataclasses_or_calls_exec():
    pkg = Path(distalg.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else
                     [node.func.id] if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) else [])
            found += [f"{path.name}: {n}" for n in names
                      if n in ("dataclasses", "exec", "compile")]
    assert found == []


def test_bare_import_loads_star_and_what_it_needs():
    out = run_child("""
import sys
import distalg
print(sorted(m for m in sys.modules if m.startswith("distalg")))
print(distalg.weak.__name__, distalg.dist.__name__,
      hasattr(distalg, "no_such_name"), "distalg.weak" in sys.modules)
""").splitlines()
    assert out[0] == str(["distalg", "distalg.dist", "distalg.errors",
                          "distalg.expr", "distalg.scalars", "distalg.star"])
    assert out[1] == "distalg.weak distalg.dist False True"


@pytest.mark.parametrize("code", ["import distalg.parser, distalg",
                                  "from distalg import star",
                                  "import distalg.star",
                                  "from distalg.cli import main\n"
                                  "import distalg"])
def test_star_is_the_function(code):
    out = run_child(code + "\nimport distalg as d\nprint(d.star.__module__,"
                    " callable(d.star), d.star is d.star_variant.__globals__"
                    "['star'])\n")
    assert out == "distalg.star True True\n"


def test_public_names_resolve_to_their_modules():
    modules = [importlib.import_module("distalg." + m) for m in
               ("errors", "scalars", "expr", "dist", "star", "weak", "ode",
                "parser", "fmt")]
    assert len(distalg.__all__) == len(set(distalg.__all__)) == 114
    for name in distalg.__all__:
        homes = [m for m in modules if name in vars(m)]
        assert homes, name
        assert all(getattr(distalg, name) is getattr(m, name) for m in homes)
    namespace = {}
    exec("from distalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(distalg.__all__)
    with pytest.raises(AttributeError):
        distalg.no_such_name


MODE = (["text", "latex", "json"], "text", False, None)
REQUIRED = (None, None, True, None)
BUMP_AND_NODES = {"--bump": REQUIRED, "--quad-nodes": (None, None, False, "int")}

# subcommand -> (positionals with nargs, option -> (choices, default,
# required, type)), as the command line was before its wiring was shared
CLI_TABLE = {
    "mul": ([("F", "?"), ("G", "?")],
            {"--variant": (["star", "star2", "star3", "star4", "star5",
                            "hormander"], "star", False, None),
             "--mode": MODE}),
    "diff": ([("F", "?")], {"-n": (None, 1, False, "int"), "--mode": MODE}),
    "antideriv": ([("F", "?")], {"--mode": MODE}),
    "bracket": ([("F", "?"), ("G", "?")], {"--mode": MODE}),
    "action": ([("F", "?")], BUMP_AND_NODES),
    "oracle": ([("F", "?"), ("G", "?")],
               {**BUMP_AND_NODES,
                "--eps-schedule": (None, None, False, None),
                "--extrapolation": (["richardson", "last-value"], None, False,
                                    None),
                "--direction": ([1, -1], 1, False, "int")}),
    "confine": ([], {"--ode": REQUIRED, "--interval": REQUIRED,
                     "--mode": MODE}),
    "residual": ([("candidate", "?")],
                 {"--ode": REQUIRED, "--interval": REQUIRED, "--mode": MODE}),
    "particular-rhs": ([], {"--ode": REQUIRED, "--at": REQUIRED,
                            "--values": REQUIRED, "--mode": MODE}),
    "verify": ([("psi", "?")],
               {"--ode": REQUIRED, "--interval": REQUIRED,
                "--mode": (["text", "json"], "text", False, None)}),
    "fmt": ([("F", "?")], {"--mode": MODE}),
}


def cli_table():
    from distalg.cli import build_parser
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, p in sub.choices.items():
        positionals, options = [], {}
        for a in p._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            row = (a.choices and list(a.choices), a.default, a.required,
                   getattr(a.type, "__name__", None))
            if a.option_strings:
                options[" ".join(a.option_strings)] = row
            else:
                positionals.append((a.dest, a.nargs))
        table[name] = (positionals, options)
    return table


def test_cli_options_are_unchanged():
    table = cli_table()
    assert list(table) == list(CLI_TABLE)
    assert table == CLI_TABLE


def _annotation_names(node):
    """Names inside string annotations, which the AST keeps as strings."""
    for ann in ast.walk(node):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                sub = ast.parse(ann.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(sub) if isinstance(n, ast.Name))


def unused_imports(source):
    """Names a module imports and never uses; `from __future__` imports and
    names listed in `__all__` count as used."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            ann = (node.returns if isinstance(node, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef))
                   else node.annotation)
            if ann is not None:
                used.update(_annotation_names(ann))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    pkg = Path(distalg.__file__).resolve().parent
    found = {p.name: unused_imports(p.read_text())
             for p in sorted(pkg.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_import_check_sees_its_cases():
    src = ("from __future__ import annotations\n"
           "import os, json as j\n"
           "from typing import List, Optional\n"
           "from .a import b, c\n"
           "def f(x: 'List[int]') -> Optional[int]:\n"
           "    return os.sep\n")
    assert unused_imports(src) == ["b (line 4)", "c (line 4)",
                                   "j (line 2)"]


def unreferenced_names(sources, exported=frozenset()):
    """Top-level functions, classes and assignments other than dunders and
    the `exported` names, and the methods of private classes, that no
    module of `sources` (name -> text) references by name or attribute.
    Methods of a class with a base class are skipped, since the base may
    call an override."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names
                        if name not in exported and not name.startswith("__")]
            if (isinstance(node, ast.ClassDef) and node.name.startswith("_")
                    and not node.bases):
                defined += [(module, item.name, item.lineno)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                            and not item.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
                used.update(_annotation_names(node.annotation))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.returns):
                used.update(_annotation_names(node.returns))
    return sorted(f"{module}: {name} (line {line})"
                  for module, name, line in defined if name not in used)


def test_no_unreferenced_private_names():
    """Private or not: a top-level name outside `distalg._PUBLIC` is there
    for the package's own modules, so one of them must reference it."""
    pkg = Path(distalg.__file__).resolve().parent
    sources = {p.name: p.read_text() for p in sorted(pkg.glob("*.py"))}
    exported = {n for names in distalg._PUBLIC.values() for n in names}
    assert unreferenced_names(sources, exported) == []


def test_dead_code_check_sees_its_cases():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_unused_table = {}\n"
                 "def _helper(x: '_Alias') -> int:\n"
                 "    return x + _LIMIT\n"
                 "class _Walker:\n"
                 "    def __init__(self):\n"
                 "        self.step()\n"
                 "    def step(self):\n"
                 "        pass\n"
                 "    def old_step(self):\n"
                 "        pass\n"),
        "b.py": ("from .a import _helper, _Walker\n"
                 "_Alias = int\n"
                 "def _orphan():\n"
                 "    return _Walker()\n"
                 "def api():\n"
                 "    return LEVEL\n"
                 "LEVEL = UNUSED = 1\n"
                 "def stale():\n"
                 "    pass\n"),
    }
    assert unreferenced_names(sources, {"api"}) == [
        "a.py: _unused_table (line 2)", "a.py: old_step (line 10)",
        "b.py: UNUSED (line 7)", "b.py: _orphan (line 3)",
        "b.py: stale (line 8)"]
