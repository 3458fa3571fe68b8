"""numpy is imported only where numbers are sampled or integrated.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded long before."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
             for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"}
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


def unreferenced_private_names(sources):
    """Private top-level functions, classes and assignments, and the methods
    of private classes, that no module of `sources` (name -> text)
    references by name or attribute.  Methods of a class with a base class
    are skipped, since the base may call an override."""
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
                        if name.startswith("_") and not name.startswith("__")]
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
    pkg = Path(distalg.__file__).resolve().parent
    sources = {p.name: p.read_text() for p in sorted(pkg.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


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
                 "    return _Walker()\n"),
    }
    assert unreferenced_private_names(sources) == [
        "a.py: _unused_table (line 2)", "a.py: old_step (line 10)",
        "b.py: _orphan (line 3)"]
