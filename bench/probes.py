"""Layer probes that the traced run makes after its timed loop.

With the traced ops of the other library workloads that ``run.py`` makes
first, they give every per-layer metric a measured value on every workload:
- ``result_probes`` re-run normalization and the polynomial normal form on
  the distributions the traced ops produced, and measure their size;
- ``residual_probe`` times ``ode.residual``, which no op calls in-process;
- ``long_sum_probe`` parses long sums of 25, 50 and 100 terms;
- ``cli_probe`` times interpreter start and imports in child processes, and
  runs the README examples on workloads that start no CLI process.
"""

from __future__ import annotations

import dataclasses
import random
import time

import gen
from workloads import (README_EXAMPLES, child_env, expect, run_child)

LONG_SUM_SIZES = (25, 50, 100)
IMPORT_CODE = ("import time; t = time.perf_counter(); import {}; "
               "print(time.perf_counter() - t)")


def count_nodes(e, node_types):
    """Tree nodes of a piece, walking the public node types."""
    n, stack = 0, [e]
    while stack:
        x = stack.pop()
        n += 1
        if not dataclasses.is_dataclass(x):
            continue
        for f in dataclasses.fields(x):
            v = getattr(x, f.name)
            stack.extend(c for c in (v if isinstance(v, tuple) else (v,))
                         if isinstance(c, node_types))
    return n


def result_probes(d, tr, results):
    node_types = (d.Const, d.Var, d.Sum, d.Product, d.Power, d.Quotient,
                  d.Exp, d.Sin, d.Cos)
    for R in results:
        tr.call("dist.normalize_dist", d.normalize_dist, R)
        tr.record("dist.breakpoints", len(R.breakpoints))
        tr.record("dist.atoms", len(R.atoms) + len(R.inexact_atoms))
        for p in R.pieces:
            tr.call("expr.poly_normal_form", d.poly_normal_form, p)
            tr.record("expr.piece_nodes", count_nodes(p, node_types))


def residual_probe(d, tr, seed):
    """``ode.residual``, which no op calls in-process: the residual of a
    confined candidate of each kind on each interval shape."""
    rng = random.Random(f"residual:{seed}")
    for shape in gen.SHAPES:
        for kind, _ in gen.VERIFY_KINDS:
            kind, iv, cs = gen.verify_case(rng, kind, shape)
            ceq = gen.build_ceq(d, kind, iv)
            cut = d.smooth_mul(gen.build_psi(d, kind, cs),
                               d.indicator_dist(ceq))
            tr.call("ode.residual", d.residual, ceq, cut)


def long_sum_probe(d, tr, seed, repeats=3):
    rng = random.Random(f"long_sum:{seed}")
    for n in LONG_SUM_SIZES:
        F = gen.build_dist(d, gen.long_sum(rng, n))
        text = d.format_dist(F)
        for _ in range(repeats):
            t0 = time.perf_counter()
            P = d.parse_dist(text)
            tr.record(f"parser.long_sum.n{n}", time.perf_counter() - t0)
        expect(d.equal_dist(P, F) is d.Verdict.EQUAL,
               f"{n}-term sum does not round-trip")


def import_seconds(env, module):
    """Interpreter-side time of ``import module`` in a fresh child."""
    p = run_child(["-c", IMPORT_CODE.format(module)], env)
    expect(p.returncode == 0, f"import {module} failed: {p.stderr}")
    return float(p.stdout)


def cli_probe(tr, root, readme, repeats=3):
    env = child_env(root)
    for _ in range(repeats):
        t0 = time.perf_counter()
        expect(run_child(["-c", "pass"], env).returncode == 0,
               "bare interpreter failed")
        tr.record("cli.interpreter", time.perf_counter() - t0)
        tr.record("cli.import_numpy", import_seconds(env, "numpy"))
        tr.record("cli.import_distalg", import_seconds(env, "distalg"))
    if readme:
        for cmd, examples in README_EXAMPLES.items():
            argv, out = examples[0]
            p = tr.call("cli." + cmd, run_child, ["-m", "distalg.cli", *argv],
                        env)
            expect(p.returncode == 0 and p.stdout == out,
                   f"README example {cmd} printed {p.stdout!r}")
