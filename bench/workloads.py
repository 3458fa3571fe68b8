"""The four workloads.

Each workload draws its inputs from ``--seed`` (``next_input``, untimed) and
runs one op at a time (``run``): a closed loop, single process, no threads.
An input is a tuple whose first field names its kind, so that the traced
run can trace every other op of each kind.
``run`` makes the op's calls through a tracer, checks the result, and raises
``Wrong`` when a verdict, value or text is not the expected one; it returns
the distributions the op produced, for the traced run's probes.
"""

from __future__ import annotations

import os
import random
import selectors
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import gen


class Wrong(Exception):
    """An op returned a wrong verdict, value or text."""


def expect(ok, what):
    if not ok:
        raise Wrong(what)


ALGEBRA_BLOCK = 100


class Algebra:
    """Why: the exact-polynomial hot path of star and equal_dist, on a small
    grid whose inputs share much structure, so a normal-form cache hits."""
    name = "algebra"
    warmup_ops = 3

    def __init__(self, d, seed):
        self.d = d
        self.rng = random.Random(f"algebra:{seed}")
        # The streams start with the acceptance-02 corpora 11, 12 and 13.
        self.streams = [gen.conftest_stream(j) for j in (11, 12, 13)]
        self.block = []

    def next_input(self):
        """The streams' triples, in blocks of ``ALGEBRA_BLOCK`` whose order
        is seeded: every seed runs nearly the same triples, and none twice.
        Triples differ in cost by a factor of four, so with triples drawn
        per seed, the median op time moved by 10 % from seed to seed."""
        if not self.block:
            self.block = [tuple(next(s) for s in self.streams)
                          for _ in range(ALGEBRA_BLOCK)]
            self.rng.shuffle(self.block)
        return ("triple",) + tuple(gen.build_dist(self.d, f)
                                   for f in self.block.pop())

    def run(self, x, tr):
        d = self.d
        _, F, G, J = x
        L = tr.call("star.star", d.star, tr.call("star.star", d.star, F, G), J)
        R = tr.call("star.star", d.star, F, tr.call("star.star", d.star, G, J))
        expect(tr.call("dist.equal_dist", d.equal_dist, L, R)
               is d.Verdict.EQUAL, "star is not associative")
        B = tr.call("star.bracket", d.bracket, F, G)
        minus = tr.call("dist.scale", d.scale, -1,
                        tr.call("star.bracket", d.bracket, G, F))
        expect(tr.call("dist.equal_dist", d.equal_dist, B, minus)
               is d.Verdict.EQUAL, "bracket is not antisymmetric")
        return [L, B]


# Every long sum has this many terms.  With 50- and 100-term sums in turn, a
# run had about a dozen 100-term sums, and op_tail_ms fell at the edge of that
# group, so that it moved by 13 % between runs of one seed.
LONG_SUM_TERMS = 100


class Textio:
    """Why: parsing is the costliest layer a text user meets and is
    quadratic in the number of terms; inputs share little, so caches miss."""
    name = "textio"
    warmup_ops = 3

    def __init__(self, d, seed):
        self.d = d
        self.rng = random.Random(f"textio:{seed}")
        self.plan = []

    def next_input(self):
        """Blocks of four: three wide products and one long sum, in a seeded
        order."""
        d, rng = self.d, self.rng
        if not self.plan:
            self.plan = ["product"] * 3
            self.plan.insert(rng.randrange(4), "sum")
        if self.plan.pop() == "sum":
            return ("sum", gen.build_dist(d, gen.long_sum(rng,
                                                          LONG_SUM_TERMS)))
        F = gen.build_dist(d, gen.wide_dist(rng))
        G = gen.build_dist(d, gen.wide_dist(rng))
        return ("product", d.star(F, G))

    def run(self, x, tr):
        d = self.d
        F = x[1]
        text = tr.call("fmt.format_dist", d.format_dist, F)
        tr.record("parser.chars", len(text))
        P = tr.call("parser.parse_dist", d.parse_dist, text)
        expect(tr.call("dist.equal_dist", d.equal_dist, P, F)
               is d.Verdict.EQUAL, "parse(format(F)) is not Equal to F")
        again = tr.call("fmt.format_dist", d.format_dist, P)
        tr.record("fmt.reformatted", again != text)
        if again != text:
            # Pieces that print unexpanded re-print expanded after one round
            # trip; the text must then be a fixed point.
            tr.record("parser.chars", len(again))
            P2 = tr.call("parser.parse_dist", d.parse_dist, again)
            expect(tr.call("fmt.format_dist", d.format_dist, P2) == again,
                   "format(parse(text)) is not a fixed point")
        return [P]


BUMPS = ((Fraction(-4), Fraction(4)), (Fraction(-7, 2), Fraction(9, 2)),
         (Fraction(-5), Fraction(3)))
ORACLE_RTOL = 1e-6  # acceptance 06


class Numeric:
    """Why: the float paths, quadrature in weak and sampled verdicts in ode,
    where exact normal forms do little of the work."""
    name = "numeric"
    warmup_ops = 4

    def __init__(self, d, seed):
        self.d = d
        self.rng = random.Random(f"numeric:{seed}")
        self.plan = []
        self.verifies = 0
        self.bumps = [d.make_bump(a, b) for a, b in BUMPS]
        self.oracle_cases = [(f, g, t) for f, g in gen.oracle_corpus()
                             for t in self.bumps]
        self.oracle_order = []

    def next_input(self):
        """Blocks of two: one oracle check and one confinement check, in a
        seeded order.  Oracle checks run the 150 cases of acceptance 06, the
        inputs on which its 1e-6 tolerance is stated, each once in a seeded
        order before any repeats.  Confinement checks cycle through the four
        candidate kinds, and then through the interval shapes."""
        d, rng = self.d, self.rng
        if not self.plan:
            self.plan = rng.sample(["oracle", "verify"], 2)
        if self.plan.pop() == "oracle":
            if not self.oracle_order:
                self.oracle_order = rng.sample(self.oracle_cases,
                                               len(self.oracle_cases))
            f, g, t = self.oracle_order.pop()
            return ("oracle", gen.build_dist(d, f), gen.build_dist(d, g), t)
        j = self.verifies
        self.verifies += 1
        kind, want = gen.VERIFY_KINDS[j % 4]
        shape = gen.SHAPES[(j // 4) % len(gen.SHAPES)]
        kind, iv, cs = gen.verify_case(rng, kind, shape)
        return (f"verify-{kind}", gen.build_ceq(d, kind, iv),
                gen.build_psi(d, kind, cs), want)

    def run(self, x, tr):
        d = self.d
        if x[0] == "oracle":
            _, F, G, t = x
            P = tr.call("star.star", d.star, F, G)
            ref = tr.call("weak.action", d.action, P, t)
            got = tr.call("weak.star_oracle", d.star_oracle, F, G, t)
            err = abs(got - ref) / (1 + abs(ref))
            tr.record("weak.oracle_rel_err", err)
            expect(err <= ORACLE_RTOL, f"oracle off by {err:.2e} relative")
            return [P]
        _, ceq, psi, want = x
        rep = tr.call("ode.verify_confinement", d.verify_confinement, ceq, psi)
        tr.record("ode.unknown", rep.verdict is d.Verdict.UNKNOWN)
        expect(str(rep.verdict) == want,
               f"verify gave {rep.verdict}, expected {want}")
        return [rep.residual]


# -- cli ---------------------------------------------------------------------

# Hand-written from the README: (argv, stdout).
README_EXAMPLES = {
    "mul": [(["mul", "delta(x)", "H(x)"], "delta(x)\n"),
            (["mul", "H(x)", "delta(x)"], "0\n")],
    "fmt": [(["fmt", "H(x)+H(x)", "--mode", "latex"], "2\\,H(x)\n")],
    "diff": [(["diff", "H(x)", "-n", "2"], "delta[1](x)\n")],
    "residual": [(["residual", "--ode", "1,0,0;0", "--interval", "0",
                   "(3+2*x)*H(x)"], "0\n")],
    "verify": [(["verify", "--ode", "1,1;0", "--interval", "0", "exp(-x)"],
                "verdict: Equal\nresidual: 0\nclassical_max: 0\n")],
    "oracle": [(["oracle", "delta(x)", "H(x)", "--bump", "-1,1"],
                "0.367879441171\n")],
}
COMMANDS = tuple(README_EXAMPLES)


def child_env(root):
    """Environment for child interpreters: the checkout's sources, and no
    quadrature override from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("DISTALG_QUAD_NODES", None)
    return env


class Child(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_child(argv, env, timeout=120):
    """Run a child interpreter to its end.  It is reaped with ``wait4``, so
    that its own peak resident memory is known apart from other children's."""
    p = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=env)
    chunks = {p.stdout: [], p.stderr: []}
    deadline = time.monotonic() + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(deadline - time.monotonic())
            if not ready:
                p.kill()
                timed_out = True
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    for f in chunks:
        f.close()
    if timed_out:
        raise TimeoutError(f"child {argv[:3]} ran over {timeout} s")
    out, err = (b"".join(c).decode() for c in chunks.values())
    return Child(p.returncode, out, err, usage.ru_maxrss / 1024.0)


def complex_text(z):
    """The CLI's printed form of a complex result."""
    z = complex(z)
    if abs(z.imag) <= 1e-12 * max(1.0, abs(z.real)):
        return f"{z.real:.12g}\n"
    return f"{z.real:.12g}{z.imag:+.12g}i\n"


def interval_arg(iv):
    return ",".join(str(a) for a in iv)


class CliOp(NamedTuple):
    cmd: str
    argv: list
    out: str              # expected stdout
    code: int = 0         # expected exit code
    results: tuple = ()   # the in-process results, for the probes
    verdict: str = ""     # the verdict known by construction


class Cli:
    """Why: interpreter start and import distalg dominate here and are
    nearly absent from the other workloads."""
    name = "cli"
    warmup_ops = 2

    def __init__(self, d, seed, root):
        self.d = d
        self.rng = random.Random(f"cli:{seed}")
        self.env = child_env(root)
        self.plan = []
        self.readme = False
        self.rounds = 0
        self.odes = 0
        self.peak_rss_mb = 0.0  # of the largest CLI child so far

    def next_input(self):
        """Rounds of six ops, one per subcommand in a seeded order; every
        third round runs the README examples, the others generated inputs
        whose expected output is computed in-process here, untimed."""
        if not self.plan:
            self.plan = self.rng.sample(COMMANDS, len(COMMANDS))
            self.readme = self.rounds % 3 == 0
            self.rounds += 1
        cmd = self.plan.pop()
        if self.readme:
            argv, out = self.rng.choice(README_EXAMPLES[cmd])
            return CliOp(cmd, argv, out)
        return getattr(self, "_" + cmd)()

    def _dist_text(self):
        return self.d.format_dist(gen.build_dist(self.d,
                                                 gen.random_dist(self.rng)))

    def _mul(self):
        d = self.d
        f, g = self._dist_text(), self._dist_text()
        P = d.star(d.parse_dist(f), d.parse_dist(g))
        return CliOp("mul", ["mul", "--", f, g], d.format_dist(P) + "\n",
                     results=(P,))

    def _fmt(self):
        d = self.d
        f = self._dist_text()
        mode = self.rng.choice(["text", "latex", "json"])
        F = d.parse_dist(f)
        return CliOp("fmt", ["fmt", "--mode", mode, "--", f],
                     d.format_dist(F, mode) + "\n", results=(F,))

    def _diff(self):
        d = self.d
        f = self._dist_text()
        n = self.rng.randint(1, 2)
        F = d.parse_dist(f)
        for _ in range(n):
            F = d.differentiate(F)
        return CliOp("diff", ["diff", "-n", str(n), "--", f],
                     d.format_dist(F) + "\n", results=(F,))

    def _shape(self):
        """Interval shapes in turn, over the residual and verify ops."""
        self.odes += 1
        return gen.SHAPES[self.odes % len(gen.SHAPES)]

    def _ode_args(self, kind, iv):
        ode = "1,0,0;0" if kind.startswith("line") else "1,1;0"
        # The "=" form: a value such as "-2,-1" after a space is taken for
        # an option, a CLI defect that defects.py records.
        return ["--ode", ode, "--interval=" + interval_arg(iv)]

    def _residual(self):
        d = self.d
        kind = self.rng.choice(["line", "exp"])
        iv = gen.interval(self.rng, self._shape())
        f = self._dist_text()
        R = d.residual(gen.build_ceq(d, kind, iv), d.parse_dist(f))
        return CliOp("residual",
                     ["residual", *self._ode_args(kind, iv), "--", f],
                     d.format_dist(R) + "\n", results=(R,))

    def _verify(self):
        d = self.d
        kind, want = self.rng.choice(gen.VERIFY_KINDS)
        kind, iv, cs = gen.verify_case(self.rng, kind, self._shape())
        text = d.format_expr(gen.build_psi(d, kind, cs))
        rep = d.verify_confinement(gen.build_ceq(d, kind, iv),
                                   d.parse_smooth_expr(text))
        out = (f"verdict: {rep.verdict}\n"
               f"residual: {d.format_dist(rep.residual)}\n"
               f"classical_max: {rep.classical_max:.6g}\n")
        if not rep.leading_sampled_nonzero:
            out += "warning: leading coefficient vanishes at a sample point\n"
        code = 3 if rep.verdict is d.Verdict.UNKNOWN else 0
        return CliOp("verify",
                     ["verify", *self._ode_args(kind, iv), "--", text], out,
                     code, (rep.residual,), want)

    def _oracle(self):
        d = self.d
        f, g = self._dist_text(), self._dist_text()
        a, b = self.rng.choice(BUMPS)
        z = d.star_oracle(d.parse_dist(f), d.parse_dist(g), d.make_bump(a, b))
        return CliOp("oracle", ["oracle", "--bump", interval_arg((a, b)),
                                "--", f, g], complex_text(z))

    def run(self, op, tr):
        p = tr.call("cli." + op.cmd, run_child,
                    ["-m", "distalg.cli", *op.argv], self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, p.peak_rss_mb)
        expect(p.returncode == op.code, f"{op.cmd} exited {p.returncode}, "
                                        f"expected {op.code}: {p.stderr}")
        expect(p.stdout == op.out,
               f"{op.cmd} printed {p.stdout!r}, expected {op.out!r}")
        expect(p.stdout.startswith(f"verdict: {op.verdict}\n")
               or not op.verdict, f"verify should say {op.verdict}")
        return op.results


WORKLOADS = {w.name: w for w in (Algebra, Textio, Numeric, Cli)}
