"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import gc
import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import distalg  # noqa: E402
import gen  # noqa: E402
import host  # noqa: E402
import run  # noqa: E402
from spans import UNTRACED, Tracer, self_times, tail  # noqa: E402
from workloads import (ALGEBRA_BLOCK, WORKLOADS, Algebra, Cli, CliOp,  # noqa: E402
                       child_env)

# Every metric the benchmark's definition names, by run.
END_TO_END = {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s",
              "peak_rss_mb", "ok_ratio"}
PER_LAYER = {
    "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead",
    "star.star.calls", "star.star.ms_p50", "star.star.share",
    "dist.equal_dist.calls", "dist.equal_dist.ms_p50",
    "dist.equal_dist.share", "dist.normalize_dist.ms_p50",
    "dist.breakpoints_mean", "dist.atoms_mean",
    "expr.poly_normal_form.us_p50", "expr.piece_nodes_mean",
    "parser.parse_dist.ms_p50", "parser.parse_dist.share",
    "parser.chars_per_s", "parser.long_sum.n25.ms", "parser.long_sum.n50.ms",
    "parser.long_sum.n100.ms", "parser.long_sum.growth",
    "fmt.format_dist.ms_p50", "fmt.format_dist.share",
    "weak.star_oracle.ms_p50", "weak.star_oracle.share",
    "weak.action.ms_p50", "weak.action.share", "weak.oracle_max_rel_err",
    "ode.residual.ms_p50", "ode.verify_confinement.ms_p50", "ode.share",
    "ode.unknown_ratio",
    "cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_distalg_ms",
    "cli.mul.ms_p50", "cli.fmt.ms_p50", "cli.diff.ms_p50",
    "cli.residual.ms_p50", "cli.verify.ms_p50", "cli.oracle.ms_p50",
}


def fingerprint(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def test_generation_is_deterministic_and_pinned():
    a, b = gen.conftest_stream(11), gen.conftest_stream(11)
    specs = [next(a) for _ in range(20)]
    assert specs == [next(b) for _ in range(20)]
    c = gen.conftest_stream(12)
    assert specs != [next(c) for _ in range(20)]
    # A changed fingerprint means a seed now draws other inputs, and results
    # stop being comparable with earlier runs.
    assert fingerprint(specs) == "a0b4ad3f3b395ed3"
    r = random.Random(7)
    assert fingerprint([gen.wide_dist(r) for _ in range(5)]
                       + [gen.long_sum(r, 30)]
                       + [gen.verify_case(r, "exp+", "negative")]) == \
        "a78d7adcf9afff97"


def test_workload_inputs_depend_only_on_the_seed():
    for name in ("algebra", "textio", "numeric"):
        one, two = (WORKLOADS[name](distalg, 5) for _ in range(2))
        for _ in range(6):
            assert repr(one.next_input()) == repr(two.next_input()), name
    one, two = (Cli(distalg, 5, str(ROOT)) for _ in range(2))
    for _ in range(8):
        assert one.next_input()[:4] == two.next_input()[:4]


def test_algebra_seeds_run_the_same_triples_in_another_order():
    blocks = []
    for seed in (1, 2):
        wl = Algebra(distalg, seed)
        blocks.append([repr(wl.next_input())
                       for _ in range(ALGEBRA_BLOCK)])
    assert blocks[0] != blocks[1]
    assert sorted(blocks[0]) == sorted(blocks[1])
    assert len(set(blocks[0])) == ALGEBRA_BLOCK


def test_long_sum_text_has_the_requested_terms():
    F = gen.build_dist(distalg, gen.long_sum(random.Random(3), 40))
    text = distalg.format_dist(F)
    assert text.count(" + ") + text.count(" - ") + 1 == 40


def test_a_wrong_result_counts_as_failed():
    class Broken:
        """distalg with a product that is wrong on every third call."""

        def __init__(self):
            self.calls = 0

        def __getattr__(self, name):
            return getattr(distalg, name)

        def star(self, F, G):
            self.calls += 1
            P = distalg.star(F, G)
            if self.calls % 3 == 0:
                P = distalg.add(P, distalg.delta_dist(7))
            return P

    failures = []
    wl = Algebra(Broken(), 1)
    lat, _, wall = run.timed_loop(wl, 1.0, None, failures)
    ops = len(lat[False])
    assert ops >= 2 and failures
    metrics, _ = run.end_to_end(lat, wall, 0.5, ops, len(failures), wl, 1.0)
    assert metrics["ok_ratio"][0] == (ops - len(failures)) / ops < 1
    # On a host twice as slow as the reference, times are halved.
    fast, more = run.end_to_end(lat, wall, 0.5, ops, len(failures), wl, 2.0)
    assert fast["ops_per_s"][0] == 2 * metrics["ops_per_s"][0]
    assert fast["setup_s"][0] == 0.25 and more["measured"]["setup_s"] == 0.5


def test_wrong_cli_output_counts_as_failed():
    wl = Cli(distalg, 1, str(ROOT))
    failures = []
    argv = ["mul", "delta(x)", "H(x)"]
    run.attempt(wl, CliOp("mul", argv, "delta(x)\n"), UNTRACED, failures,
                "right")
    assert failures == []
    run.attempt(wl, CliOp("mul", argv, "H(x)\n"), UNTRACED, failures, "wrong")
    assert len(failures) == 1 and "printed" in failures[0]
    assert 10 < wl.peak_rss_mb < 1000  # the CLI child's own peak


def test_cli_takes_intervals_that_end_below_zero():
    wl = Cli(distalg, 1, str(ROOT))
    wl.odes = 1  # the next ODE op takes the "negative" shape
    op = wl._residual()
    iv = next(a for a in op.argv if a.startswith("--interval="))
    assert iv.split(",")[-1].startswith("-")
    failures = []
    run.attempt(wl, op, UNTRACED, failures, "negative interval")
    assert failures == []


def test_numeric_checks_the_oracle_on_acceptance_06_cases():
    wl = WORKLOADS["numeric"](distalg, 4)
    text = distalg.format_dist
    seen = []
    while len(seen) < 150:
        x = wl.next_input()
        if x[0] == "oracle":
            seen.append((text(x[1]), text(x[2]), x[3]))
    cases = {(text(gen.build_dist(distalg, f)),
              text(gen.build_dist(distalg, g)), t)
             for f, g in gen.oracle_corpus() for t in wl.bumps}
    assert len(cases) == 150 and set(seen) == cases


def test_set_up_runs_in_a_fresh_interpreter():
    seconds, failures = run.set_up("algebra", child_env(str(ROOT)))
    assert 0 < seconds < 60 and failures == []


def test_pauses_run_at_their_loop_time_and_are_not_timed():
    starts = []
    t0 = time.perf_counter()

    def pause():
        starts.append(time.perf_counter() - t0)
        time.sleep(0.5)

    lat, _, wall = run.timed_loop(Algebra(distalg, 2), 1.0, None, [],
                                  [(0.75, pause), (0.25, pause)])
    assert len(starts) == 2 and starts[0] < starts[1] - 0.5
    assert 1.0 <= wall < 1.5 and sum(lat[False]) <= wall


def test_host_references_time_the_host():
    assert 0 < host.kernel_seconds() < 1 and gc.isenabled()
    assert 0 < host.interpreter_seconds() < 10


def test_self_time_excludes_child_spans():
    tr = Tracer()
    tr.op = 0
    tr.call("bench.op", lambda: (tr.call("star.star", time.sleep, 0.02),
                                 time.sleep(0.01)))
    own, child = self_times(tr.spans)
    assert 0.02 <= child < 0.03
    assert 0.01 <= own < 0.02
    assert tr.spans[1][3] == 0  # the child names its parent


def test_tail_leaves_ten_values_beyond_it():
    assert tail(range(1, 31)) == (20, 100.0 * 20 / 30)
    assert tail([3, 1, 2]) == (3, 100.0)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(p):
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_every_named_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} >= PER_LAYER
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for trace, names in (("0", END_TO_END),
                         ("1", {m["name"] for m in spec["per_layer"]})):
        out = last_json(run_bench(ROOT, "--workload", "numeric", "--seed",
                                  "3", "--seconds", "1", "--trace", trace))
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is (out["failed"] == 0)
        assert 0 <= out["failed"] <= out["attempted"]
        assert set(out["metrics"]) == names
        for name, m in out["metrics"].items():
            assert m["unit"] == units[name]
            assert isinstance(m["value"], (int, float))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run_bench(tmp_path, "--workload", "algebra", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
