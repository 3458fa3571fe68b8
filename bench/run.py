"""distalg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``.  The
untraced run (``--trace 0``) reports the end-to-end metrics; the traced run
(``--trace 1``) reports the per-layer metrics and writes its spans to
``bench/out``.  The last line of standard output is the result object;
the line before it gives the machine facts and details, the known defects
of ``defects.py`` among them, and a table of every metric goes to standard
error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import host
from defects import known_defects
from probes import (cli_probe, long_sum_probe, residual_probe, result_probes,
                    LONG_SUM_SIZES)
from spans import UNTRACED, Tracer, growth, median, self_times, tail
from workloads import COMMANDS, WORKLOADS, child_env, expect, run_child

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5        # set-ups per run, spread over it; setup_s is their median
WARMUP_SEED = 0   # warm-up inputs are the same whatever --seed is
KEEP = 48         # traced-op results kept for the result probes
PROBE_OPS = 8     # traced ops of each other library workload, after the loop


def make_workload(name, d, seed):
    cls = WORKLOADS[name]
    return cls(d, seed, str(ROOT)) if name == "cli" else cls(d, seed)


def draw(wl):
    """The next input, or the exception that building it raised: a library
    call that fails while an input is built fails that op."""
    try:
        return wl.next_input()
    except Exception as e:
        return e


def attempt(wl, x, tr, failures, label):
    """Run one op; a failing op is counted and the run goes on."""
    try:
        if isinstance(x, Exception):
            raise x
        return tr.call("bench.op", wl.run, x, tr)
    except Exception as e:
        failures.append(f"{label}: {type(e).__name__}: {e}"[:300])
        return []


def set_up(workload, env):
    """One set-up in a fresh interpreter, so that every sample is cold: it
    imports distalg, builds the workload and runs its warm-up ops.  Returns
    the seconds the child measured, and the warm-up failures."""
    p = run_child([str(Path(__file__).resolve()), "--workload", workload,
                   "--set-up"], env)
    expect(p.returncode == 0, f"set-up failed: {p.stderr[-500:]}")
    out = json.loads(p.stdout.splitlines()[-1])
    return out["seconds"], out["failures"]


def set_up_here(workload):
    """The set-up child's side of ``set_up``; imports distalg first."""
    failures = []
    t0 = time.perf_counter()
    wl = make_workload(workload, import_distalg(), WARMUP_SEED)
    for k in range(wl.warmup_ops):
        attempt(wl, draw(wl), UNTRACED, failures, f"warm-up {k}")
    print(json.dumps({"seconds": time.perf_counter() - t0,
                      "failures": failures}))


def timed_loop(wl, seconds, tracer, failures, pauses=()):
    """Closed loop for ``seconds`` of wall time.  Input generation is not
    counted, nor are the ``pauses``: (loop time, function) pairs, each
    called once that much loop time has passed.  With a tracer, every other
    op of each kind is traced, so that traced and untraced ops run the same
    input mix."""
    lat = {True: [], False: []}
    kept = []
    seen = {}
    pauses = sorted(pauses, key=lambda p: p[0], reverse=True)
    paused = 0.0
    i = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0 - paused) < seconds:
        g0 = time.perf_counter()
        if pauses and elapsed >= pauses[-1][0]:
            pauses.pop()[1]()
            paused += time.perf_counter() - g0
            continue
        x = draw(wl)
        start = time.perf_counter()
        paused += start - g0
        kind = None if isinstance(x, Exception) else x[0]
        seen[kind] = seen.get(kind, 0) + 1
        traced = tracer is not None and seen[kind] % 2 == 1
        tr = tracer if traced else UNTRACED
        if traced:
            tracer.op = i
        out = attempt(wl, x, tr, failures, f"op {i}")
        lat[traced].append(time.perf_counter() - start)
        if traced and len(kept) < KEEP:
            kept.extend(out)
        i += 1
    if tracer is not None:
        tracer.op = None
    return lat, kept, time.perf_counter() - t0 - paused


def run_probes(args, d, tracer, kept, failures):
    """The traced run's probes.  First a few traced ops of each library
    workload this run is not, so that every function has a call time; then
    the layer probes.  Each op or layer probe that fails counts as a failed
    op.  Returns the number attempted."""
    attempted = 0
    for name in ("textio", "numeric"):
        if name != args.workload:
            wl = make_workload(name, d, args.seed)
            for k in range(PROBE_OPS):
                attempt(wl, draw(wl), tracer, failures, f"{name} probe {k}")
            attempted += PROBE_OPS
    probes = {
        "result probe": lambda: result_probes(d, tracer, kept),
        "residual probe": lambda: residual_probe(d, tracer, args.seed),
        "long-sum probe": lambda: long_sum_probe(d, tracer, args.seed),
        "cli probe": lambda: cli_probe(tracer, str(ROOT),
                                       readme=args.workload != "cli"),
    }
    for label, probe in probes.items():
        try:
            probe()
        except Exception as e:
            failures.append(f"{label}: {type(e).__name__}: {e}"[:300])
    return attempted + len(probes)


# -- metrics -----------------------------------------------------------------


def peak_rss_mb(wl):
    """This process's peak; on ``cli``, that of the largest CLI child."""
    if wl.name == "cli":
        return wl.peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def end_to_end(lat, wall, setup_s, attempted, failed, wl, factor):
    """The end-to-end metrics; times are divided by the host ``factor``,
    and the details keep them as measured."""
    ops = lat[False]
    value, pct = tail(ops)
    measured = {"ops_per_s": len(ops) / wall, "op_p50_ms": median(ops) * 1e3,
                "op_tail_ms": value * 1e3, "setup_s": setup_s}
    metrics = {
        "ops_per_s": (measured["ops_per_s"] * factor, "1/s"),
        "op_p50_ms": (measured["op_p50_ms"] / factor, "ms"),
        "op_tail_ms": (measured["op_tail_ms"] / factor, "ms"),
        "setup_s": (setup_s / factor, "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, {"op_tail_percentile": pct, "ops": len(ops),
                     "measured": measured}


class LayerView:
    """Per-layer figures from a traced run's spans and records.  A function's
    figures come from the traced ops when they call it, else from the
    probes; calls and shares come from the traced ops only."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.records = tracer.records
        selfs = self_times(self.spans)
        self.op_self = [(s[0], t) for s, t in zip(self.spans, selfs)
                        if s[4] is not None]
        self.op_time = sum(e - s for n, s, e, _, op in self.spans
                           if n == "bench.op" and op is not None)

    def _pick(self, pairs):
        ops = [v for v, op in pairs if op is not None]
        return ops or [v for v, op in pairs if op is None]

    def durations(self, name):
        return self._pick([(e - s, op) for n, s, e, _, op in self.spans
                           if n == name])

    def values(self, name):
        return self._pick([(v, op) for n, v, op in self.records if n == name])

    def ms_p50(self, name):
        return median(self.durations(name)) * 1e3

    def calls(self, name):
        return sum(1 for n, s, e, _, op in self.spans
                   if n == name and op is not None)

    def share(self, name):
        return sum(t for n, t in self.op_self if n == name) / self.op_time

    def layer_share(self, layer):
        return sum(t for n, t in self.op_self
                   if n.split(".")[0] == layer) / self.op_time

    def mean(self, name):
        vs = self.values(name)
        return sum(vs) / len(vs)


LAYERS = ("bench", "star", "dist", "weak", "ode", "parser", "fmt", "cli")


def per_layer(v, lat):
    traced = len(lat[True]) / sum(lat[True])
    untraced = len(lat[False]) / sum(lat[False])
    m = {
        "trace.ops_per_s": (traced, "1/s"),
        "trace.untraced_ops_per_s": (untraced, "1/s"),
        "trace.overhead": (1 - traced / untraced, "ratio"),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = (v.layer_share(layer), "ratio")
    for fn in ("star.star", "dist.equal_dist"):
        m[f"{fn}.calls"] = (v.calls(fn), "count")
        m[f"{fn}.ms_p50"] = (v.ms_p50(fn), "ms")
        m[f"{fn}.share"] = (v.share(fn), "ratio")
    m["dist.normalize_dist.ms_p50"] = (v.ms_p50("dist.normalize_dist"), "ms")
    m["dist.breakpoints_mean"] = (v.mean("dist.breakpoints"), "count")
    m["dist.atoms_mean"] = (v.mean("dist.atoms"), "count")
    m["expr.poly_normal_form.us_p50"] = (
        v.ms_p50("expr.poly_normal_form") * 1e3, "us")
    m["expr.piece_nodes_mean"] = (v.mean("expr.piece_nodes"), "count")
    m["parser.parse_dist.ms_p50"] = (v.ms_p50("parser.parse_dist"), "ms")
    m["parser.parse_dist.share"] = (v.share("parser.parse_dist"), "ratio")
    m["parser.chars_per_s"] = (sum(v.values("parser.chars"))
                               / sum(v.durations("parser.parse_dist")),
                               "chars/s")
    long_ms = [median(v.values(f"parser.long_sum.n{n}")) * 1e3
               for n in LONG_SUM_SIZES]
    for n, ms in zip(LONG_SUM_SIZES, long_ms):
        m[f"parser.long_sum.n{n}.ms"] = (ms, "ms")
    m["parser.long_sum.growth"] = (growth(LONG_SUM_SIZES, long_ms), "1")
    m["fmt.format_dist.ms_p50"] = (v.ms_p50("fmt.format_dist"), "ms")
    m["fmt.format_dist.share"] = (v.share("fmt.format_dist"), "ratio")
    m["fmt.reformat_ratio"] = (v.mean("fmt.reformatted"), "ratio")
    for fn in ("weak.star_oracle", "weak.action"):
        m[f"{fn}.ms_p50"] = (v.ms_p50(fn), "ms")
        m[f"{fn}.share"] = (v.share(fn), "ratio")
    m["weak.oracle_max_rel_err"] = (max(v.values("weak.oracle_rel_err")),
                                    "ratio")
    m["ode.residual.ms_p50"] = (v.ms_p50("ode.residual"), "ms")
    m["ode.verify_confinement.ms_p50"] = (v.ms_p50("ode.verify_confinement"),
                                          "ms")
    m["ode.unknown_ratio"] = (v.mean("ode.unknown"), "ratio")
    for what in ("interpreter", "import_numpy", "import_distalg"):
        m[f"cli.{what}_ms"] = (median(v.values(f"cli.{what}")) * 1e3, "ms")
    for cmd in COMMANDS:
        m[f"cli.{cmd}.ms_p50"] = (v.ms_p50(f"cli.{cmd}"), "ms")
    return m


# -- main --------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--set-up", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_distalg():
    src = ROOT / "src"
    if not (src / "distalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no distalg sources under {src}")
    sys.path.insert(0, str(src))
    import distalg
    if Path(distalg.__file__).resolve().parent != src / "distalg":
        raise SystemExit(f"error: imported distalg from {distalg.__file__}")
    return distalg


def main(argv=None):
    args = parse_args(argv)
    if args.set_up:
        set_up_here(args.workload)
        return 0
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "loadavg_start": os.getloadavg(), "nproc": os.cpu_count(),
             "python": platform.python_version()}
    d = import_distalg()
    import numpy
    facts["numpy"] = numpy.__version__
    env = child_env(str(ROOT))

    failures = []
    setups = []
    refs = []

    def set_up_sample():
        seconds, failed = set_up(args.workload, env)
        setups.append(seconds)
        failures.extend(failed)

    set_up_sample()
    wl = make_workload(args.workload, d, args.seed)
    tracer = Tracer() if args.trace else None
    pauses = [(args.seconds * k / SETUPS, set_up_sample)
              for k in range(1, SETUPS)]
    reference, ref_s, every = host.REFERENCES.get(args.workload,
                                                   host.DEFAULT)
    pauses += [(k * every, lambda: refs.append(reference()))
               for k in range(int(args.seconds / every))]
    lat, kept, wall = timed_loop(wl, args.seconds, tracer, failures, pauses)
    attempted = SETUPS * wl.warmup_ops + len(lat[False]) + len(lat[True])
    factor = sum(refs) / len(refs) / ref_s

    details = {"setups_s": setups, "host_factor": factor,
               "known_defects": known_defects(d, env)}
    if args.trace:
        t0 = time.perf_counter()
        attempted += run_probes(args, d, tracer, kept, failures)
        details["probe_s"] = time.perf_counter() - t0
        metrics = per_layer(LayerView(tracer), lat)
        write_spans(args, facts, tracer)
    else:
        metrics, more = end_to_end(lat, wall, median(setups), attempted,
                                   len(failures), wl, factor)
        details.update(more)

    failed = len(failures)
    details["failures"] = failures[:20]
    print(json.dumps({"facts": facts, "details": details}))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def write_spans(args, facts, tracer):
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    selfs = self_times(tracer.spans)
    with open(path, "w") as f:
        json.dump({"facts": facts,
                   "fields": ["name", "start", "end", "parent", "op", "self"],
                   "spans": [s + [t] for s, t in zip(tracer.spans, selfs)]},
                  f)


if __name__ == "__main__":
    sys.exit(main())
