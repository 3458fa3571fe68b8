"""Reference work that times the host, not distalg.

The sandbox's speed drifts: over minutes, the same run can take a third
longer or shorter.  Each run times a reference at even intervals of its
loop, and the mean of those times over the reference's time on the
reference host is the run's host factor.  The time metrics are reported at
the reference speed: divided by the factor, or multiplied by it for
``ops_per_s``.  The references do not use distalg, so no change to it can
change their time.  There are two, because each tracks the cost of one kind
of op: an in-process kernel for the library workloads, and a fresh
interpreter for ``cli``.
"""

from __future__ import annotations

import gc
import re
import subprocess
import sys
import time
from fractions import Fraction

_TERMS = [Fraction(i, i + 3) for i in range(1, 48)]
_TERM = re.compile(r"(-?\d+(?:/\d+)?)\*x\^(\d+)")


def kernel():
    """An exact polynomial product, printed and read back: the kind of work
    distalg does, done with the standard library alone."""
    out = {}
    for i, a in enumerate(_TERMS):
        for j, b in enumerate(_TERMS):
            out[i + j] = out.get(i + j, 0) + a * b
    text = " + ".join(f"{c}*x^{k}" for k, c in sorted(out.items()))
    back = {int(k): Fraction(c) for c, k in _TERM.findall(text)}
    if back != out:
        raise AssertionError("the reference kernel read back another product")


def kernel_seconds():
    """Seconds the kernel takes now.  It runs with the garbage collector
    off, so that the size of distalg's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def interpreter_seconds():
    """Seconds a fresh interpreter takes to start, import argparse and
    numpy, and exit: most of a CLI op's start, without distalg.  Without
    numpy, it missed slow spells that CLI ops went through."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import argparse, numpy"],
                   check=True, timeout=60)
    return time.perf_counter() - t0


# workload -> (reference, its seconds on the reference host, loop seconds
# between two samples)
REFERENCES = {"cli": (interpreter_seconds, 0.200, 1.0)}
DEFAULT = (kernel_seconds, 0.010, 0.25)
