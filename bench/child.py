"""Timed CLI invocations of one workload, in a process of their own.

Usage: python3 bench/child.py SPEC_JSON RESULT_JSON

The spec names the source tree, the CLI arguments, the seconds to measure, a
work directory and whether to trace.  After one untimed warm-up invocation the
child calls ``seasonwarp.cli.main`` in a loop until the seconds are spent.  In
a traced run every other invocation runs under the tracer, so traced and
untraced times come from the same warm process.  Only the call itself is
timed; the reference loop runs before it and digesting the output tree after
it.  The first tree of each distinct digest is kept for the parent to check,
the rest are deleted.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from check import tree_digest
from tracer import Tracer, invocation_metrics

MIN_TIMED = 2


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


_LSTSQ_DESIGN = np.linspace(0.0, 1.0, 400 * 30).reshape(400, 30)


def reference_seconds() -> float:
    """Best of six timings of a fixed loop that mixes the program's kinds of work.

    On a shared virtual machine the same code runs up to a quarter slower or
    faster for minutes at a time.  Timed beside each measurement, this loop
    gives the machine's current speed, so run.py can report times at a fixed
    reference speed.  It mixes interpreted string formatting, array passes
    over 4 MB and small least-squares solves, because contention slows each
    kind of work by a different amount.
    """
    best = math.inf
    for _ in range(6):
        start = time.perf_counter()
        table = {}
        for i in range(15000):
            table[i & 1023] = format(i * 0.37, ".4f")
        a = np.arange(500_000, dtype=float)
        for _ in range(4):
            a = np.sqrt(a + 1.0)
        for _ in range(15):
            np.linalg.lstsq(_LSTSQ_DESIGN, _LSTSQ_DESIGN[:, 0], rcond=None)
        best = min(best, time.perf_counter() - start)
    return best


def invoke(cli, argv: list[str], tracer: Tracer | None) -> dict:
    """One call of the CLI: its time, exit code and any traceback."""
    err = io.StringIO()
    tb = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                code, tb = None, traceback.format_exc()
            seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tb is None and "Traceback" in err.getvalue():
        tb = err.getvalue()
    record = {"seconds": seconds, "code": code, "traceback": tb, "traced": tracer is not None}
    if tracer is not None:
        record["layers"] = invocation_metrics(tracer)
    return record


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from seasonwarp import cli

    work = Path(spec["work"])
    tracer = Tracer() if spec["trace"] else None
    kept: dict[str, str] = {}
    records = []

    def run(k: int, traced: bool) -> None:
        out = work / f"out-{k}"
        reference = reference_seconds()
        record = invoke(cli, spec["argv"] + ["--out-dir", str(out)], tracer if traced else None)
        record["reference_s"] = reference
        record["digest"], record["files"], record["bytes"] = tree_digest(out)
        if record["digest"] in kept:
            shutil.rmtree(out, ignore_errors=True)
        else:
            kept[record["digest"]] = str(out)
        records.append(record)

    run(0, False)  # warm-up: imports, lazy set-up and caches, not timed
    start = time.perf_counter()
    k = 1
    while k <= MIN_TIMED or time.perf_counter() - start < spec["seconds"]:
        run(k, tracer is not None and k % 2 == 1)
        k += 1
    spans = [] if tracer is None else [[name, parent, round(t0, 7), round(t1, 7)]
                                       for name, parent, t0, t1, _ in tracer.spans]
    result = {
        "warmup": records[0],
        "timed": records[1:],
        "kept": kept,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "last_traced_spans": spans,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
