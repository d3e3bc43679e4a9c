"""seasonwarp benchmark: end-to-end CLI runs with per-layer tracing.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload report-default --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 -m pytest -q bench      # self-tests

Each run generates its input CSV from the seed, times fresh interpreters
importing ``seasonwarp.cli`` (set-up), then starts one child process that
calls ``seasonwarp.cli.main`` in a loop for ``--seconds`` (see child.py).
The run and its children stay on one CPU, and gated times are calibrated
against a reference loop timed beside them (see REFERENCE_S).  Every
invocation is checked: exit code 0, no traceback, the same output-tree digest
as the first, and a tree that passes check.py.  Content checks are a function
of the bytes, so they run once per distinct digest.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes every other
invocation a traced one and prints the per-layer metrics instead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  A
record of the run (environment, digest, tail percentile, spans of the last
traced invocation) goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
# Pinned in every child: one BLAS thread (default OpenBLAS threads showed CPU
# time above wall time and widely varying medians) and a fixed hash seed.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
# Gated times are given at a fixed reference speed: each measured time is
# divided by the time of child.reference_seconds() taken just before it on the
# same CPU, then multiplied by REFERENCE_S, about that loop's time in a warm
# child on a 2.0 GHz Xeon vCPU (Python 3.11, numpy 2.4).  On a shared 2-vCPU
# virtual machine the same code ran up to a quarter slower or faster for
# minutes at a time.  Over ten runs of 20 s each, the spread of run medians
# (quartile distance over median) went from 0.12 to 0.04 on report-default,
# from 0.25 to 0.03 on stats-long and from 0.20 to 0.07 on
# report-allpairs-band4 once calibrated.  Uncalibrated wall times are kept in
# the record.
REFERENCE_S = 0.015

if not (SRC / "seasonwarp" / "cli.py").is_file():
    sys.exit(f"bench: no seasonwarp source tree at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))
os.environ.update(PINNED_ENV)  # before numpy loads, so the reference loop here matches the child's

import numpy as np  # noqa: E402

import seasonwarp.fixture  # noqa: E402
from check import build_expected, check_tree, cleaned_years  # noqa: E402
from inputs import BenchInput, long_history  # noqa: E402
from child import reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402


def fixture_input(seed: int) -> BenchInput:
    """The 15-year fixture of the first seed >= `seed` whose cleaned prices stay positive.

    For about one seed in seven, a spline-filled price gap overshoots below
    zero and is clamped to 0, and report-all then exits 2 because log
    differences are undefined.  Such seeds are skipped, and the run reports
    the skip.
    """
    skipped = []
    for s in itertools.count(seed):
        fx = seasonwarp.fixture.generate_fixture(s)
        _, years = cleaned_years(fx.csv_text, [(g.iso_year, g.iso_week) for g in fx.gap_weeks])
        if min(v.min() for v in years["modal_price"].values()) > 0:
            break
        skipped.append(s)
    note = f"fixture seed {s}"
    if skipped:
        note += f"; skipped {skipped}: a spline-filled price gap clamps to 0, report-all exits 2"
    return BenchInput(fx.csv_text, fx.gap_weeks, fx.arrival_spike_weeks + fx.price_spike_weeks, note)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    make_input: Callable[[int], BenchInput]
    all_pairs: bool = False
    band: int | None = None

    def argv(self, input_path: Path) -> list[str]:
        argv = [self.command, "--input", str(input_path)]
        if self.all_pairs:
            argv.append("--all-pairs")
        if self.band is not None:
            argv += ["--band", str(self.band)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload("report-default",
             "everyday report-all on the 15-year fixture: SVG-bound, few DTW pairs",
             "report-all", fixture_input),
    Workload("report-allpairs-band4",
             "report-all over all 210 year pairs with band 4: DTW figures, duplicate "
             "cumulative builds, output held in memory",
             "report-all", fixture_input, all_pairs=True, band=4),
    Workload("stats-long",
             "stats on 300 years (about 15.6k rows): CSV parse, weekly build, spline, "
             "ADF; no DTW and no SVG",
             "stats", lambda seed: long_history(seed, n_years=300, n_gaps=60, n_spikes=80)),
)}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "output_bytes": "bytes", "ok_ratio": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(".useful") or name.startswith("trace."):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)


def measure_setup(env: dict[str, str]) -> list[tuple[float, float]]:
    """(seconds, reference seconds) for fresh interpreters to import seasonwarp.cli.

    One untimed import warms the bytecode and file caches first.  A blocking
    wait times the exit exactly (``wait(timeout)`` polls in up to 50 ms
    steps); a timer kills an interpreter that hangs.
    """
    cmd = [sys.executable, "-c", "import seasonwarp.cli"]
    times = []
    for k in range(SETUP_SAMPLES + 1):
        reference = reference_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        guard = threading.Timer(60, proc.kill)
        guard.start()
        try:
            code = proc.wait()
        finally:
            guard.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"importing seasonwarp.cli exited with code {code}")
        if k:
            times.append((elapsed, reference))
    return times


def calibrated(seconds: float, reference: float) -> float:
    """`seconds` at the reference speed (see REFERENCE_S)."""
    return seconds / reference * REFERENCE_S


def environment(blas_threads: int | None, loadavg: tuple[float, ...]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "seasonwarp").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "pinned_env": PINNED_ENV,
        "loadavg_start": loadavg,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest p with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))  # nearest rank
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result object, record of the run) for one workload run."""
    loadavg = os.getloadavg()
    # The reference loop must share a CPU with what it calibrates: the two
    # vCPUs of a shared machine can run at different speeds at the same time.
    # Child processes inherit this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen_tracer = Tracer()
        if trace:
            gen_tracer.install()
        try:
            inp = w.make_input(seed)
        finally:
            gen_tracer.uninstall()
        input_path = work / "input.csv"
        input_path.write_text(inp.csv_text, encoding="utf-8")

        env = child_env()
        setup = [] if trace else measure_setup(env)
        spec = {"src": str(SRC), "argv": w.argv(input_path), "seconds": seconds,
                "work": str(work), "trace": trace}
        (work / "spec.json").write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(BENCH / "child.py"), str(work / "spec.json"),
                        str(work / "result.json")], env=env, check=True, cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S)
        child = json.loads((work / "result.json").read_text())

        expected = build_expected(w, inp.csv_text, [(g.iso_year, g.iso_week) for g in inp.gap_weeks])
        problems = {digest: check_tree(Path(tree), expected) for digest, tree in child["kept"].items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invocations = [child["warmup"]] + child["timed"]
    first_digest = invocations[0]["digest"]
    failures = []
    for k, inv in enumerate(invocations):
        why = []
        if inv["code"] != 0:
            why.append(f"exit code {inv['code']}")
        if inv["traceback"]:
            why.append("traceback: " + inv["traceback"].strip().splitlines()[-1])
        if inv["digest"] != first_digest:
            why.append("output-tree digest differs from the first invocation's")
        why += problems[inv["digest"]]
        if why:
            failures.append({"invocation": k, "problems": why})

    untraced = [r for r in child["timed"] if not r["traced"]]
    traced = [r for r in child["timed"] if r["traced"]]
    run_s = [calibrated(r["seconds"], r["reference_s"]) for r in untraced]
    attempted = len(invocations)
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"] if name != "trace.self_s"}
        # Per call: skipped fixture seeds each cost one more call.
        metrics["fixture.generate_fixture.self_s"] = (
            gen_tracer.self_times().get("fixture.generate_fixture", 0.0)
            / max(1, gen_tracer.calls()["fixture.generate_fixture"]))
        metrics["cli.files_written"] = invocations[0]["files"]
        metrics["cli.bytes_written"] = invocations[0]["bytes"]
        metrics["trace.coverage"] = statistics.median(
            r["layers"]["trace.self_s"] / r["seconds"] for r in traced)
        metrics["trace.overhead"] = (
            statistics.median(calibrated(r["seconds"], r["reference_s"]) for r in traced)
            / statistics.median(run_s) - 1.0)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(calibrated(*sample) for sample in setup),
            "peak_rss_mb": child["peak_rss_kib"] * 1024 / 1e6,
            "output_bytes": invocations[0]["bytes"],
            "ok_ratio": 1.0 - len(failures) / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": w.argv(Path("input.csv")),
        "input": inp.note,
        "environment": environment(child["blas_threads"], loadavg),
        "digest": first_digest,
        "failures": failures,
        "fail_ratio": len(failures) / attempted,
        "run_s_samples": run_s,
        "run_s_tail": tail_percentile(run_s),
        "run_s_wall_samples": [r["seconds"] for r in untraced],
        "setup_s_wall_samples": setup,
        "last_traced_spans": child["last_traced_spans"],
    }
    return result, record


def report_lines(w: Workload, result: dict, record: dict) -> list[str]:
    lines = [f"workload {w.name}: {w.why}"]
    if record["input"]:
        lines.append(f"  input: {record['input']}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        samples = record["run_s_samples"]
        tail = record["run_s_tail"]
        lines.append(f"  run_s samples: {len(samples)}; " + (
            f"p{tail[0]:g} = {tail[1]:.6g} s" if tail
            else "no percentile has ten samples beyond it"))
        wall = statistics.median(record["run_s_wall_samples"])
        lines.append(f"  run_s uncalibrated wall median: {wall:.6g} s")
        lines.append(f"  fail_ratio: {record['fail_ratio']:.6g}")
    lines.append(f"  output digest: sha256:{record['digest']}")
    for failure in record["failures"][:5]:
        lines.append(f"  FAILED invocation {failure['invocation']}: {'; '.join(failure['problems'])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    for name in names:
        w = WORKLOADS[name]
        result, record = run_workload(w, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        record["result"] = result
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        print("\n".join(report_lines(w, result, record)))
        print(json.dumps({"environment": record["environment"]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
