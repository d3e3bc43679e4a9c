"""Run the byte-identity scenarios on two source trees and diff their results.

Usage, from the root of a checkout:

    python3 tools/compare_trees.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``seasonwarp`` package, such as a
checkout's ``src/``.  Every scenario runs ``python -m seasonwarp.cli`` once per
tree, each in a fresh working directory with the same relative ``--input`` and
``--out-dir``, so messages that name them read the same.  The output trees are
compared file by file, together with stdout, stderr and the exit code.  One
line per scenario is printed; the exit code is 1 if any scenario differs.

The long-history input is ``bench/inputs.long_history(501, 300, 60, 80)``,
made once with PARENT_SRC's ``seasonwarp`` on the path.  ``bench/`` is only
imported, never changed.  The DTW scenario on it is limited to the prices of
2000..2010, because all 44,850 pairs of 300 years would write tens of GB.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LONG_HISTORY = (501, 300, 60, 80)

# (name, argv after the subcommand's --out-dir, reads the long-history input)
SCENARIOS = (
    ("report-all", ["report-all"], False),
    ("report-all-band4", ["report-all", "--seed", "201", "--all-pairs", "--band", "4"], False),
    ("report-all-winsorize",
     ["report-all", "--winsorize", "--normalize", "zscore", "--years", "2012..2020"], False),
    ("long-clean", ["clean"], True),
    ("long-stats-winsorize", ["stats", "--winsorize"], True),
    ("long-seasonal-ma", ["seasonal", "--detrend", "moving-average"], True),
    ("long-dtw", ["dtw", "--variable", "price", "--years", "2000..2010", "--all-pairs",
                  "--band", "3", "--dump-matrices", "--normalize", "zscore"], True),
)


def long_history_csv(src: Path) -> bytes:
    code = ("import sys; from inputs import long_history; "
            "sys.stdout.buffer.write(long_history(*map(int, sys.argv[1:])).csv_text.encode())")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{BENCH}")
    return subprocess.run([sys.executable, "-c", code, *map(str, LONG_HISTORY)],
                          env=env, check=True, capture_output=True).stdout


def run(src: Path, argv: list[str], data: bytes | None, workdir: Path) -> dict:
    """Exit code, stdout, stderr and output tree of one CLI run."""
    workdir.mkdir(parents=True)
    if data is not None:
        (workdir / "input.csv").write_bytes(data)
        argv = [argv[0], "--input", "input.csv", *argv[1:]]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "seasonwarp.cli", *argv, "--out-dir", "out"],
                          cwd=workdir, env=env, capture_output=True)
    out = workdir / "out"
    tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "tree": tree}


def differences(a: dict, b: dict) -> list[str]:
    found = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    names_a, names_b = set(a["tree"]), set(b["tree"])
    found += [f"only in parent: {n}" for n in sorted(names_a - names_b)]
    found += [f"only in change: {n}" for n in sorted(names_b - names_a)]
    found += [f"{n} differs" for n in sorted(names_a & names_b) if a["tree"][n] != b["tree"][n]]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    long_csv = long_history_csv(parent)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        for name, scenario, long_input in SCENARIOS:
            data = long_csv if long_input else None
            a = run(parent, scenario, data, Path(tmp) / "parent" / name)
            b = run(change, scenario, data, Path(tmp) / "change" / name)
            found = differences(a, b)
            failed += bool(found)
            detail = "; ".join(found[:5]) if found else f"{len(a['tree'])} files"
            print(f"{'DIFF' if found else 'same'}  {name} (exit {a['exit code']}): {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
