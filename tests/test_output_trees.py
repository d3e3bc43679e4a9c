"""Byte identity of whole output trees, pinned by sha256.

Every scenario of ``tools/compare_trees.py``'s ``SCENARIOS`` is pinned and
run through its ``run()``, so this test and the by-hand comparison of two
trees cannot drift apart.  Beside each file's digest the golden file records
the exit code and the sha256 of stderr, so a warning or an error message that
changes fails too.  The golden file records the numpy version and the
platform its digests were taken on: a mismatch under another numpy or
platform is a portability finding, not a code change.

``run()`` starts every child with ``OPENBLAS_NUM_THREADS=1``, the thread
count that ``test_unitroot``'s BLAS-thread test holds two threads to, so no
digest rests on the core count of the host the goldens are taken on.

A change that sets out to change output bytes regenerates the goldens with

    PYTHONPATH=src:tools python3 tests/test_output_trees.py

and the diff of ``tests/golden_trees.json`` shows which files it changed;
``tools/compare_trees.py`` then says where in them.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import compare_trees
import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_trees.json"
SCENARIOS = {name: (argv, input_name) for name, argv, input_name in compare_trees.SCENARIOS}


def environment() -> dict:
    return {"numpy": np.__version__, "platform": platform.platform(),
            "python": platform.python_version()}


def tree_digests(workdir: Path) -> dict:
    """Exit code, the sha256 of stderr and the sha256 of each output file of
    every scenario, by name, two children at a time."""
    inputs = {input_name: compare_trees.input_csv(ROOT / "src", input_name)
              for input_name in compare_trees.INPUT_CODE}

    def digests(name: str) -> dict:
        argv, input_name = SCENARIOS[name]
        result = compare_trees.run(ROOT / "src", argv, inputs.get(input_name), workdir / name)
        return {"exit code": result["exit code"],
                "stderr": hashlib.sha256(result["stderr"]).hexdigest(),
                "files": {n: hashlib.sha256(data).hexdigest()
                          for n, data in result["tree"].items()}}

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(SCENARIOS, pool.map(digests, SCENARIOS)))


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    return tree_digests(tmp_path_factory.mktemp("trees"))


@pytest.mark.parametrize("name", tuple(SCENARIOS))
def test_output_tree_matches_golden(name, trees):
    golden = json.loads(GOLDEN.read_text())
    got = trees[name]
    want = golden["scenarios"][name]
    changed = sorted(n for n in want["files"].keys() & got["files"].keys()
                     if want["files"][n] != got["files"][n])
    where = (f"goldens taken on {golden['environment']}, "
             f"this run on {environment()}")
    assert got["exit code"] == want["exit code"], where
    assert got["stderr"] == want["stderr"], where
    assert sorted(got["files"]) == sorted(want["files"]), where
    assert not changed, f"{len(changed)} files differ, first {changed[:5]}; {where}"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="golden-trees-") as tmp:
        scenarios = tree_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"environment": environment(), "scenarios": scenarios},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
