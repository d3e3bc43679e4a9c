"""Byte identity of whole output trees, pinned by sha256.

Each pinned scenario is taken by name from ``tools/compare_trees.py``'s
``SCENARIOS`` and run through its ``run()``, so this test and the by-hand
comparison of two trees cannot drift apart.  The golden file records the
numpy version and the platform its digests were taken on: a mismatch under
another numpy or platform is a portability finding, not a code change.

A change that sets out to change output bytes regenerates the goldens with

    PYTHONPATH=src:tools python3 tests/test_output_trees.py

and the diff of ``tests/golden_trees.json`` shows which files it changed.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import compare_trees
import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_trees.json"
PINNED = ("report-all", "report-all-band4")


def environment() -> dict:
    return {"numpy": np.__version__, "platform": platform.platform(),
            "python": platform.python_version()}


def tree_digests(name: str, workdir: Path) -> dict:
    """Exit code and the sha256 of each output file of one pinned scenario."""
    (argv, input_name), = [(argv, input_name) for scenario, argv, input_name
                           in compare_trees.SCENARIOS if scenario == name]
    assert input_name is None, "pinned scenarios generate their own input"
    result = compare_trees.run(ROOT / "src", argv, None, workdir)
    return {"exit code": result["exit code"],
            "files": {n: hashlib.sha256(data).hexdigest() for n, data in result["tree"].items()}}


@pytest.mark.parametrize("name", PINNED)
def test_output_tree_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = tree_digests(name, tmp_path / name)
    want = golden["scenarios"][name]
    changed = sorted(n for n in want["files"].keys() & got["files"].keys()
                     if want["files"][n] != got["files"][n])
    where = (f"goldens taken on {golden['environment']}, "
             f"this run on {environment()}")
    assert got["exit code"] == want["exit code"], where
    assert sorted(got["files"]) == sorted(want["files"]), where
    assert not changed, f"{len(changed)} files differ, first {changed[:5]}; {where}"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="golden-trees-") as tmp:
        scenarios = {name: tree_digests(name, Path(tmp) / name) for name in PINNED}
    GOLDEN.write_text(json.dumps({"environment": environment(), "scenarios": scenarios},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
