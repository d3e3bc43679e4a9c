"""tools/compare_trees.py names where two runs differ."""

from __future__ import annotations

import json

from compare_trees import differences, json_paths, line_places


def test_json_paths_name_nested_keys_and_compare_by_type_and_repr():
    entries = [{"pair": [2000 + i, 2001 + i], "total_cost": float(i)} for i in range(5)]
    old = {"ranking": {"entries": entries}, "skew": float("nan"), "n": 1}
    new = json.loads(json.dumps(old))
    assert json_paths(old, new) == []  # NaN equals NaN
    new["ranking"]["entries"][3]["total_cost"] = 3.5
    new["n"] = 1.0
    assert json_paths(old, new) == ["n", "ranking.entries[3].total_cost"]


def test_line_places_name_unique_csv_labels_and_number_the_rest():
    old = ["year,cost", "2020,1.0", "2021,2.0", "2021,3.0"]
    new = ["year,cost", "2020,1.5", "2021,2.0", "2021,3.5"]
    assert line_places("ranking.csv", old, new) == ["2020", "line 4"]
    assert line_places("notes.txt", old, new) == ["line 2", "line 4"]


def test_differences_list_exit_code_stderr_modes_files_and_places():
    a = {"exit code": 0, "stdout": b"", "stderr": b"", "modes": {".": "0o755", "x.json": "0o644"},
         "tree": {"gone.txt": b"", "x.json": b'{"a": {"b": 1}}'}}
    b = {"exit code": 2, "stdout": b"", "stderr": b"error\n",
         "modes": {".": "0o755", "x.json": "0o600"},
         "tree": {"new.txt": b"", "x.json": b'{"a": {"b": 2}}'}}
    assert differences(a, a) == []
    assert differences(a, b) == ["exit code", "stderr", "mode of x.json: 0o644 -> 0o600",
                                 "only in parent: gone.txt", "only in change: new.txt",
                                 "x.json differs at a.b"]
