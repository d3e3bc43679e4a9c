import re
from pathlib import Path

import seasonwarp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported():
    blocks = re.findall(r"from seasonwarp import \(([^)]*)\)", README.read_text())
    assert blocks, "README has no `from seasonwarp import (...)` block"
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names - set(seasonwarp.__all__) == set()


def test_every_exported_name_resolves():
    assert len(set(seasonwarp.__all__)) == len(seasonwarp.__all__)
    missing = [name for name in seasonwarp.__all__ if not hasattr(seasonwarp, name)]
    assert missing == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys, fixture42):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    (tmp_path / "market.csv").write_bytes(fixture42.csv_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    *_, costs = capsys.readouterr().out.splitlines()
    total, mean, length = costs.split()
    assert float(total) / int(length) == float(mean)
