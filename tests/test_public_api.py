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
