import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import seasonwarp
import seasonwarp.descriptive

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_imports_are_exported():
    blocks = re.findall(r"from seasonwarp import \(([^)]*)\)", README.read_text())
    assert blocks, "README has no `from seasonwarp import (...)` block"
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names - set(seasonwarp.__all__) == set()


def test_every_exported_name_resolves():
    assert len(set(seasonwarp.__all__)) == len(seasonwarp.__all__)
    missing = [name for name in seasonwarp.__all__ if not hasattr(seasonwarp, name)]
    assert missing == []


@pytest.mark.parametrize("code, loaded", [
    ("import seasonwarp", ["seasonwarp"]),
    ("from seasonwarp import describe",
     ["numpy", "seasonwarp", "seasonwarp.descriptive", "seasonwarp.errors"]),
], ids=["import", "one name"])
def test_package_root_imports_a_module_when_a_name_is_read(code, loaded):
    probe = (f"{code}; import sys; "
             "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('seasonwarp')))")
    src = str(Path(seasonwarp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out) == loaded


def test_package_root_keeps_no_name(monkeypatch):
    # A name rebound in its module, as a tracer does, is what the root gives.
    marker = object()
    monkeypatch.setattr(seasonwarp.descriptive, "describe", marker)
    assert seasonwarp.describe is marker
    assert "describe" not in vars(seasonwarp)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys, fixture42):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    (tmp_path / "market.csv").write_bytes(fixture42.csv_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    *_, costs = capsys.readouterr().out.splitlines()
    total, mean, length = costs.split()
    assert float(total) / int(length) == float(mean)


def _caller_sources() -> list[tuple[str, ast.Module]]:
    """(name, syntax tree) of each place a caller of the library may be: its
    own modules, the README's python blocks, the acceptance suite and the
    benchmark.  The benchmark's tracer finds functions by reflection, so its
    references name nothing."""
    paths = [*sorted((ROOT / "src" / "seasonwarp").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py",
             *(p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "tracer.py")]
    sources = [(p.relative_to(ROOT).as_posix(), ast.parse(p.read_text())) for p in paths]
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return sources + [(f"README.md python block {k}", ast.parse(code))
                      for k, code in enumerate(blocks)]


def _public_definitions(sources) -> list[tuple[str, str, bool, str, range]]:
    """(qualified name, name, whether it is a method, source, lines) of each
    public top-level function and class of a library module (``__init__``
    aside), and of each public method or property of such a class."""
    found = []
    for source, tree in sources:
        if not source.startswith("src/") or source.endswith("__init__.py"):
            continue
        module = Path(source).stem
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found.append((f"{module}.{node.name}", node.name, False, source,
                          range(node.lineno, node.end_lineno + 1)))
            if isinstance(node, ast.ClassDef):
                found += [(f"{module}.{node.name}.{f.name}", f.name, True, source,
                           range(f.lineno, f.end_lineno + 1))
                          for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name[0] != "_"]
    return found


def _unused(sources) -> list[str]:
    """The qualified names of the public definitions in `sources` that
    nothing there uses.  A function or class counts as used when its name is
    read, imported or taken as an attribute outside its own definition; a
    method or property only when it is taken as an attribute."""
    references = []
    for source, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                references.append((node.attr, True, source, node.lineno))
            elif isinstance(node, ast.Name):
                references.append((node.id, False, source, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                references += [(a.name, False, source, node.lineno) for a in node.names]
    return [
        qualified
        for qualified, name, method, home, lines in _public_definitions(sources)
        if not any(ref == name and (attribute or not method)
                   and not (source == home and line in lines)
                   for ref, attribute, source, line in references)
    ]


def test_every_public_name_has_a_caller():
    unused = _unused(_caller_sources())
    assert unused == [], "public, with no caller: " + ", ".join(unused)


def test_a_name_used_only_by_itself_or_as_a_bare_name_has_no_caller():
    module = """
def called(): ...
def recursive(): return recursive()
class Key:
    def read(self): return self.read()
    def named(self): ...
    def taken(self): ...
def _caller(key: Key): return called(), key.taken, named
"""
    other = "from seasonwarp.m import imported\n"
    sources = [("src/seasonwarp/m.py", ast.parse(module + "def imported(): ...\n")),
               ("bench/b.py", ast.parse(other))]
    assert _unused(sources) == ["m.recursive", "m.Key.read", "m.Key.named"]
