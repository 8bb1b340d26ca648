import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cuboidlift"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _package_modules(tree) -> set:
    """The cuboidlift modules a module imports, at any depth of its tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cuboidlift"):
            rest = node.module.partition(".")[2]
            found.update([rest.split(".")[0]] if rest else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("cuboidlift."))
    return found


def test_generator_imports_only_what_it_generates_with():
    # the generator builds scenes from geometry, the file types and the
    # expert records; the pipeline, the metrics and the config stay out
    tree = ast.parse((SRC / "synth.py").read_text())
    assert _package_modules(tree) <= {"geom", "ingest", "prior"}
