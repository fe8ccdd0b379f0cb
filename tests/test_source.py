"""Guards on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cheeger_atlas"


def test_every_loop_has_a_bound():
    # a for loop runs over a range or a sequence; a while loop ends only by
    # an argument, so the package has none
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.While)]
    assert not found, f"while loops at {found}"
