"""Rules on the package source that no behaviour test would catch."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "equipart"

#: core and feasibility decide in exact integers; float keys belong to the search.
EXACT = {"core.py", "feasibility.py"}


def test_stdlib_imports_raised_checks_and_an_exact_verdict():
    # Runtime imports are of equipart or the standard library, checks raise
    # rather than assert (python -O strips an assert), and the verdict has no
    # true division.
    bad = []
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                bad.append(f"{path.name}:{node.lineno}: assert (python -O strips it; raise instead)")
                continue
            if path.name in EXACT and isinstance(getattr(node, "op", None), ast.Div):
                bad.append(f"{path.name}:{node.lineno}: true division (use exact integers)")
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one (inside equipart)
            for name in names:
                top = name.partition(".")[0]
                if top != "equipart" and top not in sys.stdlib_module_names:
                    bad.append(f"{path.name}:{node.lineno}: {name}")
    assert not bad, "\n".join(bad)
