"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest version pyproject.toml allows, so a construct from a
later version fails here on any interpreter the suite runs under."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert any(path.name == "corpus.py" for path in paths)
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def _annotation_names(node) -> set[str]:
    """The names an annotation uses, reading a string annotation as code."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_src_modules_use_every_name_they_import():
    # a deletion can leave an import behind, in the package, its tests or its
    # benchmark; a name counts as used when any expression or annotation, a
    # string one included, names it
    unused = []
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert any(path.name == "test_syntax.py" for path in paths)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
                used |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                used |= _annotation_names(node.returns)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
