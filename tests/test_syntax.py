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


# public names that nothing in the package or its benchmark calls, kept for
# the user, each with its reason
_USER_API = {
    "models.save_checkpoint": "the user's way to write an NMTC checkpoint for avg-checkpoints",
}


def test_every_public_name_is_used_outside_the_tests():
    # no public function or class stays that only tests call; a name counts
    # as used when src/mtkit or perfbench names it anywhere but in its own
    # definition: in an expression, an import or a string (perfbench's
    # tracing wraps functions by name)
    public, used = [], set()
    paths = sorted(path for top in ("src/mtkit", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert any(path.name == "run.py" for path in paths)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.parent.name == "mtkit":
            public += [f"{path.stem}.{node.name}" for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert "corpus.LangIdModel" in public
    assert sorted(name for name in public if name.partition(".")[2] not in used) == \
        sorted(_USER_API)
