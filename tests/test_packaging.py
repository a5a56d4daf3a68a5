"""Every file under src/mtkit/data/ matches a [tool.setuptools.package-data]
glob, so a wheel ships it. An editable install, as CI's, loads a file the
globs leave out, so nothing else would notice one missing from a wheel."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_data_file_is_package_data():
    import tomllib
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    package = ROOT / "src" / "mtkit"
    # setuptools expands each glob relative to the package's directory
    shipped = {path for pattern in config["tool"]["setuptools"]["package-data"]["mtkit"]
               for path in package.glob(pattern)}
    data = {path for path in (package / "data").rglob("*")
            if path.is_file() and "__pycache__" not in path.parts}
    assert {"en_prefixes.txt", "ziggurat.txt"} <= {path.name for path in data}
    assert sorted(str(path.relative_to(package)) for path in data - shipped) == []
