"""The benchmark's tracer wraps mtkit functions by name, so each name it
wraps must still exist in the library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A child process, because an install that fails partway leaves the wrappers
# it already set in place.
_INSTALL = ("import sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import tracing\n"
            "with tracing.Tracer().installed():\n"
            "    pass\n")


def test_every_name_the_tracer_wraps_exists():
    proc = subprocess.run([sys.executable, "-c", _INSTALL, str(ROOT / "src"),
                           str(ROOT / "perfbench")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
