#!/usr/bin/env python3
"""Fast smoke test of the benchmark at a tiny input size (about ten seconds).

    python3 perfbench/smoke.py

Runs every stage of every workload once as CLI processes (with the output
checks and, where the workload uses two threads, the one-thread pass), then
the traced run. A second seed runs translate again for the
degenerate-workload guard. It checks that the metric names and units match
BENCHMARK.json, and that the benchmark refuses to run in a directory
holding only BENCHMARK.json and perfbench/. Exits non-zero on the first
problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    if code != 0 or not lines:
        raise AssertionError(f"run.py {' '.join(argv)} exited {code}")
    notes = {line.split("output digests: ")[1].split(";")[0]
             for line in lines if "output digests: " in line}
    print(f"smoke: run.py {' '.join(argv)}: digests checked against {', '.join(sorted(notes))}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"run.py {' '.join(argv)} failed:\n{out.getvalue()}")
    return result


def _declared(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def _units(result: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = [(name, 0) for name in run.WORKLOAD_NAMES] + [("translate", 1)]
    for workload, seed in runs:
        result = _run(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                       "--profile", "tiny"])
        if _units(result) != _declared(spec, "end_to_end"):
            raise AssertionError(f"end-to-end metrics differ from BENCHMARK.json: "
                                 f"{sorted(_units(result))}")
    result = _run(["--workload", "curate", "--seed", "0", "--trace", "1", "--profile", "tiny"])
    if _units(result) != _declared(spec, "per_layer"):
        missing = set(_declared(spec, "per_layer")) ^ set(_units(result))
        raise AssertionError(f"per-layer metrics differ from BENCHMARK.json: {sorted(missing)}")

    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(spec["command"] + ["--workload", "curate", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark ran without the mtkit source")
    print("smoke: refuses to run without the source: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
