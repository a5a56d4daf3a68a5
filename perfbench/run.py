#!/usr/bin/env python3
"""Seeded benchmark of the mtkit CLI pipelines, end to end and per layer.

    python3 perfbench/run.py --workload curate --seed 1 --seconds 36 --trace 0

Run from a checkout of the repository (the source is imported from its
`src/`). Workloads: curate, translate, ensemble-sample (see workloads.py).

--trace 0 (end-to-end): sets the workload up several times (the median is
`setup_s`), then runs its whole stage sequence, one `mtkit` process per
stage as a user runs it, until --seconds have passed. `sentences_per_s` is
the median over those passes of input sentences / pass wall time
(process start-up and model loading included); `peak_rss_mb` is the largest
peak RSS of any stage process. Workloads that run with --threads 2 then
re-run, untimed and in-process, each stage that takes --threads at
--threads 1, which must give the same bytes.

--trace 1 (per layer): runs every workload once in-process through
`mtkit.cli.run` with the same argv, untraced and then traced (see
tracing.py), so each per-layer metric is measured whichever workload is
named; metric names carry the workload as a prefix. End-to-end metrics never
come from this run.

Every stage's output is checked: digest-independent invariants
(workloads.py), byte equality between passes, and the sha256 recorded in
digests.json for this seed when it was recorded on a machine with the same
fingerprint (record_digests.py). A stage that exits non-zero or fails a
check counts in `failed`. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report with the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed
# (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 3.0
STARTUP_REPEATS = 3
WORKLOAD_NAMES = ("curate", "translate", "ensemble-sample")  # as in workloads.WORKLOADS

# One CLI process per stage. It records its own peak RSS (VmHWM): the
# rusage of a child started from this large process would report at least
# the parent's RSS.
_BOOT = (
    "import os\n"
    "try:\n"
    "    from mtkit.cli import main\n"
    "    main()\n"
    "finally:\n"
    "    with open('/proc/self/status') as st:\n"
    "        hwm = next(line.split()[1] for line in st if line.startswith('VmHWM:'))\n"
    "    with open(os.environ['PERFBENCH_HWM'], 'w') as fh:\n"
    "        fh.write(hwm)\n"
)


class Refused(Exception):
    """The workload is degenerate or the checkout cannot be benchmarked."""


@dataclass
class StageRun:
    label: str
    subcommand: str
    rc: int
    wall: float
    rss_kb: int = 0
    error: str = ""


@dataclass
class Pass:
    wall: float
    runs: list[StageRun]
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# environment

def _import_mtkit():
    src = ROOT / "src"
    if not (src / "mtkit" / "cli.py").is_file():
        raise Refused(f"no mtkit source under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import mtkit

    if Path(mtkit.__file__).resolve().parent != (src / "mtkit").resolve():
        raise Refused(f"imported mtkit from {mtkit.__file__}, not from {src}")


def _openblas() -> tuple[int | None, str | None]:
    """Thread count and kernel (core) name of the OpenBLAS that numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None, None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            core = getattr(handle, f"{prefix}_get_corename{suffix}", None)
            if threads is not None and core is not None:
                threads.restype = ctypes.c_int
                core.restype = ctypes.c_char_p
                return int(threads()), core().decode()
    return None, None


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    blas_threads, blas_core = _openblas()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": blas_core,
        "blas_threads": blas_threads,
        "simd": config["SIMD Extensions"]["found"],
        "MTKIT_THREADS": os.environ.get("MTKIT_THREADS"),
    }


def fingerprint(env: dict) -> dict:
    """What the output bytes may depend on: BLAS kernels and numpy's SIMD
    dispatch round differently on other CPUs."""
    return {k: env[k] for k in ("cpu", "python", "numpy", "blas", "blas_core", "blas_threads",
                                "simd")}


def caveat(env: dict) -> str:
    return (f"caveat: --threads 2 vs nproc={env['nproc']}; langid-train and domain-train "
            f"also use {env['blas_threads']} OpenBLAS threads, so the data-side figures "
            f"depend on the core count")


def golden_digests(profile: str, workload: str, seed: int, env: dict):
    """Recorded digests for this seed, or None when there are none for this
    seed or they were recorded on a machine with another fingerprint."""
    if not DIGESTS.is_file():
        return None, "no digests.json"
    with open(DIGESTS, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("fingerprint") != fingerprint(env):
        return None, "digests.json was recorded with another machine fingerprint"
    recorded = data.get(profile, {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return None, f"no recorded digests for seed {seed}"
    return recorded, "recorded digests"


# ---------------------------------------------------------------------------
# running a pass

def _stage_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _last_line(path: Path) -> str:
    with contextlib.suppress(OSError):
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        if lines:
            return lines[-1][-300:]
    return ""


def run_process(stage, workdir: Path) -> StageRun:
    """Run one stage as its own `mtkit` process."""
    logs = workdir / "log"
    logs.mkdir(exist_ok=True)
    hwm = logs / f"{stage.label}.hwm"
    env = _stage_env()
    env["PERFBENCH_HWM"] = str(hwm)
    t0 = time.perf_counter()
    with open(logs / f"{stage.label}.err", "w", encoding="utf-8") as err:
        proc = subprocess.run([sys.executable, "-c", _BOOT, *stage.argv], cwd=workdir, env=env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
    wall = time.perf_counter() - t0
    rss = int(hwm.read_text()) if hwm.is_file() else 0
    run = StageRun(stage.label, stage.subcommand, proc.returncode, wall, rss)
    if proc.returncode != 0:
        run.error = f"exit {proc.returncode}: {_last_line(logs / f'{stage.label}.err')}"
    return run


def in_process(tracer=None):
    """Runner that calls `mtkit.cli.run` in this process, optionally traced."""
    from mtkit import cli

    def runner(stage, workdir: Path) -> StageRun:
        logs = workdir / "log"
        logs.mkdir(exist_ok=True)
        here = os.getcwd()
        error = ""
        os.chdir(workdir)
        t0 = time.perf_counter()
        try:
            with open(logs / f"{stage.label}.err", "w", encoding="utf-8") as err, \
                    contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.run(list(stage.argv))
                else:
                    with tracer.root(f"cli.{stage.subcommand}"):
                        rc = cli.run(list(stage.argv))
        except Exception as exc:  # a library bug must count as a failed stage
            rc, error = 1, f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - t0
            os.chdir(here)
        if rc != 0 and not error:
            error = f"exit {rc}: {_last_line(logs / f'{stage.label}.err')}"
        return StageRun(stage.label, stage.subcommand, rc, wall, 0, error)

    return runner


def run_pass(wl, workdir: Path, runner) -> Pass:
    """Run the whole stage sequence once; then (untimed) digest and check it."""
    from workloads import OUT, Glue, sha256_file, stages

    out = workdir / OUT
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    steps = wl.pipeline()
    todo = stages(wl)
    runs: list[StageRun] = []
    t0 = time.perf_counter()
    for step in steps:
        if isinstance(step, Glue):
            step.fn(workdir)
            continue
        runs.append(runner(step, workdir))
        if runs[-1].rc != 0:
            break
    result = Pass(time.perf_counter() - t0, runs)

    for run in runs:
        if run.rc != 0:
            result.failures[run.label] = run.error
    for stage in todo[len(runs):]:
        result.failures[stage.label] = "not run: an earlier stage failed"
    if result.failures:
        return result
    result.digests = {
        stage.label: {name: sha256_file(workdir / name) for name in stage.outputs}
        for stage in todo
    }
    try:
        result.failures.update(wl.check(workdir))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        for stage in todo:
            result.failures.setdefault(stage.label, f"output check raised {exc!r}")
    return result


def threads_check(wl, workdir: Path, reference: Pass) -> Pass:
    """Re-run in-process, at --threads 1, each stage that takes --threads.

    Its outputs must equal those of the measured pass. The later stages only
    read those outputs, so equal outputs there mean equal outputs throughout.
    """
    from workloads import sha256_file, stages

    runner = in_process()
    p = Pass(0.0, [])
    for stage in stages(wl):
        if "--threads" not in stage.argv:
            continue
        run = runner(stage.with_threads(1), workdir)
        p.runs.append(run)
        if run.rc != 0:
            p.failures[stage.label] = run.error
            continue
        p.digests[stage.label] = {name: sha256_file(workdir / name) for name in stage.outputs}
    compare(p, reference.digests, f"--threads 1 output differs from --threads {wl.threads}")
    return p


def compare(p: Pass, reference: dict | None, why: str) -> None:
    """Count stages whose output bytes differ from a reference as failed."""
    if not reference:
        return
    for label, files in p.digests.items():
        if label not in p.failures and files != reference.get(label):
            p.failures[label] = why


def _golden_view(p: Pass, golden: dict | None) -> dict | None:
    if golden is None:
        return None
    return {label: {name: golden.get(name) for name in files} for label, files in p.digests.items()}


# ---------------------------------------------------------------------------
# modes

def _workdir(name: str, seed: int) -> Path:
    path = WORK / f"{name}-{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _preflight(wl, workdir: Path, report: list[str]) -> None:
    if hasattr(wl, "preflight"):
        ok, msg = wl.preflight(workdir)
        report.append(msg)
        if not ok:
            raise Refused(f"degenerate {wl.name} workload: most top-1 hypotheses are a bare eos")


def end_to_end(name: str, seed: int, seconds: float, profile: str, env: dict, report: list[str]):
    from workloads import digest_inputs, make, stages

    wl = make(name, seed, profile)
    workdir = _workdir(name, seed)
    try:
        setup_times = []
        inputs = None
        while len(setup_times) < SETUP_MIN or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX):
            t0 = time.perf_counter()
            wl.setup(workdir)
            setup_times.append(time.perf_counter() - t0)
            again = digest_inputs(workdir)
            if inputs is not None and again != inputs:
                raise Refused("set-up is not deterministic for a fixed seed")
            inputs = again
        _preflight(wl, workdir, report)

        golden, golden_note = golden_digests(profile, name, seed, env)
        passes: list[Pass] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            p = run_pass(wl, workdir, run_process)
            compare(p, _golden_view(p, golden), "digest differs from the recorded one")
            compare(p, passes[0].digests if passes else None, "output differs from the first pass")
            passes.append(p)
            if len(passes) == 1 and hasattr(wl, "quality") and not p.failures:
                report.append(wl.quality(workdir))
        measured = time.perf_counter() - start
        checks = [f"output digests: {golden_note}"]
        extra: list[Pass] = []
        if wl.threads > 1:
            p1 = threads_check(wl, workdir, passes[-1])
            extra.append(p1)
            checks.append(f"--threads 1 == --threads {wl.threads} ({', '.join(p1.digests)}): "
                          f"{'yes' if not p1.failures else 'NO'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rates = sorted(wl.sentences / p.wall for p in passes)
    runs = [r for p in passes for r in p.runs]
    peak = max(runs, key=lambda r: r.rss_kb)
    attempted = len(passes) * len(stages(wl)) + sum(len(p.runs) for p in extra)
    failures = [(i, label, why) for i, p in enumerate(passes + extra) for label, why in p.failures.items()]
    metrics = {
        "sentences_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in runs) / 1024.0, "MB"),
    }
    report.append(f"workload {name} seed {seed}: {len(passes)} passes in {measured:.1f} s, "
                  f"{wl.sentences} sentences each")
    report.append(f"  sentences_per_s  median {metrics['sentences_per_s'][0]:.4f} 1/s, "
                  f"worst {rates[0]:.4f} 1/s (lowest of n={len(rates)} passes); all: "
                  + " ".join(f"{r:.4f}" for r in rates))
    report.append(f"  setup_s          median {metrics['setup_s'][0]:.4f} s of {len(setup_times)} set-ups")
    report.append(f"  peak_rss_mb      {metrics['peak_rss_mb'][0]:.1f} MB ({peak.label})")
    report.append(f"  failed_frac      {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    report.extend("  check: " + c for c in checks)
    stage_walls = {}
    for r in runs:
        stage_walls.setdefault(r.label, []).append(r.wall)
    report.append("  stage wall (median s): " + ", ".join(
        f"{k} {statistics.median(v):.3f}" for k, v in stage_walls.items()))
    report.extend(f"  FAILED pass {i} {label}: {why}" for i, label, why in failures)
    return metrics, attempted, len(failures)


def _startup_s() -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mtkit.cli"], env=_stage_env(), check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced(seed: int, profile: str, env: dict, report: list[str]):
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, make, stages

    metrics = {"cli.startup_s": _startup_s()}
    attempted = failed = 0
    spans_out = {}
    for name in WORKLOADS:
        wl = make(name, seed, profile)
        workdir = _workdir(name, seed)
        tracer = Tracer()
        try:
            with tracer.installed(), tracer.root("setup"):
                wl.setup(workdir)
            _preflight(wl, workdir, report)
            plain = run_pass(wl, workdir, in_process())
            with tracer.installed():
                traced_pass = run_pass(wl, workdir, in_process(tracer))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        golden, note = golden_digests(profile, name, seed, env)
        for p in (plain, traced_pass):
            compare(p, _golden_view(p, golden), "digest differs from the recorded one")
        compare(traced_pass, plain.digests, "traced output differs from the untraced output")
        subs = list(dict.fromkeys(s.subcommand for s in stages(wl)))
        layer = layer_metrics(name, tracer, subs, plain.wall, traced_pass.wall)
        metrics.update(layer)
        n_stages = len(stages(wl))
        attempted += 2 * n_stages
        failed += len(plain.failures) + len(traced_pass.failures)
        report.append(f"traced {name} seed {seed}: untraced {plain.wall:.3f} s, traced "
                      f"{traced_pass.wall:.3f} s in-process; {len(tracer.spans)} spans; "
                      f"output digests: {note}; traced == untraced: "
                      f"{'yes' if traced_pass.digests == plain.digests else 'NO'}")
        report.extend(f"  FAILED {label}: {why}"
                      for p in (plain, traced_pass) for label, why in p.failures.items())
        spans_out[name] = [list(s) for s in tracer.spans]
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"trace-{profile}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "spans": spans_out,
                   "fields": ["id", "parent", "thread", "name", "start", "end", "cpu_s", "fwd"]}, fh)
    from tracing import unit_of

    for key, value in metrics.items():
        report.append(f"  {key:58s} {value:.6g} {unit_of(key)}")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    report: list[str] = []
    try:
        _import_mtkit()
        env = environment()
        report.append("env: " + json.dumps(env, sort_keys=True))
        report.append(caveat(env))
        if args.trace:
            metrics, attempted, failed = traced(args.seed, args.profile, env, report)
        else:
            metrics, attempted, failed = end_to_end(
                args.workload, args.seed, args.seconds, args.profile, env, report)
    except Refused as exc:
        print("\n".join(report), file=sys.stderr)
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
