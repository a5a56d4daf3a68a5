#!/usr/bin/env python3
"""Record the sha256 of every stage output for a range of seeds.

    python3 perfbench/record_digests.py --profile full --seeds 0-12

Each workload is set up and run once in-process per seed; a run whose
output checks fail is not recorded. The digests, with the machine
fingerprint they were taken on, go to perfbench/digests.json, which run.py
compares every stage output against. Record them only from a commit whose
output is known to be right: later changes must reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-12")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    run._import_mtkit()
    from workloads import WORKLOADS, make

    env = run.environment()
    data = {}
    if run.DIGESTS.is_file():
        with open(run.DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
    if data.get("fingerprint") != run.fingerprint(env):
        data = {"fingerprint": run.fingerprint(env)}
    table = data.setdefault(args.profile, {})
    for name in WORKLOADS:
        for seed in seeds:
            wl = make(name, seed, args.profile)
            workdir = run._workdir(name, seed)
            try:
                wl.setup(workdir)
                p = run.run_pass(wl, workdir, run.in_process())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if p.failures:
                print(f"{name} seed {seed}: not recorded: {p.failures}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {
                file: sha for files in p.digests.values() for file, sha in files.items()
            }
            print(f"{name} seed {seed}: {len(p.digests)} stages recorded")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
