"""Regenerate ``reference.json`` from the CLI of the current checkout.

    python3 bench/make_reference.py [--workload W ...]

Runs every workload's CLI commands once per reference key and stores the values
``checks.extract`` reads. Only run this to take references at a commit whose
outputs are known to be right: the checks compare later commits against it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import checks
import workloads
from run import SRC, WORK


def reference_for(workload: str, seed: int) -> dict:
    inputs = WORK / "reference" / workload
    shutil.rmtree(inputs, ignore_errors=True)
    workloads.generate(workload, seed, inputs)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in workloads.commands(workload, seed):
        done = subprocess.run([sys.executable, "-m", "flexlogit", *argv],
                              cwd=inputs, env=env, capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"{workload} seed {seed}: {argv[0]} exited "
                             f"{done.returncode}\n{done.stderr}")
    return checks.extract(workload, inputs / "out")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    ref = {}
    if checks.REFERENCE.is_file():
        ref = json.loads(checks.REFERENCE.read_text())
    for workload in args.workload or workloads.WORKLOADS:
        ref[workload] = {}
        keys = {workloads.reference_key(workload, n)
                for n in range(workloads.N_INPUT_SETS)}
        for s in sorted(keys):
            start = time.perf_counter()
            ref[workload][str(s)] = reference_for(workload, s)
            print(f"{workload} seed {s}: {time.perf_counter() - start:.1f} s",
                  flush=True)
    checks.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
