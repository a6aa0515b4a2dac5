"""End-to-end benchmark of the flexlogit CLI.

    python3 bench/run.py --workload {bootstrap,crossval,policy} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and uses the package under ``src/``
(it byte-compiles it first; there is nothing else to build). Inputs are
generated from ``--seed`` before any timing, into ``.bench_work/``, and every
CLI command runs there as a fresh ``python3 -m flexlogit`` process, one at a
time, each started after the previous one exits (a closed loop with one
client). The workload is repeated until ``--seconds`` have passed, and at
least twice, so that the outputs of two reruns can be compared byte for byte.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics, medians over the repetitions:

* ``wall_s``: first CLI spawn to last CLI exit, per repetition;
* ``cpu_s``: user + system CPU time of those processes;
* ``setup_s``: a fresh interpreter importing ``flexlogit.cli``, loading the
  workload's CSV and compiling the design of its first spec (median of one
  sample before each repetition and one after the last, after a warm-up);
* ``peak_rss_mb``: the largest max-RSS of a repetition's CLI processes;
* ``ok_frac``: 1 - failed_frac, the share of operations (CLI commands,
  set-up runs, output checks, rerun comparisons, cross-validation cells)
  that succeeded.

With ``--trace 1`` the repetitions alternate between plain and traced CLI
processes (``bench/tracing.py``). The last line reports the per-layer
metrics of the traced repetitions (medians) and ``trace.overhead_frac``, the
median ratio of a traced repetition's wall time to the plain one before it,
minus 1. Spans are kept under ``.bench_work/<workload>/spans/`` and a full
record of the run, with its machine context, under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_PY = Path(__file__).with_name("tracing.py")

MIN_REPS = 2
# Every child is killed past this point, so the run ends within 180 s.
DEADLINE_S = 165.0

SETUP_CODE = """\
import sys
import flexlogit.cli
from flexlogit.data import load_csv
from flexlogit.likelihood import ModelSpec, build_design
build_design(load_csv(sys.argv[1]), ModelSpec.from_json(sys.argv[2]))
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_ns_per_row"):
        return "ns/row"
    if name.endswith("_per_s"):
        return "points/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("speedup") or name.endswith("_frac"):
        return "ratio"
    return "count"


class Runner:
    """Spawns CLI processes for one workload run and tallies operations."""

    def __init__(self, workload: str, seed: int, inputs: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.log = open(inputs / "cli.log", "ab")

    def record(self, what: str, failure: str = "") -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")

    def spawn(self, cmd) -> tuple[int, float, float, float]:
        """Run one child to completion: (exit code, wall s, cpu s, max RSS MB)."""
        start = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=self.inputs, env=self.env,
                             stdout=self.log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(self.deadline - start, 0.0), p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        return (p.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def setup_time(self) -> float:
        spec = workloads.setup_spec(self.workload)
        rc, wall, _, _ = self.spawn(
            [sys.executable, "-c", SETUP_CODE, "data.csv", spec])
        self.record("setup", f"exit code {rc}" if rc else "")
        return wall

    def repetition(self, spans_dir: Path | None) -> dict:
        """One pass over the workload's CLI commands."""
        cpu = rss = 0.0
        start = time.perf_counter()
        for i, argv in enumerate(workloads.commands(self.workload, self.seed)):
            if spans_dir is None:
                cmd = [sys.executable, "-m", "flexlogit", *argv]
            else:
                cmd = [sys.executable, str(TRACE_PY), str(spans_dir / f"{i}.json"),
                       *argv]
            rc, _, c, r = self.spawn(cmd)
            cpu += c
            rss = max(rss, r)
            self.record(argv[0], f"exit code {rc}" if rc else "")
        return {"wall_s": time.perf_counter() - start, "cpu_s": cpu, "peak_rss_mb": rss,
                "traced": spans_dir is not None}

    def output_digest(self) -> dict[str, str]:
        out = self.inputs / "out"
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}

    def close(self) -> None:
        self.log.close()


def cv_cells(runner: Runner, got: dict) -> None:
    for cell, (_, _, converged) in sorted(got["cells"].items()):
        runner.record(f"cv cell {cell}", "" if converged else "converged = 0")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
    }


def measure(args, runner: Runner) -> tuple[list[dict], list[float]]:
    runner.setup_time()  # warm-up: file cache and imports, not reported
    setups, reps, first_digest = [], [], None
    start = last = time.perf_counter()
    step = 0.0
    # stop at the repetition boundary nearest to --seconds
    while len(reps) < MIN_REPS or last + step / 2 - start < args.seconds:
        # one set-up sample before every repetition, so that set-up and the
        # workload are sampled over the same stretch of machine time
        setups.append(runner.setup_time())
        traced = bool(args.trace) and len(reps) % 2 == 1
        spans_dir = None
        if traced:
            spans_dir = runner.inputs / "spans" / f"rep{len(reps)}"
            spans_dir.mkdir(parents=True)
        rep = runner.repetition(spans_dir)
        reps.append(rep)
        digest = runner.output_digest()
        if first_digest is None:
            first_digest = digest
        else:
            runner.record("rerun_identical", "" if digest == first_digest else
                          "outputs differ from the first repetition")
        if args.workload == "crossval":
            cv_cells(runner, checks.extract("crossval", runner.inputs / "out"))
        now = time.perf_counter()
        step, last = now - last, now
        if now > runner.deadline - 2 * step:
            break
    setups.append(runner.setup_time())
    return reps, setups


def check_outputs(args, runner: Runner) -> list[tuple[str, str]]:
    ref = checks.load_reference(args.workload,
                                 workloads.reference_key(args.workload, args.seed))
    if ref is None:
        results = [("reference", "no reference for this input set")]
    else:
        try:
            got = checks.extract(args.workload, runner.inputs / "out")
        except (OSError, KeyError, ValueError) as e:
            results = [("outputs_readable", f"{type(e).__name__}: {e}")]
        else:
            n_obs = {"bootstrap": workloads.BOOTSTRAP_N,
                     "crossval": workloads.CROSSVAL_N}.get(args.workload,
                                                          workloads.POLICY_N)
            results = checks.check(args.workload, got, ref, n_obs)
    for name, failure in results:
        runner.record(f"check {name}", failure)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "flexlogit" / "cli.py").is_file():
        print(f"error: no flexlogit sources under {SRC}; run from the root of "
              "a flexlogit checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    inputs = WORK / args.workload
    shutil.rmtree(inputs, ignore_errors=True)
    workloads.generate(args.workload, args.seed, inputs)
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                           capture_output=True, text=True)
    if build.returncode:
        print(f"error: byte-compiling {SRC} failed:\n{build.stdout}{build.stderr}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, inputs, deadline)
    try:
        reps, setups = measure(args, runner)
        results = check_outputs(args, runner)
    finally:
        runner.close()

    plain = [r for r in reps if not r["traced"]]
    if args.trace:
        per_rep = [tracing.layer_metrics(tracing.load_spans(
            sorted((inputs / "spans" / f"rep{i}").glob("*.json"),
                   key=lambda p: int(p.stem))))
                   for i, r in enumerate(reps) if r["traced"]]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        # each traced repetition against the plain one just before it, so
        # both see the same stretch of machine time
        metrics["trace.overhead_frac"] = statistics.median(
            reps[i]["wall_s"] / reps[i - 1]["wall_s"]
            for i in range(1, len(reps), 2)) - 1.0
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(r[k] for r in plain)
                   for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_frac"] = 1.0 - len(runner.failures) / runner.attempted
        units = END_TO_END_UNITS

    ctx = context()
    failed = len(runner.failures)
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("context " + json.dumps(ctx, sort_keys=True))
    for i, r in enumerate(reps):
        print(f"rep {i}{' traced' if r['traced'] else ''}: wall {r['wall_s']:.3f} s, "
              f"cpu {r['cpu_s']:.3f} s, peak rss {r['peak_rss_mb']:.1f} MB")
    print("setup_s samples " + " ".join(f"{s:.3f}" for s in setups))
    for name, failure in results:
        print(f"check {name}: {'FAIL ' + failure if failure else 'ok'}")
    for f in runner.failures:
        print(f"failed: {f}")
    print(f"failed_frac {failed / runner.attempted!r} ({failed} of "
          f"{runner.attempted} operations: CLI commands, setup runs, output "
          f"checks, rerun comparisons and cross-validation cells)")
    for k in sorted(metrics):
        print(f"{k} {metrics[k]!r} {units[k]}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"args": vars(args), "context": ctx, "reps": reps,
                                  "setup_s": setups, "checks": results,
                                  "failures": runner.failures, "result": result},
                                 indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
