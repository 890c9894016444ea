"""filmcav benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a filmcav source tree (the directory holding
``src/filmcav``).  Each workload is a closed loop of one client: one
``filmcav`` CLI process at a time, with ``workers = 1``, BLAS threads at the
library default and the 128x32 desk grid.  Every process's artifacts are
checked; a nonzero exit code or a failed check counts as a failed run.

``--trace 0`` runs the full subcommand back to back until ``--seconds``
have passed (at least once), and starts the CLI several times before and
after those runs up to the subcommand entry only, to time set-up.  It
reports the end-to-end metrics.  ``--trace 1`` runs the workload once untraced and twice traced,
checks that the two traced runs give identical counts and that the counts
agree with the program's own reports, and reports the per-layer metrics.

The last line of standard output is the result object; the line before it,
and ``.perfbench_runs/<workload>-seed<N>-trace<T>.json``, hold the run
record (environment and per-process samples).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
LAUNCH = BENCH_DIR / "launch.py"

#: set-up-only starts per --trace 0 run (their median is setup_s)
SETUP_STARTS = 8
#: every process is killed once the run has lasted this long
RUN_DEADLINE_S = 170.0

#: stationary-sweep: eccentricities on a 1e-4 grid in [0.005, 0.40], in
#: units of 1e-4 (above 0.40 the solve reaches the critical radius).  The
#: grid keeps the per-point directory names, formatted with ``%g``, distinct.
SWEEP_POINTS = 80
SWEEP_ECC_LO, SWEEP_ECC_HI = 50, 4000
SWEEP_NEWTON_TOL = 1e-10

#: L_G max real part of the default stability run (dense eigvals)
LG_MAX_REAL = -57.0529465
REL_TOL = 1e-6


# ---------------------------------------------------------------------------
# Workloads and their output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An artifact does not hold the expected result."""


def read_summary(path: Path) -> dict[str, str]:
    pairs = (line.partition(" = ") for line in
             path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, sep, v in pairs if sep}


def read_column(path: Path, column: str) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    return [float(line.split(",")[col]) for line in lines[1:]]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


class Workload:
    """One CLI subcommand with fixed inputs and an artifact check.

    ``check`` raises :class:`CheckFailed` and returns the program's own
    reports that the traced run cross-checks its counts against.
    """

    name = ""
    command = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--out", str(out), "--workers", "1"]

    def check(self, out: Path) -> dict[str, int]:
        raise NotImplementedError

    def crosscheck(self, counts: dict, reports: dict) -> None:
        """Trace counts against the program's reports."""


class TransientDesk(Workload):
    name = "transient-desk"
    command = "transient"
    _reference = None

    def reference_rhat(self) -> list[float]:
        """R_hat of a Newton stationary solve at the same configuration:
        the fixed point the transient must reach, whatever its path."""
        if self._reference is None:
            sys.path.insert(0, str(self.root / "src"))
            from filmcav.config import RunConfig
            from filmcav.grid import gap_function
            from filmcav.stationary import solve_stationary
            cfg = RunConfig()
            grid = cfg.make_grid()
            R, _, report = solve_stationary(
                grid, gap_function(grid, cfg.params), cfg.velocity,
                cfg.params, cfg.newton)
            if not report.converged:
                raise CheckFailed("reference stationary solve did not converge")
            self._reference = list(R.ravel() / cfg.params.R0)
        return self._reference

    def check(self, out):
        summary = read_summary(out / "summary.txt")
        expect(summary.get("converged") == "true",
               f"transient did not converge: {summary}")
        rhat = read_column(out / "fields_final.csv", "R_hat")
        ref = self.reference_rhat()
        expect(len(rhat) == len(ref), "fields_final.csv has the wrong size")
        worst = max(rel_err(a, b) for a, b in zip(rhat, ref))
        expect(worst <= REL_TOL, f"final R_hat differs from the stationary "
                                 f"solution by {worst:.3g} relative")
        return {"steps": int(summary["steps"])}

    def crosscheck(self, counts, reports):
        expect(counts["dynamics.steps"] == reports["steps"],
               f"traced steps {counts['dynamics.steps']} != summary steps "
               f"{reports['steps']}")
        expect(counts["elliptic.factorize.calls"]
               == counts["dynamics.eliminate_pressure.calls"],
               "elliptic factorizations != pressure eliminations")


class StabilityDesk(Workload):
    name = "stability-desk"
    command = "stability"

    def check(self, out):
        first = (out / "stability_summary.txt").read_text(
            encoding="utf-8").splitlines()[0]
        found = re.fullmatch(r"operator L_G: verdict = (\w+), "
                             r"max real part = (\S+)", first)
        expect(found is not None, f"unexpected stability summary: {first!r}")
        verdict, max_real = found[1], float(found[2])
        expect(verdict == "stable", f"L_G verdict is {verdict}")
        expect(rel_err(max_real, LG_MAX_REAL) <= REL_TOL,
               f"L_G max real part {max_real} != {LG_MAX_REAL}")
        return {}


def sweep_values(seed: int) -> list[float]:
    """One eccentricity drawn uniformly from each of SWEEP_POINTS equal
    strata of the range, ascending.  Stratifying keeps the total Newton work
    within about 1 % from seed to seed; plain uniform draws vary it by 7 %."""
    rng = random.Random(seed)
    span = SWEEP_ECC_HI + 1 - SWEEP_ECC_LO
    edges = [SWEEP_ECC_LO + span * i // SWEEP_POINTS
             for i in range(SWEEP_POINTS + 1)]
    return [rng.randrange(lo, hi) / 10000 for lo, hi in zip(edges, edges[1:])]


class StationarySweep(Workload):
    name = "stationary-sweep"
    command = "sweep"

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.values = sweep_values(seed)
        self.config = work / "sweep.conf"
        self.config.write_text(
            f"# stationary-sweep workload, seed {seed}\n"
            "sweep_axis = ecc\n"
            "sweep_solver = stationary\n"
            f"newton_tol = {SWEEP_NEWTON_TOL!r}\n"
            "workers = 1\n"
            f"sweep_values = {','.join(map(repr, self.values))}\n",
            encoding="utf-8")

    def argv(self, out):
        return super().argv(out) + ["--config", str(self.config)]

    def check(self, out):
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        expect([float(r[0]) for r in rows] == self.values,
               "sweep.csv does not list the swept values")
        failed = [r[0] for r in rows if r[1] != "true"]
        expect(not failed, f"{len(failed)} of {len(rows)} points failed: "
                           f"{failed[:5]}")
        newton = 0
        for v in self.values:
            summary = read_summary(out / f"sweep_ecc_{v:g}" / "summary.txt")
            residual = float(summary["final_relative_residual"])
            expect(summary["converged"] == "true" and
                   residual < SWEEP_NEWTON_TOL,
                   f"ecc {v}: residual {residual} not below the tolerance")
            newton += sum(map(int, summary["newton_iterations"].split(",")))
        return {"newton_iterations": newton}

    def crosscheck(self, counts, reports):
        expect(counts["stationary.newton_iterations"]
               == reports["newton_iterations"],
               f"traced Newton iterations "
               f"{counts['stationary.newton_iterations']} != summaries "
               f"{reports['newton_iterations']}")


WORKLOADS = {w.name: w for w in (TransientDesk, StabilityDesk,
                                 StationarySweep)}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One CLI process, timed with this process's monotonic clock."""

    mode: str
    code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    cpu_s: float
    error: str | None = None
    record: dict = field(default_factory=dict, repr=False)


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        self.count = 0

    def spawn(self, mode: str, argv: list[str]) -> Sample:
        """Start the CLI, wait for it and take that child's own rusage."""
        self.count += 1
        record_path = self.work / f"process{self.count}.json"
        cmd = [sys.executable, str(LAUNCH), mode, str(record_path), "--",
               *argv]
        with open(self.work / f"process{self.count}.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(self.deadline - start, 0.0),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        record = {}
        if record_path.exists():
            record = json.loads(record_path.read_text(encoding="utf-8"))
            record_path.unlink()
        entered = record.get("entered")
        return Sample(mode=mode, code=code, wall_s=end - start,
                      setup_s=None if entered is None else entered - start,
                      peak_rss_mb=usage.ru_maxrss / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      error=None if code == 0 else f"exit code {code}",
                      record=record)

    def run_checked(self, workload: Workload, mode: str) -> tuple[Sample, dict]:
        out = self.work / f"out{self.count + 1}"
        sample = self.spawn(mode, workload.argv(out))
        reports = {}
        if sample.error is None:
            try:
                reports = workload.check(out)
            except (CheckFailed, OSError, ValueError, KeyError,
                    IndexError) as exc:
                sample.error = f"output check: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        return sample, reports


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, when it is the scipy-openblas
    build; None when it cannot be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload: Workload, runner: Runner, seconds: float):
    def setup_starts(n):
        return [runner.spawn("setup", workload.argv(runner.work / "setup"))
                for _ in range(n)]

    # set-up is timed before and after the full runs, so that a slow spell
    # of the machine weighs on fewer of its samples
    setups = setup_starts(SETUP_STARTS // 2)
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        sample, _ = runner.run_checked(workload, "run")
        runs.append(sample)
        if sample.error or time.monotonic() > runner.deadline:
            break
    setups += setup_starts(SETUP_STARTS - SETUP_STARTS // 2)
    errors = [f"set-up start: {s.error or 'subcommand not entered'}"
              for s in setups if s.error or s.setup_s is None]
    setup = [s.setup_s for s in setups + runs if s.setup_s is not None]
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in runs),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    return runs, setups, errors, metrics


def traced(workload: Workload, runner: Runner):
    plain, _ = runner.run_checked(workload, "run")
    runs, errors, per_process = [plain], [], []
    for _ in range(2):
        sample, reports = runner.run_checked(workload, "trace")
        runs.append(sample)
        spans = sample.record.pop("spans", [])
        if sample.error:
            break
        counts = sample.record["counts"]
        layer = tracer.layer_metrics(spans, counts)
        counts.update((k, v) for k, v in layer.items() if k.endswith(".calls"))
        try:
            workload.crosscheck(counts, reports)
        except CheckFailed as exc:
            sample.error = f"trace cross-check: {exc}"
            break
        per_process.append((counts, layer))
    if any(s.error for s in runs):
        return runs, [], errors, {}
    if per_process[0][0] != per_process[1][0]:
        errors.append("two traced runs gave different counts")
    metrics = tracer.median_metrics([m for _, m in per_process])
    metrics["trace.wall_s"] = statistics.median(s.wall_s for s in runs[1:])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain.wall_s
    return runs, [], errors, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "filmcav" / "cli.py").is_file():
        print(f"no filmcav source tree under {root}: expected "
              "src/filmcav/cli.py", file=sys.stderr)
        return 2
    work = root / ".perfbench_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)
    workload = WORKLOADS[args.workload](root, work, args.seed)

    if args.trace:
        runs, setups, errors, metrics = traced(workload, runner)
    else:
        runs, setups, errors, metrics = end_to_end(workload, runner,
                                                   args.seconds)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                      "match BENCHMARK.json")
    failed = sum(1 for s in runs if s.error)
    for message in errors + [s.error for s in runs if s.error]:
        print(f"{args.workload}: {message}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "failed_frac": failed / len(runs),
        "setup_starts": [asdict(s) for s in setups],
        "runs": [asdict(s) for s in runs],
    }
    (root / ".perfbench_runs"
     / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v
                    in metrics.items() if k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
