"""semicl benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload train_uni --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. Each job is a semicl CLI command in a fresh process, run back
to back for up to ``--seconds`` (a closed loop with one client). ``--trace 0``
reports the end-to-end metrics named in BENCHMARK.json; ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics. Every
job passes the output gate in ``workloads.py`` or counts as failed, and any
failure makes the command exit 1. The last stdout line is the result JSON;
the line before it is a detail JSON with the machine block, sample counts and
per-job records.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, output_digest  # noqa: E402

# Set-up probes per untraced run, each under 2 s, paced over the whole run.
SETUP_REPS = 9
# At least two jobs per run; a traced run's untraced+traced pair counts as two.
MIN_JOBS = 2
JOB_TIMEOUT_S = 150.0
# No job starts after this many seconds, so a run ends well inside 180 s.
START_DEADLINE_S = 120.0
# The speed probe's slice time on the reference machine (a 2-vCPU Xeon; see
# README). End-to-end times are scaled by SPEED_REF_S / (trimmed mean slice time).
SPEED_REF_S = 0.35


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest tenth (rounded) of the values.

    A stall of a few tenths of a second doubles a slice or a short set-up
    probe but adds only a few percent to a job; dropping the extremes keeps
    it from moving a run's figure.
    """
    v = sorted(values)
    k = round(len(v) / 10)
    return statistics.fmean(v[k:len(v) - k])


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def child_env() -> dict[str, str]:
    """Inherited environment with the checkout's src first on the path.

    Thread variables are passed through unchanged; the benchmark sets none.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one process to completion; return its wall, CPU, peak RSS and exit code."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_block() -> dict:
    import hashlib

    import numpy as np

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind = _read(str(idx / "level")).strip(), _read(str(idx / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = got.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "semicl").glob("*.py")):
        src_hash.update(p.name.encode() + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

def oracle_accuracy(spec: dict) -> float:
    """Bandpower-oracle accuracy of the job's input data (semicl.synth)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from semicl.data import load_csv
    from semicl.synth import oracle_accuracy as oracle, synth_generate

    dataset = synth_generate(**spec["synth"]) if "synth" in spec else load_csv(spec["manifest"])
    return oracle(dataset)


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, size: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = SIZES[size]
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.jobs: list[dict] = []
        self.digest: str | None = None
        self.setup_walls: list[float] = []
        self.speed: list[float] = []
        self.n_jobs = 0

    def checkpoint(self, argv: list[str], out: Path) -> Path:
        """Train the eval checkpoint at set-up; not part of any timed metric."""
        res = run_child([sys.executable, "-m", "semicl.cli", *argv, "--out", str(out)],
                        self.work, self.work / "ckpt.log")
        if res["exit"] != 0:
            raise BenchError(f"checkpoint training exited {res['exit']}; see {self.work / 'ckpt.log'}")
        return out

    def run_job(self, job, traced: bool) -> dict:
        self.n_jobs += 1
        out = self.work / f"job{self.n_jobs}"
        cli = [*job.argv, "--out", str(out)]
        spans = self.work / f"job{self.n_jobs}.spans.csv"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *cli]
        else:
            argv = [sys.executable, "-m", "semicl.cli", *cli]
        rec = run_child(argv, self.work, self.work / f"job{self.n_jobs}.log")
        rec["speed_s"] = self.speed_probe()
        rec["traced"] = traced
        problems = []
        if rec["exit"] != 0:
            tail = (self.work / f"job{self.n_jobs}.log").read_text(errors="replace")[-400:]
            problems.append(f"exit code {rec['exit']}: {tail}")
        else:
            rec["test_f1"], problems = job.check(out)
            digest = output_digest(out)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("output bytes differ from the first job of this run")
        if traced and rec["exit"] == 0:
            span_rows = tracer.read_spans(spans)
            summary = json.loads(spans.with_suffix(".json").read_text())
            rec["layers"] = tracer.layer_metrics(span_rows, summary)
            rec["top_self"] = tracer.top_self(span_rows)
            if rec["layers"]["train.step_rows"] != job.step_rows:
                problems.append(f"traced step rows {rec['layers']['train.step_rows']:.0f} "
                                f"!= counted rows {job.step_rows}")
        rec["problems"] = problems
        self.problems.extend(f"job {self.n_jobs}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        self.jobs.append(rec)
        return rec

    def setup_probe(self, job) -> None:
        """Time one set-up in a fresh process and check the pool sizes it reports."""
        log = self.work / f"setup{len(self.setup_walls)}.log"
        res = run_child([sys.executable, str(HERE / "setup_probe.py"), *job.setup_argv],
                        self.work, log)
        if res["exit"] != 0:
            self.problems.append(f"set-up probe exited {res['exit']}")
            self.setup_walls.append(math.nan)
            return
        got = json.loads(log.read_text().splitlines()[-1])
        sizes = {k: got[k] for k in job.setup_expect}
        if sizes != job.setup_expect:
            self.problems.append(f"set-up pool sizes {sizes}, expected {job.setup_expect}")
        if not Path(got["semicl"]).resolve().is_relative_to(SRC.resolve()):
            self.problems.append(f"semicl imported from {got['semicl']}, not from {SRC}")
        self.setup_walls.append(res["wall_s"])
        self.speed_probe()

    def speed_probe(self) -> float:
        """Time one slice of speed_probe.py in a fresh process; NaN if it fails."""
        log = self.work / "speed.log"
        res = run_child([sys.executable, str(HERE / "speed_probe.py")], self.work, log)
        if res["exit"] != 0:
            self.problems.append(f"speed probe exited {res['exit']}")
            seconds = math.nan
        else:
            seconds = float(log.read_text().split()[-1])
        self.speed.append(seconds)
        return seconds

    def execute(self) -> tuple[dict, dict]:
        self.work.mkdir(parents=True, exist_ok=True)
        job = WORKLOADS[self.workload](self.work, self.seed, self.size, self.checkpoint)
        oracle = oracle_accuracy(job.oracle)
        if oracle < 0.99:
            self.problems.append(f"input bandpower oracle accuracy {oracle:.4f} < 0.99")

        # Closed loop: after MIN_JOBS, the next job (or untraced+traced pair)
        # starts only if the set-up probes still due and the first half of the
        # job should end within --seconds, judged by the last ones, so a run
        # measures for --seconds on average. Set-up probes run between jobs,
        # paced by the elapsed share of --seconds, so they sample the same
        # stretch of machine time as the jobs.
        probes = 0 if self.trace else SETUP_REPS
        probe_s = 0.0
        t0 = time.perf_counter()
        while True:
            due = probes * (time.perf_counter() - t0) / self.seconds
            while len(self.setup_walls) < probes and len(self.setup_walls) <= due:
                t_probe = time.perf_counter()
                self.setup_probe(job)
                probe_s = time.perf_counter() - t_probe
            t_job = time.perf_counter()
            self.run_job(job, traced=False)
            if self.trace:
                self.run_job(job, traced=True)
            now = time.perf_counter()
            left = (probes - len(self.setup_walls)) * probe_s
            fits = now - t0 + (now - t_job) / 2 + left <= self.seconds
            if (len(self.jobs) >= MIN_JOBS and not fits) or now - t0 > START_DEADLINE_S:
                break
        while len(self.setup_walls) < probes:
            self.setup_probe(job)
        run_s = time.perf_counter() - t0

        failed_jobs = sum(1 for j in self.jobs if j["problems"])
        if not failed_jobs and self.problems:  # an input or set-up check failed
            failed_jobs = len(self.jobs)
        attempted = len(self.jobs) * job.cells
        failed = failed_jobs * job.cells
        ok = [j for j in self.jobs if j["exit"] == 0]
        detail = {
            "workload": self.workload, "seed": self.seed, "trace": int(self.trace),
            "jobs": len(self.jobs), "cells_per_job": job.cells, "rows_per_job": job.rows,
            "oracle_accuracy": oracle, "run_s": run_s, "problems": self.problems,
            "per_job": [{k: v for k, v in j.items() if k not in ("layers",)} for j in self.jobs],
        }
        if self.trace:
            metrics = self.layer_summary(job, detail)
        else:
            metrics = self.end_to_end(job, ok, self.setup_walls, attempted, failed, detail)
        result = {"correct": not self.problems, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, detail

    def end_to_end(self, job, ok, setup, attempted, failed, detail) -> dict:
        """End-to-end metrics; times are scaled to the reference machine speed.

        A shared machine can change speed by a quarter or more over seconds
        to minutes, without any of it showing as steal time. The speed
        probe's slices, taken after every job and set-up probe, see the same
        stretch of machine time. Each time is its trimmed mean over the run
        divided by the slices' trimmed mean: both sum over the same stretch,
        so the ratio keeps the program's own changes and drops the machine's
        drift. On five-seed sets this ratio spread less than a median over
        jobs did.
        """
        mean = trimmed_mean
        scale = SPEED_REF_S / mean(self.speed)
        raw = {
            "setup_s": mean(setup) if setup else math.nan,
            "run_wall_s": mean([j["wall_s"] for j in ok]) if ok else math.nan,
            "cpu_s": mean([j["cpu_s"] for j in ok]) if ok else math.nan,
        }
        detail["samples"] = {"setup_s": len(setup), "jobs": len(ok), "speed": len(self.speed)}
        detail["setup_walls"] = setup
        detail["speed_slices"] = self.speed
        detail["speed_scale"] = scale
        detail["unscaled"] = raw
        return {
            "setup_s": raw["setup_s"] * scale,
            "run_wall_s": raw["run_wall_s"] * scale,
            "rows_per_s": job.rows / (raw["run_wall_s"] * scale),
            "cpu_s": raw["cpu_s"] * scale,
            "peak_rss_mb": statistics.median([j["peak_rss_mb"] for j in ok] or [math.nan]),
            "test_f1": statistics.fmean([j.get("test_f1", 0.0) for j in self.jobs]),
            "ok_ratio": (attempted - failed) / attempted,
        }

    def layer_summary(self, job, detail) -> dict:
        traced = [j for j in self.jobs if j["traced"] and "layers" in j]
        plain = [j["wall_s"] for j in self.jobs if not j["traced"] and j["exit"] == 0]
        if not traced or not plain:
            return {}
        metrics = {name: statistics.median(j["layers"][name] for j in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(j["wall_s"] for j in traced)
                                       - statistics.median(plain))
        detail["samples"] = {"traced_jobs": len(traced), "untraced_jobs": len(plain),
                             "steps_per_job": metrics["train.steps"]}
        detail["top_self"] = traced[0]["top_self"]
        missing = [m for m in job.exercises if not metrics.get(m)]
        active = [m for m in job.idle if metrics.get(m)]
        detail["layer_coverage"] = {"zero_but_exercised": missing, "nonzero_but_idle": active}
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="workload dimensions; tiny is for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "semicl" / "__init__.py").is_file():
        print(f"error: no semicl source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    try:
        result, detail = run.execute()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    detail["machine"] = machine_block()
    values = result.pop("metrics")
    bad = [m["name"] for m in declared if not math.isfinite(values.get(m["name"], math.nan))]
    if bad:
        result["correct"] = False
        detail["problems"].append(f"metrics missing or not finite: {bad}")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]] if m["name"] not in bad else 0.0, "unit": m["unit"]}
        for m in declared}
    for p in detail["problems"]:
        print(f"gate: {p}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:>10} {name:<40} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
