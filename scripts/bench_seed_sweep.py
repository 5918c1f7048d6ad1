#!/usr/bin/env python3
"""Pass/fail and test F1 of perfbench jobs over many bench seeds, per source tree.

    python3 scripts/bench_seed_sweep.py --workload train_uni --seeds 1-5,52,401 PARENT CHANGE

For each bench seed, builds the job through perfbench/workloads.py (the same
inputs, config and output check as the benchmark) and runs its CLI command
once per tree, with PYTHONPATH at that tree's src/ and nothing timed. The
job's own check decides pass or fail: its output gate and its AUROC floor.
Prints one Markdown table row per seed, each tree side by side, and whether
the trees wrote the same output bytes. An eval_csv job trains its
checkpoint with the same tree it evaluates. perfbench is read from this
checkout and left unchanged. Exits 1 if any job fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import SIZES, WORKLOADS, output_digest  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'1-5,52' -> [1, 2, 3, 4, 5, 52]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cli(tree: Path, argv: list[str], out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "semicl.cli", *argv, "--out", str(out)],
                          cwd=out.parent, env=env, capture_output=True, text=True)


def run_seed(workload: str, seed: int, size: str, tree: Path, work: Path):
    """(passed, test F1, first problem, output digest) of one job on one tree."""
    work.mkdir(parents=True)

    def checkpoint(argv, out):
        cli(tree, argv, out).check_returncode()
        return out

    try:
        job = WORKLOADS[workload](work, seed, SIZES[size], checkpoint)
    except subprocess.CalledProcessError as err:
        return False, 0.0, f"checkpoint training exited {err.returncode}", None
    out = work / "out"
    proc = cli(tree, job.argv, out)
    if proc.returncode != 0:
        return False, 0.0, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}", None
    f1, problems = job.check(out)
    return not problems, f1, problems[0] if problems else "", output_digest(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1-5,52,401")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("trees", nargs="+", type=Path, help="source checkouts, each with src/semicl")
    args = parser.parse_args(argv)
    trees = [t.resolve() for t in args.trees]
    for t in trees:
        if not (t / "src" / "semicl" / "__init__.py").is_file():
            parser.error(f"no semicl source under {t / 'src'}")

    print(f"| {args.workload} seed | " + " | ".join(str(t) for t in args.trees) + " | same bytes |")
    print("| --- " * (len(trees) + 2) + "|")
    all_passed = True
    with tempfile.TemporaryDirectory(prefix="bench_seed_sweep-") as tmp:
        for seed in args.seeds:
            cells, digests = [], set()
            for i, tree in enumerate(trees):
                passed, f1, problem, digest = run_seed(
                    args.workload, seed, args.size, tree, Path(tmp) / f"{seed}-{i}")
                all_passed &= passed
                digests.add(digest)
                cells.append(f"{'pass' if passed else 'FAIL'} F1 {f1:.3f}"
                             + (f" ({problem})" if problem else ""))
            same = "yes" if len(digests) == 1 and None not in digests else "no"
            print(f"| {seed} | " + " | ".join(cells) + f" | {same} |", flush=True)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
