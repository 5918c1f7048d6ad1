"""Self-test of the benchmark: every workload at a tiny size, traced.

Checks that each per-layer metric a workload is declared to exercise comes
out nonzero (and each it must not touch comes out zero), that the tracer
leaves little time unattributed and reports it when work moves out of the
traced layers, and that the output gate fails a run whose program writes
corrupted outputs or is missing. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--size", "tiny"]
# At full size the share reads about 0.02; at tiny size one-off costs such as
# numpy's lazy imports weigh more.
UNATTRIBUTED_MAX = 0.15


def bench(root: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def copy_checkout(dst: Path, with_src: bool = True) -> Path:
    shutil.copytree(ROOT / "perfbench", dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copyfile(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.mark.parametrize("workload", ["train_uni", "grid_multi", "eval_csv"])
def test_traced_layers_are_covered(workload):
    code, out = bench(ROOT, workload, trace=1)
    detail, result = json.loads(out[-2])["detail"], json.loads(out[-1])
    assert code == 0 and result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == declared
    assert detail["layer_coverage"] == {"zero_but_exercised": [], "nonzero_but_idle": []}
    assert result["metrics"]["trace.unattributed_share"]["value"] < UNATTRIBUTED_MAX


def test_end_to_end_metrics_are_positive():
    code, out = bench(ROOT, "train_uni", trace=0)
    detail, result = json.loads(out[-2])["detail"], json.loads(out[-1])
    assert code == 0 and result["correct"]
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(result["metrics"]) == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Times are the unscaled medians times the run's speed scale.
    scale = detail["speed_scale"]
    assert scale > 0 and len(detail["speed_slices"]) == detail["samples"]["speed"]
    for name, raw in detail["unscaled"].items():
        assert result["metrics"][name]["value"] == pytest.approx(raw * scale)


def test_work_outside_the_layers_is_unattributed(tmp_path):
    # A cell that spends a second in an unwrapped helper of the fit loop.
    root = copy_checkout(tmp_path)
    train = root / "src" / "semicl" / "train.py"
    text = train.read_text()
    head = "def _train_pools(dataset: SemiLabeledDataset, plan: SplitPlan):\n"
    patched = text.replace(head, head + "    __import__('time').sleep(1.0)\n")
    assert patched != text
    train.write_text(patched)
    code, out = bench(root, "train_uni", trace=1)
    result = json.loads(out[-1])
    assert code == 0 and result["correct"]
    assert result["metrics"]["trace.unattributed_share"]["value"] > 0.5


def test_corrupted_outputs_fail_the_gate(tmp_path):
    root = copy_checkout(tmp_path)
    exp = root / "src" / "semicl" / "experiments.py"
    text = exp.read_text()
    corrupt = "return repr(float(v) + 1.0) if isinstance(v, float) else str(v)"
    patched = text.replace("return repr(float(v)) if isinstance(v, float) else str(v)", corrupt)
    assert patched != text
    exp.write_text(patched)
    code, out = bench(root, "train_uni", trace=0)
    result = json.loads(out[-1])
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_missing_program_exits_nonzero_without_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    code, out = bench(root, "train_uni", trace=0)
    assert code != 0
    assert not any(line.startswith("{") for line in out)
