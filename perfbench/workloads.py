"""The three benchmark workloads: their inputs, CLI jobs, row counts and output gate.

A job is one semicl CLI invocation in a fresh process. The closed loop in
``run.py`` runs one workload's job back to back; every job of a run is the
same job, so each repeat must reproduce the first one's output bytes. A cell
is one (regime, label ratio, seed) point: ``train_uni`` and ``eval_csv`` jobs
hold one cell, a ``grid_multi`` job holds ratios x regimes x seeds cells.

Row counts are computed here from pool sizes and batch size, independently of
the program, and checked against the traced encoder rows.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from inputs import program_seeds, rng_for, write_config, write_dataset

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "auroc", "auprc")
TRACE_HEADER = ("epoch,L_u,L_s,L_c,hybrid,val_accuracy,val_precision,val_recall,"
                "val_f1,val_auroc,val_auprc")
REPORT_HEADER = "seed," + ",".join(METRIC_NAMES)
COMPARE_HEADER = "ratio,regime,seed," + ",".join(METRIC_NAMES) + ",labeled_hash"
SUMMARY_HEADER = "ratio,regime,stat," + ",".join(METRIC_NAMES)
REGIMES = ("end_to_end", "two_stage")

# Per-layer metrics every training job must move (nonzero in a traced run).
TRAINING_LAYERS = tuple(
    [f"autodiff.{op}.{d}" for op in ("conv1d", "depthwise_conv1d", "avg_pool", "relu", "other")
     for d in ("fwd_s", "bwd_s")]
    + ["autodiff.conv1d.calls", "autodiff.depthwise_conv1d.calls", "autodiff.backward.self_s",
       "autodiff.tape.entries_per_step", "autodiff.conv.gflop", "autodiff.conv.gflop_per_s",
       "nn.encode.self_s", "nn.encode.rows", "nn.classify.self_s",
       "augment.make_views.s", "augment.make_views.calls",
       "losses.unsup_contrastive.s", "losses.sup_contrastive.s", "losses.cross_entropy.s",
       "optim.step.s", "train.steps", "train.step_rows", "train.step_ms_p50",
       "train.step_ms_p90", "train.evaluate.s", "train.predict.s", "metrics.compute_all.s",
       "data.zscore_by_train.s", "data.make_split.s", "data.hide_train_labels.s",
       "config.load_config.s", "experiments.prepare_data.s", "experiments.prepare_data.calls",
       "experiments.dataset_build_useful_ratio"])
EVAL_LAYERS = tuple(
    [f"autodiff.{op}.fwd_s" for op in ("conv1d", "depthwise_conv1d", "avg_pool", "relu", "other")]
    + ["autodiff.conv1d.calls", "autodiff.depthwise_conv1d.calls", "autodiff.conv.gflop",
       "autodiff.conv.gflop_per_s", "nn.encode.self_s", "nn.encode.rows", "nn.classify.self_s",
       "nn.load_checkpoint.s", "train.evaluate.s", "train.predict.s", "metrics.compute_all.s",
       "data.load_csv.s", "data.load_csv.samples", "data.zscore_by_train.s", "data.make_split.s",
       "data.hide_train_labels.s", "config.load_config.s", "experiments.prepare_data.s",
       "experiments.prepare_data.calls", "experiments.dataset_build_useful_ratio"])
# Per-layer metrics that must stay zero on eval: no tape, backward, optimizer,
# augmentation or loss code runs there.
TRAINING_ONLY = tuple(
    [f"autodiff.{op}.bwd_s" for op in ("conv1d", "depthwise_conv1d", "avg_pool", "relu", "other")]
    + ["autodiff.backward.self_s", "autodiff.tape.entries_per_step", "augment.make_views.calls",
       "losses.unsup_contrastive.s", "losses.sup_contrastive.s", "losses.cross_entropy.s",
       "optim.step.s", "train.steps", "train.step_rows"])


@dataclass
class Job:
    """One CLI invocation and everything needed to check and count it."""

    argv: list[str]                 # semicl CLI arguments, without --out
    cells: int                      # grid points per job
    rows: int                       # encoder input rows: step rows, or predicted rows
    step_rows: int                  # rows consumed by training steps (0 for eval)
    check: object                   # check(out_dir) -> (test_f1, problems)
    setup_argv: list[str]           # setup_probe.py arguments
    setup_expect: dict              # sizes the set-up probe must report
    oracle: dict                    # input dataset description for the bandpower check
    exercises: tuple[str, ...] = ()  # per-layer metrics that must be nonzero
    idle: tuple[str, ...] = ()       # per-layer metrics that must be zero


# ---------------------------------------------------------------------------
# row counting (mirrors the documented pool/batch rules, not the code)
# ---------------------------------------------------------------------------

def trial_split(n: int, test_fraction: float) -> tuple[int, int]:
    n_test = min(n - 1, max(1, round(test_fraction * n)))
    return n - n_test, n_test


def labeled_count(train: int, ratio: float) -> int:
    return train if ratio == 1.0 else math.ceil(ratio * train)


def end_to_end_rows(unlabeled: int, labeled: int, batch: int, epochs: int) -> int:
    bl = min(batch, labeled)
    if unlabeled < 2:  # the unsupervised loss is skipped
        return epochs * math.ceil(labeled / bl) * bl
    bu = min(batch, unlabeled)
    steps = max(math.ceil(unlabeled / bu), math.ceil(labeled / bl))
    return epochs * steps * (2 * bu + bl)


def two_stage_rows(unlabeled: int, labeled: int, batch: int, epochs: int, pretrain: int) -> int:
    bl = min(batch, labeled)
    rows = epochs * math.ceil(labeled / bl) * bl
    if pretrain and unlabeled >= 2:
        bu = min(batch, unlabeled)
        rows += pretrain * math.ceil(unlabeled / bu) * 2 * bu
    return rows


# ---------------------------------------------------------------------------
# output gate helpers
# ---------------------------------------------------------------------------

def read_table(path: Path, header: str, problems: list[str]) -> list[list[str]]:
    if not path.is_file():
        problems.append(f"missing output {path.name}")
        return []
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header is {lines[:1]}, expected {header!r}")
        return []
    rows = [ln.split(",") for ln in lines[1:]]
    width = header.count(",") + 1
    if any(len(r) != width for r in rows):
        problems.append(f"{path.name}: a row does not have {width} fields")
        return []
    return rows


def check_values(name: str, values: list[str], lo: float | None, hi: float | None,
                 problems: list[str]) -> list[float]:
    out = []
    for v in values:
        try:
            x = float(v)
        except ValueError:
            problems.append(f"{name}: {v!r} is not a number")
            continue
        if not math.isfinite(x) or (lo is not None and x < lo) or (hi is not None and x > hi):
            problems.append(f"{name}: value {v} outside [{lo}, {hi}] or not finite")
        out.append(x)
    return out


def check_metric_rows(name: str, rows: list[list[str]], first: int,
                      problems: list[str]) -> list[dict[str, float]]:
    """Check the six metric columns starting at `first`; return them per row."""
    cells = []
    for r in rows:
        vals = check_values(name, r[first: first + len(METRIC_NAMES)], 0.0, 1.0, problems)
        if len(vals) == len(METRIC_NAMES):
            cells.append(dict(zip(METRIC_NAMES, vals)))
    return cells


def check_trace(path: Path, epochs: int, problems: list[str]) -> None:
    rows = read_table(path, TRACE_HEADER, problems)
    if rows and [r[0] for r in rows] != [str(e) for e in range(1, epochs + 1)]:
        problems.append(f"{path.name}: expected epochs 1..{epochs}")
    for r in rows:
        check_values(f"{path.name} losses", r[1:5], None, None, problems)
        check_values(f"{path.name} metrics", r[5:], 0.0, 1.0, problems)


def check_report(path: Path, labels: list[str], problems: list[str]) -> list[dict[str, float]]:
    rows = read_table(path, REPORT_HEADER, problems)
    if rows and [r[0] for r in rows] != labels:
        problems.append(f"{path.name}: row labels {[r[0] for r in rows]}, expected {labels}")
        return []
    return check_metric_rows(path.name, rows, 1, problems)


def quality_floor(cells: list[dict[str, float]], floor: float, problems: list[str]) -> None:
    """The mean test AUROC of `cells` must reach `floor`.

    AUROC rather than F1: a seed that learns late can end well ranked but
    badly thresholded (F1 0.75 at AUROC 1.0), while a broken program ranks
    near chance.
    """
    auroc = statistics.fmean(c["auroc"] for c in cells) if cells else 0.0
    if auroc < floor:
        problems.append(f"test AUROC {auroc:.4f} below the quality floor {floor}")


def output_digest(out_dir: Path) -> str:
    """sha256 over every deterministic output file (all but run.log)."""
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        if p.name == "run.log" or not p.is_file():
            continue
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Size:
    """Workload dimensions; `full` is measured, `tiny` is for the self-test."""

    uni_samples: int
    uni_length: int
    uni_epochs: int
    uni_batch: int
    grid_samples: int
    grid_length: int
    grid_epochs: int
    grid_pretrain: int
    grid_batch: int
    eval_samples: int
    eval_length: int
    ckpt_samples: int
    ckpt_epochs: int
    floors: dict  # workload -> mean test AUROC floor


SIZES = {
    "full": Size(uni_samples=600, uni_length=128, uni_epochs=30, uni_batch=100,
                 grid_samples=160, grid_length=32, grid_epochs=8, grid_pretrain=3, grid_batch=16,
                 eval_samples=3000, eval_length=128, ckpt_samples=200, ckpt_epochs=20,
                 floors={"train_uni": 0.8, "grid_multi": 0.7, "eval_csv": 0.8}),
    "tiny": Size(uni_samples=120, uni_length=32, uni_epochs=6, uni_batch=20,
                 grid_samples=48, grid_length=16, grid_epochs=3, grid_pretrain=1, grid_batch=12,
                 eval_samples=240, eval_length=32, ckpt_samples=48, ckpt_epochs=1,
                 floors={"train_uni": 0.0, "grid_multi": 0.0, "eval_csv": 0.0}),
}

UNI_RATIO = 0.1
GRID_RATIOS = (0.5, 1.0)
GRID_SEEDS = 2
GRID_CHANNELS = 3
EVAL_CHANNELS = 3
SUBJECTS = 6
TEST_FRACTION = 0.25


def train_uni(work: Path, seed: int, size: Size, run_checkpoint) -> Job:
    """Reference run: univariate synth data generated inside the program."""
    (s,) = program_seeds(seed, "train_uni", 1)
    n, epochs, batch = size.uni_samples, size.uni_epochs, size.uni_batch
    cfg = write_config(work / "train_uni.cfg", {
        "data.source": "synth", "data.num_samples": str(n), "data.num_classes": "2",
        "data.channels": "1", "data.length": str(size.uni_length), "data.noise_sigma": "0.3",
        "data.num_subjects": "8", "data.label_ratio": "1.0",
        "split.pattern": "trial_dependent", "split.test_fraction": str(TEST_FRACTION),
        "train.regime": "end_to_end", "train.ablation": "full", "train.epochs": str(epochs),
        "train.batch_size": str(batch), "train.learning_rate": "0.001",
    })
    train, test = trial_split(n, TEST_FRACTION)
    labeled = labeled_count(train, UNI_RATIO)
    rows = end_to_end_rows(train - labeled, labeled, batch, epochs)
    floor = size.floors["train_uni"]

    def check(out: Path):
        problems: list[str] = []
        for name in ("model.ckpt", f"model_seed{s}.ckpt"):
            if not (out / name).is_file():
                problems.append(f"missing output {name}")
        check_trace(out / "trace.csv", epochs, problems)
        check_trace(out / f"trace_seed{s}.csv", epochs, problems)
        cells = check_report(out / "report.csv", [str(s), "mean", "std"], problems)[:1]
        quality_floor(cells, floor, problems)
        return (cells[0]["f1"] if cells else 0.0), problems

    return Job(
        argv=["train", "--config", str(cfg), "--seeds", str(s), "--label-ratio", str(UNI_RATIO)],
        cells=1, rows=rows, step_rows=rows, check=check,
        setup_argv=["--config", str(cfg), "--seed", str(s), "--ratio", str(UNI_RATIO)],
        setup_expect={"train": train, "test": test, "labeled": labeled, "channels": 1},
        oracle={"synth": {"num_samples": n, "num_classes": 2, "channels": 1,
                          "length": size.uni_length, "noise_sigma": 0.3, "seed": s,
                          "num_subjects": 8}},
        exercises=TRAINING_LAYERS + ("synth.synth_generate.s",),
        idle=("data.load_csv.s", "nn.load_checkpoint.s"),
    )


def grid_multi(work: Path, seed: int, size: Size, run_checkpoint) -> Job:
    """Regime grid on a multichannel CSV dataset; every cell re-reads the CSV."""
    n, epochs, pre, batch = size.grid_samples, size.grid_epochs, size.grid_pretrain, size.grid_batch
    manifest = write_dataset(work / "grid_data", rng_for(seed, "grid_multi.data"), n=n, classes=2,
                             channels=GRID_CHANNELS, length=size.grid_length, noise=0.1,
                             subjects=SUBJECTS)
    seeds = program_seeds(seed, "grid_multi", GRID_SEEDS)
    cfg = write_config(work / "grid_multi.cfg", {
        "data.source": "csv", "data.manifest": str(manifest), "data.label_ratio": "1.0",
        "split.pattern": "trial_dependent", "split.test_fraction": str(TEST_FRACTION),
        "train.epochs": str(epochs), "train.pretrain_epochs": str(pre),
        "train.batch_size": str(batch), "train.learning_rate": "0.01",
    })
    train, test = trial_split(n, TEST_FRACTION)
    rows = 0
    for ratio in GRID_RATIOS:
        labeled = labeled_count(train, ratio)
        per_seed = (end_to_end_rows(train - labeled, labeled, batch, epochs)
                    + two_stage_rows(train - labeled, labeled, batch, epochs, pre))
        rows += per_seed * len(seeds)
    order = [(repr(r), g, str(s)) for r in GRID_RATIOS for g in REGIMES for s in seeds]
    floor = size.floors["grid_multi"]

    def check(out: Path):
        problems: list[str] = []
        table = read_table(out / "compare.csv", COMPARE_HEADER, problems)
        if table and [tuple(r[:3]) for r in table] != order:
            problems.append("compare.csv: cells are not the expected ratio x regime x seed grid")
        cells = check_metric_rows("compare.csv", table, 3, problems)
        if any(len(r[-1]) != 16 for r in table):
            problems.append("compare.csv: labeled_hash is not 16 hex digits")
        summary = read_table(out / "compare_summary.csv", SUMMARY_HEADER, problems)
        if summary and len(summary) != 2 * len(GRID_RATIOS) * len(REGIMES):
            problems.append("compare_summary.csv: wrong number of rows")
        for r in summary:
            check_values("compare_summary.csv", r[3:], 0.0, 1.0, problems)
        quality_floor(cells, floor, problems)
        # The median, which an occasional collapsed cell (one class
        # predicted, F1 near 1/3) does not swing.
        return (statistics.median(c["f1"] for c in cells) if cells else 0.0), problems

    labeled0 = labeled_count(train, GRID_RATIOS[0])
    return Job(
        argv=["compare-regimes", "--config", str(cfg), "--seeds", ",".join(map(str, seeds)),
              "--ratios", ",".join(map(str, GRID_RATIOS))],
        cells=len(order), rows=rows, step_rows=rows, check=check,
        setup_argv=["--config", str(cfg), "--seed", str(seeds[0]), "--ratio", str(GRID_RATIOS[0])],
        setup_expect={"train": train, "test": test, "labeled": labeled0, "channels": GRID_CHANNELS},
        oracle={"manifest": str(manifest)},
        exercises=TRAINING_LAYERS + ("data.load_csv.s", "data.load_csv.samples"),
        idle=("synth.synth_generate.s", "nn.load_checkpoint.s"),
    )


def eval_csv(work: Path, seed: int, size: Size, run_checkpoint) -> Job:
    """Checkpoint evaluation on a large multichannel CSV, leave-subjects-out."""
    n = size.eval_samples
    manifest = write_dataset(work / "eval_data", rng_for(seed, "eval_csv.data"), n=n, classes=2,
                             channels=EVAL_CHANNELS, length=size.eval_length, noise=0.3,
                             subjects=SUBJECTS)
    ckpt_manifest = write_dataset(work / "ckpt_data", rng_for(seed, "eval_csv.ckpt"),
                                  n=size.ckpt_samples, classes=2, channels=EVAL_CHANNELS,
                                  length=size.eval_length, noise=0.2, subjects=4)
    ckpt_seed, s = program_seeds(seed, "eval_csv", 2)
    ckpt_cfg = write_config(work / "ckpt.cfg", {
        "data.source": "csv", "data.manifest": str(ckpt_manifest), "data.label_ratio": "1.0",
        "train.regime": "end_to_end", "train.epochs": str(size.ckpt_epochs),
        "train.batch_size": "16", "train.learning_rate": "0.003",
    })
    model = run_checkpoint(["train", "--config", str(ckpt_cfg), "--seeds", str(ckpt_seed)],
                           work / "ckpt_out") / "model.ckpt"
    cfg = write_config(work / "eval_csv.cfg", {
        "data.source": "csv", "data.manifest": str(manifest), "data.label_ratio": "1.0",
        "split.pattern": "leave_subjects_out", "split.holdout_subjects": "1",
    })
    test = n // SUBJECTS  # every subject holds the same number of samples
    floor = size.floors["eval_csv"]

    def check(out: Path):
        problems: list[str] = []
        cells = check_report(out / "report.csv", [str(s)], problems)
        quality_floor(cells, floor, problems)
        return (cells[0]["f1"] if cells else 0.0), problems

    return Job(
        argv=["eval", "--config", str(cfg), "--seeds", str(s), "--model", str(model)],
        cells=1, rows=test, step_rows=0, check=check,
        setup_argv=["--config", str(cfg), "--seed", str(s), "--model", str(model)],
        setup_expect={"train": n - test, "test": test, "labeled": n - test,
                      "channels": EVAL_CHANNELS},
        oracle={"manifest": str(manifest)},
        exercises=EVAL_LAYERS,
        idle=TRAINING_ONLY + ("synth.synth_generate.s",),
    )


WORKLOADS = {"train_uni": train_uni, "grid_multi": grid_multi, "eval_csv": eval_csv}
