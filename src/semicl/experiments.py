"""Experiment orchestration shared by the CLI commands.

One run = train one (regime, ablation, label ratio) cell for one seed on its
prepared data (dataset, split, train labels hidden down to the ratio) and
evaluate on the test split. `train`, `ablate` and `compare-regimes` each
describe a list of cells; one grid loop runs every cell for every seed and
prepares each (seed, ratio) dataset once. All output files are reproducible
byte-for-byte from (config, seed): timestamped notes go to a separate run.log
sidecar, and every float is written with repr.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

from .config import ExperimentConfig
from .data import (hide_train_labels, labeled_subset_hash, make_split, split_plan_hash,
                   write_csv, zscore_by_train)
from .errors import ConfigError
from .metrics import METRIC_NAMES, EvalReport
from .nn import EncoderClassifier, EncoderConfig, load_checkpoint, save_checkpoint
from .train import REGIMES, TrainTrace, evaluate, fit

logger = logging.getLogger(__name__)


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _metric_cells(metrics: dict[str, float]) -> str:
    return ",".join(_fmt(metrics[m]) for m in METRIC_NAMES)


@dataclass
class RunResult:
    seed: int
    regime: str
    ablation: str
    label_ratio: float
    model: EncoderClassifier
    trace: TrainTrace
    metrics: dict[str, float]
    split_hash: str
    labeled_hash: str


def prepare_data(exp: ExperimentConfig, seed: int, label_ratio: float | None = None):
    """Dataset + split + hidden labels for one seed."""
    dataset = exp.build_dataset(seed)
    plan = make_split(dataset, exp["split.pattern"], exp.split_params(), seed)
    ratio = exp["data.label_ratio"] if label_ratio is None else label_ratio
    masked = hide_train_labels(dataset, plan, ratio, seed)
    return masked, plan


def _check_length(encoder: EncoderConfig, dataset, source: str) -> None:
    """ConfigError unless the dataset's series survive every pooling stage of `encoder`."""
    length = dataset.values.shape[2]
    if length < encoder.min_length:
        raise ConfigError(f"{source}: {encoder.num_blocks} encoder blocks need series of length "
                          f">= {encoder.min_length}, the dataset's have length {length}")


def run_single(exp: ExperimentConfig, seed: int, regime: str, ablation: str,
               data) -> RunResult:
    """Train and evaluate one cell on `data`, a `prepare_data` result it leaves unchanged."""
    dataset, plan = data
    cfg = exp.train_config(seed, regime=regime, ablation=ablation)
    encoder = exp.encoder_config(dataset.channels)
    _check_length(encoder, dataset, f"config {exp.source_path}")
    model = EncoderClassifier(encoder, dataset.num_classes, seed=seed)
    model, trace = fit(model, dataset, plan, cfg)
    return RunResult(
        seed=seed,
        regime=cfg.regime,
        ablation=cfg.ablation,
        label_ratio=dataset.label_ratio,
        model=model,
        trace=trace,
        metrics=trace.records[-1].val,
        split_hash=split_plan_hash(plan),
        labeled_hash=labeled_subset_hash(dataset, plan),
    )


def _run_grid(exp: ExperimentConfig, cells: list[tuple[str, str, float]],
              seeds: list[int], log: RunLog) -> list[list[RunResult]]:
    """Run each (regime, ablation, ratio) cell for every seed; one result list per cell.

    Each (seed, ratio) dataset is prepared once and shared by the cells using it.
    """
    data = {}
    grid = []
    for regime, ablation, ratio in cells:
        runs = []
        for seed in seeds:
            if (seed, ratio) not in data:
                data[seed, ratio] = prepare_data(exp, seed, label_ratio=ratio)
            r = run_single(exp, seed, regime, ablation, data[seed, ratio])
            log.note(f"{regime} ({ablation}) ratio {ratio} seed {seed}: split {r.split_hash}, "
                     f"labeled subset {r.labeled_hash}, final f1 {r.metrics['f1']:.4f}")
            runs.append(r)
        grid.append(runs)
    return grid


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def write_report_csv(path, rows: list[tuple[str, dict[str, float]]]) -> None:
    """Rows of (label, metric dict) -> CSV with one metric column per name."""
    lines = ["seed," + ",".join(METRIC_NAMES)]
    lines += [label + "," + _metric_cells(metrics) for label, metrics in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _report(runs: list[RunResult]) -> EvalReport:
    report = EvalReport()
    for r in runs:
        report.add(r.metrics)
    return report


def _write_grid(out_dir: Path, stem: str, grid: list[list[RunResult]], key_cols: str,
                key, hash_cols: str) -> None:
    """`<stem>.csv`, one row per run, and `<stem>_summary.csv`, mean and std per cell."""
    lines = [f"{key_cols},seed,{','.join(METRIC_NAMES)},{hash_cols}"]
    summary = [f"{key_cols},stat,{','.join(METRIC_NAMES)}"]
    for runs in grid:
        for r in runs:
            hashes = ",".join(getattr(r, h) for h in hash_cols.split(","))
            lines.append(f"{key(r)},{r.seed},{_metric_cells(r.metrics)},{hashes}")
        report = _report(runs)
        summary += [f"{key(runs[0])},{stat},{_metric_cells(getattr(report, stat)())}"
                    for stat in ("mean", "std")]
    (out_dir / f"{stem}.csv").write_text("\n".join(lines) + "\n")
    (out_dir / f"{stem}_summary.csv").write_text("\n".join(summary) + "\n")


class RunLog:
    """Sidecar log for timestamps and notes, kept out of deterministic files."""

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "run.log"
        self.lines: list[str] = []

    def note(self, msg: str) -> None:
        self.lines.append(f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] {msg}")
        logger.info(msg)

    def flush(self) -> None:
        self.path.write_text("\n".join(self.lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(exp: ExperimentConfig, out_dir, seeds: list[int]) -> None:
    out_dir = Path(out_dir)
    log = RunLog(out_dir)
    cell = (exp["train.regime"], exp["train.ablation"], exp["data.label_ratio"])
    [runs] = _run_grid(exp, [cell], seeds, log)
    for r in runs:
        r.trace.to_csv(out_dir / f"trace_seed{r.seed}.csv")
        save_checkpoint(r.model, out_dir / f"model_seed{r.seed}.ckpt")
    # Canonical single-run artifact names point at the first seed.
    runs[0].trace.to_csv(out_dir / "trace.csv")
    save_checkpoint(runs[0].model, out_dir / "model.ckpt")
    report = _report(runs)
    write_report_csv(out_dir / "report.csv", [(str(r.seed), r.metrics) for r in runs]
                     + [("mean", report.mean()), ("std", report.std())])
    log.note(f"wrote report for {len(runs)} seed(s) to {out_dir / 'report.csv'}")
    log.flush()


def cmd_eval(exp: ExperimentConfig, out_dir, seed: int, model_path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(model_path)
    dataset, plan = prepare_data(exp, seed)
    got = (model.config.in_channels, model.num_classes)
    if got != (dataset.channels, dataset.num_classes):
        raise ConfigError(f"checkpoint {model_path} has (in_channels, num_classes) {got}, "
                          f"the dataset has {(dataset.channels, dataset.num_classes)}")
    _check_length(model.config, dataset, f"checkpoint {model_path}")
    metrics = evaluate(model, zscore_by_train(dataset, plan), plan.test_indices)
    write_report_csv(out_dir / "report.csv", [(str(seed), metrics)])


def cmd_ablate(exp: ExperimentConfig, out_dir, seeds: list[int],
               include_two_stage_ls: bool = False) -> None:
    out_dir = Path(out_dir)
    log = RunLog(out_dir)
    modes = [("end_to_end", "full"), ("end_to_end", "no_Lu"), ("end_to_end", "no_Ls")]
    if include_two_stage_ls:
        modes.append(("two_stage", "two_stage_with_Ls"))
    cells = [(regime, ablation, exp["data.label_ratio"]) for regime, ablation in modes]
    grid = _run_grid(exp, cells, seeds, log)
    _write_grid(out_dir, "ablation", grid, "ablation", lambda r: r.ablation,
                "split_hash,labeled_hash")
    log.note("ablation table written")
    log.flush()


def cmd_compare_regimes(exp: ExperimentConfig, out_dir, seeds: list[int],
                        ratios: list[float]) -> None:
    out_dir = Path(out_dir)
    log = RunLog(out_dir)
    cells = [(regime, "full", ratio) for ratio in ratios for regime in REGIMES]
    grid = _run_grid(exp, cells, seeds, log)
    _write_grid(out_dir, "compare", grid, "ratio,regime",
                lambda r: f"{_fmt(r.label_ratio)},{r.regime}", "labeled_hash")
    log.note("regime comparison written")
    log.flush()


def cmd_synth_gen(exp: ExperimentConfig, out_dir, seed: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = exp.build_dataset(seed)
    write_csv(dataset, out_dir / "data.csv", out_dir / "manifest.txt")
