"""Experiment orchestration shared by the CLI commands.

One run = train one (regime, ablation, label ratio) cell for one seed on its
prepared data (dataset, split, train labels hidden down to the ratio) and
evaluate on the test split. `train`, `ablate` and `compare-regimes` each
describe a list of cells; one grid loop runs every cell for every seed and
prepares each (seed, ratio) dataset once. All output files are reproducible
byte-for-byte from (config, seed): timestamped notes go to a separate run.log
sidecar, and every table is written by `_write_table`, every float with repr.
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
from .metrics import METRIC_NAMES, mean_std
from .nn import EncoderClassifier, EncoderConfig, load_checkpoint, save_checkpoint
from .train import REGIMES, TrainTrace, evaluate, fit

logger = logging.getLogger(__name__)

TRACE_HEADER = ("epoch", "L_u", "L_s", "L_c", "hybrid", *(f"val_{m}" for m in METRIC_NAMES))


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


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

def _write_table(path, header, rows) -> None:
    """A CSV file of the header's and each row's values, each value written by `_fmt`."""
    lines = [",".join(map(_fmt, row)) for row in [header, *rows]]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_trace(path, trace: TrainTrace) -> None:
    """One row per epoch: the four losses, then the evaluation metrics."""
    _write_table(path, TRACE_HEADER, [
        (r.epoch, r.loss_u, r.loss_s, r.loss_c, r.hybrid, *(r.val[m] for m in METRIC_NAMES))
        for r in trace.records])


def write_report_csv(path, rows: list[tuple[str | int, dict[str, float]]]) -> None:
    """Rows of (label, metric dict) -> CSV with one metric column per name."""
    _write_table(path, ("seed", *METRIC_NAMES),
                 [(label, *(metrics[m] for m in METRIC_NAMES)) for label, metrics in rows])


def _write_grid(out_dir: Path, stem: str, grid: list[list[RunResult]],
                key_cols: tuple[str, ...], key, hash_cols: tuple[str, ...]) -> None:
    """`<stem>.csv`, one row per run, and `<stem>_summary.csv`, mean and std per cell."""
    rows, summary = [], []
    for runs in grid:
        rows += [(*key(r), r.seed, *(r.metrics[m] for m in METRIC_NAMES),
                  *(getattr(r, h) for h in hash_cols)) for r in runs]
        summary += [(*key(runs[0]), stat, *(metrics[m] for m in METRIC_NAMES))
                    for stat, metrics in mean_std([r.metrics for r in runs]).items()]
    _write_table(out_dir / f"{stem}.csv", (*key_cols, "seed", *METRIC_NAMES, *hash_cols), rows)
    _write_table(out_dir / f"{stem}_summary.csv", (*key_cols, "stat", *METRIC_NAMES), summary)


class RunLog:
    """Sidecar log for timestamps and notes, kept out of deterministic files.

    Each note is appended to run.log as it is made, so a run that stops
    part-way keeps the notes of the cells it finished.
    """

    def __init__(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "run.log"
        self.path.write_text("")

    def note(self, msg: str) -> None:
        with open(self.path, "a") as fh:
            fh.write(f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] {msg}\n")
        logger.info(msg)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(exp: ExperimentConfig, out_dir, seeds: list[int]) -> None:
    out_dir = Path(out_dir)
    log = RunLog(out_dir)
    cell = (exp["train.regime"], exp["train.ablation"], exp["data.label_ratio"])
    [runs] = _run_grid(exp, [cell], seeds, log)
    for r in runs:
        _write_trace(out_dir / f"trace_seed{r.seed}.csv", r.trace)
        save_checkpoint(r.model, out_dir / f"model_seed{r.seed}.ckpt")
    # Canonical single-run artifact names point at the first seed.
    _write_trace(out_dir / "trace.csv", runs[0].trace)
    save_checkpoint(runs[0].model, out_dir / "model.ckpt")
    summary = mean_std([r.metrics for r in runs])
    write_report_csv(out_dir / "report.csv", [(r.seed, r.metrics) for r in runs]
                     + [("mean", summary["mean"]), ("std", summary["std"])])
    log.note(f"wrote report for {len(runs)} seed(s) to {out_dir / 'report.csv'}")


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
    write_report_csv(out_dir / "report.csv", [(seed, metrics)])


def cmd_ablate(exp: ExperimentConfig, out_dir, seeds: list[int],
               include_two_stage_ls: bool = False) -> None:
    out_dir = Path(out_dir)
    log = RunLog(out_dir)
    modes = [("end_to_end", "full"), ("end_to_end", "no_Lu"), ("end_to_end", "no_Ls")]
    if include_two_stage_ls:
        modes.append(("two_stage", "two_stage_with_Ls"))
    cells = [(regime, ablation, exp["data.label_ratio"]) for regime, ablation in modes]
    grid = _run_grid(exp, cells, seeds, log)
    _write_grid(out_dir, "ablation", grid, ("ablation",), lambda r: (r.ablation,),
                ("split_hash", "labeled_hash"))
    log.note("ablation table written")


def cmd_compare_regimes(exp: ExperimentConfig, out_dir, seeds: list[int],
                        ratios: list[float]) -> None:
    out_dir = Path(out_dir)
    log = RunLog(out_dir)
    cells = [(regime, "full", ratio) for ratio in ratios for regime in REGIMES]
    grid = _run_grid(exp, cells, seeds, log)
    _write_grid(out_dir, "compare", grid, ("ratio", "regime"),
                lambda r: (r.label_ratio, r.regime), ("labeled_hash",))
    log.note("regime comparison written")


def cmd_synth_gen(exp: ExperimentConfig, out_dir, seed: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = exp.build_dataset(seed)
    write_csv(dataset, out_dir / "data.csv", out_dir / "manifest.txt")
