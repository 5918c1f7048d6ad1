"""Training: one stage runner for the end-to-end and two-stage regimes.

`fit` writes each regime as a list of stages. A stage is a parameter group,
loss weights, an unlabeled and a labeled pool, an epoch count and a Philox
sub-stream index; one loop runs every stage: draw, step, evaluate. End to end
is one stage: all parameters on the hybrid loss over both pools. Two stage is
encoder-only pretraining on the unlabeled pool (sub-stream 0), then
fine-tuning on the labeled pool (sub-stream 1).

Batch pairing: every optimization step draws one unlabeled and one labeled
batch; the smaller pool recycles (reshuffled) until the larger pool finishes
its epoch. All randomness (shuffling, augmentation) flows from the config
seed through named Philox streams, so a fixed seed fixes the entire trace.
An epoch's recorded losses are the means of its per-step values.

When the unlabeled pool is empty or has a single sample (e.g. label ratio
1.0), the unsupervised loss is skipped with a logged warning. Non-finite
losses or gradients abort with the offending component named; nothing is
clipped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import augment as aug
from . import losses as L
from .autodiff import Tape, slice_, softmax
from .data import UNLABELED, SemiLabeledDataset, SplitPlan, zscore_by_train
from .errors import ConfigError, ContractError, DegenerateLabelError, DivergenceError
from .losses import LossWeights
from .metrics import compute_all
from .nn import EncoderClassifier
from .optim import OPTIMIZERS, make_optimizer
from .rng import stream

logger = logging.getLogger(__name__)

REGIMES = ("end_to_end", "two_stage")
ABLATIONS = ("full", "no_Lu", "no_Ls", "two_stage_with_Ls")

@dataclass(frozen=True)
class TrainConfig:
    regime: str = "end_to_end"
    ablation: str = "full"
    weights: LossWeights = field(default_factory=LossWeights)
    epochs: int = 30
    batch_size: int = 100
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    seed: int = 0
    pretrain_epochs: int = 30
    freeze_encoder: bool = False
    augment: aug.AugmentSpec = field(default_factory=aug.AugmentSpec)
    ntxent_denominator: str = "simclr"

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; use one of {REGIMES}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}; use one of {ABLATIONS}")
        if self.ablation == "two_stage_with_Ls" and self.regime != "two_stage":
            raise ConfigError("ablation two_stage_with_Ls requires regime two_stage")
        if self.ablation in ("no_Lu", "no_Ls") and self.regime != "end_to_end":
            raise ConfigError(f"ablation {self.ablation} requires regime end_to_end")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.pretrain_epochs < 0:
            raise ConfigError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.ntxent_denominator not in L.DENOMINATOR_MODES:
            raise ConfigError(f"unknown ntxent_denominator {self.ntxent_denominator!r}")

    def effective_weights(self) -> LossWeights:
        """Loss weights with the ablation applied."""
        w = self.weights
        if self.ablation == "no_Lu":
            return replace(w, lambda1=0.0)
        if self.ablation == "no_Ls":
            return replace(w, lambda2=0.0)
        return w


@dataclass
class EpochRecord:
    epoch: int
    loss_u: float
    loss_s: float
    loss_c: float
    hybrid: float
    val: dict[str, float]


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)

    def add(self, rec: EpochRecord) -> None:
        for name in ("loss_u", "loss_s", "loss_c", "hybrid"):
            if not math.isfinite(getattr(rec, name)):
                raise DivergenceError(f"non-finite {name} recorded at epoch {rec.epoch}")
        self.records.append(rec)


class _Cycler:
    """Endless shuffled batches over a pool; reshuffles on exhaustion."""

    def __init__(self, n: int, batch: int, rng: np.random.Generator):
        self.n = n
        self.batch = min(batch, n)
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def draw(self) -> np.ndarray:
        out = []
        while len(out) < self.batch:
            if self.pos >= self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            take = min(self.batch - len(out), self.n - self.pos)
            out.extend(self.order[self.pos: self.pos + take].tolist())
            self.pos += take
        return np.array(out, dtype=np.int64)

    @property
    def batches_per_epoch(self) -> int:
        return math.ceil(self.n / self.batch)


def _ensure_two_classes(idx: np.ndarray, labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Swap the last drawn element for one with a different label if needed."""
    if np.unique(labels[idx]).size >= 2:
        return idx
    current = labels[idx[0]]
    for candidate in order:
        if labels[candidate] != current:
            idx = idx.copy()
            idx[-1] = candidate
            return idx
    return idx


def _check_finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise DivergenceError(f"{name} is non-finite ({value})")
    return value


def _train_step(model: EncoderClassifier, optimizer, lw: LossWeights, cfg: TrainConfig,
                x_u: np.ndarray | None, x_l: np.ndarray | None, y_l: np.ndarray | None,
                aug_rng) -> dict[str, float | None]:
    """One optimizer step on the given batches; returns the component values.

    A component whose weight is zero is not computed.
    """
    use_u = x_u is not None and lw.lambda1 > 0
    use_l = x_l is not None
    if use_u and x_u.shape[0] < 2:
        raise ContractError(f"unlabeled batch needs >= 2 samples, got {x_u.shape[0]}")

    out: dict[str, float | None] = {"loss_u": None, "loss_s": None, "loss_c": None}
    with Tape() as tape:
        chunks = []
        if use_u:
            views = aug.make_views(x_u, cfg.augment, aug_rng)
            chunks += [views[:, 0], views[:, 1]]
        if use_l:
            chunks.append(x_l)
        z = model.encode(np.concatenate(chunks, axis=0))

        n = x_u.shape[0] if use_u else 0
        loss_u = loss_s = loss_c = None
        if use_u:
            zi, zj = slice_(z, 0, 0, n), slice_(z, 0, n, 2 * n)
            loss_u = L.unsup_contrastive(zi, zj, lw.tau, denominator=cfg.ntxent_denominator)
            out["loss_u"] = _check_finite(loss_u.item(), "L_u")
        if use_l:
            zl = slice_(z, 0, 2 * n, 2 * n + x_l.shape[0])
            if lw.lambda2 > 0:
                loss_s = L.sup_contrastive(zl, y_l, lw.tau)
                out["loss_s"] = _check_finite(loss_s.item(), "L_s")
            if lw.lambda3 > 0:
                logits = model.classify(zl)
                loss_c = L.cross_entropy(logits, y_l)
                out["loss_c"] = _check_finite(loss_c.item(), "L_c")
        total = L.hybrid(loss_u, loss_s, loss_c, lw)
        out["hybrid"] = _check_finite(total.item(), "hybrid loss")

    optimizer.zero_grad()
    tape.backward(total)
    optimizer.step()
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def predict(model: EncoderClassifier, values: np.ndarray, batch_size: int = 256):
    """Class scores (softmax of logits) and argmax predictions, tape-free."""
    scores = []
    for start in range(0, values.shape[0], batch_size):
        chunk = values[start: start + batch_size]
        scores.append(softmax(model.classify(model.encode(chunk)), axis=1).data)
    scores = np.concatenate(scores, axis=0)
    return scores, scores.argmax(axis=1)


def evaluate(model: EncoderClassifier, dataset: SemiLabeledDataset,
             indices) -> dict[str, float]:
    """Six-metric record over the labeled samples among `indices`."""
    rows = np.asarray(indices, dtype=np.int64)
    rows = rows[dataset.labels[rows] != UNLABELED]
    if not rows.size:
        raise ContractError("no labeled samples to evaluate on")
    scores, y_pred = predict(model, dataset.values[rows])
    return compute_all(dataset.labels[rows], y_pred, scores, dataset.num_classes)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _train_pools(dataset: SemiLabeledDataset, plan: SplitPlan):
    train = np.asarray(plan.train_indices, dtype=np.int64)
    is_labeled = dataset.labels[train] != UNLABELED
    labeled, unlabeled = train[is_labeled], train[~is_labeled]
    x_l = dataset.values[labeled] if labeled.size else None
    y_l = dataset.labels[labeled] if labeled.size else None
    x_u = dataset.values[unlabeled] if unlabeled.size else None
    return x_u, x_l, y_l


@dataclass(frozen=True)
class _Stage:
    """One training phase: which parameters move, on which losses and pools."""

    name: str  # prefix of the epoch in divergence messages
    params: dict
    weights: LossWeights
    x_u: np.ndarray | None
    labeled: tuple[np.ndarray, np.ndarray] | None
    epochs: int
    index: int  # Philox sub-stream of the shuffle and augment streams


def _run_stage(model: EncoderClassifier, stage: _Stage, cfg: TrainConfig,
               ds: SemiLabeledDataset, plan: SplitPlan, trace: TrainTrace) -> None:
    """Draw, step and evaluate for every epoch of one stage, appending to `trace`."""
    optimizer = make_optimizer(cfg.optimizer, stage.params, cfg.learning_rate)
    shuffle_rng = stream(cfg.seed, "shuffle", index=stage.index)
    aug_rng = stream(cfg.seed, "augment", index=stage.index)
    x_u, (x_l, y_l) = stage.x_u, stage.labeled or (None, None)
    cyc_u = _Cycler(x_u.shape[0], cfg.batch_size, shuffle_rng) if x_u is not None else None
    cyc_l = _Cycler(x_l.shape[0], cfg.batch_size, shuffle_rng) if x_l is not None else None
    steps = max(c.batches_per_epoch for c in (cyc_u, cyc_l) if c is not None)

    for _ in range(stage.epochs):
        epoch = len(trace.records) + 1
        sums = dict.fromkeys(("loss_u", "loss_s", "loss_c", "hybrid"), 0.0)
        for step in range(steps):
            batch_u = x_u[cyc_u.draw()] if cyc_u is not None else None
            batch_l = labels = None
            if cyc_l is not None:
                idx = cyc_l.draw()
                if stage.weights.lambda2 > 0:
                    idx = _ensure_two_classes(idx, y_l, cyc_l.order)
                batch_l, labels = x_l[idx], y_l[idx]
            try:
                parts = _train_step(model, optimizer, stage.weights, cfg,
                                    batch_u, batch_l, labels, aug_rng)
            except DivergenceError as err:
                raise DivergenceError(f"{stage.name} {epoch} batch {step + 1}: {err}") from err
            for key in sums:
                sums[key] += parts.get(key) or 0.0
        trace.add(EpochRecord(epoch, *(s / steps for s in sums.values()),
                              val=evaluate(model, ds, plan.test_indices)))


def _unsup_pool(x_u: np.ndarray | None, skipped: str) -> np.ndarray | None:
    if x_u is None or x_u.shape[0] < 2:
        logger.warning("unsupervised pool has %d samples; skipping %s",
                       0 if x_u is None else x_u.shape[0], skipped)
        return None
    return x_u


def _labeled_pool(x_l: np.ndarray | None, y_l: np.ndarray | None, lw: LossWeights,
                  missing: str) -> tuple[np.ndarray, np.ndarray]:
    if x_l is None:
        raise ContractError(missing)
    if lw.lambda2 > 0 and np.unique(y_l).size < 2:
        raise DegenerateLabelError("labeled pool must span >= 2 classes for L_s")
    return x_l, y_l


def _transfer_pool(dataset: SemiLabeledDataset, plan: SplitPlan | None,
                   channels: int) -> np.ndarray:
    """Every train-split sample of a pretraining dataset, labels ignored."""
    if plan is None or dataset.channels != channels:
        raise ConfigError(f"transfer pretraining needs a split plan and matching channel "
                          f"counts, got {dataset.channels} vs {channels}")
    return zscore_by_train(dataset, plan).values[list(plan.train_indices)]


def fit(model: EncoderClassifier, dataset: SemiLabeledDataset, plan: SplitPlan,
        cfg: TrainConfig, pretrain_dataset: SemiLabeledDataset | None = None,
        pretrain_plan: SplitPlan | None = None):
    """Train `model` under the configured regime; returns (model, trace).

    Passing `pretrain_dataset` (two stage only) switches pretraining to
    transfer mode: all of that dataset's train-split samples form the
    unsupervised pool, labels ignored; channel counts must match. Fine-tuning
    adds the supervised contrastive loss under `two_stage_with_Ls` only, and
    leaves the encoder alone under `freeze_encoder`.
    """
    ds = zscore_by_train(dataset, plan)
    x_u, x_l, y_l = _train_pools(ds, plan)
    lw = cfg.effective_weights()
    if cfg.regime == "end_to_end":
        if pretrain_dataset is not None:
            raise ConfigError("transfer pretraining needs regime two_stage")
        stages = [_Stage(
            "epoch", model.parameters(), lw,
            _unsup_pool(x_u, "L_u") if lw.lambda1 > 0 else None,
            _labeled_pool(x_l, y_l, lw, "labeled pool is empty but lambda2/lambda3 are positive")
            if lw.lambda2 > 0 or lw.lambda3 > 0 else None,
            cfg.epochs, 0)]
        if stages[0].x_u is None and stages[0].labeled is None:
            raise ContractError("no active loss component for this configuration")
    else:
        stages = []
        if pretrain_dataset is not None:
            x_u = _transfer_pool(pretrain_dataset, pretrain_plan, dataset.channels)
        if cfg.pretrain_epochs > 0 and lw.lambda1 > 0:
            pool = _unsup_pool(x_u, "pretraining stage")
            if pool is not None:
                stages.append(_Stage("pretrain epoch", model.encoder_parameters(), lw,
                                     pool, None, cfg.pretrain_epochs, 0))
        fine = replace(lw, lambda2=lw.lambda2 if cfg.ablation == "two_stage_with_Ls" else 0.0)
        if fine.lambda3 == 0 and fine.lambda2 == 0:
            raise ContractError("fine-tuning has no active loss (lambda3 == 0)")
        params = model.classifier_parameters() if cfg.freeze_encoder else model.parameters()
        stages.append(_Stage("fine-tune epoch", params, fine, None,
                             _labeled_pool(x_l, y_l, fine, "fine-tuning needs a labeled pool"),
                             cfg.epochs, 1))
    trace = TrainTrace()
    for stage in stages:
        _run_stage(model, stage, cfg, ds, plan, trace)
    return model, trace
