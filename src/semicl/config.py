"""Flat key=value run configuration with a closed schema.

Config files are plain text, one ``dotted.key = value`` per line, ``#``
comments allowed. Unknown keys and duplicate keys are errors, not warnings,
so configs stay diffable and typo-proof. The same parser handles
``--override key=value`` flags. ``rng.algorithm`` is pinned: only the
documented Philox 4x64 generator family is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from . import rng as rng_mod
from .augment import KINDS, AugmentSpec
from .data import PATTERNS, SemiLabeledDataset, SplitParams, load_csv
from .errors import ConfigError
from .losses import DENOMINATOR_MODES, LossWeights
from .nn import EncoderConfig
from .optim import OPTIMIZERS
from .synth import synth_generate
from .train import ABLATIONS, REGIMES, TrainConfig


def _float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s!r}")
    return value


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _choice(*options: str):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s
    return parse


def _int_list(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(",") if p != "")


# key -> (parser, default); None default means "only valid when set".
SCHEMA: dict[str, tuple] = {
    "data.source": (_choice("synth", "csv"), "synth"),
    "data.manifest": (str, ""),
    "data.num_samples": (int, 600),
    "data.num_classes": (int, 2),
    "data.channels": (int, 1),
    "data.length": (int, 128),
    "data.noise_sigma": (_float, 0.3),
    "data.num_subjects": (int, 8),
    "data.label_ratio": (_float, 1.0),
    "split.pattern": (_choice(*PATTERNS), "trial_dependent"),
    "split.test_fraction": (_float, 0.25),
    "split.holdout_trials": (int, 1),
    "split.holdout_subjects": (int, 1),
    "model.num_blocks": (int, 3),
    "model.dilations": (_int_list, (1, 2, 4)),
    "model.feature_channels": (int, 8),
    "model.embed_dim": (int, 64),
    "losses.lambda1": (_float, 1.0),
    "losses.lambda2": (_float, 1.0),
    "losses.lambda3": (_float, 1.0),
    "losses.tau": (_float, 0.5),
    "losses.ntxent_denominator": (_choice(*DENOMINATOR_MODES), "simclr"),
    "augment.kind": (_choice(*KINDS), "temporal_mask"),
    "augment.mask_prob": (_float, 0.5),
    "augment.jitter_sigma": (_float, 0.1),
    "train.regime": (_choice(*REGIMES), "end_to_end"),
    "train.ablation": (_choice(*ABLATIONS), "full"),
    "train.epochs": (int, 30),
    "train.batch_size": (int, 100),
    "train.optimizer": (_choice(*OPTIMIZERS), "adam"),
    "train.learning_rate": (_float, 1e-3),
    "train.pretrain_epochs": (int, 30),
    "train.freeze_encoder": (_bool, False),
    "rng.algorithm": (_choice(rng_mod.ALGORITHM), rng_mod.ALGORITHM),
}


def parse_entry(key: str, value: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = SCHEMA[key]
    try:
        return parser(value.strip())
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def load_config(path, overrides: list[str] | None = None) -> "ExperimentConfig":
    """Read a config file, apply overrides, and return the resolved config."""
    values = {k: default for k, (_, default) in SCHEMA.items()}
    seen: set[str] = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e})") from e
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        seen.add(key)
        values[key] = parse_entry(key, val)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        values[key] = parse_entry(key, val)
    cfg = ExperimentConfig(values=values, source_path=str(path))
    cfg.validate()
    return cfg


@dataclass
class ExperimentConfig:
    """Resolved configuration; builders for every component live here."""

    values: dict = field(default_factory=dict)
    source_path: str = ""

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        if self["data.source"] == "csv" and not self["data.manifest"]:
            raise ConfigError("data.source=csv needs data.manifest")
        if not (0.0 < self["data.label_ratio"] <= 1.0):
            raise ConfigError(f"data.label_ratio must be in (0, 1], got {self['data.label_ratio']}")
        # Building the train config builds and so validates the loss weights
        # and the augmentation spec too.
        self.train_config(seed=0)

    def loss_weights(self) -> LossWeights:
        try:
            return LossWeights(
                lambda1=self["losses.lambda1"],
                lambda2=self["losses.lambda2"],
                lambda3=self["losses.lambda3"],
                tau=self["losses.tau"],
            )
        except Exception as e:
            raise ConfigError(f"bad loss weights: {e}") from e

    def augment_spec(self) -> AugmentSpec:
        try:
            return AugmentSpec(
                kind=self["augment.kind"],
                mask_prob=self["augment.mask_prob"],
                jitter_sigma=self["augment.jitter_sigma"],
            )
        except Exception as e:
            raise ConfigError(f"bad augmentation spec: {e}") from e

    def split_params(self) -> SplitParams:
        return SplitParams(
            test_fraction=self["split.test_fraction"],
            holdout_trials=self["split.holdout_trials"],
            holdout_subjects=self["split.holdout_subjects"],
        )

    def encoder_config(self, in_channels: int) -> EncoderConfig:
        try:
            return EncoderConfig(
                in_channels=in_channels,
                num_blocks=self["model.num_blocks"],
                dilations=self["model.dilations"],
                feature_channels=self["model.feature_channels"],
                embed_dim=self["model.embed_dim"],
            )
        except Exception as e:
            raise ConfigError(f"bad model config: {e}") from e

    def train_config(self, seed: int, regime: str | None = None,
                     ablation: str | None = None) -> TrainConfig:
        return TrainConfig(
            regime=regime or self["train.regime"],
            ablation=ablation or self["train.ablation"],
            weights=self.loss_weights(),
            epochs=self["train.epochs"],
            batch_size=self["train.batch_size"],
            optimizer=self["train.optimizer"],
            learning_rate=self["train.learning_rate"],
            seed=seed,
            pretrain_epochs=self["train.pretrain_epochs"],
            freeze_encoder=self["train.freeze_encoder"],
            augment=self.augment_spec(),
            ntxent_denominator=self["losses.ntxent_denominator"],
        )

    def build_dataset(self, seed: int) -> SemiLabeledDataset:
        """Generate (synth) or load (csv) the fully labeled dataset."""
        if self["data.source"] == "synth":
            return synth_generate(
                num_samples=self["data.num_samples"],
                num_classes=self["data.num_classes"],
                channels=self["data.channels"],
                length=self["data.length"],
                noise_sigma=self["data.noise_sigma"],
                seed=seed,
                num_subjects=self["data.num_subjects"],
            )
        manifest = Path(self["data.manifest"])
        if not manifest.is_absolute() and self.source_path:
            manifest = Path(self.source_path).parent / manifest
        return load_csv(manifest)

