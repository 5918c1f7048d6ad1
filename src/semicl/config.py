"""Flat key=value run configuration with a closed schema.

Config files are plain text, one ``dotted.key = value`` per line, ``#``
comments allowed. Unknown keys and duplicate keys are errors, not warnings,
so configs stay diffable and typo-proof. The same parser handles
``--override key=value`` flags. ``rng.algorithm`` is pinned: only the
documented Philox 4x64 generator family is supported.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import rng as rng_mod
from .augment import KINDS, AugmentSpec
from .data import PATTERNS, SemiLabeledDataset, SplitParams, load_csv
from .errors import ConfigError, SemiCLError
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


# key -> (parser, default). A key <section>.<name> sets the parameter `name` of
# the class or function its section builds (see ExperimentConfig._build); only
# data.source, data.manifest, data.label_ratio, split.pattern,
# losses.ntxent_denominator and rng.algorithm are read by name.
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


def _entry(where: str, text: str) -> tuple[str, object]:
    """Split one ``key = value`` item and parse its value; each error starts with `where`."""
    key, eq, value = (part.strip() for part in text.partition("="))
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _ = SCHEMA[key]
    try:
        return key, parser(value)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from e


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
        key, value = _entry(f"{path}:{ln}", line)
        if key in seen:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        seen.add(key)
        values[key] = value
    for item in overrides or []:
        key, value = _entry("--override", item)
        values[key] = value
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

    def _build(self, section: str, make, **extra):
        """Call `make` with every ``<section>.<name>`` value whose name is one of its
        parameters, and with `extra`; a SemiCLError it raises becomes a ConfigError."""
        prefix = section + "."
        kwargs = {name: self.values[prefix + name] for name in inspect.signature(make).parameters
                  if prefix + name in self.values}
        kwargs.update(extra)
        try:
            return make(**kwargs)
        except SemiCLError as e:
            raise ConfigError(f"bad {section} config: {e}") from e

    def split_params(self) -> SplitParams:
        return self._build("split", SplitParams)

    def encoder_config(self, in_channels: int) -> EncoderConfig:
        return self._build("model", EncoderConfig, in_channels=in_channels)

    def train_config(self, seed: int, regime: str | None = None,
                     ablation: str | None = None) -> TrainConfig:
        return self._build("train", TrainConfig, seed=seed,
                           regime=regime or self["train.regime"],
                           ablation=ablation or self["train.ablation"],
                           weights=self._build("losses", LossWeights),
                           augment=self._build("augment", AugmentSpec),
                           ntxent_denominator=self["losses.ntxent_denominator"])

    def build_dataset(self, seed: int) -> SemiLabeledDataset:
        """Generate (synth) or load (csv) the fully labeled dataset."""
        if self["data.source"] == "synth":
            return self._build("data", synth_generate, seed=seed)
        manifest = Path(self["data.manifest"])
        if not manifest.is_absolute() and self.source_path:
            manifest = Path(self.source_path).parent / manifest
        return load_csv(manifest)
