"""Seeded benchmark inputs: sinusoid-class CSV datasets, manifests and configs.

The generator is the benchmark's own, so a change to ``semicl.synth`` cannot
change what the program is fed. It follows the documented model of that
module: class c is a sinusoid at 5 + 2c cycles per window with a uniform
random phase per channel plus Gaussian noise, labels round-robin, and
subjects advance every ``num_classes`` samples so each subject sees every
class. Values are written with ``repr`` so they load back bit-exactly.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

BASE_FREQ = 5
FREQ_STEP = 2

# Model and loss settings shared by every workload; they mirror the reference
# experiment (scripts/reference.cfg in the repository).
MODEL_KEYS = {
    "model.num_blocks": "3",
    "model.dilations": "1,2,4",
    "model.feature_channels": "4",
    "model.embed_dim": "64",
    "losses.lambda1": "1.0",
    "losses.lambda2": "0.3",
    "losses.lambda3": "2.0",
    "losses.tau": "0.5",
    "losses.ntxent_denominator": "simclr",
    "augment.kind": "temporal_mask",
    "augment.mask_prob": "0.5",
    "train.optimizer": "adam",
    "rng.algorithm": "philox4x64",
}


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Independent Philox stream per (workload seed, purpose)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, zlib.crc32(tag.encode())])))


def program_seeds(seed: int, tag: str, count: int) -> list[int]:
    """Seeds handed to the program's --seeds flag, derived from the workload seed."""
    return [int(s) for s in rng_for(seed, tag).integers(1, 1_000_000, size=count)]


def sinusoid_values(rng: np.random.Generator, n: int, classes: int, channels: int,
                    length: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    labels = np.arange(n) % classes
    t = np.arange(length) / length
    freqs = BASE_FREQ + FREQ_STEP * labels
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, channels, 1))
    clean = np.sin(2.0 * np.pi * freqs[:, None, None] * t[None, None, :] + phases)
    return clean + rng.normal(0.0, noise, size=(n, channels, length)), labels


def write_dataset(out_dir: Path, rng: np.random.Generator, *, n: int, classes: int,
                  channels: int, length: int, noise: float, subjects: int) -> Path:
    """Write data.csv plus manifest.txt in `out_dir`; return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    values, labels = sinusoid_values(rng, n, classes, channels, length, noise)
    header = ["sample_id", "subject_id", "trial_id", "label", "channel"] + [
        f"v{i}" for i in range(length)]
    trials = [0] * subjects
    with open(out_dir / "data.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            subj = (i // classes) % subjects
            meta = f"n{i:06d},s{subj:03d},t{trials[subj]:04d},{labels[i]},"
            for ch in range(channels):
                fh.write(meta + f"{ch}," + ",".join(map(repr, values[i, ch].tolist())) + "\n")
            trials[subj] += 1
    manifest = out_dir / "manifest.txt"
    manifest.write_text(f"data.csv,{classes},{channels},{length}\n")
    return manifest


def write_config(path: Path, entries: dict[str, str]) -> Path:
    lines = [f"{k} = {v}" for k, v in {**MODEL_KEYS, **entries}.items()]
    path.write_text("\n".join(lines) + "\n")
    return path
