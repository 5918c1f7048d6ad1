"""Synthetic dataset generator for desk-scale experiments.

Class c samples are sinusoids at a class-specific integer frequency
(base_freq + c * freq_step cycles per window) with a uniform random phase per
channel, plus i.i.d. Gaussian noise. Labels are assigned round-robin, so
classes are balanced within one sample, and subject/trial ids are laid out on
a grid (subject = i % num_subjects, trial = running count per subject) so all
three split patterns apply.

`classify_by_bandpower` is the independent spectral oracle: it scores each
class by the FFT magnitude at its frequency bin and predicts the argmax. It
shares no code with the encoder/classifier path.
"""

from __future__ import annotations

import numpy as np

from .data import SemiLabeledDataset
from .errors import ContractError
from .rng import stream

# Adjacent-ish integer frequencies keep the learning problem nontrivial at
# desk scale while staying trivially separable for the FFT-bin oracle.
BASE_FREQ = 5
FREQ_STEP = 2


def class_frequencies(num_classes: int, length: int) -> list[int]:
    freqs = [BASE_FREQ + FREQ_STEP * c for c in range(num_classes)]
    if freqs[-1] >= length // 2:
        raise ContractError(
            f"{num_classes} classes need frequency {freqs[-1]} cycles, above the "
            f"Nyquist limit for length {length}"
        )
    return freqs


def synth_generate(num_samples: int, num_classes: int, channels: int, length: int,
                   noise_sigma: float, seed: int, num_subjects: int = 8) -> SemiLabeledDataset:
    """Generate a fully labeled synthetic dataset."""
    if num_classes < 2:
        raise ContractError(f"need at least 2 classes, got {num_classes}")
    if num_samples < num_classes:
        raise ContractError(f"need at least one sample per class, got {num_samples}")
    if channels < 1 or length < 2 or num_subjects < 1:
        raise ContractError("channels, length, and num_subjects must be positive")
    if noise_sigma < 0:
        raise ContractError(f"noise_sigma must be >= 0, got {noise_sigma}")
    freqs = np.array(class_frequencies(num_classes, length))
    rng = stream(seed, "synth")
    t = np.arange(length) / length
    phases = np.empty((num_samples, channels, 1))
    noise = np.zeros((num_samples, channels, length))
    # Phase then noise, sample by sample: the stream order that fixes each dataset.
    for i in range(num_samples):
        phases[i] = rng.uniform(0.0, 2.0 * np.pi, size=(channels, 1))
        if noise_sigma > 0:
            noise[i] = rng.normal(0.0, noise_sigma, size=(channels, length))
    i = np.arange(num_samples)
    labels = i % num_classes
    # Advance the subject every num_classes samples so each subject sees
    # every class; subject = i % num_subjects would pin one class per
    # subject whenever num_classes divides num_subjects, degenerating the
    # leave-subjects-out split. A subject's trials count up across its blocks.
    block = i // num_classes
    subjects = [f"s{b % num_subjects:03d}" for b in block.tolist()]
    trials = [f"t{k:04d}" for k in ((block // num_subjects) * num_classes + labels).tolist()]
    values = np.sin(2.0 * np.pi * freqs[labels][:, None, None] * t + phases) + noise
    return SemiLabeledDataset(values, labels, subjects, trials, num_classes)


def classify_by_bandpower(dataset: SemiLabeledDataset) -> np.ndarray:
    """Spectral-energy oracle predictions, independent of the learned model."""
    if not len(dataset):
        raise ContractError("empty dataset")
    freqs = class_frequencies(dataset.num_classes, dataset.values.shape[2])
    spectrum = np.abs(np.fft.rfft(dataset.values, axis=2))
    return spectrum[:, :, freqs].mean(axis=1).argmax(axis=1)


def oracle_accuracy(dataset: SemiLabeledDataset) -> float:
    """Fraction of samples the bandpower oracle labels correctly."""
    return float((classify_by_bandpower(dataset) == dataset.labels).mean())
