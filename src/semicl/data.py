"""Semi-labeled dataset model, CSV ingestion, label-ratio subsetting, splits.

A dataset is four read-only columns (see `SemiLabeledDataset`); every function
here works on whole columns and returns a new dataset.

File formats
------------
Sample CSV: header ``sample_id,subject_id,trial_id,label,channel,v0,...,v{L-1}``
with one row per channel; ``label`` is an integer class id or -1 for
unlabeled. A value is an ASCII decimal double: an optional sign, digits with
an optional point, an optional exponent, and whitespace around it if any. It
round-trips bit-exactly (written with ``repr``). Underscores, non-ASCII digits
and line breaks inside a value are parse errors, as is a non-finite value
(``inf``, ``nan``, ``1e999``). Fields are quoted as `csv` quotes them: a field
holding a comma, a double quote or a line break sits in double quotes, with
its own double quotes doubled. Manifest: plain-text lines
``path,num_classes,channels,length`` where ``path`` is resolved relative to
the manifest's directory; all lines agree on the last three fields, and
channels and length are at least 1.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    DataError,
    LabelError,
    ParseError,
    SchemaError,
    SplitError,
    StratificationError,
)
from .rng import stream

UNLABELED = -1

PATTERNS = ("trial_dependent", "leave_trials_out", "leave_subjects_out")


@dataclass(frozen=True)
class TimeSeriesSample:
    """One row of a dataset, as listed by `SemiLabeledDataset.samples`."""

    values: np.ndarray  # (channels, length) float64, read-only
    label: int
    subject_id: str
    trial_id: str

    @property
    def is_labeled(self) -> bool:
        return self.label != UNLABELED


@dataclass(frozen=True, eq=False)
class SemiLabeledDataset:
    """N series as four read-only columns, plus class count and label ratio.

    ``values`` is (N, channels, length) float64, ``labels`` (N,) int64 with
    UNLABELED for a hidden label, ``subject_ids`` and ``trial_ids`` (N,) str.
    A changed dataset is a new one, made with `dataclasses.replace`.
    """

    values: np.ndarray
    labels: np.ndarray
    subject_ids: np.ndarray
    trial_ids: np.ndarray
    num_classes: int
    label_ratio: float = 1.0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ContractError(f"num_classes must be >= 2, got {self.num_classes}")
        for name, dtype in (("values", np.float64), ("labels", np.int64),
                            ("subject_ids", str), ("trial_ids", str)):
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.values.ndim != 3 or self.values.shape[2] < 1:
            raise ContractError(f"values must be (samples, channels, length), got {self.values.shape}")
        if any(getattr(self, c).shape != (len(self),) for c in ("labels", "subject_ids", "trial_ids")):
            raise ContractError(f"every column needs {len(self)} rows")
        bad = self.labels[(self.labels != UNLABELED)
                          & ((self.labels < 0) | (self.labels >= self.num_classes))]
        if bad.size:
            raise LabelError(f"label {bad[0]} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @cached_property
    def samples(self) -> tuple[TimeSeriesSample, ...]:
        """Row view, built once; kept for perfbench's tracer and set-up probe."""
        return tuple(TimeSeriesSample(v, label, subject, trial) for v, label, subject, trial
                     in zip(self.values, self.labels.tolist(), self.subject_ids.tolist(),
                            self.trial_ids.tolist()))


@dataclass(frozen=True)
class SplitParams:
    """Pattern-specific split knobs; only the relevant field is read."""

    test_fraction: float = 0.25   # trial_dependent
    holdout_trials: int = 1       # leave_trials_out: trials held out per subject
    holdout_subjects: int = 1     # leave_subjects_out


@dataclass(frozen=True)
class SplitPlan:
    pattern: str
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]

    def __post_init__(self):
        overlap = set(self.train_indices) & set(self.test_indices)
        if overlap:
            raise SplitError(f"train/test overlap on indices {sorted(overlap)[:5]}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _expected_header(length: int) -> list[str]:
    return ["sample_id", "subject_id", "trial_id", "label", "channel"] + [
        f"v{i}" for i in range(length)
    ]


def load_csv(manifest_path) -> SemiLabeledDataset:
    """Load a dataset from a manifest of per-sample CSV files.

    Rows are checked in file order and stored straight into one (N, channels,
    length) array, allocated up front for as many samples as the files'
    newlines and sizes can hold. Values are parsed `BLOCK_ROWS` rows at a time
    by one `np.loadtxt` call; a block holding a faulty row is parsed again one
    row at a time, so the error names the first faulty line.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    try:
        lines = manifest_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{manifest_path}: not UTF-8 text ({e})") from e
    entries = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise SchemaError(f"{manifest_path}:{ln}: manifest line needs path,num_classes,channels,length")
        try:
            entries.append((parts[0], int(parts[1]), int(parts[2]), int(parts[3])))
        except ValueError as e:
            raise SchemaError(f"{manifest_path}:{ln}: {e}") from e
    if not entries:
        raise DataError(f"{manifest_path}: empty manifest")
    _, num_classes, channels, length = entries[0]
    if channels < 1 or length < 1 or any(e[1:] != (num_classes, channels, length) for e in entries):
        raise SchemaError(f"{manifest_path}: entries need channels >= 1, length >= 1 and one "
                          "num_classes/channels/length")

    paths = [base / e[0] for e in entries]
    # A data row follows a newline and holds `length` values with a comma
    # before each, so 2 * length bytes; a complete sample takes `channels` rows.
    rows = sum(min(_count_newlines(path), path.stat().st_size // (2 * length)) for path in paths)
    capacity = rows // channels
    if capacity < 1:
        raise SchemaError(f"{manifest_path}: the files are too short to hold one sample of "
                          f"{channels} channels x {length} values")
    values = np.empty((capacity, channels, length), dtype=np.float64)
    labels = np.empty(capacity, dtype=np.int64)
    subjects, trials = [""] * capacity, [""] * capacity
    seen = np.zeros((capacity, channels), dtype=bool)
    n = 0
    for path in paths:
        ids: dict[str, int] = {}
        for block in _data_blocks(path, length):
            block_values = _block_values([fields for _, fields, _ in block], length)
            for k, (ln, fields, quoted) in enumerate(block):
                try:
                    if block_values is None:
                        label, channel, row_values = _parse_row(fields, quoted, length)
                    else:
                        label, channel, row_values = int(fields[3]), int(fields[4]), block_values[k]
                except ValueError as e:
                    raise ParseError(f"{path}:{ln}: {e}") from e
                sample_id, subject_id, trial_id = fields[:3]
                if label != UNLABELED and not (0 <= label < num_classes):
                    raise LabelError(f"{path}:{ln}: label {label} outside [0, {num_classes})")
                if not (0 <= channel < channels):
                    raise SchemaError(f"{path}:{ln}: channel {channel} outside [0, {channels})")
                i = ids.get(sample_id)
                if i is None:  # the sample's first row
                    i = ids[sample_id] = n + len(ids)
                    if i == capacity:
                        raise SchemaError(f"{path}:{ln}: more samples than rows for {channels} "
                                          "channels each; some sample is missing channel rows")
                    subjects[i], trials[i], labels[i] = subject_id, trial_id, label
                elif (subjects[i], trials[i], labels[i]) != (subject_id, trial_id, label):
                    raise SchemaError(f"{path}:{ln}: rows of sample {sample_id} disagree on metadata")
                elif seen[i, channel]:
                    raise SchemaError(f"{path}:{ln}: duplicate channel {channel} for sample {sample_id}")
                values[i, channel] = row_values
                seen[i, channel] = True
        if not ids:
            raise DataError(f"{path}: no data rows")
        missing = np.flatnonzero(~seen[n: n + len(ids)].all(axis=1))
        if missing.size:
            raise SchemaError(f"{path}: sample {list(ids)[missing[0]]} is missing channel rows")
        n += len(ids)
    return SemiLabeledDataset(values[:n], labels[:n], subjects[:n], trials[:n], num_classes)


def _count_newlines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


# Rows whose values one np.loadtxt call parses. From 16 rows on, the call's
# overhead is within 3% of the parse; larger blocks only hold more text and
# values at once, which raised the peak memory of a whole `semicl eval`.
BLOCK_ROWS = 16
_BLANK = ("", "\n", "\r\n", "\r")


def _data_blocks(path: Path, length: int):
    """Lists of up to BLOCK_ROWS data rows after a header checked against `length`.

    Rows are numbered and split as `csv.reader` numbers and splits them, and
    blank rows are skipped. A row is (line number, fields, quoted): ``fields``
    is the first five fields, then the values' text, comma-separated. A line
    without a double quote is split only up to its values (fewer fields for a
    short row), whose text keeps the line end. For a line with one,
    ``quoted`` is the value fields as `csv.reader` split them, else None.
    Text that is not UTF-8, or that `csv.reader` rejects (say, a field over its
    size limit), is a ParseError raised after the rows before it are yielded.
    """
    block, ln = [], 1
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if len(header) != 5 + length or header != _expected_header(length):
                raise SchemaError(f"{path}: header does not match the sample schema for length {length}")
            for ln, line in enumerate(fh, start=2):
                if line in _BLANK:
                    continue
                if '"' in line:  # csv.reader's split, through any quoted line breaks
                    row = next(csv.reader(itertools.chain([line], fh)))
                    block.append((ln, row[:5] + [",".join(row[5:])], row[5:]))
                else:
                    block.append((ln, line.split(",", 5), None))
                if len(block) == BLOCK_ROWS:
                    yield block
                    block = []
        except (UnicodeDecodeError, csv.Error) as e:
            if block:  # the rows before the faulty text are checked first
                yield block
            if isinstance(e, UnicodeDecodeError):
                raise ParseError(f"{path}: not UTF-8 text ({e})") from e
            raise ParseError(f"{path}:{ln}: {e}") from e
    if block:
        yield block


def _block_values(rows_fields: list[list[str]], length: int):
    """The rows' (rows, length) values from one np.loadtxt call, or None if a row needs its own.

    None also when a value is not finite, so that `_parse_row` names its line.
    """
    texts = []
    for fields in rows_fields:
        text = fields[-1]
        # np.loadtxt skips a blank line, and these separators around a number;
        # float() does neither.
        if (len(fields) != 6 or text in _BLANK or "\x1c" in text or "\x1d" in text
                or "\x1e" in text or "\x1f" in text):
            return None
        texts.append(text)
    try:
        values = np.loadtxt(texts, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    ok = values.shape == (len(texts), length) and np.isfinite(values).all()
    return values if ok else None


def _parse_row(fields: list[str], quoted, length: int) -> tuple[int, int, np.ndarray]:
    """One row's (label, channel, values), parsed on its own.

    ValueError names the first fault, checked in this order: the field count,
    a label or channel that is not an integer, a value float() rejects, a
    non-finite value, a value outside the decimal syntax.
    """
    value_fields = quoted if quoted is not None else fields[-1].rstrip("\r\n").split(",")
    nfields = len(fields) - 1 + len(value_fields)
    if nfields != 5 + length:
        raise ValueError(f"expected {5 + length} fields, got {nfields}")
    label, channel = int(fields[3]), int(fields[4])
    values = np.array(value_fields, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite sample value")
    if _block_values([fields], length) is None:
        raise ValueError("a value is outside the decimal syntax (ASCII digits, sign, point, "
                         "exponent)")
    return label, channel, values


def write_csv(dataset: SemiLabeledDataset, csv_path, manifest_path=None) -> None:
    """Write a dataset (one CSV) and optionally a manifest pointing at it."""
    if not len(dataset):
        raise DataError("refusing to write an empty dataset")
    csv_path = Path(csv_path)
    length = dataset.values.shape[2]
    meta = zip(dataset.subject_ids.tolist(), dataset.trial_ids.tolist(), dataset.labels.tolist())
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(length))
        for i, (subject, trial, label) in enumerate(meta):
            for ch, row in enumerate(dataset.values[i].tolist()):
                writer.writerow([f"n{i:06d}", subject, trial, label, ch] + [repr(v) for v in row])
    if manifest_path is not None:
        manifest_path = Path(manifest_path)
        rel = csv_path.name if csv_path.parent == manifest_path.parent else str(csv_path)
        manifest_path.write_text(f"{rel},{dataset.num_classes},{dataset.channels},{length}\n")


# ---------------------------------------------------------------------------
# label-ratio subsetting
# ---------------------------------------------------------------------------

def hide_train_labels(dataset: SemiLabeledDataset, plan: SplitPlan, ratio: float,
                      seed: int) -> SemiLabeledDataset:
    """Keep labels on a stratified ceil(ratio*M) subset of the M train samples.

    Test labels and the sample count stay; hidden samples keep their values but
    become unlabeled. Per-class quotas use largest-remainder rounding, so class
    proportions are preserved within one sample.
    """
    if not (0.0 < ratio <= 1.0):
        raise ContractError(f"label ratio must be in (0, 1], got {ratio}")
    if ratio == 1.0:
        return replace(dataset, label_ratio=1.0)
    train = list(plan.train_indices)
    labels = dataset.labels.copy()
    train_labels = labels[train]
    m = len(train_labels)
    hidden = int((train_labels == UNLABELED).sum())
    if hidden:
        raise ContractError(f"label ratio {ratio} needs every train sample labeled, but "
                            f"{hidden} of the {m} train samples have label {UNLABELED}")

    target = math.ceil(ratio * m)
    # sorted(set()) rather than np.unique: the first np.unique call pays a lazy import.
    classes = sorted(set(train_labels.tolist()))
    by_class = {c: np.flatnonzero(train_labels == c) for c in classes}
    quotas = {c: int(math.floor(ratio * len(by_class[c]))) for c in classes}
    remainders = sorted(classes, key=lambda c: (-(ratio * len(by_class[c]) - quotas[c]), c))
    for c in remainders[:target - sum(quotas.values())]:
        quotas[c] += 1
    empty = [c for c in classes if quotas[c] == 0]
    if empty:
        raise StratificationError(f"ratio {ratio} leaves classes {empty} without labeled samples")

    rng = stream(seed, "label_ratio")
    out = np.full(m, UNLABELED, dtype=np.int64)
    for c in classes:
        idx = by_class[c]
        out[idx[rng.permutation(len(idx))[: quotas[c]]]] = c
    labels[train] = out
    return replace(dataset, labels=labels, label_ratio=ratio)


def _index_hash(*index_lists) -> str:
    """First 16 hex digits of the sha256 of the lists, comma-joined, then joined by "|"."""
    blob = "|".join(",".join(str(i) for i in indices) for indices in index_lists)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def labeled_subset_hash(dataset: SemiLabeledDataset, plan: SplitPlan) -> str:
    """Stable hash of which train samples are labeled (fairness audits)."""
    train = np.array(plan.train_indices, dtype=np.int64)
    return _index_hash(np.sort(train[dataset.labels[train] != UNLABELED]).tolist())


def split_plan_hash(plan: SplitPlan) -> str:
    """Stable hash of the train/test membership of a split plan."""
    return _index_hash(plan.train_indices, plan.test_indices)


# ---------------------------------------------------------------------------
# split protocols
# ---------------------------------------------------------------------------

def make_split(dataset: SemiLabeledDataset, pattern: str, params: SplitParams,
               seed: int) -> SplitPlan:
    """Build a train/test split under one of the three evaluation patterns."""
    if pattern not in PATTERNS:
        raise ContractError(f"unknown split pattern {pattern!r}; use one of {PATTERNS}")
    n = len(dataset)
    if n < 2:
        raise SplitError(f"need at least 2 samples to split, got {n}")
    rng = stream(seed, "split")
    test = np.zeros(n, dtype=bool)

    if pattern == "trial_dependent":
        if not (0.0 < params.test_fraction < 1.0):
            raise SplitError(f"test_fraction must be in (0, 1), got {params.test_fraction}")
        perm = rng.permutation(n)
        n_test = min(n - 1, max(1, round(params.test_fraction * n)))
        test[perm[:n_test]] = True
    elif pattern == "leave_trials_out":
        _require_group_ids(dataset, pattern)
        k = params.holdout_trials
        if k < 1:
            raise SplitError(f"holdout_trials must be >= 1, got {k}")
        for subj in sorted(set(dataset.subject_ids.tolist())):
            mine = dataset.subject_ids == subj
            trials = np.array(sorted(set(dataset.trial_ids[mine].tolist())))
            if len(trials) <= k:
                raise SplitError(
                    f"subject {subj} has {len(trials)} trials; cannot hold out {k}"
                )
            held = trials[rng.choice(len(trials), size=k, replace=False)]
            test |= mine & np.isin(dataset.trial_ids, held)
    else:  # leave_subjects_out
        _require_group_ids(dataset, pattern)
        k = params.holdout_subjects
        if k < 1:
            raise SplitError(f"holdout_subjects must be >= 1, got {k}")
        subjects = np.array(sorted(set(dataset.subject_ids.tolist())))
        if len(subjects) <= k:
            raise SplitError(f"{len(subjects)} subjects; cannot hold out {k}")
        held = subjects[rng.choice(len(subjects), size=k, replace=False)]
        test = np.isin(dataset.subject_ids, held)

    return SplitPlan(
        pattern=pattern,
        train_indices=tuple(np.flatnonzero(~test).tolist()),
        test_indices=tuple(np.flatnonzero(test).tolist()),
    )


def _require_group_ids(dataset: SemiLabeledDataset, pattern: str) -> None:
    if ((dataset.subject_ids == "") | (dataset.trial_ids == "")).any():
        raise SplitError(f"pattern {pattern} requires subject and trial ids on every sample")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def zscore_by_train(dataset: SemiLabeledDataset, plan: SplitPlan) -> SemiLabeledDataset:
    """Per-channel z-score with statistics from the train split only."""
    # Rows of the train samples side by side: the summation order of the statistics.
    train_values = np.concatenate(dataset.values[list(plan.train_indices)], axis=1)
    mean = train_values.mean(axis=1, keepdims=True)
    std = train_values.std(axis=1, keepdims=True)
    del train_values  # its heap space then takes the normalized copy below
    std = np.where(std > 0.0, std, 1.0)
    values = dataset.values - mean
    values /= std
    return replace(dataset, values=values)
