from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from semicl.data import (
    UNLABELED,
    SemiLabeledDataset,
    SplitParams,
    SplitPlan,
    hide_train_labels,
    labeled_subset_hash,
    load_csv,
    make_split,
    split_plan_hash,
    write_csv,
    zscore_by_train,
)
from semicl.errors import (
    ContractError,
    DataError,
    LabelError,
    ParseError,
    SchemaError,
    SplitError,
    StratificationError,
)
from semicl.synth import oracle_accuracy, synth_generate

RNG = np.random.default_rng(17)


def make_dataset(n=12, channels=2, length=8, num_classes=2, subjects=3):
    return SemiLabeledDataset(
        values=RNG.normal(size=(n, channels, length)),
        labels=np.arange(n) % num_classes,
        subject_ids=[f"s{i % subjects}" for i in range(n)],
        trial_ids=[f"t{i // subjects}" for i in range(n)],
        num_classes=num_classes,
    )


def edited(ds, values=None, labels=None):
    """`ds` with entries of its values and labels overwritten, given as {index: value}."""
    new_values, new_labels = ds.values.copy(), ds.labels.copy()
    for idx, v in (values or {}).items():
        new_values[idx] = v
    for idx, v in (labels or {}).items():
        new_labels[idx] = v
    return replace(ds, values=new_values, labels=new_labels)


def test_samples_view_is_built_once_over_read_only_columns():
    ds = make_dataset(n=5)
    assert ds.samples is ds.samples
    assert [s.label for s in ds.samples] == ds.labels.tolist()
    assert np.array_equal(ds.samples[2].values, ds.values[2])
    assert ds.samples[4].subject_id == "s1" and ds.samples[4].trial_id == "t1"
    for column in (ds.values, ds.labels, ds.subject_ids, ds.trial_ids):
        with pytest.raises(ValueError):
            column[0] = column[1]
    with pytest.raises(ValueError):
        ds.samples[0].values[0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        ds.labels = np.zeros(5, dtype=np.int64)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_write_load_round_trip_bit_exact(tmp_path):
    # Make values numerically nasty.
    ds = edited(make_dataset(n=6),
                values={(0, 0, 0): 1e-300, (1, 0, 0): -1.2345678901234567e17, (2, 0, 0): np.pi},
                labels={3: UNLABELED})
    write_csv(ds, tmp_path / "data.csv", tmp_path / "manifest.txt")
    loaded = load_csv(tmp_path / "manifest.txt")
    assert len(loaded) == len(ds)
    assert loaded.num_classes == ds.num_classes
    assert np.array_equal(ds.values, loaded.values)
    assert np.array_equal(ds.labels, loaded.labels)
    assert np.array_equal(ds.subject_ids, loaded.subject_ids)
    assert np.array_equal(ds.trial_ids, loaded.trial_ids)


def test_load_counts_labeled_unlabeled(tmp_path):
    ds = edited(make_dataset(n=3, channels=1, num_classes=2), labels={0: 0, 1: UNLABELED, 2: 1})
    write_csv(ds, tmp_path / "data.csv", tmp_path / "manifest.txt")
    loaded = load_csv(tmp_path / "manifest.txt")
    labeled = (loaded.labels != UNLABELED).sum()
    assert labeled == 2 and len(loaded) - labeled == 1


def test_manifest_with_multiple_files(tmp_path):
    ds_a = make_dataset(n=4, channels=1)
    ds_b = make_dataset(n=3, channels=1)
    write_csv(ds_a, tmp_path / "a.csv")
    write_csv(ds_b, tmp_path / "b.csv")
    length = ds_a.values.shape[2]
    (tmp_path / "manifest.txt").write_text(
        f"a.csv,2,1,{length}\nb.csv,2,1,{length}\n"
    )
    loaded = load_csv(tmp_path / "manifest.txt")
    assert len(loaded) == 7
    assert np.array_equal(np.concatenate([ds_a.values, ds_b.values]), loaded.values)


def test_manifest_entries_must_agree(tmp_path):
    ds = make_dataset(n=2, channels=1)
    write_csv(ds, tmp_path / "a.csv")
    length = ds.values.shape[2]
    (tmp_path / "manifest.txt").write_text(
        f"a.csv,2,1,{length}\na.csv,3,1,{length}\n"
    )
    with pytest.raises(SchemaError):
        load_csv(tmp_path / "manifest.txt")


def test_manifest_of_mixed_lengths_rejected(tmp_path):
    write_csv(make_dataset(n=2, channels=1, length=16), tmp_path / "a.csv")
    write_csv(make_dataset(n=2, channels=1, length=32), tmp_path / "b.csv")
    (tmp_path / "manifest.txt").write_text("a.csv,2,1,16\nb.csv,2,1,32\n")
    with pytest.raises(SchemaError, match="length"):
        load_csv(tmp_path / "manifest.txt")


@pytest.mark.parametrize("channels", [0, -1])
def test_manifest_without_channels_rejected(tmp_path, channels):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,0,0,1.0,2.0\n"
    )
    (tmp_path / "manifest.txt").write_text(f"data.csv,2,{channels},2\n")
    with pytest.raises(SchemaError, match="channels >= 1"):
        load_csv(tmp_path / "manifest.txt")


def test_empty_file_rejected(tmp_path):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(DataError):
        load_csv(tmp_path / "manifest.txt")


def test_blank_lines_do_not_size_the_array(tmp_path):
    # 2**20 blank lines under a length-100000 header would size an 800 GB
    # array if every newline could start a row; the file's bytes bound it.
    length = 100_000
    with open(tmp_path / "data.csv", "w") as fh:
        fh.write(",".join(["sample_id", "subject_id", "trial_id", "label", "channel"]
                          + [f"v{i}" for i in range(length)]) + "\n")
        fh.write("\n" * 2**20)
    (tmp_path / "manifest.txt").write_text(f"data.csv,2,1,{length}\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(tmp_path / "manifest.txt")

def test_out_of_range_label_rejected(tmp_path):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,5,0,1.0,2.0\n"
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(LabelError):
        load_csv(tmp_path / "manifest.txt")


def test_malformed_row_names_line_number(tmp_path):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,0,0,1.0,2.0\n"
        "n1,s0,t1,1,0,oops,2.0\n"
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(ParseError, match=":3"):
        load_csv(tmp_path / "manifest.txt")


@pytest.mark.parametrize("value", ["inf", "1e999", "nan"])
def test_non_finite_value_names_line_number(tmp_path, value):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,0,0,1.0,2.0\n"
        f"n1,s0,t1,1,0,1.0,{value}\n"
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(ParseError, match=":3: non-finite"):
        load_csv(tmp_path / "manifest.txt")


def test_missing_channel_rejected(tmp_path):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,0,0,1.0,2.0\n"
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,2,2\n")
    with pytest.raises(SchemaError):
        load_csv(tmp_path / "manifest.txt")


def test_samples_missing_channels_beyond_row_capacity_rejected(tmp_path):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,0,0,1.0,2.0\n"
        "n1,s0,t1,1,0,1.0,2.0\n"
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,2,2\n")
    with pytest.raises(SchemaError, match="missing channel rows"):
        load_csv(tmp_path / "manifest.txt")


def test_ids_that_need_quotes_round_trip(tmp_path):
    ids = ["a,b", 'say "hi"', "two\nlines", "cr\rid", "crlf\r\nid", "plain"]
    ds = SemiLabeledDataset(RNG.normal(size=(6, 2, 3)), np.arange(6) % 2, ids, ids[::-1], 2)
    write_csv(ds, tmp_path / "data.csv", tmp_path / "manifest.txt")
    loaded = load_csv(tmp_path / "manifest.txt")
    assert loaded.subject_ids.tolist() == ids and loaded.trial_ids.tolist() == ids[::-1]
    assert loaded.values.tobytes() == ds.values.tobytes()


@pytest.mark.parametrize("value,message", [
    ("1_0", "outside the decimal syntax"),        # float() reads 10.0
    ("\u0661", "outside the decimal syntax"),   # an Arabic-Indic digit one
    ('"1.0\r"', "outside the decimal syntax"),    # a quoted line break
    ("1.0\x1c", "could not convert"),             # np.loadtxt alone reads it as space
    ('"1,5"', "could not convert"),               # a quoted decimal comma
])
def test_value_outside_the_decimal_syntax_names_its_line(tmp_path, value, message):
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n"
        "n0,s0,t0,0,0,1.0,2.0\n"
        f"n1,s0,t1,1,0,{value},2.0\n", newline=""
    )
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(ParseError, match=f":3: .*{message}"):
        load_csv(tmp_path / "manifest.txt")


FAULTS = {
    "label": ("n9,s0,t9,7,0,1.0,2.0", LabelError),
    "value": ("n9,s0,t9,1,0,1.0,x", ParseError),
    "fields": ("n9,s0,t9,1,0,1.0", ParseError),
    "channel": ("n9,s0,t9,1,3,1.0,2.0", SchemaError),
}


@pytest.mark.parametrize("first,second", [("label", "value"), ("value", "label"),
                                          ("fields", "channel"), ("channel", "fields")])
@pytest.mark.parametrize("gap", [0, 40])
def test_first_of_several_faults_is_reported(tmp_path, first, second, gap):
    good = [f"n{i},s0,t{i},0,0,1.0,2.0" for i in range(gap)]
    rows = good + [FAULTS[first][0]] + good[:1] + [FAULTS[second][0]]
    (tmp_path / "data.csv").write_text(
        "sample_id,subject_id,trial_id,label,channel,v0,v1\n" + "\n".join(rows) + "\n")
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(FAULTS[first][1], match=f":{gap + 2}: "):
        load_csv(tmp_path / "manifest.txt")


def test_fault_before_undecodable_text_is_reported_first(tmp_path):
    rows = ["n0,s0,t0,5,0,1.0,2.0"] + [f"n{i},s0,t{i},0,0,1.0,2.0" for i in range(1, 2000)]
    text = "sample_id,subject_id,trial_id,label,channel,v0,v1\n" + "\n".join(rows) + "\n"
    (tmp_path / "data.csv").write_bytes(text.encode() + b"n2000,s0,\xff,0,0,1.0,2.0\n")
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,2\n")
    with pytest.raises(LabelError, match=":2: "):
        load_csv(tmp_path / "manifest.txt")
    (tmp_path / "data.csv").write_bytes(text.replace(",5,", ",1,").encode()
                                        + b"n2000,s0,\xff,0,0,1.0,2.0\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_csv(tmp_path / "manifest.txt")


# ---------------------------------------------------------------------------
# label ratio
# ---------------------------------------------------------------------------

def all_train(ds):
    """A split whose train side is every sample, so the label ratio sees them all."""
    return SplitPlan(tuple(range(len(ds))), ())


def test_ratio_one_keeps_everything():
    ds = make_dataset(n=10)
    out = hide_train_labels(ds, all_train(ds), 1.0, seed=0)
    assert (out.labels != UNLABELED).sum() == 10 and out.label_ratio == 1.0


def test_stratified_counts_balanced_two_class():
    ds = SemiLabeledDataset(values=RNG.normal(size=(100, 1, 4)), labels=np.arange(100) % 2,
                            subject_ids=["s"] * 100, trial_ids=[f"t{i}" for i in range(100)],
                            num_classes=2)
    out = hide_train_labels(ds, all_train(ds), 0.1, seed=3)
    labels = out.labels[out.labels != UNLABELED].tolist()
    assert len(labels) == 10
    assert labels.count(0) == 5 and labels.count(1) == 5
    assert len(out) == 100  # sample count unchanged


def test_label_ratio_deterministic():
    ds = make_dataset(n=20)
    a = hide_train_labels(ds, all_train(ds), 0.3, seed=5)
    b = hide_train_labels(ds, all_train(ds), 0.3, seed=5)
    assert a.labels.tolist() == b.labels.tolist()
    c = hide_train_labels(ds, all_train(ds), 0.3, seed=6)
    assert a.labels.tolist() != c.labels.tolist()


def test_ratio_requires_fully_labeled_input():
    ds = edited(make_dataset(n=4), labels={0: UNLABELED})
    with pytest.raises(ContractError, match="1 of the 4 train samples have label -1"):
        hide_train_labels(ds, all_train(ds), 0.5, seed=0)


def test_stratification_error_when_class_starves():
    ds = SemiLabeledDataset(values=RNG.normal(size=(102, 1, 4)), labels=[0] * 100 + [1, 2],
                            subject_ids=["s"] * 102,
                            trial_ids=[f"t{i}" for i in range(100)] + ["tx", "ty"],
                            num_classes=3)
    with pytest.raises(StratificationError):
        hide_train_labels(ds, all_train(ds), 0.02, seed=0)


def test_hide_train_labels_leaves_test_untouched():
    ds = make_dataset(n=20)
    plan = make_split(ds, "trial_dependent", SplitParams(test_fraction=0.3), seed=1)
    out = hide_train_labels(ds, plan, 0.5, seed=1)
    for i in plan.test_indices:
        assert out.labels[i] == ds.labels[i] != UNLABELED
    hidden = [i for i in plan.train_indices if out.labels[i] == UNLABELED]
    assert hidden


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def grid_dataset(subjects: int, trials: int):
    s, t = np.divmod(np.arange(subjects * trials), trials)
    return SemiLabeledDataset(
        values=np.zeros((subjects * trials, 1, 4)), labels=(s + t) % 2,
        subject_ids=[f"s{k:03d}" for k in s], trial_ids=[f"t{k:03d}" for k in t],
        num_classes=2,
    )


def test_leave_trials_out_worked_counts():
    ds = grid_dataset(32, 40)
    plan = make_split(ds, "leave_trials_out", SplitParams(holdout_trials=4), seed=0)
    assert len(plan.train_indices) == 1152
    assert len(plan.test_indices) == 128
    # Per subject, trial id sets must be disjoint between train and test.
    for subj in set(ds.subject_ids.tolist()):
        train_trials = {ds.trial_ids[i] for i in plan.train_indices
                        if ds.subject_ids[i] == subj}
        test_trials = {ds.trial_ids[i] for i in plan.test_indices
                       if ds.subject_ids[i] == subj}
        assert not (train_trials & test_trials)
        assert len(test_trials) == 4


def test_leave_subjects_out_worked_counts():
    ds = grid_dataset(32, 40)
    plan = make_split(ds, "leave_subjects_out", SplitParams(holdout_subjects=2), seed=0)
    assert len(plan.train_indices) == 1200
    assert len(plan.test_indices) == 80
    train_subjects = {ds.subject_ids[i] for i in plan.train_indices}
    test_subjects = {ds.subject_ids[i] for i in plan.test_indices}
    assert not (train_subjects & test_subjects)
    assert len(test_subjects) == 2


def test_trial_dependent_deterministic():
    ds = grid_dataset(4, 10)
    a = make_split(ds, "trial_dependent", SplitParams(test_fraction=0.25), seed=3)
    b = make_split(ds, "trial_dependent", SplitParams(test_fraction=0.25), seed=3)
    assert a == b
    c = make_split(ds, "trial_dependent", SplitParams(test_fraction=0.25), seed=4)
    assert a != c


def test_split_overlap_always_empty_random_plans():
    ds = grid_dataset(6, 8)
    params = SplitParams(test_fraction=0.3, holdout_trials=2, holdout_subjects=2)
    for pattern in ("trial_dependent", "leave_trials_out", "leave_subjects_out"):
        for seed in range(50):
            plan = make_split(ds, pattern, params, seed)
            assert not (set(plan.train_indices) & set(plan.test_indices))
            assert len(plan.train_indices) + len(plan.test_indices) == len(ds)


def test_insufficient_holdout_rejected():
    ds = grid_dataset(3, 3)
    with pytest.raises(SplitError):
        make_split(ds, "leave_trials_out", SplitParams(holdout_trials=3), seed=0)
    with pytest.raises(SplitError):
        make_split(ds, "leave_subjects_out", SplitParams(holdout_subjects=3), seed=0)


def test_missing_group_ids_rejected():
    ds = SemiLabeledDataset(values=np.zeros((4, 1, 4)), labels=[0] * 4, subject_ids=[""] * 4,
                            trial_ids=[""] * 4, num_classes=2)
    with pytest.raises(SplitError):
        make_split(ds, "leave_subjects_out", SplitParams(), seed=0)


def test_split_hashes_are_stable():
    ds = grid_dataset(4, 10)
    a = make_split(ds, "trial_dependent", SplitParams(), seed=3)
    b = make_split(ds, "trial_dependent", SplitParams(), seed=3)
    assert split_plan_hash(a) == split_plan_hash(b)
    masked = hide_train_labels(ds, a, 0.5, seed=1)
    masked2 = hide_train_labels(ds, a, 0.5, seed=1)
    assert labeled_subset_hash(masked, a) == labeled_subset_hash(masked2, a)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_zscore_uses_train_statistics_only():
    ds = make_dataset(n=16, channels=2, length=32)
    ds = replace(ds, values=ds.values * 3.0 + 7.0)
    plan = make_split(ds, "trial_dependent", SplitParams(test_fraction=0.25), seed=0)
    out = zscore_by_train(ds, plan)
    train_vals = np.concatenate(out.values[list(plan.train_indices)], axis=1)
    assert np.allclose(train_vals.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(train_vals.std(axis=1), 1.0, atol=1e-12)
    all_vals = np.concatenate(out.values, axis=1)
    assert not np.allclose(all_vals.mean(axis=1), 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_balanced_labels():
    ds = synth_generate(601, 3, 1, 64, 0.1, seed=0)
    counts = np.bincount(ds.labels)
    assert counts.max() - counts.min() <= 1


def test_synth_noise_free_class_spectra_identical():
    ds = synth_generate(40, 2, 1, 64, 0.0, seed=2)
    by_class = {}
    for values, label in zip(ds.values, ds.labels.tolist()):
        mag = np.abs(np.fft.rfft(values[0]))
        by_class.setdefault(label, []).append(mag)
    for mags in by_class.values():
        base = mags[0]
        for m in mags[1:]:
            assert np.allclose(m, base, atol=1e-9)


def test_synth_subject_trial_grid():
    ds = synth_generate(1280, 2, 1, 32, 0.1, seed=1, num_subjects=32)
    subjects = set(ds.subject_ids.tolist())
    assert len(subjects) == 32
    pairs = set(zip(ds.subject_ids.tolist(), ds.trial_ids.tolist()))
    assert len(pairs) == 1280  # every sample its own trial


def test_synth_every_subject_sees_every_class():
    # Needed for leave-subjects-out splits to have non-degenerate test labels.
    for num_subjects in (2, 4, 8):
        ds = synth_generate(96, 2, 1, 16, 0.1, seed=0, num_subjects=num_subjects)
        by_subject = {}
        for subject, label in zip(ds.subject_ids.tolist(), ds.labels.tolist()):
            by_subject.setdefault(subject, set()).add(label)
        assert all(labels == {0, 1} for labels in by_subject.values())


def test_synth_validation():
    with pytest.raises(ContractError):
        synth_generate(10, 1, 1, 64, 0.1, seed=0)
    with pytest.raises(ContractError):
        synth_generate(10, 2, 1, 64, -0.5, seed=0)


def test_spectral_oracle_accuracy():
    assert oracle_accuracy(synth_generate(600, 2, 1, 128, 0.1, seed=4)) > 0.99
    assert oracle_accuracy(synth_generate(600, 2, 1, 128, 0.3, seed=4)) >= 0.99
