import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semicl.errors import ContractError, DegenerateLabelError
from semicl.metrics import (
    EvalReport,
    auprc,
    auroc_ovr,
    classification_metrics,
    compute_all,
)

import oracles

RNG = np.random.default_rng(23)


# ---------------------------------------------------------------------------
# accuracy / precision / recall / F1
# ---------------------------------------------------------------------------

def test_perfect_prediction_all_ones():
    y = np.array([0, 1, 2, 1, 0])
    out = classification_metrics(y, y, 3)
    assert out == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_hand_confusion_matrix_binary():
    out = classification_metrics([0, 0, 1, 1], [0, 1, 0, 1], 2)
    assert out["accuracy"] == 0.5
    assert out["f1"] == 0.5


def test_single_class_prediction_zero_fill():
    out = classification_metrics([0, 0, 1, 1], [0, 0, 0, 0], 2)
    assert out["accuracy"] == 0.5
    assert out["precision"] == 0.25  # (0.5 + 0) / 2 under the zero convention
    assert out["recall"] == 0.5


def test_absent_class_counts_zero_with_warning(caplog):
    with caplog.at_level("WARNING"):
        out = classification_metrics([0, 0], [0, 0], 3)
    assert out["precision"] == pytest.approx(1.0 / 3.0)
    assert any("absent" in rec.message for rec in caplog.records)


def test_macro_metrics_invariant_under_relabeling():
    y = RNG.integers(0, 3, size=40)
    p = RNG.integers(0, 3, size=40)
    base = classification_metrics(y, p, 3)
    perm = np.array([2, 0, 1])
    swapped = classification_metrics(perm[y], perm[p], 3)
    for k in base:
        assert base[k] == pytest.approx(swapped[k], abs=1e-15)


def test_empty_input_rejected():
    with pytest.raises(ContractError):
        classification_metrics([], [], 2)


# ---------------------------------------------------------------------------
# AUROC
# ---------------------------------------------------------------------------

def binary_scores(labels, pos_scores):
    scores = np.zeros((len(labels), 2))
    scores[:, 1] = pos_scores
    scores[:, 0] = -np.asarray(pos_scores)
    return scores


def test_auroc_perfect_separation():
    y = [0, 0, 1, 1]
    s = binary_scores(y, [0.1, 0.2, 0.8, 0.9])
    assert auroc_ovr(y, s) == 1.0


def test_auroc_all_ties_is_half():
    y = [0, 1, 0, 1]
    s = np.full((4, 2), 0.5)
    assert auroc_ovr(y, s) == 0.5


def test_auroc_six_sample_matches_pairwise_oracle():
    y = [1, 0, 1, 0, 1, 0]
    raw = [0.9, 0.8, 0.8, 0.3, 0.2, 0.2]
    got = auroc_ovr(y, binary_scores(y, raw))
    flags = [t == 1 for t in y]
    assert got == pytest.approx(
        0.5 * (oracles.auroc_pairwise(flags, raw)
               + oracles.auroc_pairwise([not f for f in flags], [-r for r in raw])),
        abs=1e-15,
    )


def test_auroc_random_draws_match_oracle():
    for trial in range(200):
        rng = np.random.default_rng(trial)
        m = int(rng.integers(3, 9))
        c = int(rng.integers(2, 4))
        y = rng.integers(0, c, size=m)
        if np.unique(y).size < 2:
            continue
        # Coarse grid scores force plenty of ties.
        scores = rng.integers(0, 4, size=(m, c)) / 3.0
        got = auroc_ovr(y, scores)
        expected = oracles.macro_ovr(y, scores, oracles.auroc_pairwise)
        assert abs(got - expected) < 1e-12


def test_auroc_monotone_transform_invariance_exact():
    y = RNG.integers(0, 3, size=30)
    scores = RNG.normal(size=(30, 3))
    base = auroc_ovr(y, scores)
    assert auroc_ovr(y, 2.0 * scores + 1.0) == base
    assert auroc_ovr(y, np.exp(scores)) == base


def test_auroc_flip_complement_without_ties():
    y = RNG.integers(0, 2, size=20)
    s = RNG.normal(size=20)
    while np.unique(s).size < 20:
        s = RNG.normal(size=20)
    a = auroc_ovr(y, binary_scores(y, s))
    b = auroc_ovr(1 - y, binary_scores(1 - y, s))
    # For binary problems AUROC of -s on flipped labels equals the original.
    assert a + auroc_ovr(y, binary_scores(y, -s)) == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0 - a, abs=1e-12)


def test_auroc_degenerate_labels_rejected():
    with pytest.raises(DegenerateLabelError):
        auroc_ovr([1, 1, 1], np.ones((3, 2)))


# ---------------------------------------------------------------------------
# AUPRC
# ---------------------------------------------------------------------------

def test_auprc_perfect_ranking():
    y = [0, 0, 1, 1]
    assert auprc(y, binary_scores(y, [0.1, 0.2, 0.8, 0.9])) == 1.0


def test_auprc_random_scores_near_prevalence():
    rng = np.random.default_rng(0)
    m = 10_000
    y = np.concatenate([np.zeros(m // 2, dtype=int), np.ones(m // 2, dtype=int)])
    scores = binary_scores(y, rng.normal(size=m))
    assert abs(auprc(y, scores) - 0.5) < 0.03


def test_auprc_five_sample_matches_threshold_oracle():
    y = [1, 0, 1, 1, 0]
    raw = [0.9, 0.9, 0.5, 0.1, 0.3]
    got = auprc(y, binary_scores(y, raw))
    flags = [t == 1 for t in y]
    expected = 0.5 * (
        oracles.auprc_threshold_sweep(flags, raw)
        + oracles.auprc_threshold_sweep([not f for f in flags], [-r for r in raw])
    )
    assert got == pytest.approx(expected, abs=1e-15)


def test_auprc_random_draws_match_oracle():
    for trial in range(200):
        rng = np.random.default_rng(5000 + trial)
        m = int(rng.integers(3, 9))
        c = int(rng.integers(2, 4))
        y = rng.integers(0, c, size=m)
        if np.unique(y).size < 2:
            continue
        scores = rng.integers(0, 4, size=(m, c)) / 3.0
        got = auprc(y, scores)
        expected = oracles.macro_ovr(
            y, scores, lambda flags, s: oracles.auprc_threshold_sweep(flags, s)
        )
        assert abs(got - expected) < 1e-12


def test_auprc_monotone_transform_invariance_exact():
    y = RNG.integers(0, 2, size=25)
    scores = RNG.normal(size=(25, 2))
    base = auprc(y, scores)
    assert auprc(y, 2.0 * scores + 1.0) == base
    assert auprc(y, np.exp(scores)) == base


@given(st.floats(0.1, 50.0), st.floats(-5.0, 5.0), st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_ranking_metrics_affine_invariance_property(a, b, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, size=20)
    assume(np.unique(y).size >= 2)
    scores = rng.normal(size=(20, 3))
    assert auroc_ovr(y, a * scores + b) == auroc_ovr(y, scores)
    assert auprc(y, a * scores + b) == auprc(y, scores)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_compute_all_six_metrics_in_unit_interval():
    y = RNG.integers(0, 3, size=60)
    scores = RNG.dirichlet(np.ones(3), size=60)
    preds = scores.argmax(axis=1)
    out = compute_all(y, preds, scores, 3)
    assert set(out) == {"accuracy", "precision", "recall", "f1", "auroc", "auprc"}
    assert all(0.0 <= v <= 1.0 for v in out.values())


def test_eval_report_mean_std():
    rep = EvalReport()
    for acc in (0.5, 0.7):
        rep.add({"accuracy": acc, "precision": acc, "recall": acc,
                 "f1": acc, "auroc": acc, "auprc": acc})
    assert len(rep.runs) == 2
    assert rep.mean()["accuracy"] == pytest.approx(0.6)
    assert rep.std()["accuracy"] == pytest.approx(0.1)
    empty = EvalReport()
    with pytest.raises(ContractError):
        empty.mean()
