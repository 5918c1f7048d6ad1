import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicl import autodiff as ad
from semicl import losses as L
from semicl.autodiff import Tape, Tensor, grad_check
from semicl.errors import (
    ContractError,
    DegenerateBatchError,
    DegenerateLabelError,
    LabelError,
)

import oracles

RNG = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# unsupervised contrastive
# ---------------------------------------------------------------------------

def test_all_equal_embeddings_gives_ln2():
    z = np.ones((2, 4))
    loss = L.unsup_contrastive(Tensor(z), Tensor(z), tau=0.5)
    assert abs(loss.item() - math.log(2.0)) < 1e-10


def test_identity_views_match_enumeration_oracle():
    zi = np.eye(2)
    zj = np.eye(2)
    loss = L.unsup_contrastive(Tensor(zi), Tensor(zj), tau=1.0)
    expected = oracles.ntxent_simclr(zi, zj, 1.0)
    assert abs(loss.item() - expected) < 1e-10
    # By symmetry every anchor contributes -log(e / (2 e^0)) = ln 2 - 1.
    assert abs(loss.item() - (math.log(2.0) - 1.0)) < 1e-10


def test_scale_invariance():
    zi, zj = RNG.normal(size=(4, 6)), RNG.normal(size=(4, 6))
    a = L.unsup_contrastive(Tensor(zi), Tensor(zj), tau=0.5).item()
    b = L.unsup_contrastive(Tensor(5.0 * zi), Tensor(5.0 * zj), tau=0.5).item()
    assert abs(a - b) < 1e-9


def test_consistent_permutation_invariance():
    zi, zj = RNG.normal(size=(5, 4)), RNG.normal(size=(5, 4))
    perm = RNG.permutation(5)
    a = L.unsup_contrastive(Tensor(zi), Tensor(zj), tau=0.7).item()
    b = L.unsup_contrastive(Tensor(zi[perm]), Tensor(zj[perm]), tau=0.7).item()
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("mode,oracle", [
    ("simclr", oracles.ntxent_simclr),
    ("paired_only", oracles.ntxent_paired_only),
])
def test_unsup_matches_oracle_on_random_batches(mode, oracle):
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = rng.integers(2, 7)
        d = rng.integers(2, 7)
        tau = float(rng.uniform(0.2, 2.0))
        zi, zj = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        got = L.unsup_contrastive(Tensor(zi), Tensor(zj), tau, denominator=mode).item()
        assert abs(got - oracle(zi, zj, tau)) < 1e-10


def test_loss_strictly_decreases_as_positive_similarity_rises():
    # zj[0] rotates toward zi[0] inside span(e0, e1); all other embeddings sit
    # in orthogonal coordinates, so every other similarity is pinned at 0.
    def batch(theta):
        zi = np.zeros((3, 8))
        zj = np.zeros((3, 8))
        zi[0, 0] = 1.0
        zj[0, 0], zj[0, 1] = math.cos(theta), math.sin(theta)
        zi[1, 2] = zi[2, 3] = 1.0
        zj[1, 4] = zj[2, 5] = 1.0
        return zi, zj

    values = []
    for theta in (1.2, 0.8, 0.4, 0.1):
        zi, zj = batch(theta)
        values.append(L.unsup_contrastive(Tensor(zi), Tensor(zj), tau=0.5).item())
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


@given(st.integers(2, 6), st.integers(2, 8), st.floats(0.3, 1.5),
       st.floats(0.1, 20.0), st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_unsup_scale_and_permutation_invariance_property(n, d, tau, scale, seed):
    rng = np.random.default_rng(seed)
    zi, zj = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    perm = rng.permutation(n)
    base = L.unsup_contrastive(Tensor(zi), Tensor(zj), tau).item()
    scaled = L.unsup_contrastive(Tensor(scale * zi), Tensor(scale * zj), tau).item()
    permuted = L.unsup_contrastive(Tensor(zi[perm]), Tensor(zj[perm]), tau).item()
    assert abs(base - scaled) < 1e-8
    assert abs(base - permuted) < 1e-9


@given(st.integers(2, 5), st.integers(2, 6), st.floats(-4.0, 1.0), st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_contrastive_losses_match_log_space_oracle_at_any_tau(n, d, log_tau, seed):
    # Masked-out similarities can exceed a row's shift by up to 2/tau; at small
    # tau they must not overflow into the value or the gradient.
    tau = 10.0 ** log_tau
    rng = np.random.default_rng(seed)
    zi, zj = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    z, y = np.concatenate([zi, zj]), np.arange(2 * n) % 2
    ti, tj, tz = (Tensor(a, requires_grad=True) for a in (zi, zj, z))
    with Tape() as tape:
        lu = L.unsup_contrastive(ti, tj, tau)
        ls = L.sup_contrastive(tz, y, tau)
        total = ad.add(lu, ls)
    tape.backward(total)
    tol = dict(rel=1e-9, abs=1e-10 * (1.0 + 1.0 / tau))
    assert lu.item() == pytest.approx(oracles.ntxent_simclr_log(zi, zj, tau), **tol)
    assert ls.item() == pytest.approx(oracles.supcon_ratio_of_sums_log(z, y, tau), **tol)
    assert all(np.isfinite(t.grad).all() for t in (ti, tj, tz))


def test_unsup_batch_of_one_rejected():
    z = RNG.normal(size=(1, 4))
    with pytest.raises(DegenerateBatchError):
        L.unsup_contrastive(Tensor(z), Tensor(z), tau=0.5)


def test_unsup_bad_tau_rejected():
    z = RNG.normal(size=(3, 4))
    with pytest.raises(ContractError):
        L.unsup_contrastive(Tensor(z), Tensor(z), tau=0.0)


# ---------------------------------------------------------------------------
# supervised contrastive
# ---------------------------------------------------------------------------

def test_supcon_all_equal_two_plus_two_is_ln2():
    z = np.ones((4, 3))
    loss = L.sup_contrastive(Tensor(z), [0, 0, 1, 1], tau=0.5)
    assert abs(loss.item() - math.log(2.0)) < 1e-10


def test_supcon_axis_aligned_case_matches_oracle():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    y = [0, 0, 1, 1]
    got = L.sup_contrastive(Tensor(z), y, tau=1.0).item()
    expected = oracles.supcon_ratio_of_sums(z, y, 1.0)
    assert abs(got - expected) < 1e-10
    assert abs(got - (math.log(2.0) - 1.0)) < 1e-10


def test_supcon_matches_oracle_on_random_batches():
    done = 0
    trial = 0
    while done < 100:
        trial += 1
        rng = np.random.default_rng(1000 + trial)
        m = int(rng.integers(2, 7))
        y = rng.integers(0, 3, size=m)
        counts = np.bincount(y, minlength=3)
        # Need at least one anchor with both a positive and a negative.
        if np.unique(y).size < 2 or not np.any(counts >= 2):
            continue
        z = rng.normal(size=(m, int(rng.integers(2, 6))))
        tau = float(rng.uniform(0.2, 2.0))
        got = L.sup_contrastive(Tensor(z), y, tau).item()
        assert abs(got - oracles.supcon_ratio_of_sums(z, y, tau)) < 1e-10
        done += 1


def test_supcon_all_equal_matches_count_formula_all_patterns():
    # With identical embeddings the loss reduces to mean over valid anchors of
    # ln(#negatives / #positives).
    for m in range(2, 7):
        for labels in itertools.product(range(2), repeat=m):
            y = np.array(labels)
            counts = {c: int((y == c).sum()) for c in set(labels)}
            expected_terms = []
            for a in range(m):
                pos = counts[y[a]] - 1
                neg = m - counts[y[a]]
                if pos > 0 and neg > 0:
                    expected_terms.append(math.log(neg / pos))
            z = np.ones((m, 4))
            if not expected_terms:
                with pytest.raises(DegenerateLabelError):
                    L.sup_contrastive(Tensor(z), y, tau=0.5)
                continue
            got = L.sup_contrastive(Tensor(z), y, tau=0.5).item()
            assert abs(got - float(np.mean(expected_terms))) < 1e-10


def test_supcon_permutation_invariance():
    z = RNG.normal(size=(6, 5))
    y = np.array([0, 1, 0, 2, 1, 2])
    perm = RNG.permutation(6)
    a = L.sup_contrastive(Tensor(z), y, tau=0.5).item()
    b = L.sup_contrastive(Tensor(z[perm]), y[perm], tau=0.5).item()
    assert abs(a - b) < 1e-10


def test_supcon_single_label_rejected():
    z = RNG.normal(size=(4, 3))
    with pytest.raises(DegenerateLabelError):
        L.sup_contrastive(Tensor(z), [1, 1, 1, 1], tau=0.5)


def test_supcon_can_be_negative():
    z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    loss = L.sup_contrastive(Tensor(z), [0, 0, 1, 1], tau=0.5)
    assert loss.item() < 0.0


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------

def test_uniform_logits_give_ln_c():
    logits = np.zeros((5, 4))
    loss = L.cross_entropy(Tensor(logits), [0, 1, 2, 3, 0])
    assert abs(loss.item() - math.log(4.0)) < 1e-10


def test_saturated_correct_prediction_near_zero():
    logits = np.zeros((2, 3))
    logits[0, 1] = 1000.0
    logits[1, 0] = 1000.0
    loss = L.cross_entropy(Tensor(logits), [1, 0])
    assert 0.0 <= loss.item() < 1e-9


def test_cross_entropy_matches_softmax_oracle():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
    y = [2, 0]
    got = L.cross_entropy(Tensor(logits), y).item()
    assert abs(got - oracles.softmax_cross_entropy(logits, y)) < 1e-10


def test_cross_entropy_nonnegative_random():
    for trial in range(50):
        rng = np.random.default_rng(trial)
        m, c = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        logits = rng.normal(scale=4.0, size=(m, c))
        y = rng.integers(0, c, size=m)
        got = L.cross_entropy(Tensor(logits), y).item()
        assert got >= 0.0
        assert abs(got - oracles.softmax_cross_entropy(logits, y)) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelError):
        L.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------

def test_hybrid_reduces_to_single_component():
    lc = Tensor(0.42)
    w = L.LossWeights(lambda1=0.0, lambda2=0.0, lambda3=1.0, tau=0.5)
    assert L.hybrid(None, None, lc, w).item() == pytest.approx(0.42, abs=0.0)


def test_hybrid_unit_weight_sum():
    w = L.LossWeights(1.0, 1.0, 1.0, tau=0.5)
    out = L.hybrid(Tensor(0.5), Tensor(0.3), Tensor(0.2), w)
    assert out.item() == pytest.approx(1.0, abs=1e-15)


def test_hybrid_all_absent_rejected():
    w = L.LossWeights(1.0, 1.0, 1.0, tau=0.5)
    with pytest.raises(ContractError):
        L.hybrid(None, None, None, w)


def test_doubling_weights_doubles_value_and_gradients():
    zi = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
    zj = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
    logits = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    y = np.array([0, 1, 2, 0])

    def total_loss(weights):
        for p in (zi, zj, logits):
            p.zero_grad()
        with Tape() as tape:
            lu = L.unsup_contrastive(zi, zj, weights.tau)
            ls = L.sup_contrastive(zi, y, weights.tau)
            lc = L.cross_entropy(logits, y)
            out = L.hybrid(lu, ls, lc, weights)
        tape.backward(out)
        return out.item(), [p.grad.copy() for p in (zi, zj, logits)]

    v1, g1 = total_loss(L.LossWeights(1.0, 1.0, 1.0, tau=0.5))
    v2, g2 = total_loss(L.LossWeights(2.0, 2.0, 2.0, tau=0.5))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-14)
    for a, b in zip(g1, g2):
        assert np.allclose(b, 2.0 * a, rtol=1e-13, atol=1e-300)


def test_loss_weights_validation():
    with pytest.raises(ContractError):
        L.LossWeights(tau=0.0)
    with pytest.raises(ContractError):
        L.LossWeights(lambda1=-1.0)
    with pytest.raises(ContractError):
        L.LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_all_three_losses_pass_grad_check_on_4_sample_batches():
    rng = np.random.default_rng(3)
    zi = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    zj = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    err_u = grad_check(lambda a, b: L.unsup_contrastive(a, b, 0.5), [zi, zj], step=1e-5)
    assert err_u < 1e-4

    z = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    y = np.array([0, 0, 1, 1])
    err_s = grad_check(lambda a: L.sup_contrastive(a, y, 0.5), [z], step=1e-5)
    assert err_s < 1e-4

    logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    yc = np.array([0, 2, 1, 1])
    err_c = grad_check(lambda a: L.cross_entropy(a, yc), [logits], step=1e-5)
    assert err_c < 1e-4


def test_ntxent_grad_matches_finite_differences_4x8():
    rng = np.random.default_rng(9)
    zi = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    zj = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    err = grad_check(lambda a, b: L.unsup_contrastive(a, b, 0.5), [zi, zj], step=1e-5)
    assert err < 1e-4


def test_full_hybrid_loss_grad_check_on_toy_batch():
    rng = np.random.default_rng(21)
    w = L.LossWeights(1.0, 0.3, 2.0, tau=0.5)
    y = np.array([0, 1, 0, 1])
    zi = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    zj = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    logits = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def closure(a, b, lg):
        return L.hybrid(
            L.unsup_contrastive(a, b, w.tau),
            L.sup_contrastive(a, y, w.tau),
            L.cross_entropy(lg, y),
            w,
        )

    err = grad_check(closure, [zi, zj, logits], step=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# the fused row op: the bytes of the generic-op chain, one tape entry per call
# ---------------------------------------------------------------------------

def value_and_grad_bytes(fn, *arrays):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = fn(*leaves)
    tape.backward(loss)
    return [loss.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def far_apart(rng, n, d):
    """Embeddings in two tight opposite clusters: cosines near +1 and -1."""
    base = rng.normal(size=d)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)[:, None]
    return signs * base + 1e-3 * rng.normal(size=(n, d))


@pytest.mark.parametrize("mode", L.DENOMINATOR_MODES)
@pytest.mark.parametrize("tau", [0.05, 0.5, 1.3])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_unsup_bytes_equal_the_generic_op_chain(mode, tau, n):
    rng = np.random.default_rng([n, int(100 * tau), len(mode)])
    for zi, zj in [(rng.normal(size=(n, 6)), rng.normal(size=(n, 6))),
                   (far_apart(rng, n, 6), far_apart(rng, n, 6))]:
        got = value_and_grad_bytes(lambda a, b: L.unsup_contrastive(a, b, tau, mode), zi, zj)
        want = value_and_grad_bytes(
            lambda a, b: oracles.unsup_contrastive_chain(a, b, tau, mode), zi, zj)
        assert got == want


@pytest.mark.parametrize("labels", [[0, 1, 0, 1], [0, 0, 0, 1], [0, 0, 1, 2, 2, 1, 3],
                                    [1, 0, 2, 2, 0, 0, 1, 1, 2]])
@pytest.mark.parametrize("tau", [0.05, 0.5, 1.3])
def test_supcon_bytes_equal_the_generic_op_chain_with_empty_rows(labels, tau):
    # Singleton classes (label 3, or 1 in [0, 0, 0, 1]) give empty positive rows.
    rng = np.random.default_rng([len(labels), int(100 * tau)])
    y = np.array(labels)
    for z in (rng.normal(size=(len(y), 5)), far_apart(rng, len(y), 5)):
        got = value_and_grad_bytes(lambda a: L.sup_contrastive(a, y, tau), z)
        want = value_and_grad_bytes(lambda a: oracles.sup_contrastive_chain(a, y, tau), z)
        assert got == want


@pytest.mark.parametrize("scale", [1.0, 30.0, 1e3])
@pytest.mark.parametrize("m, c", [(1, 2), (6, 3), (20, 5)])
def test_cross_entropy_bytes_equal_the_generic_op_chain(scale, m, c):
    rng = np.random.default_rng([m, c, int(scale)])
    logits = scale * rng.normal(size=(m, c))
    y = rng.integers(0, c, size=m)
    got = value_and_grad_bytes(lambda a: L.cross_entropy(a, y), logits)
    want = value_and_grad_bytes(lambda a: oracles.cross_entropy_chain(a, y), logits)
    assert got == want


def tape_entries(fn, *arrays):
    with Tape() as tape:
        fn(*[Tensor(a, requires_grad=True) for a in arrays])
    return len(tape.entries)


def test_each_loss_records_one_entry_for_its_rows():
    # unsup: concat, 2 l2_normalize, transpose, matmul, mul_scalar, row op, mean.
    # sup: the same similarity without concat, 2 row ops, sub, mul, sum.
    # cross entropy: row op, mean.
    rng = np.random.default_rng(4)
    z = rng.normal(size=(6, 4))
    assert tape_entries(lambda a, b: L.unsup_contrastive(a, b, 0.5), z, z[::-1]) == 8
    assert tape_entries(lambda a: L.sup_contrastive(a, [0, 1, 0, 1, 1, 0], 0.5), z) == 10
    assert tape_entries(lambda a: L.cross_entropy(a, [0, 1, 2, 3, 0, 1]), z) == 2
