import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import REFERENCE_CONFIG

from semicl import losses as L
from semicl import train as tr
from semicl.augment import AugmentSpec, make_views
from semicl.autodiff import Tape, Tensor
from semicl.config import load_config
from semicl.data import SplitParams, make_split, zscore_by_train
from semicl.errors import ConfigError, ContractError, DivergenceError
from semicl.experiments import TRACE_HEADER, _write_trace
from semicl.losses import LossWeights
from semicl.nn import EncoderClassifier, EncoderConfig
from semicl.optim import SGD, make_optimizer
from semicl.rng import stream
from semicl.synth import synth_generate
from semicl.train import (
    TrainConfig,
    evaluate,
    fit,
)

TINY_ENC = EncoderConfig(in_channels=1, num_blocks=1, dilations=(1,),
                         feature_channels=2, embed_dim=4)


def tiny_model(seed=0):
    return EncoderClassifier(TINY_ENC, num_classes=2, seed=seed)


def tiny_cfg(**kwargs):
    defaults = dict(
        regime="end_to_end",
        weights=LossWeights(1.0, 0.3, 2.0, tau=0.5),
        epochs=2,
        batch_size=8,
        optimizer="sgd",
        learning_rate=0.1,
        seed=0,
        pretrain_epochs=2,
        augment=AugmentSpec(kind="temporal_mask", mask_prob=0.0),
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def tiny_data(seed=0, n=48, length=16):
    ds = synth_generate(n, 2, 1, length, 0.2, seed=seed, num_subjects=4)
    plan = make_split(ds, "trial_dependent", SplitParams(test_fraction=0.25), seed=seed)
    return ds, plan


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_zero_epochs_rejected():
    with pytest.raises(ConfigError):
        tiny_cfg(epochs=0)


def test_bad_regime_ablation_combos_rejected():
    with pytest.raises(ConfigError):
        tiny_cfg(ablation="two_stage_with_Ls")  # needs two_stage
    with pytest.raises(ConfigError):
        tiny_cfg(regime="two_stage", ablation="no_Lu")


def test_effective_weights_zero_the_right_component():
    cfg = tiny_cfg(ablation="no_Lu")
    assert cfg.effective_weights().lambda1 == 0.0
    cfg = tiny_cfg(ablation="no_Ls")
    assert cfg.effective_weights().lambda2 == 0.0


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def manual_loss(model, x_u, x_l, y_l, weights):
    """The step's loss recomputed without a tape, for finite differences."""
    zi = model.encode(x_u)
    zj = model.encode(x_u)  # mask_prob 0 makes both views the input itself
    lu = L.unsup_contrastive(zi, zj, weights.tau)
    zl = model.encode(x_l)
    ls = L.sup_contrastive(zl, y_l, weights.tau)
    lc = L.cross_entropy(model.classify(zl), y_l)
    return L.hybrid(lu, ls, lc, weights).item()


def train_step(model, opt, cfg, x_u, x_l, y_l):
    """One step of the stage runner under the config's (ablated) weights."""
    return tr._train_step(model, opt, cfg.effective_weights(), cfg, x_u, x_l, y_l,
                          stream(0, "augment"))


def test_sgd_step_matches_finite_difference_oracle():
    rng = np.random.default_rng(3)
    model = tiny_model(seed=3)
    # Zero-initialized biases put relu preactivations exactly at the kink,
    # where the defined subgradient (0) and one-sided difference quotients
    # disagree; nudge every bias so the probe stays on smooth ground.
    for name, p in model.parameters().items():
        if name.endswith(".b") or name.endswith("b"):
            p.data = p.data + rng.uniform(0.05, 0.15, size=p.shape)
    x_u = rng.normal(size=(3, 1, 8))
    x_l = rng.normal(size=(4, 1, 8))
    y_l = np.array([0, 1, 0, 1])
    cfg = tiny_cfg()
    weights = cfg.effective_weights()
    # Keep the probe away from the cosine epsilon singularity too.
    z0 = np.concatenate([model.encode(x_u).data, model.encode(x_l).data])
    assert np.linalg.norm(z0, axis=1).min() > 0.1

    before = {k: p.data.copy() for k, p in model.parameters().items()}
    fd_grads = {}
    h = 1e-5
    for name, p in model.parameters().items():
        g = np.zeros(p.data.size)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = manual_loss(model, x_u, x_l, y_l, weights)
            flat[i] = orig - h
            down = manual_loss(model, x_u, x_l, y_l, weights)
            flat[i] = orig
            g[i] = (up - down) / (2 * h)
        fd_grads[name] = g.reshape(p.data.shape)

    opt = SGD(model.parameters(), lr=0.1)
    train_step(model, opt, cfg, x_u, x_l, y_l)
    for name, p in model.parameters().items():
        expected = before[name] - 0.1 * fd_grads[name]
        assert np.abs(p.data - expected).max() < 1e-6, name


def test_step_reduces_to_supervised_cross_entropy():
    rng = np.random.default_rng(5)
    x_l = rng.normal(size=(5, 1, 8))
    y_l = np.array([0, 1, 1, 0, 1])
    x_u = rng.normal(size=(4, 1, 8))

    model_a = tiny_model(seed=7)
    cfg = tiny_cfg(weights=LossWeights(0.0, 0.0, 1.0, tau=0.5))
    opt_a = SGD(model_a.parameters(), lr=0.05)
    train_step(model_a, opt_a, cfg, x_u, x_l, y_l)

    model_b = tiny_model(seed=7)
    opt_b = SGD(model_b.parameters(), lr=0.05)
    with Tape() as tape:
        loss = L.hybrid(None, None, L.cross_entropy(model_b.classify(model_b.encode(x_l)), y_l),
                        cfg.effective_weights())
    opt_b.zero_grad()
    tape.backward(loss)
    opt_b.step()

    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[name].data), name


def test_zeroed_weight_removes_gradient_contribution_exactly():
    # A skipped component and an explicitly 0-weighted component must produce
    # bit-identical parameter updates.
    rng = np.random.default_rng(12)
    x_l = rng.normal(size=(6, 1, 8))
    y_l = np.array([0, 1, 0, 1, 1, 0])

    model_a = tiny_model(seed=3)
    cfg = tiny_cfg(weights=LossWeights(1.0, 0.0, 1.0, tau=0.5))
    opt_a = SGD(model_a.parameters(), lr=0.05)
    train_step(model_a, opt_a, cfg, None, x_l, y_l)

    model_b = tiny_model(seed=3)
    opt_b = SGD(model_b.parameters(), lr=0.05)
    with Tape() as tape:
        zl = model_b.encode(x_l)
        loss = L.hybrid(
            None,
            L.sup_contrastive(zl, y_l, 0.5),
            L.cross_entropy(model_b.classify(zl), y_l),
            LossWeights(1.0, 0.0, 1.0, tau=0.5),
        )
    opt_b.zero_grad()
    tape.backward(loss)
    opt_b.step()
    for name, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[name].data), name


def test_step_returns_exact_weighted_sum():
    rng = np.random.default_rng(9)
    model = tiny_model(seed=2)
    cfg = tiny_cfg()
    w = cfg.effective_weights()
    opt = SGD(model.parameters(), lr=0.01)
    parts = train_step(model, opt, cfg, rng.normal(size=(3, 1, 8)),
                       rng.normal(size=(4, 1, 8)), np.array([0, 1, 0, 1]))
    expected = w.lambda1 * parts["loss_u"] + w.lambda2 * parts["loss_s"] + w.lambda3 * parts["loss_c"]
    assert parts["hybrid"] == expected


def test_step_precondition_violations():
    rng = np.random.default_rng(1)
    model = tiny_model()
    cfg = tiny_cfg()
    opt = SGD(model.parameters(), lr=0.01)
    with pytest.raises(ContractError):
        train_step(model, opt, cfg, rng.normal(size=(1, 1, 8)),
                   rng.normal(size=(4, 1, 8)), np.array([0, 1, 0, 1]))
    with pytest.raises(ContractError):
        train_step(model, opt, cfg, rng.normal(size=(3, 1, 8)),
                   rng.normal(size=(4, 1, 8)), np.array([1, 1, 1, 1]))


def test_reference_step_backward_frees_activations_as_it_goes(monkeypatch):
    """The backward of a reference-shaped step peaks near what the forward holds.

    245 rows (two views of 100 unlabeled and 45 labeled samples), L=128 and
    the reference encoder, under all three losses. A backward that kept every
    entry until it ended would hold each activation next to its gradient and
    peak near twice the forward's memory.
    """
    rng = np.random.default_rng(4)
    enc = EncoderConfig(in_channels=1, num_blocks=3, dilations=(1, 2, 4),
                        feature_channels=4, embed_dim=64)
    model = EncoderClassifier(enc, num_classes=2, seed=1)
    cfg = tiny_cfg(batch_size=100)
    opt = SGD(model.parameters(), lr=0.01)
    x_u, x_l = rng.normal(size=(100, 1, 128)), rng.normal(size=(45, 1, 128))
    y_l = np.arange(45) % 2
    held, peaks = [], []
    real_backward = Tape.backward

    def measured(self, loss):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        real_backward(self, loss)
        peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(Tape, "backward", measured)
    tracemalloc.start()
    try:
        train_step(model, opt, cfg, x_u, x_l, y_l)
    finally:
        tracemalloc.stop()
    assert len(held) == len(peaks) == 1
    assert held[0] > 10e6, f"forward held only {held[0] / 1e6:.1f} MB"
    assert peaks[0] <= 1.15 * held[0], (
        f"backward peaked at {peaks[0] / 1e6:.1f} MB over {held[0] / 1e6:.1f} MB held after the forward"
    )


# ---------------------------------------------------------------------------
# fitting: end to end
# ---------------------------------------------------------------------------

def test_fit_end_to_end_deterministic(tmp_path):
    ds, plan = tiny_data()
    cfg = tiny_cfg(optimizer="adam", learning_rate=1e-3, epochs=2, seed=3)
    traces = []
    finals = []
    for k in range(2):
        ds_i, plan_i = tiny_data()
        model, trace = fit(tiny_model(seed=3), ds_i, plan_i, cfg)
        _write_trace(tmp_path / f"trace{k}.csv", trace)
        traces.append((tmp_path / f"trace{k}.csv").read_bytes())
        finals.append({k: p.data.copy() for k, p in model.parameters().items()})
    assert traces[0] == traces[1]
    for k in finals[0]:
        assert np.array_equal(finals[0][k], finals[1][k])


def test_fit_records_one_row_per_epoch_with_header():
    ds, plan = tiny_data()
    cfg = tiny_cfg(epochs=3, optimizer="adam", learning_rate=1e-3)
    _, trace = fit(tiny_model(), ds, plan, cfg)
    assert len(trace.records) == 3
    assert TRACE_HEADER[:5] == ("epoch", "L_u", "L_s", "L_c", "hybrid")
    for rec in trace.records:
        assert np.isfinite([rec.loss_u, rec.loss_s, rec.loss_c, rec.hybrid]).all()


def test_fit_skips_unsup_when_pool_empty(caplog):
    ds, plan = tiny_data()
    cfg = tiny_cfg(optimizer="adam", learning_rate=1e-3)
    with caplog.at_level("WARNING"):
        _, trace = fit(tiny_model(), ds, plan, cfg)  # fully labeled
    assert any("skipping L_u" in rec.message for rec in caplog.records)
    assert all(rec.loss_u == 0.0 for rec in trace.records)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_fit_divergence_carries_epoch_context():
    ds, plan = tiny_data()
    cfg = tiny_cfg(learning_rate=1e30, epochs=3)
    with pytest.raises(DivergenceError, match="epoch"):
        fit(tiny_model(), ds, plan, cfg)


def test_evaluate_requires_labeled_samples():
    ds, plan = tiny_data()
    labels = ds.labels.copy()
    labels[list(plan.test_indices)] = -1
    ds = replace(ds, labels=labels)
    with pytest.raises(ContractError):
        evaluate(tiny_model(), ds, plan.test_indices)


# ---------------------------------------------------------------------------
# fitting: two stage
# ---------------------------------------------------------------------------

def test_two_stage_optimizer_scopes(monkeypatch):
    from semicl.data import hide_train_labels
    ds, plan = tiny_data()
    masked = hide_train_labels(ds, plan, 0.5, seed=0)
    captured = []
    real = make_optimizer

    def spy(kind, params, lr):
        captured.append(sorted(params))
        return real(kind, params, lr)

    monkeypatch.setattr(tr, "make_optimizer", spy)
    cfg = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-3,
                   epochs=1, pretrain_epochs=1)
    fit(tiny_model(), masked, plan, cfg)
    assert len(captured) == 2
    assert all(name.startswith("enc.") for name in captured[0])
    assert set(captured[1]) == set(tiny_model().parameters())

    captured.clear()
    cfg = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-3,
                   epochs=1, pretrain_epochs=1, freeze_encoder=True)
    fit(tiny_model(), masked, plan, cfg)
    assert all(name.startswith("clf.") for name in captured[1])


def test_two_stage_stage1_leaves_classifier_bits_unchanged(monkeypatch):
    from semicl.data import hide_train_labels
    ds, plan = tiny_data()
    masked = hide_train_labels(ds, plan, 0.5, seed=0)
    model = tiny_model(seed=6)
    clf_before = {k: p.data.copy() for k, p in model.classifier_parameters().items()}
    observed = {}
    real = make_optimizer

    def spy(kind, params, lr):
        # The second construction happens right after stage 1 finished.
        if "n" in observed:
            observed["clf_after_stage1"] = {
                k: p.data.copy() for k, p in model.classifier_parameters().items()
            }
        observed["n"] = observed.get("n", 0) + 1
        return real(kind, params, lr)

    monkeypatch.setattr(tr, "make_optimizer", spy)
    cfg = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-2,
                   epochs=1, pretrain_epochs=3)
    fit(model, masked, plan, cfg)
    assert observed["n"] == 2
    for k, v in clf_before.items():
        assert np.array_equal(v, observed["clf_after_stage1"][k]), k


def test_two_stage_frozen_encoder_untouched_without_pretraining():
    ds, plan = tiny_data()
    model = tiny_model(seed=11)
    before = {k: p.data.copy() for k, p in model.encoder_parameters().items()}
    clf_before = {k: p.data.copy() for k, p in model.classifier_parameters().items()}
    cfg = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-2,
                   epochs=2, pretrain_epochs=0, freeze_encoder=True)
    fit(model, ds, plan, cfg)
    for k, v in before.items():
        assert np.array_equal(v, model.parameters()[k].data), k
    assert any(
        not np.array_equal(clf_before[k], model.parameters()[k].data)
        for k in clf_before
    )


def test_two_stage_trace_covers_both_stages():
    from semicl.data import hide_train_labels
    ds, plan = tiny_data()
    masked = hide_train_labels(ds, plan, 0.5, seed=0)
    cfg = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-3,
                   epochs=2, pretrain_epochs=3)
    _, trace = fit(tiny_model(), masked, plan, cfg)
    assert len(trace.records) == 5
    assert all(rec.loss_c == 0.0 for rec in trace.records[:3])
    assert all(rec.loss_u == 0.0 for rec in trace.records[3:])


def test_two_stage_zero_pretrain_equals_skipped_unsup(caplog):
    ds, plan = tiny_data()  # fully labeled: unsupervised pool is empty
    cfg_a = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-3,
                     epochs=2, pretrain_epochs=0)
    model_a, trace_a = fit(tiny_model(seed=4), ds, plan, cfg_a)
    with caplog.at_level("WARNING"):
        cfg_b = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-3,
                         epochs=2, pretrain_epochs=5)
        model_b, trace_b = fit(tiny_model(seed=4), ds, plan, cfg_b)
    assert any("skipping pretraining" in r.message for r in caplog.records)
    assert len(trace_a.records) == len(trace_b.records) == 2
    for k, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[k].data)


def test_two_stage_transfer_mode():
    ds_a, plan_a = tiny_data(seed=1)
    ds_b, plan_b = tiny_data(seed=2)
    cfg = tiny_cfg(regime="two_stage", optimizer="adam", learning_rate=1e-3,
                   epochs=1, pretrain_epochs=1)
    model, trace = fit(tiny_model(), ds_b, plan_b, cfg,
                       pretrain_dataset=ds_a, pretrain_plan=plan_a)
    assert len(trace.records) == 2

    bad = synth_generate(24, 2, 2, 16, 0.2, seed=3, num_subjects=4)
    bad_plan = make_split(bad, "trial_dependent", SplitParams(), seed=0)
    with pytest.raises(ConfigError):
        fit(tiny_model(), ds_b, plan_b, cfg,
            pretrain_dataset=bad, pretrain_plan=bad_plan)


def test_two_stage_with_ls_uses_supervised_contrastive():
    from semicl.data import hide_train_labels
    ds, plan = tiny_data()
    masked = hide_train_labels(ds, plan, 0.5, seed=0)
    cfg = tiny_cfg(regime="two_stage", ablation="two_stage_with_Ls",
                   optimizer="adam", learning_rate=1e-3, epochs=2, pretrain_epochs=1)
    _, trace = fit(tiny_model(), masked, plan, cfg)
    fine_tune = trace.records[1:]
    assert any(rec.loss_s != 0.0 for rec in fine_tune)


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def test_steps_per_epoch_follow_larger_pool(monkeypatch):
    from semicl.data import hide_train_labels
    ds, plan = tiny_data(n=48)  # 36 train samples
    masked = hide_train_labels(ds, plan, 0.25, seed=0)  # 9 labeled, 27 unlabeled
    calls = []
    real = tr._train_step

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tr, "_train_step", spy)
    cfg = tiny_cfg(optimizer="adam", learning_rate=1e-3, epochs=2, batch_size=8)
    fit(tiny_model(), masked, plan, cfg)
    # Unlabeled pool is larger: ceil(27 / 8) = 4 steps per epoch.
    assert len(calls) == 2 * 4


def test_cycler_recycles_reshuffled():
    cyc = tr._Cycler(5, 3, stream(0, "shuffle"))
    seen = np.concatenate([cyc.draw() for _ in range(5)])
    assert sorted(np.unique(seen)) == [0, 1, 2, 3, 4]
    assert all(len(cyc.draw()) == 3 for _ in range(3))


def test_ensure_two_classes_swaps_last():
    labels = np.array([0, 0, 0, 1, 0])
    idx = np.array([0, 1, 2])
    order = np.array([2, 4, 3, 0, 1])
    fixed = tr._ensure_two_classes(idx, labels, order)
    assert labels[fixed].max() == 1
    already_ok = tr._ensure_two_classes(np.array([0, 3]), labels, order)
    assert np.array_equal(already_ok, [0, 3])


def test_reference_step_records_61_tape_entries(monkeypatch):
    exp = load_config(REFERENCE_CONFIG)
    cfg = exp.train_config(seed=1)
    model = EncoderClassifier(exp.encoder_config(1), num_classes=2, seed=1)
    rng = np.random.default_rng(0)
    counts = []
    backward = Tape.backward

    def counting(tape, loss):
        counts.append(len(tape.entries))
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", counting)
    train_step(model, make_optimizer("adam", model.parameters(), 1e-3), cfg,
               rng.normal(size=(100, 1, 128)), rng.normal(size=(45, 1, 128)),
               np.arange(45) % 2)
    assert counts == [61]
