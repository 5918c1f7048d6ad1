import tracemalloc

import numpy as np
import pytest

from semicl import autodiff as ad
from semicl.autodiff import Tape, Tensor, grad_check
from semicl.errors import ConfigError, ContractError, DimensionError, InputLengthError, SchemaError
from semicl.losses import cross_entropy
from semicl.nn import (
    EncoderClassifier,
    EncoderConfig,
    dense_3x3_weight_count,
    factored_pair_weight_count,
    load_checkpoint,
    save_checkpoint,
)

RNG = np.random.default_rng(5)

TINY = EncoderConfig(in_channels=1, num_blocks=2, dilations=(1, 2),
                     feature_channels=2, embed_dim=6)


def test_default_encode_shape_contract():
    model = EncoderClassifier(EncoderConfig(), num_classes=2, seed=0)
    out = model.encode(RNG.normal(size=(2, 1, 64)))
    assert out.shape == (2, 64)
    assert np.isfinite(out.data).all()


def test_encode_deterministic_and_rowwise():
    model = EncoderClassifier(TINY, num_classes=2, seed=1)
    row = RNG.normal(size=(1, 16))
    batch = np.stack([row, row, RNG.normal(size=(1, 16))])
    z = model.encode(batch).data
    assert np.array_equal(z[0], z[1])
    z2 = model.encode(batch).data
    assert np.array_equal(z, z2)


def test_same_seed_same_init():
    a = EncoderClassifier(TINY, num_classes=3, seed=9)
    b = EncoderClassifier(TINY, num_classes=3, seed=9)
    for (ka, ta), (kb, tb) in zip(a.parameters().items(), b.parameters().items()):
        assert ka == kb and np.array_equal(ta.data, tb.data)
    c = EncoderClassifier(TINY, num_classes=3, seed=10)
    assert any(
        not np.array_equal(t.data, c.parameters()[k].data)
        for k, t in a.parameters().items()
    )


def test_zero_input_zero_bias_gives_zero_embedding():
    model = EncoderClassifier(TINY, num_classes=2, seed=3)
    z = model.encode(np.zeros((2, 1, 16)))
    assert np.array_equal(z.data, np.zeros((2, 6)))


def test_too_short_series_names_minimum():
    model = EncoderClassifier(EncoderConfig(), num_classes=2)
    with pytest.raises(InputLengthError, match="8"):
        model.encode(np.zeros((1, 1, 7)))


def test_channel_mismatch_rejected():
    model = EncoderClassifier(EncoderConfig(in_channels=3), num_classes=2)
    with pytest.raises(DimensionError):
        model.encode(np.zeros((1, 2, 64)))


def test_classify_zero_weights_zero_logits():
    model = EncoderClassifier(TINY, num_classes=4, seed=0)
    model._params["clf.w"].data[:] = 0.0
    model._params["clf.b"].data[:] = 0.0
    logits = model.classify(Tensor(RNG.normal(size=(3, 6))))
    assert np.array_equal(logits.data, np.zeros((3, 4)))


def test_classify_argmax_matches_hand_computation():
    model = EncoderClassifier(TINY, num_classes=2, seed=0)
    w = np.zeros((6, 2))
    w[0, 0], w[0, 1] = 2.0, -1.0
    model._params["clf.w"].data = w
    model._params["clf.b"].data = np.zeros(2)
    z = np.zeros((1, 6))
    z[0, 0] = 1.0
    logits = model.classify(Tensor(z)).data
    assert np.array_equal(logits, [[2.0, -1.0]])
    assert logits.argmax() == 0


def test_classify_batch_of_100():
    model = EncoderClassifier(TINY, num_classes=3, seed=0)
    logits = model.classify(Tensor(RNG.normal(size=(100, 6))))
    assert logits.shape == (100, 3)


def test_classify_dimension_mismatch():
    model = EncoderClassifier(TINY, num_classes=2, seed=0)
    with pytest.raises(DimensionError):
        model.classify(Tensor(np.zeros((2, 7))))


def test_depthwise_multiplier_doubles_channels():
    out = ad.depthwise_conv1d(Tensor(RNG.normal(size=(1, 16, 8))),
                              Tensor(RNG.normal(size=(16, 2, 3))), padding=1)
    assert out.shape == (1, 32, 8)


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

def test_factored_pair_is_two_thirds_of_dense():
    for f in (1, 4, 16, 64):
        pair = factored_pair_weight_count(f, f, f)
        dense = dense_3x3_weight_count(f, f)
        assert pair * 3 == dense * 2
        assert pair == 6 * f * f and dense == 9 * f * f


def test_factored_pair_counts_match_model_tensors():
    cfg = EncoderConfig(in_channels=4, num_blocks=1, dilations=(1,),
                        feature_channels=5, embed_dim=8)
    model = EncoderClassifier(cfg, num_classes=2)
    pair = model._params["enc.b0.temporal.w"].size + model._params["enc.b0.cross.w"].size
    assert pair == factored_pair_weight_count(5, 5, 5)
    assert pair * 3 == dense_3x3_weight_count(5, 5) * 2


def test_parameters_enumerated_exactly_once():
    model = EncoderClassifier(TINY, num_classes=2)
    params = model.parameters()
    ids = [id(t) for t in params.values()]
    assert len(ids) == len(set(ids))
    per_block = 8  # four conv layers, each weight + bias
    expected = TINY.num_blocks * per_block + 2 + 2
    assert len(params) == expected
    joint = set(model.encoder_parameters()) | set(model.classifier_parameters())
    assert joint == set(params)


def test_no_dead_parameters_tiny_scale():
    cfg = EncoderConfig(in_channels=2, num_blocks=2, dilations=(1, 2),
                        feature_channels=3, embed_dim=8)
    model = EncoderClassifier(cfg, num_classes=2, seed=2)
    alive = {name: False for name in model.parameters()}
    for trial in range(4):
        x = np.random.default_rng(trial).normal(size=(6, 2, 16))
        probe_z = Tensor(np.random.default_rng(100 + trial).normal(size=(6, 8)))
        probe_y = Tensor(np.random.default_rng(200 + trial).normal(size=(6, 2)))
        model.zero_grad()
        with Tape() as tape:
            z = model.encode(x)
            out = ad.add(ad.sum(ad.mul(z, probe_z)), ad.sum(ad.mul(model.classify(z), probe_y)))
        tape.backward(out)
        for name, p in model.parameters().items():
            if p.grad is not None and np.any(p.grad != 0.0):
                alive[name] = True
    dead = [name for name, ok in alive.items() if not ok]
    assert not dead, f"parameters with identically zero gradients: {dead}"


def test_no_dead_parameters_univariate_degenerate_cross():
    model = EncoderClassifier(TINY, num_classes=2, seed=4)
    assert TINY.cross_kernel == 1
    alive = {name: False for name in model.parameters()}
    for trial in range(4):
        x = np.random.default_rng(10 + trial).normal(size=(5, 1, 16))
        probe_z = Tensor(np.random.default_rng(300 + trial).normal(size=(5, 6)))
        probe_y = Tensor(np.random.default_rng(400 + trial).normal(size=(5, 2)))
        model.zero_grad()
        with Tape() as tape:
            z = model.encode(x)
            out = ad.add(ad.sum(ad.mul(z, probe_z)), ad.sum(ad.mul(model.classify(z), probe_y)))
        tape.backward(out)
        for name, p in model.parameters().items():
            if p.grad is not None and np.any(p.grad != 0.0):
                alive[name] = True
    dead = [name for name, ok in alive.items() if not ok]
    assert not dead, f"parameters with identically zero gradients: {dead}"


def test_whole_model_gradient_multivariate(monkeypatch):
    """encode + classify under one grad_check: the cross conv runs between two transposes."""
    cfg = EncoderConfig(in_channels=2, num_blocks=2, dilations=(1, 2),
                        feature_channels=2, embed_dim=4)
    assert cfg.cross_kernel == 3
    model = EncoderClassifier(cfg, num_classes=3, seed=0)
    rng = np.random.default_rng(0)
    for name, p in model.parameters().items():
        if name.endswith(".b"):  # off zero, so no relu input sits on the kink
            p.data[...] = rng.normal(scale=0.1, size=p.shape)
    x = Tensor(rng.normal(size=(3, 2, 8)), requires_grad=True)
    y = np.array([0, 1, 2])
    relu_margin = []

    def relu(h):
        relu_margin.append(np.abs(h.data).min())
        return ad_relu(h)

    ad_relu = ad.relu
    monkeypatch.setattr(ad, "relu", relu)
    err = grad_check(lambda x, *params: cross_entropy(model.classify(model.encode(x)), y),
                     [x, *model.parameters().values()], step=1e-5)
    # A relu input within a few steps of 0 would make the central difference straddle the kink.
    assert min(relu_margin) > 1e-4
    assert err < 1e-4, f"whole-model relative gradient error {err:.3e}"


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(num_blocks=0, dilations=())
    with pytest.raises(ConfigError):
        EncoderConfig(num_blocks=2, dilations=(1,))
    with pytest.raises(ConfigError):
        EncoderConfig(dilations=(1, 0, 4))
    with pytest.raises(ContractError):
        EncoderClassifier(TINY, num_classes=1)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = EncoderConfig(in_channels=2, num_blocks=2, dilations=(1, 3),
                        feature_channels=3, embed_dim=5)
    model = EncoderClassifier(cfg, num_classes=3, seed=8)
    # Give parameters awkward values to make byte survival meaningful.
    for p in model.parameters().values():
        p.data = p.data * np.pi + 1e-17
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg and loaded.num_classes == 3
    for name, p in model.parameters().items():
        q = loaded.parameters()[name]
        assert p.data.shape == q.data.shape
        assert np.array_equal(p.data, q.data), name
    x = RNG.normal(size=(2, 2, 16))
    assert np.array_equal(model.encode(x).data, loaded.encode(x).data)


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    model = EncoderClassifier(TINY, num_classes=2, seed=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("tensor_lines", [False, True], ids=["embed_dim", "embed_dim_and_tensor_lines"])
def test_checkpoint_claiming_huge_sizes_fails_before_allocating(tmp_path, tensor_lines):
    path = tmp_path / "model.ckpt"
    save_checkpoint(EncoderClassifier(EncoderConfig(), num_classes=2), path)
    edits = [(b"embed_dim=64\n", b"embed_dim=400000\n")]
    if tensor_lines:
        edits += [(b"enc.head.w 16 64\n", b"enc.head.w 16 400000\n"),
                  (b"enc.head.b 64\n", b"enc.head.b 400000\n"),
                  (b"clf.w 64 2\n", b"clf.w 400000 2\n")]
    blob = path.read_bytes()
    for old, new in edits:
        assert blob.count(old) == 1
        blob = blob.replace(old, new)
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"traced peak {peak} bytes"
