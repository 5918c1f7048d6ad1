import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicl.augment import AugmentSpec, apply, jitter, make_views, temporal_mask
from semicl.errors import ContractError
from semicl.rng import stream

RNG = np.random.default_rng(13)


def test_mask_p0_is_identity():
    x = RNG.normal(size=(3, 50))
    out = temporal_mask(x, 0.0, stream(1, "augment"))
    assert np.array_equal(out, x)


def test_mask_p1_is_all_zeros():
    x = RNG.normal(size=(2, 40))
    out = temporal_mask(x, 1.0, stream(1, "augment"))
    assert np.array_equal(out, np.zeros_like(x))


def test_mask_fraction_monte_carlo():
    x = np.ones((1, 10_000))
    out = temporal_mask(x, 0.5, stream(7, "augment"))
    frac = 1.0 - out.mean()
    assert abs(frac - 0.5) < 0.02


def test_mask_zeroes_whole_columns():
    x = RNG.normal(size=(4, 200)) + 10.0
    out = temporal_mask(x, 0.5, stream(3, "augment"))
    col_zero = (out == 0.0).all(axis=0)
    col_keep = (out == x).all(axis=0)
    assert np.all(col_zero | col_keep)
    assert col_zero.any() and col_keep.any()


def test_jitter_sigma0_is_identity():
    x = RNG.normal(size=(2, 30))
    out = jitter(x, 0.0, stream(1, "augment"))
    assert np.array_equal(out, x)


def test_jitter_moments_monte_carlo():
    x = np.zeros((1, 1_000_000))
    out = jitter(x, 0.1, stream(5, "augment"))
    noise = out - x
    assert abs(noise.mean()) < 0.001
    assert abs(noise.std() - 0.1) < 0.005


def test_same_seed_same_output():
    x = RNG.normal(size=(2, 64))
    a = jitter(x, 0.3, stream(42, "augment"))
    b = jitter(x, 0.3, stream(42, "augment"))
    assert np.array_equal(a, b)
    c = temporal_mask(x, 0.5, stream(42, "augment"))
    d = temporal_mask(x, 0.5, stream(42, "augment"))
    assert np.array_equal(c, d)


def test_make_views_degenerate_spec_returns_input():
    x = RNG.normal(size=(1, 32))
    spec = AugmentSpec(kind="temporal_mask", mask_prob=0.0)
    vi, vj = make_views(x, spec, stream(0, "augment"))
    assert np.array_equal(vi, x) and np.array_equal(vj, x)


def test_make_views_reproducible():
    x = RNG.normal(size=(2, 64))
    spec = AugmentSpec()
    a = make_views(x, spec, stream(9, "augment"))
    b = make_views(x, spec, stream(9, "augment"))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_make_views_almost_always_differ():
    x = RNG.normal(size=(1, 128))
    spec = AugmentSpec(mask_prob=0.5)
    gen = stream(31, "augment")
    differing = sum(
        1 for _ in range(1000)
        if not np.array_equal(*make_views(x, spec, gen))
    )
    assert differing / 1000 > 0.999


def test_spec_validation():
    with pytest.raises(ContractError):
        AugmentSpec(kind="warp")
    with pytest.raises(ContractError):
        AugmentSpec(mask_prob=1.5)
    with pytest.raises(ContractError):
        AugmentSpec(jitter_sigma=-0.1)


@given(st.integers(1, 4), st.integers(1, 64), st.floats(0.0, 1.0),
       st.integers(0, 100000))
@settings(max_examples=30, deadline=None)
def test_shape_preserved(channels, length, p, seed):
    x = np.random.default_rng(seed).normal(size=(channels, length))
    spec = AugmentSpec(kind="temporal_mask", mask_prob=p)
    out = apply(x, spec, stream(seed, "augment"))
    assert out.shape == x.shape
    out2 = apply(x, AugmentSpec(kind="jitter", jitter_sigma=0.2), stream(seed, "augment"))
    assert out2.shape == x.shape


@given(st.lists(st.integers(1, 3), min_size=0, max_size=2), st.integers(1, 3),
       st.integers(1, 40), st.sampled_from(["temporal_mask", "jitter"]),
       st.integers(0, 100000))
@settings(max_examples=40, deadline=None)
def test_batched_views_equal_per_series_views(batch, channels, length, kind, seed):
    x = np.random.default_rng(seed).normal(size=(*batch, channels, length))
    spec = AugmentSpec(kind=kind, mask_prob=0.5, jitter_sigma=0.3)
    batched_rng, loop_rng = stream(seed, "augment"), stream(seed, "augment")
    views = make_views(x, spec, batched_rng)
    assert views.shape == (*batch, 2, channels, length)
    for idx in np.ndindex(*batch):
        assert np.array_equal(views[idx], make_views(x[idx], spec, loop_rng))
    assert str(batched_rng.bit_generator.state) == str(loop_rng.bit_generator.state)
