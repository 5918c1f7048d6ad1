import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicl import autodiff as ad
from semicl.autodiff import Tape, Tensor, grad_check
from semicl.errors import (
    ContractError,
    DimensionError,
    DomainError,
    TapeStateError,
)

import oracles

RNG = np.random.default_rng(7)


def probe(shape):
    return Tensor(RNG.normal(size=shape))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = RNG.normal(size=(2, 2))
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_softmax_uniform_symmetry():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_conv1d_direct_example():
    out = ad.conv1d(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor([[[1.0, 0.0, -1.0]]]))
    assert np.allclose(out.data, [[-2.0, -2.0]])


@pytest.mark.parametrize("dilation,stride,padding", [(1, 1, 0), (2, 1, 2), (3, 2, 1), (1, 3, 0)])
def test_conv1d_matches_loop_oracle(dilation, stride, padding):
    x = RNG.normal(size=(2, 3, 17))
    w = RNG.normal(size=(4, 3, 3))
    b = RNG.normal(size=4)
    out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation, stride=stride,
                    padding=padding)
    expected = oracles.conv1d_direct(x, w, b, dilation=dilation, stride=stride, padding=padding)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_conv1d_leading_batch_axes():
    x = RNG.normal(size=(2, 5, 3, 10))
    w = RNG.normal(size=(4, 3, 3))
    out = ad.conv1d(Tensor(x), Tensor(w), padding=1)
    flat = oracles.conv1d_direct(x.reshape(10, 3, 10), w, padding=1)
    assert np.allclose(out.data, flat.reshape(2, 5, 4, 10), atol=1e-12)


def test_depthwise_conv1d_matches_loop_oracle():
    x = RNG.normal(size=(2, 3, 9))
    w = RNG.normal(size=(3, 2, 3))
    b = RNG.normal(size=6)
    out = ad.depthwise_conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1)
    expected = oracles.depthwise_conv1d_direct(x, w, b, padding=1)
    assert out.shape == (2, 6, 9)
    assert np.allclose(out.data, expected, atol=1e-12)
    # The conv1d oracle grid, with and without bias.
    x = RNG.normal(size=(2, 3, 17))
    for dilation, stride, padding in [(1, 1, 0), (2, 1, 2), (3, 2, 1), (1, 3, 0)]:
        for bias in (b, None):
            out = ad.depthwise_conv1d(Tensor(x), Tensor(w), None if bias is None else Tensor(bias),
                                      dilation=dilation, stride=stride, padding=padding)
            expected = oracles.depthwise_conv1d_direct(x, w, bias, dilation=dilation,
                                                       stride=stride, padding=padding)
            assert np.allclose(out.data, expected, atol=1e-12), (dilation, stride, padding, bias)
    # Leading batch axes.
    x = RNG.normal(size=(2, 5, 3, 10))
    out = ad.depthwise_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=2, padding=2)
    flat = oracles.depthwise_conv1d_direct(x.reshape(10, 3, 10), w, b, dilation=2, padding=2)
    assert np.allclose(out.data, flat.reshape(2, 5, 6, 10), atol=1e-12)


def _encoder_convolutions(rows=245, sensors=1, length=128, prefix=""):
    """The last-axis convolutions of the encoder at F=4 over blocks with dilations
    1, 2, 4: (name, op, input shape, kernel shape, kwargs). The univariate
    encoder at 245 rows runs all 12, its kernel-1 cross convolutions included."""
    cases, f_in, lead = [], 1, (rows, sensors)
    for i, d in enumerate((1, 2, 4)):
        cases += [(f"{prefix}b{i}.pw", ad.conv1d, lead + (f_in, length), (4, f_in, 1), {}),
                  (f"{prefix}b{i}.temporal", ad.conv1d, lead + (4, length), (4, 4, 3),
                   {"dilation": d, "padding": d}),
                  (f"{prefix}b{i}.cross", ad.conv1d, lead + (4, length), (4, 4, 1), {}),
                  (f"{prefix}b{i}.depthwise", ad.depthwise_conv1d, lead + (4, length),
                   (4, 2, 3), {"padding": 1})]
        f_in, length = 8, length // 2
    return cases


# The univariate encoder's convolutions, the multivariate encoder's last-axis
# ones at 48 rows and 3 sensors (its cross-sensor ones run along axis -3,
# below), then small ones over the geometries of scripts/bitwise_outputs.sh
# (one-tap kernels included), with and without bias.
BYTE_CASES = _encoder_convolutions() + [
    c for c in _encoder_convolutions(48, 3, 32, prefix="multi.") if not c[0].endswith(".cross")] + [
    (f"{op.__name__}{w_shape}-d{d}s{s}p{p}", op, (2, 3, 3, 17), w_shape,
     {"dilation": d, "stride": s, "padding": p})
    for op, w_shape in [(ad.conv1d, (4, 3, 3)), (ad.conv1d, (4, 3, 1)),
                        (ad.depthwise_conv1d, (3, 2, 3)), (ad.depthwise_conv1d, (3, 2, 1))]
    for d, s, p in [(1, 1, 0), (1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2), (4, 1, 0)]]


def _same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("biased", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("name,op,x_shape,w_shape,kwargs", BYTE_CASES,
                         ids=[c[0] for c in BYTE_CASES])
def test_convolutions_keep_the_tap_loop_bytes(name, op, x_shape, w_shape, kwargs, biased):
    rng = np.random.default_rng(len(name))
    data = rng.normal(size=x_shape)
    data[..., 3:9] = -0.0  # windows of signed zeros only
    w_data = rng.normal(size=w_shape)
    c_out = w_shape[0] * (w_shape[1] if op is ad.depthwise_conv1d else 1)
    b_data = rng.normal(size=c_out) if biased else None
    x, w = Tensor(data, requires_grad=True), Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True) if biased else None
    with Tape() as tape:
        out = op(x, w, b, **kwargs)
        g = rng.normal(size=out.shape)
        g[..., ::5] = -0.0
        loss = ad.sum(ad.mul(out, Tensor(g)))
    tape.backward(loss)
    expected = oracles.correlate_tap_loop(data, w_data, b_data, g, op is ad.depthwise_conv1d,
                                          **kwargs)
    got = (out.data, x.grad, w.grad, b.grad if biased else None)
    for key, a, e in zip(("out", "dx", "dw", "db"), got, expected):
        assert (a is None and e is None) or _same_bytes(a, e), key


# conv1d across the sensor axis (axis -3 of (batch, sensor, feature, time)):
# the multivariate encoder's three cross convolutions at 48 rows, 3 sensors
# and F=4, then the stride-1 geometries of scripts/bitwise_outputs.sh along
# an axis of 17.
SENSOR_AXIS_CASES = [
    (f"b{i}.cross", (48, 3, 4, length), (4, 4, 3), {"padding": 1})
    for i, length in enumerate((32, 16, 8))] + [
    (f"conv1d{w_shape}-d{d}s1p{p}", (2, 17, 3, 5), w_shape, {"dilation": d, "padding": p})
    for w_shape in [(4, 3, 3), (4, 3, 1)]
    for d, p in [(1, 0), (1, 1), (2, 2), (4, 0)]]


@pytest.mark.parametrize("biased", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("name,x_shape,w_shape,kwargs", SENSOR_AXIS_CASES,
                         ids=[c[0] for c in SENSOR_AXIS_CASES])
def test_conv1d_along_axis_minus_3_keeps_the_transposed_tap_loop_bytes(name, x_shape, w_shape,
                                                                       kwargs, biased):
    rng = np.random.default_rng(len(name))
    data = rng.normal(size=x_shape)
    data[..., 3:9] = -0.0  # windows of signed zeros only, along time
    data[:, 3:9] = -0.0  # and along the correlated axis, where it is that long
    w_data = rng.normal(size=w_shape)
    b_data = rng.normal(size=w_shape[0]) if biased else None
    x, w = Tensor(data, requires_grad=True), Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True) if biased else None
    with Tape() as tape:
        out = ad.conv1d(x, w, b, axis=-3, **kwargs)
        g = rng.normal(size=out.shape)
        g[..., ::5] = -0.0
        loss = ad.sum(ad.mul(out, Tensor(g)))
    tape.backward(loss)
    swap = (0, 3, 2, 1)
    out_t, dx_t, dw, db = oracles.correlate_tap_loop(data.transpose(swap), w_data, b_data,
                                                     g.transpose(swap), False, **kwargs)
    expected = (out_t.transpose(swap), dx_t.transpose(swap), dw, db)
    got = (out.data, x.grad, w.grad, b.grad if biased else None)
    for key, a, e in zip(("out", "dx", "dw", "db"), got, expected):
        assert (a is None and e is None) or _same_bytes(a, e), key


@pytest.mark.parametrize("op,w_shape", [(ad.conv1d, (4, 4, 3)), (ad.depthwise_conv1d, (4, 2, 3))],
                         ids=["conv1d", "depthwise_conv1d"])
def test_padded_convolution_tape_keeps_no_padded_copy(op, w_shape):
    x = Tensor(RNG.normal(size=(64, 2, 4, 1000)), requires_grad=True)
    w = Tensor(RNG.normal(size=w_shape), requires_grad=True)
    with Tape():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(x, w, padding=1)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
    assert held < 0.01 * x.data.nbytes, f"{held / 1e6:.3f} MB held beyond the output"


@pytest.mark.parametrize("kernel_grad,budget", [(False, 1.0), (True, 1.5)],
                         ids=["frozen_kernel", "trainable_kernel"])
def test_padded_conv1d_backward_builds_no_unused_input_gradient(kernel_grad, budget):
    """An input that needs no gradient (the encoder's raw data) gets none built.

    A padded input gradient alone is larger than the input, so the backward
    stays under `budget` times the input's bytes only if it is skipped; a
    trainable kernel still needs its padded rows of the input.
    """
    x = Tensor(RNG.normal(size=(64, 2, 4, 1000)))
    w = Tensor(RNG.normal(size=(4, 4, 3)), requires_grad=kernel_grad)
    b = Tensor(np.zeros(4), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum(ad.conv1d(x, w, b, padding=1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    limit = budget * x.data.nbytes
    assert allocated < limit, f"backward allocated {allocated / 1e6:.3f} MB, limit {limit / 1e6:.3f} MB"
    assert x.grad is None and (w.grad is not None) == kernel_grad
    assert np.array_equal(b.grad, np.full(4, 64 * 2 * 1000.0))


@pytest.mark.parametrize("kwargs,match", [
    ({"axis": -2}, "channel axis"),
    ({"axis": 4}, "axis must index"),
    ({"axis": -5}, "axis must index"),
    ({"axis": -3, "stride": 2}, "stride must be 1"),
], ids=["channel_axis", "past_last", "before_first", "strided"])
def test_conv1d_rejects_bad_axis(kwargs, match):
    with pytest.raises(ContractError, match=match) as info:
        ad.conv1d(Tensor(np.zeros((2, 5, 3, 8))), Tensor(np.zeros((4, 3, 3))), **kwargs)
    assert str(info.value).startswith("conv1d:")


def test_avg_pool_halves_length():
    x = RNG.normal(size=(2, 3, 8))
    out = ad.avg_pool(Tensor(x), 2)
    assert out.shape == (2, 3, 4)
    assert np.allclose(out.data, x.reshape(2, 3, 4, 2).mean(-1))


def test_avg_pool_trims_remainder():
    x = RNG.normal(size=(1, 1, 7))
    out = ad.avg_pool(Tensor(x), 2)
    assert out.shape == (1, 1, 3)


@pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
def test_avg_pool_matches_loop_oracle(window):
    for shape in [(2, 3, 4 * window + window - 1), (2, 5, 1, 3 * window), (1, window + 1)]:
        x = Tensor(RNG.normal(size=shape), requires_grad=True)
        with Tape() as tape:
            out = ad.avg_pool(x, window)
            g = RNG.normal(size=out.shape)
            loss = ad.sum(ad.mul(out, Tensor(g)))
        tape.backward(loss)
        expected, dx = oracles.avg_pool_direct(x.data, g, window)
        assert out.shape == shape[:-1] + (shape[-1] // window,)
        assert np.allclose(out.data, expected.reshape(out.shape), atol=1e-12)
        assert np.allclose(x.grad, dx.reshape(shape), atol=1e-12)


def test_concat_slice_transpose_reshape_round_trip():
    a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(4, 3))
    merged = ad.concat([Tensor(a), Tensor(b)], axis=0)
    back = ad.slice_(merged, 0, 2, 6)
    assert np.array_equal(back.data, b)
    t = ad.transpose(Tensor(a), (1, 0))
    assert np.array_equal(t.data, a.T)
    r = ad.reshape(Tensor(a), (3, 2))
    assert np.array_equal(r.data, a.reshape(3, 2))


# ---------------------------------------------------------------------------
# shape and domain errors
# ---------------------------------------------------------------------------

def test_matmul_shape_error_names_op():
    with pytest.raises(DimensionError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_conv1d_channel_mismatch_names_extents():
    with pytest.raises(DimensionError, match="channels"):
        ad.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((3, 4, 3))))


def test_conv1d_rejects_bad_dilation():
    with pytest.raises(ContractError):
        ad.conv1d(Tensor(np.zeros((1, 1, 8))), Tensor(np.zeros((1, 1, 3))), dilation=0)


@pytest.mark.parametrize("x_shape,w_shape,b_shape,kwargs,error,match", [
    ((1, 3, 8), (3, 2, 3), None, {"dilation": 0}, ContractError, "dilation"),
    ((1, 2, 8), (3, 2, 3), None, {}, DimensionError, "channels"),
    ((1, 3, 8), (3, 2, 3), (3,), {}, DimensionError, "bias shape"),
    ((1, 3, 4), (3, 2, 3), None, {"dilation": 2}, DimensionError, "too short"),
], ids=["bad_dilation", "channel_mismatch", "bias_shape", "too_short"])
def test_depthwise_conv1d_errors_name_op(x_shape, w_shape, b_shape, kwargs, error, match):
    bias = None if b_shape is None else Tensor(np.zeros(b_shape))
    with pytest.raises(error, match=match) as info:
        ad.depthwise_conv1d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), bias, **kwargs)
    assert str(info.value).startswith("depthwise_conv1d:")


def test_log_negative_is_domain_error():
    with pytest.raises(DomainError):
        ad.log(Tensor([-0.5]))


def test_log_zero_uses_epsilon():
    out = ad.log(Tensor([0.0]))
    assert np.isclose(out.data[0], np.log(1e-12))


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_sum_backward_is_ones():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    with Tape() as tape:
        y = ad.sum(x)
    tape.backward(y)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_exp_grad_at_zero():
    x = Tensor(0.0, requires_grad=True)
    with Tape() as tape:
        y = ad.exp(x)
    tape.backward(y)
    assert float(x.grad) == 1.0


def test_gradient_accumulation_doubles_exactly():
    x = Tensor(RNG.normal(size=(5,)), requires_grad=True)
    with Tape() as tape:
        y = ad.sum(ad.add(x, x))
    tape.backward(y)
    assert np.array_equal(x.grad, np.full(5, 2.0))


def test_backward_populates_intermediate_grads():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    with Tape() as tape:
        mid = ad.mul_scalar(x, 2.0)
        y = ad.sum(mid)
    tape.backward(y)
    assert mid.grad is not None and mid.grad.shape == mid.shape
    assert y.grad is not None


def test_backward_that_raises_leaves_the_tape_consumed_and_empty():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    with Tape() as tape:
        y = ad.sum(ad.mul_scalar(ad.relu(x), 2.0))

    def boom(g):
        raise RuntimeError("backward failed")

    tape.entries[1].backward_fn = boom
    with pytest.raises(RuntimeError, match="backward failed"):
        tape.backward(y)
    assert tape.consumed and tape.entries == []
    assert x.grad is None
    with pytest.raises(TapeStateError):
        tape.backward(y)


def test_backward_that_raises_keeps_the_partials_of_the_leaves_it_reached():
    a = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    b = Tensor([1.5, 0.25, -3.0], requires_grad=True)
    with Tape() as tape:
        r = ad.relu(ad.mul_scalar(b, 3.0))
        m = ad.mul_scalar(a, 2.0)
        y = ad.sum(ad.add(r, m))

    def boom(g):
        raise RuntimeError("backward failed")

    # The backward walks sum, add and a's mul_scalar, then fails at the relu
    # before it reaches b's mul_scalar.
    tape.entries[1].backward_fn = boom
    with pytest.raises(RuntimeError, match="backward failed"):
        tape.backward(y)
    assert np.array_equal(a.grad, np.full(3, 2.0))
    assert np.array_equal(m.grad, np.ones(3))
    assert b.grad is None
    assert tape.consumed and tape.entries == []


def test_a_leaf_adds_each_partial_onto_its_grad_in_turn():
    # 1 + 2**-53 rounds to 1 (ties to even); 1 + (2**-53 + 2**-53) would not.
    x = Tensor([1.0], requires_grad=True)
    x.grad = np.array([1.0])
    with Tape() as tape:
        y = ad.sum(ad.add(ad.mul_scalar(x, 2.0 ** -53), ad.mul_scalar(x, 2.0 ** -53)))
    tape.backward(y)
    assert x.grad.tolist() == [1.0]


def test_backward_twice_raises():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    with Tape() as tape:
        y = ad.sum(x)
    tape.backward(y)
    with pytest.raises(TapeStateError):
        tape.backward(y)


def test_backward_non_scalar_raises():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    with Tape() as tape:
        y = ad.mul_scalar(x, 2.0)
    with pytest.raises(ContractError):
        tape.backward(y)


def test_backward_empty_tape_raises():
    with Tape() as tape:
        pass
    with pytest.raises(TapeStateError):
        tape.backward(Tensor(1.0, requires_grad=True))


def test_backward_of_a_loss_from_another_tape_raises():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    with Tape():
        y = ad.sum(x)
    with Tape() as other:
        ad.sum(x)
    with pytest.raises(TapeStateError):
        other.backward(y)
    assert x.grad is None


def test_no_recording_without_tape():
    x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
    y = ad.sum(x)
    assert y.requires_grad is False


# ---------------------------------------------------------------------------
# gradient checks: every differentiable op
# ---------------------------------------------------------------------------

def scalarized(op, *const_args, **kwargs):
    """Wrap an op into a scalar closure by dotting with a fixed probe."""
    def closure(*inputs):
        out = op(*inputs, *const_args, **kwargs)
        return ad.sum(ad.mul(out, closure.probe))
    closure.probe = None
    return closure


def run_op_grad_check(make_inputs, op, n_trials=10, tol=1e-4, **kwargs):
    worst = 0.0
    for _ in range(n_trials):
        inputs = make_inputs()
        closure = scalarized(op, **kwargs)
        out_shape = op(*[Tensor(t.data) for t in inputs], **kwargs).shape
        closure.probe = probe(out_shape)
        worst = max(worst, grad_check(closure, inputs, step=1e-5))
    assert worst < tol, f"max relative error {worst}"
    return worst


def t(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


OP_CASES = {
    "add": (lambda: [t((3, 4)), t((3, 4))], ad.add, {}),
    "add_broadcast": (lambda: [t((3, 4)), t((4,))], ad.add, {}),
    "sub": (lambda: [t((3, 4)), t((3, 4))], ad.sub, {}),
    "mul": (lambda: [t((3, 4)), t((3, 4))], ad.mul, {}),
    "mul_scalar": (lambda: [t((3, 4))], lambda x: ad.mul_scalar(x, -1.7), {}),
    "matmul": (lambda: [t((3, 4)), t((4, 2))], ad.matmul, {}),
    "conv1d": (lambda: [t((2, 3, 11)), t((4, 3, 3)), t((4,))],
               lambda x, w, b: ad.conv1d(x, w, b, dilation=2, padding=2), {}),
    "conv1d_one_tap": (lambda: [t((2, 3, 7)), t((4, 3, 1)), t((4,))], ad.conv1d, {}),
    "conv1d_one_tap_strided": (lambda: [t((2, 3, 8)), t((4, 3, 1))],
                               lambda x, w: ad.conv1d(x, w, stride=2), {}),
    "depthwise": (lambda: [t((2, 3, 8)), t((3, 2, 3)), t((6,))],
                  lambda x, w, b: ad.depthwise_conv1d(x, w, b, padding=1), {}),
    "depthwise_strided": (lambda: [t((2, 3, 13)), t((3, 2, 3))],
                          lambda x, w: ad.depthwise_conv1d(x, w, dilation=2, stride=2), {}),
    "avg_pool": (lambda: [t((2, 3, 9))], lambda x: ad.avg_pool(x, 2), {}),
    "avg_pool_w3": (lambda: [t((2, 3, 10))], lambda x: ad.avg_pool(x, 3), {}),
    "relu": (lambda: [Tensor(RNG.normal(size=(4, 5)) + np.sign(RNG.normal(size=(4, 5))) * 0.3,
                             requires_grad=True)], ad.relu, {}),
    "exp": (lambda: [t((3, 3))], ad.exp, {}),
    "log": (lambda: [Tensor(RNG.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)], ad.log, {}),
    "sum_all": (lambda: [t((3, 4))], ad.sum, {}),
    "sum_axis": (lambda: [t((3, 4))], lambda x: ad.sum(x, axis=1), {}),
    "mean_axis": (lambda: [t((3, 4))], lambda x: ad.mean(x, axis=0), {}),
    "l2_normalize": (lambda: [t((4, 6))], lambda x: ad.l2_normalize(x, axis=1), {}),
    "cosine_matrix": (lambda: [t((4, 6)), t((3, 6))], ad.cosine_similarity_matrix, {}),
    "softmax": (lambda: [t((4, 5))], lambda x: ad.softmax(x, axis=1), {}),
    "concat": (lambda: [t((2, 3)), t((4, 3))], lambda a, b: ad.concat([a, b], axis=0), {}),
    "slice": (lambda: [t((5, 3))], lambda x: ad.slice_(x, 0, 1, 4), {}),
    "transpose": (lambda: [t((2, 3, 4))], lambda x: ad.transpose(x, (2, 0, 1)), {}),
    "reshape": (lambda: [t((2, 6))], lambda x: ad.reshape(x, (3, 4)), {}),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_grad_check_per_op(name):
    make_inputs, op, kwargs = OP_CASES[name]
    run_op_grad_check(make_inputs, op, **kwargs)


def test_grad_check_linear_is_nearly_exact():
    c = probe((5,))
    x = t((5,))
    err = grad_check(lambda v: ad.sum(ad.mul(v, c)), [x])
    assert err < 1e-10


def test_grad_check_relu_away_from_zero():
    x = Tensor(np.array([1.0, -2.0, 0.5, -0.25]), requires_grad=True)
    c = probe((4,))
    err = grad_check(lambda v: ad.sum(ad.mul(ad.relu(v), c)), [x])
    assert err < 1e-6


def test_grad_check_discounts_roundoff_but_not_a_wrong_tiny_gradient():
    # f = 1 + 1e-8 * sum(x): the roundoff of f over 2 * step is about a
    # thousandth of each 1e-8 gradient component.
    x = Tensor(np.array([0.3, -1.7, 2.2, 0.9]), requires_grad=True)
    offset = Tensor(np.full(4, 0.25))

    def loss(claimed_slope):
        def closure(v):
            scaled = ad._apply(v.data * 1e-8, (v,), lambda g: (g * claimed_slope,))
            return ad.sum(ad.add(scaled, offset))
        return closure

    assert grad_check(loss(1e-8), [x]) < 1e-4
    assert grad_check(loss(1.01e-8), [x]) > 1e-4
    assert grad_check(loss(2e-8), [x]) > 0.4
    assert grad_check(loss(0.0), [x]) > 0.9


@pytest.mark.parametrize("layout", ["transposed", "fortran"])
def test_grad_check_perturbs_non_contiguous_inputs_in_place(layout):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(3, 4)).T if layout == "transposed" else np.asfortranarray(
        rng.normal(size=(3, 4, 2)))
    assert not data.flags.c_contiguous
    x = Tensor(data, requires_grad=True)
    before = x.data.copy()
    assert grad_check(lambda v: ad.sum(ad.mul(v, v)), [x]) < 1e-8
    assert np.array_equal(x.data, before)


def test_grad_check_rejects_bad_step():
    x = t((3,))
    with pytest.raises(ContractError):
        grad_check(lambda v: ad.sum(v), [x], step=1.0)


def test_grad_check_rejects_non_scalar():
    x = t((3,))
    with pytest.raises(ContractError):
        grad_check(lambda v: ad.mul_scalar(v, 2.0), [x])


# ---------------------------------------------------------------------------
# numeric invariants
# ---------------------------------------------------------------------------

@given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=3.0, size=(rows, cols))
    out = ad.softmax(Tensor(x), axis=1).data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_l2_normalize_unit_norm(rows, dim, seed):
    x = np.random.default_rng(seed).normal(size=(rows, dim))
    x += np.sign(x) * 0.2  # keep norms comfortably above epsilon
    out = ad.l2_normalize(Tensor(x), axis=1).data
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_cosine_matrix_unit_diagonal():
    a = RNG.normal(size=(6, 9))
    s = ad.cosine_similarity_matrix(Tensor(a), Tensor(a)).data
    assert np.allclose(np.diag(s), 1.0, atol=1e-9)
