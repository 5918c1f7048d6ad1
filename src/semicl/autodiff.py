"""Reverse-mode automatic differentiation over dense float64 tensors.

A minimal tape-based engine: every differentiable op computes its value with
numpy and, when a `Tape` is active and some input requires gradients, records
a backward closure on the tape. `Tape.backward(loss)` replays the recorded
entries in exact reverse execution order and accumulates gradients into every
participating tensor that requires them. A tape can be consumed by at most
one backward call and holds no state afterwards.

Numerical conventions (documented here because tests pin them):
  * everything is float64;
  * `log(x)` evaluates ln(x + 1e-12) and rejects negative inputs;
  * `l2_normalize` divides by (||x|| + 1e-12);
  * `relu` uses subgradient 0 at the origin;
  * softmax is computed with max-subtraction.

Convolutions are direct (non-FFT) correlations. `conv1d` and
`depthwise_conv1d` run on one routine, `_correlate`, which checks shapes,
pads, slices the input at each kernel tap and runs the forward and backward
loops over the taps. Each op supplies only its three per-tap products: the
output, the input gradient and the kernel gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    DomainError,
    NumericError,
    TapeStateError,
)

EPS = 1e-12


class Tensor:
    """N-dimensional float64 array with an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Entry:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed ops for one forward pass.

    Use as a context manager around the forward computation; ops executed
    while the tape is active are recorded. The tape is freed after its single
    `backward` call. Not thread-safe: one tape per training step.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.entries: list[_Entry] = []
        self.consumed = False

    @classmethod
    def current(cls) -> "Tape | None":
        return cls._stack[-1] if cls._stack else None

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._stack.pop()

    def _record(self, entry: _Entry) -> None:
        if self.consumed:
            raise TapeStateError("cannot record on a consumed tape")
        self.entries.append(entry)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/dp into .grad of every recorded tensor requiring it."""
        if self.consumed:
            raise TapeStateError("tape already consumed by a previous backward()")
        if not self.entries:
            raise TapeStateError("backward() on an empty tape")
        if loss.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise TapeStateError("backward() on a loss that this tape did not record")
        self.consumed = True

        pending: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))
        }
        for entry in reversed(self.entries):
            got = pending.pop(id(entry.out), None)
            if got is None:
                continue
            _, g = got
            if entry.out.requires_grad:
                _accumulate(entry.out, g)
            partials = entry.backward_fn(g)
            for inp, partial in zip(entry.inputs, partials):
                if partial is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in pending:
                    pending[key] = (inp, pending[key][1] + partial)
                else:
                    pending[key] = (inp, partial)
        # Whatever is left never appears as an op output: these are the leaves.
        for tensor, g in pending.values():
            if tensor.requires_grad:
                _accumulate(tensor, g)
        self.entries = []


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
        t.grad = t.grad + g


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = Tape.current()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out._tape = tape
        tape._record(_Entry(out, inputs, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear algebra
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    """Broadcasting elementwise sum."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _apply(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    """Broadcasting elementwise difference."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)

    return _apply(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    """Broadcasting elementwise product."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        return (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        )

    return _apply(out, (a, b), bwd)


def mul_scalar(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _apply(a.data * c, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: expected 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _apply(a.data @ b.data, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); subgradient at 0 is 0."""
    a = as_tensor(a)

    def bwd(g):
        return (g * (a.data > 0),)

    return _apply(np.maximum(a.data, 0.0), (a,), bwd)


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _apply(out, (a,), bwd)


def log(a: Tensor) -> Tensor:
    """ln(x + 1e-12); negative inputs are a domain error."""
    a = as_tensor(a)
    arg = a.data + EPS
    if np.any(arg <= 0.0):
        raise DomainError("log: argument (plus epsilon 1e-12) must be positive")

    def bwd(g):
        return (g / arg,)

    return _apply(np.log(arg), (a,), bwd)


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape),)

    return _apply(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _apply(out, (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    a = as_tensor(a)
    perm = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
    inv = np.argsort(perm)

    def bwd(g):
        return (g.transpose(inv),)

    return _apply(a.data.transpose(perm), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _apply(a.data.reshape(shape), (a,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _apply(out, tuple(tensors), bwd)


def slice_(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous [start:stop) slice along one axis."""
    a = as_tensor(a)
    if not (0 <= start < stop <= a.shape[axis]):
        raise DimensionError(
            f"slice: [{start}:{stop}) out of range for axis {axis} of extent {a.shape[axis]}"
        )
    index = [np.s_[:]] * a.ndim
    index[axis] = np.s_[start:stop]
    index = tuple(index)

    def bwd(g):
        full = np.zeros(a.shape)
        full[index] = g
        return (full,)

    return _apply(a.data[index], (a,), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; rows sum to 1."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _apply(out, (a,), bwd)


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """x / (||x|| + 1e-12) along `axis`."""
    a = as_tensor(a)
    norm = np.sqrt((a.data ** 2).sum(axis=axis, keepdims=True))
    denom = norm + EPS
    out = a.data / denom

    def bwd(g):
        safe_norm = np.where(norm > 0.0, norm, 1.0)
        inner = (g * a.data).sum(axis=axis, keepdims=True)
        return (g / denom - a.data * inner / (safe_norm * denom * denom),)

    return _apply(out, (a,), bwd)


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities between the rows of two 2-D tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"cosine_similarity_matrix: expected 2-D inputs, got {a.shape} and {b.shape}"
        )
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"cosine_similarity_matrix: embedding dims differ, {a.shape} vs {b.shape}"
        )
    return matmul(l2_normalize(a, axis=1), transpose(l2_normalize(b, axis=1)))


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------

def _correlate(op: str, x, w, bias, dilation: int, stride: int, padding: int,
               depthwise: bool, fwd_tap, dx_tap, dw_tap) -> Tensor:
    """Direct 1-D correlation over the last axis, shared by both convolutions.

    Owns the checks, the padding, the tap slices, both tap loops and the bias
    gradient. The caller supplies the three per-tap products: `fwd_tap(wk, xt)`
    is the output of kernel tap `wk` on input slice `xt`, `dx_tap(wk, g)` its
    input gradient, and `dw_tap(g)(xt)` its kernel gradient (`dw_tap(g)` runs
    once per backward call, so it can lay `g` out for all taps). The input reaches
    them as (n, C_in, L) with n the product of the leading axes; the output
    and its gradient as (n, C, M, L_out) for a depthwise kernel (C, M, K) and
    as (n, C_out, L_out) otherwise.
    """
    x, w = as_tensor(x), as_tensor(w)
    if dilation < 1 or stride < 1 or padding < 0:
        raise ContractError(
            f"{op}: dilation/stride must be >= 1 and padding >= 0, "
            f"got dilation={dilation} stride={stride} padding={padding}"
        )
    layout = "(C, M, K)" if depthwise else "(O, I, K)"
    if x.ndim < 2 or w.ndim != 3:
        raise DimensionError(f"{op}: need input (..., C, L) and kernel {layout}, got {x.shape} and {w.shape}")
    k = w.shape[2]
    c_in, c_out = (w.shape[0], w.shape[0] * w.shape[1]) if depthwise else (w.shape[1], w.shape[0])
    if x.shape[-2] != c_in:
        raise DimensionError(
            f"{op}: input has {x.shape[-2]} channels but kernel expects {c_in} (input {x.shape}, kernel {w.shape})"
        )
    length = x.shape[-1]
    out_len = (length + 2 * padding - (k - 1) * dilation - 1) // stride + 1
    if out_len < 1:
        raise DimensionError(
            f"{op}: input length {length} too short for kernel {k} with dilation {dilation}, "
            f"stride {stride}, padding {padding}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise DimensionError(f"{op}: bias shape {bias.shape} does not match {c_out} output channels")

    xp = np.pad(x.data, [(0, 0)] * (x.ndim - 1) + [(padding, padding)]) if padding else x.data
    x3 = xp.reshape(-1, c_in, xp.shape[-1])
    taps = [np.s_[:, :, s: s + stride * (out_len - 1) + 1: stride]
            for s in range(0, k * dilation, dilation)]
    # Summed from the first tap's product, then `+= 0.0`: the same bytes as
    # summing from a zero fill, signed zeros too, without the fill.
    acc = fwd_tap(w.data[:, :, 0], x3[taps[0]])
    for kk in range(1, k):
        acc += fwd_tap(w.data[:, :, kk], x3[taps[kk]])
    acc += 0.0
    out = acc.reshape(x3.shape[0], c_out, out_len)
    if bias is not None:
        out += bias.data[:, None]

    def bwd(g):
        gs = g.reshape(acc.shape)
        dw_of = dw_tap(gs)
        dw = np.stack([dw_of(x3[tap]) for tap in taps], axis=-1)
        del dw_of  # frees the op's layout of g before the input gradient is built
        if k == 1 and stride == 1 and not padding:
            # The one tap covers the whole input: no buffer to fill or scatter,
            # and `+= 0.0` keeps the zero fill's signed zeros.
            dx = dx_tap(w.data[:, :, 0], gs)
            dx += 0.0
        else:
            dxp = np.zeros_like(x3)
            for kk, tap in enumerate(taps):
                dxp[tap] += dx_tap(w.data[:, :, kk], gs)
            dx = dxp.reshape(xp.shape)[..., padding: padding + length]
        grads = [dx.reshape(x.shape), dw]
        if bias is not None:
            grads.append(gs.sum(axis=(0, -1)).reshape(c_out))
        return tuple(grads)

    inputs = (x, w) if bias is None else (x, w, bias)
    return _apply(out.reshape(x.shape[:-2] + (c_out, out_len)), inputs, bwd)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None, dilation: int = 1,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Direct 1-D correlation over the last axis.

    `x` has shape (..., C_in, L) with arbitrary leading batch axes; `w` has
    shape (C_out, C_in, K). Output is (..., C_out, L_out) with
    L_out = (L + 2*padding - (K-1)*dilation - 1) // stride + 1.
    """
    return _correlate(
        "conv1d", x, w, bias, dilation, stride, padding, depthwise=False,
        fwd_tap=np.matmul,
        dx_tap=lambda wk, g: np.matmul(wk.T, g),
        dw_tap=lambda g: lambda xt: np.matmul(g, xt.transpose(0, 2, 1)).sum(axis=0),
    )


def depthwise_conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None, dilation: int = 1,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Per-channel 1-D correlation with a depth multiplier.

    `w` has shape (C, M, K); each input channel c produces M output channels,
    laid out c-major: output channel index = c * M + m.
    """
    return _correlate(
        "depthwise_conv1d", x, w, bias, dilation, stride, padding, depthwise=True,
        fwd_tap=lambda wk, xt: xt[:, :, None, :] * wk[None, :, :, None],
        dx_tap=lambda wk, g: np.einsum("ncml,cm->ncl", g, wk),
        dw_tap=_depthwise_dw_tap,
    )


def _depthwise_dw_tap(g):
    """Per-tap depthwise kernel gradient: the sum over (b, l) of g[b,c,m,l] * xt[b,c,l].

    Byte for byte the product that `np.einsum("bcml,bcl->cm", g, xt,
    optimize=True)` runs, but `g` is copied into its layout once per backward
    call instead of once per tap.
    """
    c, m = g.shape[1:3]
    gt = g.transpose(1, 0, 3, 2).reshape(c, -1, m)
    return lambda xt: np.matmul(xt.transpose(1, 0, 2).reshape(c, 1, -1), gt).reshape(c, m)


def avg_pool(x: Tensor, window: int) -> Tensor:
    """Non-overlapping average pooling over the last axis (stride == window)."""
    x = as_tensor(x)
    if window < 1:
        raise ContractError(f"avg_pool: window must be >= 1, got {window}")
    length = x.shape[-1]
    out_len = length // window
    if out_len < 1:
        raise DimensionError(f"avg_pool: length {length} shorter than window {window}")
    used = out_len * window
    # Sum the strided slices left to right from +0.0, as numpy's mean does for
    # fewer than 8 values (so a window of 2 keeps its bytes, signed zeros too).
    out = 0.0 + x.data[..., 0:used:window]
    for j in range(1, window):
        out += x.data[..., j:used:window]
    out /= window

    def bwd(g):
        core = np.repeat(g / window, window, axis=-1)
        if used == length:
            return (core,)
        dx = np.zeros(x.shape)
        dx[..., :used] = core
        return (dx,)

    return _apply(out, (x,), bwd)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def grad_check(op_closure, inputs, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `op_closure(*inputs)` must return a scalar Tensor. The error for each
    input component is |analytic - numeric| / max(|analytic|, |numeric|, 1e-12)
    and the max over all components of all inputs is returned.
    """
    if not (0.0 < step <= 1e-2):
        raise ContractError(f"grad_check: step must be in (0, 1e-2], got {step}")
    inputs = [as_tensor(t) for t in inputs]
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = op_closure(*inputs)
    if out.size != 1:
        raise ContractError(f"grad_check: closure must produce a scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check: closure produced a non-finite value")
    tape.backward(out)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros(t.shape) for t in inputs
    ]

    def eval_scalar() -> float:
        val = op_closure(*inputs)
        if not np.isfinite(val.data).all():
            raise NumericError("grad_check: closure produced a non-finite value under perturbation")
        return float(val.data)

    worst = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = eval_scalar()
            flat[i] = orig - step
            down = eval_scalar()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            ref = max(abs(a.reshape(-1)[i]), abs(numeric), 1e-12)
            worst = max(worst, abs(a.reshape(-1)[i] - numeric) / ref)
    return worst
