"""Encoder and classifier.

The encoder treats a multichannel series as a 2-D plane (sensor channels x
time) carrying a growing stack of feature channels; internal activations have
shape (batch, sensors, features, time). Each block applies four convolutions

    1. pointwise 1x1 feature mixing,
    2. dilated 3-tap convolution along time,
    3. 3-tap convolution across the sensor axis,
    4. depthwise temporal convolution with depth multiplier 2,

with relu after every layer, then halves the temporal axis with a window-2
average pool. Convolutions 1, 2 and 4 correlate along time (the last axis);
the cross-sensor one correlates along the sensor axis in place (`conv1d` with
`axis=-3`), mixing feature channels at every time step. Factoring the
temporal/cross pair replaces a dense 3x3 kernel (9 weights per channel pair)
with 3 + 3 = 6, a one-third parameter saving. For univariate input the
cross-sensor convolution degenerates to a pointwise map (kernel extent 1);
this is documented behavior, not an error.

After the blocks the temporal axis is collapsed by global average pooling and
a linear layer maps the flattened (sensor, feature) plane to the embedding.
The classifier is a single linear layer from embedding to class logits; no
projection head sits between the encoder output and the losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError, InputLengthError, SchemaError
from .rng import stream

CHECKPOINT_MAGIC = "semicl-checkpoint v1"


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters of the encoder."""

    in_channels: int = 1
    num_blocks: int = 3
    dilations: tuple[int, ...] = (1, 2, 4)
    feature_channels: int = 8
    embed_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if len(self.dilations) != self.num_blocks:
            raise ConfigError(
                f"need one dilation per block: {self.num_blocks} blocks but "
                f"{len(self.dilations)} dilations"
            )
        for name in ("in_channels", "feature_channels", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(d < 1 for d in self.dilations):
            raise ConfigError(f"dilations must all be >= 1, got {self.dilations}")

    @property
    def min_length(self) -> int:
        """Shortest series that survives one pooling per block."""
        return 2 ** self.num_blocks

    @property
    def block_out_channels(self) -> int:
        return 2 * self.feature_channels

    @property
    def cross_kernel(self) -> int:
        # Degenerates to a pointwise map when there is no sensor axis to mix.
        return 3 if self.in_channels >= 2 else 1


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def factored_pair_weight_count(c_in: int, c_mid: int, c_out: int) -> int:
    """Weights in a 3-tap temporal + 3-tap cross convolution pair."""
    return 3 * c_in * c_mid + 3 * c_mid * c_out


def dense_3x3_weight_count(c_in: int, c_out: int) -> int:
    """Weights in the equivalent single 3x3 convolution."""
    return 9 * c_in * c_out


def _param_specs(cfg: EncoderConfig, num_classes: int) -> list[tuple[str, tuple[int, ...], int | None]]:
    """(name, shape, fan_in) of every parameter in creation order; fan_in None is a zero bias."""
    f, ks = cfg.feature_channels, cfg.cross_kernel
    specs, f_in = [], 1
    for i in range(cfg.num_blocks):
        pre = f"enc.b{i}"
        specs += [(f"{pre}.pw.w", (f, f_in, 1), f_in), (f"{pre}.pw.b", (f,), None),
                  (f"{pre}.temporal.w", (f, f, 3), 3 * f), (f"{pre}.temporal.b", (f,), None),
                  (f"{pre}.cross.w", (f, f, ks), ks * f), (f"{pre}.cross.b", (f,), None),
                  (f"{pre}.depthwise.w", (f, 2, 3), 3), (f"{pre}.depthwise.b", (2 * f,), None)]
        f_in = 2 * f
    head_in = cfg.in_channels * cfg.block_out_channels
    return specs + [("enc.head.w", (head_in, cfg.embed_dim), head_in),
                    ("enc.head.b", (cfg.embed_dim,), None),
                    ("clf.w", (cfg.embed_dim, num_classes), cfg.embed_dim),
                    ("clf.b", (num_classes,), None)]


class EncoderClassifier:
    """Encoder f plus linear classifier g with a flat parameter registry."""

    def __init__(self, config: EncoderConfig, num_classes: int, seed: int = 0):
        if num_classes < 2:
            raise ContractError(f"num_classes must be >= 2, got {num_classes}")
        self.config = config
        self.num_classes = int(num_classes)
        self._params: dict[str, Tensor] = {}
        self._init_params(stream(int(seed), "init"))

    def _init_params(self, rng: np.random.Generator) -> None:
        for name, shape, fan_in in _param_specs(self.config, self.num_classes):
            data = np.zeros(shape) if fan_in is None else kaiming_uniform(rng, shape, fan_in)
            self._params[name] = Tensor(data, requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor, each exactly once, in creation order."""
        return dict(self._params)

    def encoder_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self._params.items() if k.startswith("enc.")}

    def classifier_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self._params.items() if k.startswith("clf.")}

    # -- forward ------------------------------------------------------------

    def encode(self, x) -> Tensor:
        """Map a batch (B, in_channels, L) to embeddings (B, embed_dim).

        Activations stay (B, sensors, features, time) throughout; with two or
        more sensors the cross conv runs along axis -3 of that layout, without
        transposing it.
        """
        x = ad.as_tensor(x)
        cfg = self.config
        if x.ndim != 3:
            raise DimensionError(f"encode: expected (B, channels, L), got shape {x.shape}")
        if x.shape[1] != cfg.in_channels:
            raise DimensionError(
                f"encode: input has {x.shape[1]} channels, model expects {cfg.in_channels}"
            )
        if x.shape[2] < cfg.min_length:
            raise InputLengthError(
                f"encode: series length {x.shape[2]} is below the minimum {cfg.min_length} "
                f"needed for {cfg.num_blocks} pooling stages"
            )
        b, s, length = x.shape
        h = ad.reshape(x, (b, s, 1, length))
        p = self._params
        for i in range(cfg.num_blocks):
            pre = f"enc.b{i}"
            h = ad.relu(ad.conv1d(h, p[f"{pre}.pw.w"], p[f"{pre}.pw.b"]))
            d = cfg.dilations[i]
            h = ad.relu(ad.conv1d(h, p[f"{pre}.temporal.w"], p[f"{pre}.temporal.b"],
                                  dilation=d, padding=d))
            if cfg.cross_kernel == 3:
                h = ad.relu(ad.conv1d(h, p[f"{pre}.cross.w"], p[f"{pre}.cross.b"], padding=1,
                                      axis=-3))
            else:
                h = ad.relu(ad.conv1d(h, p[f"{pre}.cross.w"], p[f"{pre}.cross.b"]))
            h = ad.relu(ad.depthwise_conv1d(h, p[f"{pre}.depthwise.w"], p[f"{pre}.depthwise.b"],
                                            padding=1))
            h = ad.avg_pool(h, 2)
        h = ad.mean(h, axis=3)
        h = ad.reshape(h, (b, s * cfg.block_out_channels))
        return ad.add(ad.matmul(h, p["enc.head.w"]), p["enc.head.b"])

    def classify(self, z: Tensor) -> Tensor:
        """Linear logits (B, num_classes) from embeddings (B, embed_dim); no activation."""
        z = ad.as_tensor(z)
        if z.ndim != 2 or z.shape[1] != self.config.embed_dim:
            raise DimensionError(
                f"classify: expected (B, {self.config.embed_dim}) embeddings, got {z.shape}"
            )
        return ad.add(ad.matmul(z, self._params["clf.w"]), self._params["clf.b"])


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _checkpoint_header(cfg: EncoderConfig, num_classes: int) -> bytes:
    """The text header of a checkpoint, through its DATA line: architecture, then tensor shapes."""
    specs = _param_specs(cfg, num_classes)
    lines = [
        CHECKPOINT_MAGIC,
        f"in_channels={cfg.in_channels}",
        f"num_blocks={cfg.num_blocks}",
        "dilations=" + ",".join(str(d) for d in cfg.dilations),
        f"feature_channels={cfg.feature_channels}",
        f"embed_dim={cfg.embed_dim}",
        f"num_classes={num_classes}",
        f"tensors={len(specs)}",
    ]
    lines += [name + " " + " ".join(str(d) for d in shape) for name, shape, _ in specs]
    return ("\n".join(lines) + "\nDATA\n").encode("ascii")


def save_checkpoint(model: EncoderClassifier, path) -> None:
    """Write a bit-exact checkpoint: text header + raw float64 parameter data."""
    with open(path, "wb") as fh:
        fh.write(_checkpoint_header(model.config, model.num_classes))
        for t in model._params.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> EncoderClassifier:
    """Rebuild a model from `save_checkpoint` output, bit-exactly.

    The architecture comes from the header's key=value fields; the header must
    then be, byte for byte, the one `save_checkpoint` writes for it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head, marker, payload = blob.partition(b"DATA\n")
    if not marker:
        raise SchemaError(f"checkpoint {path}: missing DATA marker")
    try:
        lines = head.decode("ascii").splitlines()
    except UnicodeDecodeError as e:
        raise SchemaError(f"checkpoint {path}: header is not ASCII ({e})") from e
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise SchemaError(f"checkpoint {path}: bad magic line")
    fields = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
    try:
        cfg = EncoderConfig(
            in_channels=int(fields["in_channels"]),
            num_blocks=int(fields["num_blocks"]),
            dilations=tuple(int(d) for d in fields["dilations"].split(",")),
            feature_channels=int(fields["feature_channels"]),
            embed_dim=int(fields["embed_dim"]),
        )
        num_classes = int(fields["num_classes"])
    except (KeyError, ValueError) as e:
        raise SchemaError(f"checkpoint {path}: bad header field ({e})") from e
    except ConfigError as e:
        raise SchemaError(f"checkpoint {path}: {e}") from e
    # Validate against the architecture's header before allocating any parameter.
    if head + marker != _checkpoint_header(cfg, num_classes):
        raise SchemaError(f"checkpoint {path}: header is not the one written for its "
                          "architecture (tensor names, shapes, counts or line order differ)")
    expected = 8 * sum(math.prod(shape) for _, shape, _ in _param_specs(cfg, num_classes))
    if len(payload) != expected:
        raise SchemaError(f"checkpoint {path}: payload has {len(payload)} bytes, expected {expected}")
    try:
        model = EncoderClassifier(cfg, num_classes)
    except ContractError as e:
        raise SchemaError(f"checkpoint {path}: {e}") from e
    offset = 0
    for t in model._params.values():
        t.data = np.frombuffer(payload, dtype="<f8", count=t.size,
                               offset=offset).reshape(t.shape).astype(np.float64)
        offset += t.size * 8
    return model
