#!/usr/bin/env bash
# Run the deterministic command set on small configs and print the sha256 of
# every output file except the timestamped run.log sidecar. Then print the
# sha256 of both convolutions' outputs and input, kernel and bias gradients on
# seeded inputs over a small grid with strides, dilations, one-tap kernels and
# no-bias cases, of conv1d along axis -3 over the grid's stride-1 geometries,
# of avg_pool's output and input gradient for windows 1-7 with and without
# a remainder, of unsup_contrastive's value and view gradients under both
# denominators, of auroc_ovr and auprc on heavily tied scores, and of
# sup_contrastive's and cross_entropy's values and gradients, with singleton
# classes (empty positive rows) and large logits, and of the four columns
# load_csv reads from hand-made CSVs (values at float64's edges, CRLF and LF
# line ends, blank lines, quoted ids, two files per manifest, length 1):
# mostly paths the commands never take. Last, the sha256 of every parameter's
# gradient after one reference-shaped training step, univariate and 3-sensor,
# and after two frozen-encoder fine-tuning steps, across which the encoder's
# gradients add up.
#
#     scripts/bitwise_outputs.sh OUT > digests.txt
#
# Run it at two commits on one machine and diff the digests: a pure refactor
# leaves every line identical. OUT must not exist yet. Takes about a minute.
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
mkdir "$1"
OUT="$(cd "$1" && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
semicl() { python3 -m semicl.cli "$@" >/dev/null; }

# One channel, two classes: every training regime and both augmentations.
cat > "$OUT/uni.cfg" <<'EOF'
data.source = synth
data.num_samples = 64
data.num_classes = 2
data.channels = 1
data.length = 32
data.noise_sigma = 0.3
data.num_subjects = 4
split.test_fraction = 0.25
model.num_blocks = 2
model.dilations = 1,2
model.feature_channels = 4
model.embed_dim = 16
losses.lambda1 = 1.0
losses.lambda2 = 0.3
losses.lambda3 = 2.0
train.epochs = 3
train.batch_size = 16
train.pretrain_epochs = 2
EOF

# Three channels, three classes: written as CSV, then read back from it.
cat > "$OUT/multi.cfg" <<'EOF'
data.source = synth
data.num_samples = 72
data.num_classes = 3
data.channels = 3
data.length = 32
data.noise_sigma = 0.3
data.num_subjects = 4
model.num_blocks = 2
model.dilations = 1,2
model.feature_channels = 4
model.embed_dim = 16
train.epochs = 2
train.batch_size = 16
train.pretrain_epochs = 2
EOF
sed -e 's/^data.source = synth/data.source = csv\ndata.manifest = synth3\/manifest.txt/' \
    "$OUT/multi.cfg" > "$OUT/multi_csv.cfg"

UNI="$OUT/uni.cfg"
semicl train --config "$UNI" --out "$OUT/train_e2e" --seeds 1,2
semicl train --config "$UNI" --out "$OUT/train_two" --seeds 1 --override train.regime=two_stage
semicl train --config "$UNI" --out "$OUT/train_freeze" --seeds 1 \
    --override train.regime=two_stage --override train.freeze_encoder=true
semicl train --config "$UNI" --out "$OUT/train_jitter" --seeds 3 \
    --override augment.kind=jitter --pattern leave_trials_out --label-ratio 0.3
semicl ablate --config "$UNI" --out "$OUT/ablate" --seeds 1 --label-ratio 0.3 \
    --with-two-stage-ls
semicl eval --config "$UNI" --out "$OUT/eval" --seeds 1 --model "$OUT/train_e2e/model.ckpt"
semicl synth-gen --config "$OUT/multi.cfg" --out "$OUT/synth3" --seeds 5
semicl compare-regimes --config "$OUT/multi_csv.cfg" --out "$OUT/compare" --seeds 1 \
    --ratios 0.5,1.0 --pattern leave_subjects_out
python3 "$ROOT/scripts/transfer_demo.py" > "$OUT/transfer_demo.txt"
python3 - "$OUT" > "$OUT/oracle.txt" <<'EOF'
import sys

from semicl.data import load_csv
from semicl.synth import classify_by_bandpower, oracle_accuracy, synth_generate

# Noise high enough that the oracle errs, so its predictions carry information.
for ds in (synth_generate(300, 2, 1, 64, 4.0, seed=4), synth_generate(300, 3, 3, 64, 6.0, seed=4),
           load_csv(sys.argv[1] + "/synth3/manifest.txt")):
    print(repr(oracle_accuracy(ds)), classify_by_bandpower(ds).tolist())
EOF

cd "$OUT"
find . -type f ! -name run.log | LC_ALL=C sort | xargs sha256sum
python3 - "$ROOT/scripts/reference.cfg" <<'EOF'
import hashlib
import itertools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from semicl import autodiff as ad
from semicl.config import load_config
from semicl.data import load_csv
from semicl.losses import cross_entropy, sup_contrastive, unsup_contrastive
from semicl.metrics import auprc, auroc_ovr
from semicl.nn import EncoderClassifier
from semicl.optim import make_optimizer
from semicl.rng import stream
from semicl.train import _train_step


def emit(label, a):
    print(f"{hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}  {label}")


# (dilation, stride, padding): the encoder's geometries, then strided and dilated ones.
GEOMETRIES = [(1, 1, 0), (1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2), (4, 1, 0)]
# A one-tap kernel, as the pointwise convolutions use, has its own backward path.
OPS = {"conv1d": (ad.conv1d, (4, 3, 3), 4),
       "conv1d_one_tap": (ad.conv1d, (4, 3, 1), 4),
       "depthwise_conv1d": (ad.depthwise_conv1d, (3, 2, 3), 6)}


def conv_digests(label, op, x_shape, w_shape, c_out, dil, stride, pad, biased, seed, **kwargs):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=x_shape), requires_grad=True)
    w = ad.Tensor(rng.normal(size=w_shape), requires_grad=True)
    b = ad.Tensor(rng.normal(size=c_out), requires_grad=True) if biased else None
    with ad.Tape() as tape:
        out = op(x, w, b, dilation=dil, stride=stride, padding=pad, **kwargs)
        loss = ad.sum(ad.mul(out, ad.Tensor(rng.normal(size=out.shape))))
    tape.backward(loss)
    arrays = {"out": out.data, "dx": x.grad, "dw": w.grad} | ({"db": b.grad} if biased else {})
    for key, a in arrays.items():
        emit(f"{label}/d{dil}s{stride}p{pad}{'' if biased else '-nobias'}/{key}", a)


for (name, (op, w_shape, c_out)), (dil, stride, pad), biased in itertools.product(
        OPS.items(), GEOMETRIES, (True, False)):
    conv_digests(name, op, (2, 3, 3, 17), w_shape, c_out, dil, stride, pad, biased,
                 [dil, stride, pad, biased])
# conv1d across the sensor axis of (batch, sensor, feature, time), as the
# multivariate encoder runs it; off the last axis only stride 1 is defined.
for (name, (op, w_shape, c_out)), (dil, stride, pad), biased in itertools.product(
        list(OPS.items())[:2], GEOMETRIES, (True, False)):
    if stride == 1:
        conv_digests(f"{name}_axis-3", op, (2, 17, 3, 3), w_shape, c_out, dil, stride, pad,
                     biased, [dil, stride, pad, biased, 3], axis=-3)

# Up to window 7, numpy's mean sums in the order of avg_pool's strided-slice
# sum; from 8 it sums pairwise, which the slice sum does not copy.
# Some inputs are -0.0, whose sign the mean drops.
for window, lead, rest in itertools.product(range(1, 8), [(), (2, 3)], (0, 1)):
    rng = np.random.default_rng([window, len(lead), rest])
    data = rng.normal(size=lead + (3, 4 * window + rest * (window - 1)))
    data[..., ::7] = -0.0
    x = ad.Tensor(data, requires_grad=True)
    with ad.Tape() as tape:
        out = ad.avg_pool(x, window)
        loss = ad.sum(ad.mul(out, ad.Tensor(rng.normal(size=out.shape))))
    tape.backward(loss)
    for key, a in {"out": out.data, "dx": x.grad}.items():
        emit(f"avg_pool/w{window}{'-lead' if lead else ''}{'-rest' if rest else ''}/{key}", a)

# The commands train with the simclr denominator only.
for mode, n, tau in itertools.product(("simclr", "paired_only"), (2, 5, 16), (0.1, 0.5)):
    rng = np.random.default_rng([n, int(10 * tau), len(mode)])
    zi = ad.Tensor(rng.normal(size=(n, 6)), requires_grad=True)
    zj = ad.Tensor(rng.normal(size=(n, 6)), requires_grad=True)
    with ad.Tape() as tape:
        loss = unsup_contrastive(zi, zj, tau, denominator=mode)
    tape.backward(loss)
    for key, a in {"loss": loss.data, "dzi": zi.grad, "dzj": zj.grad}.items():
        emit(f"unsup_contrastive/{mode}-n{n}-tau{tau}/{key}", a)

# Scores drawn from a few levels, so most of them tie; the commands' rarely do.
for levels, classes, seed in itertools.product((1, 2, 3, 7), (2, 4), range(2)):
    rng = np.random.default_rng([levels, classes, seed])
    y = rng.integers(0, classes, size=50)
    y[:classes] = np.arange(classes)
    scores = rng.integers(0, levels, size=(50, classes)) / levels
    for key, fn in {"auroc_ovr": auroc_ovr, "auprc": auprc}.items():
        emit(f"metrics/levels{levels}-c{classes}-s{seed}/{key}", np.float64(fn(y, scores)))

# Singleton classes leave their anchors with no positive; far-apart logits
# would overflow an unshifted exp.
for labels, tau in itertools.product(([0, 1, 0, 1], [0, 0, 0, 1], [0, 0, 1, 2, 2, 1, 3]),
                                     (0.05, 0.5)):
    rng = np.random.default_rng([len(labels), int(100 * tau)])
    z = ad.Tensor(rng.normal(size=(len(labels), 6)), requires_grad=True)
    with ad.Tape() as tape:
        loss = sup_contrastive(z, labels, tau)
    tape.backward(loss)
    for key, a in {"loss": loss.data, "dz": z.grad}.items():
        emit(f"sup_contrastive/{''.join(map(str, labels))}-tau{tau}/{key}", a)
for (m, c), scale in itertools.product(((1, 2), (7, 3)), (1.0, 1e3)):
    rng = np.random.default_rng([m, c, int(scale)])
    logits = ad.Tensor(scale * rng.normal(size=(m, c)), requires_grad=True)
    with ad.Tape() as tape:
        loss = cross_entropy(logits, rng.integers(0, c, size=m))
    tape.backward(loss)
    for key, a in {"loss": loss.data, "dlogits": logits.grad}.items():
        emit(f"cross_entropy/m{m}-c{c}-x{scale:g}/{key}", a)

# Channel rows out of order, a blank line after every other sample, and ids
# that csv quoting wraps; a.csv ends its lines with CRLF, b.csv with LF.
AWKWARD = ["1e-05", "-0.0", "5e-324", "1e-300", "-1.2345678901234567e17", " 3.25", "1E+2"]


def crafted(length, channels, subjects, end):
    rows = ["sample_id,subject_id,trial_id,label,channel," + ",".join(f"v{k}" for k in range(length))]
    for i in range(6):
        for ch in reversed(range(channels)):
            values = [AWKWARD[(i + 3 * ch + k) % len(AWKWARD)] for k in range(length)]
            rows.append(f"n{i},{subjects[i % len(subjects)]},t{i},{i % 3 - 1},{ch}," + ",".join(values))
        rows += [""] * (i % 2)
    return end.join(rows) + end


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    (tmp / "a.csv").write_bytes(crafted(4, 2, ['"s,0"', '"q""1"', "s2"], "\r\n").encode())
    (tmp / "b.csv").write_bytes(crafted(4, 2, ["s0", "s1"], "\n").encode())
    (tmp / "c.csv").write_bytes(crafted(1, 1, ["s0"], "\n").encode())
    (tmp / "two.txt").write_text("a.csv,2,2,4\nb.csv,2,2,4\n")
    (tmp / "one.txt").write_text("c.csv,2,1,1\n")
    for name in ("two", "one"):
        ds = load_csv(tmp / f"{name}.txt")
        for key in ("values", "labels", "subject_ids", "trial_ids"):
            emit(f"load_csv/{name}/{key}", getattr(ds, key))

# One step of reference.cfg's end-to-end training on 100 unlabeled rows (two
# views each) and 45 labeled ones, all three losses; then, on a fresh model,
# two fine-tuning steps that move only the classifier, as freeze_encoder does:
# only its gradients are zeroed, so the encoder's add up across the steps.
exp = load_config(sys.argv[1])
cfg = exp.train_config(seed=1)
for sensors in (1, 3):
    rng = np.random.default_rng(sensors)
    x_u, x_l = rng.normal(size=(100, sensors, 128)), rng.normal(size=(45, sensors, 128))
    y_l = np.arange(45) % 2
    for label, moved, weights, batch_u, steps in (
            ("step", EncoderClassifier.parameters, cfg.weights, x_u, 1),
            ("freeze_encoder", EncoderClassifier.classifier_parameters,
             replace(cfg.weights, lambda2=0.0), None, 2)):
        model = EncoderClassifier(exp.encoder_config(sensors), num_classes=2, seed=1)
        opt = make_optimizer(cfg.optimizer, moved(model), cfg.learning_rate)
        aug_rng = stream(1, "augment")
        for _ in range(steps):
            _train_step(model, opt, weights, cfg, batch_u, x_l, y_l, aug_rng)
        for name, p in model.parameters().items():
            emit(f"grad/{label}-s{sensors}/{name}", p.grad)
EOF
