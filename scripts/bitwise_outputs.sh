#!/usr/bin/env bash
# Run the deterministic command set on small configs and print the sha256 of
# every output file except the timestamped run.log sidecar.
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
