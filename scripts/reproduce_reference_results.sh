#!/usr/bin/env bash
# Desk-scale reference experiments on the synthetic 2-class dataset.
# About 3 minutes on one CPU core (3m11s on a 2-vCPU Xeon, Python 3.11.7,
# numpy 2.4.6); outputs land in ./results/.
set -euo pipefail
cd "$(dirname "$0")/.."

CFG=scripts/reference.cfg
SEEDS=1,2,3,4,5

echo "== end-to-end vs two-stage across label ratios =="
semicl compare-regimes --config "$CFG" --out results/compare \
    --seeds "$SEEDS" --ratios 0.1,0.2,0.4

echo "== loss-component ablations at 10% labels =="
semicl ablate --config "$CFG" --out results/ablation \
    --seeds "$SEEDS" --label-ratio 0.1 --with-two-stage-ls

echo "== fully labeled training run =="
semicl train --config "$CFG" --out results/full --seeds "$SEEDS"

echo "Done. Summaries:"
cat results/compare/compare_summary.csv
cat results/ablation/ablation_summary.csv
