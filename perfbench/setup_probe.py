"""Set-up of one cell, timed from outside as one fresh process.

Does everything a job does before its first training step or prediction,
through semicl's public functions: import, config load, dataset build or CSV
load, split, hidden labels, z-scoring, and model init or checkpoint load.
Prints the pool sizes as JSON so the benchmark can check them.

    python3 perfbench/setup_probe.py --config CFG --seed S [--ratio R] [--model CKPT]
"""

from __future__ import annotations

import argparse
import json

from semicl.config import load_config
from semicl.data import zscore_by_train
from semicl.experiments import prepare_data
from semicl.nn import EncoderClassifier, load_checkpoint


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ratio", type=float, default=None)
    parser.add_argument("--model", default=None)
    args = parser.parse_args()

    exp = load_config(args.config)
    dataset, plan = prepare_data(exp, args.seed, label_ratio=args.ratio)
    ds = zscore_by_train(dataset, plan)
    if args.model:
        model = load_checkpoint(args.model)
    else:
        model = EncoderClassifier(exp.encoder_config(ds.channels), ds.num_classes, seed=args.seed)
    labeled = sum(1 for i in plan.train_indices if ds.samples[i].is_labeled)
    import semicl
    print(json.dumps({
        "train": len(plan.train_indices), "test": len(plan.test_indices),
        "labeled": labeled, "channels": model.config.in_channels, "semicl": semicl.__file__,
    }))


if __name__ == "__main__":
    main()
