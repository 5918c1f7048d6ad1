#!/usr/bin/env python3
"""Cross-dataset two-stage transfer: pretrain the encoder on one synthetic
dataset, fine-tune encoder and classifier on another.

The two datasets share the channel count (a transfer requirement) but differ
in size and noise level. Only the two-stage regime supports this; the
end-to-end regime needs a single source.
"""

from semicl.augment import AugmentSpec
from semicl.data import SplitParams, hide_train_labels, make_split
from semicl.losses import LossWeights
from semicl.nn import EncoderClassifier, EncoderConfig
from semicl.synth import synth_generate
from semicl.train import TrainConfig, fit


def main() -> None:
    pretrain_ds = synth_generate(400, 2, 1, 128, 0.5, seed=100)
    target_ds = synth_generate(200, 2, 1, 128, 0.3, seed=200)

    params = SplitParams(test_fraction=0.25)
    pretrain_plan = make_split(pretrain_ds, "trial_dependent", params, seed=100)
    target_plan = make_split(target_ds, "trial_dependent", params, seed=200)
    target_masked = hide_train_labels(target_ds, target_plan, 0.2, seed=200)

    cfg = TrainConfig(
        regime="two_stage",
        weights=LossWeights(1.0, 0.3, 2.0, tau=0.5),
        epochs=20,
        pretrain_epochs=20,
        batch_size=100,
        learning_rate=1e-3,
        seed=0,
        augment=AugmentSpec(kind="temporal_mask", mask_prob=0.5),
    )
    model = EncoderClassifier(
        EncoderConfig(in_channels=1, feature_channels=4), num_classes=2, seed=0
    )
    model, trace = fit(
        model, target_masked, target_plan, cfg,
        pretrain_dataset=pretrain_ds, pretrain_plan=pretrain_plan,
    )
    final = trace.records[-1].val
    print("transfer run complete")
    for name in ("accuracy", "precision", "recall", "f1", "auroc", "auprc"):
        print(f"  {name:>10}: {final[name]:.4f}")


if __name__ == "__main__":
    main()
