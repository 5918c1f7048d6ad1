"""The README's reference numbers are the committed summary CSVs, rounded to 3 decimals."""

import csv
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _mean_f1(name, key):
    """Mean F1 of each row group of results/<name>, keyed by the `key` columns."""
    with open(ROOT / "results" / name, newline="") as fh:
        return {tuple(row[c] for c in key): float(row["f1"])
                for row in csv.DictReader(fh) if row["stat"] == "mean"}


def test_reference_table_is_the_compare_summary():
    means = _mean_f1("compare/compare_summary.csv", ("ratio", "regime"))
    rows = re.findall(r"^\| (\d\.\d+) \| (\d\.\d+) \| (\d\.\d+) \|$", README, re.MULTILINE)
    assert sorted(ratio for ratio, _, _ in rows) == sorted({ratio for ratio, _ in means})
    for ratio, end_to_end, two_stage in rows:
        assert end_to_end == f"{means[ratio, 'end_to_end']:.3f}", ratio
        assert two_stage == f"{means[ratio, 'two_stage']:.3f}", ratio


def test_ablation_sentence_is_the_ablation_summary():
    means = _mean_f1("ablation/ablation_summary.csv", ("ablation",))
    sentence = re.search(
        r"Ablations at 10% labels: full (\d\.\d+), without the supervised contrastive term "
        r"(\d\.\d+), without the unsupervised term (\d\.\d+), two-stage with the supervised "
        r"contrastive term added to fine-tuning (\d\.\d+)\.", " ".join(README.split()))
    assert sentence is not None, "ablation sentence not found in README.md"
    names = ("full", "no_Ls", "no_Lu", "two_stage_with_Ls")
    assert set(means) == {(name,) for name in names}
    for name, number in zip(names, sentence.groups()):
        assert number == f"{means[(name,)]:.3f}", name
