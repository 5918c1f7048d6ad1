#!/usr/bin/env bash
# Re-baseline the committed reference results and the README numbers drawn
# from them, and show what moved.
#
#     scripts/rebaseline.sh > rebaseline.md
#
# 1. Snapshots the committed results/*/*.csv.
# 2. Runs scripts/reproduce_reference_results.sh with this checkout's src/
#    (about 3 minutes); its own output goes to stderr.
# 3. Rewrites the README's reference table and ablation sentence from the new
#    summaries: exactly the numbers tests/test_readme.py checks.
# 4. Prints a Markdown table of every cell's test F1 and AUROC before -> after,
#    the number of cells with test AUROC below 0.6, criterion 5's margin
#    (mean F1 end to end minus two-stage) per label ratio, and which files'
#    bytes moved (traces can move in the last bits from one CPU to another).
#
# A change that keeps every output byte moves no cell and leaves README.md as
# it was. Commit the rewritten results/ and README.md together.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/before" "$WORK/bin"
for f in results/*/*.csv; do
    mkdir -p "$WORK/before/$(dirname "$f")"
    cp "$f" "$WORK/before/$f"
done

# The reproduce script calls `semicl`; run this checkout's, installed or not.
cat > "$WORK/bin/semicl" <<EOF
#!/bin/sh
PYTHONPATH="$ROOT/src" exec python3 -m semicl.cli "\$@"
EOF
chmod +x "$WORK/bin/semicl"
PATH="$WORK/bin:$PATH" scripts/reproduce_reference_results.sh >&2

python3 - "$WORK/before/results" <<'EOF'
import csv
import re
import sys
from pathlib import Path

BEFORE, AFTER = Path(sys.argv[1]), Path("results")
# Per-cell files and the columns that, with the seed, name a cell in each.
CELLS = {"compare/compare.csv": ("ratio", "regime"),
         "ablation/ablation.csv": ("ablation",),
         "full/report.csv": ()}
FLOOR = 0.6


def rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cells(root):
    """{cell name: row} over every per-cell file; report.csv's mean/std rows are no cell."""
    out = {}
    for name, key in CELLS.items():
        for row in rows(root / name):
            if row["seed"] not in ("mean", "std"):
                out[" ".join([name.split("/")[0], *(row[c] for c in key), "seed", row["seed"]])] = row
    return out


def summary_means(root, name, key):
    return {tuple(r[c] for c in key): r for r in rows(root / name) if r["stat"] == "mean"}


def margins(root):
    means = summary_means(root, "compare/compare_summary.csv", ("ratio", "regime"))
    return {ratio: float(means[ratio, "end_to_end"]["f1"]) - float(means[ratio, "two_stage"]["f1"])
            for ratio, _ in means}


def rewrite_readme():
    """Put the new summary means into the README's table and ablation sentence."""
    readme = Path("README.md")
    text = original = readme.read_text(encoding="utf-8")
    compare = summary_means(AFTER, "compare/compare_summary.csv", ("ratio", "regime"))
    table = re.compile(r"^\| (\d\.\d+) \| (\d\.\d+) \| (\d\.\d+) \|$", re.MULTILINE)
    if sorted(m[1] for m in table.finditer(text)) != sorted({r for r, _ in compare}):
        sys.exit("README.md's reference table has other ratios than compare_summary.csv; "
                 "edit its rows by hand first")
    text = table.sub(lambda m: f"| {m[1]} | {float(compare[m[1], 'end_to_end']['f1']):.3f} | "
                               f"{float(compare[m[1], 'two_stage']['f1']):.3f} |", text)
    ablation = summary_means(AFTER, "ablation/ablation_summary.csv", ("ablation",))
    sentence = ("Ablations at 10% labels: full #, without the supervised contrastive term #, "
                "without the unsupervised term #, two-stage with the supervised contrastive term "
                "added to fine-tuning #.")
    # Any run of whitespace, line breaks included, may separate the words.
    pattern = r"(\d\.\d+)".join(re.escape(part).replace(r"\ ", r"\s+")
                                 for part in sentence.split("#"))
    m = re.search(pattern, text)
    if m is None:
        sys.exit("ablation sentence not found in README.md")
    new = [f"{float(ablation[(name,)]['f1']):.3f}"
           for name in ("full", "no_Ls", "no_Lu", "two_stage_with_Ls")]
    for group in range(4, 0, -1):
        text = text[:m.start(group)] + new[group - 1] + text[m.end(group):]
    readme.write_text(text, encoding="utf-8")
    return text != original


def fmt(row, col):
    return "-" if row is None else f"{float(row[col]):.4f}"


old, new = cells(BEFORE), cells(AFTER)
print("| cell | F1 before | F1 after | AUROC before | AUROC after | moved |")
print("| --- | --- | --- | --- | --- | --- |")
moved = 0
for name in list(old) + [n for n in new if n not in old]:
    a, b = old.get(name), new.get(name)
    moved += a != b
    print(f"| {name} | {fmt(a, 'f1')} | {fmt(b, 'f1')} | {fmt(a, 'auroc')} | {fmt(b, 'auroc')} "
          f"| {'yes' if a != b else 'no'} |")
print()
low = [sum(float(r["auroc"]) < FLOOR for r in side.values()) for side in (old, new)]
print(f"Cells whose row moved: {moved} of {len(set(old) | set(new))}.")
print(f"Cells with test AUROC < {FLOOR}: {low[0]} before, {low[1]} after.")
m_old, m_new = margins(BEFORE), margins(AFTER)
print("Criterion 5 margins (mean F1, end to end minus two-stage): " + ", ".join(
    f"ratio {r} {m_old.get(r, float('nan')):+.4f} -> {m_new[r]:+.4f}" for r in m_new) + ".")
files = sorted(str(p.relative_to(BEFORE)) for p in BEFORE.glob("*/*.csv"))
bytes_moved = [f for f in files if (BEFORE / f).read_bytes() != (AFTER / f).read_bytes()]
print(f"Files whose bytes moved: {', '.join(bytes_moved) or 'none'} (of {len(files)}).")
print(f"README.md numbers {'rewritten' if rewrite_readme() else 'unchanged'}.")
EOF
