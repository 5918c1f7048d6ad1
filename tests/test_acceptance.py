"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 5-7 share a session-scoped bundle of reference-config training runs
(the desk-scale synthetic experiment from scripts/reference.cfg); expect the
bundle to take several minutes of CPU on first use. The bundle's runs are also
written out by the commands' own writers and checked against results/.
"""

import math
import time

import numpy as np
import pytest

import oracles
from conftest import REFERENCE_CONFIG, SCRIPTS_DIR

from semicl import autodiff as ad
from semicl import experiments
from semicl import losses as L
from semicl.autodiff import Tensor, grad_check
from semicl.config import load_config
from semicl.data import SemiLabeledDataset, SplitParams, make_split
from semicl.metrics import auprc, auroc_ovr
from semicl.nn import dense_3x3_weight_count, factored_pair_weight_count
from semicl.experiments import RunLog, _run_grid
from semicl.synth import oracle_accuracy, synth_generate

SEEDS = (1, 2, 3, 4, 5)
RATIOS = (0.1, 0.2, 0.4)
RESULTS = SCRIPTS_DIR.parent / "results"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(101)

    def t(shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    def check(build_inputs, closure):
        worst = 0.0
        for _ in range(10):
            inputs = build_inputs()
            worst = max(worst, grad_check(closure, inputs, step=1e-5))
        return worst

    cases = {}
    probes = {}

    def scalar(op, key, out_shape):
        if key not in probes:
            probes[key] = Tensor(np.random.default_rng(hash(key) % 2**32).normal(size=out_shape))
        return lambda *xs: ad.sum(ad.mul(op(*xs), probes[key]))

    cases["add"] = check(lambda: [t((3, 4)), t((4,))], scalar(ad.add, "add", (3, 4)))
    cases["sub"] = check(lambda: [t((3, 4)), t((3, 4))], scalar(ad.sub, "sub", (3, 4)))
    cases["mul"] = check(lambda: [t((3, 4)), t((3, 4))], scalar(ad.mul, "mul", (3, 4)))
    cases["mul_scalar"] = check(
        lambda: [t((3, 4))], scalar(lambda x: ad.mul_scalar(x, 2.5), "muls", (3, 4)))
    cases["matmul"] = check(lambda: [t((3, 4)), t((4, 2))], scalar(ad.matmul, "mm", (3, 2)))
    cases["conv1d"] = check(
        lambda: [t((2, 3, 11)), t((4, 3, 3)), t((4,))],
        scalar(lambda x, w, b: ad.conv1d(x, w, b, dilation=2, padding=2), "conv", (2, 4, 11)))
    cases["depthwise_conv1d"] = check(
        lambda: [t((2, 3, 8)), t((3, 2, 3)), t((6,))],
        scalar(lambda x, w, b: ad.depthwise_conv1d(x, w, b, padding=1), "dw", (2, 6, 8)))
    cases["avg_pool"] = check(
        lambda: [t((2, 3, 8))], scalar(lambda x: ad.avg_pool(x, 2), "pool", (2, 3, 4)))
    cases["relu"] = check(
        lambda: [Tensor(rng.normal(size=(4, 5)) + np.sign(rng.normal(size=(4, 5))) * 0.5,
                        requires_grad=True)],
        scalar(ad.relu, "relu", (4, 5)))
    cases["exp"] = check(lambda: [t((3, 3))], scalar(ad.exp, "exp", (3, 3)))
    cases["log"] = check(
        lambda: [Tensor(rng.uniform(0.5, 3.0, size=(3, 3)), requires_grad=True)],
        scalar(ad.log, "log", (3, 3)))
    cases["sum"] = check(lambda: [t((3, 4))], lambda x: ad.sum(x))
    cases["mean"] = check(lambda: [t((3, 4))], scalar(lambda x: ad.mean(x, axis=1), "mean", (3,)))
    cases["l2_normalize"] = check(
        lambda: [t((4, 6))], scalar(lambda x: ad.l2_normalize(x, axis=1), "l2n", (4, 6)))
    cases["cosine_similarity_matrix"] = check(
        lambda: [t((4, 6)), t((3, 6))],
        scalar(ad.cosine_similarity_matrix, "cos", (4, 3)))
    cases["softmax"] = check(
        lambda: [t((4, 5))], scalar(lambda x: ad.softmax(x, axis=1), "sm", (4, 5)))
    cases["concat"] = check(
        lambda: [t((2, 3)), t((4, 3))],
        scalar(lambda a, b: ad.concat([a, b], axis=0), "cat", (6, 3)))
    cases["slice"] = check(
        lambda: [t((5, 3))], scalar(lambda x: ad.slice_(x, 0, 1, 4), "sl", (3, 3)))
    cases["transpose"] = check(
        lambda: [t((2, 3, 4))], scalar(lambda x: ad.transpose(x, (2, 0, 1)), "tr", (4, 2, 3)))
    cases["reshape"] = check(
        lambda: [t((2, 6))], scalar(lambda x: ad.reshape(x, (3, 4)), "rs", (3, 4)))

    y4 = np.array([0, 0, 1, 1])
    cases["loss_unsup"] = check(
        lambda: [t((4, 8)), t((4, 8))], lambda a, b: L.unsup_contrastive(a, b, 0.5))
    cases["loss_sup"] = check(lambda: [t((4, 8))], lambda a: L.sup_contrastive(a, y4, 0.5))
    cases["loss_ce"] = check(lambda: [t((4, 3))], lambda a: L.cross_entropy(a, y4))

    elapsed = time.time() - start
    worst = max(cases.values())
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"max relative error {worst:.2e} over {len(cases)} ops/losses in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_loss_oracles():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        tau = float(rng.uniform(0.2, 2.0))
        zi, zj = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        got = L.unsup_contrastive(Tensor(zi), Tensor(zj), tau).item()
        worst = max(worst, abs(got - oracles.ntxent_simclr(zi, zj, tau)))

    done = trial = 0
    while done < 100:
        trial += 1
        rng = np.random.default_rng(40_000 + trial)
        m = int(rng.integers(2, 7))
        y = rng.integers(0, 3, size=m)
        counts = np.bincount(y, minlength=3)
        if np.unique(y).size < 2 or not np.any(counts >= 2):
            continue
        z = rng.normal(size=(m, int(rng.integers(2, 6))))
        tau = float(rng.uniform(0.2, 2.0))
        got = L.sup_contrastive(Tensor(z), y, tau).item()
        worst = max(worst, abs(got - oracles.supcon_ratio_of_sums(z, y, tau)))
        done += 1

    ones = np.ones((2, 4))
    fp1 = abs(L.unsup_contrastive(Tensor(ones), Tensor(ones), 0.5).item() - math.log(2))
    fp2 = abs(L.sup_contrastive(Tensor(np.ones((4, 3))), [0, 0, 1, 1], 0.5).item() - math.log(2))
    fp3 = abs(L.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2]).item() - math.log(4))
    fixed = max(fp1, fp2, fp3)

    ok = worst < 1e-10 and fixed < 1e-10
    report(2, ok, f"oracle gap {worst:.2e} over 200 batches; fixed-point gap {fixed:.2e}")


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_metric_oracles():
    worst = 0.0
    checked = 0
    for trial in range(400):
        if checked >= 200:
            break
        rng = np.random.default_rng(7000 + trial)
        m = int(rng.integers(3, 9))
        c = int(rng.integers(2, 4))
        y = rng.integers(0, c, size=m)
        if np.unique(y).size < 2:
            continue
        scores = rng.integers(0, 4, size=(m, c)) / 3.0
        worst = max(worst, abs(auroc_ovr(y, scores)
                               - oracles.macro_ovr(y, scores, oracles.auroc_pairwise)))
        worst = max(worst, abs(auprc(y, scores)
                               - oracles.macro_ovr(y, scores, oracles.auprc_threshold_sweep)))
        checked += 1
    assert checked == 200

    rng = np.random.default_rng(1)
    y = rng.integers(0, 3, size=40)
    scores = rng.normal(size=(40, 3))
    exact = (
        auroc_ovr(y, 2.0 * scores + 1.0) == auroc_ovr(y, scores)
        and auroc_ovr(y, np.exp(scores)) == auroc_ovr(y, scores)
        and auprc(y, 2.0 * scores + 1.0) == auprc(y, scores)
        and auprc(y, np.exp(scores)) == auprc(y, scores)
    )
    ok = worst < 1e-12 and exact
    report(3, ok, f"oracle gap {worst:.2e} over 200 draws; monotone invariance exact: {exact}")


# ---------------------------------------------------------------------------
# 4. split protocol invariants
# ---------------------------------------------------------------------------

def grid_dataset(subjects: int, trials: int) -> SemiLabeledDataset:
    s, t = np.divmod(np.arange(subjects * trials), trials)
    return SemiLabeledDataset(
        values=np.zeros((subjects * trials, 1, 4)), labels=(s + t) % 2,
        subject_ids=[f"s{k:03d}" for k in s], trial_ids=[f"t{k:03d}" for k in t],
        num_classes=2,
    )


def test_criterion_4_split_invariants():
    ds = grid_dataset(8, 10)
    params = SplitParams(test_fraction=0.3, holdout_trials=2, holdout_subjects=2)
    violations = 0
    for pattern in ("trial_dependent", "leave_trials_out", "leave_subjects_out"):
        for seed in range(1000):
            plan = make_split(ds, pattern, params, seed)
            if set(plan.train_indices) & set(plan.test_indices):
                violations += 1
            if pattern == "leave_subjects_out":
                tr_subj = {ds.subject_ids[i] for i in plan.train_indices}
                te_subj = {ds.subject_ids[i] for i in plan.test_indices}
                if tr_subj & te_subj:
                    violations += 1
            if pattern == "leave_trials_out":
                for subj in set(ds.subject_ids.tolist()):
                    tr_tr = {ds.trial_ids[i] for i in plan.train_indices
                             if ds.subject_ids[i] == subj}
                    te_tr = {ds.trial_ids[i] for i in plan.test_indices
                             if ds.subject_ids[i] == subj}
                    if tr_tr & te_tr:
                        violations += 1

    deap = grid_dataset(32, 40)
    lto = make_split(deap, "leave_trials_out", SplitParams(holdout_trials=4), seed=0)
    lso = make_split(deap, "leave_subjects_out", SplitParams(holdout_subjects=2), seed=0)
    counts_ok = (
        (len(lto.train_indices), len(lto.test_indices)) == (1152, 128)
        and (len(lso.train_indices), len(lso.test_indices)) == (1200, 80)
    )
    ok = violations == 0 and counts_ok
    report(4, ok, f"{violations} violations in 3000 plans; worked counts "
                  f"{len(lto.train_indices)}/{len(lto.test_indices)} and "
                  f"{len(lso.train_indices)}/{len(lso.test_indices)}")


# ---------------------------------------------------------------------------
# 5-7. reference-run bundle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def reference_runs(tmp_path_factory):
    exp = load_config(REFERENCE_CONFIG)
    compare = [(r, "full", ratio) for ratio in RATIOS for r in ("end_to_end", "two_stage")]
    ablations = [("end_to_end", a, 0.1) for a in ("no_Lu", "no_Ls")]
    full_ratio = ("end_to_end", "full", 1.0)
    cells = compare + ablations + [full_ratio]
    log = RunLog(tmp_path_factory.mktemp("reference_runs"))
    grid = dict(zip(cells, _run_grid(exp, cells, list(SEEDS), log)))
    bundle = {
        "compare": {(ratio, regime): grid[regime, a, ratio] for regime, a, ratio in compare},
        "ablation": {a: grid[regime, a, ratio] for regime, a, ratio in ablations},
        "full_ratio": grid[full_ratio],
    }
    bundle["ablation"]["full"] = bundle["compare"][(0.1, "end_to_end")]
    bundle["written"] = write_with_commands(exp, grid, tmp_path_factory.mktemp("reference_outputs"))
    return bundle


def write_with_commands(exp, grid, out):
    """The files `scripts/reproduce_reference_results.sh` makes, for the runs in `grid`.

    Each command runs as it is, except that its grid runner returns the runs
    already made, so the files come from the commands' own writers.
    """
    def replay(_exp, cells, seeds, _log):
        assert seeds == list(SEEDS)
        return [grid[cell] for cell in cells]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_run_grid", replay)
        experiments.cmd_compare_regimes(exp, out / "compare", list(SEEDS), list(RATIOS))
        # The committed ablation also has two_stage_with_Ls rows, which the bundle does not run.
        experiments.cmd_ablate(load_config(REFERENCE_CONFIG, ["data.label_ratio=0.1"]),
                               out / "ablation", list(SEEDS))
        experiments.cmd_train(exp, out / "full", list(SEEDS))
    return out


def mean_f1(runs) -> float:
    return float(np.mean([r.metrics["f1"] for r in runs]))


def test_criterion_5_end_to_end_beats_two_stage(reference_runs):
    margins = {}
    fair = True
    for ratio in RATIOS:
        e2e = reference_runs["compare"][(ratio, "end_to_end")]
        ts = reference_runs["compare"][(ratio, "two_stage")]
        margins[ratio] = mean_f1(e2e) - mean_f1(ts)
        for a, b in zip(e2e, ts):
            if a.labeled_hash != b.labeled_hash or a.split_hash != b.split_hash:
                fair = False
    ok = fair and all(m > 0.0 for m in margins.values())
    detail = ", ".join(f"ratio {r}: margin {m:+.4f}" for r, m in margins.items())
    report(5, ok, detail + f"; identical label subsets: {fair}")


def test_criterion_6_ablation_ordering(reference_runs):
    full = mean_f1(reference_runs["ablation"]["full"])
    no_lu = mean_f1(reference_runs["ablation"]["no_Lu"])
    no_ls = mean_f1(reference_runs["ablation"]["no_Ls"])
    ok = full >= no_lu and full >= no_ls
    report(6, ok, f"full {full:.4f} vs no_Lu {no_lu:.4f}, no_Ls {no_ls:.4f}")


def test_criterion_7_learning_sanity(reference_runs):
    exp = load_config(REFERENCE_CONFIG)
    ds = exp.build_dataset(SEEDS[0])
    separable = oracle_accuracy(ds)
    accs, decreasing = [], []
    for r in reference_runs["full_ratio"]:
        accs.append(max(rec.val["accuracy"] for rec in r.trace.records))
        decreasing.append(r.trace.records[-1].hybrid < r.trace.records[0].hybrid)
    ok = separable >= 0.99 and all(a >= 0.95 for a in accs) and all(decreasing)
    report(7, ok, f"oracle separability {separable:.3f}; accuracies "
                  f"{[round(a, 3) for a in accs]}; loss decreased: {decreasing}")


def test_committed_results_match_the_reference_runs(reference_runs):
    """results/ holds what the reference runs write: metrics and hashes exactly.

    Losses in the traces differ across BLAS kernels and numpy SIMD levels in
    the last bits (about 1e-13 relative), so they match to a relative 1e-9.
    """
    written = reference_runs["written"]
    for name in ("compare/compare.csv", "compare/compare_summary.csv", "full/report.csv"):
        assert (written / name).read_bytes() == (RESULTS / name).read_bytes(), name
    for name in ("ablation/ablation.csv", "ablation/ablation_summary.csv"):
        ours = (written / name).read_text().splitlines()
        ablations = {line.split(",")[0] for line in ours}
        committed = [line for line in (RESULTS / name).read_text().splitlines()
                     if line.split(",")[0] in ablations]
        assert ours == committed, name
    for name in ["full/trace.csv", *(f"full/trace_seed{seed}.csv" for seed in SEEDS)]:
        ours = [line.split(",") for line in (written / name).read_text().splitlines()]
        committed = [line.split(",") for line in (RESULTS / name).read_text().splitlines()]
        assert ours[0] == committed[0] and len(ours) == len(committed), name
        for a, b in zip(ours[1:], committed[1:]):
            # epoch, then L_u, L_s, L_c and hybrid, then the val_* metrics
            assert a[0] == b[0] and a[5:] == b[5:], (name, a[0])
            assert all(math.isclose(float(x), float(y), rel_tol=1e-9)
                       for x, y in zip(a[1:5], b[1:5])), (name, a[0])


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

def test_criterion_8_byte_identical_outputs(tmp_path):
    from semicl.cli import main
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["train", "--config", str(REFERENCE_CONFIG), "--seeds", "11"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    same_trace = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    same_report = (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    ok = same_trace and same_report
    report(8, ok, f"trace identical: {same_trace}, report identical: {same_report}")


# ---------------------------------------------------------------------------
# 9. parameter-count claim
# ---------------------------------------------------------------------------

def test_criterion_9_factored_kernel_weight_saving():
    ok = True
    for f in (1, 2, 4, 8, 16, 64):
        pair = factored_pair_weight_count(f, f, f)
        dense = dense_3x3_weight_count(f, f)
        if 3 * pair != 2 * dense:
            ok = False
    report(9, ok, "factored 3-tap pair uses exactly 2/3 the weights of a 3x3 kernel")
