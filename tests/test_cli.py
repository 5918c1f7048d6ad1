import re

import numpy as np
import pytest

from semicl.cli import main
from semicl.config import load_config
from semicl.data import load_csv, make_split
from semicl.errors import ConfigError, ParseError, SchemaError
from semicl.experiments import prepare_data, run_single
from semicl.metrics import METRIC_NAMES

QUICK_CFG = """
data.source = synth
data.num_samples = 48
data.num_classes = 2
data.channels = 1
data.length = 16
data.noise_sigma = 0.2
data.num_subjects = 4
split.pattern = trial_dependent
split.test_fraction = 0.25
model.num_blocks = 1
model.dilations = 1
model.feature_channels = 2
model.embed_dim = 8
losses.lambda1 = 1.0
losses.lambda2 = 0.3
losses.lambda3 = 2.0
train.epochs = 2
train.batch_size = 8
train.pretrain_epochs = 2
train.learning_rate = 0.001
"""


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK_CFG)
    return path


def test_train_writes_expected_files(quick_config, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--config", str(quick_config), "--out", str(out), "--seeds", "1"])
    assert code == 0
    for name in ("trace.csv", "report.csv", "model.ckpt", "trace_seed1.csv",
                 "model_seed1.ckpt", "run.log"):
        assert (out / name).exists(), name
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("epoch,L_u,L_s,L_c,hybrid,val_accuracy")
    assert len(trace) == 1 + 2  # header + one row per epoch


def test_train_is_byte_deterministic(quick_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(quick_config), "--out", str(out_a), "--seeds", "2"]) == 0
    assert main(["train", "--config", str(quick_config), "--out", str(out_b), "--seeds", "2"]) == 0
    for name in ("trace.csv", "report.csv", "model.ckpt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_multi_seed_report_rows(quick_config, tmp_path):
    out = tmp_path / "multi"
    assert main(["train", "--config", str(quick_config), "--out", str(out),
                 "--seeds", "1,2,3"]) == 0
    rows = (out / "report.csv").read_text().splitlines()
    labels = [r.split(",")[0] for r in rows]
    assert labels == ["seed", "1", "2", "3", "mean", "std"]


def test_missing_config_exits_4(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o"),
                 "--seeds", "1"])
    assert code == 4
    assert "nope.cfg" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.max_lr = 3\n")
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o"), "--seeds", "1"])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_bad_value_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.epochs = soon\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o"), "--seeds", "1"]) == 2


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_exits_3(quick_config, tmp_path, capsys):
    code = main(["train", "--config", str(quick_config), "--out", str(tmp_path / "o"),
                 "--seeds", "1", "--override", "train.learning_rate=1e30",
                 "--override", "train.optimizer=sgd"])
    assert code == 3
    assert "divergence" in capsys.readouterr().err


def test_override_equals_editing_config(quick_config, tmp_path):
    edited = tmp_path / "edited.cfg"
    edited.write_text(QUICK_CFG.replace("losses.lambda1 = 1.0", "losses.lambda1 = 0.0"))
    out_a, out_b = tmp_path / "ov", tmp_path / "ed"
    assert main(["train", "--config", str(quick_config), "--out", str(out_a), "--seeds", "1",
                 "--override", "losses.lambda1=0.0"]) == 0
    assert main(["train", "--config", str(edited), "--out", str(out_b), "--seeds", "1"]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_label_ratio_flag_matches_config_key(quick_config, tmp_path):
    out_a, out_b = tmp_path / "fl", tmp_path / "cf"
    assert main(["train", "--config", str(quick_config), "--out", str(out_a), "--seeds", "1",
                 "--label-ratio", "0.5"]) == 0
    assert main(["train", "--config", str(quick_config), "--out", str(out_b), "--seeds", "1",
                 "--override", "data.label_ratio=0.5"]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_eval_on_saved_checkpoint(quick_config, tmp_path):
    out = tmp_path / "train"
    assert main(["train", "--config", str(quick_config), "--out", str(out), "--seeds", "1"]) == 0
    out_eval = tmp_path / "eval"
    code = main(["eval", "--config", str(quick_config), "--out", str(out_eval),
                 "--seeds", "1", "--model", str(out / "model.ckpt")])
    assert code == 0
    rows = (out_eval / "report.csv").read_text().splitlines()
    assert rows[0].startswith("seed,accuracy")
    # Same data, same split, same model: metrics must match the training report.
    train_row = (out / "report.csv").read_text().splitlines()[1]
    assert rows[1] == train_row


def trained_checkpoint(config, tmp_path):
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out), "--seeds", "1"]) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("edit", [lambda b: b[:-9], lambda b: b + b"\0" * 8],
                         ids=["truncated", "trailing_bytes"])
def test_eval_rejects_bad_checkpoint_payload(quick_config, tmp_path, capsys, edit):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(edit(trained_checkpoint(quick_config, tmp_path).read_bytes()))
    code = main(["eval", "--config", str(quick_config), "--out", str(tmp_path / "eval"),
                 "--seeds", "1", "--model", str(bad)])
    assert code == 2
    assert "payload" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda b: b.split(b"\n", 1)[0] + b"\nDATA\n",
    lambda b: b.replace(b"in_channels=1", b"in_channels=\xff", 1),
    lambda b: b.replace(b"clf.b 2\n", b"clf.b x\n", 1),
    lambda b: b.replace(b"clf.b 2\n", b"\n", 1),
    lambda b: b.replace(b"clf.b 2\n", b"clf.b -2\n", 1),
], ids=["magic_only", "non_ascii", "bad_shape", "empty_tensor_line", "negative_shape"])
def test_eval_rejects_bad_checkpoint_header(quick_config, tmp_path, capsys, edit):
    good = trained_checkpoint(quick_config, tmp_path).read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(edit(good))
    assert bad.read_bytes() != good
    code = main(["eval", "--config", str(quick_config), "--out", str(tmp_path / "eval"),
                 "--seeds", "1", "--model", str(bad)])
    assert code == 2
    assert "error[data]: checkpoint" in capsys.readouterr().err


def test_eval_rejects_checkpoint_of_another_class_count(quick_config, tmp_path, capsys):
    ckpt = trained_checkpoint(quick_config, tmp_path)
    code = main(["eval", "--config", str(quick_config), "--out", str(tmp_path / "eval"),
                 "--seeds", "1", "--model", str(ckpt), "--override", "data.num_classes=3",
                 "--override", "data.length=32"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "report.csv").exists()


def test_ablate_rows_and_shared_hashes(quick_config, tmp_path):
    out = tmp_path / "ablate"
    code = main(["ablate", "--config", str(quick_config), "--out", str(out),
                 "--seeds", "1,2"])
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    header, body = rows[0], rows[1:]
    assert header.split(",")[:2] == ["ablation", "seed"]
    combos = [(r.split(",")[0], r.split(",")[1]) for r in body]
    assert combos == [("full", "1"), ("full", "2"), ("no_Lu", "1"), ("no_Lu", "2"),
                      ("no_Ls", "1"), ("no_Ls", "2")]
    split_hashes = {r.split(",")[1]: set() for r in body}
    labeled_hashes = {r.split(",")[1]: set() for r in body}
    for r in body:
        parts = r.split(",")
        split_hashes[parts[1]].add(parts[-2])
        labeled_hashes[parts[1]].add(parts[-1])
    for seed, hashes in split_hashes.items():
        assert len(hashes) == 1, f"split hash differs across ablations for seed {seed}"
    for seed, hashes in labeled_hashes.items():
        assert len(hashes) == 1
    assert (out / "ablation_summary.csv").exists()


def test_ablate_with_two_stage_ls(quick_config, tmp_path):
    out = tmp_path / "ablate2"
    code = main(["ablate", "--config", str(quick_config), "--out", str(out),
                 "--seeds", "1", "--label-ratio", "0.5", "--with-two-stage-ls"])
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()[1:]
    names = [r.split(",")[0] for r in rows]
    assert names == ["full", "no_Lu", "no_Ls", "two_stage_with_Ls"]


def test_compare_regimes_pairing(quick_config, tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare-regimes", "--config", str(quick_config), "--out", str(out),
                 "--seeds", "1", "--ratios", "0.5,1.0"])
    assert code == 0
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    assert len(rows) == 4  # 2 ratios x 2 regimes x 1 seed
    by_key = {}
    for r in rows:
        parts = r.split(",")
        by_key.setdefault((parts[0], parts[2]), []).append(parts[-1])
    for (ratio, seed), hashes in by_key.items():
        assert len(set(hashes)) in (1,)  # same labeled subset for both regimes
    summary = (out / "compare_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2 * 2 * 2  # header + (ratio x regime x {mean,std})


def test_grid_commands_agree_on_shared_cells(quick_config, tmp_path):
    common = ["--config", str(quick_config), "--seeds", "1"]
    assert main(["train", *common, "--out", str(tmp_path / "tr"), "--label-ratio", "0.5"]) == 0
    assert main(["ablate", *common, "--out", str(tmp_path / "ab"), "--label-ratio", "0.5"]) == 0
    assert main(["compare-regimes", *common, "--out", str(tmp_path / "cmp"),
                 "--ratios", "0.5"]) == 0
    n = len(METRIC_NAMES)
    train_row = (tmp_path / "tr" / "report.csv").read_text().splitlines()[1].split(",")
    ablate_rows = [r.split(",") for r in (tmp_path / "ab" / "ablation.csv").read_text().splitlines()]
    ablate_full = next(r for r in ablate_rows if r[:2] == ["full", "1"])
    compare = {r[1]: r[3:3 + n] for r in (line.split(",") for line in
               (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:])}
    assert train_row[1:1 + n] == ablate_full[2:2 + n] == compare["end_to_end"]
    # The two-stage cell ran after the end-to-end cell, on the same prepared data.
    exp = load_config(quick_config, overrides=["data.label_ratio=0.5"])
    fresh = run_single(exp, 1, "two_stage", "full", prepare_data(exp, 1, label_ratio=0.5))
    assert compare["two_stage"] == [repr(float(fresh.metrics[m])) for m in METRIC_NAMES]


def test_synth_gen_round_trip(quick_config, tmp_path):
    out = tmp_path / "gen"
    code = main(["synth-gen", "--config", str(quick_config), "--out", str(out), "--seeds", "7"])
    assert code == 0
    ds = load_csv(out / "manifest.txt")
    assert len(ds) == 48 and ds.num_classes == 2
    exp = load_config(quick_config)
    direct = exp.build_dataset(7)
    for a, b in zip(ds.samples, direct.samples):
        assert np.array_equal(a.values, b.values)
        assert a.label == b.label


def test_config_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("train.epochs = 2\ntrain.epochs = 3\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_config_closed_schema():
    with pytest.raises(ConfigError):
        load_config(__file__)  # a Python file is not a valid config


@pytest.mark.parametrize("key,value", [("losses.tau", "nan"), ("train.learning_rate", "nan"),
                                       ("losses.lambda1", "inf"), ("split.test_fraction", "nan")])
def test_config_rejects_non_finite_floats(quick_config, key, value):
    with pytest.raises(ConfigError, match="finite"):
        load_config(quick_config, overrides=[f"{key}={value}"])


@pytest.mark.parametrize("name,error", [("csv.cfg", ConfigError), ("gen/manifest.txt", SchemaError),
                                        ("gen/data.csv", ParseError)],
                         ids=["config", "manifest", "sample_csv"])
def test_non_utf8_input_exits_2(quick_config, tmp_path, capsys, name, error):
    assert main(["synth-gen", "--config", str(quick_config), "--out", str(tmp_path / "gen"),
                 "--seeds", "1"]) == 0
    config = tmp_path / "csv.cfg"
    config.write_text(QUICK_CFG.replace("data.source = synth",
                                        "data.source = csv\ndata.manifest = gen/manifest.txt"))
    bad = tmp_path / name
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    with pytest.raises(error, match=re.escape(str(bad))):
        load_config(config).build_dataset(1)
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "run"), "--seeds", "1"])
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("length,message", [("-1", "length >= 1"),
                                            ("10000000000000", "too short")],
                         ids=["negative", "huge"])
def test_manifest_length_checked_before_allocating_exits_2(quick_config, tmp_path, capsys, length,
                                                           message):
    assert main(["synth-gen", "--config", str(quick_config), "--out", str(tmp_path / "gen"),
                 "--seeds", "1"]) == 0
    (tmp_path / "gen" / "manifest.txt").write_text(f"data.csv,2,1,{length}\n")
    config = tmp_path / "csv.cfg"
    config.write_text(QUICK_CFG.replace("data.source = synth",
                                        "data.source = csv\ndata.manifest = gen/manifest.txt"))
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "run"), "--seeds", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[data]" in err and message in err


FIVE_BLOCKS = ["--override", "model.num_blocks=5", "--override", "model.dilations=1,1,1,1,1"]


def test_train_on_series_shorter_than_encoder_exits_2(quick_config, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", str(quick_config), "--out", str(out), "--seeds", "1",
                 *FIVE_BLOCKS])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and "length >= 32" in err and "length 16" in err
    assert not (out / "report.csv").exists()


def test_eval_checkpoint_needing_longer_series_exits_2(quick_config, tmp_path, capsys):
    out = tmp_path / "train"
    assert main(["train", "--config", str(quick_config), "--out", str(out), "--seeds", "1",
                 "--override", "data.length=32", *FIVE_BLOCKS]) == 0
    code = main(["eval", "--config", str(quick_config), "--out", str(tmp_path / "eval"),
                 "--seeds", "1", "--model", str(out / "model.ckpt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]: checkpoint" in err and "length >= 32" in err
    assert not (tmp_path / "eval" / "report.csv").exists()


def test_label_ratio_on_unlabeled_train_rows_exits_2(quick_config, tmp_path, capsys):
    labels = [0, 1, -1, -1, 0, 1, -1, -1]
    header = "sample_id,subject_id,trial_id,label,channel," + ",".join(f"v{i}" for i in range(16))
    rows = [f"n{i},s{i % 4},t{i // 4},{label},0," + ",".join(f"{(i + j) % 5 * 0.5}" for j in range(16))
            for i, label in enumerate(labels)]
    (tmp_path / "data.csv").write_text("\n".join([header, *rows]) + "\n")
    (tmp_path / "manifest.txt").write_text("data.csv,2,1,16\n")
    config = tmp_path / "csv.cfg"
    config.write_text(QUICK_CFG.replace("data.source = synth",
                                        "data.source = csv\ndata.manifest = manifest.txt"))
    exp = load_config(config)
    dataset = exp.build_dataset(1)
    plan = make_split(dataset, exp["split.pattern"], exp.split_params(), 1)
    hidden = sum(labels[i] == -1 for i in plan.train_indices)
    assert hidden >= 2 and len(plan.train_indices) == 6

    code = main(["train", "--config", str(config), "--out", str(tmp_path / "run"), "--seeds", "1",
                 "--label-ratio", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"error[data]: label ratio 0.5 needs every train sample labeled, but {hidden} of the "
            "6 train samples have label -1") in err
    assert "apply_label_ratio" not in err
    assert not (tmp_path / "run" / "report.csv").exists()
