"""Output bytes that do not depend on the interpreter's string hash seed.

Every benchmark or CLI job is a fresh process with its own random hash seed, so
a set or dict ordered by string hashes would change its output only sometimes.
"""

from semicl.cli import main
from test_threads import run_python

# Three sensors, three classes, six subjects: `eval` reads the CSV and holds out
# one subject, so sample order and the subject split both come from the file.
TINY_CFG = """
data.source = {source}
data.manifest = {manifest}
data.num_samples = 36
data.num_classes = 3
data.channels = 3
data.length = 32
data.num_subjects = 6
split.pattern = leave_subjects_out
model.num_blocks = 1
model.dilations = 1
model.feature_channels = 2
model.embed_dim = 8
train.epochs = 1
train.batch_size = 12
"""


def test_eval_bytes_do_not_depend_on_hash_seed(tmp_path):
    synth = tmp_path / "synth.cfg"
    synth.write_text(TINY_CFG.format(source="synth", manifest="unused"))
    assert main(["synth-gen", "--config", str(synth), "--out", str(tmp_path / "data"),
                 "--seeds", "2"]) == 0
    config = tmp_path / "csv.cfg"
    config.write_text(TINY_CFG.format(source="csv", manifest=tmp_path / "data" / "manifest.txt"))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "train"),
                 "--seeds", "2"]) == 0
    reports = {}
    for hash_seed in ("0", "1"):
        out = tmp_path / f"eval{hash_seed}"
        run_python("import semicl.cli; raise SystemExit(semicl.cli.main(['eval', '--config', "
                   f"{str(config)!r}, '--out', {str(out)!r}, '--seeds', '2', '--model', "
                   f"{str(tmp_path / 'train' / 'model.ckpt')!r}]))", PYTHONHASHSEED=hash_seed)
        reports[hash_seed] = (out / "report.csv").read_bytes()
    assert reports["0"] == reports["1"]
