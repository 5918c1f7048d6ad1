"""Property tests over arbitrary input files: every parser returns a result or a SemiCLError."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from semicl import data
from semicl.config import SCHEMA, ExperimentConfig, load_config
from semicl.data import SemiLabeledDataset, load_csv, write_csv
from semicl.errors import ParseError, SemiCLError
from semicl.nn import EncoderClassifier, EncoderConfig, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
TEXT = st.text(st.characters(codec="utf-8"), max_size=40)


def loads_or_rejects(load, path, *clean):
    """Return what `load(path)` gives; a SemiCLError, or one of `clean`, counts as a rejection."""
    try:
        return load(path)
    except (SemiCLError, *clean):
        return None


@FUZZ
@given(st.binary(max_size=300))
def test_config_from_arbitrary_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    cfg = loads_or_rejects(load_config, path)
    assert cfg is None or isinstance(cfg, ExperimentConfig)


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(sorted(SCHEMA)), TEXT), max_size=12))
def test_config_from_schema_keys_with_arbitrary_values(tmp_path, entries):
    path = tmp_path / "fuzz.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries), encoding="utf-8")
    cfg = loads_or_rejects(load_config, path)
    assert cfg is None or isinstance(cfg, ExperimentConfig)


def _tiny_checkpoint() -> bytes:
    model = EncoderClassifier(EncoderConfig(num_blocks=1, dilations=(1,), feature_channels=2,
                                            embed_dim=3), num_classes=2, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.ckpt"
        save_checkpoint(model, path)
        return path.read_bytes()


HEADER, PAYLOAD = _tiny_checkpoint().split(b"DATA\n", 1)
HEADER_LINES = HEADER.decode("ascii").splitlines()
HEADER_KEYS = [line.split("=", 1)[0] for line in HEADER_LINES if "=" in line]


@FUZZ
@given(st.lists(st.one_of(st.sampled_from(HEADER_LINES[1:]), TEXT,
                          st.builds("{}={}".format, st.sampled_from(HEADER_KEYS), TEXT)),
                max_size=30),
       st.one_of(st.just(PAYLOAD), st.binary(max_size=64)))
def test_checkpoint_from_arbitrary_headers(tmp_path, lines, payload):
    path = tmp_path / "fuzz.ckpt"
    header = "\n".join([HEADER_LINES[0]] + lines) + "\n"
    path.write_bytes(header.encode("utf-8") + b"DATA\n" + payload)
    model = loads_or_rejects(load_checkpoint, path)
    assert model is None or isinstance(model, EncoderClassifier)


def _tiny_csv() -> bytes:
    rng = np.random.default_rng(0)
    dataset = SemiLabeledDataset(rng.normal(size=(3, 2, 3)), np.array([0, 1, -1]),
                                 np.array(["s0", "s0", "s1"]), np.array(["t0", "t1", "t0"]), 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.csv"
        write_csv(dataset, path)
        return path.read_bytes()


CSV_HEADER, *CSV_ROWS = _tiny_csv().decode("ascii").splitlines()


def _mutated(row: str, field: int, text: str) -> str:
    fields = row.split(",")
    fields[field % len(fields)] = text
    return ",".join(fields)


CSV_ROW = st.one_of(st.sampled_from(CSV_ROWS), TEXT,
                    st.builds(_mutated, st.sampled_from(CSV_ROWS), st.integers(0, 7), TEXT),
                    st.builds(lambda row, cut: row[:cut], st.sampled_from(CSV_ROWS), st.integers(0, 60)))


def _manifest_loads_or_rejects(tmp_path, blob: bytes):
    (tmp_path / "a.csv").write_text(CSV_HEADER + "\n" + "\n".join(CSV_ROWS) + "\n")
    path = tmp_path / "manifest.txt"
    path.write_bytes(blob)
    # A manifest naming a missing file or a directory is the CLI's I/O error (exit 4).
    dataset = loads_or_rejects(load_csv, path, FileNotFoundError, IsADirectoryError)
    assert dataset is None or isinstance(dataset, SemiLabeledDataset)


@FUZZ
@given(st.binary(max_size=200))
def test_manifest_from_arbitrary_bytes(tmp_path, blob):
    _manifest_loads_or_rejects(tmp_path, blob)


@FUZZ
@given(st.sampled_from(["a.csv", "b.csv", ""]), st.integers(), st.integers(), st.integers())
@example("a.csv", 2, 1, -1)
@example("a.csv", 2, 1, 10_000_000_000_000)
@example("a.csv", 2, 2**62, 3)
def test_manifest_with_arbitrary_sizes(tmp_path, name, num_classes, channels, length):
    _manifest_loads_or_rejects(tmp_path, f"{name},{num_classes},{channels},{length}\n".encode())


@FUZZ
@given(st.lists(CSV_ROW, max_size=8), st.binary(max_size=8))
def test_csv_rows_after_a_valid_header(tmp_path, rows, tail):
    (tmp_path / "a.csv").write_bytes("\n".join([CSV_HEADER] + rows).encode("utf-8") + b"\n" + tail)
    path = tmp_path / "manifest.txt"
    path.write_text("a.csv,2,2,3\n")
    dataset = loads_or_rejects(load_csv, path)
    assert dataset is None or isinstance(dataset, SemiLabeledDataset)


# ---------------------------------------------------------------------------
# Block parsing against the row-wise loader
# ---------------------------------------------------------------------------

AWKWARD = (1e-05, -0.0, 5e-324, 1e-300, -1.2345678901234567e17)


def _written_rows(values: list[float], ids: list[str]) -> list[str]:
    """The data rows `write_csv` gives for a (2, 2, 3) dataset."""
    dataset = SemiLabeledDataset(np.reshape(values, (2, 2, 3)), np.array([1, -1]),
                                 np.array(ids[:2]), np.array(ids[2:]), 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        write_csv(dataset, path)
        return path.read_text().splitlines()[1:]


WRITTEN = st.builds(_written_rows,
                    st.lists(st.sampled_from(AWKWARD) | st.floats(allow_nan=False,
                                                                   allow_infinity=False),
                             min_size=12, max_size=12),
                    st.lists(st.sampled_from(["s0", "s,1", 'q"2', "t 3"]), min_size=4, max_size=4))


@st.composite
def csv_files(draw) -> list[str]:
    """A file's data rows: whole samples, with up to three stray, faulty or blank rows put in."""
    rows = list(draw(st.one_of(WRITTEN, st.just(CSV_ROWS))))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.one_of(CSV_ROW, st.just(""))))
    return rows


def _outcome(load, manifest: Path):
    """The columns `load` gives, or its error class and the "path:line" its message starts with."""
    try:
        ds = load(manifest)
    except SemiCLError as e:
        return type(e), str(e).split(": ", 1)[0]
    return (ds.values.shape, ds.values.tobytes(), ds.labels.tobytes(), ds.subject_ids.tolist(),
            ds.trial_ids.tolist())


def _outside_decimal_syntax(value: str) -> bool:
    """What float() reads and the documented syntax does not: `1_0`, non-ASCII digits, line breaks."""
    return ("_" in value or "\r" in value or "\n" in value
            or any(c.isdecimal() and not c.isascii() for c in value))


@FUZZ
@given(st.lists(csv_files(), min_size=1, max_size=2), st.sampled_from(["\n", "\r\n"]),
       st.sampled_from([1, 2, 5, data.BLOCK_ROWS]))
@example([[_mutated(CSV_ROWS[0], 7, "1_0"), *CSV_ROWS[1:]]], "\n", data.BLOCK_ROWS)
@example([[*CSV_ROWS[:3], _mutated(CSV_ROWS[3], 5, "\u0661"), *CSV_ROWS[4:]]], "\r\n", 2)
@example([CSV_ROWS, [_mutated(CSV_ROWS[0], 6, '"1.0\r"'), *CSV_ROWS[1:]]], "\n", 1)
def test_load_csv_matches_the_rowwise_oracle(tmp_path, monkeypatch, files, newline, block_rows):
    """Same columns as the row-wise loader, or the same error class naming the same line.

    The one allowed difference: a ParseError for a value the row-wise loader
    read through float() but that lies outside the documented decimal syntax.
    """
    names = ["a.csv", "b.csv"][:len(files)]
    for name, rows in zip(names, files):
        (tmp_path / name).write_bytes(newline.join([CSV_HEADER, *rows, ""]).encode("utf-8"))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{name},2,2,3\n" for name in names))
    expected = _outcome(oracles.load_csv_rowwise, manifest)
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    got = _outcome(load_csv, manifest)
    if got == expected:
        return

    def position(prefix):  # (file, line); a fault of a whole file comes after its lines
        path, _, line = prefix.partition(":")
        return names.index(Path(path).name), int(line) if line else math.inf

    assert got[0] is ParseError, (got, expected)
    where = position(got[1])
    with open(tmp_path / names[where[0]], newline="", encoding="utf-8") as fh:
        values = list(csv.reader(fh))[where[1] - 1][5:]
    np.array(values, dtype=np.float64)  # the row-wise loader reads the row's values
    assert any(map(_outside_decimal_syntax, values)), (got, expected, values)
    assert len(expected) == 5 or position(expected[1]) > where, (got, expected)
