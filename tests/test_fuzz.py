"""Property tests over arbitrary input files: every parser returns a result or a SemiCLError."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semicl.config import SCHEMA, ExperimentConfig, load_config
from semicl.errors import SemiCLError
from semicl.nn import EncoderClassifier, EncoderConfig, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
TEXT = st.text(st.characters(codec="utf-8"), max_size=40)


def loads_or_rejects(load, path):
    """Return what `load(path)` gives; a SemiCLError counts as a clean rejection."""
    try:
        return load(path)
    except SemiCLError:
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
