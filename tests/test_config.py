"""The schema's naming rule: a key ``<section>.<name>`` sets parameter ``name`` of its section.

`ExperimentConfig` builds each section by parameter name, so a renamed field
would leave its key silently at the class default; these tests catch that.
"""

import inspect

from semicl.augment import AugmentSpec
from semicl.config import SCHEMA
from semicl.data import SplitParams
from semicl.losses import LossWeights
from semicl.nn import EncoderConfig
from semicl.synth import synth_generate
from semicl.train import TrainConfig

SECTIONS = {"data": synth_generate, "split": SplitParams, "model": EncoderConfig,
            "losses": LossWeights, "augment": AugmentSpec, "train": TrainConfig}
READ_BY_NAME = {"data.source", "data.manifest", "data.label_ratio", "split.pattern",
                "losses.ntxent_denominator", "rng.algorithm"}


def _parameter(key: str):
    """The parameter a key sets, or None."""
    section, _, name = key.partition(".")
    if section not in SECTIONS:
        return None
    return inspect.signature(SECTIONS[section]).parameters.get(name)


def test_every_key_is_a_parameter_of_its_section_or_read_by_name():
    # Exactly one of the two: a read-by-name key that is also a parameter would
    # be passed twice, or silently.
    wrong = [key for key in SCHEMA if (key in READ_BY_NAME) == (_parameter(key) is not None)]
    assert wrong == []


def test_every_default_is_the_default_of_the_parameter_it_sets():
    mismatched = {key: (default, param.default) for key, (_, default) in SCHEMA.items()
                  if (param := _parameter(key)) is not None
                  and param.default is not param.empty and default != param.default}
    assert mismatched == {}
