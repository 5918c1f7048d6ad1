import numpy as np
import pytest

from semicl.errors import ContractError
from semicl.rng import ALGORITHM, STREAMS, stream


def test_stream_deterministic():
    a = stream(42, "shuffle").random(8)
    b = stream(42, "shuffle").random(8)
    assert np.array_equal(a, b)


def test_streams_are_independent():
    draws = {name: stream(42, name).random(4) for name in STREAMS}
    names = list(draws)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            assert not np.array_equal(draws[n1], draws[n2])


def test_sub_streams_differ():
    a = stream(7, "augment", index=0).random(4)
    b = stream(7, "augment", index=1).random(4)
    assert not np.array_equal(a, b)


def test_unknown_stream_rejected():
    with pytest.raises(KeyError):
        stream(0, "entropy")


@pytest.mark.parametrize("seed,index", [(2 ** 64, 0), (-1, 0), (0, 2 ** 32), (0, -1)],
                         ids=["seed_2^64", "seed_-1", "index_2^32", "index_-1"])
def test_seed_or_index_outside_its_key_field_rejected(seed, index):
    # Each would alias an in-range one: 2^64 draws what 0 draws, -1 what 2^64 - 1 draws.
    with pytest.raises(ContractError, match="seed|index"):
        stream(seed, "synth", index=index)


def test_largest_seed_and_index_accepted():
    top = stream(2 ** 64 - 1, "synth", index=2 ** 32 - 1).random(4)
    assert not np.array_equal(top, stream(0, "synth").random(4))


def test_algorithm_pinned():
    assert ALGORITHM == "philox4x64"
