"""The package's heap settings, checked in fresh interpreters."""

import ctypes

import pytest

from test_threads import run_python


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


pytestmark = pytest.mark.skipif(not _has_mallopt(),
                                reason="the C library has no mallopt (not glibc)")


# A training step's temporaries are arrays of a few MB, freed and made again
# every step; here two are live at once. Each fault is a page touched for the
# first time.
FAULTS = """
import resource

import semicl
import numpy as np

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    live = [np.ones(1 << 18) for _ in range(2)]  # 2 MiB each, every page written
    del live
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_freed_arrays_are_reused_without_faulting():
    # glibc's dynamic thresholds hand most of these pages back to the kernel
    # every round: about 40 K faults, against about 1 K when they are kept.
    assert int(run_python(FAULTS)) < 5_000


@pytest.mark.parametrize("env", [{"MALLOC_TRIM_THRESHOLD_": "131072"},
                                 {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}],
                         ids=["malloc_var", "tunables"])
def test_caller_allocator_settings_win(env):
    # These settings leave the mmap threshold at 128 KiB, so every array faults
    # its pages in again, unless semicl overrode the caller's choice.
    assert int(run_python(FAULTS, **env)) > 50_000


def test_import_sets_no_allocator_variable():
    code = ("import os\nbefore = set(os.environ)\nimport semicl\n"
            "print(sorted(k for k in set(os.environ) - before\n"
            "             if k.startswith('MALLOC_') or k == 'GLIBC_TUNABLES'))")
    assert run_python(code) == "[]"
