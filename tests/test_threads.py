"""The package's BLAS thread default, and which output bytes the BLAS thread
count and kernel reach, checked in fresh interpreters."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
KERNEL_VAR = "OPENBLAS_CORETYPE"


def run_python(code: str, **env: str) -> str:
    """stdout of `code` in a fresh interpreter with only the given thread, kernel and allocator variables set."""
    clean = {k: v for k, v in os.environ.items()
             if k not in THREAD_VARS + (KERNEL_VAR,) and not k.startswith("MALLOC_")
             and k != "GLIBC_TUNABLES"}
    clean["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", code], env=clean | env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("env,expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
                                          ({"OMP_NUM_THREADS": "2"}, "None"),
                                          ({"GOTO_NUM_THREADS": "2"}, "None")],
                         ids=["unset", "openblas", "omp", "goto"])
def test_import_sets_one_blas_thread_unless_caller_chose(env, expected):
    code = "import os, semicl; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_python(code, **env) == expected


# The loss's similarity products are about this size: big enough for OpenBLAS's
# threaded path, too small for a second thread to pay.
CPU_PER_WALL = """
import time

import semicl
import numpy as np

a = np.random.default_rng(0).normal(size=(245, 64))
b = a.T.copy()
ratios = []
for _ in range(3):  # the highest of three, as another process can hold the second core
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(400):
        a @ b
    ratios.append((time.process_time() - cpu) / (time.perf_counter() - wall))
print(max(ratios))
"""


def test_small_products_use_one_core_after_import():
    assert float(run_python(CPU_PER_WALL)) < 1.5


# Batches of 80 give (160 x 64) @ (64 x 160) similarity products: large enough for
# OpenBLAS's threaded path when it has a second thread.
SMALL_TRAIN_CFG = """
data.source = synth
data.num_samples = 128
data.num_classes = 2
data.channels = 2
data.length = 16
data.num_subjects = 4
data.label_ratio = 0.5
model.num_blocks = 1
model.dilations = 1
model.feature_channels = 4
model.embed_dim = 64
train.epochs = 2
train.batch_size = 80
"""


def small_train(config, out):
    """Code that runs the small training config into `out`."""
    return ("import semicl.cli\n"
            f"assert semicl.cli.main(['train', '--config', {str(config)!r}, '--out', {str(out)!r}, "
            "'--seeds', '3']) == 0\n")


def test_train_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_TRAIN_CFG)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run_python(small_train(config, out), OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = {name: (out / name).read_bytes()
                            for name in ("trace.csv", "report.csv", "model.ckpt")}
    assert outputs["1"] == outputs["2"]


# Prints the kernel numpy's bundled OpenBLAS chose at load time, empty for
# another BLAS.
CORE_NAME = """
import ctypes, glob, os
import numpy as np
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if get is not None:
    get.restype = ctypes.c_char_p
print("kernel:", get().decode() if get is not None else "")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
def test_report_bytes_do_not_depend_on_blas_kernel(tmp_path):
    # The README's reproducibility contract: report.csv holds across BLAS
    # kernels; traces and checkpoints may not.
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_TRAIN_CFG)
    cores, reports = {}, {}
    for kernel, env in (("default", {}), ("Prescott", {KERNEL_VAR: "Prescott"})):
        out = tmp_path / kernel
        printed = run_python(small_train(config, out) + CORE_NAME, **env)
        cores[kernel] = printed.rpartition("kernel:")[2].strip()
        reports[kernel] = (out / "report.csv").read_bytes()
    if not cores["default"]:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS, which OPENBLAS_CORETYPE selects")
    assert cores["default"] != cores["Prescott"], "the kernel setting did not take effect"
    assert reports["default"] == reports["Prescott"]
