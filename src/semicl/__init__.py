"""Semi-supervised contrastive learning engine for time-series classification.

Trains an encoder/classifier pair either end-to-end with a hybrid loss
(unsupervised contrastive + supervised contrastive + cross-entropy) or in the
classic two-stage pretrain/fine-tune regime, on top of a small tape-based
autodiff substrate. See the README for the CLI and file formats.
"""

import ctypes
import os

# Set before numpy loads OpenBLAS. The loss's similarity products, a few
# hundred rows by 64, take OpenBLAS's threaded path, and its second thread
# spins between calls: twice the CPU time for the same wall time. Any thread
# variable the caller sets wins.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _keep_heap_mapped() -> None:
    """Let glibc keep freed memory mapped so each training step reuses it.

    A step's temporaries, a few MB each, would otherwise go to fresh mmaps or
    be trimmed off the heap when freed, so the next step faults every page in
    again (about 21 MB of first touches per step). Both thresholds are set:
    setting either one turns off glibc's dynamic thresholds. Only this process
    changes, not its children. A caller's MALLOC_* or glibc.malloc tunables
    win, and on a C library without mallopt nothing happens.
    """
    if (any(k.startswith("MALLOC_") for k in os.environ)
            or "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", "")):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's 64-bit maximum


_keep_heap_mapped()

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, grad_check
from .errors import SemiCLError

__all__ = ["Tape", "Tensor", "grad_check", "SemiCLError", "__version__"]
