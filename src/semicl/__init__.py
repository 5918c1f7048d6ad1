"""Semi-supervised contrastive learning engine for time-series classification.

Trains an encoder/classifier pair either end-to-end with a hybrid loss
(unsupervised contrastive + supervised contrastive + cross-entropy) or in the
classic two-stage pretrain/fine-tune regime, on top of a small tape-based
autodiff substrate. See the README for the CLI and file formats.
"""

import os

# Set before numpy loads OpenBLAS. The loss's similarity products, a few
# hundred rows by 64, take OpenBLAS's threaded path, and its second thread
# spins between calls: twice the CPU time for the same wall time. Any thread
# variable the caller sets wins.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, grad_check
from .errors import SemiCLError

__all__ = ["Tape", "Tensor", "grad_check", "SemiCLError", "__version__"]
