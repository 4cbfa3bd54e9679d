"""Process set-up shared by the benchmark's entry points.

Imports nothing that imports NumPy: :func:`pin_threads` must run before
the first NumPy import to take effect.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Thread-count variables read by OpenBLAS, OpenMP and MKL at load time.
#: One BLAS thread steadies mfc-train (its spread drops from about 14%
#: to about 5%) at no cost to speed on two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def put_sources_on_path() -> bool:
    """Make the checkout's ``src/repro`` importable; False when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
