"""Evolution-aware message passing for homologous protein property prediction.

Submodules are imported lazily so that the CLI can configure thread limits
before numpy loads its BLAS backend.
"""

from __future__ import annotations

import importlib
import os

__version__ = "0.1.0"

_SUBMODULES = (
    "autodiff",
    "data",
    "embeddings",
    "residue_encoder",
    "evolution",
    "model",
    "training",
    "evaluation",
    "cli",
)


def worker_threads() -> int | None:
    """Python worker threads that ``EVOLMPNN_THREADS`` asks for, or None when
    it is unset or empty. Any other value must be a positive integer."""
    raw = os.environ.get("EVOLMPNN_THREADS", "")
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"EVOLMPNN_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
