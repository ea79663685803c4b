"""Evolution-aware message passing for homologous protein property prediction.

Submodules are imported lazily so that the CLI can configure thread limits
before numpy loads its BLAS backend.
"""

from __future__ import annotations

import importlib

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


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
