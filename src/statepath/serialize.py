"""Shared serialization conventions for CLI inputs and outputs.

Complex numbers travel as two-element [re, im] arrays, matrices row-major.
JSON numbers are emitted through Python's shortest round-trip repr, which
reconstructs every double exactly; CSV cells use 17 significant digits for
the same reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "complex_pair",
    "vector_pairs",
    "parse_complex",
    "parse_vector",
    "parse_matrix",
    "fmt17",
    "dumps",
]


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_pairs(vec) -> list[list[float]]:
    return [complex_pair(z) for z in np.asarray(vec).ravel()]


def parse_complex(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool)
                   and math.isfinite(part) for part in obj)
    ):
        raise ValueError(f"expected a [re, im] pair of finite numbers, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def parse_vector(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) == 0:
        raise ValueError(f"expected a non-empty array of [re, im] pairs, got {obj!r}")
    return np.array([parse_complex(entry) for entry in obj], dtype=np.complex128)


def parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) == 0:
        raise ValueError(f"expected a non-empty array of matrix rows, got {obj!r}")
    rows = [parse_vector(row) for row in obj]
    width = {row.size for row in rows}
    if len(width) != 1:
        raise ValueError("matrix rows have inconsistent lengths")
    return np.array(rows, dtype=np.complex128)


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def dumps(obj) -> str:
    """Deterministic JSON text: stable key order, two-space indent, newline-terminated."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
