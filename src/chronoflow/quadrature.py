"""Gauss-Legendre quadrature helpers."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# leggauss builds an n x n matrix: 1,024 nodes take 16 MB, 100,000 would take 75 GiB
MAX_NODES = 1024


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"quadrature needs 1 to {MAX_NODES} nodes, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the signed integral from a to b."""
    x, w = _reference_rule(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def split_at(a: float, b: float, cuts) -> list[tuple[float, float]]:
    """Split [a, b] (either orientation) at the given interior cut points."""
    lo, hi = min(a, b), max(a, b)
    inner = sorted(c for c in cuts if lo < c < hi)
    points = [a] + (inner if a <= b else inner[::-1]) + [b]
    return [
        (points[i], points[i + 1])
        for i in range(len(points) - 1)
        if abs(points[i + 1] - points[i]) > 1e-15
    ]
