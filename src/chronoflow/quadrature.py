"""Gauss-Legendre quadrature helpers."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# leggauss builds an n x n matrix: 1,024 nodes take 16 MB, 100,000 would take 75 GiB
MAX_NODES = 1024


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the signed integral from a to b."""
    if isinstance(n, bool) or not 1 <= n <= MAX_NODES:  # True would pass as 1 node
        raise ValueError(f"quadrature needs 1 to {MAX_NODES} nodes, got {n}")
    x, w = _reference_rule(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w
