"""Gauss-Legendre quadrature helpers."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import as_int

# leggauss builds an n x n matrix: 1,024 nodes take 16 MB, 100,000 would take 75 GiB
MAX_NODES = 1024


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _node_count(n) -> int:
    """``n`` as a node count from 1 to ``MAX_NODES``, an int as numpy takes; ValueError
    otherwise.  A caller whose interval may hold no rule checks its count here first."""
    n = as_int(n, "quadrature nodes", 1)
    if n > MAX_NODES:
        raise ValueError(f"quadrature nodes must be <= {MAX_NODES}, got {n}")
    return n


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the signed integral from a to b."""
    x, w = _reference_rule(_node_count(n))
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w
