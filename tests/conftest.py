"""Shared test helpers."""
import numpy as np
import pytest

from chronoflow import FlowMap, PolynomialMap, VectorField, flow_map, flow_pushforward


def _random_field(seed: int, dim: int, degree: int, terms: int = 3,
                  scale: float = 0.5) -> VectorField:
    """Autonomous field with ``terms`` random monomials of degree <= ``degree`` per component."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(dim):
        comp = []
        for _ in range(terms):
            exps = [0] * dim
            for _ in range(int(rng.integers(0, degree + 1))):
                exps[int(rng.integers(dim))] += 1
            comp.append((float(rng.uniform(-scale, scale)), tuple(exps)))
        comps.append(comp)
    return VectorField.autonomous(PolynomialMap(dim, dim, comps))


@pytest.fixture
def random_field():
    return _random_field


def _two_solve_pushforward(fm: FlowMap, piece, r) -> np.ndarray:
    """Reference F_*V(r): a plain inverse solve, then F's differential there."""
    pre = flow_map(FlowMap(fm.field, fm.t1, fm.t0, fm.solver), r)
    return flow_pushforward(fm, pre) @ piece(pre)


@pytest.fixture(scope="session")
def two_solve_pushforward():
    return _two_solve_pushforward
