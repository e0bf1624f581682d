"""Tooth adjacency graphs and the CAR spatial covariance.

The latent per-tooth effect Q is multivariate normal with covariance
``Sigma = tau^2 * (C - rho * D)^{-1}`` where D is the neighborhood matrix
and C is diagonal with the row sums of D.

Two built-in neighborhoods:

* ``tooth_chain(T)`` - one chain over all T teeth; the default CAR model
  additionally puts ones on the diagonal of D (each tooth counts as its
  own neighbor), giving a banded ones matrix ``|t - t'| <= 1``.  This is
  the convention behind the built-in periodontitis design.
* ``dental_arches(T)`` - two disjoint chains of T/2 teeth (upper/lower
  arch, third molars excluded), no self-neighboring.

Custom neighborhoods load from an edge-list file, one "t t'" pair per
line, 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NotPositiveDefiniteError

SYM_TOL = 1e-12


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected graph on vertices 1..size, no self-loops, min degree 1."""

    size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"graph size must be >= 1, got {self.size}")
        deg = [0] * (self.size + 1)
        for a, b in self.edges:
            if not (1 <= a <= self.size and 1 <= b <= self.size):
                raise ValueError(f"edge ({a},{b}) out of range 1..{self.size}")
            if a == b:
                raise ValueError(f"self-loop ({a},{b}) not allowed")
            deg[a] += 1
            deg[b] += 1
        isolated = [v for v in range(1, self.size + 1) if deg[v] == 0]
        if isolated:
            raise ValueError(f"every vertex needs degree >= 1; isolated: {isolated}")

    @staticmethod
    def from_pairs(size: int, pairs) -> "AdjacencyGraph":
        return AdjacencyGraph(size, frozenset((min(a, b), max(a, b)) for a, b in pairs))

    def adjacency_matrix(self) -> np.ndarray:
        d = np.zeros((self.size, self.size))
        for a, b in self.edges:
            d[a - 1, b - 1] = d[b - 1, a - 1] = 1.0
        return d


def tooth_chain(size: int = 28) -> AdjacencyGraph:
    """Single chain 1-2-...-size."""
    if size < 2:
        raise ValueError(f"chain needs size >= 2, got {size}")
    return AdjacencyGraph.from_pairs(size, [(t, t + 1) for t in range(1, size)])


def dental_arches(size: int = 28) -> AdjacencyGraph:
    """Two disjoint chains of size/2 vertices each (upper and lower arch)."""
    if size % 2 != 0 or size < 4:
        raise ValueError(f"arch graph needs even size >= 4, got {size}")
    half = size // 2
    pairs = [(t, t + 1) for t in range(1, half)]
    pairs += [(t, t + 1) for t in range(half + 1, size)]
    return AdjacencyGraph.from_pairs(size, pairs)


def load_edge_list(path: str | Path, size: int | None = None) -> AdjacencyGraph:
    """Read an edge list ("t t'" per line, 1-based; blank lines and # comments skipped)."""
    pairs = []
    hi = 0
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected two vertex ids, got {raw!r}")
        a, b = int(parts[0]), int(parts[1])
        pairs.append((a, b))
        hi = max(hi, a, b)
    return AdjacencyGraph.from_pairs(size if size is not None else hi, pairs)


class SpdMatrix:
    """Dense SPD ``matrix`` with its lower Cholesky factor ``chol``, ``dim`` and ``diagonal``."""

    def __init__(self, matrix: np.ndarray, name: str = "matrix"):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = np.abs(m).max()
        if scale > 0 and np.abs(m - m.T).max() > SYM_TOL * scale:
            raise NotPositiveDefiniteError(f"{name} is not symmetric")
        m = m / 2.0 + m.T / 2.0  # halves first: a sum near the largest double would overflow
        try:
            self.chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"{name}: Cholesky factorization failed: {exc}") from exc
        self.matrix, self.dim, self.diagonal = m, m.shape[0], np.diag(m)


@dataclass(frozen=True)
class CarModel:
    """CAR specification: neighborhood graph plus (tau, rho).

    ``self_adjacent=True`` adds a unit diagonal to D before forming
    C = diag(rowsums(D)); this is the default tooth convention.
    """

    graph: AdjacencyGraph
    tau: float
    rho: float
    self_adjacent: bool = False

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(
                f"rho must lie in [0, 1); rho={self.rho} (rho=1 makes C - rho*D singular)"
            )

    def neighborhood_matrix(self) -> np.ndarray:
        d = self.graph.adjacency_matrix()
        if self.self_adjacent:
            d = d + np.eye(self.graph.size)
        return d


def default_car_model(tau: float = 0.85, rho: float = 0.975, size: int = 28) -> CarModel:
    """The built-in tooth model: chain neighborhood with self-adjacency."""
    return CarModel(tooth_chain(size), tau, rho, self_adjacent=True)


def car_covariance(model: CarModel) -> SpdMatrix:
    """Sigma = tau^2 (C - rho D)^{-1}, factored and cached."""
    d = model.neighborhood_matrix()
    c = np.diag(d.sum(axis=1))
    prec = c - model.rho * d
    try:
        chol_prec = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"C - rho*D is not positive definite (rho={model.rho} too large for this graph)"
        ) from exc
    inv = np.linalg.solve(chol_prec.T, np.linalg.solve(chol_prec, np.eye(model.graph.size)))
    with np.errstate(over="raise"):  # a huge tau: FloatingPointError, not inf and NaN
        sigma = model.tau**2 * inv
    return SpdMatrix(sigma, "Sigma = tau^2 (C - rho D)^-1")

