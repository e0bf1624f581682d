import numpy as np
import pytest

from smartp import (
    AdjacencyGraph,
    CarModel,
    NotPositiveDefiniteError,
    SpdMatrix,
    car_covariance,
    default_car_model,
    dental_arches,
    load_edge_list,
    tooth_chain,
)
from helpers import degree, sample_mvn


def test_arches_structure():
    g = dental_arches(28)
    assert len(g.edges) == 26
    degs = sorted(degree(g, v) for v in range(1, 29))
    assert degs.count(1) == 4 and degs.count(2) == 24


def test_arches_small_cases():
    assert dental_arches(4).edges == frozenset({(1, 2), (3, 4)})
    with pytest.raises(ValueError):
        dental_arches(2)  # two singleton arches have degree 0
    with pytest.raises(ValueError):
        dental_arches(27)


def test_chain_structure():
    g = tooth_chain(28)
    assert len(g.edges) == 27
    assert degree(g, 1) == 1 and degree(g, 15) == 2


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        AdjacencyGraph.from_pairs(3, [(1, 1), (2, 3)])
    with pytest.raises(ValueError, match="isolated"):
        AdjacencyGraph.from_pairs(3, [(1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        AdjacencyGraph.from_pairs(2, [(1, 5)])


def test_rho_zero_gives_diagonal():
    g = dental_arches(28)
    cov = car_covariance(CarModel(g, tau=0.7, rho=0.0))
    deg = np.array([degree(g, v) for v in range(1, 29)])
    assert np.allclose(cov.matrix, np.diag(0.7**2 / deg), atol=1e-14)


def test_two_block_hand_inverse():
    g = AdjacencyGraph.from_pairs(4, [(1, 2), (3, 4)])
    cov = car_covariance(CarModel(g, tau=1.0, rho=0.5)).matrix
    block = np.array([[1.0, 0.5], [0.5, 1.0]]) / 0.75
    expect = np.zeros((4, 4))
    expect[:2, :2] = block
    expect[2:, 2:] = block
    assert np.allclose(cov, expect, atol=1e-12)


def test_inverse_identity_and_symmetry():
    model = default_car_model()
    cov = car_covariance(model)
    d = model.neighborhood_matrix()
    c = np.diag(d.sum(axis=1))
    lhs = (c - model.rho * d) @ cov.matrix
    assert np.abs(lhs - model.tau**2 * np.eye(28)).max() < 1e-8
    assert np.abs(cov.matrix - cov.matrix.T).max() <= 1e-12 * np.abs(cov.matrix).max()


def test_diag_monotone_in_rho():
    for graph, self_adj in [(tooth_chain(28), True), (dental_arches(28), False)]:
        prev = None
        for rho in (0.0, 0.5, 0.9, 0.975):
            diag = car_covariance(CarModel(graph, 0.85, rho, self_adj)).diagonal
            if prev is not None:
                assert np.all(diag >= prev - 1e-12)
            prev = diag


def test_car_model_validation():
    g = tooth_chain(4)
    with pytest.raises(ValueError, match="singular"):
        CarModel(g, 0.85, 1.0)
    with pytest.raises(ValueError):
        CarModel(g, 0.85, -0.01)
    with pytest.raises(ValueError):
        CarModel(g, 0.0, 0.5)


def test_spd_rejects_bad_matrices():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))  # asymmetric
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_sample_mvn_identity():
    cov = SpdMatrix(np.eye(4))
    x = sample_mvn(cov, 200_000, np.random.default_rng(3))
    emp = np.cov(x.T)
    assert np.abs(emp - np.eye(4)).max() < 3 * np.sqrt(2 / x.shape[0]) + 0.01


def test_sample_mvn_matches_car_block():
    g = AdjacencyGraph.from_pairs(4, [(1, 2), (3, 4)])
    cov = car_covariance(CarModel(g, tau=1.0, rho=0.5))
    x = sample_mvn(cov, 1_000_000, np.random.default_rng(11))
    emp = np.cov(x.T)
    assert np.abs(emp - cov.matrix).max() < 0.01
    col_se = np.sqrt(np.diag(cov.matrix) / x.shape[0])
    assert np.all(np.abs(x.mean(axis=0)) < 3 * col_se)


def test_edge_list_roundtrip(tmp_path):
    f = tmp_path / "edges.txt"
    f.write_text("# two arches of two\n1 2\n3 4\n")
    g = load_edge_list(f)
    assert g == dental_arches(4)
    f2 = tmp_path / "bad.txt"
    f2.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="two vertex ids"):
        load_edge_list(f2)


def test_default_model_diag_spread():
    # banded self-adjacent chain: end teeth have the largest variance
    diag = car_covariance(default_car_model()).diagonal
    assert diag.max() == pytest.approx(diag[0])
    assert diag.argmin() in (13, 14)


def test_edge_list_explicit_size(tmp_path):
    f = tmp_path / "e.txt"
    f.write_text("1 2\n2 3\n")
    with pytest.raises(ValueError, match="isolated"):
        load_edge_list(f, size=4)  # vertex 4 has no edges
    assert load_edge_list(f, size=3).size == 3
