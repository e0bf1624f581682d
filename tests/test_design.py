import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartp import (
    Regime,
    SmartDesign,
    Stage1Arm,
    Stage1Mode,
    TreatmentPath,
    contrast_weights,
    design_from_matrices,
    ipw_path_weights,
    path_probs,
    path_tables,
    periodontitis_default,
    stage1_probs,
    stage2_prob,
)
from helpers import design_matrices, designs


def test_default_design_is_valid():
    d = periodontitis_default()
    assert len(d.paths) == 10 and len(d.regimes) == 8 and len(d.arms) == 2
    resp_paths = [p.index + 1 for p in d.paths if p.responder]
    assert resp_paths == [1, 6]


def _tamper(design, **kwargs):
    return SmartDesign(
        kwargs.get("n_units", design.n_units),
        kwargs.get("arms", design.arms),
        kwargs.get("paths", design.paths),
        kwargs.get("regimes", design.regimes),
    )


def test_validation_catches_wrong_responder_flag():
    d = periodontitis_default()
    # regime 1 pointing to path 2 (a non-responder path) as its responder path
    bad = list(d.regimes)
    bad[0] = Regime(0, responder_path=1, nonresp_path=1, arm=0)
    with pytest.raises(ValueError, match="invalid design: regime 1 uses path 2 as its responder"):
        _tamper(d, regimes=tuple(bad))


def test_validation_catches_count_mismatch():
    d = periodontitis_default()
    arms = (Stage1Arm(0, 1, 3, 0.25), d.arms[1])  # claims 3 NR options, has 4
    with pytest.raises(ValueError, match="arm 1 declares 3 non-responder options but has 4"):
        _tamper(d, arms=arms)


def test_validation_catches_cross_arm_regime():
    d = periodontitis_default()
    bad = list(d.regimes)
    bad[0] = Regime(0, responder_path=0, nonresp_path=6, arm=0)  # path 7 is on arm 2
    with pytest.raises(ValueError, match="regime 1 is on arm 1 but path 7 is on arm 2"):
        _tamper(d, regimes=tuple(bad))


def test_stage1_equal_mode():
    d = periodontitis_default(stage1_mode=Stage1Mode.EQUAL)
    assert np.allclose(stage1_probs(d), [0.5, 0.5])


def test_stage1_max_rule():
    d = periodontitis_default(stage1_mode="max")
    assert np.allclose(stage1_probs(d), [0.5, 0.5])  # max(1,4) both arms


def test_stage1_balanced_example():
    d = periodontitis_default(0.25, 0.5)
    pi1 = stage1_probs(d)
    w1 = 1 / (0.25 + 0.75 / 4)
    w2 = 1 / (0.5 + 0.5 / 4)
    assert pi1[0] == pytest.approx(w1 / (w1 + w2))
    assert pi1[0] == pytest.approx(0.5882, abs=2e-4)


def test_stage1_probs_sum_to_one():
    for mode in Stage1Mode:
        for g1 in (0.1, 0.25, 0.9):
            d = periodontitis_default(g1, 0.5, stage1_mode=mode)
            assert stage1_probs(d).sum() == pytest.approx(1.0)


@pytest.mark.parametrize("mode", list(Stage1Mode))
def test_mode_string_weighs_arms_like_its_enum(mode):
    """However a design is built, a mode string is parsed into its Stage1Mode member."""
    want = stage1_probs(periodontitis_default(0.25, 0.5, stage1_mode=mode))
    d = periodontitis_default(0.25, 0.5)
    built = [dataclasses.replace(d, stage1_mode=mode.value),
             SmartDesign(d.n_units, d.arms, d.paths, d.regimes, mode.value)]
    for design in built:
        assert design.stage1_mode is mode
        np.testing.assert_array_equal(stage1_probs(design), want)
    with pytest.raises(ValueError, match="bogus"):
        dataclasses.replace(d, stage1_mode="bogus")


def test_balanced_equalizes_regime_allocation():
    # pi1(arm) * (gamma + (1-gamma)/n_NR) identical across arms
    d = periodontitis_default(0.3, 0.7)
    pi1 = stage1_probs(d)
    shares = [
        pi1[a.index] * (a.response_rate + (1 - a.response_rate) / a.n_nonresp_options)
        for a in d.arms
    ]
    assert shares[0] == pytest.approx(shares[1])


def test_stage2_probs():
    d = periodontitis_default()
    assert stage2_prob(d, 0) == 1.0
    assert stage2_prob(d, 1) == 0.25
    mu = np.zeros((5, 5))
    st1 = [[1, 2, 0.4], [1, 1, 0.5]]
    dtr = [[1, 1, 2, 1], [2, 1, 3, 1], [3, 4, 5, 2]]
    d2 = design_from_matrices(mu, st1, dtr)
    assert stage2_prob(d2, 1) == 0.5  # arm with 2 NR options


def test_path_tables_reference_layout():
    d = periodontitis_default(0.25, 0.5, stage1_mode=Stage1Mode.EQUAL)
    t = path_tables(d)
    assert np.allclose(t["p_st1"], 0.5)
    assert np.allclose(t["p_st2"], [1, 0.25, 0.25, 0.25, 0.25, 1, 0.25, 0.25, 0.25, 0.25])
    assert list(t["res"]) == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert np.allclose(t["ga"], [0.25] * 5 + [0.5] * 5)
    assert list(t["initr"]) == [1] * 5 + [2] * 5


def test_ipw_denominators_positive():
    d = periodontitis_default()
    t = path_tables(d)
    assert np.all(t["p_st1"] * t["p_st2"] > 0)


def test_design_from_matrices_rejects_unreachable_path():
    mu = np.zeros((3, 4))
    st1 = [[1, 1, 0.4]]
    dtr = [[1, 1, 2, 1]]  # path 3 never referenced
    with pytest.raises(ValueError, match="not reachable"):
        design_from_matrices(mu, st1, dtr)


@pytest.mark.parametrize("st1,dtr,named", [
    ([[1, 2.7, 0.4]], [[1, 1, 2, 1], [2, 1, 3, 1]], "st1 option counts"),
    ([[1, 2, 0.4]], [[1, 1, 2, 1], [2, 1, 2.5, 1], [3, 1, 3, 1]], "dtr ids"),
], ids=["st1-count", "dtr-path"])
def test_design_from_matrices_rejects_fractional_counts_and_ids(st1, dtr, named):
    """A fractional option count or id is an error, not truncated to a different design."""
    with pytest.raises(ValueError, match=named):
        design_from_matrices(np.zeros((3, 4)), st1, dtr)


@pytest.mark.parametrize("st1,dtr,named", [
    # path 2: the non-responder path of regime 1 and the responder path of regime 2
    ([[1, 2, 0.5]], [[1, 1, 2, 1], [2, 2, 3, 1]],
     "regime 1 uses path 2 as its non-responder path but that path is responder"),
    # path 2: a non-responder path on arm 1 and on arm 2
    ([[1, 1, 0.5], [1, 1, 0.5]], [[1, 1, 2, 1], [2, 3, 2, 2]],
     "regime 1 is on arm 1 but path 2 is on arm 2"),
], ids=["responder-and-non-responder", "two-arms"])
def test_design_from_matrices_rejects_a_path_used_two_ways(st1, dtr, named):
    with pytest.raises(ValueError, match=f"^invalid design: .*{named}"):
        design_from_matrices(np.zeros((3, 4)), st1, dtr)


@settings(max_examples=100, deadline=None)
@given(design=designs(), mode=st.sampled_from(Stage1Mode))
def test_design_from_matrices_round_trips(design, mode):
    """A design rebuilt from its own (mu, st1, dtr) triple is the same design."""
    design = dataclasses.replace(design, stage1_mode=mode)
    assert design_from_matrices(*design_matrices(design), mode) == design


def test_path_probs_and_ipw_weights():
    """Paths partition the clusters, and each regime's weights undo its paths' probabilities."""
    d = periodontitis_default(0.25, 0.5, stage1_mode=Stage1Mode.MAX)
    probs = path_probs(d)
    assert probs.sum() == pytest.approx(1.0)
    for r in d.regimes:
        w = ipw_path_weights(d, r)
        assert np.flatnonzero(w).tolist() == [r.responder_path, r.nonresp_path]
        assert probs @ w == pytest.approx(1.0)


@pytest.mark.parametrize("ids", [(0,), (3,), (0, 4), (0, 2), (7, 1)])
def test_contrast_weights_are_the_signed_sum_of_the_regime_weights(ids):
    """c_1, or c_1 - c_2, bit for bit the signed sum the trials' contrast has always been."""
    d = periodontitis_default(0.3, 0.6)
    want = sum(sign * ipw_path_weights(d, d.regimes[r]) for sign, r in zip((1.0, -1.0), ids))
    assert contrast_weights(d, ids).tobytes() == want.tobytes()


@pytest.mark.parametrize("ids, message", [
    ((), "regime must list one or two regime numbers in 1..8"),
    ((0, 4, 2), "regime must list one or two regime numbers in 1..8"),
    ((-1,), "regime must list one or two regime numbers in 1..8"),
    ((0, -4), "regime must list one or two regime numbers in 1..8"),
    ((8,), "regime must list one or two regime numbers in 1..8"),
    ((0, 0), "cannot compare a regime against itself"),
], ids=["none", "three", "negative", "negative-second", "past-last", "same"])
def test_contrast_weights_refuses_all_but_one_or_two_distinct_regimes(ids, message):
    with pytest.raises(ValueError) as err:
        contrast_weights(periodontitis_default(), ids)
    assert str(err.value) == message


def test_treatment_path_fields():
    d = periodontitis_default()
    p = d.paths[1]
    assert isinstance(p, TreatmentPath)
    assert p.arm == 0 and not p.responder and len(p.mu) == 28
