"""Two-stage SMART structure: arms, treatment paths, regimes, probabilities.

A design is specified by a matrix triple:

* ``mu``  - per-path mean vectors (rows = paths, columns = sub-units);
* ``st1`` - one row per stage-1 arm: (# responder options, # non-responder
  options, response rate);
* ``dtr`` - one row per regime: (regime #, responder path #,
  non-responder path #, arm #), all 1-based.

Stage-1 randomization probabilities support three modes.  ``balanced``
weights each arm by ``(gamma/n_resp + (1-gamma)/n_nonresp)^{-1}``
(normalized), equalizing expected per-regime allocation.  ``max`` weights
each arm by ``max(n_resp, n_nonresp)``.  ``equal`` is uniform.  The
``pi1_literal`` compatibility flag reproduces a quirk of a widely used
printed form of these weights in which arms after the first treat their non-responder share as a
single option; it is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Stage1Mode(str, Enum):
    BALANCED = "balanced"
    MAX = "max"
    EQUAL = "equal"


@dataclass(frozen=True)
class Stage1Arm:
    index: int  # 0-based
    n_resp_options: int
    n_nonresp_options: int
    response_rate: float

    def __post_init__(self):
        if self.n_resp_options < 1 or self.n_nonresp_options < 1:
            raise ValueError(f"arm {self.index + 1}: option counts must be >= 1")
        if not 0.0 <= self.response_rate <= 1.0:
            raise ValueError(f"arm {self.index + 1}: response rate must be in [0,1]")


@dataclass(frozen=True)
class TreatmentPath:
    index: int  # 0-based
    arm: int  # 0-based arm index
    responder: bool
    mu: tuple[float, ...]  # per-sub-unit mean


@dataclass(frozen=True)
class Regime:
    index: int  # 0-based
    responder_path: int
    nonresp_path: int
    arm: int


@dataclass(frozen=True)
class SmartDesign:
    """A consistent design: construction raises ValueError("invalid design: ...") otherwise."""

    n_units: int
    arms: tuple[Stage1Arm, ...]
    paths: tuple[TreatmentPath, ...]
    regimes: tuple[Regime, ...]
    stage1_mode: Stage1Mode = Stage1Mode.BALANCED
    pi1_literal: bool = False

    def __post_init__(self):
        bad = []
        for p in self.paths:
            if not 0 <= p.arm < len(self.arms):
                bad.append(f"path {p.index + 1} references arm {p.arm + 1}")
            if len(p.mu) != self.n_units:
                bad.append(f"path {p.index + 1} mean vector has length {len(p.mu)}, "
                           f"expected {self.n_units}")
            if not all(np.isfinite(p.mu)):
                bad.append(f"path {p.index + 1} mean vector is not finite")
        for arm in self.arms:
            for label, declared, responder in (("responder", arm.n_resp_options, True),
                                               ("non-responder", arm.n_nonresp_options, False)):
                n = sum(1 for p in self.paths if p.arm == arm.index and p.responder == responder)
                if n != declared:
                    bad.append(f"arm {arm.index + 1} declares {declared} {label} options "
                               f"but has {n} {label} paths")
        for r in self.regimes:
            for label, idx, want_resp in (("responder", r.responder_path, True),
                                          ("non-responder", r.nonresp_path, False)):
                if not 0 <= idx < len(self.paths):
                    bad.append(f"regime {r.index + 1} references path {idx + 1}")
                    continue
                p = self.paths[idx]
                if p.responder != want_resp:
                    bad.append(f"regime {r.index + 1} uses path {idx + 1} as its {label} path "
                               f"but that path is {'responder' if p.responder else 'non-responder'}")
                if p.arm != r.arm:
                    bad.append(f"regime {r.index + 1} is on arm {r.arm + 1} but path {idx + 1} "
                               f"is on arm {p.arm + 1}")
        if bad:
            raise ValueError(f"invalid design: {'; '.join(bad)}")


def _arm_weight(arm: Stage1Arm, mode: Stage1Mode, literal_tail: bool) -> float:
    n_nr = 1 if literal_tail else arm.n_nonresp_options
    if mode is Stage1Mode.MAX:
        return float(max(arm.n_resp_options, n_nr))
    g = arm.response_rate
    return 1.0 / (g / arm.n_resp_options + (1.0 - g) / n_nr)


def stage1_probs(design: SmartDesign) -> np.ndarray:
    """Stage-1 allocation probability per arm (sums to 1)."""
    mode = design.stage1_mode
    if mode is Stage1Mode.EQUAL:
        n = len(design.arms)
        return np.full(n, 1.0 / n)
    w = np.array(
        [
            _arm_weight(arm, mode, design.pi1_literal and arm.index > 0)
            for arm in design.arms
        ]
    )
    return w / w.sum()


def stage2_prob(design: SmartDesign, path_index: int) -> float:
    """Stage-2 allocation probability of the given path (0-based)."""
    p = design.paths[path_index]
    arm = design.arms[p.arm]
    return 1.0 / arm.n_resp_options if p.responder else 1.0 / arm.n_nonresp_options


def path_tables(design: SmartDesign) -> dict[str, np.ndarray]:
    """Per-path vectors: p_st1, p_st2, res, ga, initr (initr is 1-based)."""
    pi1 = stage1_probs(design)
    p_st1 = np.array([pi1[p.arm] for p in design.paths])
    p_st2 = np.array([stage2_prob(design, p.index) for p in design.paths])
    res = np.array([1 if p.responder else 0 for p in design.paths])
    ga = np.array([design.arms[p.arm].response_rate for p in design.paths])
    initr = np.array([p.arm + 1 for p in design.paths])
    return {"p_st1": p_st1, "p_st2": p_st2, "res": res, "ga": ga, "initr": initr}


def path_probs(design: SmartDesign) -> np.ndarray:
    """Chance that a cluster follows each path: ``pi1 * (gamma or 1 - gamma) * pi2``."""
    t = path_tables(design)
    return t["p_st1"] * np.where(t["res"], t["ga"], 1.0 - t["ga"]) * t["p_st2"]


def ipw_path_weights(design: SmartDesign, regime: Regime) -> np.ndarray:
    """Per-path IPW weight of one regime: ``1/(pi1 pi2)`` on its two paths, 0 elsewhere."""
    pi1 = stage1_probs(design)[regime.arm]
    w = np.zeros(len(design.paths))
    for p in (regime.responder_path, regime.nonresp_path):
        w[p] = 1.0 / (pi1 * stage2_prob(design, p))
    return w


def regime_weights(design: SmartDesign, regime_ids, rule="regime ids are 0-based, below {n}"):
    """The ``ipw_path_weights`` rows of the 0-based ``regime_ids``, else ValueError(``rule``)."""
    if not all(0 <= r < len(design.regimes) for r in regime_ids):
        raise ValueError(rule.format(n=len(design.regimes)))
    return np.array([ipw_path_weights(design, design.regimes[r]) for r in regime_ids])


def contrast_weights(design: SmartDesign, regime_ids) -> np.ndarray:
    """Per-path weights c_1 of one regime or c_1 - c_2 of two distinct ones, else ValueError."""
    rule = "regime must list one or two regime numbers in 1..{n}"
    c = regime_weights(design, regime_ids, rule)
    if len(c) not in (1, 2):
        raise ValueError(rule.format(n=len(design.regimes)))
    if len(c) == 2 and regime_ids[0] == regime_ids[1]:
        raise ValueError("cannot compare a regime against itself")
    return np.subtract.reduce(c)  # c_1, or c_1 - c_2


def _require_whole(m: np.ndarray, name: str) -> None:
    """Raise ValueError unless every entry of ``m`` is a finite whole number (no truncation)."""
    if not np.all(np.isfinite(m) & (m == np.round(m))):
        raise ValueError(f"{name} must be whole numbers, got {m.tolist()}")


def design_from_matrices(
    mu: np.ndarray,
    st1: np.ndarray,
    dtr: np.ndarray,
    stage1_mode: Stage1Mode | str = Stage1Mode.BALANCED,
    pi1_literal: bool = False,
) -> SmartDesign:
    """Build a design from the (mu, st1, dtr) matrix triple (1-based ids in dtr)."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    st1 = np.atleast_2d(np.asarray(st1, dtype=float))
    dtr = np.atleast_2d(np.asarray(dtr, dtype=float))
    mode = Stage1Mode(stage1_mode)
    _require_whole(st1[:, :2], "st1 option counts")
    _require_whole(dtr[:, :4], "dtr ids")
    n_paths, n_ids = mu.shape[0], int(dtr[:, 1:3].max())
    if n_ids > n_paths:
        raise ValueError(f"mu has {n_paths} rows but the design has {n_ids} paths")
    arms = tuple(
        Stage1Arm(i, int(row[0]), int(row[1]), float(row[2])) for i, row in enumerate(st1)
    )
    # path -> (arm, responder) from the dtr rows, the responder column naming the
    # responder paths; SmartDesign rejects a path that two rows use differently
    kind = {int(row[col]) - 1: (int(row[3]) - 1, col == 1) for row in dtr for col in (1, 2)}
    missing = [i + 1 for i in range(n_paths) if i not in kind]
    if missing:
        raise ValueError(
            f"mu has {n_paths} rows but paths {missing} are not reachable from any dtr row"
        )
    paths = tuple(TreatmentPath(i, *kind[i], tuple(mu[i])) for i in range(n_paths))
    regimes = tuple(
        Regime(i, int(row[1]) - 1, int(row[2]) - 1, int(row[3]) - 1)
        for i, row in enumerate(dtr)
    )
    return SmartDesign(mu.shape[1], arms, paths, regimes, mode, pi1_literal)


def periodontitis_matrices(
    gamma1: float = 0.25, gamma2: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """(st1, dtr) of the built-in two-arm design: 10 paths, 8 regimes.

    Arm 1 (e.g. scaling/root planing) and arm 2 (e.g. laser) each keep
    responders on the initial treatment (1 option) and re-randomize
    non-responders over 4 adjunct options.  Path order: arm-1 responder,
    arm-1 non-responders x4, arm-2 responder, arm-2 non-responders x4.
    """
    st1 = np.array([[1, 4, gamma1, 1], [1, 4, gamma2, 2]])
    dtr = np.column_stack(
        [
            np.arange(1, 9),
            np.repeat([1, 6], 4),
            np.array([2, 3, 4, 5, 7, 8, 9, 10]),
            np.repeat([1, 2], 4),
        ]
    )
    return st1, dtr


def periodontitis_default(
    gamma1: float = 0.25,
    gamma2: float = 0.5,
    mu: np.ndarray | None = None,
    n_units: int = 28,
    stage1_mode: Stage1Mode | str = Stage1Mode.BALANCED,
    pi1_literal: bool = False,
) -> SmartDesign:
    """The built-in design of ``periodontitis_matrices``, with path means ``mu`` (0 if None)."""
    if mu is None:
        mu = np.zeros((10, n_units))
    return design_from_matrices(mu, *periodontitis_matrices(gamma1, gamma2), stage1_mode,
                                pi1_literal)
