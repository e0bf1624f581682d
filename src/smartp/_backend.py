"""The brute-force reference kernel for cluster outcomes, vectorized in numpy.

``ybar_and_count`` forms the spatial effect ``q = zq @ chol.T`` and
averages ``mu + q + e1`` over the sub-units whose probit index
``a0 + b0*q + sigma0*e0`` is at most ``cutoff``.  No runtime path calls it:
the moments pass and the trials draw the index alone and integrate or draw
q given it (``moments._simulate_ybar``).  Tests compare against it.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def ybar_and_count(zq, e0, e1, chol, mu, a0, b0, sigma0, cutoff):
    """Mean outcome over available sub-units, one row per cluster.

    ``zq``/``e0``/``e1`` are (n, T) standard draws; ``chol`` is the lower
    Cholesky factor of the spatial covariance; ``mu`` is the (n, T) mean.
    Returns (ybar, n_avail); ybar is NaN where no sub-unit is available.
    """
    q = zq @ chol.T
    avail = (a0 + b0 * q + sigma0 * e0) <= cutoff
    n_avail = avail.sum(axis=1)
    with np.errstate(invalid="ignore"):
        ybar = np.where(avail, mu + (q + e1), 0.0).sum(axis=1) / n_avail
    return ybar, n_avail
