"""The cluster-outcome kernel, vectorized in numpy.

Given standard normal draws for the latent spatial effect (``zq``, turned
into ``q = zq @ chol.T``) and for the missingness residual (``e0``), a
sub-unit is available when its probit index ``a0 + b0*q + sigma0*e0`` is
at most ``cutoff``; ``_mask_and_q`` gives that mask and q.  The trial
simulator averages the outcome ``mu + q + e1``, with ``e1`` the
pre-sampled outcome error, over each cluster's available sub-units with
``ybar_and_count``.  The moments pass uses the mask and q alone and adds
the outcome error's exact moments.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def _mask_and_q(zq, e0, chol, a0, b0, sigma0, cutoff):
    """(n, T) availability mask and spatial effect ``q``."""
    q = zq @ chol.T
    return (a0 + b0 * q + sigma0 * e0) <= cutoff, q


def ybar_and_count(zq, e0, e1, chol, mu, a0, b0, sigma0, cutoff):
    """Mean outcome over available sub-units, one row per cluster.

    ``zq``/``e0``/``e1`` are (n, T) standard draws; ``chol`` is the lower
    Cholesky factor of the spatial covariance; ``mu`` is the (n, T) mean.
    Returns (ybar, n_avail); ybar is NaN where no sub-unit is available.
    """
    avail, q = _mask_and_q(zq, e0, chol, a0, b0, sigma0, cutoff)
    n_avail = avail.sum(axis=1)
    with np.errstate(invalid="ignore"):
        ybar = np.where(avail, mu + (q + e1), 0.0).sum(axis=1) / n_avail
    return ybar, n_avail
