"""Pilot-based ML estimation of the compound channel and the SNR.

The destination sees y[t] = hbar_c * p[t] + u[t] over a known pilot block,
where hbar_c is the scalar compound channel under the weights active during
that block.  The pilots are all ones, so the ML channel estimate, the
pilot-matched correlation sum(y p*)/sum(|p|^2), is the sample mean of y; the
SNR estimate follows from it and from the residual.  Both work on the last
(symbol) axis and broadcast over the leading ones; a single block is the
batch with no leading axes.
"""

from __future__ import annotations

import numpy as np

SNR_MAX = 1e12
RESIDUAL_FLOOR = 1e-30


def _channel_estimate(observations):
    """ML estimate on all-ones pilots, the mean of y; linear in y."""
    return np.mean(observations, axis=-1)


def _snr_estimate(h_hat, observations):
    """SNR estimate |h_hat|^2 / mean residual power |y - h_hat|^2.

    A residual sum below 1e-30 (noiseless pilots) gives the cap SNR_MAX
    instead of dividing by zero.
    """
    h_hat = np.asarray(h_hat)
    resid = np.sum(np.abs(observations - h_hat[..., None]) ** 2, axis=-1)
    safe = np.where(resid < RESIDUAL_FLOOR, 1.0, resid)
    snr = np.abs(h_hat) ** 2 / (safe / observations.shape[-1])
    return np.where(resid < RESIDUAL_FLOOR, SNR_MAX, snr)
