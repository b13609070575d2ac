"""The Monte-Carlo trial engine against the analytic beta = 1 symbol error rate."""
from math import comb

import numpy as np
import pytest

from chirplab.chirps import LoraParams, ReductionFactor
from chirplab.montecarlo import run_error_trials

from oracles import analytic_ser

Z_999 = 3.2905  # two-sided 99.9% standard normal quantile


@pytest.mark.parametrize("sf", [2, 3, 4])
@pytest.mark.parametrize("snr_db", [-6.0, 0.0])
def test_quadrature_matches_closed_form_for_small_n(sf, snr_db):
    # the alternating closed form of noncoherent orthogonal detection; it
    # cancels catastrophically at LoRa sizes, but is exact for a few bins
    n = 1 << sf
    es_n0 = n * 10.0 ** (snr_db / 10.0)
    closed = sum((-1) ** (k + 1) * comb(n - 1, k) / (k + 1) * np.exp(-k / (k + 1) * es_n0)
                 for k in range(1, n))
    assert analytic_ser(sf, snr_db) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("snr_db", [-10.0, -9.0, -8.0])
def test_beta_one_ser_within_binomial_interval(snr_db):
    trials = 50_000
    ser, _ = run_error_trials(LoraParams(sf=7, bw=125e3), ReductionFactor(1.0), snr_db, trials, master_seed=7)
    expected = analytic_ser(7, snr_db)
    assert abs(ser - expected) <= Z_999 * np.sqrt(expected * (1.0 - expected) / trials), (ser, expected)
