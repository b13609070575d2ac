"""The Monte-Carlo trial engine against the analytic beta = 1 symbol error rate and the gathered-chirp engine."""
from math import comb

import numpy as np
import pytest

from chirplab.chirps import LoraParams, ReductionFactor
from chirplab.montecarlo import TAG_CALIBRATION, peak_statistics, run_error_trials, symbol_error_rate

from oracles import analytic_ser, gathered_trials

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
    [(ser, _)] = run_error_trials(LoraParams(sf=7, bw=125e3), ReductionFactor(1.0), [snr_db], trials, master_seed=7)
    expected = analytic_ser(7, snr_db)
    assert abs(ser - expected) <= Z_999 * np.sqrt(expected * (1.0 - expected) / trials), (ser, expected)


@pytest.mark.parametrize("sf, beta, snr_db", [(7, 1.0, -9.0), (7, 0.5, -5.0), (9, 0.75, -13.0), (10, 0.625, -15.0)])
def test_symbol_errors_match_gathered_engine(sf, beta, snr_db):
    params, rf, trials = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta), 20_000
    [(ser, _)] = run_error_trials(params, rf, [snr_db], trials, master_seed=1)
    errors = round(ser * trials)
    oracle_errors, _ = gathered_trials(params, rf, snr_db, trials, np.random.default_rng(2))
    pooled = (errors + oracle_errors) / (2 * trials)
    z = (errors - oracle_errors) / trials / np.sqrt(pooled * (1.0 - pooled) * 2 / trials)
    assert abs(z) <= Z_999, (errors, oracle_errors)


def test_mean_peak_matches_gathered_engine():
    params, rf, snr_db, trials = LoraParams(sf=7, bw=125e3), ReductionFactor(0.875), 0.0, 20_000
    [(mean_peak, _)] = peak_statistics(params, rf, [snr_db], trials, master_seed=1)
    _, peaks = gathered_trials(params, rf, snr_db, trials, np.random.default_rng(2))
    z = (mean_peak - peaks.mean()) / (peaks.std() * np.sqrt(2 / trials))
    assert abs(z) <= Z_999, (mean_peak, peaks.mean())


def test_symbol_error_rate_per_point_ignores_its_companions():
    # calibration scores a block of grid points per pass; each SER must equal that point scored alone
    params, rf, snrs, trials = LoraParams(sf=7, bw=125e3), ReductionFactor(0.75), [-9.0, -7.5, -6.0], 3000
    sers = symbol_error_rate(params, rf, snrs, trials, 4)
    assert sers == [symbol_error_rate(params, rf, [snr_db], trials, 4)[0] for snr_db in snrs]
    assert sers == [ser for ser, _ in run_error_trials(params, rf, snrs, trials, 4, TAG_CALIBRATION)]
    assert sers[0] > sers[-1]
