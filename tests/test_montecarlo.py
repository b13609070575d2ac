"""The Monte-Carlo trial engine against analytic symbol error rates and the gathered-chirp engine."""
from math import comb, erfc, log, sqrt

import numpy as np
import pytest

from chirplab import montecarlo
from chirplab.chirps import BETA_TABLE, LoraParams, ReductionFactor
from chirplab.montecarlo import TAG_CALIBRATION, peak_statistics, run_error_trials, symbol_error_rate

from oracles import (
    analytic_ser,
    gathered_trials,
    log_i0,
    marcum_q1,
    orthogonal_subset_ser,
    pairwise_errors,
    union_bound_ber,
    union_bound_ser,
)

Z_999 = 3.2905  # two-sided 99.9% standard normal quantile
TAIL_Z4 = erfc(4.0 / sqrt(2.0)) / 2.0  # P(Z >= 4) for a standard normal Z


def binomial_tails(errors: int, trials: int, p: float) -> tuple[float, float]:
    """(P(X <= errors), P(X >= errors)) for X ~ Binomial(trials, p), summed exactly in log space."""
    k = np.arange(trials + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, trials + 1)))))
    pmf = np.exp(log_fact[-1] - log_fact - log_fact[::-1] + k * np.log(p) + (trials - k) * np.log1p(-p))
    return float(pmf[: errors + 1].sum()), float(pmf[errors:].sum())


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


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.5, 4.0), (0.5, 6.0)])
def test_marcum_q1_matches_rician_tail(a, b):
    # Q1(a, b) is the tail beyond b of the Rician density x exp(-(x^2 + a^2) / 2) I0(a x)
    # (the density is below 1e-30 past a + 12)
    x = np.linspace(b, b + a + 12.0, 10_001)
    tail = np.trapezoid(x * np.exp(-(x * x + a * a) / 2.0 + log_i0(a * x)), x)
    assert marcum_q1(a, b) == pytest.approx(tail, rel=1e-5)


@pytest.mark.parametrize("sf", [7, 8, 9])
@pytest.mark.parametrize("beta", BETA_TABLE)
def test_symbol_error_rate_within_analytic_bounds(sf, beta):
    # the union bound falls through [1e-4, 1e-1] inside this window at every beta, moving about
    # 3 dB per sf; a one-sided z of at most 4 is taken on the exact binomial tail, since the
    # lowest points expect only a few errors
    params, rf, trials = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta), (1 << 21) >> sf
    window = np.arange(-9.0, -1.0) - 3.0 * (sf - 7)
    points = [(snr_db, union_bound_ser(sf, beta, snr_db)) for snr_db in window]
    points = [(snr_db, upper) for snr_db, upper in points if 1e-4 <= upper <= 1e-1]
    assert len(points) >= 2
    sers = symbol_error_rate(params, rf, [snr_db for snr_db, _ in points], trials, 1)
    for (snr_db, upper), ser in zip(points, sers):
        errors = round(ser * trials)
        lower = orthogonal_subset_ser(sf, beta, snr_db)
        assert binomial_tails(errors, trials, upper)[1] >= TAIL_Z4, (snr_db, ser, upper)
        assert binomial_tails(errors, trials, lower)[0] >= TAIL_Z4, (snr_db, ser, lower)


def chernoff_tail(mean: float, trials: int, p: float) -> float:
    """Bound on P(average >= mean) for `trials` independent variables in [0, 1] whose means are at most p.

    That is exp(-trials KL(mean || p)) for mean > p (Hoeffding 1963, Theorem 1), and 1 otherwise.
    """
    if mean <= p:
        return 1.0
    kl = mean * log(mean / p) + ((1.0 - mean) * log((1.0 - mean) / (1.0 - p)) if mean < 1.0 else 0.0)
    return float(np.exp(-trials * kl))


@pytest.mark.parametrize("sf", [7, 9])
@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_pairwise_errors_sum_to_union_bound(sf, beta):
    for snr_db in (-12.0, -6.0, -2.0):
        assert pairwise_errors(sf, beta, snr_db).sum() == pytest.approx(union_bound_ser(sf, beta, snr_db), rel=1e-9)


@pytest.mark.parametrize("sf", [7, 8, 9])
@pytest.mark.parametrize("beta", BETA_TABLE)
def test_bit_error_rate_within_analytic_bound(sf, beta):
    # the SNR points of the SER test above; each trial's share of wrong bits lies in [0, 1], so a one-sided
    # tail of at most P(Z >= 4) is taken on the Chernoff bound, which holds for any such trials
    params, rf, trials = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta), (1 << 21) >> sf
    window = np.arange(-9.0, -1.0) - 3.0 * (sf - 7)
    snrs = [snr_db for snr_db in window if 1e-4 <= union_bound_ser(sf, beta, snr_db) <= 1e-1]
    assert len(snrs) >= 2
    for snr_db, (_, ber) in zip(snrs, run_error_trials(params, rf, snrs, trials, 1)):
        upper = union_bound_ber(sf, beta, snr_db)
        assert chernoff_tail(ber, trials, upper) >= TAIL_Z4, (snr_db, ber, upper)


@pytest.mark.parametrize("trials", [0, -3, 2.5, 2000.0])
def test_engine_rejects_what_check_integer_rejects(trials):
    # a float count used to pass the engine's own check and die in range() with a bare TypeError
    with pytest.raises(ValueError, match="trials must be"):
        run_error_trials(LoraParams(sf=7, bw=125e3), ReductionFactor(1.0), [0.0], trials, 1)


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


@pytest.mark.parametrize("seed", [-1, 1.7, 1.0])
def test_derive_rng_rejects_what_check_integer_rejects(seed):
    # a truncated 1.7 would draw seed 1's stream under another seed's name
    with pytest.raises(ValueError, match="seed must be"):
        montecarlo.derive_rng(seed, TAG_CALIBRATION, 7, 1.0)


def test_symbol_error_rate_per_point_ignores_its_companions(monkeypatch):
    # calibration scores a block of grid points per pass; each SER must equal that point scored alone
    params, rf, snrs, trials = LoraParams(sf=7, bw=125e3), ReductionFactor(0.75), [-9.0, -7.5, -6.0], 3000
    sers = symbol_error_rate(params, rf, snrs, trials, 4)
    assert sers == [symbol_error_rate(params, rf, [snr_db], trials, 4)[0] for snr_db in snrs]
    # the SER-only fold counts what the SER/BER fold counts, on the same stream
    monkeypatch.setattr(montecarlo, "TAG_BER", TAG_CALIBRATION)
    assert sers == [ser for ser, _ in run_error_trials(params, rf, snrs, trials, 4)]
    assert sers[0] > sers[-1]
