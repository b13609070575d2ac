"""Vectorized Monte-Carlo trial engine shared by calibration and the sweeps.

Bin-0 model: the downchirp has unit modulus, so dechirping leaves AWGN white
and circular, and a cyclic shift by symbol k only rotates the transform bins
by k. So a trial needs only the n-point transform of an m-sample window of
ones (a tone at bin 0) plus transformed noise: its winning offset e is the
argmax bin, it errs when e != 0, and a sent symbol k is decided as
(k + e) mod n. The mean peak is rotation-invariant, and trial 0's spectrum is
reported rotated to bin 0.

The SNR is per sample over the full band at one sample per chip, so sf, beta
and the SNR fix every result here: the bandwidth only names the sample rate,
and any valid LoraParams bandwidth gives the same bytes.

Seed splitting: every (sf, beta) evaluation under a stream tag owns an
independent SFC64 stream derived from SeedSequence([master_seed, stream_tag,
sf, beta_milli]). The SNR is not in the key: each chunk draws unit-variance
noise once and every SNR point scales that same noise, so a row does not
depend on which other SNRs were requested, and one pass over a stream scores
any number of SNR points (the calibration search scores a block of its grid
per pass). Chunks hold max(1, 2**15 // n) trials (256 at sf 7, 32 at sf 10,
8 at sf 12), so one complex array is 512 KB at every sf; the chunk size is
part of the stream (STREAM_VERSION).
"""
from __future__ import annotations

import math

import numpy as np

from .channel import noise_scale
from .chirps import LoraParams, ReductionFactor, check_integer
from .modem import bit_errors

# the engine calls none of these; perfbench/tracer.py wraps them under these names
from .channel import add_noise  # noqa: F401
from .chirps import _base_ramp  # noqa: F401
from .modem import decide_symbols  # noqa: F401

# Version of the mapping from (seed, parameters) to output bytes; written in every CSV.
STREAM_VERSION = 3

# Stream tags decouple experiments that share a master seed.
TAG_PEAK = 0
TAG_BER = 1
TAG_CALIBRATION = 2

_CHUNK_SAMPLES = 1 << 15


def snr_grid(start_db: float, stop_db: float, step_db: float) -> list[float]:
    """The SNR points start + k * step, k = 0, 1, ..., up to stop with 1e-9 dB of slack.

    Sweeps and calibration share this grid. Raises ValueError unless all
    three values are finite, step > 0 and stop >= start.
    """
    if not (all(map(math.isfinite, (start_db, stop_db, step_db))) and step_db > 0 and stop_db >= start_db):
        raise ValueError(f"an SNR grid needs finite values with step > 0 and stop >= start, "
                         f"got start {start_db}, stop {stop_db}, step {step_db}")
    points = []
    while (snr_db := start_db + len(points) * step_db) <= stop_db + 1e-9:
        points.append(snr_db)
    return points


def derive_rng(master_seed: int, tag: int, sf: int, beta: float) -> np.random.Generator:
    """SFC64 generator for one (sf, beta) evaluation under a master seed (an integer >= 0) and stream tag."""
    entropy = [check_integer("seed", master_seed, 0), int(tag), int(sf), round(beta * 1000)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def _received(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int, master_seed: int, tag: int):
    """Yield (i, sent, mags) per chunk of at most max(1, 2**15 // n) trials and per SNR point snrs_db[i].

    sent holds random symbols, and mags the bin magnitudes |S + sigma * W|
    with S the dechirped symbol 0 (the n-point transform of m ones), W the
    transforms of m samples of unit-variance complex noise (variance 1 per
    component), one row per trial, and sigma^2 = 10**(-snr_db/10) / 2 per
    component. Each chunk draws symbols, then noise, from the evaluation's
    own stream, so results depend only on the seed and the fixed chunk size.
    """
    trials = check_integer("trials", trials, 1)
    scales = [noise_scale(snr_db) for snr_db in snrs_db]
    rng = derive_rng(master_seed, tag, params.sf, rf.beta)
    n, m = params.n, rf.m(params)
    tone = np.fft.fft(np.ones(m), n=n)
    chunk = max(1, _CHUNK_SAMPLES // n)
    for done in range(0, trials, chunk):
        count = min(chunk, trials - done)
        sent = rng.integers(0, n, count)
        noise = np.fft.fft(rng.standard_normal((count, m, 2)).view(np.complex128)[..., 0], n=n, axis=1)
        for i, scale in enumerate(scales):
            spectra = noise * scale
            spectra += tone
            mags = np.abs(spectra)
            del spectra  # held across the yield, it slowed sf 10 trials about 10% (2-vCPU x86 VM)
            yield i, sent, mags


def run_error_trials(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int,
                     master_seed: int) -> list[tuple[float, float]]:
    """Transmit random symbols through AWGN and return one (ser, ber) per SNR in snrs_db.

    Every SNR point scales the same noise draw. BER uses the natural-binary
    mapping, sf bits per symbol.
    """
    sym_errs = [0] * len(snrs_db)
    biterrs = [0] * len(snrs_db)
    for i, sent, mags in _received(params, rf, snrs_db, trials, master_seed, TAG_BER):
        offset = mags.argmax(axis=1)
        sym_errs[i] += int(np.count_nonzero(offset))
        biterrs[i] += bit_errors(sent, (sent + offset) % params.n, params.sf)
    return [(errs / trials, bits / (trials * params.sf)) for errs, bits in zip(sym_errs, biterrs)]


def symbol_error_rate(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int,
                      master_seed: int) -> list[float]:
    """One symbol error rate per SNR in snrs_db over `trials` random symbols on the calibration stream.

    Every SNR point scales the same noise draw, so each rate depends only on
    the seed and its own SNR, not on which other points share the call.
    """
    sym_errs = [0] * len(snrs_db)
    for i, _, mags in _received(params, rf, snrs_db, trials, master_seed, TAG_CALIBRATION):
        sym_errs[i] += int(np.count_nonzero(mags.argmax(axis=1)))
    return [errs / trials for errs in sym_errs]


def peak_statistics(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int,
                    master_seed: int) -> list[tuple[float, np.ndarray]]:
    """One (mean transform-peak magnitude over trials, trial 0's bin magnitudes rotated to bin 0) per SNR in snrs_db.

    Every SNR point scales the same noise draw.
    """
    peak_sums = [0.0] * len(snrs_db)
    first_bins = [None] * len(snrs_db)
    for i, _, mags in _received(params, rf, snrs_db, trials, master_seed, TAG_PEAK):
        if first_bins[i] is None:
            first_bins[i] = mags[0].copy()
        peak_sums[i] += float(mags.max(axis=1).sum())
    return [(peak_sum / trials, bins) for peak_sum, bins in zip(peak_sums, first_bins)]


# Analytic union bound on the SER. It shares no code with the trial engine, which the tests
# check against it; calibration only uses it to predict where to search.
def _half_turn(points: int = 513):
    """Nodes on [0, pi] and trapezoid weights that average over them.

    The trapezoid rule is spectrally accurate for a smooth periodic integrand,
    and every integrand here is a smooth even function of cos t.
    """
    t = np.linspace(0.0, np.pi, points)
    weights = np.full(points, 1.0 / (points - 1))
    weights[[0, -1]] /= 2
    return t, weights


def log_i0(z: np.ndarray) -> np.ndarray:
    """log I0(z) for z >= 0, as z + log((1/pi) * integral over [0, pi] of exp(z (cos t - 1)) dt).

    The integrand is at most 1, so nothing overflows.
    """
    t, weights = _half_turn()
    return z + np.log(np.exp(np.multiply.outer(z, np.cos(t) - 1.0)) @ weights)


def marcum_q1(a, b) -> np.ndarray:
    """Marcum Q1(a, b) for 0 <= a < b, elementwise.

    With z = a / b and d(t) = 1 - 2 z cos t + z^2, Q1(a, b) is
    (1/pi) * integral over [0, pi] of (1 - z cos t) / d(t) exp(-b^2 d(t) / 2) dt
    (Simon & Alouini, Digital Communication over Fading Channels, 4.2).
    """
    t, weights = _half_turn()
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    z = a / b
    d = 1.0 - 2.0 * z * np.cos(t) + z * z
    return ((1.0 - z * np.cos(t)) / d * np.exp(-b * b * d / 2.0)) @ weights


def union_bound_ser(sf: int, beta: float, snr_db: float) -> float:
    """Union upper bound on the symbol error rate of dechirp-and-argmax detection of m = beta n samples.

    Dechirped symbol 0 is m ones, zero-padded to n; it leaks into bin k with
    the correlation rho_k = (1/m) sum over j < m of exp(-2 pi i j k / n), and
    the noise of bins 0 and k has the same correlation (Elshabrawy & Robert,
    IEEE Comm. Letters 2018, on truncated-symbol leakage). So bin k beats
    bin 0 with the noncoherent error of two correlated equal-energy signals
    (Proakis, Digital Communications, 5.4) at es_n0 = g = m 10^(snr/10):
    Q1(a, b) - exp(-(a^2 + b^2) / 2) I0(a b) / 2, with
    a, b = sqrt(g / 2 (1 -+ sqrt(1 - |rho_k|^2))). The bound sums it over k != 0.
    """
    n = 1 << sf
    m = round(beta * n)
    es_n0 = m * 10.0 ** (snr_db / 10.0)
    # |rho_k| = |rho_(n-k)|, and many bins share a value: score each value once
    rho, count = np.unique(np.round(np.abs(np.fft.fft(np.ones(m), n=n)[1:]) / m, 12), return_counts=True)
    root = np.sqrt(1.0 - rho * rho)
    a, b = np.sqrt(es_n0 / 2.0 * (1.0 - root)), np.sqrt(es_n0 / 2.0 * (1.0 + root))
    pairwise = marcum_q1(a, b) - 0.5 * np.exp(log_i0(a * b) - (a * a + b * b) / 2.0)
    return float(count @ pairwise)
