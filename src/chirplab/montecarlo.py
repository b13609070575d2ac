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
independent Philox stream derived from SeedSequence([master_seed, stream_tag,
sf, beta_milli]). The SNR is not in the key: each chunk draws unit-variance
noise once and every SNR point scales that same noise, so a row does not
depend on which other SNRs were requested, and one pass over a stream scores
any number of SNR points (the calibration search scores a block of its grid
per pass). Chunks hold max(1, 2**17 // n) trials, so one complex array is
2 MB at every sf; the chunk size is part of the stream (STREAM_VERSION).
"""
from __future__ import annotations

import math

import numpy as np

from .channel import noise_scale
from .chirps import LoraParams, ReductionFactor
from .modem import bit_errors

# the engine calls none of these; perfbench/tracer.py wraps them under these names
from .channel import add_noise  # noqa: F401
from .chirps import _base_ramp  # noqa: F401
from .modem import decide_symbols  # noqa: F401

# Version of the mapping from (seed, parameters) to output bytes; written in every CSV.
STREAM_VERSION = 2

# Stream tags decouple experiments that share a master seed.
TAG_PEAK = 0
TAG_BER = 1
TAG_CALIBRATION = 2

_CHUNK_SAMPLES = 1 << 17


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
    """Philox generator for one (sf, beta) evaluation under a master seed and stream tag."""
    entropy = [int(master_seed), int(tag), int(sf), round(beta * 1000)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _received(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int, master_seed: int, tag: int):
    """Yield (i, sent, mags) per chunk of at most max(1, 2**17 // n) trials and per SNR point snrs_db[i].

    sent holds random symbols, and mags the bin magnitudes |S + sigma * W|
    with S the dechirped symbol 0 (the n-point transform of m ones), W the
    transforms of m samples of unit-variance complex noise (variance 1 per
    component), one row per trial, and sigma^2 = 10**(-snr_db/10) / 2 per
    component. Each chunk draws symbols, then noise, from the evaluation's
    own stream, so results depend only on the seed and the fixed chunk size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
