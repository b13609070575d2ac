"""Vectorized Monte-Carlo trial engine shared by calibration and the sweeps.

Seed splitting: every (sf, beta, snr) evaluation owns an independent Philox
stream derived from SeedSequence([master_seed, stream_tag, sf, beta_milli,
snr_centi_db + SNR_OFFSET]). The key depends only on the evaluation's
parameters, never on visit order, so bisection paths and row order cannot
change results and any single CSV row is reproducible on its own.
"""
from __future__ import annotations

import numpy as np

from .channel import add_noise
from .chirps import LoraParams, ReductionFactor, _base_ramp
from .modem import _window_spectra, bit_errors, decide_symbols

# Stream tags decouple experiments that share a master seed.
TAG_PEAK = 0
TAG_BER = 1
TAG_CALIBRATION = 2

SNR_OFFSET = 1 << 24  # keeps the snr entropy word non-negative
_CHUNK = 8192


def derive_rng(master_seed: int, tag: int, sf: int, beta: float, snr_db: float) -> np.random.Generator:
    """Philox generator for one (sf, beta, snr) evaluation under a master seed."""
    entropy = [int(master_seed), int(tag), int(sf), round(beta * 1000), round(snr_db * 100) + SNR_OFFSET]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _trial_chunks(params: LoraParams, rf: ReductionFactor, snr_db: float, trials: int,
                  master_seed: int, tag: int, receive):
    """Yield (sent, receive(windows, params)) per chunk of at most _CHUNK trials.

    sent holds random symbols and windows their m-sample chirps plus AWGN,
    drawn from the evaluation's own stream (symbols, then noise, per chunk),
    so results depend only on the seed and the fixed chunk size. Only the
    receiver's output leaves the generator: a chunk's noisy windows are freed
    before the next chunk is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = derive_rng(master_seed, tag, params.sf, rf.beta, snr_db)
    ramp = _base_ramp(params.n)
    shifts = np.arange(rf.m(params))[None, :]
    for done in range(0, trials, _CHUNK):
        sent = rng.integers(0, params.n, min(_CHUNK, trials - done))
        yield sent, receive(add_noise(ramp[(shifts + sent[:, None]) % params.n], snr_db, rng), params)


def run_error_trials(params: LoraParams, rf: ReductionFactor, snr_db: float, trials: int,
                     master_seed: int, tag: int = TAG_BER) -> tuple[float, float]:
    """Transmit random symbols through AWGN and return (ser, ber).

    BER uses the natural-binary mapping, sf bits per symbol.
    """
    sym_errs = 0
    biterrs = 0
    for sent, decided in _trial_chunks(params, rf, snr_db, trials, master_seed, tag, decide_symbols):
        sym_errs += int((decided != sent).sum())
        biterrs += bit_errors(sent, decided, params.sf)
    return sym_errs / trials, biterrs / (trials * params.sf)


def symbol_error_rate(params: LoraParams, rf: ReductionFactor, snr_db: float, trials: int,
                      master_seed: int, tag: int = TAG_CALIBRATION) -> float:
    """Symbol error rate over `trials` random symbols; deterministic given the seed."""
    ser, _ = run_error_trials(params, rf, snr_db, trials, master_seed, tag)
    return ser


def peak_statistics(params: LoraParams, rf: ReductionFactor, snr_db: float, trials: int,
                    master_seed: int) -> tuple[float, np.ndarray]:
    """Mean transform-peak magnitude over trials, plus trial 0's full bin magnitudes."""
    peak_sum = 0.0
    first_bins = None
    for _, mags in _trial_chunks(params, rf, snr_db, trials, master_seed, TAG_PEAK, _window_spectra):
        if first_bins is None:
            first_bins = mags[0].copy()
        peak_sum += float(mags.max(axis=1).sum())
    return peak_sum / trials, first_bins
