"""AWGN channel impairment and link-SNR estimation.

SNR convention: per complex sample over the full bandwidth. Generated chirps
have unit power, so noise variance is sigma^2 = 10**(-snr_db/10) per sample
(sigma^2/2 in each of I and Q). Noise streams come from NumPy's Philox
counter-based generator keyed by the config seed, so the same seed always
reproduces the same waveform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chirps import IqBuffer, check_integer
from .modem import DemodResult

# Lowest SNR whose noise a capture or a trial spectrum can hold: its scale is 7.1e14, so float32
# samples (max 3.4e38) and the n-point transforms of the trial engine stay far from overflow.
MIN_SNR_DB = -300.0


@dataclass(frozen=True)
class ChannelConfig:
    """Per-sample SNR in dB plus the seed that fully determines the noise.

    snr_db = inf means noiseless; an SNR noise_scale rejects, or a seed that is not an integer >= 0
    (SeedSequence takes no negative entropy), raises ValueError.
    """

    snr_db: float
    seed: int

    def __post_init__(self):
        noise_scale(self.snr_db)
        check_integer("seed", self.seed, 0)


def noise_scale(snr_db: float) -> float:
    """Per-component noise deviation 10**(-snr_db/20) / sqrt(2).

    ValueError unless it is a finite number and snr_db is at least MIN_SNR_DB.
    """
    try:
        scale = 10.0 ** (-float(snr_db) / 20.0) / math.sqrt(2.0)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"SNR {snr_db} dB gives a noise scale that is not a finite number")
    if snr_db < MIN_SNR_DB:
        raise ValueError(f"SNR {snr_db} dB is below the {MIN_SNR_DB} dB floor, past which noise can overflow")
    return scale


def add_noise(samples: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise from an existing generator."""
    scale = noise_scale(snr_db)
    noise = rng.standard_normal(samples.shape) * scale + 1j * rng.standard_normal(samples.shape) * scale
    return samples + noise


def awgn(buf: IqBuffer, cfg: ChannelConfig) -> IqBuffer:
    """Impair a buffer with AWGN at cfg.snr_db; deterministic given cfg.seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    return IqBuffer(add_noise(buf.samples, cfg.snr_db, rng), buf.sample_rate)


def snr_estimate(result: DemodResult) -> float:
    """Median over a demodulation record's windows of the peak-over-floor SNR in dB; ValueError if it has none."""
    if not len(result):
        raise ValueError("cannot estimate SNR from an empty demodulation record")
    return float(np.median(result.snr_db))
