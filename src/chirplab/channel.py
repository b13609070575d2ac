"""AWGN channel impairment and link-SNR estimation.

SNR convention: per complex sample over the full bandwidth. Generated chirps
have unit power, so noise variance is sigma^2 = 10**(-snr_db/10) per sample
(sigma^2/2 in each of I and Q). Noise streams come from NumPy's Philox
counter-based generator keyed by the config seed, so the same seed always
reproduces the same waveform.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .chirps import IqBuffer
from .modem import DemodResult

# Lowest SNR whose noise a capture or a trial spectrum can hold: its scale is 7.1e14, so float32
# samples (max 3.4e38) and the n-point transforms of the trial engine stay far from overflow.
MIN_SNR_DB = -300.0


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it is an integer >= 0 (SeedSequence takes no negative entropy)."""
    if not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class ChannelConfig:
    """Per-sample SNR in dB plus the seed that fully determines the noise.

    snr_db = inf means noiseless; an SNR noise_scale rejects or a seed check_seed rejects raises ValueError.
    """

    snr_db: float
    seed: int

    def __post_init__(self):
        noise_scale(self.snr_db)
        check_seed(self.seed)


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


def snr_estimate(results: list[DemodResult]) -> float:
    """Median per-symbol peak-over-floor SNR estimate in dB; NaN if any estimate is NaN, as np.median gives."""
    if not results:
        raise ValueError("cannot estimate SNR from an empty result sequence")
    values = sorted(r.snr_estimate_db for r in results)
    if any(map(math.isnan, values)):
        return math.nan
    mid = len(values) // 2
    # np.median's mean of the two middle values: their sum over 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
