"""Symbol modulation and dechirp/FFT-peak demodulation.

Dechirping multiplies a received window by the conjugate base chirp, turning
symbol k into a tone at FFT bin k. Truncated windows (reduced symbol period)
are zero-padded to n bins before the transform so the bin-to-symbol map is
independent of the reduction factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chirps import IqBuffer, LoraParams, ReductionFactor, _base_ramp, _symbol_values, check_integer

# Floor clamp of the peak-over-floor ratio; keeps it finite when the non-peak
# bins are numerically zero (noiseless input).
NOISE_FLOOR_MIN = 1e-12


class LengthMismatchError(ValueError):
    """A buffer or file does not contain the number of samples implied by its parameters."""


@dataclass(frozen=True, eq=False)
class DemodResult:
    """One demodulation record: aligned 1-D columns, one entry per window; len() is the window count."""

    symbols: np.ndarray
    peaks: np.ndarray
    floors: np.ndarray
    snr_db: np.ndarray

    def __len__(self) -> int:
        return len(self.symbols)


def modulate(symbols, params: LoraParams, rf: ReductionFactor) -> IqBuffer:
    """Concatenate the first m samples of the shifted upchirp for each symbol.

    ValueError unless every symbol is an integer in [0, n); an integral float such as 7.0 counts as 7.
    """
    n = params.n
    symbols = _symbol_values(symbols, n)
    rows = _base_ramp(n)[(np.arange(rf.m(params))[None, :] + symbols[:, None]) % n]
    return IqBuffer(rows.reshape(-1), params.bw)


def _window_spectra(windows: np.ndarray, params: LoraParams) -> np.ndarray:
    """The one dechirp-and-transform, for a (count, m) block of symbol windows, m <= n.

    Each row times the leading m base-downchirp samples, zero-padded to n:
    the (count, n) transform magnitudes.
    """
    m = windows.shape[1]
    down = np.conj(_base_ramp(params.n)[:m])
    return np.abs(np.fft.fft(windows * down[None, :], n=params.n, axis=1))


# No caller in src/: it stays only because perfbench/tracer.py wraps montecarlo.decide_symbols (ROADMAP item 8).
def decide_symbols(windows: np.ndarray, params: LoraParams) -> np.ndarray:
    """Hard symbol decisions for a (count, m) block: argmax bin per window.

    Same dechirp/transform/argmax pipeline as demodulate, without the
    peak statistics.
    """
    mags = _window_spectra(windows, params)
    return mags.argmax(axis=1)


def _peak_and_floor(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a (count, n) magnitude block: argmax bin, its magnitude, the noise floor, and their ratio.

    The floor is the median of the n - 1 bins other than the peak. n is even
    (a power of two), so that median is a single order statistic, and since
    the peak is a row maximum, it is also order statistic (n - 2) // 2 of the
    whole row: one partition, with no masked copy. The ratio is the peak over
    the floor clamped at NOISE_FLOOR_MIN. The floors are a copy, so no partitioned block outlives the call.
    """
    n = mags.shape[1]
    # argmax takes the lowest bin on ties
    bins = mags.argmax(axis=1)
    peaks = mags.max(axis=1)
    mid = (n - 2) // 2
    floors = np.partition(mags, mid, axis=1)[:, mid].copy()
    return bins, peaks, floors, peaks / np.maximum(floors, NOISE_FLOOR_MIN)


def demodulate(buf: IqBuffer, params: LoraParams, rf: ReductionFactor, count: int) -> DemodResult:
    """Slice buf into count consecutive m-sample windows and decode them into one DemodResult of count entries.

    Per window: symbols holds the peak bin, peaks its magnitude, floors the median of the other n - 1 bins,
    and snr_db 20 log10(peak / floor), the floor clamped at NOISE_FLOOR_MIN, never below 0 dB.
    ValueError unless count is an integer >= 0, or if a window holds a sample that is not finite (checked
    before any transform, and only in the count windows); LengthMismatchError if buf is shorter than them.
    """
    count = check_integer("count", count, 0)
    m = rf.m(params)
    if len(buf) < count * m:
        raise LengthMismatchError(
            f"buffer has {len(buf)} samples, need {count * m} for {count} symbols at beta={rf.beta}"
        )
    windows = buf.samples[: count * m].reshape(count, m)
    finite = np.isfinite(windows).all(axis=1)
    if not finite.all():
        raise ValueError(f"symbol window {finite.argmin()} of {count} holds a non-finite sample")
    symbols, peaks, floors, ratios = _peak_and_floor(_window_spectra(windows, params))
    # the peak is a row maximum, so only a peak under the clamp reads below 1: 0 dB, not -inf
    return DemodResult(symbols, peaks, floors, 20.0 * np.log10(np.maximum(ratios, 1.0)))


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    """Number of set bits of each value in [0, n), n a power of two."""
    table = np.zeros(n, dtype=np.int64)
    width = 1
    while width < n:
        # the values in [width, 2 width) are those below width plus one high bit
        table[width: 2 * width] = table[:width] + 1
        width *= 2
    table.setflags(write=False)
    return table


def bit_errors(sent, received, sf: int) -> int:
    """Number of differing natural-binary bits, the low sf of each symbol, between two symbol sequences."""
    n = 1 << sf
    diff = np.asarray(sent, dtype=np.int64) ^ np.asarray(received, dtype=np.int64)
    return int(_popcounts(n)[diff & (n - 1)].sum())
