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

from .chirps import _BLOCK_SAMPLES, IqBuffer, LoraParams, ReductionFactor, _base_ramp, _symbol_values, check_integer

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
    """The transmitter: per symbol k, sample j < m is upchirp[(j + k) mod n], a tone at bin k once dechirped.

    Symbol 0's chirp, conjugated, is the base downchirp. ValueError unless every symbol is an integer
    in [0, n); an integral float such as 7.0 counts as 7.
    """
    n = params.n
    symbols = _symbol_values(symbols, n)
    rows = _base_ramp(n)[(np.arange(rf.m(params))[None, :] + symbols[:, None]) % n]
    return IqBuffer(rows.reshape(-1), params.bw)


@lru_cache(maxsize=None)
def _downchirp(n: int, m: int) -> np.ndarray:
    """The leading m samples of the base downchirp conj(_base_ramp(n)), read-only: the dechirp of _window_spectra."""
    down = np.conj(_base_ramp(n)[:m])
    down.setflags(write=False)
    return down


def _window_spectra(windows: np.ndarray, params: LoraParams) -> np.ndarray:
    """The one dechirp-and-transform, for a (count, m) block of symbol windows, m <= n.

    Each row times the leading m base-downchirp samples, zero-padded to n:
    the (count, n) transform magnitudes.
    """
    n = params.n
    return np.abs(np.fft.fft(windows * _downchirp(n, windows.shape[1]), n=n, axis=1))


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
    the floor clamped at NOISE_FLOOR_MIN.
    """
    count, n = mags.shape
    # argmax takes the lowest bin on ties; the value there is the row maximum, NaN where the row holds one
    bins = mags.argmax(axis=1)
    peaks = mags[np.arange(count), bins]
    mid = (n - 2) // 2
    # np.partition's own copy-then-partition; mags itself stays as it is
    part = mags.copy()
    part.partition(mid, axis=1)
    floors = part[:, mid].copy()  # a column of its own: a record keeps count floors, not the whole block
    return bins, peaks, floors, peaks / np.maximum(floors, NOISE_FLOOR_MIN)


def demodulate(buf: IqBuffer, params: LoraParams, rf: ReductionFactor, count: int) -> DemodResult:
    """Slice buf into count consecutive m-sample windows and decode them into one DemodResult of count entries.

    Per window: symbols holds the peak bin, peaks its magnitude, floors the median of the other n - 1 bins,
    and snr_db 20 log10(peak / floor), the floor clamped at NOISE_FLOOR_MIN, never below 0 dB.
    ValueError unless count is an integer >= 0, or if a window holds a sample that is not finite (checked
    before any transform, and only in the count windows); LengthMismatchError if buf is shorter than them.
    The windows are transformed in blocks of at most _BLOCK_SAMPLES transform samples, so the temporaries
    stay bounded on long captures; each window's result does not depend on the block it falls in.
    """
    count = check_integer("count", count, 0)
    m = rf.m(params)
    if len(buf) < count * m:
        raise LengthMismatchError(
            f"buffer has {len(buf)} samples, need {count * m} for {count} symbols at beta={rf.beta}"
        )
    windows = buf.samples[: count * m].reshape(count, m)
    finite = np.isfinite(windows)
    if not finite.all():
        raise ValueError(f"symbol window {finite.all(axis=1).argmin()} of {count} holds a non-finite sample")
    block = max(1, _BLOCK_SAMPLES // params.n)
    if count <= block:  # one block, a frame's header or payload: its columns are the record's
        symbols, peaks, floors, ratios = _peak_and_floor(_window_spectra(windows, params))
    else:
        symbols = np.empty(count, dtype=np.intp)
        peaks, floors, ratios = np.empty(count), np.empty(count), np.empty(count)
        for lo in range(0, count, block):
            rows = slice(lo, lo + block)
            symbols[rows], peaks[rows], floors[rows], ratios[rows] = \
                _peak_and_floor(_window_spectra(windows[rows], params))
    # the peak is a row maximum, so only a peak under the clamp reads below 1: 0 dB, not -inf
    return DemodResult(symbols, peaks, floors, 20.0 * np.log10(np.maximum(ratios, 1.0)))


def bit_errors(sent, received, sf: int) -> int:
    """Number of differing natural-binary bits, the low sf of each symbol, between two symbol sequences."""
    diff = np.asarray(sent, dtype=np.int64) ^ np.asarray(received, dtype=np.int64)
    return int(np.bitwise_count(diff & ((1 << sf) - 1)).sum())
