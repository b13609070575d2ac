"""Independent reference implementations used to check the fast paths."""
import numpy as np

from chirplab.framing import PreambleNotFoundError
from chirplab.modem import NOISE_FLOOR_MIN, _window_spectra


def dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def naive_dft(x: np.ndarray, n: int) -> np.ndarray:
    """Direct O(n^2) forward DFT of x zero-padded to n points."""
    padded = np.zeros(n, dtype=np.complex128)
    padded[: len(x)] = x
    return dft_matrix(n) @ padded


def naive_dft_batch(rows: np.ndarray, n: int) -> np.ndarray:
    """Direct DFT of each row, zero-padded to n; one O(n^2) matrix, many inputs."""
    padded = np.zeros((rows.shape[0], n), dtype=np.complex128)
    padded[:, : rows.shape[1]] = rows
    return padded @ dft_matrix(n).T


def alias(freq_hz, fs_hz: float):
    """Wrap frequencies into the principal band (-fs/2, fs/2]."""
    wrapped = np.mod(np.asarray(freq_hz, dtype=float) + fs_hz / 2, fs_hz) - fs_hz / 2
    return np.where(wrapped == -fs_hz / 2, fs_hz / 2, wrapped)


def freq_close(measured, expected, fs_hz: float, tol_hz: float) -> bool:
    """Compare frequencies modulo the sampling rate."""
    d = np.mod(np.asarray(measured) - np.asarray(expected), fs_hz)
    d = np.minimum(d, fs_hz - d)
    return bool(np.all(d <= tol_hz))


def exhaustive_detect_preamble(buf, params, preamble_len=8, peak_ratio=4.0):
    """Reference for framing.detect_preamble: a full spectral pass at every alignment in [0, n).

    The floor is the median of the bins other than the peak, taken with
    nanmedian over a masked copy; the floor clamp is modem.NOISE_FLOOR_MIN,
    as in the sync.
    """
    n = params.n
    if len(buf) < n:
        raise PreambleNotFoundError("buffer shorter than one symbol")
    need = max(1, preamble_len - 1)
    best = None
    for align in range(n):
        count = (len(buf) - align) // n
        if count < need:
            continue
        windows = buf.samples[align: align + count * n].reshape(count, n)
        mags = _window_spectra(windows, params)
        peaks = mags.max(axis=1)
        hit = (mags.argmax(axis=1) == 0)
        masked = mags.copy()
        masked[np.arange(count), mags.argmax(axis=1)] = np.nan
        floors = np.maximum(np.nanmedian(masked, axis=1), NOISE_FLOOR_MIN)
        hit &= (peaks / floors) >= peak_ratio
        run = 0
        for i, ok in enumerate(hit):
            run = run + 1 if ok else 0
            if run >= need:
                start = align + (i - run + 1) * n
                if best is None or start < best:
                    best = start
                break
    if best is None:
        raise PreambleNotFoundError("no preamble run found above the peak-ratio threshold")
    return best
