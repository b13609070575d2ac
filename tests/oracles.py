"""Independent reference implementations used to check the fast paths."""
import warnings

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


def log_i0(z: np.ndarray) -> np.ndarray:
    """log I0(z) for z >= 0, as z + log((1/pi) * integral over [0, pi] of exp(z (cos t - 1)) dt).

    The integrand is at most 1, so nothing overflows, and the trapezoid rule
    is spectrally accurate for a smooth periodic integrand.
    """
    points = 513
    t = np.linspace(0.0, np.pi, points)
    weights = np.full(points, 1.0 / (points - 1))
    weights[[0, -1]] /= 2
    return z + np.log(np.exp(np.multiply.outer(z, np.cos(t) - 1.0)) @ weights)


def analytic_ser(sf: int, snr_db: float) -> float:
    """Symbol error rate of dechirp-and-argmax detection at beta = 1 in AWGN.

    At beta = 1 the n dechirped bins are independent: the correct bin is
    Rician and the other n - 1 are Rayleigh, that is noncoherent orthogonal
    n-ary detection (Vangelista, IEEE SPL 2017). With unit noise variance per
    component, a unit-power chirp puts amplitude a = sqrt(2 n 10^(snr/10)) in
    its bin, whose magnitude r has density r exp(-(r^2 + a^2) / 2) I0(a r), and
    the decision is wrong unless all n - 1 noise magnitudes fall below r:
    SER = integral of that density times 1 - (1 - exp(-r^2 / 2))^(n - 1) dr.
    """
    n = 1 << sf
    a = np.sqrt(2.0 * n * 10.0 ** (snr_db / 10.0))
    points = 4001
    # Simpson's rule (points odd) on [0, a + 12]; the tail past a + 12 is below 1e-30, and
    # at r = 0 the integrand is 0 (the density holds a factor r)
    r, step = np.linspace(0.0, a + 12.0, points, retstep=True)
    r = r[1:]
    density = np.exp(np.log(r) - (r * r + a * a) / 2.0 + log_i0(a * r))
    wrong = -np.expm1((n - 1) * np.log1p(-np.exp(-r * r / 2.0)))
    weights = np.tile([4.0, 2.0], points // 2)
    weights[-1] = 1.0
    return float(step / 3.0 * (weights @ (density * wrong)))


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
        # non-finite samples give NaN spectra, which are never hits
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "All-NaN slice", RuntimeWarning)
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
