"""Independent reference implementations used to check the fast paths."""
import math
import warnings

import numpy as np

from chirplab.channel import add_noise
from chirplab.framing import PreambleNotFoundError
from chirplab.modem import NOISE_FLOOR_MIN, _window_spectra, modulate
# the bounds live in the library, which seeds calibration with union_bound_ser; tests import them from here
from chirplab.montecarlo import log_i0, marcum_q1, union_bound_ser  # noqa: F401
from chirplab.montecarlo import _CHUNK_SAMPLES


def dft_matrix(n: int, rows: slice = slice(None)) -> np.ndarray:
    """Rows k (all by default) of the n-point DFT matrix: exp(-2 pi i k j / n)."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j[rows], j) / n)


def naive_dft(x: np.ndarray, n: int) -> np.ndarray:
    """Direct O(n^2) forward DFT of x zero-padded to n points."""
    padded = np.zeros(n, dtype=np.complex128)
    padded[: len(x)] = x
    return dft_matrix(n) @ padded


def naive_dft_batch(rows: np.ndarray, n: int) -> np.ndarray:
    """Direct DFT of each row, zero-padded to n; the O(n^2) matrix is built 256 of its rows at a time.

    A block of 256 rows at n = 4096 is 16 MB, where the whole matrix is 268 MB.
    """
    padded = np.zeros((rows.shape[0], n), dtype=np.complex128)
    padded[:, : rows.shape[1]] = rows
    out = np.empty_like(padded)
    for lo in range(0, n, 256):
        out[:, lo: lo + 256] = padded @ dft_matrix(n, slice(lo, lo + 256)).T
    return out


def naive_spectra(windows: np.ndarray, n: int) -> np.ndarray:
    """|DFT| of each window times the leading downchirp samples exp(-i pi j^2 / n), zero-padded to n."""
    j = np.arange(windows.shape[1])
    return np.abs(naive_dft_batch(windows * np.exp(-1j * np.pi * j * j / n), n))


def _orthogonal_ser(bins: int, es_n0: float) -> float:
    """Error rate of noncoherent detection among `bins` orthogonal signals at symbol energy over N0 es_n0.

    With unit noise variance per component, the sent bin holds amplitude
    a = sqrt(2 es_n0), its magnitude r has density r exp(-(r^2 + a^2) / 2) I0(a r),
    and the decision is wrong unless all bins - 1 noise magnitudes fall below
    r: SER = integral of that density times 1 - (1 - exp(-r^2 / 2))^(bins - 1) dr.
    """
    a = np.sqrt(2.0 * es_n0)
    points = 4001
    # Simpson's rule (points odd) on [0, a + 12]; the tail past a + 12 is below 1e-30, and
    # at r = 0 the integrand is 0 (the density holds a factor r)
    r, step = np.linspace(0.0, a + 12.0, points, retstep=True)
    r = r[1:]
    density = np.exp(np.log(r) - (r * r + a * a) / 2.0 + log_i0(a * r))
    wrong = -np.expm1((bins - 1) * np.log1p(-np.exp(-r * r / 2.0)))
    weights = np.tile([4.0, 2.0], points // 2)
    weights[-1] = 1.0
    return float(step / 3.0 * (weights @ (density * wrong)))


def analytic_ser(sf: int, snr_db: float) -> float:
    """Symbol error rate of dechirp-and-argmax detection at beta = 1 in AWGN.

    At beta = 1 the n dechirped bins are independent: the correct bin is
    Rician and the other n - 1 are Rayleigh, that is noncoherent orthogonal
    n-ary detection (Vangelista, IEEE SPL 2017) at es_n0 = n 10^(snr/10).
    """
    n = 1 << sf
    return _orthogonal_ser(n, n * 10.0 ** (snr_db / 10.0))


def analytic_ber(sf: int, snr_db: float) -> float:
    """Natural-binary bit error rate of dechirp-and-argmax detection at beta = 1 in AWGN.

    The n - 1 wrong bins are exchangeable, so a wrong decision is uniform
    over the other n - 1 symbols, which differ from the sent one in
    sf n / 2 bits in all: a symbol error costs n / (2 (n - 1)) of its sf bits
    on average.
    """
    n = 1 << sf
    return analytic_ser(sf, snr_db) * n / (2 * (n - 1))


def orthogonal_subset_ser(sf: int, beta: float, snr_db: float) -> float:
    """Lower bound on the symbol error rate of dechirp-and-argmax detection of m = beta n samples.

    The bins k spaced n / gcd(m, n) apart have rho_k = 0 (see union_bound_ser)
    and independent noise, so they are gcd(m, n) orthogonal signals at
    es_n0 = m 10^(snr/10), and detection among them errs no more often than
    detection among all n bins.
    """
    n = 1 << sf
    m = round(beta * n)
    return _orthogonal_ser(math.gcd(m, n), m * 10.0 ** (snr_db / 10.0))


def pairwise_errors(sf: int, beta: float, snr_db: float) -> np.ndarray:
    """The terms union_bound_ser sums, one per offset k = 1 .. n - 1: P(bin k beats bin 0).

    Each is computed on its own, with |rho_k| from the closed form of the
    Dirichlet kernel, |sin(pi k m / n) / (m sin(pi k / n))|.
    """
    n = 1 << sf
    m = round(beta * n)
    es_n0 = m * 10.0 ** (snr_db / 10.0)
    k = np.arange(1, n)
    rho = np.abs(np.sin(np.pi * k * m / n) / (m * np.sin(np.pi * k / n)))
    root = np.sqrt(1.0 - rho * rho)
    a, b = np.sqrt(es_n0 / 2.0 * (1.0 - root)), np.sqrt(es_n0 / 2.0 * (1.0 + root))
    return marcum_q1(a, b) - 0.5 * np.exp(log_i0(a * b) - (a * a + b * b) / 2.0)


def symbols_to_bits(symbols, sf: int) -> np.ndarray:
    """Natural-binary bit expansion, sf bits per symbol, most significant first: the reference for bit_errors."""
    symbols = np.asarray(symbols, dtype=np.int64)
    shifts = np.arange(sf - 1, -1, -1)
    return ((symbols[:, None] >> shifts[None, :]) & 1).reshape(-1)


def mean_bit_distance(sf: int) -> np.ndarray:
    """Per offset k in [0, n): the natural-binary Hamming distance from s to (s + k) mod n, averaged over all s."""
    n = 1 << sf
    s = np.arange(n)
    diff = s ^ ((s[:, None] + s) % n)  # row k holds s XOR (s + k) mod n
    return sum((diff >> bit) & 1 for bit in range(sf)).mean(axis=1)


def union_bound_ber(sf: int, beta: float, snr_db: float) -> float:
    """Union upper bound on the natural-binary bit error rate of dechirp-and-argmax detection.

    The symbol is uniform and the decision error offset does not depend on
    it, so an error at offset k costs mean_bit_distance(sf)[k] of sf bits on
    average; weighting each pairwise term by that cost bounds the BER.
    """
    return float(pairwise_errors(sf, beta, snr_db) @ mean_bit_distance(sf)[1:]) / sf


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


def screen_statistics(samples, n, first, stop):
    """Reference for framing._screen_windows: (|X_0|^2, E), each a (stop - first, n) grid of starts.

    Entry [i, a] is for the window w at start a + (first + i) n: X_0 is
    np.vdot(u, w), the correlation with the base upchirp u written out as
    exp(i pi j^2 / n), and E the plain sum of |w|^2. A window that reaches past
    the buffer or holds a non-finite sample gets NaN in both.
    """
    j = np.arange(n)
    upchirp = np.exp(1j * np.pi * j * j / n)
    corr2 = np.full((stop - first, n), np.nan)
    energy = np.full((stop - first, n), np.nan)
    for i in range(stop - first):
        for a in range(n):
            window = samples[a + (first + i) * n: a + (first + i + 1) * n]
            if len(window) == n and np.isfinite(window).all():
                corr2[i, a] = abs(np.vdot(upchirp, window)) ** 2
                energy[i, a] = np.sum(window.real ** 2 + window.imag ** 2)
    return corr2, energy


def gathered_trials(params, rf, snr_db, trials, rng):
    """Reference for the montecarlo engine: (symbol errors, per-trial peak magnitudes).

    Each trial modulates a random symbol as its shifted chirp, adds AWGN with
    channel.add_noise, then dechirps, transforms and takes the argmax, as a
    receiver does; the bin-0 engine must agree with it in distribution.
    """
    chunk = 4096
    errors = 0
    peaks = []
    for done in range(0, trials, chunk):
        sent = rng.integers(0, params.n, min(chunk, trials - done))
        windows = modulate(sent, params, rf).samples.reshape(len(sent), rf.m(params))
        mags = _window_spectra(add_noise(windows, snr_db, rng), params)
        errors += int((mags.argmax(axis=1) != sent).sum())
        peaks.append(mags.max(axis=1))
    return errors, np.concatenate(peaks)


def serial_truncated_trials(rng, n, m, scales, trials):
    """Reference for montecarlo._truncated_trials: the same draws and arithmetic in one serial loop.

    Each chunk of max(1, 2**15 // n) trials draws its symbols and then its
    noise, and is transformed and scored before the next chunk is drawn.
    """
    tone = np.fft.fft(np.ones(m), n=n)
    chunk = max(1, _CHUNK_SAMPLES // n)
    for done in range(0, trials, chunk):
        count = min(chunk, trials - done)
        sent = rng.integers(0, n, count)
        noise = np.fft.fft(rng.standard_normal((count, m, 2)).view(np.complex128)[..., 0], n=n, axis=1)
        for i, scale in enumerate(scales):
            mags = np.abs(noise * scale + tone)
            offsets = mags.argmax(axis=1)
            bins = mags[0].copy() if done == 0 else None
            yield i, sent, offsets, mags[np.arange(count), offsets], bins
