"""Vectorized Monte-Carlo trial engine shared by calibration and the sweeps.

Bin-0 model: the downchirp has unit modulus, so dechirping leaves AWGN white
and circular, and a cyclic shift by symbol k only rotates the transform bins
by k. So a trial needs only the n-point transform of an m-sample window of
ones (a tone at bin 0) plus transformed noise: its winning offset e is the
argmax bin, it errs when e != 0, and a sent symbol k is decided as
(k + e) mod n. The mean peak is rotation-invariant, and trial 0's spectrum is
reported rotated to bin 0. At beta = 1 the bins are independent, so a trial
draws only bin 0 and the strongest other bin, with no transform
(_full_period_trials).

The SNR is per sample over the full band at one sample per chip, so sf, beta
and the SNR fix every result here: the bandwidth only names the sample rate,
and any valid LoraParams bandwidth gives the same bytes.

Seed splitting: every (sf, beta) evaluation under a stream tag owns an
independent SFC64 stream derived from SeedSequence([master_seed, stream_tag,
sf, beta_milli]). The SNR is not in the key: each chunk draws unit-variance
noise once and every SNR point scales that same noise, so a row does not
depend on which other SNRs were requested, and one pass over a stream scores
any number of SNR points (the calibration search scores a block of its grid
per pass). Below beta = 1, chunks hold max(1, 2**15 // n) trials (256 at
sf 7, 32 at sf 10, 8 at sf 12), so one complex array is 512 KB at every sf;
at beta = 1 they hold 2**13 trials. The chunk sizes are part of the stream
(STREAM_VERSION). Below beta = 1 the chunks are drawn by a one-worker
ThreadPoolExecutor, the only code that touches the generator. Its one worker
runs submissions in order, so the submission order is the stream order and
no byte depends on thread timing. Two draws stay submitted ahead
(_DRAWS_AHEAD): while the caller scores chunk k, the worker draws chunks
k + 1 and k + 2, so a draw is always queued when one ends. That keeps one
more chunk of normals alive than a single draw ahead would, 448 KB at
beta = 0.875. A draw's error reaches the caller as itself, and closing the
engine cancels the queued draws and joins the worker after the draw in
progress.

Screened scoring: below beta = 1, a call with two or more SNR points scores
a trial on its near bins alone when no other bin can win. The near set is
bin 0 and the _NEAR bins on each side of it, in index order; the far set is
the contiguous rest, bins _NEAR + 1 .. n - _NEAR - 1. Once per chunk, for
every point alike, each trial takes its largest far noise magnitude w. By
the triangle inequality no far bin exceeds sigma * w + max |S_k| over the far
bins, so a trial whose best near magnitude tops that bound by the relative
margin 1e-9 (which covers the rounding of both sides) has its argmax and
peak in the near set. The near magnitudes come from the full row's
elementwise expressions, so they have the same bits, and argmax over bins in
index order keeps the lowest bin on a tie, as over the full row. Every other
trial takes the full row, and so does trial 0 of the first chunk, whose bins
row is yielded. w costs about as much as scoring one point, so it pays only
when points share it: a one-point call scores every trial on the full row.
The screen changes no draw and no output byte.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from .channel import noise_scale
from .chirps import LoraParams, ReductionFactor, check_integer
from .modem import bit_errors

# the engine calls none of these; perfbench/tracer.py wraps them under these names
from .channel import add_noise  # noqa: F401
from .chirps import _base_ramp  # noqa: F401
from .modem import decide_symbols  # noqa: F401

# Version of the mapping from (seed, parameters) to output bytes; written in every CSV.
STREAM_VERSION = 4

# Stream tags decouple experiments that share a master seed.
TAG_PEAK = 0
TAG_BER = 1
TAG_CALIBRATION = 2

_CHUNK_SAMPLES = 1 << 15
_FULL_PERIOD_CHUNK = 1 << 13
# draws submitted ahead of the chunk the caller holds below beta = 1 (module docstring)
_DRAWS_AHEAD = 2
# screened scoring (module docstring): the near bins on each side of bin 0, and the relative margin by
# which a trial's near peak must top the far bins' bound, which covers the rounding of both
_NEAR = 8
_SCREEN_MARGIN = 1.0 - 1e-9
# the most points an SNR grid may hold, over a hundred times calibration's 71-point search grid
MAX_SNR_POINTS = 10 ** 4


def snr_grid(start_db: float, stop_db: float, step_db: float) -> list[float]:
    """The SNR points start + k * step, k = 0, 1, ..., up to stop with 1e-9 dB of slack.

    Sweeps and calibration share this grid. Raises ValueError, before any
    point is built, unless all three values are finite, step > 0, stop >=
    start, the grid holds at most MAX_SNR_POINTS points and step tops four
    ulps of the grid's largest magnitude: k * step and start + k * step each
    round by at most one, so such a step keeps neighbouring points apart.
    """
    if not (all(map(math.isfinite, (start_db, stop_db, step_db))) and step_db > 0 and stop_db >= start_db):
        raise ValueError(f"an SNR grid needs finite values with step > 0 and stop >= start, "
                         f"got start {start_db}, stop {stop_db}, step {step_db}")
    if (stop_db - start_db + 1e-9) / step_db >= MAX_SNR_POINTS:
        raise ValueError(f"an SNR grid holds at most {MAX_SNR_POINTS} points, "
                         f"got start {start_db}, stop {stop_db}, step {step_db}")
    if step_db <= 4 * math.ulp(max(abs(start_db), abs(stop_db)) + 1e-9):
        raise ValueError(f"SNR step {step_db} is too small to keep the points from {start_db} to {stop_db} "
                         f"apart as floats")
    points = []
    while (snr_db := start_db + len(points) * step_db) <= stop_db + 1e-9:
        points.append(snr_db)
    return points


def derive_rng(master_seed: int, tag: int, sf: int, beta: float) -> np.random.Generator:
    """SFC64 generator for one (sf, beta) evaluation under a master seed (an integer >= 0) and stream tag."""
    entropy = [check_integer("seed", master_seed, 0), int(tag), int(sf), round(beta * 1000)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def _received(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int, master_seed: int, tag: int):
    """Yield (i, sent, offsets, peaks, bins) per chunk of trials and per SNR point snrs_db[i].

    sent holds the chunk's random symbols, offsets each trial's winning bin e
    (0 when the decision is right) and peaks its largest bin magnitude; bins
    is trial 0's n bin magnitudes on the first chunk and None after it. The
    noise is sigma times unit-variance complex noise, sigma^2 = 10**(-snr_db/10) / 2
    per component, drawn once per chunk for every SNR point from the
    evaluation's own stream, so results depend only on the seed and the
    fixed chunk sizes.
    """
    trials = check_integer("trials", trials, 1)
    scales = [noise_scale(snr_db) for snr_db in snrs_db]
    rng = derive_rng(master_seed, tag, params.sf, rf.beta)
    if rf.m(params) == params.n:
        return _full_period_trials(rng, params.n, scales, trials)
    return _truncated_trials(rng, params.n, rf.m(params), scales, trials)


def _truncated_trials(rng: np.random.Generator, n: int, m: int, scales, trials: int):
    """_received for m < n: per chunk of max(1, 2**15 // n) trials, symbols, then m noise samples per trial.

    The bin magnitudes are |S + sigma * W|, with S the dechirped symbol 0
    (the n-point transform of m ones) and W the transforms of the noise, one
    row per trial. A one-worker executor, the only code that touches rng,
    draws chunks k + 1 and k + 2 while this thread transforms and scores
    chunk k (both NumPy calls release the GIL): taking chunk k pops its
    future and submits chunk k + _DRAWS_AHEAD, so at most two chunks of
    normals beyond chunk k are alive. A draw's error is raised here as
    itself, and closing the generator cancels the queued draws and joins the
    worker after the draw in progress.

    The scoring is screened as the module docstring describes.
    """
    # imported here: concurrent.futures loads logging, which every import of chirplab would then pay for
    from concurrent.futures import ThreadPoolExecutor

    tone = np.fft.fft(np.ones(m), n=n)
    screen = len(scales) > 1
    near = np.r_[0: _NEAR + 1, n - _NEAR: n]
    far = slice(_NEAR + 1, n - _NEAR)
    near_tone, far_tone = tone[near], np.abs(tone[far]).max()
    chunk = max(1, _CHUNK_SAMPLES // n)
    starts = range(0, trials, chunk)

    def draw(start):  # one chunk per submission, and one worker runs them in order: the serial stream
        count = min(chunk, trials - start)
        return rng.integers(0, n, count), rng.standard_normal((count, m, 2))

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        drawing = deque(pool.submit(draw, start) for start in starts[:_DRAWS_AHEAD])
        for done in starts:
            sent, normals = drawing.popleft().result()
            if (ahead := done + _DRAWS_AHEAD * chunk) < trials:
                drawing.append(pool.submit(draw, ahead))
            noise = np.fft.fft(normals.view(np.complex128)[..., 0], n=n, axis=1)
            if screen:
                near_noise = noise[:, near]
                far_noise = np.abs(noise[:, far]).max(axis=1)
            for i, scale in enumerate(scales):
                if screen:
                    _, picks, peaks = _scored(near_noise, scale, near_tone)
                    offsets = near[picks]
                    # a trial that a far bin might win takes the full row, and so does the bins row's trial
                    full = scale * far_noise + far_tone >= peaks * _SCREEN_MARGIN
                    full[0] |= done == 0
                    rows = np.flatnonzero(full)
                    if len(rows):
                        mags, offsets[rows], peaks[rows] = _scored(noise[rows], scale, tone)
                else:
                    mags, offsets, peaks = _scored(noise, scale, tone)
                bins = mags[0].copy() if done == 0 else None
                yield i, sent, offsets, peaks, bins
    finally:
        pool.shutdown(cancel_futures=True)


def _scored(noise: np.ndarray, scale: float, tone: np.ndarray):
    """(|tone + scale * noise| row by row, each row's argmax, each row's maximum) for rows of transformed noise."""
    spectra = noise * scale
    spectra += tone
    mags = np.abs(spectra)
    offsets = mags.argmax(axis=1)
    return mags, offsets, mags[np.arange(len(mags)), offsets]


def _full_period_trials(rng: np.random.Generator, n: int, scales, trials: int):
    """_received for m = n: per chunk of 2**13 trials, only bin 0 and the strongest other bin.

    The transform of n white samples is white, with variance n per component
    in every bin, and the tone is n in bin 0 and 0 elsewhere. So a trial
    draws its symbol, bin 0's complex noise, the largest of the n - 1 other
    bin energies (2n times the maximum of n - 1 iid Exp(1) variables, by its
    inverse CDF) and that bin's index, uniform on 1 .. n - 1; each draw is
    one vector per chunk, in that order. Given their maximum, the other
    n - 2 energies are iid Exp(1) truncated below it: trial 0 of the first
    chunk then draws them, in bin order, so that its bins row is complete.
    """
    for done in range(0, trials, _FULL_PERIOD_CHUNK):
        count = min(_FULL_PERIOD_CHUNK, trials - done)
        sent = rng.integers(0, n, count)
        bin0 = rng.standard_normal((count, 2)).view(np.complex128)[:, 0] * math.sqrt(n)
        with np.errstate(divide="ignore"):  # a uniform of exactly 0 is a maximum of 0
            largest = -np.log(-np.expm1(np.log(rng.random(count)) / (n - 1)))
        rival_bins = rng.integers(1, n, count)
        rivals = np.sqrt(2 * n * largest)
        if done == 0:
            rest = -np.log1p(rng.random(n - 2) * np.expm1(-largest[0]))
            first = np.sqrt(2 * n * np.insert(rest, rival_bins[0] - 1, largest[0]))
        for i, scale in enumerate(scales):
            tones = np.abs(n + scale * bin0)
            others = scale * rivals
            # argmax keeps the lowest bin on a tie, so bin 0 wins one
            offsets = np.where(others > tones, rival_bins, 0)
            bins = np.concatenate(([tones[0]], scale * first)) if done == 0 else None
            yield i, sent, offsets, np.maximum(tones, others), bins


def run_error_trials(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int,
                     master_seed: int) -> list[tuple[float, float]]:
    """Transmit random symbols through AWGN and return one (ser, ber) per SNR in snrs_db.

    Every SNR point scales the same noise draw. A sent symbol k is decided as
    (k + e) mod n, e being the winning offset. BER uses the natural-binary
    mapping, sf bits per symbol.
    """
    sym_errs = [0] * len(snrs_db)
    biterrs = [0] * len(snrs_db)
    for i, sent, offsets, _, _ in _received(params, rf, snrs_db, trials, master_seed, TAG_BER):
        sym_errs[i] += int(np.count_nonzero(offsets))
        biterrs[i] += bit_errors(sent, (sent + offsets) % params.n, params.sf)
    return [(errs / trials, bits / (trials * params.sf)) for errs, bits in zip(sym_errs, biterrs)]


def symbol_error_rate(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int,
                      master_seed: int) -> list[float]:
    """One symbol error rate per SNR in snrs_db over `trials` random symbols on the calibration stream.

    Every SNR point scales the same noise draw, so each rate depends only on
    the seed and its own SNR, not on which other points share the call.
    """
    sym_errs = [0] * len(snrs_db)
    for i, _, offsets, _, _ in _received(params, rf, snrs_db, trials, master_seed, TAG_CALIBRATION):
        sym_errs[i] += int(np.count_nonzero(offsets))
    return [errs / trials for errs in sym_errs]


def peak_statistics(params: LoraParams, rf: ReductionFactor, snrs_db, trials: int,
                    master_seed: int) -> list[tuple[float, np.ndarray]]:
    """One (mean transform-peak magnitude over trials, trial 0's bin magnitudes rotated to bin 0) per SNR in snrs_db.

    Every SNR point scales the same noise draw.
    """
    peak_sums = [0.0] * len(snrs_db)
    first_bins = [None] * len(snrs_db)
    for i, _, _, peaks, bins in _received(params, rf, snrs_db, trials, master_seed, TAG_PEAK):
        if bins is not None:
            first_bins[i] = bins
        peak_sums[i] += float(peaks.sum())
    return [(peak_sum / trials, bins) for peak_sum, bins in zip(peak_sums, first_bins)]


# Analytic union bound on the SER. It shares no code with the trial engine, which the tests
# check against it; calibration only uses it to predict where to search.
_HALF_TURN_POINTS = 513


def _half_turn():
    """_HALF_TURN_POINTS nodes on [0, pi] and trapezoid weights that average over them.

    The trapezoid rule is spectrally accurate for a smooth periodic integrand,
    and every integrand here is a smooth even function of cos t.
    """
    t = np.linspace(0.0, np.pi, _HALF_TURN_POINTS)
    weights = np.full(_HALF_TURN_POINTS, 1.0 / (_HALF_TURN_POINTS - 1))
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
