"""The Monte-Carlo trial engine against analytic symbol error rates and the gathered-chirp engine."""
import faulthandler
import os
import subprocess
import sys
import threading
import time
from math import comb, erfc, log, sqrt

import numpy as np
import pytest

from chirplab import montecarlo
from chirplab.channel import noise_scale
from chirplab.chirps import BETA_TABLE, LoraParams, ReductionFactor
from chirplab.montecarlo import (TAG_BER, TAG_CALIBRATION, derive_rng, peak_statistics, run_error_trials,
                                 symbol_error_rate)

from oracles import (
    analytic_ber,
    analytic_ser,
    gathered_trials,
    log_i0,
    marcum_q1,
    orthogonal_subset_ser,
    pairwise_errors,
    serial_truncated_trials,
    union_bound_ber,
    union_bound_ser,
)

Z_999 = 3.2905  # two-sided 99.9% standard normal quantile
TAIL_Z4 = erfc(4.0 / sqrt(2.0)) / 2.0  # P(Z >= 4) for a standard normal Z


def binomial_tails(errors: int, trials: int, p: float) -> tuple[float, float]:
    """(P(X <= errors), P(X >= errors)) for X ~ Binomial(trials, p), summed exactly in log space."""
    k = np.arange(trials + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, trials + 1)))))
    pmf = np.exp(log_fact[-1] - log_fact - log_fact[::-1] + k * np.log(p) + (trials - k) * np.log1p(-p))
    return float(pmf[: errors + 1].sum()), float(pmf[errors:].sum())


@pytest.mark.parametrize("sf", [2, 3, 4])
@pytest.mark.parametrize("snr_db", [-6.0, 0.0])
def test_quadrature_matches_closed_form_for_small_n(sf, snr_db):
    # the alternating closed form of noncoherent orthogonal detection; it
    # cancels catastrophically at LoRa sizes, but is exact for a few bins
    n = 1 << sf
    es_n0 = n * 10.0 ** (snr_db / 10.0)
    closed = sum((-1) ** (k + 1) * comb(n - 1, k) / (k + 1) * np.exp(-k / (k + 1) * es_n0)
                 for k in range(1, n))
    assert analytic_ser(sf, snr_db) == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.5, 4.0), (0.5, 6.0)])
def test_marcum_q1_matches_rician_tail(a, b):
    # Q1(a, b) is the tail beyond b of the Rician density x exp(-(x^2 + a^2) / 2) I0(a x)
    # (the density is below 1e-30 past a + 12)
    x = np.linspace(b, b + a + 12.0, 10_001)
    tail = np.trapezoid(x * np.exp(-(x * x + a * a) / 2.0 + log_i0(a * x)), x)
    assert marcum_q1(a, b) == pytest.approx(tail, rel=1e-5)


@pytest.mark.parametrize("sf", [7, 8, 9])
@pytest.mark.parametrize("beta", BETA_TABLE)
def test_symbol_error_rate_within_analytic_bounds(sf, beta):
    # the union bound falls through [1e-4, 1e-1] inside this window at every beta, moving about
    # 3 dB per sf; a one-sided z of at most 4 is taken on the exact binomial tail, since the
    # lowest points expect only a few errors
    params, rf, trials = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta), (1 << 21) >> sf
    window = np.arange(-9.0, -1.0) - 3.0 * (sf - 7)
    points = [(snr_db, union_bound_ser(sf, beta, snr_db)) for snr_db in window]
    points = [(snr_db, upper) for snr_db, upper in points if 1e-4 <= upper <= 1e-1]
    assert len(points) >= 2
    sers = symbol_error_rate(params, rf, [snr_db for snr_db, _ in points], trials, 1)
    for (snr_db, upper), ser in zip(points, sers):
        errors = round(ser * trials)
        lower = orthogonal_subset_ser(sf, beta, snr_db)
        assert binomial_tails(errors, trials, upper)[1] >= TAIL_Z4, (snr_db, ser, upper)
        assert binomial_tails(errors, trials, lower)[0] >= TAIL_Z4, (snr_db, ser, lower)


def chernoff_tail(mean: float, trials: int, p: float) -> float:
    """Bound on P(average >= mean) for `trials` independent variables in [0, 1] whose means are at most p.

    That is exp(-trials KL(mean || p)) for mean > p (Hoeffding 1963, Theorem 1), and 1 otherwise.
    """
    if mean <= p:
        return 1.0
    kl = mean * log(mean / p) + ((1.0 - mean) * log((1.0 - mean) / (1.0 - p)) if mean < 1.0 else 0.0)
    return float(np.exp(-trials * kl))


@pytest.mark.parametrize("sf", [7, 9])
@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_pairwise_errors_sum_to_union_bound(sf, beta):
    for snr_db in (-12.0, -6.0, -2.0):
        assert pairwise_errors(sf, beta, snr_db).sum() == pytest.approx(union_bound_ser(sf, beta, snr_db), rel=1e-9)


@pytest.mark.parametrize("sf", [7, 8, 9])
@pytest.mark.parametrize("beta", BETA_TABLE)
def test_bit_error_rate_within_analytic_bound(sf, beta):
    # the SNR points of the SER test above; each trial's share of wrong bits lies in [0, 1], so a one-sided
    # tail of at most P(Z >= 4) is taken on the Chernoff bound, which holds for any such trials
    params, rf, trials = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta), (1 << 21) >> sf
    window = np.arange(-9.0, -1.0) - 3.0 * (sf - 7)
    snrs = [snr_db for snr_db in window if 1e-4 <= union_bound_ser(sf, beta, snr_db) <= 1e-1]
    assert len(snrs) >= 2
    for snr_db, (_, ber) in zip(snrs, run_error_trials(params, rf, snrs, trials, 1)):
        upper = union_bound_ber(sf, beta, snr_db)
        assert chernoff_tail(ber, trials, upper) >= TAIL_Z4, (snr_db, ber, upper)


@pytest.mark.parametrize("trials", [0, -3, 2.5, 2000.0])
def test_engine_rejects_what_check_integer_rejects(trials):
    # a float count used to pass the engine's own check and die in range() with a bare TypeError
    with pytest.raises(ValueError, match="trials must be"):
        run_error_trials(LoraParams(sf=7, bw=125e3), ReductionFactor(1.0), [0.0], trials, 1)


# SER from about 1e-1 to 1e-3 at each sf; the sf 7 points keep the bare-SNR ids they had before sf 10 and 12
BETA_ONE_POINTS = [(7, -10.0), (7, -9.0), (7, -8.0), (10, -19.0), (10, -18.0), (10, -17.0),
                   (12, -24.0), (12, -23.0), (12, -22.0)]
BETA_ONE_IDS = [str(snr_db) if sf == 7 else f"sf{sf}-{snr_db}" for sf, snr_db in BETA_ONE_POINTS]


@pytest.mark.parametrize("sf, snr_db", BETA_ONE_POINTS, ids=BETA_ONE_IDS)
def test_beta_one_ser_within_binomial_interval(sf, snr_db):
    trials = 50_000
    [(ser, _)] = run_error_trials(LoraParams(sf=sf, bw=125e3), ReductionFactor(1.0), [snr_db], trials, master_seed=7)
    expected = analytic_ser(sf, snr_db)
    assert abs(ser - expected) <= Z_999 * np.sqrt(expected * (1.0 - expected) / trials), (ser, expected)


@pytest.mark.parametrize("sf, snr_db", BETA_ONE_POINTS, ids=[f"sf{sf}-{snr_db}" for sf, snr_db in BETA_ONE_POINTS])
def test_beta_one_ber_within_chernoff_bounds(sf, snr_db):
    # the BER's expectation is exact at beta = 1, so both tails are bounded: a trial's share of wrong bits X
    # lies in [0, 1], and the upper tail of 1 - X, whose mean is 1 - expected, is the lower tail of X
    trials = 50_000
    [(_, ber)] = run_error_trials(LoraParams(sf=sf, bw=125e3), ReductionFactor(1.0), [snr_db], trials, master_seed=8)
    expected = analytic_ber(sf, snr_db)
    assert chernoff_tail(ber, trials, expected) >= TAIL_Z4, (ber, expected)
    assert chernoff_tail(1.0 - ber, trials, 1.0 - expected) >= TAIL_Z4, (ber, expected)


@pytest.mark.parametrize("sf, beta, snr_db", [(7, 1.0, -9.0), (7, 0.5, -5.0), (9, 0.75, -13.0), (10, 0.625, -15.0)])
def test_symbol_errors_match_gathered_engine(sf, beta, snr_db):
    params, rf, trials = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta), 20_000
    [(ser, _)] = run_error_trials(params, rf, [snr_db], trials, master_seed=1)
    errors = round(ser * trials)
    oracle_errors, _ = gathered_trials(params, rf, snr_db, trials, np.random.default_rng(2))
    pooled = (errors + oracle_errors) / (2 * trials)
    z = (errors - oracle_errors) / trials / np.sqrt(pooled * (1.0 - pooled) * 2 / trials)
    assert abs(z) <= Z_999, (errors, oracle_errors)


@pytest.mark.parametrize("beta", [0.875, 1.0])
def test_mean_peak_matches_gathered_engine(beta):
    params, rf, snr_db, trials = LoraParams(sf=7, bw=125e3), ReductionFactor(beta), 0.0, 20_000
    [(mean_peak, _)] = peak_statistics(params, rf, [snr_db], trials, master_seed=1)
    _, peaks = gathered_trials(params, rf, snr_db, trials, np.random.default_rng(2))
    z = (mean_peak - peaks.mean()) / (peaks.std() * np.sqrt(2 / trials))
    assert abs(z) <= Z_999, (mean_peak, peaks.mean())


@pytest.mark.parametrize("sf", [7, 10])
@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_single_trial_mean_peak_is_its_bins_maximum(sf, beta):
    # the bins row is the very trial whose peak is counted, on the full-period and the transform path alike
    params, rf = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta)
    snrs = [-20.0, -5.0, 0.0, 30.0]
    for snr_db, (mean_peak, bins) in zip(snrs, peak_statistics(params, rf, snrs, 1, 0)):
        assert bins.shape == (params.n,)
        assert mean_peak == bins.max(), (snr_db, mean_peak, bins.max())
    # and the row's argmax is that trial's decision, rotated to bin 0
    for i, _, offsets, peaks, bins in montecarlo._received(params, rf, snrs, 1, 0, montecarlo.TAG_PEAK):
        assert (bins.argmax(), bins.max()) == (offsets[0], peaks[0]), snrs[i]


def test_full_period_bins_row_has_rayleigh_energy():
    # the n - 1 bins besides bin 0 of one full-period trial are iid with energy 2 n sigma^2 Exp(1) each, so their
    # total over many seeds has mean 2 n sigma^2 (n - 1) and relative spread 1 / sqrt(seeds (n - 1)); drawing the
    # n - 2 bins below the maximum without truncating them would read about 3.5% high at sf 7
    params, rf, snr_db, seeds = LoraParams(sf=7, bw=125e3), ReductionFactor(1.0), 0.0, 400
    scale2 = 10.0 ** (-snr_db / 10.0) / 2.0
    totals = [np.sum(peak_statistics(params, rf, [snr_db], 1, seed)[0][1][1:] ** 2) for seed in range(seeds)]
    relative = np.mean(totals) / (2 * params.n * scale2 * (params.n - 1))
    assert abs(relative - 1.0) <= 4.0 / np.sqrt(seeds * (params.n - 1)), relative


@pytest.mark.parametrize("seed", [-1, 1.7, 1.0])
def test_derive_rng_rejects_what_check_integer_rejects(seed):
    # a truncated 1.7 would draw seed 1's stream under another seed's name
    with pytest.raises(ValueError, match="seed must be"):
        montecarlo.derive_rng(seed, TAG_CALIBRATION, 7, 1.0)


@pytest.mark.parametrize("beta", [0.75, 1.0])
def test_symbol_error_rate_per_point_ignores_its_companions(monkeypatch, beta):
    # calibration scores a block of grid points per pass; each SER must equal that point scored alone
    params, rf, snrs, trials = LoraParams(sf=7, bw=125e3), ReductionFactor(beta), [-9.0, -7.5, -6.0], 3000
    sers = symbol_error_rate(params, rf, snrs, trials, 4)
    assert sers == [symbol_error_rate(params, rf, [snr_db], trials, 4)[0] for snr_db in snrs]
    # the SER-only fold counts what the SER/BER fold counts, on the same stream
    monkeypatch.setattr(montecarlo, "TAG_BER", TAG_CALIBRATION)
    assert sers == [ser for ser, _ in run_error_trials(params, rf, snrs, trials, 4)]
    assert sers[0] > sers[-1]


def same_bytes(a, b) -> bool:
    """Two yielded columns are the same when both are None or both hold the same dtype, shape and bytes."""
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_serial_bytes(rows, params, rf, snrs, trials, seed):
    """rows, all that _received yielded on seed's BER stream, are the serial loop's rows, bit for bit."""
    rng = montecarlo.derive_rng(seed, TAG_BER, params.sf, rf.beta)
    scales = [noise_scale(snr_db) for snr_db in snrs]
    want = list(serial_truncated_trials(rng, params.n, rf.m(params), scales, trials))
    assert len(rows) == len(want), (trials, seed)
    for row, expected in zip(rows, want):
        assert row[0] == expected[0] and all(map(same_bytes, row[1:], expected[1:])), (trials, seed, row[0])


@pytest.mark.parametrize("sf", [7, 10, 12])
@pytest.mark.parametrize("beta", [beta for beta in BETA_TABLE if beta < 1.0])
def test_pipelined_trials_match_the_serial_loop(sf, beta):
    # trial counts around one and two chunks cover a partial last chunk and runs that end inside the two
    # primed requests, with nothing or one chunk drawn ahead
    params, rf = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta)
    chunk = max(1, (1 << 15) >> sf)
    for snrs in ([-10.0], [-20.0, -10.0, 0.0, 10.0]):
        for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, 3 * chunk + 5):
            rows = list(montecarlo._received(params, rf, snrs, trials, 5, TAG_BER))
            assert len(rows) == len(snrs) * -(-trials // chunk)
            assert_serial_bytes(rows, params, rf, snrs, trials, 5)


# from far below every threshold, where most trials take the full row, to far above; 7000 dB's noise scale is 0
SCREENED_SNRS = ([-40.0, -25.0, -18.0, -14.0, -10.0, -6.0, -2.0, 30.0], [-40.0, -20.0], [-6.0, 7000.0])


@pytest.mark.parametrize("sf", [7, 10, 12])
@pytest.mark.parametrize("beta", [beta for beta in BETA_TABLE if beta < 1.0])
def test_screened_trials_match_the_serial_loop(sf, beta):
    # two or more SNR points screen the scoring; each point's columns must still be the full rows' bit for bit
    params, rf = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta)
    trials = 4 * max(1, (1 << 15) >> sf) + 3
    assert noise_scale(SCREENED_SNRS[-1][-1]) == 0.0
    for snrs in SCREENED_SNRS:
        rows = list(montecarlo._received(params, rf, snrs, trials, 6, TAG_BER))
        assert_serial_bytes(rows, params, rf, snrs, trials, 6)


def full_rows_per_point(monkeypatch, snrs, trials):
    """Per SNR point of one sf 7, beta 0.5 engine call: how many trials it scored on the full row."""
    per_point, point = [0] * len(snrs), len(snrs) - 1
    scored = montecarlo._scored

    def counted(noise, scale, tone):
        nonlocal point
        if noise.shape[1] == 128:
            per_point[point] += len(noise)
        else:  # a screened point scores its near bins first
            point = (point + 1) % len(snrs)
        return scored(noise, scale, tone)

    monkeypatch.setattr(montecarlo, "_scored", counted)
    list(montecarlo._received(LoraParams(sf=7, bw=125e3), ReductionFactor(0.5), snrs, trials, 2, TAG_BER))
    monkeypatch.undo()
    return per_point


def test_screen_scores_the_full_row_only_where_needed(monkeypatch):
    trials = 3 * 256
    deep, high = full_rows_per_point(monkeypatch, [-40.0, 30.0], trials)
    assert deep >= 0.8 * trials, deep
    assert high == 1  # trial 0 of the first chunk, whose bins row is yielded
    # one point is not screened: every trial takes the full row
    assert full_rows_per_point(monkeypatch, [30.0], trials) == [trials]


class Zeros:
    """A generator stand-in that draws zeros; with the transform replaced too, only the shapes it draws matter."""

    def integers(self, low, high, count):
        return np.zeros(count, dtype=np.int64)

    def standard_normal(self, size):
        return np.zeros(size)


def assert_crafted_rows_score_as_full_rows(monkeypatch, tone, noise, scales):
    """With the transform returning `tone` for symbol 0 and `noise` for the draws, the engine is the serial loop."""
    size = len(tone)

    def transform(a, n=None, axis=-1):
        return tone.copy() if np.ndim(a) == 1 else noise[: len(a)].copy()

    monkeypatch.setattr(np.fft, "fft", transform)
    rows = list(montecarlo._truncated_trials(Zeros(), size, size // 2, scales, len(noise)))
    want = list(serial_truncated_trials(Zeros(), size, size // 2, scales, len(noise)))
    monkeypatch.undo()
    assert len(rows) == len(want) == len(scales)
    for row, expected in zip(rows, want):
        assert row[0] == expected[0] and all(map(same_bytes, row[1:], expected[1:])), (row[2], expected[2])


def test_screen_misses_no_bin(monkeypatch):
    # one loud bin per trial, at each edge of the near and far sets, over a tone of 1 in bin 0: a bin in neither
    # set would let its trial settle on bin 0
    n, near = 128, montecarlo._NEAR
    edges = (near, near + 1, n - near - 1, n - near)
    noise = np.zeros((1 + len(edges), n), dtype=complex)
    for row, edge in enumerate(edges, 1):
        noise[row, edge] = 100.0
    assert_crafted_rows_score_as_full_rows(monkeypatch, np.eye(1, n, dtype=complex)[0], noise, [1.0, 0.5])


def test_screen_keeps_the_lowest_bin_on_a_tie(monkeypatch):
    # bins 3 and n - 3 tie at the top, far above any far bin: the full row's argmax, and so the screen's, is bin 3
    n = 128
    noise = np.zeros((2, n), dtype=complex)
    noise[1, [3, n - 3]] = 50.0
    assert_crafted_rows_score_as_full_rows(monkeypatch, np.eye(1, n, dtype=complex)[0], noise, [1.0, 0.5])


def test_screen_margin_covers_rounding(monkeypatch):
    # a far bin whose noise and tone point the same way reaches its bound, and rounding can put its computed
    # magnitude an ulp above the computed bound; a near bin of that same magnitude, above it in index order,
    # then loses the full row's tie to it, so only the margin keeps such a trial off the near set
    n, far_bin = 128, 64
    rng = np.random.default_rng(3)
    w = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    s = w * rng.uniform(0.1, 10.0, 4096)  # far tones aligned with their noise
    scale = rng.uniform(0.5, 2.0, 4096)
    reached = np.abs(w * scale + s)
    over = np.flatnonzero(reached > scale * np.abs(w) + np.abs(s))
    assert len(over) >= 8, "rounding put too few far magnitudes above their bound"
    for k in over[:8]:
        tone, noise = np.zeros(n, dtype=complex), np.zeros((2, n), dtype=complex)
        tone[far_bin], tone[n - 1], noise[1, far_bin] = s[k], reached[k], w[k]
        assert_crafted_rows_score_as_full_rows(monkeypatch, tone, noise, [1.0, scale[k]])


@pytest.fixture
def no_hang():
    # a deadlocked engine fails the run with every thread's stack instead of stalling it
    faulthandler.dump_traceback_later(60, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def test_concurrent_engines_keep_their_streams(no_hang):
    # four callers and their four workers, more threads than cores, switching every microsecond: each
    # engine must still yield the serial loop's bytes, so no draw went to another engine's stream
    params, rf, snrs, trials = LoraParams(sf=10, bw=125e3), ReductionFactor(0.75), [-15.0, -12.0], 200
    rows = {}

    def run(seed):
        rows[seed] = list(montecarlo._received(params, rf, snrs, trials, seed, TAG_BER))

    callers = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=50)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed in range(4):
        assert_serial_bytes(rows[seed], params, rf, snrs, trials, seed)


def test_closing_the_engine_stops_its_worker(no_hang):
    params, rf = LoraParams(sf=7, bw=125e3), ReductionFactor(0.5)
    baseline = threading.active_count()
    received = montecarlo._received(params, rf, [0.0], 100_000, 0, TAG_BER)
    assert threading.active_count() == baseline  # nothing starts before the first chunk is asked for
    next(received)
    assert threading.active_count() == baseline + 1
    received.close()
    assert threading.active_count() == baseline
    run_error_trials(params, rf, [0.0], 1000, 0)
    assert threading.active_count() == baseline


class DrawFailed(Exception):
    pass


class CountingGenerator:
    """A derive_rng stand-in that counts its noise draws and fails every one after the first `good`."""

    good, error = float("inf"), None

    def __init__(self, *key):
        self.rng, self.draws = derive_rng(*key), 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def standard_normal(self, size):
        self.draws += 1
        if self.draws > self.good:
            raise self.error
        return self.rng.standard_normal(size)


def test_the_worker_draws_two_chunks_ahead_and_no_further(no_hang):
    # holding chunk 0, the caller has asked for chunks 1 and 2 and no more, which bounds the normals alive
    rng = CountingGenerator(0, TAG_BER, 7, 0.5)
    received = montecarlo._truncated_trials(rng, 128, 64, [1.0], 100_000)
    next(received)
    deadline = time.monotonic() + 30
    while rng.draws < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert rng.draws == 3
    time.sleep(0.2)
    assert rng.draws == 3
    received.close()


def test_closing_the_engine_cancels_the_draw_queued_behind_the_one_in_progress(no_hang):
    # chunk 1's draw waits for a timer; closing meanwhile cancels chunk 2's queued draw and waits for chunk 1's
    release = threading.Event()

    class WaitingGenerator(CountingGenerator):
        def standard_normal(self, size):
            normals = super().standard_normal(size)
            if self.draws == 2:
                release.wait()
            return normals

    rng = WaitingGenerator(0, TAG_BER, 7, 0.5)
    received = montecarlo._truncated_trials(rng, 128, 64, [1.0], 100_000)
    next(received)
    deadline = time.monotonic() + 30
    while rng.draws < 2 and time.monotonic() < deadline:
        time.sleep(0.001)
    timer = threading.Timer(0.2, release.set)
    timer.start()
    received.close()
    timer.join()
    assert rng.draws == 2


def test_a_process_that_leaves_an_engine_suspended_exits_by_itself():
    script = ("from chirplab import chirps, montecarlo\n"
              "received = montecarlo._received(chirps.LoraParams(sf=7, bw=125e3), chirps.ReductionFactor(0.5), "
              "[0.0], 100_000, 0, montecarlo.TAG_BER)\n"
              "next(received)\n")
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


# the first chunk's draw, the second primed one, and one requested after a chunk was taken
@pytest.mark.parametrize("failing_draw", [0, 1, 2])
def test_a_draw_error_reaches_the_caller_as_itself(monkeypatch, no_hang, failing_draw):
    class FailingGenerator(CountingGenerator):
        good, error = failing_draw, DrawFailed()

    monkeypatch.setattr(montecarlo, "derive_rng", FailingGenerator)
    baseline = threading.active_count()
    with pytest.raises(DrawFailed) as raised:
        run_error_trials(LoraParams(sf=7, bw=125e3), ReductionFactor(0.5), [0.0], 1000, 0)  # 4 chunks
    assert raised.value is FailingGenerator.error
    assert threading.active_count() == baseline
