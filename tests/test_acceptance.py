"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte-Carlo criteria use
pinned seeds so every number here is reproducible bit-for-bit.
"""
from fractions import Fraction

import numpy as np
import pytest

from chirplab.adaptive import LinkHistory, ThresholdTable, calibrate_thresholds, record_packet, select_beta
from chirplab.channel import ChannelConfig, awgn
from chirplab.chirps import (
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    base_downchirp,
    base_upchirp,
)
from chirplab.experiments import ExperimentConfig, run_ber_sweep, run_peak_experiment
from chirplab.framing import (
    ChecksumMismatchError,
    FrameSpec,
    UnknownBetaIndexError,
    build_frame,
    decode_frame,
    detect_preamble,
    time_on_air,
    time_saving,
)
from chirplab.modem import _window_spectra, demodulate, modulate

from oracles import naive_spectra

SEED = 0
SF7 = LoraParams(sf=7, bw=125e3)
ALL_RF = [ReductionFactor(b) for b in BETA_TABLE]


def verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_noiseless_roundtrip_exactness():
    errors = 0
    checked = 0
    for rf in ALL_RF:
        symbols = np.arange(128)
        result = demodulate(modulate(symbols, SF7, rf), SF7, rf, len(symbols))
        errors += int(np.sum(result.symbols != symbols))
        checked += len(symbols)
    for sf in (8, 9, 10, 11, 12):
        params = LoraParams(sf=sf, bw=125e3)
        rng = np.random.default_rng(SEED + sf)
        for rf in ALL_RF:
            symbols = rng.integers(0, params.n, 1000)
            result = demodulate(modulate(symbols, params, rf), params, rf, len(symbols))
            errors += int(np.sum(result.symbols != symbols))
            checked += len(symbols)
    verdict(1, errors == 0,
            f"demodulate(modulate(S)) == S for all SF x beta: {checked} symbols, {errors} errors")


def test_criterion_2_sample_count_and_rate_claims():
    five = [17, 0, 127, 64, 3]
    n_0875 = len(modulate(five, SF7, ReductionFactor(0.875)))
    n_full = len(modulate(five, SF7, FULL_PERIOD))
    ok = (n_0875, n_full) == (560, 640)

    base = time_on_air(FrameSpec(payload=(0,), rf=FULL_PERIOD), SF7)
    multipliers = {}
    for rf in ALL_RF:
        # data-rate multiplier is exactly 1/beta: n/m as an exact rational
        ok &= Fraction(SF7.n, rf.m(SF7)) == 1 / Fraction(rf.beta)
        report = time_on_air(FrameSpec(payload=(0,), rf=rf), SF7)
        multipliers[rf.beta] = report.effective_symbol_rate / base.effective_symbol_rate
    ok &= round(multipliers[0.875], 3) == 1.143
    verdict(2, ok,
            f"5 symbols: {n_0875} vs {n_full} samples; multiplier(0.875) = {multipliers[0.875]:.6f} "
            f"-> {round(multipliers[0.875], 3)}; 1/beta exact for all beta")


def test_criterion_3_time_saving_identities():
    ok = time_saving(20, ReductionFactor(0.5), SF7) == 9 * SF7.t_s
    ok &= all(time_saving(n_s, FULL_PERIOD, SF7) == -SF7.t_s for n_s in (0, 1, 20, 999))
    breakeven = [(2, 0.5), (4, 0.75), (8, 0.875)]  # n_s * (1 - beta) == 1
    ok &= all(time_saving(n_s, ReductionFactor(b), SF7) == 0.0 for n_s, b in breakeven)
    verdict(3, ok, "T_saving(20, 0.5) = 9*T_s; T_saving(*, 1.0) = -T_s; break-even exactly 0")


def test_criterion_4_peak_magnitude_law():
    cfg = ExperimentConfig(sf_list=(7,), beta_list=(1.0, 0.875, 0.5), snr_start_db=300.0,
                           snr_stop_db=300.0, trials=100, seed=SEED)
    clean = {row["beta"]: row["mean_peak_ratio_vs_beta1"] for row in run_peak_experiment(cfg)}
    ok = abs(clean[0.875] - 0.875) <= 1e-6 and abs(clean[0.5] - 0.5) <= 1e-6 and abs(clean[1.0] - 1.0) <= 1e-6

    cfg = ExperimentConfig(sf_list=(7,), beta_list=(1.0, 0.875, 0.5), snr_start_db=0.0,
                           snr_stop_db=0.0, trials=100_000, seed=SEED)
    noisy = {row["beta"]: row["mean_peak_ratio_vs_beta1"] for row in run_peak_experiment(cfg)}
    # the paper quotes 80% / 60% from noisy single-symbol figures; checked as intervals only
    ok &= abs(noisy[0.875] - 0.80) <= 0.10
    ok &= abs(noisy[0.5] - 0.60) <= 0.10
    verdict(4, ok,
            f"noiseless ratios {clean[0.875]:.7f}/{clean[0.5]:.7f} == beta +-1e-6; "
            f"0 dB 100000-trial ratios {noisy[0.875]:.4f} in 0.80+-0.10, {noisy[0.5]:.4f} in 0.60+-0.10")


def two_proportion_z(p_hi, p_lo, trials):
    pooled = (p_hi + p_lo) / 2
    se = np.sqrt(pooled * (1 - pooled) * 2 / trials)
    return (p_hi - p_lo) / se if se > 0 else np.inf


def test_criterion_5_ser_ordering_in_beta():
    trials = 100_000
    cfg = ExperimentConfig(sf_list=(7,), beta_list=BETA_TABLE, snr_start_db=-10.5,
                           snr_stop_db=-7.0, snr_step_db=0.5, trials=trials, seed=SEED)
    rows = run_ber_sweep(cfg)
    ser = {(row["beta"], row["snr_db"]): row["ser"] for row in rows}
    snrs = sorted({row["snr_db"] for row in rows})
    in_window = [s for s in snrs if 1e-4 < ser[(1.0, s)] < 1e-1]
    ok = len(in_window) >= 2
    worst_z = np.inf
    for snr in in_window:
        ordered = [ser[(b, snr)] for b in sorted(BETA_TABLE)]  # 0.5 first: highest SER
        ok &= all(a > b for a, b in zip(ordered, ordered[1:]))
        for hi, lo in zip(ordered, ordered[1:]):
            z = two_proportion_z(hi, lo, trials)
            worst_z = min(worst_z, z)
            ok &= z >= 3.0
    verdict(5, ok,
            f"SER strictly decreasing in beta at {len(in_window)} in-window SNRs {in_window}, "
            f"min adjacent z = {worst_z:.2f} (>= 3)")


def test_criterion_6_calibrated_snr_gap():
    table = calibrate_thresholds([SF7], betas=(1.0, 0.5), target_ser=1e-3,
                                 trials=100_000, seed=SEED)
    gap = table.entries[(7, 0.5)] - table.entries[(7, 1.0)]
    # the analytic curves put both thresholds on these grid points too, a 4.50 dB gap on the gate's
    # edge; a stream re-roll fails it only on a 3-sigma excursion (README, truncation trade-off)
    ok = 1.5 <= gap <= 4.5
    verdict(6, ok,
            f"required SNR at SER 1e-3: beta=1 {table.entries[(7, 1.0)]} dB, "
            f"beta=0.5 {table.entries[(7, 0.5)]} dB, gap {gap:.2f} dB in [1.5, 4.5]")


def test_criterion_7_frame_pipeline():
    rng = np.random.default_rng(SEED)
    successes = 0
    total = 100
    for trial in range(total):
        beta = BETA_TABLE[trial % len(BETA_TABLE)]
        payload = tuple(int(s) for s in rng.integers(0, 128, int(rng.integers(1, 24))))
        spec = FrameSpec(payload=payload, rf=ReductionFactor(beta))
        noisy = awgn(build_frame(spec, SF7), ChannelConfig(snr_db=20.0, seed=1000 + trial))
        try:
            offset = detect_preamble(noisy, SF7)
            decoded, rf, _ = decode_frame(noisy, offset, SF7)
        except Exception:
            continue
        if decoded == list(payload) and rf.beta == beta:
            successes += 1

    n = 128
    sfd = np.concatenate([base_downchirp(SF7).samples] * 2 + [base_downchirp(SF7).samples[: n // 4]])
    bad_checksum = IqBuffer(np.concatenate([
        np.tile(base_upchirp(SF7).samples, 8), sfd,
        modulate([5, 0, 6], SF7, FULL_PERIOD).samples,  # checksum should be 5
    ]), SF7.bw)
    with pytest.raises(ChecksumMismatchError):
        decode_frame(bad_checksum, 0, SF7)
    bad_beta = IqBuffer(np.concatenate([
        np.tile(base_upchirp(SF7).samples, 8), sfd,
        modulate([5, 6, 11], SF7, FULL_PERIOD).samples,  # index 6 outside the 5-entry table
    ]), SF7.bw)
    with pytest.raises(UnknownBetaIndexError):
        decode_frame(bad_beta, 0, SF7)

    verdict(7, successes == total,
            f"{successes}/{total} frames recovered at 20 dB across all beta; "
            f"checksum-mismatch and unknown-beta paths raised")


def test_criterion_8_adaptive_policy_properties():
    rng = np.random.default_rng(SEED)
    trials = 10_000
    floor_ok = safety_ok = True
    for _ in range(trials):
        entries = {}
        req = rng.uniform(-10.0, -4.0)
        for beta in sorted(BETA_TABLE, reverse=True):
            entries[(7, beta)] = req
            req += rng.uniform(0.0, 2.0)
        table = ThresholdTable(entries=entries, target_ser=1e-3, trials=1, seed=0)
        history = LinkHistory(capacity=10)
        for snr in rng.uniform(-25.0, 10.0, int(rng.integers(1, 11))):
            record_packet(history, snr)
        margin = float(rng.uniform(0.0, 4.0))
        rf = select_beta(history, table, 7, margin)
        if history.min_snr_db() < entries[(7, 1.0)] and rf.beta != 1.0:
            floor_ok = False
        cleared = entries[(7, rf.beta)] <= history.min_snr_db() - margin
        if not (cleared or rf.beta == 1.0):
            safety_ok = False

    mono_ok = True
    for _ in range(1000):
        entries = {}
        req = rng.uniform(-10.0, -4.0)
        for beta in sorted(BETA_TABLE, reverse=True):
            entries[(7, beta)] = req
            req += rng.uniform(0.0, 2.0)
        table = ThresholdTable(entries=entries, target_ser=1e-3, trials=1, seed=0)
        margin = float(rng.uniform(0.0, 4.0))
        betas = [
            select_beta(record_packet(LinkHistory(), float(snr)), table, 7, margin).beta
            for snr in np.sort(rng.uniform(-25.0, 10.0, 8))
        ]
        mono_ok &= all(b2 <= b1 for b1, b2 in zip(betas, betas[1:]))

    verdict(8, floor_ok and safety_ok and mono_ok,
            f"{trials} random tables/histories: beta=1 floor {floor_ok}, "
            f"threshold+margin safety {safety_ok}, monotone in SNR {mono_ok}")


def test_criterion_9_transform_oracle():
    worst = 0.0
    for n, sf in ((128, 7), (4096, 12)):
        params = LoraParams(sf=sf, bw=125e3)
        rng = np.random.default_rng(SEED + n)
        rows = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
        want = naive_spectra(rows, n)
        got = _window_spectra(rows, params)
        rel = np.max(np.abs(got - want), axis=1) / np.max(want, axis=1)
        worst = max(worst, rel.max())
    ok = worst <= 1e-9
    verdict(9, ok, f"_window_spectra vs direct O(n^2) DFT of the dechirped rows, n in {{128, 4096}}: "
                   f"max relative error {worst:.3e} <= 1e-9")
