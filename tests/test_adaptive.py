import numpy as np
import pytest

from chirplab import adaptive
from chirplab.adaptive import (
    CalibrationError,
    LinkHistory,
    ThresholdTable,
    calibrate_thresholds,
    record_packet,
    select_beta,
)
from chirplab.chirps import BETA_TABLE, LoraParams, ReductionFactor
from chirplab.montecarlo import snr_grid, symbol_error_rate

SF7 = LoraParams(sf=7, bw=125e3)


def table_from(required_by_beta, sf=7, **kwargs):
    entries = {(sf, beta): req for beta, req in required_by_beta.items()}
    defaults = dict(target_ser=1e-3, trials=10_000, seed=0)
    defaults.update(kwargs)
    return ThresholdTable(entries=entries, **defaults)


def random_monotone_table(rng, sfs=(7, 8, 9)):
    # required SNR non-increasing in beta and in sf
    entries = {}
    base = rng.uniform(-12.0, -4.0)
    for i, sf in enumerate(sorted(sfs)):
        req = base - 2.5 * i + rng.uniform(0, 0.4)
        for beta in sorted(BETA_TABLE, reverse=True):  # 1.0 first, lowest requirement
            entries[(sf, beta)] = req
            req += rng.uniform(0.0, 2.0)
    return ThresholdTable(entries=entries, target_ser=1e-3, trials=10_000, seed=0)


class TestLinkHistory:
    def test_single_sample_min(self):
        history = record_packet(LinkHistory(), -7.5)
        assert history.min_snr_db() == -7.5

    def test_eviction_beyond_capacity(self):
        history = LinkHistory(capacity=10)
        for value in range(11):
            record_packet(history, float(value))
        assert list(history.recent_snrs) == [float(v) for v in range(1, 11)]

    def test_min_matches_brute_force(self):
        rng = np.random.default_rng(5)
        history = LinkHistory(capacity=7)
        kept = []
        for value in rng.uniform(-20, 10, 40):
            record_packet(history, value)
            kept.append(float(value))
            assert history.min_snr_db() == min(kept[-7:])

    @pytest.mark.parametrize("capacity", [0, -2])
    def test_capacity_below_one_raises(self, capacity):
        with pytest.raises(ValueError, match=f"capacity must be >= 1, got {capacity}"):
            LinkHistory(capacity=capacity)

    def test_empty_min_raises(self):
        with pytest.raises(ValueError):
            LinkHistory().min_snr_db()

    @pytest.mark.parametrize("snrs", [[10.0, float("nan")], [float("nan"), 10.0]])
    def test_initial_values_reject_nan(self, snrs):
        # min() over a window holding NaN depends on where the NaN sits, as in record_packet
        with pytest.raises(ValueError, match="NaN"):
            LinkHistory(recent_snrs=snrs)

    def test_initial_values_keep_capacity(self):
        assert list(LinkHistory(capacity=2, recent_snrs=[1.0, 2.0, 3.0]).recent_snrs) == [2.0, 3.0]


class TestSelectBeta:
    def test_poor_link_keeps_full_period(self):
        table = table_from({1.0: -7.5, 0.875: -7.0, 0.75: -6.0, 0.625: -5.0, 0.5: -4.5})
        history = record_packet(LinkHistory(), -30.0)
        assert select_beta(history, table, 7, safety_margin_db=2.0).beta == 1.0

    def test_exact_margin_reaches_half(self):
        table = table_from({1.0: -7.5, 0.875: -7.0, 0.75: -6.0, 0.625: -5.0, 0.5: -4.5})
        history = record_packet(LinkHistory(), -4.5 + 2.0)
        assert select_beta(history, table, 7, safety_margin_db=2.0).beta == 0.5

    def test_intermediate_band_picks_middle_beta(self):
        table = table_from({1.0: -7.5, 0.875: -7.0, 0.75: -6.0, 0.625: -5.0, 0.5: -4.5})
        history = record_packet(LinkHistory(), -3.8)  # surplus -5.8: clears 0.75, not 0.625
        assert select_beta(history, table, 7, safety_margin_db=2.0).beta == 0.75

    def test_uses_window_minimum(self):
        table = table_from({1.0: -7.5, 0.875: -7.0, 0.75: -6.0, 0.625: -5.0, 0.5: -4.5})
        history = LinkHistory()
        for snr in (10.0, 10.0, -20.0, 10.0):
            record_packet(history, snr)
        assert select_beta(history, table, 7, safety_margin_db=2.0).beta == 1.0

    def test_zero_margin_is_more_aggressive(self):
        table = table_from({1.0: -7.5, 0.875: -7.0, 0.75: -6.0, 0.625: -5.0, 0.5: -4.5})
        history = record_packet(LinkHistory(), -4.2)
        assert select_beta(history, table, 7, safety_margin_db=2.0).beta == 0.875
        assert select_beta(history, table, 7, safety_margin_db=0.0).beta == 0.5

    def test_selects_among_calibrated_betas(self):
        table = table_from({1.0: -7.5, 0.5: -4.5})
        history = record_packet(LinkHistory(), 0.0)
        assert select_beta(history, table, 7).beta == 0.5

    def test_table_without_full_period_raises(self):
        table = table_from({0.875: -7.0, 0.5: -4.5})
        history = record_packet(LinkHistory(), 0.0)
        with pytest.raises(KeyError):
            select_beta(history, table, 7)

    def test_empty_history_raises(self):
        table = table_from({beta: -7.0 for beta in BETA_TABLE})
        with pytest.raises(ValueError):
            select_beta(LinkHistory(), table, 7)

    def test_selection_safety_property(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            table = random_monotone_table(rng)
            history = LinkHistory(capacity=10)
            for snr in rng.uniform(-25, 15, rng.integers(1, 10)):
                record_packet(history, snr)
            margin = float(rng.uniform(0, 4))
            rf = select_beta(history, table, 7, margin)
            cleared = table.required_snr_db(7, rf.beta) <= history.min_snr_db() - margin
            assert cleared or rf.beta == 1.0

    def test_selection_monotone_in_snr(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            table = random_monotone_table(rng)
            margin = float(rng.uniform(0, 4))
            snrs = np.sort(rng.uniform(-25, 15, 6))
            betas = [
                select_beta(record_packet(LinkHistory(), float(snr)), table, 7, margin).beta
                for snr in snrs
            ]
            assert all(b2 <= b1 for b1, b2 in zip(betas, betas[1:]))


class TestThresholdTable:
    def test_validate_accepts_monotone(self):
        rng = np.random.default_rng(2)
        random_monotone_table(rng).validate()

    def test_validate_rejects_beta_inversion(self):
        bad = table_from({1.0: -5.0, 0.875: -6.0, 0.75: -4.0, 0.625: -3.0, 0.5: -2.0})
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_sf_inversion(self):
        entries = {(7, 1.0): -9.0, (8, 1.0): -7.0}
        with pytest.raises(ValueError):
            ThresholdTable(entries=entries, target_ser=1e-3, trials=10_000, seed=0).validate()

    @pytest.mark.parametrize("trials", [9999, -5])
    def test_validate_rejects_too_few_trials(self, trials):
        # calibrate_thresholds needs 10 / target_ser trials, so no calibration wrote this table
        with pytest.raises(ValueError, match=f"need at least 10000 trials to resolve SER 0.001, got {trials}"):
            table_from({1.0: -7.5, 0.5: -4.5}, trials=trials).validate()

    def test_validate_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            table_from({1.0: -7.5, 0.5: -4.5}, seed=-3).validate()

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        table = random_monotone_table(rng)
        path = tmp_path / "table.csv"
        table.write_csv(path)
        back = ThresholdTable.read_csv(path)
        assert back.entries == table.entries
        assert back.target_ser == table.target_ser
        assert back.trials == table.trials
        assert back.seed == table.seed

    @pytest.mark.parametrize("column, value", [("trials", "10000.5"), ("seed", "x"), ("sf", "7.5")])
    def test_read_csv_names_path_line_and_column_of_a_bad_cell(self, tmp_path, column, value):
        path = tmp_path / "table.csv"
        table_from({1.0: -7.5, 0.5: -4.5}).write_csv(path)
        lines = path.read_text().splitlines()
        header, second = lines[0].split(","), lines[2].split(",")
        second[header.index(column)] = value
        lines[2] = ",".join(second)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            ThresholdTable.read_csv(path)
        assert str(exc.value) == f"threshold table {path}:3: {column}={value!r} is not a valid int"

    def test_read_csv_names_a_non_utf8_table(self, tmp_path):
        path = tmp_path / "table.csv"
        table_from({1.0: -7.5}).write_csv(path)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ValueError, match=f"threshold table {path} is not UTF-8 text"):
            ThresholdTable.read_csv(path)


def full_grid_threshold(params, rf, target_ser, trials, seed):
    """The search's oracle: streams do not depend on the SNR, so one engine call scores the whole grid."""
    grid = snr_grid(adaptive.SNR_SEARCH_MIN_DB, adaptive.SNR_SEARCH_MAX_DB, adaptive.SNR_SEARCH_STEP_DB)
    sers = symbol_error_rate(params, rf, grid, trials, seed)
    return next(snr for snr, ser in zip(grid, sers) if ser <= target_ser)


class TestCalibration:
    def test_rejects_insufficient_trials(self):
        with pytest.raises(ValueError):
            calibrate_thresholds([SF7], target_ser=1e-3, trials=100, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            calibrate_thresholds([SF7], target_ser=1e-2, trials=2000, seed=-1)

    def test_rejects_unknown_beta_before_any_pass(self, monkeypatch):
        def engine(*args):
            raise AssertionError("engine called")

        monkeypatch.setattr(adaptive, "symbol_error_rate", engine)
        with pytest.raises(ValueError, match="beta must be one of"):
            calibrate_thresholds([SF7], betas=(1.0, 0.3), target_ser=1e-2, trials=2000, seed=0)

    @pytest.mark.parametrize("sfs, betas", [((7, 7), (1.0,)), ((7, 9), (1.0, 0.5, 1.0)), ((7, 7.0), (1.0, 1))])
    def test_rejects_repeats_before_any_pass(self, monkeypatch, sfs, betas):
        calls = []
        monkeypatch.setattr(adaptive, "symbol_error_rate", lambda *args: calls.append(args) or [])
        params_set = [LoraParams(sf=sf, bw=125e3) for sf in sfs]
        with pytest.raises(ValueError, match="twice"):
            calibrate_thresholds(params_set, betas=betas, target_ser=1e-2, trials=2000, seed=0)
        assert calls == []

    @pytest.mark.parametrize("trials", [2000.5, 2000.0])
    def test_rejects_non_integer_trials_before_any_pass(self, monkeypatch, trials):
        # 2000.5 clears the 10 / target_ser rule; it used to reach the engine and die in range()
        monkeypatch.setattr(adaptive, "symbol_error_rate", lambda *args: pytest.fail("engine called"))
        with pytest.raises(ValueError, match="trials must be an integer"):
            calibrate_thresholds([SF7], target_ser=1e-2, trials=trials, seed=0)

    @pytest.mark.parametrize("seed", [1.7, 1.0, "1"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            calibrate_thresholds([SF7], target_ser=1e-2, trials=2000, seed=seed)

    def test_rejects_a_non_monotone_result(self, monkeypatch):
        # beta 0.5 needing less SNR than beta 1.0 is a table select_beta cannot rely on
        monkeypatch.setattr(adaptive, "_required_snr", lambda params, rf, *args: {1.0: -5.0, 0.5: -7.0}[rf.beta])
        with pytest.raises(ValueError, match="non-increasing in beta"):
            calibrate_thresholds([SF7], betas=(1.0, 0.5), target_ser=1e-2, trials=2000, seed=0)

    def test_deterministic_and_monotone_small_config(self):
        kwargs = dict(betas=(1.0, 0.75, 0.5), target_ser=1e-2, trials=2000, seed=9)
        table1 = calibrate_thresholds([SF7], **kwargs)
        table2 = calibrate_thresholds([SF7], **kwargs)
        assert table1.entries == table2.entries
        table1.validate()
        assert table1.entries[(7, 0.5)] > table1.entries[(7, 1.0)]

    def test_sf_monotonicity_small_config(self):
        params = [SF7, LoraParams(sf=9, bw=125e3)]
        table = calibrate_thresholds(params, betas=(1.0, 0.5), target_ser=1e-2, trials=2000, seed=9)
        table.validate()
        assert table.entries[(9, 1.0)] < table.entries[(7, 1.0)]

    @pytest.mark.parametrize("sf, beta, seed, target_ser, trials", [
        pytest.param(7, 1.0, 9, 1e-2, 2000, id="7-1.0-9"),
        pytest.param(7, 0.5, 3, 1e-2, 2000, id="7-0.5-3"),
        pytest.param(9, 0.75, 11, 1e-2, 2000, id="9-0.75-11"),
        # the bound's grid threshold (-11.5 dB) lies one step above the engine's (-12.0 dB)
        pytest.param(9, 0.625, 11, 1e-2, 2000, id="9-0.625-11"),
        pytest.param(7, 0.75, 5, 1e-3, 10_000, id="7-0.75-5-target-1e-3"),
        # at high target SER the bound is loose and the window misses, except at 7-0.5-1-target-0.1
        pytest.param(7, 1.0, 1, 0.3, 2000, id="7-1.0-1-target-0.3"),
        pytest.param(7, 0.5, 1, 0.1, 2000, id="7-0.5-1-target-0.1"),
        pytest.param(9, 0.875, 1, 0.1, 2000, id="9-0.875-1-target-0.1"),
        pytest.param(9, 0.5, 1, 0.3, 2000, id="9-0.5-1-target-0.3"),
    ])
    def test_search_matches_full_grid_within_probe_bound(self, monkeypatch, sf, beta, seed, target_ser, trials):
        params, rf = LoraParams(sf=sf, bw=125e3), ReductionFactor(beta)
        expected = full_grid_threshold(params, rf, target_ser, trials, seed)
        probes, probe = [], adaptive.symbol_error_rate
        monkeypatch.setattr(adaptive, "symbol_error_rate", lambda *args: probes.append(args[2]) or probe(*args))
        assert adaptive._required_snr(params, rf, target_ser, trials, seed) == expected
        assert len(probes) <= 3

    def test_window_miss_matches_full_grid(self, monkeypatch):
        # at target SER 0.1 the union bound is loose: the threshold lies below the predicted window
        params, rf, target_ser, trials, seed = SF7, ReductionFactor(1.0), 0.1, 2000, 0
        expected = full_grid_threshold(params, rf, target_ser, trials, seed)
        probes, probe = [], adaptive.symbol_error_rate
        monkeypatch.setattr(adaptive, "symbol_error_rate", lambda *args: probes.append(args[2]) or probe(*args))
        assert adaptive._required_snr(params, rf, target_ser, trials, seed) == expected
        assert len(probes) == 3  # the window, the strided points of the bracket, then the points left

    def test_two_pass_search_finds_every_step(self, monkeypatch):
        # a step SER that passes from grid index first on; first = len(grid) never passes. The predicted
        # window answers a step inside it in one pass; any other step narrows the bracket the window left
        grid = snr_grid(adaptive.SNR_SEARCH_MIN_DB, adaptive.SNR_SEARCH_MAX_DB, adaptive.SNR_SEARCH_STEP_DB)
        assert len(grid) == 71
        for first in range(len(grid) + 1):
            passes = []

            def step_ser(params, rf, snrs_db, trials, seed):
                passes.append([grid.index(snr_db) for snr_db in snrs_db])
                return [0.0 if index >= first else 1.0 for index in passes[-1]]

            monkeypatch.setattr(adaptive, "symbol_error_rate", step_ser)
            if first == len(grid):
                with pytest.raises(CalibrationError):
                    adaptive._required_snr(SF7, ReductionFactor(1.0), 1e-2, 2000, 0)
            else:
                assert adaptive._required_snr(SF7, ReductionFactor(1.0), 1e-2, 2000, 0) == grid[first]
            window = passes[0]
            assert len(window) == 4, first
            if (window[0] < first or window[0] == 0) and first <= window[-1]:
                assert len(passes) == 1, first
            else:
                # the window (indices 41-44), then every isqrt(gap)-th index of the bracket and the indices
                # left: 6 + 5 below the window (bracket -1 to 41), 5 + 4 above it (44 to 71)
                assert len(passes) <= 3, first
                assert sum(map(len, passes)) <= 4 + 11, first
            scored = [index for indices in passes for index in indices]
            assert len(set(scored)) == len(scored), first

    def test_unreachable_target_raises(self, monkeypatch):
        monkeypatch.setattr(adaptive, "SNR_SEARCH_MAX_DB", -25.0)
        with pytest.raises(CalibrationError):
            calibrate_thresholds([SF7], betas=(0.5,), target_ser=1e-2, trials=2000, seed=9)
