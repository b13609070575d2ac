import csv

import numpy as np
import pytest

from chirplab.experiments import (
    BER_CSV_COLUMNS,
    PEAK_BINS_CSV_COLUMNS,
    PEAK_CSV_COLUMNS,
    ExperimentConfig,
    run_ber_sweep,
    run_peak_experiment,
)
from chirplab.montecarlo import STREAM_VERSION


def peak_cfg(**kwargs):
    defaults = dict(sf_list=(7,), beta_list=(1.0, 0.875, 0.5), snr_start_db=300.0,
                    snr_stop_db=300.0, trials=50, seed=0)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_snr_grid(self):
        cfg = peak_cfg(snr_start_db=-10.0, snr_stop_db=-8.0, snr_step_db=0.5)
        assert cfg.snr_values() == [-10.0, -9.5, -9.0, -8.5, -8.0]
        # 0.1 * 3 rounds past 0.3; the 1e-9 dB slack keeps that point
        assert peak_cfg(snr_start_db=0.0, snr_stop_db=0.3, snr_step_db=0.1).snr_values() == [0.0, 0.1, 0.2, 0.1 * 3]

    @pytest.mark.parametrize("kwargs", [
        dict(trials=0),
        dict(snr_step_db=0.0),
        dict(snr_start_db=0.0, snr_stop_db=-1.0),
        dict(beta_list=(0.9,)),
        dict(snr_stop_db=float("inf")),
        dict(snr_start_db=float("nan")),
        dict(snr_step_db=float("nan")),
        dict(seed=-1),
        dict(sf_list=(7, 13)),
        dict(sf_list=(7.9,)),
        dict(seed=1.7),
        dict(trials=2.5),
        dict(sf_list=()),
        # repeats count after normalizing: 7.0 is sf 7, 1 is beta 1.0
        dict(sf_list=(7, 7.0)),
        dict(beta_list=(1, 0.5, 1.0)),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            peak_cfg(**kwargs)

    def test_grid_values_take_their_types(self):
        cfg = peak_cfg(sf_list=(7.0, np.int64(9)), beta_list=(1, 0.5))
        assert cfg.sf_list == (7, 9) and all(type(sf) is int for sf in cfg.sf_list)
        assert cfg.beta_list == (1.0, 0.5) and all(type(beta) is float for beta in cfg.beta_list)


class TestPeakExperiment:
    def test_noiseless_ratios_equal_beta(self):
        rows = run_peak_experiment(peak_cfg())
        by_beta = {row["beta"]: row for row in rows}
        assert by_beta[1.0]["mean_peak_ratio_vs_beta1"] == pytest.approx(1.0, abs=1e-6)
        assert by_beta[0.875]["mean_peak_ratio_vs_beta1"] == pytest.approx(0.875, abs=1e-6)
        assert by_beta[0.5]["mean_peak_ratio_vs_beta1"] == pytest.approx(0.5, abs=1e-6)
        assert by_beta[1.0]["mean_peak"] == pytest.approx(128.0, abs=1e-6)

    def test_ratio_at_0db_sf7(self):
        rows = run_peak_experiment(peak_cfg(snr_start_db=0.0, snr_stop_db=0.0, trials=1000))
        by_beta = {row["beta"]: row for row in rows}
        assert 0.45 <= by_beta[0.5]["mean_peak_ratio_vs_beta1"] <= 0.65
        assert 0.80 <= by_beta[0.875]["mean_peak_ratio_vs_beta1"] <= 0.95

    def test_csv_outputs(self, tmp_path):
        out = tmp_path / "peak.csv"
        bins = tmp_path / "bins.csv"
        cfg = peak_cfg(out_csv=str(out), bins_csv=str(bins), trials=10)
        rows = run_peak_experiment(cfg)
        with open(out, newline="") as handle:
            read_back = list(csv.DictReader(handle))
        assert tuple(read_back[0].keys()) == PEAK_CSV_COLUMNS
        assert len(read_back) == len(rows) == 3
        assert all(row["trials"] == "10" and row["seed"] == "0" for row in read_back)
        with open(bins, newline="") as handle:
            bins_rows = list(csv.DictReader(handle))
        assert tuple(bins_rows[0].keys()) == PEAK_BINS_CSV_COLUMNS
        assert len(bins_rows) == 3 * 128  # one full spectrum per (sf, beta, snr)

    def test_deterministic_given_seed(self):
        cfg = peak_cfg(trials=64, snr_start_db=-5.0, snr_stop_db=-5.0, seed=3)
        assert run_peak_experiment(cfg) == run_peak_experiment(cfg)


class TestBerSweep:
    def test_high_snr_is_error_free(self):
        rows = run_ber_sweep(peak_cfg(snr_start_db=20.0, snr_stop_db=20.0, trials=500))
        for row in rows:
            assert row["ser"] == 0.0
            assert row["ber"] == 0.0

    def test_lower_beta_has_higher_ser(self):
        cfg = ExperimentConfig(sf_list=(7,), beta_list=(1.0, 0.75, 0.5), snr_start_db=-9.0,
                               snr_stop_db=-9.0, trials=20_000, seed=1)
        rows = {row["beta"]: row for row in run_ber_sweep(cfg)}
        assert rows[0.5]["ser"] > rows[0.75]["ser"] > rows[1.0]["ser"] > 0
        assert rows[0.5]["ber"] > rows[1.0]["ber"]

    @pytest.mark.parametrize("sweep", [run_ber_sweep, run_peak_experiment])
    def test_csv_row_carries_reproduction_inputs(self, tmp_path, sweep):
        out, bins = tmp_path / "wide.csv", tmp_path / "wide.bins.csv"
        cfg = ExperimentConfig(sf_list=(7,), beta_list=(1.0, 0.5), snr_start_db=-10.0, snr_stop_db=-8.0,
                               trials=2000, seed=77, out_csv=str(out), bins_csv=str(bins))
        sweep(cfg)
        columns = BER_CSV_COLUMNS if sweep is run_ber_sweep else PEAK_CSV_COLUMNS
        with open(out, newline="") as handle:
            lines = handle.read().splitlines()
        read_back = list(csv.DictReader(lines))
        assert tuple(read_back[0].keys()) == columns
        assert len(read_back) == 10
        wide_bins = bins.read_text().splitlines()[1:] if sweep is run_peak_experiment else []
        for row, line in zip(read_back, lines[1:]):
            assert int(row["seed"]) == 77
            assert int(row["trials"]) == 2000
            assert int(row["stream"]) == STREAM_VERSION
            # the row alone reproduces itself byte for byte: its noise does not
            # depend on which other SNRs or betas were swept
            alone, alone_bins = tmp_path / "alone.csv", tmp_path / "alone.bins.csv"
            sweep(ExperimentConfig(
                sf_list=(int(row["sf"]),), beta_list=(float(row["beta"]),),
                snr_start_db=float(row["snr_db"]), snr_stop_db=float(row["snr_db"]),
                trials=int(row["trials"]), seed=int(row["seed"]),
                out_csv=str(alone), bins_csv=str(alone_bins),
            ))
            assert alone.read_text().splitlines()[1] == line
            if sweep is run_peak_experiment:
                cell = f"{row['sf']},{row['beta']},{row['snr_db']},"
                here = [b for b in wide_bins if b.startswith(cell)]
                assert len(here) == 128
                assert alone_bins.read_text().splitlines()[1:] == here
