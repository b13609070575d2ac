"""Monte-Carlo experiment sweeps with CSV output.

Every row carries the master seed, the trial count and the stream version;
together with the row's own (sf, beta, snr_db) they reproduce the row
exactly, because each row's random stream is derived from those values alone
(see montecarlo).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

from .chirps import BANDWIDTHS_HZ, BETA_TABLE, LoraParams, ReductionFactor, check_distinct, check_integer
from .montecarlo import STREAM_VERSION, peak_statistics, run_error_trials, snr_grid

PEAK_CSV_COLUMNS = ("sf", "beta", "snr_db", "mean_peak", "mean_peak_ratio_vs_beta1", "trials", "seed", "stream")
PEAK_BINS_CSV_COLUMNS = ("sf", "beta", "snr_db", "bin", "magnitude")
BER_CSV_COLUMNS = ("sf", "beta", "snr_db", "trials", "symbol_errors", "ser", "ber", "seed", "stream")


@dataclass
class ExperimentConfig:
    """Parameter grid and determinism inputs for one sweep."""

    sf_list: tuple = (7,)
    beta_list: tuple = BETA_TABLE
    snr_start_db: float = 0.0
    snr_stop_db: float = 0.0
    snr_step_db: float = 0.5
    trials: int = 1000
    seed: int = 0
    out_csv: str = ""
    bins_csv: str = ""

    def __post_init__(self):
        self.sf_list = check_distinct("sf", (LoraParams(sf, BANDWIDTHS_HZ[0]).sf for sf in self.sf_list))
        self.beta_list = check_distinct("beta", (ReductionFactor(b).beta for b in self.beta_list))
        check_integer("trials", self.trials, 1)
        check_integer("seed", self.seed, 0)
        self.snr_values()  # raises ValueError on a bad SNR range

    def snr_values(self) -> list[float]:
        return snr_grid(self.snr_start_db, self.snr_stop_db, self.snr_step_db)


def _write_rows(path, columns, rows):
    """The one CSV writer: a header row of columns, then rows; cli and adaptive write through it too."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def run_peak_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Mean transform-peak magnitude per (sf, beta, snr), normalized to beta = 1.

    The beta = 1 baseline of each (sf, snr) cell is always measured, whether
    or not it is in cfg.beta_list; each (sf, beta) stream is drawn once for
    all SNR points. With cfg.out_csv / cfg.bins_csv set, writes the summary
    table and one representative trial's per-bin magnitudes for plotting.
    """
    rows = []
    bins_rows = []
    snrs = cfg.snr_values()
    for sf in cfg.sf_list:
        params = LoraParams(sf=sf, bw=BANDWIDTHS_HZ[0])
        stats = {beta: peak_statistics(params, ReductionFactor(beta), snrs, cfg.trials, cfg.seed)
                 for beta in dict.fromkeys((1.0,) + cfg.beta_list)}
        for i, snr_db in enumerate(snrs):
            baseline, _ = stats[1.0][i]
            for beta in cfg.beta_list:
                mean_peak, bins = stats[beta][i]
                rows.append({
                    "sf": sf, "beta": beta, "snr_db": snr_db,
                    "mean_peak": mean_peak,
                    "mean_peak_ratio_vs_beta1": mean_peak / baseline,
                    "trials": cfg.trials, "seed": cfg.seed, "stream": STREAM_VERSION,
                })
                if cfg.bins_csv:
                    bins_rows.extend((sf, beta, snr_db, idx, float(mag)) for idx, mag in enumerate(bins))
    if cfg.out_csv:
        _write_rows(cfg.out_csv, PEAK_CSV_COLUMNS, ([r[c] for c in PEAK_CSV_COLUMNS] for r in rows))
    if cfg.bins_csv:
        _write_rows(cfg.bins_csv, PEAK_BINS_CSV_COLUMNS, bins_rows)
    return rows


def run_ber_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Measured SER and natural-binary BER per (sf, beta, snr)."""
    rows = []
    snrs = cfg.snr_values()
    for sf in cfg.sf_list:
        params = LoraParams(sf=sf, bw=BANDWIDTHS_HZ[0])
        for beta in cfg.beta_list:
            results = run_error_trials(params, ReductionFactor(beta), snrs, cfg.trials, cfg.seed)
            for snr_db, (ser, ber) in zip(snrs, results):
                rows.append({
                    "sf": sf, "beta": beta, "snr_db": snr_db, "trials": cfg.trials,
                    "symbol_errors": round(ser * cfg.trials),
                    "ser": ser, "ber": ber, "seed": cfg.seed, "stream": STREAM_VERSION,
                })
    if cfg.out_csv:
        _write_rows(cfg.out_csv, BER_CSV_COLUMNS, ([r[c] for c in BER_CSV_COLUMNS] for r in rows))
    return rows
