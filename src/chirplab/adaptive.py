"""SNR-margin-driven selection of the symbol-period reduction factor.

Calibration measures, per (sf, beta), the minimum channel SNR at which the
Monte-Carlo symbol error rate stays at or below a target. Selection then
takes the most aggressive (smallest) beta whose calibrated threshold is
cleared by the worst recent link SNR minus a safety margin, falling back to
beta = 1 whenever no threshold is met: links without surplus SNR keep the
full symbol period.
"""
from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field

from .chirps import BETA_TABLE, LoraParams, ReductionFactor
from .montecarlo import TAG_CALIBRATION, symbol_error_rate

DEFAULT_TARGET_SER = 1e-3
DEFAULT_SAFETY_MARGIN_DB = 2.0
SNR_SEARCH_MIN_DB = -30.0
SNR_SEARCH_MAX_DB = 5.0
SNR_SEARCH_STEP_DB = 0.5

TABLE_CSV_COLUMNS = ("sf", "beta", "required_snr_db", "target_ser", "trials", "seed")


class CalibrationError(Exception):
    """The target error rate is unreachable inside the SNR search range."""


@dataclass
class ThresholdTable:
    """Minimum required SNR in dB per (sf, beta) for the calibrated target SER."""

    entries: dict
    target_ser: float
    trials: int
    seed: int

    def required_snr_db(self, sf: int, beta: float) -> float:
        try:
            return self.entries[(sf, beta)]
        except KeyError:
            raise KeyError(f"no calibrated threshold for sf={sf}, beta={beta}") from None

    def validate(self):
        """Check both monotonicity invariants; raises ValueError on violation."""
        sfs = sorted({sf for sf, _ in self.entries})
        for sf in sfs:
            betas = sorted(b for s, b in self.entries if s == sf)
            reqs = [self.entries[(sf, b)] for b in betas]
            if any(a < b for a, b in zip(reqs, reqs[1:])):
                raise ValueError(f"required SNR not non-increasing in beta at sf={sf}: {list(zip(betas, reqs))}")
        betas = sorted({b for _, b in self.entries})
        for beta in betas:
            here = sorted(((sf, self.entries[(sf, beta)]) for sf, b in self.entries if b == beta))
            reqs = [r for _, r in here]
            if any(a < b for a, b in zip(reqs, reqs[1:])):
                raise ValueError(f"required SNR not non-increasing in sf at beta={beta}: {here}")

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TABLE_CSV_COLUMNS)
            for (sf, beta), req in sorted(self.entries.items()):
                writer.writerow([sf, beta, req, self.target_ser, self.trials, self.seed])

    @classmethod
    def read_csv(cls, path) -> "ThresholdTable":
        """Read a table written by write_csv; raises ValueError if it is malformed or inconsistent.

        The table needs every column and at least one row, one target_ser,
        trials and seed shared by all rows, and thresholds that pass validate().
        """
        with open(path, newline="") as handle:
            # restval: a short row reads as empty cells, which fail conversion
            reader = csv.DictReader(handle, restval="")
            missing = [name for name in TABLE_CSV_COLUMNS if name not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"threshold table {path} lacks columns {missing}")
            rows = list(reader)
        if not rows:
            raise ValueError(f"threshold table {path} has no rows")
        meta = {(float(row["target_ser"]), int(row["trials"]), int(row["seed"])) for row in rows}
        if len(meta) > 1:
            raise ValueError(f"threshold table {path} mixes (target_ser, trials, seed) values {sorted(meta)}")
        target_ser, trials, seed = meta.pop()
        entries = {(int(row["sf"]), float(row["beta"])): float(row["required_snr_db"]) for row in rows}
        table = cls(entries=entries, target_ser=target_ser, trials=trials, seed=seed)
        table.validate()
        return table


@dataclass
class LinkHistory:
    """Bounded window of recent per-packet SNR estimates; selection uses its minimum."""

    capacity: int = 10
    recent_snrs: deque = field(default_factory=deque)

    def __post_init__(self):
        self.recent_snrs = deque(self.recent_snrs, maxlen=self.capacity)

    def min_snr_db(self) -> float:
        if not self.recent_snrs:
            raise ValueError("link history is empty")
        return min(self.recent_snrs)


def record_packet(history: LinkHistory, snr_db: float) -> LinkHistory:
    """Append one packet SNR, evicting the oldest beyond capacity; returns the history."""
    history.recent_snrs.append(float(snr_db))
    return history


def _required_snr(params: LoraParams, rf: ReductionFactor, target_ser: float, trials: int,
                  seed: int, lo_db: float, hi_db: float, step_db: float) -> float:
    """Smallest grid SNR with SER <= target, by bisection on the 0.5 dB grid."""
    def ser_at(idx: int) -> float:
        return symbol_error_rate(params, rf, lo_db + idx * step_db, trials, seed, tag=TAG_CALIBRATION)

    last = round((hi_db - lo_db) / step_db)
    if ser_at(0) <= target_ser:
        return lo_db
    if ser_at(last) > target_ser:
        raise CalibrationError(
            f"SER above {target_ser} across the whole [{lo_db}, {hi_db}] dB range "
            f"for sf={params.sf}, beta={rf.beta}"
        )
    lo, hi = 0, last  # ser(lo) > target >= ser(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ser_at(mid) <= target_ser:
            hi = mid
        else:
            lo = mid
    return lo_db + hi * step_db


def calibrate_thresholds(params_set, betas=BETA_TABLE, target_ser: float = DEFAULT_TARGET_SER,
                         trials: int = 100_000, seed: int = 0,
                         snr_min_db: float = SNR_SEARCH_MIN_DB,
                         snr_max_db: float = SNR_SEARCH_MAX_DB,
                         snr_step_db: float = SNR_SEARCH_STEP_DB) -> ThresholdTable:
    """Monte-Carlo calibration of required SNR per (sf, beta); deterministic given seed."""
    if trials < 10 / target_ser:
        raise ValueError(f"need at least {10 / target_ser:.0f} trials to resolve SER {target_ser}")
    entries = {}
    for params in params_set:
        for beta in betas:
            rf = ReductionFactor(beta)
            entries[(params.sf, beta)] = _required_snr(
                params, rf, target_ser, trials, seed, snr_min_db, snr_max_db, snr_step_db
            )
    return ThresholdTable(entries=entries, target_ser=target_ser, trials=trials, seed=seed)


def select_beta(history: LinkHistory, table: ThresholdTable, sf: int,
                safety_margin_db: float = DEFAULT_SAFETY_MARGIN_DB) -> ReductionFactor:
    """Smallest beta whose calibrated threshold is cleared by min(history) - margin.

    Falls back to beta = 1 when even its own threshold is unmet; links
    without surplus SNR never truncate.
    """
    required = {beta: table.required_snr_db(sf, beta) for beta in BETA_TABLE}
    surplus = history.min_snr_db() - safety_margin_db
    for beta in sorted(BETA_TABLE):
        if required[beta] <= surplus:
            return ReductionFactor(beta)
    return ReductionFactor(1.0)
