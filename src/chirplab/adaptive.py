"""SNR-margin-driven selection of the symbol-period reduction factor.

Calibration measures, per (sf, beta), the minimum channel SNR at which the
Monte-Carlo symbol error rate stays at or below a target. Selection then
takes the most aggressive (smallest) beta whose calibrated threshold is
cleared by the worst recent link SNR minus a safety margin, falling back to
beta = 1 whenever no threshold is met: links without surplus SNR keep the
full symbol period.
"""
from __future__ import annotations

import bisect
import csv
import math
from collections import deque
from dataclasses import dataclass, field

from .channel import check_seed
from .chirps import BANDWIDTHS_HZ, BETA_TABLE, LoraParams, ReductionFactor
from .montecarlo import STREAM_VERSION, check_trials, snr_grid, symbol_error_rate, union_bound_ser

DEFAULT_TARGET_SER = 1e-3
DEFAULT_SAFETY_MARGIN_DB = 2.0
SNR_SEARCH_MIN_DB = -30.0
SNR_SEARCH_MAX_DB = 5.0
SNR_SEARCH_STEP_DB = 0.5

TABLE_CSV_COLUMNS = ("sf", "beta", "required_snr_db", "target_ser", "trials", "seed", "stream")


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
        """Check the values a calibration can produce and both monotonicity invariants; raises ValueError.

        target_ser must lie in (0, 1), trials pass check_trials and reach
        10 / target_ser (fewer expect under 10 errors at the target), the seed
        pass check_seed, every sf pass LoraParams, every beta ReductionFactor
        and every threshold be finite.
        """
        if not 0 < self.target_ser < 1:
            raise ValueError(f"target SER must lie in (0, 1), got {self.target_ser}")
        if self.trials < 10 / self.target_ser:
            raise ValueError(f"need at least {10 / self.target_ser:.0f} trials to resolve SER {self.target_ser}, "
                             f"got {self.trials}")
        check_trials(self.trials)
        check_seed(self.seed)
        for (sf, beta), req in self.entries.items():
            LoraParams(sf, BANDWIDTHS_HZ[0])
            ReductionFactor(beta)
            if not math.isfinite(req):
                raise ValueError(f"threshold {req} for sf={sf}, beta={beta} is not finite")
        _check_non_increasing(((sf, beta, req) for (sf, beta), req in self.entries.items()), "beta", "sf")
        _check_non_increasing(((beta, sf, req) for (sf, beta), req in self.entries.items()), "sf", "beta")

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TABLE_CSV_COLUMNS)
            for (sf, beta), req in sorted(self.entries.items()):
                writer.writerow([sf, beta, req, self.target_ser, self.trials, self.seed, STREAM_VERSION])

    @classmethod
    def read_csv(cls, path) -> "ThresholdTable":
        """Read a table written by write_csv; raises ValueError if it is malformed or inconsistent.

        The table needs UTF-8 text, every column but the stream version, at
        least one row, cells that convert (an error names the line and column),
        one target_ser, trials and seed shared by all rows, at most one row per
        (sf, beta), and thresholds that pass validate(). A stream column, if
        present, must read STREAM_VERSION in every row: other streams
        calibrated other noise.
        """
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                # restval: a short row reads as empty cells, which fail conversion
                reader = csv.DictReader(handle, restval="")
                missing = [name for name in TABLE_CSV_COLUMNS[:-1] if name not in (reader.fieldnames or ())]
                if missing:
                    raise ValueError(f"threshold table {path} lacks columns {missing}")
                rows = [(reader.line_num, row) for row in reader]
        except UnicodeDecodeError:
            raise ValueError(f"threshold table {path} is not UTF-8 text") from None
        if not rows:
            raise ValueError(f"threshold table {path} has no rows")
        streams = {row.get("stream", str(STREAM_VERSION)) for _, row in rows}
        if streams != {str(STREAM_VERSION)}:
            raise ValueError(f"threshold table {path} has stream versions {sorted(streams)}, "
                             f"not the supported {STREAM_VERSION}")
        entries, meta = {}, []
        for line, row in rows:
            cells = []
            for column, kind in zip(TABLE_CSV_COLUMNS, (int, float, float, float, int, int)):
                try:
                    cells.append(kind(row[column]))
                except ValueError:
                    raise ValueError(f"threshold table {path}:{line}: {column}={row[column]!r} "
                                     f"is not a valid {kind.__name__}") from None
            sf, beta, req, *rest = cells
            if (sf, beta) in entries:
                raise ValueError(f"threshold table {path} lists sf={sf}, beta={beta} twice")
            entries[(sf, beta)] = req
            meta.append(tuple(rest))
        table = cls(entries, *meta[0])
        table.validate()  # before the mix check: a NaN target_ser never equals itself
        if len(set(meta)) > 1:
            raise ValueError(f"threshold table {path} mixes (target_ser, trials, seed) values {sorted(set(meta))}")
        return table


def _check_non_increasing(triples, along: str, at: str):
    """Raise ValueError unless, in each group of (group, key, required SNR) triples, the SNR never rises with key."""
    groups = {}
    for group, key, req in sorted(triples):
        groups.setdefault(group, []).append((key, req))
    for group, pairs in groups.items():
        reqs = [req for _, req in pairs]
        if any(a < b for a, b in zip(reqs, reqs[1:])):
            raise ValueError(f"required SNR not non-increasing in {along} at {at}={group}: {pairs}")


@dataclass
class LinkHistory:
    """Bounded window of recent per-packet SNR estimates; selection uses its minimum."""

    capacity: int = 10
    recent_snrs: deque = field(default_factory=deque)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"link history capacity must be >= 1, got {self.capacity}")
        initial, self.recent_snrs = self.recent_snrs, deque(maxlen=self.capacity)
        for snr_db in initial:
            record_packet(self, snr_db)

    def min_snr_db(self) -> float:
        if not self.recent_snrs:
            raise ValueError("link history is empty")
        return min(self.recent_snrs)


def record_packet(history: LinkHistory, snr_db: float) -> LinkHistory:
    """Append one packet SNR, evicting the oldest beyond capacity; returns the history.

    A NaN SNR raises ValueError: min() over the window would depend on its position.
    """
    if math.isnan(snr_db := float(snr_db)):
        raise ValueError("packet SNR is NaN")
    history.recent_snrs.append(snr_db)
    return history


def _required_snr(params: LoraParams, rf: ReductionFactor, target_ser: float, trials: int,
                  seed: int) -> float:
    """Smallest SNR of the search grid with SER <= target, in at most three passes over the calibration stream.

    Assumes the SER never rises with the SNR. The search keeps a bracket: the
    last grid index known to fail and the first known to pass, -1 and
    len(grid) standing for the ends. Pass 1 scores the window of four points
    from 1 dB below the predicted point to 0.5 dB above it, the predicted
    point being the first grid point whose analytic union bound on the SER
    is at most target_ser (a bisection, about 7 bound evaluations). Where
    the bound is loose, as at high target SER, the window misses: pass 2
    scores every isqrt(gap)-th index of the open bracket, and pass 3 every
    index still open. In each pass the first passing point and the point
    before it narrow the bracket. A point's SER does not depend on which
    points share its pass, so under that assumption the result is the first
    grid point that passes, as if every point were scored alone.
    """
    grid = snr_grid(SNR_SEARCH_MIN_DB, SNR_SEARCH_MAX_DB, SNR_SEARCH_STEP_DB)
    predicted = bisect.bisect_left(
        grid, True, key=lambda snr_db: union_bound_ser(params.sf, rf.beta, snr_db) <= target_ser)
    failed, passed = -1, len(grid)
    indices = range(max(predicted - 2, 0), min(predicted + 2, len(grid)))
    for pass_index in range(3):
        sers = symbol_error_rate(params, rf, [grid[i] for i in indices], trials, seed)
        first = next((k for k, ser in enumerate(sers) if ser <= target_ser), len(indices))
        failed = indices[first - 1] if first > 0 else failed
        passed = indices[first] if first < len(indices) else passed
        if passed - failed == 1:
            break
        stride = math.isqrt(passed - failed) if pass_index == 0 else 1
        indices = range(failed + stride, passed, stride)
    if passed == len(grid):
        raise CalibrationError(
            f"SER above {target_ser} across the whole [{SNR_SEARCH_MIN_DB}, {SNR_SEARCH_MAX_DB}] dB range "
            f"for sf={params.sf}, beta={rf.beta}"
        )
    return grid[passed]


def calibrate_thresholds(params_set, betas=BETA_TABLE, target_ser: float = DEFAULT_TARGET_SER,
                         trials: int = 100_000, seed: int = 0) -> ThresholdTable:
    """Monte-Carlo calibration of required SNR per (sf, beta); deterministic given seed.

    Each threshold is the smallest point of the fixed search grid (SNR_SEARCH_*)
    at which the SER is at most target_ser. No sf or beta may repeat, and the
    table must pass validate() both before the first engine pass and when full.
    """
    params_set, rfs = tuple(params_set), [ReductionFactor(beta) for beta in betas]
    for name, values in (("sf", [params.sf for params in params_set]), ("beta", [rf.beta for rf in rfs])):
        if not values or len(set(values)) < len(values):
            raise ValueError(f"calibration needs at least one {name} and none twice, got {values}")
    table = ThresholdTable(entries={}, target_ser=target_ser, trials=trials, seed=seed)
    table.validate()  # before any engine pass
    for params in params_set:
        for rf in rfs:
            table.entries[(params.sf, rf.beta)] = _required_snr(params, rf, target_ser, trials, seed)
    table.validate()
    return table


def select_beta(history: LinkHistory, table: ThresholdTable, sf: int,
                safety_margin_db: float = DEFAULT_SAFETY_MARGIN_DB) -> ReductionFactor:
    """Smallest calibrated beta whose threshold is cleared by min(history) - margin.

    Ranges over the betas the table holds for sf, of which beta = 1 must be
    one (KeyError otherwise). Falls back to beta = 1 when even its own
    threshold is unmet; links without surplus SNR never truncate. A NaN
    margin raises ValueError.
    """
    if math.isnan(safety_margin_db):
        raise ValueError("safety margin is NaN")
    table.required_snr_db(sf, 1.0)
    surplus = history.min_snr_db() - safety_margin_db
    for beta in sorted(b for s, b in table.entries if s == sf):
        if table.entries[(sf, beta)] <= surplus:
            return ReductionFactor(beta)
    return ReductionFactor(1.0)
