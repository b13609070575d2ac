"""The three benchmark workloads: inputs made from a seed, timed operations, checks.

A workload runs in rounds. `prepare` builds a round's inputs from the seed
(set-up, untimed), and `run` performs the round's operations one at a time,
times each, and checks every output against what the benchmark knows about the
inputs. chirplab itself only ever sees the generated inputs: IQ captures with
sidecars, experiment configs, calibration arguments and link histories.

Each operation ends as one of three outcomes:

- ``ok``: the output is correct;
- ``miss``: a frame below its class's assured SNR was not recovered. Near the
  sync threshold that is expected physics, not a defect; misses are counted in
  ``fail_ratio`` so that lost sensitivity shows;
- ``fail``: a correctness check failed or the call raised unexpectedly. Any
  failure makes the run incorrect and the command exit non-zero.
"""
from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chirplab import adaptive, channel, experiments, framing, iqfile
from chirplab.chirps import BETA_TABLE, IqBuffer, LoraParams, ReductionFactor
from chirplab.modem import LengthMismatchError

BW = 125_000.0
# |z| above this for a two-proportion or mean test counts as a mismatch; at
# 5 sigma a correct program fails a cell about once in 3.5 million.
Z_LIMIT = 5.0
THRESHOLD_TOLERANCE_DB = adaptive.SNR_SEARCH_STEP_DB
DECODE_ERRORS = (framing.PreambleNotFoundError, framing.ChecksumMismatchError,
                 framing.UnknownBetaIndexError, LengthMismatchError)


@dataclass
class Op:
    """One timed operation: its kind (for per-kind statistics), time and outcome."""

    kind: str
    seconds: float
    kernel_s: float  # mean time of the calibration kernel just before and after
    outcome: str = "ok"
    work: int = 0  # trials, for Monte-Carlo cells

    @property
    def rel(self) -> float:
        return self.seconds / self.kernel_s


@dataclass
class RoundResult:
    ops: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, op: Op, why: str):
        op.outcome = "fail"
        self.notes.append(why)


class Timer:
    """Times each operation between two runs of a calibration kernel.

    Neighbours on a shared machine slow this process by 20-40% for minutes at
    a time. A kernel doing the same kind of work as the operations slows by
    about as much, so an operation's time over the kernel's (`Op.rel`) stays
    within a few percent from run to run while its time in seconds does not.
    """

    def __init__(self, kernel, tracer):
        self.kernel = kernel
        self.tracer = tracer
        self.kernel_s = self.time_kernel()

    def time_kernel(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def __call__(self, kind: str, op_id, fn):
        """Run fn() as operation op_id; returns (Op, value or the exception raised)."""
        self.tracer.op = op_id
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # the caller classifies it; the run must go on
            value = exc
        seconds = time.perf_counter() - start
        before, self.kernel_s = self.kernel_s, self.time_kernel()
        return Op(kind, seconds, (before + self.kernel_s) / 2), value


_NOISE = np.random.default_rng(0)
_WINDOWS = (_NOISE.standard_normal((24, 128)) + 0j, _NOISE.standard_normal((20, 1024)) + 0j)
_RAMP = np.exp(1j * np.pi * np.arange(128) ** 2 / 128)


def sync_kernel():
    """A preamble search in NumPy alone: 16 alignments over 24 sf 7 windows, 2 over 20 sf 10 windows."""
    for windows, steps in zip(_WINDOWS, (16, 2)):
        rows = np.arange(len(windows))
        for _ in range(steps):
            mags = np.abs(np.fft.fft(windows, axis=1))
            bins = mags.argmax(axis=1)
            masked = mags.copy()
            masked[rows, bins] = np.nan
            hits = mags[rows, bins] / np.nanmedian(masked, axis=1) >= 4.0
            run = 0
            for hit in hits:
                run = run + 1 if hit else 0


def trial_kernel():
    """A Monte-Carlo chunk in NumPy alone: 2048 noisy sf 7 trials, gathered, dechirped and decided."""
    rng = np.random.Generator(np.random.Philox(0))
    rows = _RAMP[(np.arange(128)[None, :] + rng.integers(0, 128, 2048)[:, None]) % 128]
    noisy = rows + (rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)) * 0.5
    np.abs(np.fft.fft(noisy * np.conj(_RAMP), axis=1)).argmax(axis=1)


def unexpected(result: RoundResult, op: Op, exc: Exception):
    traceback.print_exception(exc, file=sys.stderr)
    result.fail(op, f"{op.kind}: raised {type(exc).__name__}: {exc}")


def two_proportion_z(x1: int, n1: int, x2: int, n2: int) -> float:
    pooled = (x1 + x2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return 0.0 if se == 0 else (x1 / n1 - x2 / n2) / se


# ---------------------------------------------------------------------------
# frame-sync: the `chirplab frame-decode` path, read_iq -> detect_preamble ->
# decode_frame. Nearly all time goes to framing's preamble search and the
# modem spectra it calls; montecarlo, experiments and adaptive stay idle. This
# is the workload a faster preamble sync must speed up.

@dataclass(frozen=True)
class FrameClass:
    """Frames at one sf: every (airtime, beta) pair, SNRs balanced across them.

    A payload of airtime a full symbols carries round(a / beta) symbols, so
    frames of one airtime cost the same at every beta and the time of a round
    depends on the seed only through the lead-in (less than one symbol).
    """

    sf: int
    snrs_db: tuple
    assured_snr_db: float  # frames at or above this SNR must decode exactly
    airtimes: tuple
    repeats: int = 1
    betas: tuple = BETA_TABLE


@dataclass(frozen=True)
class FrameSyncConfig:
    classes: tuple


# The low SNR of each class sits at the sync threshold of chirplab 0.1.0: about
# half of the sf 7 frames at -8 dB are recovered, and sf 10 frames at -17 dB
# (9 dB lower, the extra processing gain of 8x longer symbols) sync as often.
# sf 12 is left out: one sf 12 frame takes about 15 s in detect_preamble.
FRAME_SYNC = FrameSyncConfig(classes=(
    FrameClass(sf=7, snrs_db=(-8.0, -6.0, -4.0, 0.0, 4.0), assured_snr_db=4.0,
               airtimes=(1, 3, 6, 9, 12), repeats=2),
    FrameClass(sf=10, snrs_db=(-17.0, -15.0, -13.0, -9.0, -5.0), assured_snr_db=-5.0,
               airtimes=(6,)),
))


@dataclass(frozen=True)
class Frame:
    path: Path
    sf: int
    snr_db: float
    lead_in: int
    payload: tuple
    beta: float
    assured: bool


class FrameSync:
    name = "frame-sync"
    main_kind = "sf7"  # the operations op_rel.* describes
    kernel = staticmethod(sync_kernel)

    def __init__(self, cfg: FrameSyncConfig):
        self.cfg = cfg

    def prepare(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng(seed)
        frames = []
        for cls in self.cfg.classes:
            params = LoraParams(sf=cls.sf, bw=BW)
            shapes = [(beta, max(1, round(airtime / beta)))
                      for airtime in cls.airtimes for beta in cls.betas] * cls.repeats
            snrs = np.resize(np.asarray(cls.snrs_db, dtype=float), len(shapes))
            rng.shuffle(snrs)
            for (beta, length), snr in zip(shapes, snrs):
                lead_in = int(rng.integers(0, params.n))
                payload = tuple(int(s) for s in rng.integers(0, params.n, length))
                clean = framing.build_frame(framing.FrameSpec(payload=payload, rf=ReductionFactor(beta)), params)
                buf = IqBuffer(np.concatenate([np.zeros(lead_in, dtype=complex), clean.samples]), params.bw)
                noisy = channel.awgn(buf, channel.ChannelConfig(snr_db=float(snr), seed=int(rng.integers(2**62))))
                path = workdir / f"frame{len(frames)}.cf32"
                iqfile.write_iq(path, noisy, {"sf": cls.sf, "bw": BW,
                                              "preamble_len": framing.DEFAULT_PREAMBLE_LEN})
                frames.append(Frame(path, cls.sf, float(snr), lead_in, payload, beta,
                                    bool(snr >= cls.assured_snr_db)))
        order = rng.permutation(len(frames))
        return [frames[i] for i in order]

    @staticmethod
    def decode(path: Path):
        """What `chirplab frame-decode` does with one capture."""
        meta = iqfile.read_sidecar(path)
        params = LoraParams(sf=int(meta["sf"]), bw=float(meta["bw"]))
        preamble_len = int(meta["preamble_len"])
        buf = iqfile.read_iq(path, params.bw)
        offset = framing.detect_preamble(buf, params, preamble_len)
        payload, rf, diag = framing.decode_frame(buf, offset, params, preamble_len)
        if diag.payload:
            channel.snr_estimate(diag.payload)
        return offset, payload, rf.beta

    def run(self, frames: list, timer: Timer) -> RoundResult:
        result = RoundResult()
        for i, frame in enumerate(frames):
            op, value = timer(f"sf{frame.sf}", i, lambda: self.decode(frame.path))
            result.ops.append(op)
            if isinstance(value, Exception) and not isinstance(value, DECODE_ERRORS):
                unexpected(result, op, value)
            elif value != (frame.lead_in, list(frame.payload), frame.beta):
                if frame.assured:
                    got = type(value).__name__ if isinstance(value, Exception) else value[0]
                    result.fail(op, f"sf{frame.sf} frame at {frame.snr_db} dB not recovered "
                                    f"(offset {frame.lead_in}, got {got})")
                else:
                    op.outcome = "miss"
        return result

    def report(self, stats) -> list:
        lines = [stats.quantile_line("frame_s.sf7.p50", "sf7", 0.5),
                 stats.quantile_line("frame_s.sf7.p90", "sf7", 0.9)]
        lines += [stats.quantile_line(f"frame_s.{kind}.p50", kind, 0.5)
                  for kind in stats.kinds() if kind != "sf7"]
        return lines


# ---------------------------------------------------------------------------
# ber-grid: `chirplab ber-sweep` cells and one `peak-experiment` per round.
# Nearly all time goes to channel.add_noise, modem.decide_symbols and the
# montecarlo gather; framing and iqfile stay idle, so a faster preamble sync
# must leave this workload unchanged while a leaner trial engine speeds it up.
# The sf 10 cells draw 8192 x 1024 complex samples per chunk, which makes the
# trial engine's working set show in peak_rss_mb.

@dataclass(frozen=True)
class BerCells:
    sf: int
    betas: tuple
    snrs_db: tuple
    trials: int


@dataclass(frozen=True)
class PeakCells:
    sf: int
    betas: tuple
    snr_db: float
    trials: int


@dataclass(frozen=True)
class BerGridConfig:
    ber: tuple
    peak: tuple


# sf 7 spans SER 1e-1 to 1e-4 at beta = 1 (the acceptance criterion-5 window);
# -17 dB is the sf 10 waterfall.
BER_GRID = BerGridConfig(
    ber=(BerCells(sf=7, betas=BETA_TABLE, snrs_db=(-10.0, -9.0, -8.0, -7.0), trials=50_000),
         BerCells(sf=10, betas=(1.0, 0.5), snrs_db=(-17.0,), trials=8192)),
    peak=(PeakCells(sf=7, betas=BETA_TABLE, snr_db=0.0, trials=20_000),),
)
SER_WINDOW = (1e-4, 1e-1)


class BerGrid:
    name = "ber-grid"
    main_kind = "ber.sf7"
    kernel = staticmethod(trial_kernel)

    def __init__(self, cfg: BerGridConfig, reference: dict):
        self.cfg = cfg
        self.reference = reference

    def prepare(self, seed: int, workdir: Path) -> list:
        configs = [experiments.ExperimentConfig(sf_list=(cells.sf,), beta_list=(beta,), snr_start_db=snr,
                                                snr_stop_db=snr, trials=cells.trials, seed=seed)
                   for cells in self.cfg.ber for beta in cells.betas for snr in cells.snrs_db]
        configs += [experiments.ExperimentConfig(sf_list=(cells.sf,), beta_list=cells.betas,
                                                 snr_start_db=cells.snr_db, snr_stop_db=cells.snr_db,
                                                 trials=cells.trials, seed=seed)
                    for cells in self.cfg.peak]
        return configs

    def run(self, configs: list, timer: Timer) -> RoundResult:
        result = RoundResult()
        ser_rows = {}
        for i, cfg in enumerate(configs):
            peak = len(cfg.beta_list) > 1
            sweep = experiments.run_peak_experiment if peak else experiments.run_ber_sweep
            op, value = timer(f"{'peak' if peak else 'ber'}.sf{cfg.sf_list[0]}", i, lambda: sweep(cfg))
            # a peak experiment always measures the beta = 1 baseline
            op.work = cfg.trials * len(set(cfg.beta_list) | {1.0}) if peak else cfg.trials
            result.ops.append(op)
            if isinstance(value, Exception):
                unexpected(result, op, value)
            elif peak:
                self.check_peaks(result, op, value)
            else:
                ser_rows[value[0]["sf"], value[0]["beta"], value[0]["snr_db"]] = (op, value[0])
                self.check_ber(result, op, value[0])
        self.check_order(result, ser_rows)
        return result

    def check_ber(self, result, op, row):
        where = f"sf{row['sf']} beta={row['beta']} {row['snr_db']} dB"
        ref = self.reference["ber"][f"{row['sf']}/{row['beta']}/{row['snr_db']}"]
        errors = row["symbol_errors"]
        z = two_proportion_z(errors, row["trials"], ref["symbol_errors"], ref["trials"])
        if abs(z) > Z_LIMIT:
            result.fail(op, f"{where}: SER {row['ser']:.3g} vs reference {ref['ser']:.3g}, z = {z:.2f}")
        bit_errors = round(row["ber"] * row["trials"] * row["sf"])
        if not errors <= bit_errors <= errors * row["sf"]:
            result.fail(op, f"{where}: {bit_errors} bit errors for {errors} symbol errors")

    def check_peaks(self, result, op, rows):
        for row in rows:
            ref = self.reference["peak"][f"{row['sf']}/{row['beta']}/{row['snr_db']}"]
            # ref["sd"] is the spread of a mean over ref["trials"] trials
            sd = ref["sd"] * math.sqrt(ref["trials"] / row["trials"])
            z = (row["mean_peak"] - ref["mean_peak"]) / sd
            if abs(z) > Z_LIMIT:
                result.fail(op, f"peak sf{row['sf']} beta={row['beta']}: mean {row['mean_peak']:.4f} "
                                f"vs reference {ref['mean_peak']:.4f}, z = {z:.2f}")

    @staticmethod
    def check_order(result, ser_rows):
        """SER strictly decreases in beta at every SNR where beta = 1 is inside SER_WINDOW."""
        for (sf, beta, snr), (_, row) in sorted(ser_rows.items()):
            if beta != 1.0 or not SER_WINDOW[0] < row["ser"] < SER_WINDOW[1]:
                continue
            cells = sorted((b, r) for (s, b, n), r in ser_rows.items() if s == sf and n == snr)
            sers = [r[1]["ser"] for _, r in cells]
            if any(a <= b for a, b in zip(sers, sers[1:])):
                for _, (op, _) in cells:
                    result.fail(op, f"sf{sf} {snr} dB: SER not strictly decreasing in beta: "
                                    f"{[(b, r[1]['ser']) for b, r in cells]}")

    def report(self, stats) -> list:
        names = {"ber": "ber_trials_per_s.{sf}", "peak": "peak_trials_per_s"}
        return [stats.rate_line(names[kind.split(".")[0]].format(sf=kind.split(".")[1]), kind, "trials/s")
                for kind in stats.kinds()]


# ---------------------------------------------------------------------------
# calibrate: `chirplab calibrate` (a full threshold table by SNR bisection),
# then `select_beta` over a seeded stream of link histories. It drives the same
# montecarlo engine as ber-grid, but as many mid-sized evaluations, each with
# its own derive_rng and each bisection probe waiting on the one before, so
# work precomputed for a whole SNR grid is wasted here.

@dataclass(frozen=True)
class CalibrateConfig:
    sf: int = 7
    betas: tuple = BETA_TABLE
    target_ser: float = 1e-3
    trials: int = 20_000
    histories: int = 500


CALIBRATE = CalibrateConfig()


class Calibrate:
    name = "calibrate"
    main_kind = "threshold"
    kernel = staticmethod(trial_kernel)

    def __init__(self, cfg: CalibrateConfig, reference: dict):
        self.cfg = cfg
        self.reference = reference

    def prepare(self, seed: int, workdir: Path) -> tuple:
        rng = np.random.default_rng(seed)
        histories = []
        for _ in range(self.cfg.histories):
            level = rng.uniform(-14.0, 2.0)
            histories.append(tuple(level + rng.normal(0.0, 1.5, int(rng.integers(1, 11)))))
        return seed, histories

    def run(self, inputs: tuple, timer: Timer) -> RoundResult:
        """One threshold per call, as `chirplab calibrate --betas B` computes it, then selection."""
        seed, histories = inputs
        cfg = self.cfg
        result = RoundResult()
        params = LoraParams(sf=cfg.sf, bw=BW)
        entries = {}
        for i, beta in enumerate(cfg.betas):
            op, table = timer("threshold", i, lambda: adaptive.calibrate_thresholds(
                [params], betas=(beta,), target_ser=cfg.target_ser, trials=cfg.trials, seed=seed))
            result.ops.append(op)
            if isinstance(table, Exception):
                unexpected(result, op, table)
                return result
            entries.update(table.entries)
            self.check_threshold(result, op, table, beta)
        table = adaptive.ThresholdTable(entries=entries, target_ser=cfg.target_ser, trials=cfg.trials, seed=seed)
        try:
            table.validate()
        except ValueError as exc:
            for op in result.ops:
                result.fail(op, f"ThresholdTable.validate(): {exc}")

        def select_all():
            chosen = []
            for snrs in histories:
                history = adaptive.LinkHistory(capacity=10)
                for snr in snrs:
                    adaptive.record_packet(history, snr)
                chosen.append(adaptive.select_beta(history, table, cfg.sf).beta)
            return chosen

        op, chosen = timer("select", len(cfg.betas), select_all)
        result.ops.append(op)
        if isinstance(chosen, Exception):
            unexpected(result, op, chosen)
            return result
        expected = [self.expected_beta(table, snrs) for snrs in histories]
        wrong = sum(a != b for a, b in zip(chosen, expected))
        if wrong:
            result.fail(op, f"select_beta disagrees with the policy on {wrong} of {len(histories)} histories")
        return result

    def check_threshold(self, result, op, table, beta):
        got = table.required_snr_db(self.cfg.sf, beta)
        ref = self.reference["thresholds"][f"{self.cfg.sf}/{beta}/{self.cfg.target_ser}"]
        if abs(got - ref["required_snr_db"]) > THRESHOLD_TOLERANCE_DB + 1e-9:
            result.fail(op, f"sf{self.cfg.sf} beta={beta}: threshold {got} dB, "
                            f"reference {ref['required_snr_db']} dB")

    def expected_beta(self, table, snrs) -> float:
        """The selection policy restated: smallest beta cleared by min SNR - margin, else 1."""
        surplus = min(snrs[-10:]) - adaptive.DEFAULT_SAFETY_MARGIN_DB
        cleared = [b for b in self.cfg.betas if table.required_snr_db(self.cfg.sf, b) <= surplus]
        return min(cleared, default=1.0)

    def report(self, stats) -> list:
        return [stats.round_line("calibrate_s", "threshold"), stats.round_line("select_s", "select")]
