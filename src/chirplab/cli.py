"""Command-line surface: waveform capture files, airtime tables, and sweeps.

Exit codes: 0 success, 2 flag errors (argparse), 3 malformed file,
4 length mismatch, 5 header checksum mismatch, 6 unknown beta index,
7 preamble not found, 8 calibration non-convergence, 1 anything else.
"""
from __future__ import annotations

import argparse
import sys

from . import adaptive, channel, framing, iqfile, modem
from .chirps import (
    BANDWIDTHS_HZ,
    BETA_TABLE,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    check_integer,
    instantaneous_frequency,
)
from .experiments import ExperimentConfig, _write_rows, run_ber_sweep, run_peak_experiment

EXIT_BAD_FILE = 3
EXIT_LENGTH_MISMATCH = 4
EXIT_CHECKSUM = 5
EXIT_UNKNOWN_BETA = 6
EXIT_NO_PREAMBLE = 7
EXIT_CALIBRATION = 8

# the first entry an error is an instance of gives its code; LengthMismatchError is a ValueError
_EXIT_BY_ERROR = (
    (iqfile.IqFormatError, EXIT_BAD_FILE),
    (modem.LengthMismatchError, EXIT_LENGTH_MISMATCH),
    (framing.ChecksumMismatchError, EXIT_CHECKSUM),
    (framing.UnknownBetaIndexError, EXIT_UNKNOWN_BETA),
    (framing.PreambleNotFoundError, EXIT_NO_PREAMBLE),
    (adaptive.CalibrationError, EXIT_CALIBRATION),
    (ValueError, 1),
    (OSError, 1),
)


def _params(args) -> tuple[LoraParams, ReductionFactor]:
    """The waveform parameters of _add_params_flags, sf checked before beta."""
    return LoraParams(sf=args.sf, bw=args.bw), ReductionFactor(args.beta)


def _parse_payload(text: str) -> list[int]:
    return [int(tok, 0) for tok in text.split()]  # decimal or 0x-prefixed hex


def _parse_list(text: str, kind) -> tuple:
    return tuple(kind(tok) for tok in text.split(",") if tok)


def _write_symbols(out, params: LoraParams, rf: ReductionFactor, symbols, freq_path: str, down=False):
    """The one writer of mod and chirp: the capture (conjugated if down), its sidecar, then any frequency CSV."""
    buf = modem.modulate(symbols, params, rf)
    if down:
        buf = IqBuffer(buf.samples.conj(), buf.sample_rate)
    iqfile.write_iq(out, buf, {"sf": params.sf, "bw": params.bw, "beta": rf.beta})
    if freq_path:
        freqs = instantaneous_frequency(buf)
        _write_rows(freq_path, ("sample", "freq_hz"), ((idx, float(f)) for idx, f in enumerate(freqs)))


def cmd_chirp(args) -> int:
    _write_symbols(args.out, *_params(args), [args.symbol], f"{args.out}.freq.csv", args.down)
    return 0


def cmd_mod(args) -> int:
    params, rf = _params(args)
    _write_symbols(args.out, params, rf, _parse_payload(args.payload), args.freq_out)
    return 0


def _load_capture(path, *keys):
    """(buffer, params, sidecar dict) of a capture whose sidecar must hold sf, bw and each of keys."""
    meta = iqfile.read_sidecar(path)
    for key in ("sf", "bw", *keys):
        if key not in meta:
            raise iqfile.IqFormatError(f"sidecar missing key '{key}'")
    params = LoraParams(sf=meta["sf"], bw=meta["bw"])
    return iqfile.read_iq(path, params.bw), params, meta


def cmd_demod(args) -> int:
    buf, params, meta = _load_capture(args.in_path, "beta")
    rf = ReductionFactor(meta["beta"])
    m = rf.m(params)
    count = args.count if args.count is not None else len(buf) // m
    if args.count is None and len(buf) % m != 0:
        raise modem.LengthMismatchError(
            f"{len(buf)} samples is not a whole number of {m}-sample symbols; pass --count to decode a prefix"
        )
    result = modem.demodulate(buf, params, rf, count)
    print(" ".join(map(str, result.symbols.tolist())))
    for idx, row in enumerate(zip(result.symbols, result.peaks, result.floors, result.snr_db)):
        print("{} {} {:.6f} {:.6f} {:.3f}".format(idx, *row))
    return 0


def cmd_toa(args) -> int:
    params, rf = _params(args)
    payload = (0,) * framing.check_payload_length(check_integer("--ns", args.ns, 0), params.n)
    spec = framing.FrameSpec(payload=payload, rf=rf, preamble_len=args.preamble_len)
    report = framing.time_on_air(spec, params)
    for key in ("preamble_s", "header_s", "payload_s", "total_s", "saving_s", "effective_symbol_rate"):
        print(f"{key}={getattr(report, key)!r}")
    print(f"total_samples={report.total_samples}")
    print(f"rate_multiplier={1.0 / rf.beta!r}")
    return 0


def cmd_frame_encode(args) -> int:
    params, rf = _params(args)
    spec = framing.FrameSpec(payload=_parse_payload(args.payload), rf=rf, preamble_len=args.preamble_len)
    buf = framing.build_frame(spec, params)
    if args.snr is not None:
        buf = channel.awgn(buf, channel.ChannelConfig(snr_db=args.snr, seed=args.seed))
    iqfile.write_iq(args.out, buf, {"sf": params.sf, "bw": params.bw, "preamble_len": args.preamble_len})
    return 0


def cmd_frame_decode(args) -> int:
    buf, params, meta = _load_capture(args.in_path)
    preamble_len = meta.get("preamble_len", framing.DEFAULT_PREAMBLE_LEN)
    offset = framing.detect_preamble(buf, params, preamble_len)
    payload, rf, diag = framing.decode_frame(buf, offset, params, preamble_len)
    print(" ".join(str(s) for s in payload))
    print(f"beta={rf.beta} index={rf.index} offset={offset}")
    if diag.payload:
        print(f"payload_snr_db={channel.snr_estimate(diag.payload):.3f}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        sf_list=_parse_list(args.sf_list, int),
        beta_list=_parse_list(args.betas, float),
        snr_start_db=args.snr_start, snr_stop_db=args.snr_stop, snr_step_db=args.snr_step,
        trials=args.trials, seed=args.seed,
        out_csv=args.out, bins_csv=getattr(args, "bins_out", "") or "",
    )


def cmd_peak_experiment(args) -> int:
    run_peak_experiment(_experiment_config(args))
    return 0


def cmd_ber_sweep(args) -> int:
    run_ber_sweep(_experiment_config(args))
    return 0


def cmd_calibrate(args) -> int:
    params_set = [LoraParams(sf=sf, bw=BANDWIDTHS_HZ[0]) for sf in _parse_list(args.sf_list, int)]
    table = adaptive.calibrate_thresholds(
        params_set,
        betas=_parse_list(args.betas, float),
        target_ser=args.target_ser,
        trials=args.trials,
        seed=args.seed,
    )
    table.write_csv(args.out)
    return 0


def cmd_select(args) -> int:
    table = adaptive.ThresholdTable.read_csv(args.table)
    history = adaptive.LinkHistory(capacity=args.capacity)
    try:
        with open(args.in_path, encoding="utf-8") as handle:
            for lineno, line in enumerate(map(str.strip, handle), 1):
                if line and not line.startswith("#"):
                    try:
                        adaptive.record_packet(history, float(line))
                    except ValueError as exc:
                        raise ValueError(f"{args.in_path}:{lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{args.in_path}: not UTF-8 text") from None
    try:
        rf = adaptive.select_beta(history, table, args.sf, args.margin_db)
    except KeyError as exc:  # the table lacks a threshold for this sf at beta = 1
        raise ValueError(exc.args[0]) from None
    print(f"beta={rf.beta} index={rf.index}")
    return 0


def _add_params_flags(sub):
    """The waveform flags of chirp, mod, toa and frame-encode; _params reads them."""
    sub.add_argument("--sf", type=int, required=True, help="spreading factor (7..12)")
    sub.add_argument("--bw", type=float, default=BANDWIDTHS_HZ[0], help="bandwidth in Hz")
    sub.add_argument("--beta", type=float, default=1.0, help="reduction factor")


def _add_grid_flags(sub, trials: int):
    """The (sf, beta) grid, trial count, seed and output CSV of the sweeps and calibrate."""
    sub.add_argument("--sf", dest="sf_list", default="7", help="comma-separated spreading factors")
    sub.add_argument("--betas", default=",".join(str(b) for b in BETA_TABLE), help="comma-separated betas")
    sub.add_argument("--trials", type=int, default=trials)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output CSV path")


def _add_sweep_flags(sub):
    _add_grid_flags(sub, trials=1000)
    sub.add_argument("--snr-start", type=float, default=0.0)
    sub.add_argument("--snr-stop", type=float, default=0.0)
    sub.add_argument("--snr-step", type=float, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chirplab", description=__doc__.split("\n")[0], allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("chirp", allow_abbrev=False,
                              help="dump one chirp waveform and its frequency trajectory")
    _add_params_flags(sub)
    sub.add_argument("--down", action="store_true", help="conjugate of the symbol's chirp (at 0, the base downchirp)")
    sub.add_argument("--symbol", type=int, default=0, help="cyclic shift (symbol value)")
    sub.add_argument("--out", required=True)
    sub.set_defaults(handler=cmd_chirp)

    sub = commands.add_parser("mod", allow_abbrev=False, help="modulate symbols to an IQ capture")
    _add_params_flags(sub)
    sub.add_argument("--payload", required=True, help="space-separated symbol values (decimal or 0x hex)")
    sub.add_argument("--out", required=True)
    sub.add_argument("--freq-out", default="", help="also dump the frequency trajectory CSV")
    sub.set_defaults(handler=cmd_mod)

    sub = commands.add_parser("demod", allow_abbrev=False, help="decode an IQ capture of bare symbols")
    sub.add_argument("--in", dest="in_path", required=True)
    sub.add_argument("--count", type=int, default=None, help="decode exactly this many symbols")
    sub.set_defaults(handler=cmd_demod)

    sub = commands.add_parser("toa", allow_abbrev=False, help="airtime report for a frame shape")
    _add_params_flags(sub)
    sub.add_argument("--ns", type=int, required=True, help="payload symbol count")
    sub.add_argument("--preamble-len", type=int, default=framing.DEFAULT_PREAMBLE_LEN)
    sub.set_defaults(handler=cmd_toa)

    sub = commands.add_parser("frame-encode", allow_abbrev=False, help="build a frame IQ capture")
    _add_params_flags(sub)
    sub.add_argument("--payload", required=True)
    sub.add_argument("--preamble-len", type=int, default=framing.DEFAULT_PREAMBLE_LEN)
    sub.add_argument("--snr", type=float, default=None, help="impair with AWGN at this SNR before writing")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(handler=cmd_frame_encode)

    sub = commands.add_parser("frame-decode", allow_abbrev=False, help="synchronize and decode a frame IQ capture")
    sub.add_argument("--in", dest="in_path", required=True)
    sub.set_defaults(handler=cmd_frame_decode)

    sub = commands.add_parser("peak-experiment", allow_abbrev=False, help="mean transform-peak magnitude sweep")
    _add_sweep_flags(sub)
    sub.add_argument("--bins-out", default="", help="per-bin magnitude CSV for one representative trial")
    sub.set_defaults(handler=cmd_peak_experiment)

    sub = commands.add_parser("ber-sweep", allow_abbrev=False, help="SER/BER sweep over an SNR grid")
    _add_sweep_flags(sub)
    sub.set_defaults(handler=cmd_ber_sweep)

    sub = commands.add_parser("calibrate", allow_abbrev=False,
                              help="calibrate required-SNR thresholds per (sf, beta)")
    _add_grid_flags(sub, trials=100_000)
    sub.add_argument("--target-ser", type=float, default=adaptive.DEFAULT_TARGET_SER)
    sub.set_defaults(handler=cmd_calibrate)

    sub = commands.add_parser("select", allow_abbrev=False, help="choose beta from a link-SNR history file")
    sub.add_argument("--table", required=True, help="threshold table CSV from calibrate")
    sub.add_argument("--in", dest="in_path", required=True, help="history file, one SNR dB per line")
    sub.add_argument("--sf", type=int, required=True)
    sub.add_argument("--margin-db", type=float, default=adaptive.DEFAULT_SAFETY_MARGIN_DB,
                     help="safety margin in dB; 0 for always-on receivers that prefer rate over margin")
    sub.add_argument("--capacity", type=int, default=10, help="history window size")
    sub.set_defaults(handler=cmd_select)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(err for err, _ in _EXIT_BY_ERROR) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for err, code in _EXIT_BY_ERROR if isinstance(exc, err))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
