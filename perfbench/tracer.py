"""Spans and counters recorded around chirplab's cross-module call sites.

The tracer replaces module attributes with timing wrappers, so it sees each
call where one chirplab module (or the benchmark) calls into another, without
any change to chirplab. A function imported by name into two modules is
wrapped in both, under one span name. Spans are kept in memory as
(name, start, end, parent, operation, work) and written out when the run
ends; a span's self time is its duration minus that of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _arg(index, key):
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[key]


# (module, attribute, span name, work counted per call, or None)
PATCHES = (
    ("iqfile", "read_iq", "iqfile.read_iq", None),
    ("framing", "detect_preamble", "framing.detect_preamble", None),
    ("framing", "decode_frame", "framing.decode_frame", None),
    ("framing", "demodulate", "modem.demodulate", None),
    ("framing", "_window_spectra", "modem.window_spectra", lambda a, k: len(a[0])),
    ("modem", "_window_spectra", "modem.window_spectra", lambda a, k: len(a[0])),
    ("experiments", "run_ber_sweep", "experiments.run_ber_sweep", None),
    ("experiments", "run_peak_experiment", "experiments.run_peak_experiment", None),
    ("experiments", "run_error_trials", "montecarlo.run_error_trials", _arg(3, "trials")),
    ("experiments", "peak_statistics", "montecarlo.peak_statistics", _arg(3, "trials")),
    ("montecarlo", "run_error_trials", "montecarlo.run_error_trials", _arg(3, "trials")),
    ("montecarlo", "derive_rng", "montecarlo.derive_rng", None),
    ("montecarlo", "add_noise", "channel.add_noise", lambda a, k: a[0].size),
    ("montecarlo", "decide_symbols", "modem.decide_symbols", None),
    ("montecarlo", "bit_errors", "modem.bit_errors", None),
    ("adaptive", "calibrate_thresholds", "adaptive.calibrate_thresholds", None),
    ("adaptive", "_required_snr", "adaptive.required_snr", None),
    ("adaptive", "symbol_error_rate", "montecarlo.symbol_error_rate", None),
    ("adaptive", "select_beta", "adaptive.select_beta", None),
    ("modem", "_base_ramp", "chirps.base_ramp", None),
    ("framing", "_base_ramp", "chirps.base_ramp", None),
    ("montecarlo", "_base_ramp", "chirps.base_ramp", None),
)
COMPLEX128_BYTES = 16


class NullTracer:
    """Stands in for the tracer in untraced runs; setting `op` costs nothing else."""

    op = None


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            amount = work(args, kwargs) if work else 0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, amount)

        return traced

    def install(self):
        for module_name, attr, name, work in PATCHES:
            module = importlib.import_module(f"chirplab.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work"], "spans": self.spans}, handle)

    def layers(self) -> dict:
        """Per span name: calls, total and self seconds, summed and largest work."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "max_work": 0})
        for index, (name, start, end, parent, _, work) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["work"] += work
            entry["max_work"] = max(entry["max_work"], work)
        return out

    def child_work(self, name: str, parent_name: str) -> int:
        return sum(span[5] for span in self.spans
                   if span[0] == name and span[3] is not None and self.spans[span[3]][0] == parent_name)


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as (value, unit, spans behind it) by name."""
    layer = tracer.layers()

    def total(name, key="s"):
        return layer[name][key], "s", layer[name]["calls"]

    frames = layer["framing.detect_preamble"]["calls"]
    cells = layer["montecarlo.run_error_trials"]["calls"] + layer["montecarlo.peak_statistics"]["calls"]
    trials = layer["montecarlo.run_error_trials"]["work"] + layer["montecarlo.peak_statistics"]["work"]
    probes = layer["montecarlo.symbol_error_rate"]["calls"]
    thresholds = layer["adaptive.required_snr"]["calls"]
    noise = layer["channel.add_noise"]
    spectra = layer["modem.window_spectra"]
    return {
        "framing.detect_preamble.s": total("framing.detect_preamble"),
        "framing.detect_preamble.self_s": total("framing.detect_preamble", "self_s"),
        "framing.sync_windows_per_frame": (
            ratio(tracer.child_work("modem.window_spectra", "framing.detect_preamble"), frames), "count", frames),
        "framing.decode_frame.s": total("framing.decode_frame"),
        "modem.window_spectra.s": total("modem.window_spectra"),
        "modem.window_spectra.windows": (spectra["work"], "count", spectra["calls"]),
        "modem.demodulate.s": total("modem.demodulate"),
        "modem.decide_symbols.s": total("modem.decide_symbols"),
        "modem.bit_errors.s": total("modem.bit_errors"),
        "channel.add_noise.s": total("channel.add_noise"),
        "channel.noise_samples_per_trial": (ratio(noise["work"], trials), "count", cells),
        "channel.max_chunk_mb": (noise["max_work"] * COMPLEX128_BYTES / 1e6, "MB", noise["calls"]),
        "iqfile.read_iq.s": total("iqfile.read_iq"),
        "montecarlo.run_error_trials.self_s": total("montecarlo.run_error_trials", "self_s"),
        "montecarlo.peak_statistics.s": total("montecarlo.peak_statistics"),
        "montecarlo.derive_rng.calls": (layer["montecarlo.derive_rng"]["calls"], "count", None),
        "montecarlo.trials_per_cell": (ratio(trials, cells), "count", cells),
        "experiments.run_ber_sweep.s": total("experiments.run_ber_sweep"),
        "experiments.run_peak_experiment.s": total("experiments.run_peak_experiment"),
        "adaptive.ser_probes": (probes, "count", None),
        "adaptive.probes_per_threshold": (ratio(probes, thresholds), "count", thresholds),
        "adaptive.select_beta.s": total("adaptive.select_beta"),
        "chirps.base_ramp.calls": (layer["chirps.base_ramp"]["calls"], "count", None),
        "trace.overhead": (overhead, "ratio", 1),
    }
