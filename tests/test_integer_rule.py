"""The one integer rule, chirps.check_integer, at every seed, count, length, offset and index argument."""
import argparse
import re

import numpy as np
import pytest

from chirplab import cli
from chirplab.adaptive import LinkHistory, ThresholdTable
from chirplab.channel import ChannelConfig
from chirplab.chirps import FULL_PERIOD, LoraParams, ReductionFactor, check_integer
from chirplab.experiments import ExperimentConfig
from chirplab.framing import FrameSpec, build_frame, decode_frame, detect_preamble, time_saving
from chirplab.modem import demodulate
from chirplab.montecarlo import TAG_BER, derive_rng, run_error_trials

SF7 = LoraParams(sf=7, bw=125e3)
FRAME = build_frame(FrameSpec(payload=(1, 2, 3), rf=ReductionFactor(0.5)), SF7)
ONE_UPCHIRP_FRAME = build_frame(FrameSpec(payload=(1, 2, 3), rf=ReductionFactor(0.5), preamble_len=1), SF7)
TABLE = {"entries": {(7, 1.0): -7.5}, "target_ser": 1e-3, "trials": 10_000, "seed": 0}


def toa(ns):
    return cli.cmd_toa(argparse.Namespace(sf=7, bw=125e3, beta=1.0, ns=ns, preamble_len=8))


# (site, the argument as its message names it, the least value the site takes, a call passing the value)
SITES = [
    ("derive_rng", "seed", 0, lambda v: derive_rng(v, TAG_BER, 7, 1.0)),
    ("_received", "trials", 1, lambda v: run_error_trials(SF7, FULL_PERIOD, [0.0], v, 0)),
    ("ChannelConfig", "seed", 0, lambda v: ChannelConfig(snr_db=0.0, seed=v)),
    ("ExperimentConfig.trials", "trials", 1, lambda v: ExperimentConfig(trials=v)),
    ("ExperimentConfig.seed", "seed", 0, lambda v: ExperimentConfig(seed=v)),
    # below 10 / target_ser trials, validate names the resolution rule, and the trials, instead
    ("ThresholdTable.trials", "trials", 10_000, lambda v: ThresholdTable(**{**TABLE, "trials": v}).validate()),
    ("ThresholdTable.seed", "seed", 0, lambda v: ThresholdTable(**{**TABLE, "seed": v}).validate()),
    ("FrameSpec", "preamble_len", 1, lambda v: FrameSpec(payload=(1,), rf=FULL_PERIOD, preamble_len=v)),
    ("detect_preamble", "preamble_len", 1, lambda v: detect_preamble(ONE_UPCHIRP_FRAME, SF7, v)),
    ("decode_frame.offset", "offset", 0, lambda v: decode_frame(FRAME, v, SF7)),
    ("decode_frame.preamble_len", "preamble_len", 1, lambda v: decode_frame(ONE_UPCHIRP_FRAME, 0, SF7, v)),
    ("demodulate", "count", 0, lambda v: demodulate(FRAME, SF7, FULL_PERIOD, v)),
    ("LinkHistory", "capacity", 1, lambda v: LinkHistory(capacity=v)),
    ("time_saving", "n_s", 0, lambda v: time_saving(v, FULL_PERIOD, SF7)),
    ("from_index", "beta index", 0, ReductionFactor.from_index),
    ("toa", "--ns", 0, toa),
]
BAD = {"fraction": lambda minimum: 2.5, "integral float": float, "string": lambda minimum: "3",
       "bool": lambda minimum: True, "below minimum": lambda minimum: minimum - 1}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("site, name, minimum, call", SITES, ids=[site for site, *_ in SITES])
def test_site_rejects_what_the_rule_rejects(site, name, minimum, call, bad):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(BAD[bad](minimum))


@pytest.mark.parametrize("site, name, minimum, call", SITES, ids=[site for site, *_ in SITES])
def test_site_accepts_a_numpy_integer_at_the_minimum(site, name, minimum, call):
    call(np.int64(minimum))


@pytest.mark.parametrize("value, message", [(2.5, "n must be an integer, got 2.5"),
                                            (3.0, "n must be an integer, got 3.0"),
                                            ("3", "n must be an integer, got '3'"),
                                            (None, "n must be an integer, got None"),
                                            (1, "n must be >= 2, got 1"),
                                            (np.int64(-4), "n must be >= 2, got -4"),
                                            (True, "n must be an integer, got True")])
def test_check_integer_messages(value, message):
    with pytest.raises(ValueError) as exc:
        check_integer("n", value, 2)
    assert str(exc.value) == message


def test_check_integer_returns_a_python_int():
    value = check_integer("n", np.int64(5), 2)
    assert value == 5 and type(value) is int
