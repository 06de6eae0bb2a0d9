import numpy as np
import pytest

from ultraloc import waveform as wf


@pytest.fixture(scope="session")
def walsh4():
    return wf.walsh_hadamard(4)


def make_burst_config(bits, sample_rate=wf.SAMPLE_RATE, symbol_duration=wf.SYMBOL_DURATION):
    return wf.WaveformConfig(
        sample_rate=sample_rate,
        symbol_duration=symbol_duration,
        data_bits=np.asarray(bits, dtype=np.int64),
    )


def single_channel_plan(n_symbols, freq=22_500.0, phase=0.0):
    """Hop plan that parks every symbol on one channel."""
    return wf.HopPlan(
        center_frequencies=(freq,),
        hop_sequence=np.zeros(n_symbols, dtype=np.int64),
        carrier_phase=phase,
    )
