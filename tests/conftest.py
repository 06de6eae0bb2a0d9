import numpy as np
import pytest

from ultraloc import waveform as wf


@pytest.fixture(scope="session")
def walsh4():
    return wf.walsh_rows(4, 4)


def make_burst_config(sample_rate=wf.SAMPLE_RATE, symbol_duration=wf.SYMBOL_DURATION, **keys):
    return wf.WaveformConfig(sample_rate=sample_rate, symbol_duration=symbol_duration, **keys)


def single_channel_plan(n_symbols, freq=22_500.0, phase=0.0, **rates):
    """A config whose bank is one channel, and hops that park every symbol on it."""
    config = make_burst_config(
        center_frequencies=(freq,), carrier_phase=phase, hop_reuse_window=0, **rates
    )
    return config, np.zeros(n_symbols, dtype=np.int64)
