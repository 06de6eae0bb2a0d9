"""Ultrasonic FH-CDMA indoor localization simulation lab.

Modules:
  waveform   Walsh-Hadamard coded, frequency-hopped BPSK burst synthesis
  channel    direct-path delays, Rayleigh multipath, AWGN
  ranging    despreading, matched-filter correlation, range estimation
  solver     linearized least-squares trilateration
  dop        HDOP/VDOP/GDOP geometry analysis and the 2-D error bound
  placement  evolutionary beacon-placement optimization
  fusion     ceiling-rangefinder height blending
  harness    Monte Carlo experiment driver and result emitters
"""

from .channel import (
    OPTIMIZED_LAYOUT,
    ORIGINAL_LAYOUT,
    SPEED_OF_SOUND,
    BeaconLayout,
    ChannelConfig,
    ChannelModel,
    Scene,
    apply_channel,
    direct_delays,
    sample_multipath,
)
from .config import SimConfig, default_config, load_config
from .dop import (
    DopReport,
    DroneDomain,
    crb_2d,
    dop_at,
    dop_average,
)
from .fusion import FusionConfig, fuse_height, simulate_ceiling_echo
from .harness import TrialRecord, make_trajectory, run_fix, run_trajectory, simulate, sweep_snr
from .placement import BeaconDomain, PlacementConfig, PlacementProblem, PlacementResult, optimize
from .ranging import (
    RangeEstimates,
    cross_correlate,
    decode_bits,
    despread,
    estimate_ranges,
)
from .solver import trilaterate
from .waveform import (
    SampledSignal,
    WaveformConfig,
    generate_tx_signals,
    random_hop_plan,
    walsh_rows,
)

__version__ = "0.1.0"
