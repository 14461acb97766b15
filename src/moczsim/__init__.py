"""Integrated sensing and communication simulator for zero-pattern modulation.

Packets of K bits are carried by the zeros of a transmit polynomial, decoded
noncoherently from received-polynomial magnitudes, and reused as radar pulses
through a hybrid-beamforming mmWave front end.
"""

from .channel import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    Beamformer,
    LinkBudget,
    RadarTarget,
    apply_radar_channel,
    awgn,
    dft_codebook,
    fractional_delay,
    make_beamformers,
    radar_gain,
    steering,
)
from .dizet import (
    dizet_decode,
    dizet_decode_batch,
    eval_on_zero_grid,
)
from .huffman import (
    ModulationParams,
    autocorrelation,
    derive_radius,
    derive_side_peak,
    encode,
    encode_batch,
    sequence_from_csv,
    sequence_to_csv,
)
from .radar import (
    AmbiguitySurface,
    CfarConfig,
    ambiguity_function,
    calibrate_os_alpha,
    cluster_detections,
    correlation_value_at,
    cross_correlate,
    cross_spectrum,
    estimate_delay,
    estimate_doppler,
    music_angles,
    os_cfar,
    sample_covariance,
)
from .simulate import (
    FrameSchedule,
    MonteCarloResult,
    SimConfig,
    TargetSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    run_ber,
    run_cfar_calibration,
    run_radar,
)

__version__ = "0.1.0"
