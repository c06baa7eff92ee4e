"""Affine filter bank modulation: waveform, channel, detection, metrics.

The public surface mirrors the processing chain.  `design_config` and
`AfbmModem` build the transmitter and the two receive front ends,
`channel` provides the doubly-dispersive ensemble, `equalize` the MMSE
detectors, and `metrics` the SIR and BER figures of merit.  `cli` wraps
the whole thing in reproducible YAML-driven experiments.
"""

__version__ = "0.3.0"

from .channel import (ChannelConfig, ChannelRealization, PathSpec,
                      add_awgn, apply_channel, channel_matrix,
                      sample_channel, trial_stream)
from .equalize import (Equalizer, delta_from_gram, delta_matrix,
                       equalize_and_detect, mmse)
from .filters import (PrototypeFilter, custom_prototype, hermite_prototype,
                      phydyas_prototype)
from .metrics import (BerPoint, ConditionedSir, SirPass, SirStatistics,
                      WaveformSir, ber_curve, sir_conditioned, sir_pass,
                      sir_waveform)
from .modem import (AFFINE, FILTERED, AfbmModem, EffectiveChannel,
                    ModulationConfig, design_config, qam_alphabet,
                    qam_demap, qam_map)
from .transforms import (ChirpParams, daft_matrix, default_c1, default_c2,
                         dft_matrix, pruned_daft, synthesis_block)

__all__ = [
    "AFFINE", "FILTERED", "AfbmModem", "BerPoint", "ChannelConfig",
    "ChannelRealization", "ChirpParams", "ConditionedSir",
    "EffectiveChannel", "Equalizer", "ModulationConfig", "PathSpec",
    "PrototypeFilter", "SirPass", "SirStatistics", "WaveformSir",
    "add_awgn", "apply_channel", "ber_curve", "channel_matrix",
    "custom_prototype", "daft_matrix", "default_c1", "default_c2",
    "delta_from_gram", "delta_matrix", "design_config", "dft_matrix",
    "equalize_and_detect", "hermite_prototype", "mmse",
    "phydyas_prototype", "pruned_daft", "qam_alphabet", "qam_demap",
    "qam_map", "sample_channel", "sir_conditioned", "sir_pass",
    "sir_waveform", "synthesis_block", "trial_stream",
]
