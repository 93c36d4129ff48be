"""RIS-assisted near-field localization via joint delay/slope path classification."""

from .bounds import FimResult, cascade_snrs, fim, toa_variance
from .channel import (
    ChannelRealization,
    MultipathConfig,
    backward_direct,
    forward_direct,
    realize_channel,
)
from .geometry import RisLayout, Scene, TilePose, build_scene, toa, toa_vector
from .labeling import (
    BootstrapError,
    LabelMap,
    bootstrap_position,
    in_region,
    in_region_quadric,
    run_spl,
    spl_sort,
)
from .psp import PspAssignment, assign, psp_list
from .spectrum import SpectrumMap, ToaGroups, extract_toas, quadratic_refine, spectrum_2d
from .tdoa import PositionEstimationError, TdoaSystem, build_system, solve_position
from .waveform import FrameMatrix, WaveformConfig, frames_from_paths, synthesize_frames

__version__ = "0.1.0"

__all__ = [
    "BootstrapError",
    "ChannelRealization",
    "FimResult",
    "FrameMatrix",
    "LabelMap",
    "MultipathConfig",
    "PositionEstimationError",
    "PspAssignment",
    "RisLayout",
    "Scene",
    "SpectrumMap",
    "TdoaSystem",
    "TilePose",
    "ToaGroups",
    "WaveformConfig",
    "assign",
    "backward_direct",
    "bootstrap_position",
    "build_scene",
    "build_system",
    "cascade_snrs",
    "extract_toas",
    "fim",
    "forward_direct",
    "frames_from_paths",
    "in_region",
    "in_region_quadric",
    "psp_list",
    "quadratic_refine",
    "realize_channel",
    "run_spl",
    "solve_position",
    "spectrum_2d",
    "spl_sort",
    "synthesize_frames",
    "toa",
    "toa_variance",
    "toa_vector",
]
