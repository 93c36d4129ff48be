"""RIS-assisted near-field localization via joint delay/slope path classification.

Importing the package pins glibc's malloc thresholds (:func:`_pin_malloc`).
"""

import ctypes

_M_TRIM_THRESHOLD = -1  # mallopt(3) parameter numbers, glibc's malloc.h
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest allowed on 64-bit
_TRIM_THRESHOLD_BYTES = 64 << 20


def _pin_malloc() -> None:
    """Keep a trial's arrays on the heap and the heap's freed top resident.

    glibc's default thresholds are dynamic: blocks from 128 KiB up are
    mmapped, the threshold rises to the size of the largest mmapped block
    freed so far, and the heap top is returned to the system once more than
    twice the threshold lies free there.  Whether a trial's arrays (0.8 to
    6.5 MB at N = 3200, L = 16 to 64) reuse resident pages or fault fresh
    ones in on every trial then depends on which blocks the process happened
    to free before.  With fixed thresholds each trial reuses the heap pages
    of the last.  Does nothing where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_pin_malloc()

from .bounds import FimResult, cascade_snrs, fim, toa_variance
from .channel import (
    MultipathConfig,
    backward_direct,
    forward_direct,
    realize_channel,
)
from .geometry import RisLayout, Scene, build_scene, toa_vector
from .labeling import in_region, in_region_quadric, run_spl, spl_sort
from .psp import PspAssignment, assign, psp_list
from .spectrum import SpectrumMap, ToaGroups, extract_toas, quadratic_refine, spectrum_2d
from .tdoa import (
    BootstrapError,
    PositionEstimationError,
    SeedLattice,
    TdoaSystem,
    build_system,
    seed_lattice,
    solve_position,
)
from .waveform import FrameMatrix, WaveformConfig, frames_from_paths, synthesize_frames

__version__ = "0.1.0"

__all__ = [
    "BootstrapError",
    "FimResult",
    "FrameMatrix",
    "MultipathConfig",
    "PositionEstimationError",
    "PspAssignment",
    "RisLayout",
    "Scene",
    "SeedLattice",
    "SpectrumMap",
    "TdoaSystem",
    "ToaGroups",
    "WaveformConfig",
    "assign",
    "backward_direct",
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
    "seed_lattice",
    "solve_position",
    "spectrum_2d",
    "spl_sort",
    "synthesize_frames",
    "toa_variance",
    "toa_vector",
]
