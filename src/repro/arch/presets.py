"""Edge and cloud accelerator presets (paper Figure 7(a)).

==========  ========  ===============  ==========  ===========
Platform    PEs       On-chip buffer   On-chip BW  Off-chip BW
==========  ========  ===============  ==========  ===========
Edge        32 x 32   512 KB           1 TB/s      50 GB/s
Cloud       256 x 256 32 MB            8 TB/s      400 GB/s
==========  ========  ===============  ==========  ===========

Both run at 1 GHz with 16-bit datatypes.  The SFU is sized (per section
6.1) "to not bottleneck the compute flow": one element per PE per cycle,
so a four-pass softmax costs ~4/(2*dk) of the surrounding GEMM time and
never dominates.
"""

from __future__ import annotations

from functools import lru_cache

from repro.arch.accelerator import Accelerator
from repro.arch.memory import OffChipSpec, ScratchpadSpec
from repro.arch.noc import NoCKind, NoCSpec
from repro.arch.pe_array import PEArray
from repro.arch.sfu import SFUSpec

__all__ = ["edge", "cloud", "PLATFORMS", "get_platform"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def edge(noc_kind: NoCKind = NoCKind.SYSTOLIC) -> Accelerator:
    """The edge platform: 32x32 PEs, 512 KB SG, 1 TB/s / 50 GB/s."""
    array = PEArray(rows=32, cols=32)
    return Accelerator(
        name="edge",
        pe_array=array,
        scratchpad=ScratchpadSpec(size_bytes=512 * KB, bandwidth_bytes_per_sec=1e12),
        offchip=OffChipSpec(bandwidth_bytes_per_sec=50e9),
        noc=NoCSpec(kind=noc_kind, words_per_cycle=array.rows + array.cols),
        sfu=SFUSpec(elements_per_cycle=array.num_pes),
        frequency_hz=1e9,
        bytes_per_element=2,
    )


def cloud(noc_kind: NoCKind = NoCKind.SYSTOLIC) -> Accelerator:
    """The cloud platform: 256x256 PEs, 32 MB SG, 8 TB/s / 400 GB/s."""
    array = PEArray(rows=256, cols=256)
    return Accelerator(
        name="cloud",
        pe_array=array,
        scratchpad=ScratchpadSpec(size_bytes=32 * MB, bandwidth_bytes_per_sec=8e12),
        offchip=OffChipSpec(bandwidth_bytes_per_sec=400e9),
        noc=NoCSpec(kind=noc_kind, words_per_cycle=array.rows + array.cols),
        sfu=SFUSpec(elements_per_cycle=array.num_pes),
        frequency_hz=1e9,
        bytes_per_element=2,
    )


PLATFORMS = {"edge": edge, "cloud": cloud}


@lru_cache(maxsize=None)
def _preset(name: str) -> Accelerator:
    return PLATFORMS[name]()


def get_platform(name: str) -> Accelerator:
    """Look up a platform preset by name (``"edge"`` or ``"cloud"``).

    Each name's preset is built once and shared: an
    :class:`Accelerator` is frozen, so callers derive variants with
    ``dataclasses.replace``.
    """
    try:
        return _preset(name)
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; choose from {sorted(PLATFORMS)}"
        ) from None
