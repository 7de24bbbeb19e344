"""Sequential STKDE algorithms (Sections 2-3 of the paper).

Importing this package registers: ``vb``, ``vb-dec``, ``pb``, ``pb-disk``,
``pb-bar``, ``pb-sym``.
"""

from .base import (
    STKDEResult,
    available_algorithms,
    get_algorithm,
    parallel_algorithms,
    register_algorithm,
    sequential_algorithms,
)
from .pb import pb, stamp_point_pb
from .pb_sym import pb_sym, stamp_point_sym
from .pb_variants import pb_bar, pb_disk, stamp_point_bar, stamp_point_disk
from .vb import vb, vb_dec

__all__ = [
    "STKDEResult",
    "available_algorithms",
    "get_algorithm",
    "parallel_algorithms",
    "register_algorithm",
    "sequential_algorithms",
    "vb",
    "vb_dec",
    "pb",
    "pb_disk",
    "pb_bar",
    "pb_sym",
    "stamp_point_pb",
    "stamp_point_sym",
    "stamp_point_bar",
    "stamp_point_disk",
]
