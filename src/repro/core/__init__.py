"""Core substrate: kernels, domain/grid model, invariants, instrumentation,
and the batched stamping engine shared by every point-based algorithm."""

from .grid import DomainSpec, GridSpec, PointSet, Volume, VoxelWindow
from .instrument import PhaseTimer, WorkCounter
from .invariants import bar_table, disk_table, stamp_extent
from .kernels import KernelPair, available_kernels, get_kernel, register_kernel
from .regions import (
    RegionBuffer,
    ShardPlan,
    accumulate_voxel_tile,
    batch_bbox,
    plan_stamp_shards,
)
from .stamping import STAMP_MODES, batch_windows, stamp_batch

__all__ = [
    "STAMP_MODES",
    "batch_windows",
    "stamp_batch",
    "accumulate_voxel_tile",
    "batch_bbox",
    "RegionBuffer",
    "ShardPlan",
    "plan_stamp_shards",
    "DomainSpec",
    "GridSpec",
    "PointSet",
    "Volume",
    "VoxelWindow",
    "PhaseTimer",
    "WorkCounter",
    "KernelPair",
    "available_kernels",
    "get_kernel",
    "register_kernel",
    "bar_table",
    "disk_table",
    "stamp_extent",
]
