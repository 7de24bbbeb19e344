"""Query-serving subsystem: answer density queries, don't scan volumes.

The compute engines (:mod:`repro.core`, :mod:`repro.parallel`) produce
whole density volumes; this package serves *queries* against either those
volumes or the raw events:

* :class:`~repro.core.index.BucketIndex` — ``hs x hs x ht`` bucket index
  enabling O(neighbours) direct kernel sums (re-exported here);
* :mod:`~repro.serve.engine` — vectorised batch execution (direct sums,
  trilinear lookups, ε-budgeted importance-sampled sums, slice/region
  extraction over region-buffer views);
* :class:`~repro.serve.planner.QueryPlanner` — prices direct-sum vs
  volume-lookup through the Section 6.5 cost model, per batch;
* :class:`~repro.serve.cache.QueryCache` — version-keyed LRU over results,
  invalidated by live-source mutations (``slide_window``);
* :class:`~repro.serve.shard.Shard` — one disjoint subset of the events
  (static snapshot or live window) behind its index, answering kernel
  sums at points and stamped regions with the prefactor as an argument;
* :class:`~repro.serve.service.DensityService` — the one service: hosts
  a shard in process and owns the request skeleton (validation,
  prefactor, planner, cache, stats, the mutation surface; ``repro query``
  on the CLI);
* :class:`~repro.serve.service.ShardedDensityService` — the same service
  plus a sharded arm: one :class:`~repro.serve.worker.ShardWorker`
  process per shard of a :class:`~repro.serve.shard.ShardPlan`, each
  hosting the same ``Shard`` class and returning unnormalised partials
  the coordinator adds (``repro serve --workers N``);
* :class:`~repro.serve.frontend.TrafficFrontend` — the asyncio traffic
  front end: coalesces concurrent point requests into cohort batches,
  schedules lanes by critical ratio, sheds past a cost-priced admission
  budget (``repro serve --frontend``);
* :class:`~repro.serve.supervisor.ShardSupervisor` /
  :mod:`~repro.serve.errors` / :mod:`~repro.serve.faults` — the
  self-healing layer: supervised respawn with replay-based recovery, a
  typed fault surface (:class:`ShardFailed` / :class:`ShardTimeout` /
  coverage-tagged :class:`PartialResult` degraded reads), and the
  deterministic fault-injection harness (``REPRO_FAULTS``).
"""

from ..core.index import BucketIndex
from .cache import QueryCache, digest_queries
from .calibrate import calibrate_ipc, calibrate_serving
from .errors import (
    CircuitOpen,
    PartialResult,
    ServeError,
    ShardDown,
    ShardFailed,
    ShardTimeout,
)
from .faults import FaultPlan, FaultSpec
from .engine import (
    RegionResult,
    approx_sum,
    direct_region,
    direct_sum,
    region_view,
    sample_volume,
    slice_window,
)
from .frontend import Overloaded, TrafficFrontend
from .planner import QueryPlan, QueryPlanner, ScatterPlan
from .service import DensityService, ShardedDensityService
from .shard import Shard, ShardPlan, plan_shards
from .supervisor import ShardLog, ShardSupervisor
from .worker import ShardWorker

__all__ = [
    "BucketIndex",
    "CircuitOpen",
    "DensityService",
    "FaultPlan",
    "FaultSpec",
    "Overloaded",
    "PartialResult",
    "QueryCache",
    "QueryPlan",
    "QueryPlanner",
    "RegionResult",
    "ScatterPlan",
    "ServeError",
    "Shard",
    "ShardDown",
    "ShardFailed",
    "ShardLog",
    "ShardPlan",
    "ShardSupervisor",
    "ShardTimeout",
    "ShardWorker",
    "ShardedDensityService",
    "TrafficFrontend",
    "approx_sum",
    "calibrate_ipc",
    "calibrate_serving",
    "digest_queries",
    "direct_region",
    "direct_sum",
    "plan_shards",
    "region_view",
    "sample_volume",
    "slice_window",
]
