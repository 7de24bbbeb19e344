"""One window rule, three holders, one model.

The estimator, a shard worker's live :class:`~repro.serve.shard.Shard`
and the coordinator's :class:`~repro.serve.supervisor.ShardLog` all keep
a live window by the same rule: ``add`` inserts, ``slide`` retires every
event with ``t < horizon`` and then inserts, ``remove`` deletes a
multiset of live rows or raises with nothing changed.  A hypothesis state
machine feeds one random sequence of those (rows drawn from a small pool,
so duplicates are common; horizons include ``±inf``) to all three and
checks each against a plain list of rows: the count, the earliest time,
each slide's retired count and the multiset of live rows.  The
estimator's ``volume()`` must also equal, bit for bit, a cold estimator
re-fed its live batches with slabbing off.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import DomainSpec, GridSpec
from repro.core.incremental import IncrementalSTKDE
from repro.serve.shard import Shard
from repro.serve.supervisor import ShardLog
from tests.helpers import multiset

GRID = GridSpec(DomainSpec.from_voxels(16, 16, 32), hs=1.0, ht=1.0)
_rng = np.random.default_rng(5)
#: Mostly a tight xy cluster (so batches cut into t-slab units), plus a
#: few rows spread over the domain (so some batches stay whole); values
#: on a quarter grid, so drawn rows repeat exactly.
POOL = np.round(4 * np.vstack([
    _rng.uniform([2, 2, 0], [5, 5, 32], size=(30, 3)),
    _rng.uniform([0, 0, 0], [16, 16, 32], size=(10, 3)),
])) / 4
ROWS = st.lists(st.integers(0, len(POOL) - 1), max_size=14)
HORIZONS = st.one_of(
    st.sampled_from([-np.inf, np.inf]),
    st.floats(-1.0, 33.0).map(lambda t: np.round(4 * t) / 4),
)


def log_rows(log: ShardLog) -> np.ndarray:
    """The rows a replay of ``log`` would ship."""
    return np.concatenate(
        [payload for _, payload in log.replay()] + [np.empty((0, 3))]
    )


class WindowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model: list = []  # the live rows, as tuples
        self.inc = IncrementalSTKDE(GRID)
        self.shard = Shard(GRID, "epanechnikov")
        self.log = ShardLog()

    def _rows(self, idx) -> np.ndarray:
        return POOL[np.asarray(idx, dtype=np.int64)].reshape(-1, 3)

    @rule(idx=ROWS)
    def add(self, idx):
        rows = self._rows(idx)
        self.inc.add(rows)
        self.shard.add(rows)
        self.log.add(rows)
        self.model.extend(map(tuple, rows))

    @rule(idx=ROWS, horizon=HORIZONS)
    def slide(self, idx, horizon):
        rows = self._rows(idx)
        kept = [r for r in self.model if r[2] >= horizon]
        retired = len(self.model) - len(kept)
        assert self.inc.slide_window(rows, horizon) == retired
        assert self.shard.slide(rows, horizon) == retired
        assert self.log.slide(rows, horizon) == retired
        self.model = kept + list(map(tuple, rows))

    @rule(idx=ROWS)
    def remove(self, idx):
        """Any multiset of pool rows: live ones go, anything else (not
        live, or beyond its live multiplicity) raises and changes
        nothing."""
        rows = self._rows(idx)
        want, have = Counter(map(tuple, rows)), Counter(self.model)
        if all(have[r] >= k for r, k in want.items()):
            for holder in (self.inc, self.shard, self.log):
                holder.remove(rows)
            self.model = list((have - want).elements())
            return
        for holder in (self.inc, self.shard, self.log):
            with pytest.raises(ValueError, match="not live|present"):
                holder.remove(rows)

    @rule()
    def volume_is_a_cold_replay(self):
        cold = IncrementalSTKDE(GRID, t_slab_voxels=None)
        for _, rows in self.inc.live_batches:
            cold.add(rows)
        np.testing.assert_array_equal(
            self.inc.volume().data, cold.volume().data
        )

    @invariant()
    def holders_match_the_model(self):
        want = multiset(np.array(self.model).reshape(-1, 3))
        min_t = min((r[2] for r in self.model), default=np.inf)
        for n, t, rows in (
            (self.inc.n, self.inc.min_t, self.inc.live_coords),
            (self.shard.events, None, self.shard.rows()),
            (self.log.n, self.log.min_t, log_rows(self.log)),
        ):
            assert n == len(self.model)
            assert t is None or t == min_t
            np.testing.assert_array_equal(multiset(rows), want)


TestWindowMachine = WindowMachine.TestCase
TestWindowMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
