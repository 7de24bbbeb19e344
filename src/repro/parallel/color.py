"""The colour DAG of point-decomposition scheduling (Section 5.2).

The occupied blocks of a block decomposition form a **27-point stencil
graph**: two blocks conflict iff they are within Chebyshev distance 1 of
each other (their points' cylinders may overlap).  Any proper colouring of
that graph yields a safe execution: blocks of equal colour never conflict,
and orienting every edge from lower to higher colour produces the
dependency DAG that :mod:`repro.parallel.schedule` executes (Figure 6).

:func:`block_task_graph` is the one builder, for the PD strategies and
the analyses that price them.  It finds every neighbour pair at once (the
26 stencil offsets over the occupied blocks' coordinates, looked up in
the sorted occupied ids) and colours them one of two ways:

* ``"parity"`` — the fixed 8-colour ``4(a%2) + 2(b%2) + c%2`` scheme of
  the first PB-SYM-PD implementation (Algorithm 6's eight parallel-for
  phases);
* ``"sched"`` — the paper's load-aware heuristic (PB-SYM-PD-SCHED):
  first-fit greedy [GMP05] in non-increasing load order, ties by block
  id, so heavy blocks get low colours and are scheduled first.  With
  equal loads this is the classic greedy in natural block order.

Only *occupied* blocks (those holding points) are coloured — empty
subdomains induce no task and no conflict, which on sparse datasets (Flu)
shrinks the graph by orders of magnitude.

**Order invariant.**  The pairs are emitted row-major over (task, offset),
offsets in ``(da, db, dc)`` lexicographic order, so every ``succs`` and
``preds`` list is ascending in task index.  ``TaskGraph.topological_order``
pops ready tasks LIFO, so these lists fix the serial stamping order and
hence the bits of a PD volume.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from .partition import BlockDecomposition
from .schedule import TaskGraph

__all__ = ["block_task_graph"]

#: The 26 stencil offsets in ``(da, db, dc)`` lexicographic order.
_OFFSETS = np.array(
    [d for d in itertools.product((-1, 0, 1), repeat=3) if d != (0, 0, 0)],
    dtype=np.int64,
)


def block_task_graph(
    dec: BlockDecomposition, loads: Dict[int, float], scheduler: str
) -> Tuple[TaskGraph, List[List[int]]]:
    """The colour DAG of the occupied blocks, and its colour classes.

    ``loads`` maps each occupied block to its task weight.  Task ``i`` is
    the ``i``-th occupied block in ascending id order (``graph.labels``).
    ``classes[k]`` holds the task indices of colour ``k``, ascending; a
    colour below the highest may be empty, so ``len(classes)`` is the
    number of colours.  Raises ``ValueError`` for an unknown scheduler or
    an edge between two tasks of one colour.
    """
    if scheduler not in ("parity", "sched"):
        raise ValueError(f"unknown scheduler {scheduler!r}")
    labels = sorted(loads)
    weights = [float(loads[bid]) for bid in labels]
    n = len(labels)
    if not n:
        return TaskGraph([], [], [], labels=[]), []
    ids = np.array(labels, dtype=np.int64)
    abc = np.stack([ids // (dec.B * dec.C), ids // dec.C % dec.B, ids % dec.C], 1)

    # Every (task, offset) neighbour at once; u, v are the task indices
    # of each occupied pair, row-major, so v ascends within each u.
    nbr = abc[:, None, :] + _OFFSETS
    inside = ((nbr >= 0) & (nbr < dec.shape)).all(axis=2)
    nid = (nbr[..., 0] * dec.B + nbr[..., 1]) * dec.C + nbr[..., 2]
    pos = np.minimum(np.searchsorted(ids, nid), n - 1)
    u, k = np.nonzero(inside & (ids[pos] == nid))
    v = pos[u, k]

    def rows(keep) -> List[List[int]]:
        """Each task's ``v`` over the pairs ``keep`` selects, in row order."""
        vs = v[keep].tolist()
        cut = np.searchsorted(u[keep], np.arange(n + 1)).tolist()
        return [vs[cut[t]:cut[t + 1]] for t in range(n)]

    if scheduler == "parity":
        colors = 4 * (abc[:, 0] % 2) + 2 * (abc[:, 1] % 2) + abc[:, 2] % 2
    else:
        adj, col = rows(slice(None)), [-1] * n
        for t in np.lexsort((ids, -np.array(weights))).tolist():
            taken = {col[w] for w in adj[t]}
            c = 0
            while c in taken:
                c += 1
            col[t] = c
        colors = np.array(col, dtype=np.int64)

    cu, cv = colors[u], colors[v]
    if (cu == cv).any():
        i = int(np.argmax(cu == cv))
        raise ValueError(
            f"improper coloring: blocks {labels[u[i]]} and {labels[v[i]]} "
            f"share colour {cu[i]}"
        )

    # u's successors are its higher-coloured neighbours, its predecessors
    # its lower-coloured ones; both keep the row order.
    graph = TaskGraph(weights, rows(cu < cv), rows(cu > cv), labels=labels)
    classes = [np.flatnonzero(colors == c).tolist()
               for c in range(int(colors.max()) + 1)]
    return graph, classes
