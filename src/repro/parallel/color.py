"""Stencil-graph colouring for point-decomposition scheduling (Section 5.2).

The subdomains of a block decomposition form a **27-point stencil graph**:
two blocks conflict iff they are within Chebyshev distance 1 of each other
(their points' cylinders may overlap).  Any proper colouring of that graph
yields a safe execution: blocks of equal colour never conflict, and
orienting every edge from lower to higher colour produces the dependency
DAG that :mod:`repro.parallel.schedule` executes (Figure 6).

Three colourings are provided:

* :func:`parity_coloring` — the fixed 8-colour ``(a%2, b%2, c%2)`` scheme
  of the first PB-SYM-PD implementation (Algorithm 6's eight parallel-for
  phases);
* :func:`greedy_coloring` with :func:`natural_order` — classic
  smallest-available-colour greedy in lexicographic block order;
* :func:`greedy_coloring` with :func:`load_order` — the paper's
  load-aware heuristic: colour blocks in non-increasing point-count order
  so heavy blocks get low colours and are scheduled first
  (PB-SYM-PD-SCHED).

Only *occupied* blocks (those holding points) are coloured — empty
subdomains induce no task and no conflict, which on sparse datasets (Flu)
shrinks the graph by orders of magnitude.  :func:`block_task_graph` is the
one place the colour DAG is built, for the PD strategies and the analyses
that price them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .partition import BlockDecomposition
from .schedule import TaskGraph, build_task_graph

__all__ = [
    "Coloring",
    "block_task_graph",
    "stencil_neighbors",
    "occupied_neighbor_map",
    "parity_coloring",
    "natural_order",
    "load_order",
    "greedy_coloring",
    "validate_coloring",
]


def stencil_neighbors(
    dec: BlockDecomposition, a: int, b: int, c: int
) -> Iterator[Tuple[int, int, int]]:
    """The up-to-26 blocks within Chebyshev distance 1 of ``(a, b, c)``."""
    for da in (-1, 0, 1):
        aa = a + da
        if not 0 <= aa < dec.A:
            continue
        for db in (-1, 0, 1):
            bb = b + db
            if not 0 <= bb < dec.B:
                continue
            for dc in (-1, 0, 1):
                cc = c + dc
                if (da, db, dc) == (0, 0, 0):
                    continue
                if 0 <= cc < dec.C:
                    yield aa, bb, cc


def occupied_neighbor_map(
    dec: BlockDecomposition, occupied: Sequence[int]
) -> Dict[int, List[int]]:
    """Adjacency restricted to occupied blocks.

    Returns ``{block_id: [neighbouring occupied block_ids]}`` for every
    occupied block.  This is the conflict graph the colourings and the
    scheduler operate on.
    """
    occ_set = set(int(x) for x in occupied)
    adj: Dict[int, List[int]] = {}
    for bid in occ_set:
        a, b, c = dec.block_coords(bid)
        neigh = [
            dec.linear_id(aa, bb, cc)
            for aa, bb, cc in stencil_neighbors(dec, a, b, c)
        ]
        adj[bid] = [nb for nb in neigh if nb in occ_set]
    return adj


@dataclass
class Coloring:
    """A proper colouring of the occupied-block conflict graph."""

    colors: Dict[int, int]  # block_id -> colour
    n_colors: int
    method: str

    def classes(self) -> List[List[int]]:
        """Block ids grouped by colour, colour-ascending."""
        out: List[List[int]] = [[] for _ in range(self.n_colors)]
        for bid, col in sorted(self.colors.items()):
            out[col].append(bid)
        return out


def parity_coloring(dec: BlockDecomposition, occupied: Sequence[int]) -> Coloring:
    """The 8-colour parity scheme of Algorithm 6.

    Colour ``4*(a%2) + 2*(b%2) + (c%2)`` — blocks of equal colour differ by
    at least 2 in every axis where they differ at all, hence never conflict
    (given the PD block-size constraint).
    """
    colors: Dict[int, int] = {}
    for bid in occupied:
        a, b, c = dec.block_coords(int(bid))
        colors[int(bid)] = 4 * (a % 2) + 2 * (b % 2) + (c % 2)
    n = max(colors.values()) + 1 if colors else 0
    return Coloring(colors, n, method="parity")


def natural_order(occupied: Sequence[int]) -> List[int]:
    """Lexicographic block order (the classic greedy baseline)."""
    return sorted(int(x) for x in occupied)


def load_order(occupied: Sequence[int], loads: Dict[int, float]) -> List[int]:
    """Non-increasing load order; ties broken by block id for determinism.

    This is PB-SYM-PD-SCHED's ordering: the most loaded subdomains are
    coloured first, receive the smallest colours, and are therefore
    released to the scheduler earliest.
    """
    return sorted(
        (int(x) for x in occupied),
        key=lambda bid: (-loads.get(bid, 0.0), bid),
    )


def greedy_coloring(
    dec: BlockDecomposition,
    occupied: Sequence[int],
    order: Sequence[int],
    *,
    method: str = "greedy",
) -> Coloring:
    """First-fit greedy colouring along ``order``.

    Each block receives the smallest colour not used by its
    already-coloured stencil neighbours — the standard greedy scheme the
    paper cites from the graph-colouring literature [GMP05].
    """
    occ_set = set(int(x) for x in occupied)
    if set(int(x) for x in order) != occ_set:
        raise ValueError("order must be a permutation of the occupied blocks")
    colors: Dict[int, int] = {}
    for bid in order:
        a, b, c = dec.block_coords(bid)
        taken = set()
        for aa, bb, cc in stencil_neighbors(dec, a, b, c):
            nb = dec.linear_id(aa, bb, cc)
            col = colors.get(nb)
            if col is not None:
                taken.add(col)
        col = 0
        while col in taken:
            col += 1
        colors[bid] = col
    n = max(colors.values()) + 1 if colors else 0
    return Coloring(colors, n, method=method)


def block_task_graph(
    dec: BlockDecomposition, loads: Dict[int, float], scheduler: str
) -> Tuple[TaskGraph, Coloring]:
    """The colour DAG of the occupied blocks, and its colouring.

    ``loads`` maps each occupied block to its task weight.  ``"parity"``
    colours by Algorithm 6's eight classes (PB-SYM-PD), ``"sched"``
    greedily in non-increasing load order (PB-SYM-PD-SCHED); the stencil
    edges are then oriented by colour.  Task ``i`` is the ``i``-th
    occupied block in ascending id order (``graph.labels``).
    """
    occupied = sorted(loads)
    if scheduler == "parity":
        coloring = parity_coloring(dec, occupied)
    elif scheduler == "sched":
        coloring = greedy_coloring(
            dec, occupied, load_order(occupied, loads), method="load-aware"
        )
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    adjacency = occupied_neighbor_map(dec, occupied)
    graph, _ = build_task_graph(coloring, adjacency, loads)
    return graph, coloring


def validate_coloring(
    dec: BlockDecomposition, coloring: Coloring, occupied: Sequence[int]
) -> bool:
    """True iff no two adjacent occupied blocks share a colour."""
    adj = occupied_neighbor_map(dec, occupied)
    for bid, neighbors in adj.items():
        for nb in neighbors:
            if coloring.colors[bid] == coloring.colors[nb]:
                return False
    return True
