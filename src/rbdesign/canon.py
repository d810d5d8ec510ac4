"""Canonical labeling of vertex-colored graphs, with automorphism group orders.

Individualization-refinement search: colors are repeatedly refined to an
equitable partition; while cells remain, the search individualizes each
vertex of a canonically-chosen target cell in turn.  Discrete leaves yield
certificates; the lexicographically greatest certificate is canonical, and
certificate collisions between leaves expose automorphisms, whose orbits
prune sibling branches.

The group order is the product, along the first leaf's path v1..vL, of
|orbit of vi under the found automorphisms that fix v1..v(i-1)| (McKay,
"Practical graph isomorphism", 1981; McKay & Piperno, J. Symb. Comput. 60,
2014).  The product is exact because of two invariants, which any further
pruning rule must keep on the first path:

- a leaf is compared with the first leaf before the best leaf, so every leaf
  equivalent to the first leaf yields an automorphism relative to it;
- the only pruning is orbit pruning under found automorphisms that fix the
  current prefix, so every explored subtree that holds a leaf equivalent to
  the first leaf reaches one.

Together they put into the found orbit of vi every vertex that the
stabilizer of v1..v(i-1) maps vi to; the stabilizer of the whole path fixes
a discrete partition and is trivial.

Scale target is <= 90 vertices (designs on 36 varieties plus their blocks).
Refinement takes most of the labeling time, so it numbers cells by position
in the ordered partition, as nauty does, and a round recomputes only the
cells next to a vertex whose cell id just changed (see `refine`).  The
search reads each node's leaf test and target cell from the cells refine
returns, and a node tests each found automorphism against its prefix once,
adding those found since its previous orbit test.  Graphs arrive as boolean
adjacency matrices, read by refine as neighbor sets and by certificates as
the packed upper triangle of the relabeling, as nauty packs adjacency rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

Perm = tuple[int, ...]


def _orbit(points: Sequence[int], gens: Sequence[Perm]) -> set[int]:
    """Union of the orbits of `points` under the group that `gens` generate."""
    seen = set(points)
    frontier = list(points)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


@dataclass(frozen=True)
class _Group:
    """The automorphisms the search found, and the exact group order."""

    gens: tuple[Perm, ...]
    size: int

    def order(self) -> int:
        return self.size

    def generators(self) -> list[Perm]:
        return list(self.gens)


@dataclass(frozen=True)
class CanonicalLabeling:
    """labeling[v] = canonical position of vertex v; certificate is the
    relabeled (colors, adjacency) encoding, equal iff graphs isomorphic."""

    labeling: Perm
    certificate: bytes
    group: _Group


def refine(adj: Sequence[set[int]], colors: Sequence[int],
           changed: Sequence[int] | None = None) -> tuple[list[int], dict[int, list[int]]]:
    """Equitable refinement, round by round.  A vertex's signature is its
    color and the sorted colors of its neighbors; each round splits every
    cell into its signature classes in sorted signature order, so the
    partition is isomorphism-invariant.

    A cell's id is the position of its first vertex in the ordered
    partition, as in nauty.  A split then renumbers only the vertices of the
    split cell, by a map that is strictly increasing in the dense ranks, so
    signatures sort as they would under dense ranks.  A round recomputes
    signatures only in the cells holding a neighbor of a vertex whose id the
    previous round changed: in any other cell every signature is the one
    the vertex had a round earlier, which was uniform across the cell.

    By default `colors` may be any sortable values, and the first round
    recomputes every cell.  Otherwise `colors` are positional ids, and
    `changed` names the vertices whose ids differ from an equitable
    partition that `colors` refines; `_individualize` passes the rest of
    the individualized cell.

    Returns (ids, cells): ids[v] is the id of v's cell, and cells maps each
    id to the vertices of that cell in ascending order.
    """
    if changed is None:
        # each vertex's id is the number of vertices of smaller color
        first: dict = {}
        for i, v in enumerate(sorted(range(len(colors)), key=colors.__getitem__)):
            first.setdefault(colors[v], i)
        ids = [first[c] for c in colors]
        changed = range(len(ids))
    else:
        ids = list(colors)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(ids):
        cells.setdefault(c, []).append(v)
    get = ids.__getitem__
    while changed:
        touched = set(map(get, chain.from_iterable(map(adj.__getitem__, changed))))
        splits = []
        for c in touched:
            cell = cells[c]
            if len(cell) == 1:
                continue
            classes: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                classes.setdefault(tuple(sorted(map(get, adj[v]))), []).append(v)
            if len(classes) > 1:
                splits.append((c, classes))
        changed = []
        for c, classes in splits:
            pos = c
            for sig in sorted(classes):
                part = classes[sig]
                cells[pos] = part
                if pos != c:
                    for v in part:
                        ids[v] = pos
                    changed.extend(part)
                pos += len(part)
    return ids, cells


def _individualize(adj: Sequence[set[int]], colors: Sequence[int], cell: Sequence[int],
                   v: int) -> tuple[list[int], dict[int, list[int]]]:
    """Refine `colors` (equitable, with positional ids) after splitting `v`
    off the front of its cell: v keeps the cell's id, the rest of the cell
    take id + 1.  Returns refine's (ids, cells)."""
    rest = [u for u in cell if u != v]
    ids = list(colors)
    for u in rest:
        ids[u] += 1
    return refine(adj, ids, rest)


def canonical_labeling(matrix: np.ndarray, colors: Sequence[int] | None = None) -> CanonicalLabeling:
    """Canonical form of a vertex-colored undirected graph.

    matrix: the boolean adjacency matrix (symmetric, no loops); colors:
    initial classes (same canonical meaning on both sides of any
    comparison), default uniform.
    """
    n = len(matrix)
    adjsets = [set(np.flatnonzero(row).tolist()) for row in matrix]
    upper = np.triu_indices(n, 1)
    init_colors = list(colors) if colors is not None else [0] * n
    # a certificate is the colors in position order, then the upper triangle
    # of the relabeled adjacency matrix packed row-major into bits (MSB
    # first, zero-padded); refine numbers the initial cells in color order
    # and later only splits cells, so every leaf's colors are sorted
    head = ",".join(map(str, sorted(init_colors))).encode() + b";"
    autos: list[Perm] = []
    stored: set[Perm] = set()  # autos, each kept once: a repeat adds no orbit
    first: dict = {}
    best: dict = {}

    def dfs(ids: list[int], cells: dict[int, list[int]], prefix: list[int]) -> None:
        if len(cells) == n:
            vertex_at = np.argsort(ids)  # discrete partition: position -> vertex
            cert = head + np.packbits(matrix[np.ix_(vertex_at, vertex_at)][upper]).tobytes()
            if not first:
                first["cert"] = best["cert"] = cert
                first["lab"] = best["lab"] = ids
                first["path"] = prefix
                return
            for ref in (first, best):
                if cert == ref["cert"]:
                    # never the identity: the path to a leaf is readable from
                    # its discrete partition, so distinct leaves differ
                    g = tuple(vertex_at[ref["lab"]].tolist())
                    if g not in stored:
                        stored.add(g)
                        autos.append(g)
                    break
            if cert > best["cert"]:
                best["cert"] = cert
                best["lab"] = ids
            return
        # the smallest non-singleton cell, the one at the lowest position on a tie
        cell = cells[min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)[1]]
        gens: list[Perm] = []  # the found automorphisms that fix the prefix
        tested = 0  # autos[:tested] have been filtered into gens
        explored: list[int] = []
        for v in cell:
            if explored:
                gens += [g for g in autos[tested:] if all(g[p] == p for p in prefix)]
                tested = len(autos)
                if v in _orbit(explored, gens):
                    continue
            dfs(*_individualize(adjsets, ids, cell, v), prefix + [v])
            explored.append(v)

    dfs(*refine(adjsets, init_colors), [])
    del dfs  # it closes over itself: a cycle that would keep every table alive until gc
    order = 1
    gens = autos
    for v in first["path"]:
        order *= len(_orbit([v], gens))
        gens = [g for g in gens if g[v] == v]
    return CanonicalLabeling(
        labeling=tuple(best["lab"]), certificate=best["cert"],
        group=_Group(gens=tuple(autos), size=order),
    )
