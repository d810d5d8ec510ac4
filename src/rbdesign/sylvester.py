"""The Sylvester graph: 36 vertices, 5-regular, girth 5, built from K6.

Construction: K6 on points 1..6 has 15 edges (duads), 15 perfect matchings
(one-factors), and exactly six one-factorizations d1..d6, any two of which
share exactly one one-factor.  Vertices of the graph are the cells of a 6x6
array whose rows are the K6 points and whose columns are the
one-factorizations; the shared one-factor of columns di, dj contributes six
edges between those columns, pairing rows by its duads.

Cells map to variety numbers row-major: variety = 6*(row-1) + column.  A
starfish is a vertex plus its five neighbours (one in each other row and
column); the six starfish centred on one column partition all 36 cells (a
galaxy) and underpin the gamma design family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import InternalError, ShapeMismatchError, _exact_covers

if TYPE_CHECKING:
    import numpy as np

POINTS = (1, 2, 3, 4, 5, 6)

Duad = tuple[int, int]
OneFactor = tuple[Duad, Duad, Duad]


@dataclass(frozen=True)
class OneFactorization:
    """Five one-factors covering each K6 edge exactly once."""

    label: str
    factors: tuple[OneFactor, ...]

    def __post_init__(self):
        duads = [d for f in self.factors for d in f]
        if len(self.factors) != 5 or sorted(duads) != sorted(one_factors_duads()):
            raise ShapeMismatchError(f"not a one-factorization: {self.factors}")

    def factor_set(self) -> frozenset[OneFactor]:
        return frozenset(self.factors)


@lru_cache(maxsize=1)
def one_factors_duads() -> tuple[Duad, ...]:
    return tuple(itertools.combinations(POINTS, 2))


@lru_cache(maxsize=1)
def one_factors() -> tuple[OneFactor, ...]:
    """All 15 perfect matchings of K6, each as a sorted triple of duads: the
    exact covers of the points by duads through the lowest uncovered point
    (``core._exact_covers``)."""
    def duads(a: int, covered: frozenset[int]):
        return (((a, b), (a, b)) for b in POINTS if b != a and b not in covered)

    return tuple(sorted(tuple(f) for f in _exact_covers(POINTS, duads)))


def _factor(text: str) -> OneFactor:
    duads = tuple(sorted(tuple(sorted(int(c) for c in part)) for part in text.split("|")))
    return duads  # type: ignore[return-value]


# Canonical order and labels for the six one-factorizations.  This fixes
# which column of the array is d1, d2, ..., and therefore the variety
# numbering every design family uses; the enumeration below is checked to
# produce exactly this set.
_CANONICAL_ROWS = (
    ("d1", ("12|36|45", "13|24|56", "14|35|26", "15|23|46", "16|25|34")),
    ("d2", ("12|36|45", "13|25|46", "14|23|56", "15|26|34", "16|24|35")),
    ("d3", ("12|34|56", "13|25|46", "14|35|26", "15|24|36", "16|23|45")),
    ("d4", ("12|34|56", "13|26|45", "14|25|36", "15|23|46", "16|24|35")),
    ("d5", ("12|46|35", "13|26|45", "14|23|56", "15|24|36", "16|25|34")),
    ("d6", ("12|46|35", "13|24|56", "14|25|36", "15|26|34", "16|23|45")),
)


@lru_cache(maxsize=1)
def enumerate_one_factorizations() -> tuple[OneFactorization, ...]:
    """Exhaustively enumerate the one-factorizations of K6 (exactly six).

    The exact covers of the edges by one-factors through the lowest
    uncovered edge (``core._exact_covers``); the result is returned in the
    canonical d1..d6 order, and it is an error if the enumeration disagrees
    with that canonical set.
    """
    def factors(edge: Duad, covered: frozenset[Duad]):
        return ((f, f) for f in one_factors() if edge in f and covered.isdisjoint(f))

    found = {tuple(sorted(c)) for c in _exact_covers(one_factors_duads(), factors)}
    canonical = tuple(
        OneFactorization(label, tuple(sorted(_factor(t) for t in row)))
        for label, row in _CANONICAL_ROWS
    )
    if found != {f.factors for f in canonical}:
        raise InternalError("one-factorization enumeration disagrees with the canonical set")
    return canonical


def common_factor(di: OneFactorization, dj: OneFactorization) -> OneFactor:
    """The unique one-factor shared by two distinct one-factorizations."""
    if di == dj:
        raise ShapeMismatchError("common_factor requires two distinct one-factorizations")
    shared = di.factor_set() & dj.factor_set()
    if len(shared) != 1:
        raise InternalError(f"{di.label} and {dj.label} share {len(shared)} one-factors, not 1")
    return next(iter(shared))


def variety_of_cell(row: int, col: int) -> int:
    """Variety number of array cell (row, column), both 1..6."""
    return 6 * (row - 1) + col


def cell_of_variety(x: int) -> tuple[int, int]:
    return (x - 1) // 6 + 1, (x - 1) % 6 + 1


@dataclass(frozen=True)
class Graph36:
    """Simple undirected graph on the 36 array cells (as variety numbers)."""

    edges: frozenset[tuple[int, int]]  # each edge as (u, v) with u < v

    def neighbors(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(
            v if u == x else u for (u, v) in self.edges if x in (u, v)
        ))

    def adjacency_matrix(self) -> np.ndarray:
        import numpy as np

        adj = np.zeros((36, 36), dtype=np.int64)
        for u, v in self.edges:
            adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1
        return adj

    def edge_list(self) -> list[tuple[int, int]]:
        """Sorted 1-based edge list for export."""
        return sorted(self.edges)


@lru_cache(maxsize=1)
def sylvester_graph() -> Graph36:
    """Build the graph from the canonical one-factorizations."""
    ds = enumerate_one_factorizations()
    edges = set()
    for i, j in itertools.combinations(range(6), 2):
        shared = common_factor(ds[i], ds[j])
        for a, b in shared:
            for u, v in (
                (variety_of_cell(a, i + 1), variety_of_cell(b, j + 1)),
                (variety_of_cell(b, i + 1), variety_of_cell(a, j + 1)),
            ):
                edges.add((min(u, v), max(u, v)))
    return Graph36(edges=frozenset(edges))


@dataclass(frozen=True)
class StructureCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SylvesterReport:
    checks: tuple[StructureCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[StructureCheck]:
        return [c for c in self.checks if not c.ok]


def _first_pair(mask: np.ndarray) -> list[tuple[int, int]]:
    """The first 1-based pair i < j, row-major, where mask holds (or [])."""
    import numpy as np

    return [(int(i) + 1, int(j) + 1) for i, j in np.argwhere(np.triu(mask, 1))[:1]]


def verify_sylvester(graph: Graph36) -> SylvesterReport:
    """Run every structural check; failures name the property and a witness.

    The checks are identities of the adjacency matrix A, of A^2 and of the
    same-row and same-column relations R and C."""
    import numpy as np

    checks: list[StructureCheck] = []
    adj = graph.adjacency_matrix()
    row, col = np.divmod(np.arange(36), 6)
    in_row, in_col = row[:, None] == row, col[:, None] == col  # I + R, I + C
    identity = np.eye(36, dtype=np.int64)
    off = ~in_row & ~in_col  # J - I - R - C: the off-row, off-column cells

    bad = (np.flatnonzero(adj.sum(axis=1) != 5) + 1).tolist()
    checks.append(StructureCheck(
        "5-regular", not bad, f"vertices with degree != 5: {bad}" if bad else ""))

    n_edges = int(adj.sum()) // 2
    checks.append(StructureCheck(
        "90 edges", n_edges == 90, f"found {n_edges}" if n_edges != 90 else ""))

    a2 = adj @ adj
    tri = _first_pair((adj > 0) & (a2 > 0))
    quad = _first_pair(a2 >= 2)
    checks.append(StructureCheck(
        "no triangles", not tri, f"adjacent pair with common neighbour: {tri}" if tri else ""))
    checks.append(StructureCheck(
        "no quadrilaterals", not quad, f"pair with two common neighbours: {quad}" if quad else ""))

    # x has a neighbour in the row (column) of y exactly when y is off x's row (column)
    miss = ((adj @ in_row > 0) == in_row) | ((adj @ in_col > 0) == in_col)
    bad_rc = (np.flatnonzero(miss.any(axis=1)) + 1).tolist()
    checks.append(StructureCheck(
        "neighbours hit 5 distinct other rows and columns", not bad_rc,
        f"violating vertices: {bad_rc}" if bad_rc else ""))

    ball = (identity + adj + a2) > 0
    bad_d2 = (np.flatnonzero((ball != (off | (identity > 0))).any(axis=1)) + 1).tolist()
    checks.append(StructureCheck(
        "distance <= 2 covers exactly the off-row, off-column cells", not bad_d2,
        f"violating vertices: {bad_d2}" if bad_d2 else ""))

    checks.append(_association_scheme_check(
        [identity, in_row - identity, in_col - identity, adj, off - adj]))
    return SylvesterReport(checks=tuple(checks))


def _association_scheme_check(relations: list[np.ndarray]) -> StructureCheck:
    """Same row / same column / adjacent / other must close under products.

    Exact integer test on the relation matrices I, R, C, A and the
    off-row, off-column cells outside A: every product of two must be a
    non-negative integer combination of the five, i.e. constant on each
    relation class.
    """
    import numpy as np

    if np.any(relations[-1] < 0):
        return StructureCheck("association scheme", False, "relation classes overlap")
    for i, ri in enumerate(relations):
        for j, rj in enumerate(relations):
            product = ri @ rj
            for m, rel in enumerate(relations):
                vals = set(product[rel == 1].tolist())
                if len(vals) > 1:
                    return StructureCheck(
                        "association scheme", False,
                        f"product of relations {i},{j} not constant on class {m}: {sorted(vals)}")
    return StructureCheck("association scheme", True)


def starfish(graph: Graph36, center: int) -> frozenset[int]:
    """A vertex together with its five neighbours."""
    return frozenset((center, *graph.neighbors(center)))


def galaxy(graph: Graph36, column: int) -> tuple[tuple[int, ...], ...]:
    """The six starfish centred on one column's cells, ordered by centre row.

    They partition the 36 cells, every starfish meeting each row and each
    column exactly once (the galaxy reads as a Latin square); both facts are
    checked (InternalError) because the design families rely on them.
    """
    if not 1 <= column <= 6:
        raise ShapeMismatchError(f"column must be 1..6, got {column}")
    blocks = tuple(
        tuple(sorted(starfish(graph, variety_of_cell(row, column))))
        for row in range(1, 7)
    )
    if sorted(x for b in blocks for x in b) != list(range(1, 37)):
        raise InternalError(f"galaxy of column {column} does not partition the cells")
    for b in blocks:
        for axis in (0, 1):
            if sorted(cell_of_variety(x)[axis] for x in b) != [1, 2, 3, 4, 5, 6]:
                raise InternalError(f"starfish {b} misses a row or column")
    return blocks
