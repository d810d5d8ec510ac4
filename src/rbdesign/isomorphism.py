"""Design isomorphism, automorphism group orders, and structural predicates.

Two block designs are isomorphic when a variety permutation plus a block
permutation maps one onto the other.  That is graph isomorphism of the
bipartite variety-block incidence graph, with repeated blocks collapsed
into one vertex colored by multiplicity (so a variety permutation
determines the block permutation and the graph's automorphism group is
exactly the design's variety-permutation group).

The Sylvester-design predicate checks that a 36-variety, 48-block design
has concurrence 2 exactly on the edges of a graph isomorphic to the
Sylvester graph and 1 elsewhere, returning the witness permutation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canon import canonical_labeling
from .core import (
    BlockDesign,
    InternalError,
    ResolvableDesign,
    ShapeMismatchError,
    _incidence,
    concurrence_matrix,
    valid_blocks,
)
from .efficiency import design_parameters, scaled_polynomial
from .sylvester import sylvester_graph


@dataclass(frozen=True)
class CanonicalForm:
    """Label-independent fingerprint: equal iff designs are isomorphic."""

    certificate: bytes
    variety_labeling: tuple[int, ...]  # variety i+1 -> canonical slot
    group_order: int


def _bipartite(biadjacency: np.ndarray) -> np.ndarray:
    """Adjacency matrix of the bipartite graph `biadjacency`: rows first, then columns."""
    rows, cols = biadjacency.shape
    return np.block([[np.zeros((rows, rows), dtype=bool), biadjacency],
                     [biadjacency.T, np.zeros((cols, cols), dtype=bool)]])


def _incidence_graph(design: ResolvableDesign | BlockDesign) -> tuple[np.ndarray, list[int], int]:
    """Colored bipartite incidence graph (varieties color 0, then the
    sorted distinct blocks, colored by multiplicity).  Returns (adjacency
    matrix, colors, v)."""
    v = design.v
    multiplicity = Counter(valid_blocks(design))
    distinct = sorted(multiplicity)
    colors = [0] * v + [multiplicity[b] for b in distinct]
    return _bipartite(_incidence(v, distinct) > 0), colors, v


@lru_cache(maxsize=512)
def canonical_form(design: ResolvableDesign | BlockDesign) -> CanonicalForm:
    """Canonical form via the colored incidence graph."""
    adj, colors, v = _incidence_graph(design)
    result = canonical_labeling(adj, colors)
    return CanonicalForm(
        certificate=result.certificate,
        variety_labeling=result.labeling[:v],
        group_order=result.group.order(),
    )


def same_spectrum(d1, d2) -> bool:
    """Exact equality of canonical-efficiency-factor multisets.

    Compared through the characteristic polynomials of the scaled
    information matrices, which is both stronger and cheaper than root
    comparison."""
    return scaled_polynomial(d1) == scaled_polynomial(d2)


def _same_rows(m1: np.ndarray, m2: np.ndarray) -> bool:
    """Equal multisets of sorted rows, which no variety permutation changes."""
    return sorted(np.sort(m1, axis=1).tolist()) == sorted(np.sort(m2, axis=1).tolist())


def are_isomorphic(d1, d2) -> bool:
    """Isomorphism test with cheap invariant rejection before canonization.

    Shape mismatch (v, r, k) is simply non-isomorphic; then concurrence
    row multisets and the spectrum must agree before certificates are
    compared."""
    if design_parameters(d1) != design_parameters(d2):
        return False
    if not _same_rows(concurrence_matrix(d1), concurrence_matrix(d2)):
        return False
    if not same_spectrum(d1, d2):
        return False
    return canonical_form(d1).certificate == canonical_form(d2).certificate


def automorphism_order(design) -> int:
    """Order of the variety-permutation group preserving the block multiset."""
    return canonical_form(design).group_order


@dataclass(frozen=True)
class SylvesterWitness:
    """Variety permutation carrying the design's concurrence-2 pairs onto
    the Sylvester graph's edges; perm[i-1] is the image of variety i."""

    permutation: tuple[int, ...]


@lru_cache(maxsize=1)
def _sylvester_labeling():
    """The Sylvester graph's boolean adjacency matrix (read-only) and its
    canonical labeling, computed once per process."""
    sigma = sylvester_graph().adjacency_matrix() == 1
    sigma.flags.writeable = False
    return sigma, canonical_labeling(sigma)


def is_sylvester_design(design: ResolvableDesign) -> SylvesterWitness | None:
    """Test for concurrence matrix 7I + J + Adj(Sylvester graph) up to a
    variety permutation.

    Requires v=36, k=6, r=8 (diagonal 8, off-diagonal in {1, 2}); the
    concurrence-2 pairs must then form a graph isomorphic to the Sylvester
    graph.  Returns a verified witness permutation, or None."""
    v, r, k = design_parameters(design)
    if (v, r, k) != (36, 8, 6):
        raise ShapeMismatchError(f"Sylvester designs have v=36, k=6, r=8; got v={v}, k={k}, r={r}")
    lam = concurrence_matrix(design)
    off = lam[~np.eye(36, dtype=bool)]
    if not set(np.unique(off).tolist()) <= {1, 2}:
        return None
    twos = lam == 2  # the diagonal is r = 8
    if np.any(twos.sum(axis=1) != 5):
        return None
    c_design = canonical_labeling(twos)
    sigma, c_sigma = _sylvester_labeling()
    if c_design.certificate != c_sigma.certificate:
        return None
    # canonical slots line up: design vertex -> slot -> sigma vertex
    slot_to_sigma = np.argsort(c_sigma.labeling)
    perm = slot_to_sigma[list(c_design.labeling)]
    if not np.array_equal(sigma[np.ix_(perm, perm)], twos):
        raise InternalError("Sylvester witness failed verification")
    return SylvesterWitness(permutation=tuple((perm + 1).tolist()))


def concurrence_equivalent(d1, d2) -> bool:
    """Is there a variety permutation taking one concurrence matrix to the
    other?  Encodes each matrix as a graph with an auxiliary vertex per
    concurrent pair, colored by the concurrence count, and compares
    canonical certificates once the concurrence rows agree as multisets."""
    m1, m2 = concurrence_matrix(d1), concurrence_matrix(d2)
    if not _same_rows(m1, m2):
        return False

    def encode(lam):
        i, j = np.nonzero(np.triu(lam, 1))  # the pairs in row-major order
        bonds = _incidence(len(lam), np.column_stack([i, j]) + 1) > 0
        colors = [0] * len(lam) + lam[i, j].tolist()
        return canonical_labeling(_bipartite(bonds), colors).certificate

    return encode(m1) == encode(m2)
