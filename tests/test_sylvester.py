"""One-factorizations of K6 and the structure of the graph built from them."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdesign import ShapeMismatchError, concurrence_matrix, ResolvableDesign
from rbdesign.sylvester import (
    Graph36,
    StructureCheck,
    SylvesterReport,
    cell_of_variety,
    common_factor,
    enumerate_one_factorizations,
    galaxy,
    one_factors,
    starfish,
    sylvester_graph,
    variety_of_cell,
    verify_sylvester,
)


def test_fifteen_one_factors():
    factors = one_factors()
    assert len(factors) == 15
    for f in factors:
        assert sorted(x for duad in f for x in duad) == [1, 2, 3, 4, 5, 6]


def test_exactly_six_one_factorizations():
    assert len(enumerate_one_factorizations()) == 6


def test_enumeration_is_exhaustive_by_brute_force():
    # independent check: of all C(15,5) one-factor subsets, exactly the six
    # returned factorizations cover each edge once
    edges = list(itertools.combinations(range(1, 7), 2))
    hits = []
    for combo in itertools.combinations(one_factors(), 5):
        covered = [d for f in combo for d in f]
        if sorted(covered) == sorted(edges):
            hits.append(frozenset(combo))
    expected = {f.factor_set() for f in enumerate_one_factorizations()}
    assert set(hits) == expected
    assert len(hits) == 6


def test_canonical_labels_and_first_row():
    ds = enumerate_one_factorizations()
    assert [d.label for d in ds] == ["d1", "d2", "d3", "d4", "d5", "d6"]
    d1 = ds[0]
    assert ((1, 2), (3, 6), (4, 5)) in d1.factors
    # factors are listed by their duad containing 1
    firsts = [f[0] for f in d1.factors]
    assert firsts == [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]


def test_common_factor_examples():
    ds = {d.label: d for d in enumerate_one_factorizations()}
    assert common_factor(ds["d3"], ds["d4"]) == ((1, 2), (3, 4), (5, 6))
    assert common_factor(ds["d1"], ds["d2"]) == ((1, 2), (3, 6), (4, 5))
    with pytest.raises(ShapeMismatchError):
        common_factor(ds["d1"], ds["d1"])


def test_column_pairs_biject_with_one_factors():
    ds = enumerate_one_factorizations()
    shared = [common_factor(a, b) for a, b in itertools.combinations(ds, 2)]
    assert len(shared) == 15
    assert set(shared) == set(one_factors())


def test_graph_basics():
    g = sylvester_graph()
    assert len(g.edges) == 90
    assert all(len(g.neighbors(x)) == 5 for x in range(1, 37))


def test_edges_between_third_and_fourth_columns():
    g = sylvester_graph()
    # shared factor 12|34|56 pairs rows (1,2), (3,4), (5,6) across the columns
    assert (variety_of_cell(1, 3), variety_of_cell(2, 4)) in g.edges  # 3 - 10
    assert (variety_of_cell(1, 4), variety_of_cell(2, 3)) in g.edges  # 4 - 9


def test_verify_sylvester_all_checks_pass():
    report = verify_sylvester(sylvester_graph())
    assert report.ok, report.failures()
    assert [c.name for c in report.checks] == [
        "5-regular",
        "90 edges",
        "no triangles",
        "no quadrilaterals",
        "neighbours hit 5 distinct other rows and columns",
        "distance <= 2 covers exactly the off-row, off-column cells",
        "association scheme",
    ]


def test_verify_flags_missing_edge():
    g = sylvester_graph()
    removed = next(iter(sorted(g.edges)))
    broken = Graph36(edges=frozenset(g.edges - {removed}))
    report = verify_sylvester(broken)
    regular = next(c for c in report.checks if c.name == "5-regular")
    assert not regular.ok
    assert str(removed[0]) in regular.detail and str(removed[1]) in regular.detail


def _edge(u, v):
    return (min(u, v), max(u, v))


def _swap_labels(edges, a, b):
    swap = {a: b, b: a}
    return {_edge(swap.get(u, u), swap.get(v, v)) for u, v in edges}


ALL = list(range(1, 37))
REGULAR = "5-regular"
EDGES = "90 edges"
TRIANGLES = "no triangles"
QUADS = "no quadrilaterals"
ROWS_COLS = "neighbours hit 5 distinct other rows and columns"
BALL = "distance <= 2 covers exactly the off-row, off-column cells"
SCHEME = "association scheme"
OVERLAP = "relation classes overlap"

# broken graphs and every failing check with its detail, pinned on the
# neighbour-scan implementation; each of the seven checks fails at least once
FAULTS = {
    "edge (1, 8) removed": (
        lambda e: e - {(1, 8)},
        {REGULAR: "vertices with degree != 5: [1, 8]",
         EDGES: "found 89",
         ROWS_COLS: "violating vertices: [1, 8]",
         BALL: "violating vertices: [1, 8, 17, 18, 21, 22, 27, 28, 35, 36]",
         SCHEME: "product of relations 1,3 not constant on class 2: [0, 1]"}),
    "edge inside row 1": (
        lambda e: e | {(1, 2)},
        {REGULAR: "vertices with degree != 5: [1, 2]",
         EDGES: "found 91",
         QUADS: "pair with two common neighbours: [(1, 15)]",
         ROWS_COLS: "violating vertices: [1, 2]",
         BALL: "violating vertices: [1, 2, 7, 8]",
         SCHEME: OVERLAP}),
    "edge inside column 1": (
        lambda e: e | {(1, 7)},
        {REGULAR: "vertices with degree != 5: [1, 7]",
         EDGES: "found 91",
         QUADS: "pair with two common neighbours: [(1, 16)]",
         ROWS_COLS: "violating vertices: [1, 7]",
         BALL: "violating vertices: [1, 2, 7, 8]",
         SCHEME: OVERLAP}),
    "switch to a 4-cycle": (
        lambda e: (e - {(1, 8), (2, 7)}) | {(1, 2), (7, 8)},
        {QUADS: "pair with two common neighbours: [(1, 15)]",
         ROWS_COLS: "violating vertices: [1, 2, 7, 8]",
         BALL: "violating vertices: [1, 2, 7, 8, 15, 16, 17, 18, 21, 22, 23, 24, 27, 28, "
               "29, 30, 33, 34, 35, 36]",
         SCHEME: OVERLAP}),
    "switch to a triangle": (
        lambda e: (e - {(1, 8), (2, 15)}) | {(1, 2), (8, 15)},
        {TRIANGLES: "adjacent pair with common neighbour: [(8, 15)]",
         QUADS: "pair with two common neighbours: [(1, 23)]",
         ROWS_COLS: "violating vertices: [1, 2, 8, 15]",
         BALL: "violating vertices: [1, 2, 7, 8, 12, 15, 17, 18, 21, 22, 23, 25, 27, 28, "
               "30, 34, 36]",
         SCHEME: OVERLAP}),
    "isomorphic copy, vertices 1 and 2 swapped": (
        lambda e: _swap_labels(e, 1, 2),
        {ROWS_COLS: "violating vertices: [1, 2, 7, 8, 15, 18, 21, 23, 28, 30, 34, 35]",
         BALL: "violating vertices: [1, 2, 7, 8, 13, 14, 19, 20, 25, 26, 31, 32]",
         SCHEME: OVERLAP}),
    "isomorphic copy, vertices 1 and 36 swapped": (
        lambda e: _swap_labels(e, 1, 36),
        {ROWS_COLS: "violating vertices: [1, 3, 16, 18, 21, 23, 25, 28, 35, 36]",
         BALL: "violating vertices: [1, 2, 3, 4, 5, 7, 12, 13, 18, 19, 24, 25, 30, 32, "
               "33, 34, 35, 36]",
         SCHEME: OVERLAP}),
    # I, R, C, 0 and the off-row, off-column relation: the 6x6 grid scheme,
    # which closes under products
    "edgeless": (
        lambda e: set(),
        {REGULAR: f"vertices with degree != 5: {ALL}",
         EDGES: "found 0",
         ROWS_COLS: f"violating vertices: {ALL}",
         BALL: f"violating vertices: {ALL}"}),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_sylvester_pins_failures(fault):
    mutate, expected = FAULTS[fault]
    report = verify_sylvester(Graph36(edges=frozenset(mutate(set(sylvester_graph().edges)))))
    assert [c.name for c in report.checks] == [
        REGULAR, EDGES, TRIANGLES, QUADS, ROWS_COLS, BALL, SCHEME]
    assert {c.name: c.detail for c in report.failures()} == expected
    assert all(c.detail == "" for c in report.checks if c.ok)


def test_every_check_fails_on_some_fault():
    failing = set()
    for mutate, _ in FAULTS.values():
        graph = Graph36(edges=frozenset(mutate(set(sylvester_graph().edges))))
        failing |= {c.name for c in verify_sylvester(graph).failures()}
    assert failing == {c.name for c in verify_sylvester(sylvester_graph()).checks}


def _oracle_verify_sylvester(graph):
    """verify_sylvester by neighbour scans vertex by vertex and relation
    matrices filled pair by pair: the reference for the matrix identities."""
    checks = []
    adj = graph.adjacency_matrix()
    deg = adj.sum(axis=1)
    bad = [i + 1 for i in range(36) if deg[i] != 5]
    checks.append(StructureCheck(
        "5-regular", not bad, f"vertices with degree != 5: {bad}" if bad else ""))
    n_edges = int(adj.sum()) // 2
    checks.append(StructureCheck(
        "90 edges", n_edges == 90, f"found {n_edges}" if n_edges != 90 else ""))
    a2 = adj @ adj
    tri = [(i + 1, j + 1) for i in range(36) for j in range(i + 1, 36)
           if adj[i, j] and a2[i, j]]
    quad = [(i + 1, j + 1) for i in range(36) for j in range(i + 1, 36) if a2[i, j] >= 2]
    checks.append(StructureCheck(
        "no triangles", not tri, f"adjacent pair with common neighbour: {tri[:1]}" if tri else ""))
    checks.append(StructureCheck(
        "no quadrilaterals", not quad,
        f"pair with two common neighbours: {quad[:1]}" if quad else ""))
    bad_rc = []
    for x in range(1, 37):
        nb = graph.neighbors(x)
        rows = {cell_of_variety(y)[0] for y in nb}
        cols = {cell_of_variety(y)[1] for y in nb}
        r0, c0 = cell_of_variety(x)
        if len(rows) != 5 or r0 in rows or len(cols) != 5 or c0 in cols:
            bad_rc.append(x)
    checks.append(StructureCheck(
        "neighbours hit 5 distinct other rows and columns", not bad_rc,
        f"violating vertices: {bad_rc}" if bad_rc else ""))
    bad_d2 = []
    for x in range(1, 37):
        r0, c0 = cell_of_variety(x)
        reach = {x} | set(graph.neighbors(x))
        for y in graph.neighbors(x):
            reach.update(graph.neighbors(y))
        expect = {x} | {y for y in range(1, 37)
                        if cell_of_variety(y)[0] != r0 and cell_of_variety(y)[1] != c0}
        if reach != expect:
            bad_d2.append(x)
    checks.append(StructureCheck(
        "distance <= 2 covers exactly the off-row, off-column cells", not bad_d2,
        f"violating vertices: {bad_d2}" if bad_d2 else ""))
    same_row = np.zeros((36, 36), dtype=np.int64)
    same_col = np.zeros((36, 36), dtype=np.int64)
    for x in range(1, 37):
        for y in range(1, 37):
            if x != y:
                same_row[x - 1, y - 1] = cell_of_variety(x)[0] == cell_of_variety(y)[0]
                same_col[x - 1, y - 1] = cell_of_variety(x)[1] == cell_of_variety(y)[1]
    identity = np.eye(36, dtype=np.int64)
    other = np.ones((36, 36), dtype=np.int64) - identity - same_row - same_col - adj
    relations = [identity, same_row, same_col, adj, other]
    scheme = StructureCheck("association scheme", True)
    if np.any(other < 0):
        scheme = StructureCheck("association scheme", False, "relation classes overlap")
    else:
        for (i, ri), (j, rj), (m, rel) in itertools.product(enumerate(relations), repeat=3):
            vals = set((ri @ rj)[rel == 1].tolist())
            if len(vals) > 1:
                scheme = StructureCheck(
                    "association scheme", False,
                    f"product of relations {i},{j} not constant on class {m}: {sorted(vals)}")
                break
    checks.append(scheme)
    return SylvesterReport(checks=tuple(checks))


@st.composite
def mutated_sylvester_graphs(draw):
    """The Sylvester graph after a few random edge removals, additions,
    degree-preserving switches and vertex swaps."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = set(sylvester_graph().edges)
    for op in draw(st.lists(st.sampled_from(["remove", "add", "switch", "relabel"]),
                            min_size=1, max_size=3)):
        if op == "remove":
            edges.discard(rng.choice(sorted(edges)))
        elif op == "add":
            edges.add(_edge(*rng.sample(range(1, 37), 2)))
        elif op == "switch":
            (a, b), (c, d) = rng.sample(sorted(edges), 2)
            if len({a, b, c, d}) == 4 and not {_edge(a, c), _edge(b, d)} & edges:
                edges = (edges - {(a, b), (c, d)}) | {_edge(a, c), _edge(b, d)}
        else:
            edges = _swap_labels(edges, *rng.sample(range(1, 37), 2))
    return Graph36(edges=frozenset(edges))


@settings(max_examples=40)
@given(mutated_sylvester_graphs())
def test_verify_sylvester_matches_neighbour_scans(graph):
    assert verify_sylvester(graph) == _oracle_verify_sylvester(graph)


def test_distance_two_ball_size():
    g = sylvester_graph()
    for x in (1, 15, 36):
        ball = {x} | set(g.neighbors(x))
        for y in g.neighbors(x):
            ball.update(g.neighbors(y))
        assert len(ball) == 26  # 1 + 5 + 20


def test_starfish_center_15():
    # the starfish at array cell (3, d3), checked against its cell picture
    g = sylvester_graph()
    assert variety_of_cell(3, 3) == 15
    assert starfish(g, 15) == frozenset({2, 12, 15, 22, 25, 35})


def test_starfish_same_column_disjoint():
    g = sylvester_graph()
    for row_a, row_b in itertools.combinations(range(1, 7), 2):
        a = starfish(g, variety_of_cell(row_a, 2))
        b = starfish(g, variety_of_cell(row_b, 2))
        assert not a & b


def test_starfish_size_six():
    g = sylvester_graph()
    assert all(len(starfish(g, x)) == 6 for x in range(1, 37))


def test_galaxy_partitions_and_latin_property():
    g = sylvester_graph()
    for col in range(1, 7):
        blocks = galaxy(g, col)
        assert sorted(x for b in blocks for x in b) == list(range(1, 37))
        for b in blocks:
            assert sorted(cell_of_variety(x)[0] for x in b) == [1, 2, 3, 4, 5, 6]
            assert sorted(cell_of_variety(x)[1] for x in b) == [1, 2, 3, 4, 5, 6]


def test_galaxy_of_third_column_matches_reference_letters():
    # frozen from the reference 6x6 letter grid for column d3
    expected = {
        frozenset({2, 12, 15, 22, 25, 35}),   # A
        frozenset({3, 10, 14, 19, 29, 36}),   # B
        frozenset({4, 9, 18, 23, 26, 31}),    # C
        frozenset({1, 11, 16, 21, 30, 32}),   # D
        frozenset({5, 8, 13, 24, 27, 34}),    # E
        frozenset({6, 7, 17, 20, 28, 33}),    # F
    }
    got = {frozenset(b) for b in galaxy(sylvester_graph(), 3)}
    assert got == expected


def test_galaxy_blocks_ordered_by_center_row():
    g = sylvester_graph()
    blocks = galaxy(g, 5)
    for row, block in enumerate(blocks, start=1):
        assert variety_of_cell(row, 5) in block


def test_galaxy_bad_column_rejected():
    with pytest.raises(ShapeMismatchError):
        galaxy(sylvester_graph(), 7)


def test_two_galaxies_concur_exactly_on_cross_edges():
    g = sylvester_graph()
    for ci, cj in itertools.combinations(range(1, 7), 2):
        d = ResolvableDesign.from_replicates([galaxy(g, ci), galaxy(g, cj)], v=36, k=6)
        lam = concurrence_matrix(d)
        off = lam[~np.eye(36, dtype=bool)]
        assert off.max() == 2
        twos = {
            (i + 1, j + 1)
            for i in range(36)
            for j in range(i + 1, 36)
            if lam[i, j] == 2
        }
        cross_edges = {
            (u, v)
            for (u, v) in g.edges
            if {cell_of_variety(u)[1], cell_of_variety(v)[1]} == {ci, cj}
        }
        assert twos == cross_edges


def test_edge_list_export():
    edges = sylvester_graph().edge_list()
    assert len(edges) == 90
    assert edges == sorted(edges)
    assert all(1 <= u < v <= 36 for u, v in edges)


def test_enumeration_disagreement_raises(monkeypatch):
    from rbdesign import InternalError, sylvester

    full = one_factors()
    monkeypatch.setattr(sylvester, "one_factors", lambda: full[:-1])
    enumerate_one_factorizations.cache_clear()
    try:
        with pytest.raises(InternalError):
            enumerate_one_factorizations()
    finally:
        monkeypatch.undo()
        enumerate_one_factorizations.cache_clear()
    assert len(enumerate_one_factorizations()) == 6


def test_common_factor_count_checked(monkeypatch):
    from rbdesign import InternalError
    from rbdesign.sylvester import OneFactorization

    d1, d2 = enumerate_one_factorizations()[:2]
    monkeypatch.setattr(OneFactorization, "factor_set", lambda self: frozenset(one_factors()))
    with pytest.raises(InternalError):
        common_factor(d1, d2)


@pytest.mark.parametrize("fault", ["overlap", "one_row"])
def test_galaxy_partition_checked(monkeypatch, fault):
    from rbdesign import InternalError, sylvester

    def faulty(graph, center):
        if fault == "overlap":
            return frozenset(range(1, 7))
        row = cell_of_variety(center)[0]  # six disjoint blocks, each inside one row
        return frozenset(variety_of_cell(row, c) for c in range(1, 7))

    monkeypatch.setattr(sylvester, "starfish", faulty)
    with pytest.raises(InternalError):
        galaxy(sylvester_graph(), 1)
