"""One-factorizations of K6 and the structure of the graph built from them."""

import itertools

import numpy as np
import pytest

from rbdesign import ShapeMismatchError, concurrence_matrix, ResolvableDesign
from rbdesign.sylvester import (
    Graph36,
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
