"""Canonical forms, automorphism groups, and structural design predicates."""

import random

import pytest

from rbdesign import (
    ShapeMismatchError,
    are_isomorphic,
    automorphism_order,
    canonical_form,
    concurrence_equivalent,
    delta_design,
    gamma_design,
    is_sylvester_design,
    same_spectrum,
)
from rbdesign import isomorphism
from rbdesign.core import ResolvableDesign
from rbdesign.canon import canonical_labeling
from rbdesign.sylvester import sylvester_graph
from test_canon import to_matrix


def _relabel(design, seed):
    rng = random.Random(seed)
    perm = list(range(1, design.v + 1))
    rng.shuffle(perm)
    return design.relabel(perm)


def test_canonical_form_invariant_under_relabeling(theta8):
    base = canonical_form(theta8)
    for seed in range(50):
        relabeled = _relabel(theta8, seed)
        assert canonical_form(relabeled).certificate == base.certificate


def test_canonical_form_separates_different_designs(theta8, gamma_rc_8):
    assert canonical_form(theta8).certificate != canonical_form(gamma_rc_8).certificate


def test_canonical_form_idempotent(delta_rc_8):
    form = canonical_form(delta_rc_8)
    canonically_labeled = delta_rc_8.relabel([p + 1 for p in form.variety_labeling])
    assert canonical_form(canonically_labeled).certificate == form.certificate


def test_lattice_variants_isomorphic():
    assert are_isomorphic(gamma_design(2, "R"), gamma_design(2, "C"))


def test_galaxy_row_column_isomorphism_pattern():
    for r in range(2, 8):
        expected = r in (2, 7)
        assert are_isomorphic(gamma_design(r, "R"), gamma_design(r, "C")) == expected
        # equal spectra throughout, isomorphic or not
        assert same_spectrum(gamma_design(r, "R"), gamma_design(r, "C"))


def test_square_row_column_isomorphism_pattern():
    for r in range(2, 8):
        expected = r in (2, 3, 5, 7)
        assert are_isomorphic(delta_design(r, "R"), delta_design(r, "C")) == expected
        assert same_spectrum(delta_design(r, "R"), delta_design(r, "C"))


def test_eight_replicate_designs_pairwise_nonisomorphic(gamma_rc_8, theta8, delta_rc_8):
    assert not are_isomorphic(gamma_rc_8, theta8)
    assert not are_isomorphic(gamma_rc_8, delta_rc_8)
    assert not are_isomorphic(theta8, delta_rc_8)


def test_isomorphism_is_reflexive_and_symmetric(theta8, gamma_rc_8):
    assert are_isomorphic(theta8, theta8)
    relabeled = _relabel(gamma_rc_8, 3)
    assert are_isomorphic(gamma_rc_8, relabeled)
    assert are_isomorphic(relabeled, gamma_rc_8)


def test_shape_mismatch_is_not_isomorphic(lattice, theta8):
    assert not are_isomorphic(lattice, theta8)


def test_automorphism_orders_of_reference_designs(gamma_rc_8, theta8, delta_rc_8):
    assert automorphism_order(gamma_rc_8) == 1440
    assert automorphism_order(theta8) == 1
    assert automorphism_order(delta_rc_8) == 144


def test_automorphism_order_of_lattice(lattice):
    # row perms x column perms x transpose
    assert automorphism_order(lattice) == 2 * 720 * 720


def test_automorphism_generators_are_automorphisms(delta_rc_8):
    from rbdesign.isomorphism import _incidence_graph

    matrix, colors, v = _incidence_graph(delta_rc_8)
    result = canonical_labeling(matrix, colors)
    blocks = sorted(delta_rc_8.blocks())
    for gen in result.group.generators():
        # the variety part of each generator must preserve the block multiset
        perm = [gen[i] + 1 for i in range(36)]
        mapped = sorted(tuple(sorted(perm[x - 1] for x in b)) for b in blocks)
        assert mapped == blocks


def test_sylvester_graph_automorphism_order():
    graph = sylvester_graph()
    adj = [[y - 1 for y in graph.neighbors(x)] for x in range(1, 37)]
    assert canonical_labeling(to_matrix(adj)).group.order() == 1440


def test_isomorphic_implies_same_spectrum_and_order():
    a, b = gamma_design(7, "R"), gamma_design(7, "C")
    assert are_isomorphic(a, b)
    assert same_spectrum(a, b)
    assert automorphism_order(a) == automorphism_order(b)


def test_same_spectrum_without_isomorphism():
    assert same_spectrum(gamma_design(6), delta_design(6))
    assert not are_isomorphic(gamma_design(6), delta_design(6))


def test_spectra_differ_at_five_replicates():
    assert not same_spectrum(gamma_design(5), delta_design(5))


def test_searched_theta4_matches_square_family_spectrum(theta4):
    d4 = delta_design(4, "RC")
    assert same_spectrum(theta4, d4)
    assert not concurrence_equivalent(theta4, d4)
    assert not are_isomorphic(theta4, d4)


def test_concurrence_equivalence_under_relabeling(theta4):
    assert concurrence_equivalent(theta4, _relabel(theta4, 5))


def test_concurrence_rows_answer_before_any_labeling(monkeypatch):
    # gamma-rc-5 and delta-rc-5 differ in their sorted concurrence rows, so
    # neither 666-vertex bond graph is labeled
    def refuse(*args):
        raise AssertionError("canonical_labeling called")

    monkeypatch.setattr(isomorphism, "canonical_labeling", refuse)
    assert not concurrence_equivalent(gamma_design(5, "RC"), delta_design(5, "RC"))
    assert not are_isomorphic(gamma_design(5, "RC"), delta_design(5, "RC"))


def test_sylvester_design_predicate(gamma_rc_8, theta8, delta_rc_8):
    for d in (gamma_rc_8, theta8, delta_rc_8):
        witness = is_sylvester_design(d)
        assert witness is not None
        perm = witness.permutation
        assert sorted(perm) == list(range(1, 37))


def test_sylvester_witness_maps_concurrence_onto_graph(theta8):
    from rbdesign import concurrence_matrix

    witness = is_sylvester_design(theta8)
    lam = concurrence_matrix(theta8)
    edges = sylvester_graph().edges
    perm = witness.permutation
    for i in range(36):
        for j in range(i + 1, 36):
            u, v = perm[i], perm[j]
            expected = 2 if (min(u, v), max(u, v)) in edges else 1
            assert lam[i, j] == expected


def test_sylvester_graph_labeled_once_per_process(monkeypatch, theta8, gamma_rc_8):
    from rbdesign import isomorphism

    isomorphism._sylvester_labeling.cache_clear()
    labeled = []
    monkeypatch.setattr(isomorphism, "canonical_labeling",
                        lambda matrix: labeled.append(len(matrix)) or canonical_labeling(matrix))
    first = is_sylvester_design(theta8)
    assert len(labeled) == 2  # the design's graph, then the Sylvester graph
    assert is_sylvester_design(theta8) == first
    assert is_sylvester_design(gamma_rc_8) is not None
    assert len(labeled) == 4  # one labeling per later call: the design's


def test_sylvester_predicate_rejects_repeated_galaxy():
    g7 = gamma_design(7, "RC")
    reps = g7.replicates + (g7.replicates[-1],)
    doubled = ResolvableDesign.from_replicates(reps, v=36, k=6)
    assert is_sylvester_design(doubled) is None  # concurrence 3 appears


def test_sylvester_predicate_shape_check():
    with pytest.raises(ShapeMismatchError):
        is_sylvester_design(gamma_design(7, "RC"))


def test_five_regular_graph_with_triangles_is_not_sylvester():
    # circulant on 36 vertices with connections {1, 2, 18}: 5-regular but full
    # of triangles, so its certificate differs from the Sylvester graph's
    adj = [[] for _ in range(36)]
    for i in range(36):
        for step in (1, 2, 18):
            j = (i + step) % 36
            adj[i].append(j)
            adj[j].append(i)
    adj = [sorted(set(n)) for n in adj]
    assert all(len(n) == 5 for n in adj)
    sigma = sylvester_graph()
    sigma_adj = [[y - 1 for y in sigma.neighbors(x)] for x in range(1, 37)]
    assert (canonical_labeling(to_matrix(adj)).certificate
            != canonical_labeling(to_matrix(sigma_adj)).certificate)


def test_sylvester_witness_checked(monkeypatch, theta8):
    import dataclasses

    from rbdesign import InternalError, isomorphism

    calls = []

    def faulty(matrix):
        c = canonical_labeling(matrix)
        calls.append(c)
        if len(calls) == 1:  # the design's labeling, reversed: a wrong witness
            c = dataclasses.replace(c, labeling=tuple(reversed(c.labeling)))
        return c

    monkeypatch.setattr(isomorphism, "canonical_labeling", faulty)
    with pytest.raises(InternalError):
        is_sylvester_design(theta8)
