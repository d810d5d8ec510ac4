"""Annealing search: moves, objective, determinism, local optimality."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rbdesign import (
    a_value,
    a_value_float,
    concurrence_matrix,
    gamma_design,
    random_resolvable,
    validate,
    write_design,
)
from rbdesign.search import Move, SearchConfig, SearchState, anneal, _polish


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_random_resolvable_validates():
    d = random_resolvable(36, 6, 4, _rng(3))
    assert validate(d) == []


def test_random_resolvable_deterministic():
    a = random_resolvable(36, 6, 4, _rng(7))
    b = random_resolvable(36, 6, 4, _rng(7))
    assert a.replicates == b.replicates


def test_random_resolvable_single_block_case():
    d = random_resolvable(6, 6, 2, _rng(0))
    assert d.replicates == (((1, 2, 3, 4, 5, 6),), ((1, 2, 3, 4, 5, 6),))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(v=35, k=6)
    with pytest.raises(ValueError):
        SearchConfig(cooling_rate=1.0)
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(v=6, k=6)
    with pytest.raises(ValueError):
        SearchConfig(min_temperature=0.0)
    with pytest.raises(ValueError):
        SearchConfig(seed=-1)
    for budget in (math.nan, -1.0):
        with pytest.raises(ValueError):
            SearchConfig(time_budget=budget)
    for t0 in (-1.0, 1e-4, math.nan):  # at or below min_temperature: no stage would run
        with pytest.raises(ValueError):
            SearchConfig(initial_temperature=t0)


def test_objective_examples(gamma_rc_8):
    assert 35 / a_value_float(gamma_rc_8) == pytest.approx(
        float(Fraction(35 * 8196, 7007)), rel=1e-12)
    assert SearchState(gamma_design(1)).objective == math.inf


def test_objective_matches_exact_a():
    for d in (gamma_design(4, "RC"), gamma_design(6)):
        assert 35 / SearchState(d).objective == pytest.approx(float(a_value(d)), rel=1e-9)
        assert 35 / SearchState(d).objective == pytest.approx(a_value_float(d), rel=1e-15)


def test_proposed_moves_preserve_resolvability():
    state = SearchState(random_resolvable(36, 6, 3, _rng(1)))
    rng = _rng(2)
    for _ in range(50):
        mv = state.propose(rng)
        state.accept(mv)
        assert validate(state.design()) == []


def test_move_then_inverse_restores_objective():
    state = SearchState(random_resolvable(36, 6, 3, _rng(5)))
    rng = _rng(6)
    for _ in range(20):
        before = state.objective
        mv = state.propose(rng)
        state.accept(mv)
        state.accept(state.score(mv))  # a swap is its own inverse
        assert state.objective == pytest.approx(before, abs=1e-12)
        assert SearchState(state.design()).objective == pytest.approx(before, abs=1e-12)


def _reciprocal_sum_full(design):
    """Fresh eigendecomposition of the whole scaled information matrix."""
    w = np.linalg.eigvalsh(np.eye(design.v) - concurrence_matrix(design) / (design.r * design.k))
    return float(np.sum(1.0 / w[1:]))


def test_move_delta_matches_full_recomputation():
    state = SearchState(random_resolvable(36, 6, 4, _rng(11)))
    rng = _rng(12)
    for _ in range(100):
        f_before = _reciprocal_sum_full(state.design())
        mv = state.propose(rng)
        state.accept(mv)
        f_after = _reciprocal_sum_full(state.design())
        assert mv.delta == pytest.approx(f_after - f_before, abs=1e-9)


def test_anneal_deterministic():
    config = SearchConfig(r=3, restarts=2, seed=9, moves_per_temperature=40,
                          initial_temperature=0.2, min_temperature=5e-3)
    first = anneal(config)
    second = anneal(config)
    assert write_design(first.design) == write_design(second.design)
    assert first.a_exact == second.a_exact


def test_anneal_best_trace_is_monotone():
    result = anneal(SearchConfig(r=3, restarts=1, seed=4, moves_per_temperature=40,
                                 initial_temperature=0.2, min_temperature=5e-3))
    for outcome in result.restarts:
        objs = [p.best_objective for p in outcome.trace]
        assert objs == sorted(objs, reverse=True) or all(
            a >= b for a, b in zip(objs, objs[1:])
        )


def test_anneal_result_design_validates_and_matches_exact():
    result = anneal(SearchConfig(r=3, restarts=1, seed=13, moves_per_temperature=40,
                                 initial_temperature=0.2, min_temperature=5e-3))
    assert validate(result.design) == []
    assert 35 / result.objective == pytest.approx(float(result.a_exact), rel=1e-9)
    assert abs(result.a_float - float(result.a_exact)) / float(result.a_exact) < 1e-9


def test_anneal_budget_flag():
    result = anneal(SearchConfig(r=4, restarts=4, seed=0, time_budget=0.5))
    assert result.budget_exhausted
    assert result.a_exact > 0


def test_polish_reaches_local_optimum():
    state = SearchState(random_resolvable(36, 6, 2, _rng(21)))
    _polish(state, deadline=None)
    final = state.objective
    # verify no single within-replicate swap improves
    best_delta = math.inf
    for ri in range(state.r):
        for ba in range(6):
            for bb in range(ba + 1, 6):
                for pa in range(6):
                    for pb in range(6):
                        mv = state.score(Move(ri, ba, pa, bb, pb))
                        best_delta = min(best_delta, mv.objective_after - final)
    assert state.objective == final
    assert best_delta >= -1e-12


def test_eight_replicate_search_feeds_structure_predicate():
    # short run; checks the search output plugs into the structural test,
    # not that a short schedule finds an optimal design
    from rbdesign import concurrence_matrix, is_sylvester_design

    result = anneal(SearchConfig(r=8, restarts=1, seed=0, moves_per_temperature=30,
                                 initial_temperature=0.1, min_temperature=2e-2))
    assert validate(result.design) == []
    lam = concurrence_matrix(result.design)
    off = lam[~np.eye(36, dtype=bool)]
    if set(np.unique(off).tolist()) <= {1, 2}:
        is_sylvester_design(result.design)  # witness or None, both acceptable


def test_trace_csv_shape():
    result = anneal(SearchConfig(r=3, restarts=2, seed=2, moves_per_temperature=30,
                                 initial_temperature=0.1, min_temperature=2e-2))
    lines = result.trace_csv().strip().splitlines()
    assert lines[0] == "restart,stage,temperature,best_objective"
    assert all(line.count(",") == 3 for line in lines[1:])
