"""Simulated-annealing search for efficient resolvable block designs.

The move set swaps two varieties between two blocks of one replicate, which
preserves resolvability by construction.  The minimized objective is the
trace of the Moore-Penrose inverse of the scaled information matrix (the sum
of reciprocal canonical efficiency factors), so its argmin is the argmax of
the A-criterion; disconnected designs score +inf and are never accepted.

The concurrence matrix is maintained incrementally per swap (O(k) integer
updates, no drift to correct), with a fresh symmetric eigendecomposition per
proposal.  Restarts use independent spawned RNG streams, so results are
byte-identical for a fixed config; each restart's winner gets one exact
evaluation and the overall best is chosen by exact A with deterministic
tie-breaks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DisconnectedDesignError, ResolvableDesign, write_design
from .efficiency import _reciprocal_sum, a_value, a_value_float


@dataclass(frozen=True)
class SearchConfig:
    v: int = 36
    k: int = 6
    r: int = 4
    initial_temperature: float = 0.25
    cooling_rate: float = 0.94
    moves_per_temperature: int = 160
    min_temperature: float = 1e-4
    restarts: int = 8
    seed: int = 0
    time_budget: float | None = None  # seconds; None = unlimited

    def __post_init__(self):
        if self.k < 1 or self.v < 2 * self.k or self.v % self.k != 0:
            raise ValueError(f"v={self.v} must be a multiple of k={self.k} "
                             "with at least two blocks per replicate")
        if not 0 < self.cooling_rate < 1:
            raise ValueError(f"cooling_rate must be in (0,1), got {self.cooling_rate}")
        if not 0 < self.min_temperature < self.initial_temperature < math.inf:
            raise ValueError("need 0 < min_temperature < initial_temperature < inf")
        if self.time_budget is not None and not self.time_budget >= 0:  # NaN fails too
            raise ValueError(f"time_budget must be >= 0 seconds, got {self.time_budget}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.r < 1 or self.moves_per_temperature < 1:
            raise ValueError("r and moves_per_temperature must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def random_resolvable(v: int, k: int, r: int, rng: np.random.Generator) -> ResolvableDesign:
    """Uniformly random partition of {1..v} into blocks of k, per replicate."""
    reps = []
    for _ in range(r):
        perm = rng.permutation(v) + 1
        reps.append([perm[i * k : (i + 1) * k] for i in range(v // k)])
    return ResolvableDesign.from_replicates(reps, v=v, k=k, label="random")


@dataclass
class Move:
    """A proposed within-replicate swap and its objective consequence."""

    replicate: int
    block_a: int
    pos_a: int
    block_b: int
    pos_b: int
    delta: float = math.nan
    objective_after: float = math.nan


class SearchState:
    """Mutable annealing state: blocks, concurrence matrix, objective."""

    def __init__(self, design: ResolvableDesign):
        self.v, self.k, self.r = design.v, design.k, design.r
        self.blocks = [[list(b) for b in rep] for rep in design.replicates]
        from .core import concurrence_matrix

        self.lam = concurrence_matrix(design)
        self.objective = _reciprocal_sum(self.lam, self.r, self.k)

    def design(self, label: str = "") -> ResolvableDesign:
        return ResolvableDesign.from_replicates(self.blocks, v=self.v, k=self.k, label=label)

    def _swap(self, mv: Move) -> None:
        """Swap the two varieties and update the concurrence entries the
        swap touches (2*(k-1) pairs on each side)."""
        blk_a = self.blocks[mv.replicate][mv.block_a]
        blk_b = self.blocks[mv.replicate][mv.block_b]
        a, b = blk_a[mv.pos_a], blk_b[mv.pos_b]
        lam = self.lam
        for y in blk_a:
            if y != a:
                lam[a - 1, y - 1] -= 1
                lam[y - 1, a - 1] -= 1
                lam[b - 1, y - 1] += 1
                lam[y - 1, b - 1] += 1
        for y in blk_b:
            if y != b:
                lam[b - 1, y - 1] -= 1
                lam[y - 1, b - 1] -= 1
                lam[a - 1, y - 1] += 1
                lam[y - 1, a - 1] += 1
        blk_a[mv.pos_a], blk_b[mv.pos_b] = b, a

    def score(self, mv: Move) -> Move:
        """Fill mv.objective_after and mv.delta, leaving the state unchanged
        (a swap is its own inverse)."""
        self._swap(mv)
        mv.objective_after = _reciprocal_sum(self.lam, self.r, self.k)
        self._swap(mv)
        mv.delta = mv.objective_after - self.objective
        return mv

    def propose(self, rng: np.random.Generator) -> Move:
        """Score a random swap in a uniformly chosen replicate."""
        n_blocks = self.v // self.k
        ri = int(rng.integers(self.r))
        ba, bb = rng.choice(n_blocks, size=2, replace=False)
        return self.score(
            Move(ri, int(ba), int(rng.integers(self.k)), int(bb), int(rng.integers(self.k)))
        )

    def accept(self, mv: Move) -> None:
        self._swap(mv)
        self.objective = mv.objective_after


@dataclass(frozen=True)
class TracePoint:
    restart: int
    stage: int
    temperature: float
    best_objective: float


@dataclass(frozen=True)
class RestartOutcome:
    index: int
    design: ResolvableDesign
    objective: float
    a_exact: Fraction | None
    evaluations: int
    trace: tuple[TracePoint, ...]


@dataclass(frozen=True)
class SearchResult:
    design: ResolvableDesign
    a_exact: Fraction
    a_float: float
    objective: float
    restart_index: int
    evaluations: int
    elapsed_seconds: float
    budget_exhausted: bool
    restarts: tuple[RestartOutcome, ...]

    def trace_csv(self) -> str:
        lines = ["restart,stage,temperature,best_objective"]
        for outcome in self.restarts:
            for p in outcome.trace:
                lines.append(f"{p.restart},{p.stage},{p.temperature:.6g},{p.best_objective:.12g}")
        return "\n".join(lines) + "\n"


def _polish(state: SearchState, deadline: float | None) -> int:
    """First-improvement sweeps until no single swap improves (local optimum)."""
    evals = 0
    improved = True
    n_blocks = state.v // state.k
    while improved:
        improved = False
        for ri in range(state.r):
            for ba in range(n_blocks):
                for bb in range(ba + 1, n_blocks):
                    for pa in range(state.k):
                        for pb in range(state.k):
                            if deadline is not None and time.monotonic() > deadline:
                                return evals
                            mv = state.score(Move(ri, ba, pa, bb, pb))
                            evals += 1
                            if mv.objective_after < state.objective - 1e-12:
                                state.accept(mv)
                                improved = True
    return evals


def _run_restart(config: SearchConfig, index: int, deadline: float | None) -> RestartOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index,)))
    state = SearchState(random_resolvable(config.v, config.k, config.r, rng))
    best_blocks = [list(map(list, rep)) for rep in state.blocks]
    best_f = state.objective
    evals = 0
    trace = []
    temperature = config.initial_temperature
    stage = 0
    while temperature > config.min_temperature:
        if deadline is not None and time.monotonic() > deadline:
            break
        for _ in range(config.moves_per_temperature):
            mv = state.propose(rng)
            evals += 1
            accept = mv.delta <= 0 or (
                math.isfinite(mv.delta) and rng.random() < math.exp(-mv.delta / temperature)
            )
            if accept:
                state.accept(mv)
                if state.objective < best_f:
                    best_f = state.objective
                    best_blocks = [list(map(list, rep)) for rep in state.blocks]
        trace.append(TracePoint(index, stage, temperature, best_f))
        temperature *= config.cooling_rate
        stage += 1
    best_state = SearchState(
        ResolvableDesign.from_replicates(best_blocks, v=config.v, k=config.k)
    )
    evals += _polish(best_state, deadline)
    label = f"search r={config.r} seed={config.seed} restart={index}"
    design = best_state.design(label)
    try:
        exact = a_value(design)
    except DisconnectedDesignError:
        exact = None
    return RestartOutcome(
        index=index,
        design=design,
        objective=best_state.objective,
        a_exact=exact,
        evaluations=evals,
        trace=tuple(trace),
    )


def anneal(config: SearchConfig) -> SearchResult:
    """Run the annealing schedule over independent restarts.

    Deterministic for a fixed config as long as the time budget does not
    bind; when it does, the best design found so far is returned with
    budget_exhausted set.  Raises DisconnectedDesignError when no restart
    ends connected.
    """
    start = time.monotonic()
    deadline = start + config.time_budget if config.time_budget is not None else None
    outcomes = [_run_restart(config, i, deadline) for i in range(config.restarts)]

    def rank(outcome: RestartOutcome):
        # maximize exact A; tie-break lowest restart index, then text
        a = outcome.a_exact if outcome.a_exact is not None else Fraction(-1)
        return (-a, outcome.index, write_design(outcome.design))

    winner = min(outcomes, key=rank)
    if winner.a_exact is None:
        raise DisconnectedDesignError("search produced no connected design; extend the schedule")
    elapsed = time.monotonic() - start
    return SearchResult(
        design=winner.design,
        a_exact=winner.a_exact,
        a_float=a_value_float(winner.design),
        objective=winner.objective,
        restart_index=winner.index,
        evaluations=sum(o.evaluations for o in outcomes),
        elapsed_seconds=elapsed,
        budget_exhausted=deadline is not None and time.monotonic() > deadline,
        restarts=tuple(outcomes),
    )
