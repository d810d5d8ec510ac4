"""Simulated-annealing search for efficient resolvable block designs.

The move set swaps two varieties between two blocks of one replicate, which
preserves resolvability by construction.  The minimized objective is the
trace of the Moore-Penrose inverse P = C^+ of the scaled information matrix
C = I - Lambda/(rk) (the sum of reciprocal canonical efficiency factors), so
its argmin is the argmax of the A-criterion.

The state is connected by construction: each restart redraws its random
start until it is connected, and a swap that disconnects scores +inf and is
never taken.  A swap adds a rank-2 term to Lambda, so the state keeps P and
P^2 and scores a swap by a 2x2 Woodbury solve on its two blocks' 2k x 2k
submatrices; a singular 2x2 system means the swap disconnects.  Score keeps
the solve, so accepting the swap updates P by its rank-2 term; P^2 is then
rebuilt as P P by one product and never drifts from P.  Every objective
comparison uses the tie tolerance _TIE, far above the float noise of P.

A proposal draws its whole move (replicate, ordered block pair, two
positions) with one rng call.  Polish takes the *first* improving swap in
the order (replicate, block a < block b, pos a, pos b), sweeping until none
improves; one vector scan reads the Woodbury deltas of all remaining swaps
of a replicate from P N and N^T P N (N its incidence matrix), and score
decides the first candidate.  Restarts use independent spawned RNG
streams, so results are byte-identical for a fixed config; each restart's
winner gets one exact evaluation and the overall best is chosen by exact A
with deterministic tie-breaks.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DisconnectedDesignError, ResolvableDesign, concurrence_matrix, write_design
from .efficiency import _reciprocal_sum, a_value, a_value_float

#: tie tolerance of every objective comparison (Metropolis rule, new best,
#: polish), far above the float noise of the Woodbury update
_TIE = 1e-12
#: K is singular (the swap disconnects) when |det K| < _SINGULAR * |K|_F^2
_SINGULAR = 1e-8


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
        if self.r == 1 or self.k == 1:
            what = "r=1 (a single replicate)" if self.r == 1 else "k=1 (singleton blocks)"
            raise DisconnectedDesignError(f"every design with {what} is disconnected")

    def proposals(self) -> int:
        """restarts x stages x moves: the swaps the whole schedule proposes,
        stages being the temperatures t0 * cooling^i above min_temperature."""
        ratio = math.log(self.min_temperature) - math.log(self.initial_temperature)
        stages = math.ceil(ratio / math.log(self.cooling_rate))
        return self.restarts * stages * self.moves_per_temperature


def random_resolvable(v: int, k: int, r: int, rng: np.random.Generator) -> ResolvableDesign:
    """Uniformly random partition of {1..v} into blocks of k, per replicate."""
    reps = []
    for _ in range(r):
        perm = rng.permutation(v) + 1
        reps.append([perm[i * k : (i + 1) * k] for i in range(v // k)])
    return ResolvableDesign.from_replicates(reps, v=v, k=k, label="random")


@dataclass(slots=True)
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
    """Mutable annealing state of a connected design: blocks, an (r, v/k, k)
    array of 0-based varieties, objective and pp = (P, P^2) with P = C^+;
    accept rebuilds P^2 from P.  Raises DisconnectedDesignError for a
    disconnected design."""

    def __init__(self, design: ResolvableDesign):
        self.v, self.k, self.r = design.v, design.k, design.r
        self.blocks = np.array(design.replicates) - 1
        lam = concurrence_matrix(design)
        self.objective = _reciprocal_sum(lam, self.r, self.k)
        if not math.isfinite(self.objective):
            raise DisconnectedDesignError("the annealing state needs a connected design")
        # C + J/v moves C's zero on the all-ones vector to 1, so its inverse
        # minus J/v is C^+ (J the all-ones matrix)
        j = np.full((self.v, self.v), 1.0 / self.v)
        p = np.linalg.inv(np.eye(self.v) - lam / (self.r * self.k) + j) - j
        self.pp = np.stack([p, p @ p])
        self._moves, self._at, self._u, self._uu = _layout(self.v // self.k, self.k)
        self._scored = None  # (move, idx, K^-1) of the last score

    def design(self, label: str = "") -> ResolvableDesign:
        return ResolvableDesign.from_replicates(self.blocks + 1, v=self.v, k=self.k, label=label)

    def _swap(self, mv: Move) -> None:
        """Swap the two varieties."""
        rep = self.blocks[mv.replicate]
        a, b = (mv.block_a, mv.pos_a), (mv.block_b, mv.pos_b)
        rep[a], rep[b] = rep[b], rep[a]

    def _rank2(self, mv: Move):
        """The swap as Lambda += U S U^T, S = [[2, 1], [1, 0]], U = [u, g],
        u = e_b - e_a and g = 1_A - 1_B (a in block A, b in block B), with
        U^T P U and U^T P^2 U read from the 2k x 2k submatrices on A and B,
        gathered at positions from _layout so that a and b come first.
        Returns the varieties gathered, K^-1 for K = -rk S^-1 + U^T P U and
        delta = -tr(K^-1 U^T P^2 U).  If K is singular the swap disconnects
        (u and g are orthogonal to the all-ones vector): K^-1 is None and
        delta is +inf."""
        idx = self.blocks[mv.replicate].take(self._at[mv.block_a, mv.pos_a, mv.block_b, mv.pos_b])
        sub = self.pp.take(idx, 1).take(idx, 2).reshape(2, -1)
        (p, q, _, s), (x, y, _, z) = (sub @ self._uu).tolist()
        q, s = q - self.r * self.k, s + 2 * self.r * self.k
        det = p * s - q * q
        if abs(det) <= _SINGULAR * (p * p + 2 * q * q + s * s):
            return idx, None, math.inf
        return idx, [[s / det, -q / det], [-q / det, p / det]], (2 * q * y - s * x - p * z) / det

    def score(self, mv: Move) -> Move:
        """Fill mv.objective_after and mv.delta (+inf for a swap that
        disconnects), leaving the state unchanged.  The Woodbury terms are
        kept for accept."""
        idx, kinv, mv.delta = self._rank2(mv)
        self._scored = (mv, idx, kinv)
        mv.objective_after = self.objective + mv.delta
        return mv

    def propose(self, rng: np.random.Generator) -> Move:
        """Score a uniformly random swap, drawn by one rng call."""
        n_blocks = self.v // self.k
        code = int(rng.integers(self.r * n_blocks * (n_blocks - 1) * self.k * self.k))
        return self.score(_decode(code, n_blocks, self.k))

    def accept(self, mv: Move) -> None:
        """Apply a scored move by the Woodbury term of its score (scoring it
        again if another move was scored since): P -= X K^-1 X^T with X = P U
        read from P's columns on the two blocks, then P^2 = P P by one
        product.  Raises DisconnectedDesignError, changing nothing, if the
        swap disconnects."""
        if self._scored is None or self._scored[0] is not mv:
            self.score(mv)
        _, idx, kinv = self._scored
        if kinv is None:
            raise DisconnectedDesignError("the swap disconnects the design")
        self._scored = None
        self._swap(mv)
        self.objective = mv.objective_after
        p, pp = self.pp
        x = p.take(idx, 1) @ self._u
        p -= x @ kinv @ x.T
        np.matmul(p, p, out=pp)

    def _deltas(self, ri: int, start: int = 0) -> np.ndarray:
        """Woodbury deltas of moves start, start+1, ... of replicate ri in
        polish order, +inf where the swap disconnects.  For M = P and P^2 the
        forms u^T M u, u^T M g and g^T M g are read from M, M N and N^T M N,
        N the replicate's v x n_blocks incidence matrix."""
        ba, pa, bb, pb = self._moves[:, start:]
        blocks = self.blocks[ri]
        n = np.zeros((self.v, len(blocks)))
        n[blocks, np.arange(len(blocks))[:, None]] = 1.0
        mn = self.pp @ n
        nmn = n.T @ mn
        a, b = blocks[ba, pa], blocks[bb, pb]
        uu = self.pp[:, a, a] + self.pp[:, b, b] - 2 * self.pp[:, a, b]
        ug = mn[:, b, ba] - mn[:, b, bb] - mn[:, a, ba] + mn[:, a, bb]
        gg = nmn[:, ba, ba] + nmn[:, bb, bb] - 2 * nmn[:, ba, bb]
        rk = self.r * self.k
        (p, x), (q, y), (s, z) = uu, ug - [[rk], [0]], gg + [[2 * rk], [0]]
        det = p * s - q * q
        singular = np.abs(det) <= _SINGULAR * (p * p + 2 * q * q + s * s)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (2 * q * y - s * x - p * z) / det
        return np.where(singular, math.inf, delta)


@functools.cache
def _layout(n_blocks: int, k: int) -> tuple[np.ndarray, ...]:
    """Read-only tables shared by the states with these blocks: every move
    of one replicate in polish order (rows block a, pos a, block b, pos b);
    at[a, i, b, j], the positions in a replicate's flattened blocks of block
    a from i on, wrapping, then of block b from j on; U = [u, g] in that
    order; and U's outer products flattened, which score contracts."""
    ba, bb = np.triu_indices(n_blocks, 1)
    pa, pb = np.divmod(np.arange(k * k), k)
    moves = np.stack([ba.repeat(k * k), np.tile(pa, ba.size), bb.repeat(k * k), np.tile(pb, ba.size)])
    ba, pa, bb, pb = np.indices((n_blocks, k, n_blocks, k))[..., None]
    t = np.arange(k)
    at = np.concatenate([ba * k + (pa + t) % k, bb * k + (pb + t) % k], axis=-1)
    u = np.zeros((2 * k, 2))
    u[[0, k], 0] = -1.0, 1.0
    u[:, 1] = np.repeat([1.0, -1.0], k)
    uu = np.einsum("ia,jb->ijab", u, u).reshape(-1, 4)
    for table in moves, at, u, uu:
        table.flags.writeable = False
    return moves, at, u, uu


def _decode(code: int, n_blocks: int, k: int) -> Move:
    """Move number code of (replicate, block a, block b != a, pos a, pos b),
    counted with pos b fastest."""
    code, pb = divmod(code, k)
    code, pa = divmod(code, k)
    code, bb = divmod(code, n_blocks - 1)
    ri, ba = divmod(code, n_blocks)
    return Move(ri, ba, pa, bb + (bb >= ba), pb)


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
    a_exact: Fraction
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


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _polish(state: SearchState, deadline: float | None) -> int:
    """First-improvement sweeps until no single swap improves (local optimum).

    Moves are tried in the order (replicate, block a < block b, pos a, pos b)
    and the first improving one is taken.  One vector scan of the
    replicate's remaining moves finds the next candidate, which score then
    decides; after an accept the scan resumes at the next move."""
    evals = 0
    n_moves = state._moves.shape[1]
    improved = True
    while improved:
        improved = False
        for ri in range(state.r):
            start = 0
            while start < n_moves:
                if _expired(deadline):
                    return evals
                # looser than score's test: their float noise hides no improvement
                hits = np.flatnonzero(state._deltas(ri, start) < -_TIE / 2)
                hit = start + int(hits[0]) if hits.size else n_moves
                evals += min(hit + 1, n_moves) - start
                if hit == n_moves:
                    break
                mv = state.score(Move(ri, *map(int, state._moves[:, hit])))
                if mv.objective_after < state.objective - _TIE:
                    state.accept(mv)
                    improved = True
                start = hit + 1
    return evals


def _run_restart(config: SearchConfig, index: int, deadline: float | None) -> RestartOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(index,)))
    state = None
    while state is None:  # connected designs exist for k, r >= 2: each draw may be one
        try:
            state = SearchState(random_resolvable(config.v, config.k, config.r, rng))
        except DisconnectedDesignError:
            pass
    best_blocks = state.blocks.copy()
    best_f = state.objective
    evals = 0
    trace = []
    temperature = config.initial_temperature
    stage = 0
    while temperature > config.min_temperature and not _expired(deadline):
        for _ in range(config.moves_per_temperature):
            if _expired(deadline):
                break
            mv = state.propose(rng)
            evals += 1
            accept = mv.delta <= _TIE or (
                math.isfinite(mv.delta) and rng.random() < math.exp(-mv.delta / temperature)
            )
            if accept:
                state.accept(mv)
                if state.objective < best_f - _TIE:
                    best_f = state.objective
                    best_blocks = state.blocks.copy()
        trace.append(TracePoint(index, stage, temperature, best_f))
        temperature *= config.cooling_rate
        stage += 1
    best_state = SearchState(
        ResolvableDesign.from_replicates(best_blocks + 1, v=config.v, k=config.k)
    )
    evals += _polish(best_state, deadline)
    label = f"search r={config.r} seed={config.seed} restart={index}"
    design = best_state.design(label)
    return RestartOutcome(
        index=index,
        design=design,
        objective=_reciprocal_sum(concurrence_matrix(design), config.r, config.k),
        a_exact=a_value(design),
        evaluations=evals,
        trace=tuple(trace),
    )


def anneal(config: SearchConfig) -> SearchResult:
    """Run the annealing schedule over independent restarts.

    Deterministic for a fixed config as long as the time budget does not
    bind; when it does, the best design found so far is returned with
    budget_exhausted set.  The budget is read before every proposal and
    every polish scan, and no restart starts after it has run out (the
    first always runs).
    """
    start = time.monotonic()
    deadline = start + config.time_budget if config.time_budget is not None else None
    outcomes: list[RestartOutcome] = []
    for i in range(config.restarts):
        if outcomes and _expired(deadline):
            break
        outcomes.append(_run_restart(config, i, deadline))

    def rank(outcome: RestartOutcome):
        # maximize exact A; tie-break lowest restart index, then text
        return (-outcome.a_exact, outcome.index, write_design(outcome.design))

    winner = min(outcomes, key=rank)
    elapsed = time.monotonic() - start
    return SearchResult(
        design=winner.design,
        a_exact=winner.a_exact,
        a_float=a_value_float(winner.design),
        objective=winner.objective,
        restart_index=winner.index,
        evaluations=sum(o.evaluations for o in outcomes),
        elapsed_seconds=elapsed,
        budget_exhausted=_expired(deadline),
        restarts=tuple(outcomes),
    )
