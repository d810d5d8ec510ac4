"""Data model for resolvable incomplete-block designs.

Varieties are the integers 1..v.  A block is a sorted tuple of varieties,
a replicate is an ordered tuple of blocks that partitions {1..v}, and a
resolvable design is an ordered tuple of replicates sharing the same v and
block size k.  The dual of a design (blocks and varieties swapped) is a
plain block design that need not be resolvable, so it gets its own type.

All types are immutable after construction and safe to share between
threads.  Construction canonicalizes block members into ascending order but
preserves block order within a replicate and replicate order, both of which
are meaningful for the family constructors ("use the first r replicates").
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

Block = tuple[int, ...]


class DesignError(Exception):
    """Base class for errors raised by this package."""


class ParseError(DesignError):
    """Malformed design text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidDesignError(DesignError):
    """A design failed validation; carries the full violation list."""

    def __init__(self, violations: Sequence[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(violations))


class DisconnectedDesignError(DesignError):
    """An evaluation required a connected design."""


class ShapeMismatchError(DesignError):
    """An operation received a design with the wrong parameters."""


class InternalError(DesignError):
    """A runtime invariant failed: a bug in this package, not a bad input."""


def _canon_block(members: Iterable[int]) -> Block:
    return tuple(sorted(int(x) for x in members))


@dataclass(frozen=True)
class ResolvableDesign:
    """Resolvable block design: r replicates of v/k blocks of size k."""

    v: int
    k: int
    replicates: tuple[tuple[Block, ...], ...]
    label: str = ""

    @staticmethod
    def from_replicates(
        replicates: Iterable[Iterable[Iterable[int]]],
        v: int | None = None,
        k: int | None = None,
        label: str = "",
    ) -> "ResolvableDesign":
        """Build a design, sorting members within each block.

        v and k are inferred from the first replicate when omitted.  The
        result may still fail ``validate``; construction never raises for
        content errors so that broken inputs can be reported in full.
        """
        reps = tuple(tuple(_canon_block(b) for b in rep) for rep in replicates)
        if k is None:
            k = len(reps[0][0]) if reps and reps[0] else 0
        if v is None:
            v = k * len(reps[0]) if reps else 0
        return ResolvableDesign(v=v, k=k, replicates=reps, label=label)

    @property
    def r(self) -> int:
        return len(self.replicates)

    def blocks(self) -> tuple[Block, ...]:
        """All blocks, replicate by replicate."""
        return tuple(b for rep in self.replicates for b in rep)

    def without_replicate(self, index: int) -> "ResolvableDesign":
        reps = self.replicates[:index] + self.replicates[index + 1 :]
        label = f"{self.label} minus replicate {index + 1}" if self.label else ""
        return ResolvableDesign(self.v, self.k, reps, label)

    def relabel(self, perm: Sequence[int]) -> "ResolvableDesign":
        """Apply a variety permutation; perm[i-1] is the image of variety i."""
        reps = tuple(
            tuple(_canon_block(perm[x - 1] for x in b) for b in rep)
            for rep in self.replicates
        )
        return ResolvableDesign(self.v, self.k, reps, self.label)


@dataclass(frozen=True)
class BlockDesign:
    """Plain block design on varieties 1..v; blocks carry no grouping."""

    v: int
    blocks: tuple[Block, ...]
    label: str = ""

    @staticmethod
    def from_blocks(v: int, blocks: Iterable[Iterable[int]], label: str = "") -> "BlockDesign":
        return BlockDesign(v=v, blocks=tuple(_canon_block(b) for b in blocks), label=label)

    def block_size(self) -> int:
        sizes = {len(b) for b in self.blocks}
        if len(sizes) != 1:
            raise ShapeMismatchError(f"non-uniform block sizes {sorted(sizes)}")
        return sizes.pop()

    def replication(self) -> int:
        counts = Counter(x for b in self.blocks for x in b)
        if set(counts) != set(range(1, self.v + 1)):
            missing = sorted(set(range(1, self.v + 1)) - set(counts))
            raise ShapeMismatchError(f"varieties never placed: {missing}")
        reps = set(counts.values())
        if len(reps) != 1:
            raise ShapeMismatchError(f"non-uniform replication {sorted(reps)}")
        return reps.pop()


def validate(design: ResolvableDesign) -> list[str]:
    """Return every invariant violation; an empty list means valid.

    Violations carry replicate/block coordinates (1-based) so that broken
    input files can be fixed without guesswork.
    """
    v, k = design.v, design.k
    # each replicate a partition of 1..v into v/k blocks of size k: valid
    if design.r >= 1 and v >= 1 and k >= 1 and v % k == 0 and all(
        len(rep) == v // k and all(len(b) == k for b in rep)
        and sorted(itertools.chain.from_iterable(rep)) == list(range(1, v + 1))
        for rep in design.replicates
    ):
        return []
    out: list[str] = []
    if design.r < 1:
        out.append("design has no replicates")
    if v < 1 or k < 1:
        out.append(f"bad parameters v={v}, k={k}")
        return out
    if v % k != 0:
        out.append(f"v={v} is not a multiple of k={k}")
    for ri, rep in enumerate(design.replicates, start=1):
        if len(rep) != v // k and v % k == 0:
            out.append(f"replicate {ri}: {len(rep)} blocks, expected {v // k}")
        seen: Counter[int] = Counter()
        for bi, block in enumerate(rep, start=1):
            if len(block) != k:
                out.append(f"replicate {ri}, block {bi}: size {len(block)}, expected {k}")
            dups = [x for x, c in Counter(block).items() if c > 1]
            for x in sorted(dups):
                out.append(f"replicate {ri}, block {bi}: duplicate variety {x}")
            for x in block:
                if not 1 <= x <= v:
                    out.append(f"replicate {ri}, block {bi}: variety {x} out of range 1..{v}")
            seen.update(block)
        extra = sorted(x for x, c in seen.items() if c > 1 and 1 <= x <= v)
        missing = sorted(set(range(1, v + 1)) - set(seen))
        for x in extra:
            out.append(f"replicate {ri}: variety {x} occurs {seen[x]} times")
        for x in missing:
            out.append(f"replicate {ri}: variety {x} missing")
    return out


def require_valid(design: ResolvableDesign) -> None:
    violations = validate(design)
    if violations:
        raise InvalidDesignError(violations)


def _blocks(design: ResolvableDesign | BlockDesign) -> tuple[Block, ...]:
    """All blocks of either design type, unvalidated."""
    return design.blocks() if isinstance(design, ResolvableDesign) else design.blocks


def valid_blocks(design: ResolvableDesign | BlockDesign) -> tuple[Block, ...]:
    """All blocks of either design type; a resolvable design is validated
    first and raises InvalidDesignError when broken."""
    if isinstance(design, ResolvableDesign):
        require_valid(design)
    return _blocks(design)


def _incidence(v: int, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """The v x b incidence matrix N of blocks on varieties 1..v, as float64;
    a variety repeated within a block counts once per occurrence."""
    import numpy as np

    sizes = [len(b) for b in blocks]
    members = np.fromiter(itertools.chain.from_iterable(blocks), np.intp, sum(sizes))
    owner = np.repeat(np.arange(len(blocks)), sizes)
    n = np.bincount((members - 1) * len(blocks) + owner, minlength=v * len(blocks))
    return n.reshape(v, len(blocks)).astype(np.float64)


def _concurrence(v: int, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """N N^T for the v x b incidence matrix N of blocks on varieties 1..v,
    as int64."""
    import numpy as np

    n = _incidence(v, blocks)
    return (n @ n.T).astype(np.int64)  # counts far below 2^53: exact


def concurrence_matrix(design: ResolvableDesign | BlockDesign) -> np.ndarray:
    """The v x v concurrence matrix: entry (i,j) counts blocks containing both.

    The diagonal holds the replication count.  Entries are 0-indexed by
    variety-1.  Raises InvalidDesignError for an invalid resolvable design.
    """
    import numpy as np

    blocks = valid_blocks(design)
    diag = design.r if isinstance(design, ResolvableDesign) else design.replication()
    lam = _concurrence(design.v, blocks)
    np.fill_diagonal(lam, diag)
    return lam


def dual(design: ResolvableDesign | BlockDesign) -> BlockDesign:
    """Interchange the roles of blocks and varieties.

    The dual has one variety per original block (numbered in block order)
    and one block per original variety, listing the original blocks that
    contain it.  Resolvability of the dual is not assumed; use
    ``resolution`` to test for it.
    """
    blocks = valid_blocks(design)
    dual_blocks: list[list[int]] = [[] for _ in range(design.v)]
    for bi, block in enumerate(blocks, start=1):
        for x in block:
            dual_blocks[x - 1].append(bi)
    label = f"dual of {design.label}" if design.label else "dual"
    return BlockDesign.from_blocks(len(blocks), dual_blocks, label=label)


def _exact_covers(universe, options, covered=frozenset()):
    """Yield, lazily, every list of option keys that covers each element of
    universe outside covered exactly once.

    Knuth's Algorithm X without the dancing links: branch on the first
    uncovered element x of universe, taking in turn each (key, members) that
    options(x, covered) yields, the options that hold x and avoid covered.
    """
    x = next((e for e in universe if e not in covered), None)
    if x is None:
        yield []
        return
    for key, members in options(x, covered):
        for rest in _exact_covers(universe, options, covered | frozenset(members)):
            yield [key, *rest]


def resolution(design: BlockDesign) -> tuple[tuple[Block, ...], ...] | None:
    """Group the blocks into parallel classes, or None if impossible.

    A parallel class is a set of blocks covering every variety exactly
    once, so a block that repeats a variety is in none.  Search is exact
    (``_exact_covers`` of the blocks by classes through the lowest-indexed
    unassigned block, each an exact cover of the varieties by unassigned
    blocks), so None is a proof of non-resolvability.
    """
    try:
        k = design.block_size()
        design.replication()
    except ShapeMismatchError:
        return None
    blocks = design.blocks
    if design.v % k != 0 or not blocks or any(len(set(block)) < k for block in blocks):
        return None

    def classes(first, assigned):
        """Parallel classes through block first, generated one at a time."""
        pool = [(i, block) for i, block in enumerate(blocks) if i not in assigned]

        def fitting(x, covered):
            return ((i, block) for i, block in pool if x in block and covered.isdisjoint(block))

        for rest in _exact_covers(range(1, design.v + 1), fitting, frozenset(blocks[first])):
            cls = (first, *rest)
            yield cls, cls

    found = next(_exact_covers(range(len(blocks)), classes), None)
    if found is None:
        return None
    return tuple(tuple(blocks[i] for i in cls) for cls in found)


def read_design(text: str) -> ResolvableDesign:
    """Parse the plain-text design format.

    Grammar: lines starting with ``#`` are comments (the first one supplies
    the label); each block is one line of whitespace-separated integers;
    blank lines separate replicates.  Block size is fixed by the first block
    line and v by the first replicate; every replicate must then have v/k
    block lines with varieties in 1..v.
    """
    label = ""
    replicates: list[list[Block]] = []
    current: list[Block] = []
    k = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            if not label:
                label = line.lstrip("#").strip()
            continue
        if not line:
            if current:
                replicates.append(current)
                current = []
            continue
        parts = line.split()
        try:
            members = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"malformed block line {raw!r}", lineno)
        if k is None:
            k = len(members)
        elif len(members) != k:
            raise ParseError(f"block of size {len(members)}, expected {k}", lineno)
        current.append(_canon_block(members))
    if current:
        replicates.append(current)
    if not replicates:
        raise ParseError("no replicates")
    k = len(replicates[0][0])
    v = k * len(replicates[0])
    for ri, rep in enumerate(replicates, start=1):
        if len(rep) != len(replicates[0]):
            raise ParseError(
                f"replicate {ri} has {len(rep)} blocks, expected {len(replicates[0])}"
            )
        for block in rep:
            for x in block:
                if not 1 <= x <= v:
                    raise ParseError(f"variety {x} out of range 1..{v}")
    return ResolvableDesign.from_replicates(replicates, v=v, k=k, label=label)


def write_design(design: ResolvableDesign) -> str:
    """Render a design in canonical text form (inverse of ``read_design``).

    Canonical form: optional label comment, sorted members joined by single
    spaces, one blank line between replicates, trailing newline.
    """
    out = []
    if design.label:
        out.append(f"# {design.label}")
    for ri, rep in enumerate(design.replicates):
        if ri > 0:
            out.append("")
        for block in rep:
            out.append(" ".join(str(x) for x in block))
    return "\n".join(out) + "\n"
