"""Design families: gamma (Sylvester-graph galaxies), delta (Latin squares).

Each family starts from a base sequence of six single-replicate units
(galaxies of the graph's columns for gamma, superposed Latin squares for
delta) and optionally prepends the two trivial replicates of the 6x6 array:

    plain   r units
    R       rows + (r-1) units
    C       columns + (r-1) units
    RC      columns + rows + (r-2) units

The RC ordering (columns first, then rows, then units) matches the embedded
reference designs replicate for replicate.  The A-value never depends on
replicate order; it matters only for reproducing the reference data and for
"use the first r replicates" truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import refdata
from .core import (
    BlockDesign,
    DisconnectedDesignError,
    InternalError,
    ResolvableDesign,
    ShapeMismatchError,
    dual,
)
from .sylvester import galaxy, sylvester_graph

LatinSquare6 = tuple[tuple[int, ...], ...]  # 6x6 grid of symbols 1..6


def rows_replicate() -> tuple[tuple[int, ...], ...]:
    """The six row blocks {1..6}, {7..12}, ..., {31..36}."""
    return tuple(tuple(range(6 * i + 1, 6 * i + 7)) for i in range(6))


def columns_replicate() -> tuple[tuple[int, ...], ...]:
    """The six column blocks {1,7,13,19,25,31}, ..., {6,12,18,24,30,36}."""
    return tuple(tuple(range(j, 37, 6)) for j in range(1, 7))


#: the trivial replicates each variant prepends to the family's units
_PREFIXES = {"plain": (), "R": (rows_replicate,), "C": (columns_replicate,),
             "RC": (columns_replicate, rows_replicate)}
VARIANTS = tuple(_PREFIXES)


def _family_design(name: str, units, r: int, variant: str, max_units: int) -> ResolvableDesign:
    if variant not in VARIANTS:
        raise ShapeMismatchError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    off = len(_PREFIXES[variant])
    n_units = r - off
    if n_units < 0 or n_units > max_units:
        raise ShapeMismatchError(
            f"{name} variant {variant} supports r in "
            f"{range(off, max_units + off + 1)}, got r={r}"
        )
    reps = tuple(trivial() for trivial in _PREFIXES[variant]) + tuple(units[:n_units])
    suffix = "" if variant == "plain" else f"-{variant.lower()}"
    return ResolvableDesign.from_replicates(reps, v=36, k=6, label=f"{name}{suffix}-{r}")


@lru_cache(maxsize=1)
def _galaxy_units() -> tuple[tuple[tuple[int, ...], ...], ...]:
    g = sylvester_graph()
    return tuple(galaxy(g, col) for col in range(1, 7))


def gamma_design(r: int, variant: str = "plain") -> ResolvableDesign:
    """Galaxy-family design; RC order is columns, rows, galaxies d1, d2, ...

    Which galaxies are used is immaterial up to isomorphism (the graph's
    automorphisms act transitively on column subsets of equal size), so the
    first r (or r-1, r-2) columns are taken for reproducibility.  r=0 and
    r=1 plain designs are constructible building blocks but evaluate as
    empty/disconnected.
    """
    return _family_design("gamma", _galaxy_units(), r, variant, max_units=6)


@lru_cache(maxsize=1)
def latin_squares() -> tuple[LatinSquare6, ...]:
    """The six mutually superposable Latin squares behind the delta family.

    Recovered from the embedded eight-replicate reference design: replicate
    2+i places symbol b in cell (row, col) of square i when variety
    6*(row-1)+col lies in its b-th block.
    """
    squares = []
    for rep in refdata.DELTA_RC_8[2:]:
        grid = [[0] * 6 for _ in range(6)]
        for bi, block in enumerate(rep, start=1):
            for x in block:
                grid[(x - 1) // 6][(x - 1) % 6] = bi
        for i in range(6):
            column = [row[i] for row in grid]
            if sorted(grid[i]) != list(range(1, 7)) or sorted(column) != list(range(1, 7)):
                raise InternalError(f"square {len(squares) + 1}: line {i + 1} is not a permutation")
        squares.append(tuple(tuple(row) for row in grid))
    return tuple(squares)


def square_replicate(square: LatinSquare6) -> tuple[tuple[int, ...], ...]:
    """Blocks of one superposed Latin square: block b = cells holding symbol b."""
    blocks: list[list[int]] = [[] for _ in range(6)]
    for i in range(6):
        for j in range(6):
            blocks[square[i][j] - 1].append(6 * i + j + 1)
    return tuple(tuple(b) for b in blocks)


@lru_cache(maxsize=1)
def _square_units() -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(square_replicate(sq) for sq in latin_squares())


def delta_design(r: int, variant: str = "plain") -> ResolvableDesign:
    """Latin-square-family design; RC order is columns, rows, squares L1, L2, ...

    Unlike the galaxies, different square subsets give different A values;
    the leading subset {L1..Lr} is the best one (verified exhaustively in
    the tests), which is why truncation always drops from the tail.
    """
    return _family_design("delta", _square_units(), r, variant, max_units=6)


@dataclass(frozen=True)
class SemiLatinSquare:
    """(6x6)/r semi-Latin square: r-sets over a 6r alphabet, each symbol
    once per array row and once per array column."""

    cells: tuple[tuple[tuple[int, ...], ...], ...]
    r: int


def is_semi_latin(dual_design: BlockDesign) -> SemiLatinSquare | None:
    """Test the dual of a 36-variety, block-size-6 design for the semi-Latin
    property, arranging its 36 blocks in the array order of the original
    varieties.  Returns the square when the property holds."""
    if len(dual_design.blocks) != 36:
        raise ShapeMismatchError(
            f"expected 36 dual blocks (one per original variety), got {len(dual_design.blocks)}"
        )
    r = dual_design.block_size()
    cells = tuple(
        tuple(dual_design.blocks[6 * i + j] for j in range(6))
        for i in range(6)
    )
    for i in range(6):
        row_symbols = sorted(s for j in range(6) for s in cells[i][j])
        col_symbols = sorted(s for j in range(6) for s in cells[j][i])
        if row_symbols != list(range(1, 6 * r + 1)) or col_symbols != list(range(1, 6 * r + 1)):
            return None
    return SemiLatinSquare(cells=cells, r=r)


def roy_check(design: ResolvableDesign) -> Fraction:
    """Residual of the duality identity linking A of a design and its dual.

    For v=36, k=6 designs with r replicates and dual value A', the identity
    reads 35/A = 6(6-r) + (6r-1)/A'; the return value is lhs - rhs computed
    exactly and should be 0.
    """
    from .efficiency import a_value

    if design.v != 36 or design.k != 6:
        raise ShapeMismatchError("duality identity stated for v=36, k=6 designs")
    a = a_value(design)
    try:
        a_dual = a_value(dual(design))
    except DisconnectedDesignError:
        raise DisconnectedDesignError(f"dual of {design.label or 'design'} is disconnected")
    r = design.r
    lhs = Fraction(35) / a
    rhs = 6 * (6 - r) + Fraction(6 * r - 1) / a_dual
    return lhs - rhs


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    design: ResolvableDesign
    provenance: str


def _embedded(name: str, data, provenance: str) -> CatalogEntry:
    design = ResolvableDesign.from_replicates(data, v=36, k=6, label=name)
    return CatalogEntry(name=name, design=design, provenance=provenance)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """Every named design: embedded reference data plus both families.

    Only designs meaningful for evaluation are listed (plain variants from
    r=2; the single-replicate and empty designs stay construction-only).
    """
    entries: list[CatalogEntry] = []
    entries.append(_embedded(
        "gamma-rc-8", refdata.GAMMA_RC_8,
        "embedded reference data; equals gamma_design(8, 'RC')"))
    entries.append(_embedded(
        "theta-8", refdata.THETA_8,
        "embedded reference data from an external annealing search"))
    entries.append(_embedded(
        "delta-rc-8", refdata.DELTA_RC_8,
        "embedded reference data; equals delta_design(8, 'RC')"))
    entries.append(_embedded(
        "theta-4", refdata.THETA_4_SEARCHED,
        "cached output of this package's annealer (see refdata for the config)"))
    for family, ctor in (("gamma", gamma_design), ("delta", delta_design)):
        for variant in VARIANTS:
            hi = 6 + len(_PREFIXES[variant])
            for r in range(2, hi + 1):
                if variant == "RC" and r == 8:
                    continue  # the embedded copies cover rc-8
                design = ctor(r, variant)
                entries.append(CatalogEntry(
                    name=design.label,
                    design=design,
                    provenance=f"constructed: {family} family, variant {variant}, r={r}",
                ))
    return tuple(entries)


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog design named {name!r}")
