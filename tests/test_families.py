"""Family constructors, embedded reference data, duality identity, catalog."""

from fractions import Fraction

import pytest

from rbdesign import (
    DesignError,
    ShapeMismatchError,
    a_value,
    catalog,
    catalog_entry,
    delta_design,
    dual,
    gamma_design,
    is_semi_latin,
    latin_squares,
    roy_check,
    round_decimal,
    validate,
)
from rbdesign.core import BlockDesign
from rbdesign.families import columns_replicate, rows_replicate, square_replicate
from rbdesign import refdata


def test_rows_and_columns_replicates():
    assert rows_replicate()[0] == (1, 2, 3, 4, 5, 6)
    assert rows_replicate()[5] == (31, 32, 33, 34, 35, 36)
    assert columns_replicate()[0] == (1, 7, 13, 19, 25, 31)
    assert columns_replicate()[5] == (6, 12, 18, 24, 30, 36)


def test_reference_replicate_order_is_columns_then_rows():
    # both embedded 8-replicate reference designs start with the column
    # blocks, then the row blocks
    for data in (refdata.GAMMA_RC_8, refdata.DELTA_RC_8):
        assert data[0] == columns_replicate()
        assert data[1] == rows_replicate()


def test_gamma_rc_8_equals_embedded_reference(gamma_rc_8):
    embedded = catalog_entry("gamma-rc-8").design
    assert gamma_rc_8.replicates == embedded.replicates


def test_delta_rc_8_equals_embedded_reference(delta_rc_8):
    embedded = catalog_entry("delta-rc-8").design
    assert delta_rc_8.replicates == embedded.replicates


def test_gamma_rc_2_is_the_square_lattice(lattice):
    assert lattice.replicates == (columns_replicate(), rows_replicate())
    assert a_value(lattice) == Fraction(7, 9)


def test_variant_ranges():
    gamma_design(0)  # empty building block is constructible
    gamma_design(1)
    with pytest.raises(ShapeMismatchError):
        gamma_design(7)  # only six galaxies exist
    with pytest.raises(ShapeMismatchError):
        gamma_design(8, "C")
    with pytest.raises(ShapeMismatchError):
        gamma_design(9, "RC")
    with pytest.raises(ShapeMismatchError):
        delta_design(2, "X")


def test_all_family_designs_validate():
    for entry in catalog():
        assert validate(entry.design) == [], entry.name


def test_replicate_removal_stays_in_family():
    for r in (4, 6, 8):
        rc = gamma_design(r, "RC")
        reps = list(rc.replicates)
        as_sets = lambda rs: sorted(sorted(b for b in rep) for rep in rs)
        without_cols = [rep for rep in reps if rep != columns_replicate()]
        assert as_sets(without_cols) == as_sets(gamma_design(r - 1, "R").replicates)
        without_rows = [rep for rep in reps if rep != rows_replicate()]
        assert as_sets(without_rows) == as_sets(gamma_design(r - 1, "C").replicates)
        assert as_sets(reps[:-1]) == as_sets(gamma_design(r - 1, "RC").replicates)


def test_latin_squares_are_latin_and_six():
    squares = latin_squares()
    assert len(squares) == 6
    for sq in squares:
        for i in range(6):
            assert sorted(sq[i]) == [1, 2, 3, 4, 5, 6]
            assert sorted(sq[j][i] for j in range(6)) == [1, 2, 3, 4, 5, 6]


def test_square_replicate_round_trip():
    for i, sq in enumerate(latin_squares()):
        assert square_replicate(sq) == refdata.DELTA_RC_8[2 + i]


def test_delta_subset_design(delta_subset_design):
    d = delta_subset_design((0, 3, 4))
    assert validate(d) == []
    assert d.r == 3
    assert delta_subset_design(tuple(range(4))).replicates == delta_design(4).replicates


# --- duality / semi-Latin ---

def test_dual_of_six_square_delta_is_semi_latin():
    sls = is_semi_latin(dual(delta_design(6)))
    assert sls is not None
    assert sls.r == 6
    assert all(len(cell) == 6 for row in sls.cells for cell in row)


def test_dual_of_lattice_is_not_semi_latin(lattice):
    assert is_semi_latin(dual(lattice)) is None


@pytest.mark.parametrize("ctor", [gamma_design, delta_design])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_duals_of_plain_families_are_semi_latin(ctor, r):
    # every replicate of the plain families reads as a Latin square on the
    # array, so the duals satisfy the once-per-row/column condition
    sls = is_semi_latin(dual(ctor(r)))
    assert sls is not None and sls.r == r


def test_semi_latin_rejects_repeated_symbol_in_row():
    # arrange 36 singleton blocks so array row 1 sees symbol 1 twice
    blocks = [(i % 6 + 1,) for i in range(36)]
    blocks[0] = (1,)
    blocks[1] = (1,)
    blocks[2] = (2,)
    bd = BlockDesign.from_blocks(6, blocks)
    assert is_semi_latin(bd) is None


def test_semi_latin_shape_check():
    with pytest.raises(ShapeMismatchError):
        is_semi_latin(BlockDesign.from_blocks(6, [(1, 2), (3, 4)]))


@pytest.mark.parametrize("ctor", [gamma_design, delta_design])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_duality_identity_residual_zero(ctor, r):
    assert roy_check(ctor(r)) == 0


def test_duality_identity_forces_equality_at_six():
    d = delta_design(6)
    assert a_value(d) == a_value(dual(d))


def test_roy_check_on_disconnected_design():
    with pytest.raises(DesignError):
        roy_check(delta_design(1))


def test_efficiency_ordering_within_families():
    for ctor in (gamma_design, delta_design):
        for r in (3, 4, 5, 6):
            assert a_value(ctor(r, "RC")) >= a_value(ctor(r, "C")) >= a_value(ctor(r))


# --- catalog ---

def test_catalog_names_unique_and_addressable():
    names = [e.name for e in catalog()]
    assert len(names) == len(set(names))
    for name in ("gamma-rc-8", "theta-8", "delta-rc-8", "theta-4",
                 "gamma-c-7", "delta-6", "gamma-rc-2"):
        assert catalog_entry(name).design.v == 36


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_entry("gamma-rc-9")


def test_theta8_first_block(theta8):
    assert theta8.replicates[0][0] == (2, 6, 17, 18, 29, 33)


def test_theta4_cached_value(theta4):
    assert a_value(theta4) == Fraction(350, 417)
    assert round_decimal(a_value(theta4), 4) == "0.8393"


def test_reference_a_values_at_four_decimals(theta8):
    assert round_decimal(a_value(theta8), 4) == "0.8549"
    assert round_decimal(a_value(gamma_design(6)), 4) == "0.8442"
    assert round_decimal(a_value(delta_design(4, "RC")), 4) == "0.8393"


def test_latin_square_recovery_checked(monkeypatch):
    from rbdesign import InternalError

    broken = list(refdata.DELTA_RC_8)
    broken[2] = (broken[2][1], *broken[2][1:])  # block 1 replaced: symbol 1 never placed
    monkeypatch.setattr(refdata, "DELTA_RC_8", tuple(broken))
    latin_squares.cache_clear()
    try:
        with pytest.raises(InternalError):
            latin_squares()
    finally:
        monkeypatch.undo()
        latin_squares.cache_clear()
    assert len(latin_squares()) == 6
