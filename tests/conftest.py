import pytest
from hypothesis import settings

from rbdesign import (ResolvableDesign, catalog, catalog_entry, delta_design, dual, gamma_design,
                      latin_squares)
from rbdesign.families import square_replicate

# every run draws the same examples; tests keep their own max_examples
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def theta8():
    return catalog_entry("theta-8").design


@pytest.fixture(scope="session")
def theta4():
    return catalog_entry("theta-4").design


@pytest.fixture(scope="session")
def gamma_rc_8():
    return gamma_design(8, "RC")


@pytest.fixture(scope="session")
def delta_rc_8():
    return delta_design(8, "RC")


@pytest.fixture(scope="session")
def delta_subset_design():
    """Builds the plain delta-style design from any subset of L1..L6 (0-based)."""
    units = [square_replicate(sq) for sq in latin_squares()]

    def build(square_indices):
        label = "delta-subset-" + "".join(str(i + 1) for i in square_indices)
        return ResolvableDesign.from_replicates([units[i] for i in square_indices], v=36, k=6,
                                                label=label)

    return build


@pytest.fixture(scope="session")
def lattice():
    """The rows+columns square lattice (two replicates)."""
    return gamma_design(2, "RC")


#: the catalog entries whose duals are checked: every r=3 and r=8 design, and
#: the two r=5 row-column designs
DUAL_NAMES = ("gamma-rc-8", "theta-8", "delta-rc-8", "gamma-3", "gamma-r-3", "gamma-c-3",
              "gamma-rc-3", "gamma-rc-5", "delta-3", "delta-r-3", "delta-c-3", "delta-rc-3",
              "delta-rc-5")


@pytest.fixture(scope="session")
def catalog_and_duals():
    """(name, design) for the 50 catalog designs and the 13 duals of DUAL_NAMES."""
    entries = catalog()
    designs = [(e.name, e.design) for e in entries]
    designs += [(f"dual {e.name}", dual(e.design)) for e in entries if e.name in DUAL_NAMES]
    assert len(designs) == 63
    return designs
