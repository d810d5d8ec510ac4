"""Resolvable incomplete-block designs for 36 varieties in blocks of six.

Construction of the galaxy (gamma) and Latin-square (delta) families from
the Sylvester graph, embedded reference designs, exact A-criterion
evaluation with big-rational arithmetic, simulated-annealing search for new
designs, duality/semi-Latin analysis, and design isomorphism testing.
"""

__version__ = "0.1.0"

from .core import (
    BlockDesign,
    DesignError,
    DisconnectedDesignError,
    InternalError,
    InvalidDesignError,
    ParseError,
    ResolvableDesign,
    ShapeMismatchError,
    concurrence_matrix,
    dual,
    read_design,
    resolution,
    validate,
    write_design,
)
from .efficiency import (
    EfficiencySpectrum,
    RobustnessReport,
    a_value,
    a_value_float,
    average_variance,
    efficiency_spectrum,
    robustness,
    round_decimal,
    square_lattice_bound,
)
from .families import (
    CatalogEntry,
    catalog,
    catalog_entry,
    delta_design,
    gamma_design,
    is_semi_latin,
    latin_squares,
    roy_check,
)
from .isomorphism import (
    are_isomorphic,
    automorphism_order,
    canonical_form,
    concurrence_equivalent,
    is_sylvester_design,
    same_spectrum,
)
from .search import SearchConfig, SearchResult, anneal, random_resolvable
from .sylvester import (
    Graph36,
    enumerate_one_factorizations,
    galaxy,
    starfish,
    sylvester_graph,
    verify_sylvester,
)

__all__ = [
    "BlockDesign",
    "CatalogEntry",
    "DesignError",
    "DisconnectedDesignError",
    "EfficiencySpectrum",
    "Graph36",
    "InternalError",
    "InvalidDesignError",
    "ParseError",
    "ResolvableDesign",
    "RobustnessReport",
    "SearchConfig",
    "SearchResult",
    "ShapeMismatchError",
    "a_value",
    "a_value_float",
    "anneal",
    "are_isomorphic",
    "automorphism_order",
    "average_variance",
    "canonical_form",
    "catalog",
    "catalog_entry",
    "concurrence_equivalent",
    "concurrence_matrix",
    "delta_design",
    "dual",
    "efficiency_spectrum",
    "enumerate_one_factorizations",
    "galaxy",
    "gamma_design",
    "is_semi_latin",
    "is_sylvester_design",
    "latin_squares",
    "random_resolvable",
    "read_design",
    "resolution",
    "robustness",
    "round_decimal",
    "roy_check",
    "same_spectrum",
    "square_lattice_bound",
    "starfish",
    "sylvester_graph",
    "validate",
    "verify_sylvester",
    "write_design",
]
