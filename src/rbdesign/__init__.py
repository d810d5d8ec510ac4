"""Resolvable incomplete-block designs for 36 varieties in blocks of six.

Construction of the galaxy (gamma) and Latin-square (delta) families from
the Sylvester graph, embedded reference designs, exact A-criterion
evaluation with big-rational arithmetic, simulated-annealing search for new
designs, duality/semi-Latin analysis, and design isomorphism testing.

The public names load lazily (PEP 562): ``import rbdesign`` imports no
layer, and the first access to a name, or to a layer as an attribute,
imports its defining module.
"""

import importlib

__version__ = "0.1.0"

#: public name -> defining submodule
_EXPORTS = {
    **dict.fromkeys((
        "BlockDesign", "DesignError", "DisconnectedDesignError", "InternalError",
        "InvalidDesignError", "ParseError", "ResolvableDesign", "ShapeMismatchError",
        "concurrence_matrix", "dual", "read_design", "resolution", "validate",
        "write_design"), "core"),
    **dict.fromkeys((
        "EfficiencySpectrum", "RobustnessReport", "a_value", "a_value_float",
        "average_variance", "efficiency_spectrum", "robustness", "round_decimal",
        "square_lattice_bound"), "efficiency"),
    **dict.fromkeys((
        "CatalogEntry", "catalog", "catalog_entry", "delta_design", "gamma_design",
        "is_semi_latin", "latin_squares", "roy_check"), "families"),
    **dict.fromkeys((
        "are_isomorphic", "automorphism_order", "canonical_form",
        "concurrence_equivalent", "is_sylvester_design", "same_spectrum"), "isomorphism"),
    **dict.fromkeys((
        "SearchConfig", "SearchResult", "anneal", "random_resolvable"), "search"),
    **dict.fromkeys((
        "Graph36", "enumerate_one_factorizations", "galaxy", "starfish",
        "sylvester_graph", "verify_sylvester"), "sylvester"),
}

__all__ = sorted(_EXPORTS)

#: submodules that are attributes of the package, as when it imported them all
_LAYERS = ("canon", "core", "efficiency", "families", "isomorphism", "refdata", "search",
           "sylvester")


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
