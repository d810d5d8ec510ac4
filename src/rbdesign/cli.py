"""Command-line interface.

Verbs: generate, evaluate, search, robustness, isomorphic, autorder,
sylvester-check, dual, catalog, export.  Design arguments are catalog names
(e.g. gamma-rc-8, theta-8) or paths to files in the plain-text format.
Randomized verbs take a seed (defaulted and echoed), so identical argv
yields identical bytes out.  Exit codes: 0 success/true, 1 false,
2 parse/usage error, 3 disconnected design, 4 wrong shape or invalid design.
Limits: --precision <= MAX_PRECISION (else exit 2); a design file, and
search --v, has at most MAX_VARIETIES varieties (else exit 4): exact algebra
takes O(v^5 log rk) float operations, about 0.02 s per characteristic
polynomial at v = 64; search --r is at most MAX_REPLICATES (else exit 4);
a search schedule proposes at most MAX_PROPOSALS swaps, restarts x stages x
moves (else exit 2).  search --budget is read before every proposal, and no
restart starts once it has run out.

Cold start: this module imports only the numpy-free layers (core, families,
sylvester), and each handler imports the efficiency, isomorphism or search
names it calls.  So generate, dual, catalog, export sylvester-edges, --help,
--version and usage errors never load numpy; evaluate, search, robustness,
isomorphic, autorder, sylvester-check, catalog --evaluate and export
concurrence do.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import __version__
from .core import (
    DisconnectedDesignError,
    InvalidDesignError,
    ParseError,
    ResolvableDesign,
    ShapeMismatchError,
    dual,
    read_design,
    require_valid,
    resolution,
    write_design,
)
from .families import VARIANTS, catalog, catalog_entry, delta_design, gamma_design, is_semi_latin
from .sylvester import sylvester_graph

EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_SHAPE = 4

MAX_PRECISION = 1000
MAX_VARIETIES = 64  # every catalog design and its dual (v <= 48) fits
MAX_REPLICATES = 64  # the paper's designs have r <= 8
MAX_PROPOSALS = 10**7  # restarts x stages x moves; the default schedule makes 162,560


def _duration(text: str) -> float:
    """Seconds, accepting a trailing 's' (e.g. '60' or '60s')."""
    return float(text.rstrip("s"))


def _load_design(spec: str) -> ResolvableDesign:
    """Catalog name first, then file path."""
    try:
        return catalog_entry(spec).design
    except KeyError:
        pass
    if not os.path.exists(spec):
        raise ParseError(f"{spec!r} is neither a catalog name nor an existing file")
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {spec!r}: {exc}") from exc
    design = read_design(text)
    if design.v > MAX_VARIETIES:
        raise ShapeMismatchError(f"v={design.v} exceeds the limit of {MAX_VARIETIES} varieties")
    require_valid(design)
    return design


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc}") from exc


def _emit(pairs: list[tuple[str, str]], fmt: str, out) -> None:
    if fmt == "kv":
        for key, val in pairs:
            print(f"{key}: {val}", file=out)
    elif fmt == "csv":
        print(",".join(k for k, _ in pairs), file=out)
        print(",".join(v for _, v in pairs), file=out)
    else:  # table
        width = max(len(k) for k, _ in pairs)
        for key, val in pairs:
            print(f"{key.ljust(width)}  {val}", file=out)


def _cmd_generate(args, out) -> int:
    if args.r < 1:
        # the empty r=0 building block has no replicates to write
        raise ShapeMismatchError(f"a design needs r >= 1, got r={args.r}")
    ctor = {"gamma": gamma_design, "delta": delta_design}[args.family]
    text = write_design(ctor(args.r, args.variant))
    if args.out:
        _write_text(args.out, text)
    else:
        out.write(text)
    return 0


def _spectrum_lines(design, spec, precision: int) -> list[tuple[str, str]]:
    from .efficiency import a_value_float, round_decimal

    pairs: list[tuple[str, str]] = []
    pairs.append(("connected", "yes" if spec.connected else "no"))
    if not spec.connected:
        pairs.append(("zero-multiplicity", str(spec.zero_multiplicity)))
        return pairs
    a = spec.a_value
    pairs.append(("A-exact", f"{a.numerator}/{a.denominator}"))
    pairs.append(("A-decimal", round_decimal(a, precision)))
    pairs.append(("A-float-oracle", f"{a_value_float(design):.12f}"))
    for f in spec.factors:
        if isinstance(f.value, Fraction):
            shown = f"{f.value.numerator}/{f.value.denominator}"
        else:
            shown = f"{f.value:.12g} (non-exact)"
        pairs.append((f"factor x{f.multiplicity}", shown))
    return pairs


def _cmd_evaluate(args, out) -> int:
    from .efficiency import (
        REPORTED_SEARCH_BOUND_R8,
        average_variance,
        efficiency_spectrum,
        round_decimal,
        square_lattice_bound,
    )

    design = _load_design(args.design)
    pairs = [("design", design.label or args.design),
             ("v", str(design.v)), ("k", str(design.k)), ("r", str(design.r))]
    spec = efficiency_spectrum(design)
    pairs += _spectrum_lines(design, spec, args.precision)
    if spec.connected and spec.a_value is not None:
        pairs.append(("avg-variance(sigma2=1)",
                      f"{average_variance(spec.a_value, design.r):.6f}"))
        if design.v == 36 and design.k == 6 and 2 <= design.r <= 7:
            bound = square_lattice_bound(6, design.r)
            pairs.append(("square-lattice-bound", round_decimal(bound, args.precision)))
        if design.v == 36 and design.k == 6 and design.r == 8:
            pairs.append(("reported-search-bound", f"{REPORTED_SEARCH_BOUND_R8}"))
    _emit(pairs, args.format, out)
    if not spec.connected:
        return EXIT_DISCONNECTED
    return 0


#: search option -> SearchConfig field; an option left out keeps the field's default
_SEARCH_FIELDS = {"v": "v", "k": "k", "r": "r", "t0": "initial_temperature",
                  "cooling": "cooling_rate", "moves": "moves_per_temperature",
                  "tmin": "min_temperature", "restarts": "restarts", "seed": "seed",
                  "budget": "time_budget"}


def _cmd_search(args, out) -> int:
    from .efficiency import round_decimal
    from .search import SearchConfig, anneal

    if args.v is not None and args.v > MAX_VARIETIES:
        raise ShapeMismatchError(f"v={args.v} exceeds the limit of {MAX_VARIETIES} varieties")
    if args.r > MAX_REPLICATES:
        raise ShapeMismatchError(f"r={args.r} exceeds the limit of {MAX_REPLICATES} replicates")
    config = SearchConfig(**{field: getattr(args, option)
                             for option, field in _SEARCH_FIELDS.items()
                             if getattr(args, option) is not None})
    proposals = config.proposals()
    if proposals > MAX_PROPOSALS:
        raise ValueError(f"the schedule proposes {proposals} swaps, over the limit "
                         f"of {MAX_PROPOSALS}: lower --restarts or --moves, or raise --tmin")
    result = anneal(config)
    pairs = [
        ("seed", str(config.seed)),
        ("restarts", str(config.restarts)),
        ("A-exact", f"{result.a_exact.numerator}/{result.a_exact.denominator}"),
        ("A-decimal", round_decimal(result.a_exact, args.precision)),
        ("A-float", f"{result.a_float:.12f}"),
        ("objective", f"{result.objective:.9f}"),
        ("winning-restart", str(result.restart_index)),
        ("evaluations", str(result.evaluations)),
        ("budget-exhausted", "yes" if result.budget_exhausted else "no"),
    ]
    _emit(pairs, args.format, out)
    # wall-clock time is not part of the deterministic output contract
    print(f"elapsed: {result.elapsed_seconds:.2f}s", file=sys.stderr)
    text = write_design(result.design)
    if args.out:
        _write_text(args.out, text)
    else:
        out.write(text)
    if args.trace:
        _write_text(args.trace, result.trace_csv())
    return 0


def _cmd_robustness(args, out) -> int:
    from .efficiency import robustness, round_decimal

    design = _load_design(args.design)
    report = robustness(design)
    pairs = [("design", design.label or args.design), ("r", str(design.r))]
    for i, a in enumerate(report.per_replicate, start=1):
        shown = "disconnected" if a is None else round_decimal(a, args.precision)
        pairs.append((f"without-replicate-{i}", shown))
    pairs.append(("worst", "undefined" if report.worst is None
                  else round_decimal(report.worst, args.precision)))
    pairs.append(("average", "undefined" if report.average is None
                  else round_decimal(report.average, args.precision)))
    _emit(pairs, args.format, out)
    return 0


def _cmd_isomorphic(args, out) -> int:
    from .isomorphism import are_isomorphic

    d1, d2 = _load_design(args.design_a), _load_design(args.design_b)
    shape1 = (d1.v, d1.k, d1.r)
    shape2 = (d2.v, d2.k, d2.r)
    if shape1 != shape2:
        print(f"not isomorphic: shapes differ {shape1} vs {shape2}", file=out)
        return EXIT_FALSE
    iso = are_isomorphic(d1, d2)
    print("isomorphic" if iso else "not isomorphic", file=out)
    return 0 if iso else EXIT_FALSE


def _cmd_autorder(args, out) -> int:
    from .isomorphism import automorphism_order

    design = _load_design(args.design)
    print(automorphism_order(design), file=out)
    return 0


def _cmd_sylvester_check(args, out) -> int:
    from .isomorphism import is_sylvester_design

    design = _load_design(args.design)
    witness = is_sylvester_design(design)
    if witness is None:
        print("not a Sylvester design", file=out)
        return EXIT_FALSE
    print("Sylvester design", file=out)
    if args.witness:
        print("witness: " + " ".join(str(x) for x in witness.permutation), file=out)
    return 0


def _cmd_dual(args, out) -> int:
    design = _load_design(args.design)
    bd = dual(design)
    grouping = resolution(bd)
    print(f"# {bd.label}", file=out)
    print(f"# varieties: {bd.v}, blocks: {len(bd.blocks)}, block size: {bd.block_size()}", file=out)
    sls = is_semi_latin(bd) if design.v == 36 and design.k == 6 else None
    print(f"# semi-latin: {'yes' if sls else 'no'}", file=out)
    if grouping is None:
        print("# resolvable: no (blocks listed flat)", file=out)
        for block in bd.blocks:
            print(" ".join(str(x) for x in block), file=out)
    else:
        print("# resolvable: yes", file=out)
        for gi, cls in enumerate(grouping):
            if gi:
                print(file=out)
            for block in cls:
                print(" ".join(str(x) for x in block), file=out)
    return 0


def _cmd_catalog(args, out) -> int:
    if args.evaluate:
        from .efficiency import a_value, round_decimal
    for entry in catalog():
        d = entry.design
        line = f"{entry.name}  v={d.v} k={d.k} r={d.r}"
        if args.evaluate:
            line += f"  A={round_decimal(a_value(d), args.precision)}"
        line += f"  [{entry.provenance}]"
        print(line, file=out)
    return 0


def _cmd_export(args, out) -> int:
    if args.what == "sylvester-edges":
        for u, v in sylvester_graph().edge_list():
            print(f"{u} {v}", file=out)
        return 0
    # concurrence matrix of a design
    from .core import concurrence_matrix

    if not args.design:
        raise ParseError("export concurrence needs a design argument")
    design = _load_design(args.design)
    lam = concurrence_matrix(design)
    for row in lam.tolist():
        print(" ".join(str(x) for x in row), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbdesign",
        description="Resolvable incomplete-block designs: construction, exact "
                    "A-criterion evaluation, annealing search, and isomorphism analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, precision_default=4):
        p.add_argument("--format", choices=("kv", "table", "csv"), default="table")
        p.add_argument("--precision", type=int, default=precision_default,
                       help=f"decimal places for reported values (0..{MAX_PRECISION})")

    p = sub.add_parser("generate", help="construct a family design")
    p.add_argument("--family", choices=("gamma", "delta"), required=True)
    p.add_argument("--variant", choices=VARIANTS, default="plain")
    p.add_argument("--r", type=int, required=True, dest="r")
    p.add_argument("--out", help="write design text to a file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="exact A, spectrum, connectivity")
    p.add_argument("design", help="catalog name or design file")
    add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    # the search options default to None: SearchConfig's defaults apply
    p = sub.add_parser("search", help="simulated-annealing design search")
    p.add_argument("--v", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=_duration,
                   help="wall-clock budget in seconds (e.g. 60 or 60s); output is "
                        "reproducible only when the budget does not bind")
    p.add_argument("--t0", type=float, help="initial temperature")
    p.add_argument("--cooling", type=float)
    p.add_argument("--moves", type=int, help="moves per temperature")
    p.add_argument("--tmin", type=float)
    p.add_argument("--out", help="write the best design to a file")
    p.add_argument("--trace", help="write the objective trace as CSV")
    add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("robustness", help="A after every single-replicate loss")
    p.add_argument("design")
    add_common(p)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("isomorphic", help="design isomorphism (exit 0 iff yes)")
    p.add_argument("design_a")
    p.add_argument("design_b")
    p.set_defaults(func=_cmd_isomorphic)

    p = sub.add_parser("autorder", help="automorphism group order")
    p.add_argument("design")
    p.set_defaults(func=_cmd_autorder)

    p = sub.add_parser("sylvester-check", help="Sylvester-design predicate (exit 0 iff yes)")
    p.add_argument("design")
    p.add_argument("--witness", action="store_true", help="print the witness permutation")
    p.set_defaults(func=_cmd_sylvester_check)

    p = sub.add_parser("dual", help="interchange blocks and varieties")
    p.add_argument("design")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("catalog", help="list the named designs")
    p.add_argument("--evaluate", action="store_true", help="include A values")
    p.add_argument("--precision", type=int, default=4, help=f"0..{MAX_PRECISION}")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export", help="export graph/matrix data")
    p.add_argument("what", choices=("sylvester-edges", "concurrence"))
    p.add_argument("design", nargs="?", help="design (for concurrence)")
    p.set_defaults(func=_cmd_export)

    return parser


def run(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= getattr(args, "precision", 0) <= MAX_PRECISION:
            raise ValueError(f"--precision must be in 0..{MAX_PRECISION}, got {args.precision}")
        return args.func(args, out)
    except (ParseError, ValueError) as exc:
        # ValueError: search settings the library rejects, or a bad --precision
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (ShapeMismatchError, InvalidDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
