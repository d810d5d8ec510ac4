"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every reference value is frozen at the precision it was published with;
comparisons use exact rounding equality (round half away from zero) unless
a tolerance is stated inline.
"""

import itertools
import time
from fractions import Fraction

from rbdesign import (
    a_value,
    a_value_float,
    are_isomorphic,
    automorphism_order,
    catalog,
    catalog_entry,
    concurrence_equivalent,
    delta_design,
    dual,
    efficiency_spectrum,
    gamma_design,
    is_sylvester_design,
    round_decimal,
    roy_check,
    same_spectrum,
    square_lattice_bound,
    validate,
)
from rbdesign.search import SearchConfig, anneal
from rbdesign.sylvester import enumerate_one_factorizations, sylvester_graph, verify_sylvester


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{suffix}", flush=True)


# published A values, four decimals
A_TABLE = {
    ("gamma", "RC"): {2: "0.7778", 3: "0.8235", 4: "0.8380", 5: "0.8453",
                      6: "0.8498", 7: "0.8528", 8: "0.8549"},
    ("gamma", "C"): {2: "0.7778", 3: "0.8186", 4: "0.8341", 5: "0.8422",
                     6: "0.8473", 7: "0.8507"},
    ("gamma", "plain"): {2: "0.7527", 3: "0.8091", 4: "0.8285", 5: "0.8383", 6: "0.8442"},
    ("delta", "RC"): {2: "0.7778", 3: "0.8235", 4: "0.8393", 5: "0.8456",
                      6: "0.8501", 7: "0.8528", 8: "0.8549"},
    ("delta", "C"): {2: "0.7778", 3: "0.8219", 4: "0.8346", 5: "0.8427",
                     6: "0.8473", 7: "0.8507"},
    ("delta", "plain"): {2: "0.7692", 3: "0.8101", 4: "0.8292", 5: "0.8383", 6: "0.8442"},
}
LATTICE_COLUMN = {2: "0.7778", 3: "0.8235", 4: "0.8400", 5: "0.8485", 6: "0.8537", 7: "0.8571"}


def test_criterion_1_a_value_table():
    failures = []
    ctors = {"gamma": gamma_design, "delta": delta_design}
    for (family, variant), column in A_TABLE.items():
        for r, expected in column.items():
            got = round_decimal(a_value(ctors[family](r, variant)), 4)
            if got != expected:
                failures.append(f"{family}-{variant}-{r}: {got} != {expected}")
    for r, expected in LATTICE_COLUMN.items():
        got = round_decimal(square_lattice_bound(6, r), 4)
        if got != expected:
            failures.append(f"lattice-{r}: {got} != {expected}")
    got = round_decimal(a_value(catalog_entry("theta-8").design), 4)
    if got != "0.8549":
        failures.append(f"theta-8: {got} != 0.8549")
    n = sum(len(c) for c in A_TABLE.values()) + len(LATTICE_COLUMN) + 1
    _report(1, f"A-criterion table, {n} entries at 4 dp", not failures, "; ".join(failures))
    assert not failures


def test_criterion_2_spectra():
    expected = {
        "gamma-6": {Fraction(1): 10, Fraction(8, 9): 9, Fraction(3, 4): 16},
        "gamma-c-7": {Fraction(1): 5, Fraction(6, 7): 5, Fraction(19, 21): 9,
                      Fraction(11, 14): 16},
        "gamma-rc-8": {Fraction(7, 8): 10, Fraction(11, 12): 9, Fraction(13, 16): 16},
    }
    failures = []
    for name, want in expected.items():
        spec = efficiency_spectrum(catalog_entry(name).design)
        got = {f.value: f.multiplicity for f in spec.factors}
        if got != want or not all(f.exact for f in spec.factors):
            failures.append(f"{name}: {got}")
    _report(2, "exact spectra of the partially balanced designs", not failures,
            "; ".join(failures))
    assert not failures


def test_criterion_3_seven_decimal_discrimination():
    pairs = [
        (gamma_design(5), "0.8382815"),
        (delta_design(5), "0.8382679"),
        (gamma_design(6, "C"), "0.8472622"),
        (delta_design(6, "C"), "0.8472563"),
        (gamma_design(7, "RC"), "0.8527641"),
        (delta_design(7, "RC"), "0.8527611"),
    ]
    failures = []
    for design, expected in pairs:
        got = round_decimal(a_value(design), 7)
        if got != expected:
            failures.append(f"{design.label}: {got} != {expected}")
    _report(3, "seven-decimal discrimination", not failures, "; ".join(failures))
    assert not failures


def test_criterion_4_robustness_table():
    from rbdesign import robustness

    table = {
        # r: ((gamma worst, avg), (delta worst, avg)) at the printed precision
        4: (("0.8186", "0.8211"), ("0.8219", "0.8227")),
        5: (("0.8341", "0.8364"), ("0.8346", "0.8368")),
        6: (("0.8422", "0.8443"), ("0.8427", "0.8446")),
        7: (("0.847262", "0.849047"), ("0.847256", "0.849040")),
        8: (("0.8506638", "0.8522390"), ("0.8506638", "0.8522368")),
    }
    theta8 = ("0.8506638", "0.8522389")
    failures = []
    for r, (gam, delt) in table.items():
        for (worst_exp, avg_exp), design in ((gam, gamma_design(r, "RC")),
                                             (delt, delta_design(r, "RC"))):
            places = len(worst_exp.split(".")[1])
            rep = robustness(design)
            got = (round_decimal(rep.worst, places), round_decimal(rep.average, places))
            if got != (worst_exp, avg_exp):
                failures.append(f"{design.label}: {got} != {(worst_exp, avg_exp)}")
    rep = robustness(catalog_entry("theta-8").design)
    got = (round_decimal(rep.worst, 7), round_decimal(rep.average, 7))
    if got != theta8:
        failures.append(f"theta-8: {got} != {theta8}")
    _report(4, "single-replicate-loss worst/average table", not failures, "; ".join(failures))
    assert not failures


def test_criterion_5_graph_structure():
    report = verify_sylvester(sylvester_graph())
    ds = enumerate_one_factorizations()
    canonical = [
        ("d1", "12|36|45 13|24|56 14|26|35 15|23|46 16|25|34"),
        ("d2", "12|36|45 13|25|46 14|23|56 15|26|34 16|24|35"),
        ("d3", "12|34|56 13|25|46 14|26|35 15|24|36 16|23|45"),
        ("d4", "12|34|56 13|26|45 14|25|36 15|23|46 16|24|35"),
        ("d5", "12|35|46 13|26|45 14|23|56 15|24|36 16|25|34"),
        ("d6", "12|35|46 13|24|56 14|25|36 15|26|34 16|23|45"),
    ]
    def render(d):
        return d.label, " ".join("|".join(f"{a}{b}" for a, b in f) for f in d.factors)

    table_ok = len(ds) == 6 and [render(d) for d in ds] == canonical
    ok = report.ok and table_ok
    detail = "" if ok else f"failures={[c.name for c in report.failures()]} table_ok={table_ok}"
    _report(5, "graph structure checks and one-factorization table", ok, detail)
    assert report.ok, report.failures()
    assert table_ok


def test_criterion_6_sylvester_designs():
    designs = {name: catalog_entry(name).design
               for name in ("gamma-rc-8", "theta-8", "delta-rc-8")}
    failures = []
    for name, d in designs.items():
        if is_sylvester_design(d) is None:
            failures.append(f"{name} not recognized")
    orders = {name: automorphism_order(d) for name, d in designs.items()}
    if orders != {"gamma-rc-8": 1440, "theta-8": 1, "delta-rc-8": 144}:
        failures.append(f"orders {orders}")
    for a, b in itertools.combinations(designs.values(), 2):
        if are_isomorphic(a, b):
            failures.append(f"{a.label} isomorphic to {b.label}")
        if not same_spectrum(a, b):
            failures.append(f"{a.label} spectrum differs from {b.label}")
    _report(6, "Sylvester designs: predicate, orders, non-isomorphism", not failures,
            "; ".join(failures))
    assert not failures


def test_criterion_7_isomorphism_facts():
    failures = []
    for r in range(2, 8):
        expected = r in (2, 7)
        if are_isomorphic(gamma_design(r, "R"), gamma_design(r, "C")) != expected:
            failures.append(f"gamma r={r}")
        if not same_spectrum(gamma_design(r, "R"), gamma_design(r, "C")):
            failures.append(f"gamma spectrum r={r}")
        expected = r in (2, 3, 5, 7)
        if are_isomorphic(delta_design(r, "R"), delta_design(r, "C")) != expected:
            failures.append(f"delta r={r}")
        if not same_spectrum(delta_design(r, "R"), delta_design(r, "C")):
            failures.append(f"delta spectrum r={r}")
    theta4 = catalog_entry("theta-4").design
    d4 = delta_design(4, "RC")
    if round_decimal(a_value(theta4), 4) != "0.8393":
        failures.append("cached search design drifted from 0.8393")
    if not same_spectrum(theta4, d4):
        failures.append("theta-4 spectrum differs from delta-rc-4")
    if concurrence_equivalent(theta4, d4):
        failures.append("theta-4 concurrence unexpectedly matches delta-rc-4")
    _report(7, "isomorphism facts incl. cached 4-replicate search design", not failures,
            "; ".join(failures))
    assert not failures


def test_criterion_8_duality_identity():
    failures = []
    for ctor, family in ((delta_design, "delta"), (gamma_design, "gamma")):
        for r in range(2, 7):
            residual = roy_check(ctor(r))
            if residual != 0:
                failures.append(f"{family}-{r}: residual {residual}")
    if a_value(delta_design(6)) != a_value(dual(delta_design(6))):
        failures.append("A != A' at r=6")
    _report(8, "duality identity residual zero (r=2..6, both families)", not failures,
            "; ".join(failures))
    assert not failures


def test_criterion_9_oracle_agreement():
    failures = []
    entries = catalog()
    for entry in entries:
        exact = float(a_value(entry.design))
        oracle = a_value_float(entry.design)
        rel = abs(oracle - exact) / exact
        if rel >= 1e-9:
            failures.append(f"{entry.name}: rel err {rel:.2e}")
    _report(9, f"exact vs float oracle, {len(entries)} catalog designs at 1e-9",
            not failures, "; ".join(failures))
    assert not failures


def test_criterion_10_search_benchmark():
    config = SearchConfig(r=4, restarts=8, seed=0, time_budget=60.0)
    start = time.monotonic()
    result = anneal(config)
    elapsed = time.monotonic() - start
    a = float(result.a_exact)
    ok = a >= 0.8360 and elapsed < 60.0 and not result.budget_exhausted
    stretch = round_decimal(result.a_exact, 4) == "0.8393"
    _report(10, "search r=4 benchmark (A >= 0.8360 within 60 s)", ok,
            f"A={a:.6f}, elapsed={elapsed:.1f}s, reached 0.8393: {'yes' if stretch else 'no'}")
    assert validate(result.design) == []
    assert ok


def test_criterion_11_square_subset_optimality(delta_subset_design):
    failures = []
    for r in range(2, 7):
        leading = a_value(delta_design(r))
        best = max(
            a_value(delta_subset_design(subset))
            for subset in itertools.combinations(range(6), r)
        )
        if leading != best:
            failures.append(f"r={r}: leading {leading} vs best {best}")
    _report(11, "leading Latin-square subset attains the maximum A (r=2..6)",
            not failures, "; ".join(failures))
    assert not failures
