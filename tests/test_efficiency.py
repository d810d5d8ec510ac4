"""Exact A-criterion machinery against independent oracles and known values."""

from fractions import Fraction

import numpy as np
import pytest

from rbdesign import (
    DisconnectedDesignError,
    ResolvableDesign,
    ShapeMismatchError,
    a_value,
    a_value_float,
    average_variance,
    concurrence_matrix,
    delta_design,
    dual,
    efficiency_spectrum,
    gamma_design,
    robustness,
    round_decimal,
    square_lattice_bound,
)
from rbdesign.sylvester import galaxy, sylvester_graph


def test_information_matrix_diagonal_and_row_sums(lattice, gamma_rc_8):
    # rk * (I - (rk)^-1 Lambda): diagonal rk * 5/6, zero row sums, symmetric
    for d in (lattice, gamma_rc_8):
        rk = d.r * d.k
        m = rk * np.eye(36, dtype=np.int64) - concurrence_matrix(d)
        assert (np.diag(m) == rk * Fraction(5, 6)).all()
        assert (m.sum(axis=1) == 0).all()
        assert (m == m.T).all()


def test_spectrum_trace_identity(gamma_rc_8, theta8):
    # sum of factors = trace of the scaled information matrix = v(1 - 1/k)
    for d in (gamma_rc_8, theta8, delta_design(5, "C")):
        spec = efficiency_spectrum(d)
        total = sum(
            (f.value if f.exact else Fraction(f.value).limit_denominator(10**10))
            * f.multiplicity
            for f in spec.factors
        )
        assert abs(float(total) - 36 * (1 - 1 / 6)) < 1e-9


def test_spectrum_multiplicities_and_range(gamma_rc_8):
    for d in (gamma_rc_8, gamma_design(4, "R"), delta_design(3)):
        spec = efficiency_spectrum(d)
        assert sum(f.multiplicity for f in spec.factors) == 35
        assert all(0 < float(f.value) <= 1 for f in spec.factors)


def test_exact_a_for_lattice_is_seven_ninths(lattice):
    assert a_value(lattice) == Fraction(7, 9)


def test_exact_a_for_eight_replicate_reference(gamma_rc_8, theta8, delta_rc_8):
    # harmonic mean of {7/8 x10, 11/12 x9, 13/16 x16}, computable by hand
    expected = Fraction(7007, 8196)
    for d in (gamma_rc_8, theta8, delta_rc_8):
        assert a_value(d) == expected


def test_seven_decimal_value_for_five_galaxies():
    assert round_decimal(a_value(gamma_design(5)), 7) == "0.8382815"


def test_disconnected_single_galaxy_raises():
    with pytest.raises(DisconnectedDesignError):
        a_value(gamma_design(1))
    spec = efficiency_spectrum(gamma_design(1))
    assert not spec.connected and spec.a_value is None
    assert spec.zero_multiplicity == 6  # one zero per starfish component


def test_irrational_factors_match_float_eigenvalues():
    d = gamma_design(5, "RC")
    spec = efficiency_spectrum(d)
    inexact = [f for f in spec.factors if not f.exact]
    assert inexact, "this design has irrational factors"
    lam = concurrence_matrix(d)
    w = np.linalg.eigvalsh(np.eye(36) - lam / (d.r * d.k))[1:]
    approx = sorted(
        float(f.value) for f in spec.factors for _ in range(f.multiplicity)
    )
    assert np.allclose(sorted(w), approx, atol=1e-9)


def test_float_oracle_examples():
    assert a_value_float(gamma_design(4, "RC")) == pytest.approx(0.8380, abs=1e-4)
    assert a_value_float(delta_design(7, "RC")) == pytest.approx(0.8527611, abs=1e-7)


@pytest.mark.parametrize(
    "ctor,r,variant",
    [(gamma_design, 3, "plain"), (gamma_design, 6, "C"), (delta_design, 4, "RC"),
     (delta_design, 7, "R"), (gamma_design, 8, "RC")],
)
def test_exact_and_float_routes_agree(ctor, r, variant):
    d = ctor(r, variant)
    exact = float(a_value(d))
    oracle = a_value_float(d)
    assert abs(oracle - exact) / exact < 1e-9


def test_average_variance():
    assert average_variance(Fraction(1), 2) == pytest.approx(1.0)
    assert average_variance(Fraction(7, 9), 2) == pytest.approx(9 / 7)
    assert average_variance(0.8549, 8) == pytest.approx(0.29243, abs=1e-4)
    with pytest.raises(ValueError):
        average_variance(Fraction(0), 2)
    with pytest.raises(ValueError):
        average_variance(Fraction(1, 2), 2, sigma2=-1.0)


def test_square_lattice_bound_reference_column():
    expected = {2: "0.7778", 3: "0.8235", 4: "0.8400", 5: "0.8485", 6: "0.8537", 7: "0.8571"}
    for r, val in expected.items():
        assert round_decimal(square_lattice_bound(6, r), 4) == val
    assert square_lattice_bound(6, 7) == Fraction(6, 7)


def test_square_lattice_bound_matches_actual_lattices(lattice):
    # r=2 and r=3 lattices exist; the formula must agree with them exactly
    assert square_lattice_bound(6, 2) == a_value(lattice)
    assert square_lattice_bound(6, 3) == a_value(gamma_design(3, "RC"))


def test_square_lattice_bound_range_errors():
    with pytest.raises(ShapeMismatchError):
        square_lattice_bound(6, 1)
    with pytest.raises(ShapeMismatchError):
        square_lattice_bound(6, 8)


def test_square_lattice_bound_dominates_catalog():
    from rbdesign import catalog

    for entry in catalog():
        d = entry.design
        if 2 <= d.r <= 7:
            assert square_lattice_bound(6, d.r) >= a_value(d), entry.name


def test_robustness_of_five_replicate_design():
    report = robustness(gamma_design(5, "RC"))
    shown = sorted(round_decimal(a, 4) for a in report.per_replicate)
    assert shown == ["0.8341", "0.8341", "0.8380", "0.8380", "0.8380"]
    assert round_decimal(report.worst, 4) == "0.8341"
    assert round_decimal(report.average, 4) == "0.8364"
    assert report.disconnected_deletions == ()


def test_robustness_deletions_stay_in_family():
    # removing any replicate of the RC design leaves one of the r-1 family members
    for r in (4, 5, 6):
        targets = {
            a_value(gamma_design(r - 1, "RC")),
            a_value(gamma_design(r - 1, "R")),
            a_value(gamma_design(r - 1, "C")),
        }
        report = robustness(gamma_design(r, "RC"))
        assert set(report.per_replicate) <= targets


def test_robustness_requires_three_replicates(lattice):
    with pytest.raises(ShapeMismatchError):
        robustness(lattice)


def test_robustness_disconnected_deletion_flagging():
    g = galaxy(sylvester_graph(), 1)
    d = ResolvableDesign.from_replicates([g, g, g], v=36, k=6, label="triple galaxy")
    report = robustness(d)
    assert report.per_replicate == (None, None, None)
    assert report.worst is None and report.average is None
    assert report.disconnected_deletions == (0, 1, 2)
    skipped = robustness(d, skip_disconnected=True)
    assert skipped.worst is None  # nothing left to aggregate


def test_dual_design_evaluation():
    # the efficiency machinery accepts plain block designs (used for duality)
    bd = dual(delta_design(6))
    assert a_value(bd) == a_value(delta_design(6))  # self-dual A at r=6


def test_round_decimal_half_away_from_zero():
    assert round_decimal(Fraction(1, 8), 2) == "0.13"
    assert round_decimal(Fraction(5, 1000), 2) == "0.01"
    assert round_decimal(Fraction(-1, 8), 2) == "-0.13"
    assert round_decimal(Fraction(7007, 8196), 4) == "0.8549"
    assert round_decimal(Fraction(7007, 8196), 6) == "0.854929"
