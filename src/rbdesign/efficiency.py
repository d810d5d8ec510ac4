"""A-criterion evaluation: exact rational spectra and a floating-point oracle.

The scaled information matrix of a design is I - (rk)^-1 * Lambda, where
Lambda is the concurrence matrix.  Its eigenvalues on the complement of the
all-ones vector are the canonical efficiency factors; their harmonic mean A
drives the average pairwise variance 2*sigma^2/(r*A).

Exact route: rk * (I - (rk)^-1 Lambda) = rk*I - Lambda is an integer matrix,
so its characteristic polynomial can be computed with arbitrary-precision
integers (Faddeev-LeVerrier; every division is exact).  A comes from the two
lowest coefficients of the reduced polynomial, rational factors from integer
root extraction, and residual irrational factors from high-precision root
finding on the exactly-deflated remainder.  The floating-point route is an
independent symmetric eigendecomposition used as a cross-check everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .core import (
    BlockDesign,
    DisconnectedDesignError,
    ResolvableDesign,
    ShapeMismatchError,
    concurrence_matrix,
)

# Upper bound for r=8 reported by an external search package for these
# parameters; kept for comparison in reports only, never computed here.
REPORTED_SEARCH_BOUND_R8 = 0.854931

#: absolute eigenvalue threshold below which the float route calls a
#: design disconnected (true factors here are never below ~0.1)
_FLOAT_ZERO_TOL = 1e-8


def design_parameters(design: ResolvableDesign | BlockDesign) -> tuple[int, int, int]:
    """(v, r, k) for any equireplicate, equal-block-size design."""
    if isinstance(design, ResolvableDesign):
        return design.v, design.r, design.k
    return design.v, design.replication(), design.block_size()


def _integer_information(design: ResolvableDesign | BlockDesign) -> tuple[np.ndarray, int]:
    """(rk*I - Lambda, rk): the information matrix cleared of denominators."""
    v, r, k = design_parameters(design)
    lam = concurrence_matrix(design)
    rk = r * k
    return rk * np.eye(v, dtype=np.int64) - lam, rk


@lru_cache(maxsize=4096)
def _charpoly_cached(data: bytes, n: int) -> tuple[int, ...]:
    C = np.frombuffer(data, dtype=np.int64).reshape(n, n)
    return _charpoly(C)


def _charpoly(C: np.ndarray) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - C) of an integer matrix.

    Faddeev-LeVerrier over Python ints: the trace divisions are exact for
    integer matrices, which is asserted rather than assumed.  Returned as
    coefficients from x^n down to x^0.
    """
    n = C.shape[0]
    A = C.astype(object)
    M = np.eye(n, dtype=object)
    eye = np.eye(n, dtype=object)
    coeffs = [1]
    for k in range(1, n + 1):
        AM = A @ M
        t = int(np.trace(AM))
        q, rem = divmod(t, k)
        assert rem == 0, "Faddeev-LeVerrier trace not divisible: non-integer input?"
        coeffs.append(-q)
        M = AM + (-q) * eye
    return tuple(coeffs)


def characteristic_polynomial(design: ResolvableDesign | BlockDesign) -> tuple[int, ...]:
    """Characteristic polynomial of rk*I - Lambda, exact, cached per matrix."""
    C, _ = _integer_information(design)
    return _charpoly_cached(C.tobytes(), C.shape[0])


def scaled_polynomial(design: ResolvableDesign | BlockDesign) -> tuple[Fraction, ...]:
    """Characteristic polynomial of the scaled information matrix itself.

    Rational coefficients; equal tuples mean equal efficiency-factor
    multisets even across designs with different r or k.
    """
    coeffs = characteristic_polynomial(design)
    _, r, k = design_parameters(design)
    rk = r * k
    return tuple(Fraction(c, rk ** i) for i, c in enumerate(coeffs))


@dataclass(frozen=True)
class SpectrumFactor:
    """One canonical efficiency factor with its multiplicity.

    exact=True means value is a Fraction from integer root extraction;
    otherwise it is a float correct to ~12 significant digits for an
    irrational eigenvalue (the A value stays exact regardless).
    """

    value: Fraction | float
    multiplicity: int
    exact: bool


@dataclass(frozen=True)
class EfficiencySpectrum:
    factors: tuple[SpectrumFactor, ...]
    a_value: Fraction | None
    connected: bool
    zero_multiplicity: int


def _poly_eval_int(coeffs_low: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs_low):
        acc = acc * x + c
    return acc


def _deflate_int_root(coeffs_low: list[int], root: int) -> list[int]:
    """Divide by (x - root); exact synthetic division, low-order first."""
    high = list(reversed(coeffs_low))
    out = [high[0]]
    for c in high[1:]:
        out.append(c + root * out[-1])
    assert out[-1] == 0
    return list(reversed(out[:-1]))


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        d = len(a) - len(b)
        coef = a[-1] / b[-1]
        q[d] = coef
        for i, c in enumerate(b):
            a[i + d] -= coef * c
        a = _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        _, rem = _poly_divmod(a, b)
        a, b = b, rem
    return [c / a[-1] for c in a] if a else a


def _squarefree_parts(coeffs_low: list[int]) -> list[tuple[list[Fraction], int]]:
    """Square-free decomposition (Musser): p = prod q_i^i, returns [(q_i, i)].

    Coefficients low-order first; only parts of positive degree returned.
    """

    def derivative(p):
        return [c * i for i, c in enumerate(p)][1:]

    p = [Fraction(c) for c in coeffs_low]
    g = _poly_gcd(p, derivative(p))
    if len(g) <= 1:
        return [(p, 1)] if len(p) > 1 else []
    w, rem = _poly_divmod(p, g)
    assert not rem
    parts = []
    mult = 1
    while len(w) > 1:
        y = _poly_gcd(w, g)
        q, rem = _poly_divmod(w, y)
        assert not rem
        if len(q) > 1:
            parts.append((q, mult))
        g, rem = _poly_divmod(g, y)
        assert not rem
        w = y
        mult += 1
    return parts


def _irrational_factors(coeffs_low: list[int], rk: int) -> list[SpectrumFactor]:
    """High-precision real roots of the residual polynomial, as factors of rk.

    Eigenvalues of a symmetric matrix are real, but the residual can have
    degree 30+ with tight clusters, so the polynomial solver gets generous
    precision and an escalation ladder before giving up."""
    factors = []
    with mpmath.workdps(60):
        for part, mult in _squarefree_parts(coeffs_low):
            coefs_high = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                          for c in reversed(part)]
            roots = None
            for extraprec, maxsteps in ((100, 500), (300, 2000), (800, 10000)):
                try:
                    roots = mpmath.polyroots(coefs_high, maxsteps=maxsteps,
                                             extraprec=extraprec)
                    break
                except mpmath.libmp.NoConvergence:
                    continue
            if roots is None:
                raise ArithmeticError("residual eigenvalue polynomial did not converge")
            for root in roots:
                assert abs(mpmath.im(root)) < mpmath.mpf("1e-25"), "complex eigenvalue?"
                val = float(mpmath.re(root) / rk)
                factors.append(SpectrumFactor(value=round(val, 14), multiplicity=mult, exact=False))
    return factors


def _reduced_polynomial(design) -> tuple[Fraction | None, int, list[int], int]:
    """(exact A or None, zero multiplicity, reduced low-order coefficients, rk).

    The reduced polynomial has the forced zero roots stripped; A comes from
    its two lowest coefficients (the sum of reciprocal eigenvalues of rk*M
    is -a1/a0, scaled back by rk), with no root extraction needed."""
    v, r, k = design_parameters(design)
    rk = r * k
    coeffs = characteristic_polynomial(design)
    low = list(reversed(coeffs))  # low[i] = coefficient of x^i
    m = 0
    while low[m] == 0:
        m += 1
    reduced = low[m:]
    a = Fraction(-(v - 1) * reduced[0], rk * reduced[1]) if m == 1 else None
    return a, m, reduced, rk


@lru_cache(maxsize=256)
def efficiency_spectrum(design: ResolvableDesign | BlockDesign) -> EfficiencySpectrum:
    """All v-1 canonical efficiency factors plus the exact A value.

    The forced zero eigenvalue (constant vectors) is stripped; any further
    zero root marks the design disconnected, in which case a_value is None
    and no factors are reported.
    """
    a, m, reduced, rk = _reduced_polynomial(design)
    if m != 1:
        return EfficiencySpectrum(factors=(), a_value=None, connected=False, zero_multiplicity=m)
    factors: list[SpectrumFactor] = []
    rem = reduced[:]
    for t in range(1, rk + 1):
        mult = 0
        while len(rem) > 1 and _poly_eval_int(rem, t) == 0:
            rem = _deflate_int_root(rem, t)
            mult += 1
        if mult:
            factors.append(SpectrumFactor(Fraction(t, rk), mult, exact=True))
    if len(rem) > 1:
        factors.extend(_irrational_factors(rem, rk))
    factors.sort(key=lambda f: float(f.value))
    return EfficiencySpectrum(
        factors=tuple(factors), a_value=a, connected=True, zero_multiplicity=1
    )


def a_value(design: ResolvableDesign | BlockDesign) -> Fraction:
    """Exact A: harmonic mean of the canonical efficiency factors.

    Computed from characteristic-polynomial coefficients alone, so it stays
    exact (and cheap) even when individual factors are irrational."""
    a, m, _, _ = _reduced_polynomial(design)
    if a is None:
        raise DisconnectedDesignError(
            f"design {design.label or '<unlabelled>'} is disconnected "
            f"(zero eigenvalue multiplicity {m})"
        )
    return a


def _reciprocal_sum(lam: np.ndarray, r: int, k: int) -> float:
    """Sum of reciprocal canonical efficiency factors, (v-1)/A, from the
    integer concurrence matrix by a symmetric eigendecomposition; +inf when
    the design is disconnected."""
    v = lam.shape[0]
    m = np.eye(v) - lam / (r * k)
    w = np.linalg.eigvalsh(m)
    if w[1] < _FLOAT_ZERO_TOL:
        return math.inf
    return float(np.sum(1.0 / w[1:]))


def a_value_float(design: ResolvableDesign | BlockDesign) -> float:
    """Independent A oracle via floating-point symmetric eigendecomposition."""
    v, r, k = design_parameters(design)
    total = _reciprocal_sum(concurrence_matrix(design), r, k)
    if total == math.inf:
        raise DisconnectedDesignError("disconnected (float route)")
    return (v - 1) / total


def average_variance(a: Fraction | float, r: int, sigma2: float = 1.0) -> float:
    """Average variance 2*sigma^2/(r*A) of a pairwise difference estimator."""
    if a <= 0:
        raise ValueError(f"A must be positive, got {a}")
    if sigma2 <= 0:
        raise ValueError(f"sigma^2 must be positive, got {sigma2}")
    return 2.0 * sigma2 / (r * float(a))


def square_lattice_bound(n: int, r: int) -> Fraction:
    """A of the (possibly hypothetical) square lattice for n^2 varieties.

    Spectrum: (r-1)/r with multiplicity r(n-1) and 1 with multiplicity
    (n-1)(n+1-r).  For r <= 3 (n=6) actual lattices exist and this equals
    their a_value; beyond that it is an unachievable upper bound.
    """
    if not 2 <= r <= n + 1:
        raise ShapeMismatchError(f"square lattice requires 2 <= r <= n+1, got r={r}")
    recip_sum = Fraction(r, r - 1) * (r * (n - 1)) + (n - 1) * (n + 1 - r)
    return Fraction(n * n - 1) / recip_sum


@dataclass(frozen=True)
class RobustnessReport:
    """A after each single-replicate deletion, with worst case and mean."""

    per_replicate: tuple[Fraction | None, ...]  # None = deletion disconnects
    worst: Fraction | None
    average: Fraction | None
    disconnected_deletions: tuple[int, ...]


def robustness(design: ResolvableDesign, skip_disconnected: bool = False) -> RobustnessReport:
    """Evaluate the loss of each single replicate.

    Every deletion is evaluated exactly.  A deletion that disconnects the
    design is reported as None; by default it poisons worst/average (they
    become None), unless skip_disconnected excludes it from both.
    """
    if design.r < 3:
        raise ShapeMismatchError(f"robustness needs r >= 3, got r={design.r}")
    values: list[Fraction | None] = []
    bad: list[int] = []
    for i in range(design.r):
        try:
            values.append(a_value(design.without_replicate(i)))
        except DisconnectedDesignError:
            values.append(None)
            bad.append(i)
    good = [x for x in values if x is not None]
    if (bad and not skip_disconnected) or not good:
        worst = average = None
    else:
        worst = min(good)
        average = sum(good, Fraction(0)) / len(good)
    return RobustnessReport(
        per_replicate=tuple(values),
        worst=worst,
        average=average,
        disconnected_deletions=tuple(bad),
    )


def round_decimal(x: Fraction, places: int) -> str:
    """Fixed-point decimal string, rounding halves away from zero."""
    if places < 0:
        raise ValueError(f"decimal places must be >= 0, got {places}")
    sign = "-" if x < 0 else ""
    x = abs(x)
    q = 10 ** places
    n, d = (x * q).numerator, (x * q).denominator
    r = (2 * n + d) // (2 * d)
    s = str(r).rjust(places + 1, "0")
    return sign + (s[:-places] + "." + s[-places:] if places else s)
