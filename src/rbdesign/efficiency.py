"""A-criterion evaluation: exact rational spectra and a floating-point oracle.

The scaled information matrix of a design is I - (rk)^-1 * Lambda, where
Lambda is the concurrence matrix.  Its eigenvalues on the complement of the
all-ones vector are the canonical efficiency factors; their harmonic mean A
drives the average pairwise variance 2*sigma^2/(r*A).

Exact route: rk * (I - (rk)^-1 Lambda) = rk*I - Lambda is an integer matrix,
so its characteristic polynomial has integer coefficients.  With b blocks,
Lambda = N N^T for the v x b incidence matrix N whenever N is binary (no
variety repeated within a block, so the diagonal of N N^T is the
replication), and N N^T and N^T N share their nonzero eigenvalues (a design
and its dual share their non-unit efficiency factors; Patterson & Williams,
Biometrika 63, 1976).  Both sides have known eigenvectors whose span is
invariant: 1_v on the variety side (eigenvalue 0) and, on the block side
rk*I - N^T N, the indicators of the r replicates of a resolvable design
(eigenvalues 0 and rk^(r-1)), or 1_b alone for any other design.  Such class
indicators form an equitable partition (Godsil & Royle, Algebraic Graph
Theory, 2001, 9.3): in the unimodular basis [indicators | unit vectors of
every non-first class member] the matrix C is block triangular, and the
non-first members carry the integer block S[i, j] = C[i, j] - C[first(i), j].
The smaller of the two sides gives the polynomial
x * (x - rk)^(v-1-|S|) * det(xI - S), with |S| = min(v - 1, b - q) for q
classes.  S is not symmetric, but its eigenvalues are those of the positive
semidefinite C less {0, rk^(q-1)}, so Maclaurin's bound (1 + tr S/|S|)^|S|
covers its coefficients.  A design with a repeated variety uses the v x v
matrix itself, which is diagonally dominant and so takes the same bound.

Faddeev-LeVerrier runs modulo enough primes to cover the coefficients'
size, one float64 matrix product per step for all primes at once: the
step's traces are read from the product's diagonal, which then takes the
step's coefficients, and one pass reduces it to symmetric residues in
float64 (|M| <= q/2 + 2).  The primes are as wide as keeps that step exact,
up to 48 bits: 42 bits for the 35 x 35 quotients of the v = 36 designs
and 44 for the 20 x 20 ones.  The Chinese remainder theorem rebuilds the
integers and one further prime checks them; the primes and their tables
are built once per size, width and bound.  A comes from the two lowest
coefficients of the reduced polynomial, rational factors from integer root
extraction.
The floating-point route is one symmetric eigendecomposition: it gives the float
A, the annealing objective and the values of the irrational factors, whose
multiplicities are checked against the exactly-deflated remainder (integer
roots are sought only among divisors of the constant term, and a gcd modulo
2^30 - 35, whose residues are one CPython digit, proves most remainders
squarefree without the integer gcd chain)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile

import numpy as np

from .core import (
    BlockDesign,
    DisconnectedDesignError,
    InternalError,
    ResolvableDesign,
    ShapeMismatchError,
    _blocks,
    _concurrence,
    _incidence,
    concurrence_matrix,
    valid_blocks,
)

# Upper bound for r=8 reported by an external search package for these
# parameters; kept for comparison in reports only, never computed here.
REPORTED_SEARCH_BOUND_R8 = 0.854931

#: absolute eigenvalue threshold below which the float route calls a
#: design disconnected (true factors here are never below ~0.1)
_FLOAT_ZERO_TOL = 1e-8

#: float factors closer than this are one eigenvalue; the exact algebra
#: then checks the multiplicities this grouping implies
_CLUSTER_TOL = 1e-9

#: residue primes lie below 2**_PRIME_BITS (fewer bits for huge entries)
_PRIME_BITS = 48


def design_parameters(design: ResolvableDesign | BlockDesign) -> tuple[int, int, int]:
    """(v, r, k) for any equireplicate, equal-block-size design."""
    if isinstance(design, ResolvableDesign):
        return design.v, design.r, design.k
    return design.v, design.replication(), design.block_size()


def _is_prime(q: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, 11, 13 and 17: deterministic below
    341,550,071,728,321 = 10,670,053 * 32,010,157, the least strong
    pseudoprime to all seven (Jaeschke, Math. Comp. 61, 1993), which is
    above 2**48."""
    if q < 2 or q % 2 == 0:
        return q == 2
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, q)
        if a % q == 0 or x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_below(width: int):
    """Odd primes below 2**width, descending."""
    for q in range((1 << width) - 1, 2, -2):
        if _is_prime(q):
            yield q


@lru_cache(maxsize=64)
def _prime_table(n: int, width: int, bound: int) -> tuple:
    """Residue primes and tables for an n x n characteristic polynomial whose
    coefficients are at most bound in size.  The primes lie in (n, 2**width),
    descending, until the product of all but the last exceeds 2 * bound; the
    last is the check prime.  Every prime exceeds n, so 1..n are invertible
    modulo each.  Returns the primes, each prime and its reciprocal per column
    of [M_1 | ... | M_P], the inverses of 1..n (row k - 1 for k), the (n, P)
    flat diagonal positions, and the other primes' product and CRT weights.
    Built once per process, never mutated."""
    primes, prod = [], 1
    for q in takewhile(lambda q: q > n, _primes_below(width)):
        primes.append(q)
        if prod > 2 * bound:
            break
        prod *= q
    else:
        raise InternalError(f"too few primes below 2**{width} for an exact {n}x{n} "
                            "characteristic polynomial")
    q = np.array(primes, dtype=np.int64)
    qf, qinv = np.repeat([q, 1 / q], n, axis=1)
    diag = np.arange(n)[:, None] * (n * len(q) + 1) + np.arange(0, n * len(q), n)
    for a in (qf, qinv, diag):
        a.flags.writeable = False
    inv = tuple(tuple(pow(k, -1, p) for p in primes) for k in range(1, n + 1))
    weights = tuple(prod // p * pow(prod // p, -1, p) for p in primes[:-1])
    return tuple(primes), qf, qinv, inv, diag, prod, weights


def _charpoly_mod(C: np.ndarray, table: tuple) -> np.ndarray:
    """Faddeev-LeVerrier modulo each prime of _prime_table's table: residues
    of det(xI - C), x^n first.

    C is an integer-valued float64 matrix.  Each step is one float product
    C @ [M_1 | ... | M_P] for all P primes.  Its diagonal gives the traces,
    read as int64, and takes the step's coefficients; then one pass keeps
    the whole block in float64 as symmetric residues M - rint(M/q)*q.  That
    is exact while each product entry plus a coefficient below q stays below
    2**53 and n entries sum below 2**63, as _charpoly's width ensures.
    Returns an (n + 1, P) int64 array."""
    n = len(C)
    primes, qf, qinv, inv, diag, *_ = table
    out = np.ones((n + 1, len(primes)), dtype=np.int64)
    M = np.tile(np.eye(n), len(primes))
    for k in range(1, n + 1):
        M = C @ M
        d = M.flat[diag]
        traces = d.astype(np.int64).sum(axis=0).tolist()  # exact integers below 2**63
        # times 1/k in Python ints: a product of two residues passes 2**63
        out[k] = [-t * i % p for t, i, p in zip(traces, inv[k - 1], primes)]
        M.flat[diag] = d + out[k]
        M -= np.rint(M * qinv) * qf
    return out


def _charpoly(C: np.ndarray, nonnegative: bool = False) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - C) of an integer matrix,
    as coefficients from x^n down to x^0; (1,) for a 0 x 0 matrix.

    A bound on the |a_j| fixes how many primes _prime_table picks.  In
    general |a_j| <= binom(n, j) * B^j < (1 + B)^n, with B the largest
    absolute row sum (a bound on every eigenvalue).  When the caller knows
    that all eigenvalues are real and nonnegative (nonnegative=True), a_j is
    +-e_j of them, and Maclaurin's inequality gives
    |a_j| <= binom(n, j) * (tr C / n)^j < (1 + tr C / n)^n.  The
    coefficients are rebuilt from their residues by the Chinese remainder
    theorem with symmetric residues, then checked modulo one more prime;
    non-integer input or a failed check raises InternalError."""
    if C.dtype.kind not in "iu":
        raise InternalError(f"characteristic polynomial of a non-integer {C.dtype} matrix")
    n = len(C)
    if n == 0:
        return (1,)
    # _charpoly_mod keeps |M| <= q/2 + 2 (M / q is off by under 2/q), so with
    # n * c_max < 2**b each entry of C @ [M_1 | ... | M_P] is below
    # 2**(b + width - 1) + 2**(b + 1) <= 2**52 + 2**(b + 1): with a coefficient
    # below q added to the diagonal it stays in float64's exact range, 2**53.
    # The int64 trace of n such entries needs n * n * c_max < 2**(63 - width)
    c_max = max(int(C.max()), -int(C.min()))
    width = min(_PRIME_BITS, 53 - (n * c_max).bit_length(), 63 - (n * n * c_max).bit_length())
    if width < 2:
        raise InternalError(f"entries up to {c_max} are too large for exact float products")
    C = C.astype(np.int64)
    if nonnegative:
        bound = -(-(n + int(np.trace(C))) ** n // n ** n)  # ceil((1 + tr C / n)^n)
    else:
        bound = (1 + int(np.abs(C).sum(axis=1).max())) ** n
    table = _prime_table(n, width, bound)
    primes, *_, prod, weights = table
    residues = _charpoly_mod(C.astype(np.float64), table)
    coeffs = []
    for row in residues[:, :-1].tolist():
        x = sum(a * w for a, w in zip(row, weights)) % prod
        coeffs.append(x - prod if 2 * x > prod else x)
    if [c % primes[-1] for c in coeffs] != residues[:, -1].tolist():
        raise InternalError(f"characteristic polynomial fails its check modulo {primes[-1]}")
    return tuple(coeffs)


def _times_power(coeffs: tuple[int, ...], c: int, m: int) -> tuple[int, ...]:
    """coeffs (x^n first) times (x - c)^m, with exact binomial coefficients."""
    factor = [math.comb(m, j) * (-c) ** j for j in range(m + 1)]
    out = [0] * (len(coeffs) + m)
    for i, a in enumerate(coeffs):
        for j, f in enumerate(factor):
            out[i + j] += a * f
    return tuple(out)


def characteristic_polynomial(design: ResolvableDesign | BlockDesign) -> tuple[int, ...]:
    """Characteristic polynomial of rk*I - Lambda, exact integer coefficients.

    For a v x b incidence matrix N with no variety repeated within a block,
    this is x * (x - rk)^(v-1-|S|) * det(xI - S), where S is the quotient of
    the smaller side by its class indicators: rk*I - N N^T modulo 1_v
    (|S| = v - 1), or rk*I - N^T N modulo the r replicate indicators of a
    resolvable design or modulo 1_b of any other (|S| = b - r or b - 1).
    S[i, j] = C[i, j] - C[first(i), j] over the non-first class members, and
    its coefficients take the trace bound (1 + tr S/|S|)^|S|.  A design
    with a repeated variety takes the v x v matrix itself."""
    v, r, k = design_parameters(design)
    n = _incidence(v, valid_blocks(design))
    b, rk = n.shape[1], r * k
    if n.max() > 1:
        # symmetric, and each row's off-diagonal sum rk - sum_b N_ib^2 is at
        # most the diagonal rk - r: positive semidefinite by Gershgorin
        lam = (n @ n.T).astype(np.int64)
        np.fill_diagonal(lam, r)
        return _charpoly(rk * np.eye(v, dtype=np.int64) - lam, nonnegative=True)
    q = design.r if isinstance(design, ResolvableDesign) else 1
    if b - q < v - 1:
        n, classes = n.T, np.arange(b).reshape(q, b // q)
    else:
        classes = np.arange(v).reshape(1, v)
    C = rk * np.eye(len(n), dtype=np.int64) - (n @ n.T).astype(np.int64)
    rest = classes[:, 1:].ravel()
    first = np.repeat(classes[:, 0], classes.shape[1] - 1)
    S = (C[rest] - C[first])[:, rest]
    return _times_power(_charpoly(S, nonnegative=True), rk, v - 1 - len(S)) + (0,)


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
    otherwise it is a float from the symmetric eigendecomposition, correct
    to ~14 decimals, for an irrational eigenvalue whose multiplicity is
    checked exactly (the A value stays exact regardless).
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


def _divide_root(coeffs_low: list[int], t: int) -> tuple[list[int], int]:
    """Synthetic division by (x - t), low-order first: Horner's partial sums
    are the quotient's coefficients, and the last, p(t), is the remainder."""
    acc, out = 0, []
    for c in reversed(coeffs_low):
        acc = acc * t + c
        out.append(acc)
    return out[-2::-1], acc


def _primitive(p: list[int]) -> list[int]:
    """p over the gcd of its coefficients, with a positive leading one."""
    g = math.gcd(*p) if p[-1] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of a by b, low-order first."""
    while len(a) >= len(b):
        lead, d = a[-1], len(a) - len(b)
        a = [c * b[-1] for c in a]
        for i, c in enumerate(b):
            a[i + d] -= lead * c
        while a and a[-1] == 0:
            a.pop()
    return _primitive(a) if a else a


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Greatest common divisor up to a constant, by the primitive
    pseudo-remainder sequence (integers stay small, unlike Euclid over Q)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive_prem(a, b)
    return a


#: modulus of the squarefree proof: the largest prime below 2**30, far above any degree
_GCD_PRIME = (1 << 30) - 35


def _rem_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """Remainder of a by b modulo the prime m, low-order first, both reduced
    and without leading zeros."""
    a, inv = a[:], pow(b[-1], -1, m)
    while len(a) >= len(b):
        f, d = a[-1] * inv % m, len(a) - len(b)
        a[d:] = [(x - f * c) % m for x, c in zip(a[d:], b)]
        while a and a[-1] == 0:
            a.pop()
    return a


def _squarefree_mod(p: list[int]) -> bool:
    """True when _GCD_PRIME does not divide the leading coefficient of p
    (nor then that of p', deg p being far smaller) and gcd(p, p') is a
    constant modulo it.  Reducing modulo such a prime can only raise the
    degree of a gcd, so True proves p squarefree over Q; False proves
    nothing.  Below 2**30 a residue is one 30-bit CPython digit and a product
    two, so Euclid's multiplies and divides take the small-int paths."""
    m = _GCD_PRIME
    if p[-1] % m == 0:
        return False
    a, b = [c % m for c in p], [c * i % m for i, c in enumerate(p)][1:]
    while b:
        a, b = b, _rem_mod(a, b, m)
    return len(a) == 1


def _multiplicity_profile(coeffs_low: list[int]) -> Counter:
    """{m: number of distinct roots of multiplicity m}, exactly.

    A polynomial proven squarefree modulo _GCD_PRIME has only simple roots.
    Otherwise, with g_0 = p and g_(j+1) = gcd(g_j, g_j'), a root of
    multiplicity m is a root of g_j with multiplicity m - j, so
    deg g_j - deg g_(j+1) counts the distinct roots of multiplicity above j."""
    if len(coeffs_low) > 1 and _squarefree_mod(coeffs_low):
        return Counter({1: len(coeffs_low) - 1})
    g, above = list(coeffs_low), []
    while len(g) > 1:
        nxt = _poly_gcd(g, [c * i for i, c in enumerate(g)][1:])
        above.append(len(g) - len(nxt))
        g = nxt
    return +Counter({j + 1: n - m for j, (n, m) in enumerate(zip(above, above[1:] + [0]))})


def _irrational_factors(residual: list[int], rational: list[SpectrumFactor],
                        floats: np.ndarray) -> list[SpectrumFactor]:
    """The roots of the irrational residual, valued by the float route.

    floats holds all v-1 float factors.  Those at a rational factor are
    dropped and the rest grouped into clusters of equal values.  The
    residual's d distinct roots of multiplicity m must give exactly d
    clusters of size m; the sizes then sum to the residual's degree, so as
    many values were dropped as the rational multiplicities add up to.  Any
    disagreement raises InternalError rather than returning a guess."""
    exact = [float(f.value) for f in rational]
    rest = [y for y in floats.tolist() if all(abs(y - x) > _CLUSTER_TOL for x in exact)]
    clusters: list[list[float]] = []
    for y in rest:  # ascending
        if clusters and y - clusters[-1][-1] <= _CLUSTER_TOL:
            clusters[-1].append(y)
        else:
            clusters.append([y])
    sizes, expected = Counter(map(len, clusters)), _multiplicity_profile(residual)
    if sizes != expected:
        raise InternalError(f"float cluster sizes {dict(sizes)} disagree with the exact "
                            f"multiplicities {dict(expected)} of the irrational factors")
    return [SpectrumFactor(round(sum(c) / len(c), 14), len(c), exact=False) for c in clusters]


def _reduced_polynomial(design, v: int, rk: int) -> tuple[Fraction | None, int, list[int]]:
    """(exact A or None, zero multiplicity, reduced low-order coefficients).

    The reduced polynomial has the forced zero roots stripped; A comes from
    its two lowest coefficients (the sum of reciprocal eigenvalues of rk*M
    is -a1/a0, scaled back by rk), with no root extraction needed."""
    if v < 2:
        raise ShapeMismatchError(f"efficiency factors need v >= 2 varieties, got v={v}")
    low = list(reversed(characteristic_polynomial(design)))  # low[i]: x^i
    m = next(i for i, c in enumerate(low) if c)
    reduced = low[m:]
    a = Fraction(-(v - 1) * reduced[0], rk * reduced[1]) if m == 1 else None
    return a, m, reduced


def efficiency_spectrum(design: ResolvableDesign | BlockDesign) -> EfficiencySpectrum:
    """All v-1 canonical efficiency factors plus the exact A value.

    The forced zero eigenvalue (constant vectors) is stripped; any further
    zero root marks the design disconnected, in which case a_value is None
    and no factors are reported.
    """
    v, r, k = design_parameters(design)
    rk = r * k
    a, m, reduced = _reduced_polynomial(design, v, rk)
    if m != 1:
        return EfficiencySpectrum(factors=(), a_value=None, connected=False, zero_multiplicity=m)
    factors: list[SpectrumFactor] = []
    rem = reduced[:]
    for t in range(1, rk + 1):
        mult = 0
        # rem is monic with rem[0] != 0, so an integer root t divides rem[0]
        while len(rem) > 1 and rem[0] % t == 0:
            quotient, remainder = _divide_root(rem, t)
            if remainder:
                break
            rem, mult = quotient, mult + 1
        if mult:
            factors.append(SpectrumFactor(Fraction(t, rk), mult, exact=True))
    if len(rem) > 1:
        # the v x v Lambda, from blocks characteristic_polynomial validated
        lam = _concurrence(v, _blocks(design))
        np.fill_diagonal(lam, r)
        floats = _float_factors(lam, rk)
        factors.extend(_irrational_factors(rem, factors, floats))
    factors.sort(key=lambda f: float(f.value))
    return EfficiencySpectrum(
        factors=tuple(factors), a_value=a, connected=True, zero_multiplicity=1
    )


def a_value(design: ResolvableDesign | BlockDesign) -> Fraction:
    """Exact A: harmonic mean of the canonical efficiency factors.

    Computed from characteristic-polynomial coefficients alone, so it stays
    exact (and cheap) even when individual factors are irrational."""
    v, r, k = design_parameters(design)
    a, m, _ = _reduced_polynomial(design, v, r * k)
    if a is None:
        raise DisconnectedDesignError(
            f"design {design.label or '<unlabelled>'} is disconnected "
            f"(zero eigenvalue multiplicity {m})"
        )
    return a


def _float_factors(lam: np.ndarray, rk: int) -> np.ndarray:
    """The v-1 canonical efficiency factors, ascending, from the integer
    concurrence matrix by a symmetric eigendecomposition."""
    return np.linalg.eigvalsh(np.eye(len(lam)) - lam / rk)[1:]


def _reciprocal_sum(lam: np.ndarray, r: int, k: int) -> float:
    """Sum of reciprocal canonical efficiency factors, (v-1)/A, by the float
    route; +inf when the design is disconnected."""
    w = _float_factors(lam, r * k)
    if w[0] < _FLOAT_ZERO_TOL:
        return math.inf
    return float(np.sum(1.0 / w))


def a_value_float(design: ResolvableDesign | BlockDesign) -> float:
    """Independent A oracle via floating-point symmetric eigendecomposition."""
    v, r, k = design_parameters(design)
    if v < 2:
        raise ShapeMismatchError(f"efficiency factors need v >= 2 varieties, got v={v}")
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


def robustness(design: ResolvableDesign) -> RobustnessReport:
    """Evaluate the loss of each single replicate.

    Every deletion is evaluated exactly.  A deletion that disconnects the
    design is reported as None and makes worst and average None.
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
    if bad:
        worst = average = None
    else:
        worst = min(values)
        average = sum(values, Fraction(0)) / len(values)
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
