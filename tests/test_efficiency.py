"""Exact A-criterion machinery against independent oracles and known values."""

import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdesign import (
    BlockDesign,
    DisconnectedDesignError,
    InternalError,
    ResolvableDesign,
    ShapeMismatchError,
    a_value,
    a_value_float,
    average_variance,
    catalog,
    concurrence_matrix,
    delta_design,
    dual,
    efficiency_spectrum,
    gamma_design,
    robustness,
    round_decimal,
    square_lattice_bound,
)
from rbdesign import cli, core, efficiency
from rbdesign.efficiency import characteristic_polynomial
from rbdesign.search import random_resolvable
from rbdesign.sylvester import galaxy, sylvester_graph


def _oracle_charpoly(C: np.ndarray) -> tuple[int, ...]:
    """det(xI - C), x^n first, over Python ints: Newton's identities on the
    power sums tr(C^j), j = 1..n, every division checked exact.  Baby steps
    C^1..C^m and giant steps G = C^m, G^2, ... (m = isqrt(n)) give each
    tr(G^i C^j) as an elementwise sum, so about 2 sqrt(n) products are made."""
    n = C.shape[0]
    A = C.astype(object)
    m = max(1, math.isqrt(n))
    baby = [np.eye(n, dtype=object)]
    for _ in range(m):
        baby.append(baby[-1] @ A)
    sums, giant = [n], baby[0]
    while len(sums) <= n:
        sums.extend(int((giant * b.T).sum()) for b in baby[1:])
        giant = giant @ baby[m]
    coeffs = [1]
    for k in range(1, n + 1):
        q, rem = divmod(-sum(c * s for c, s in zip(coeffs, sums[k:0:-1])), k)
        assert rem == 0
        coeffs.append(q)
    return tuple(coeffs)


def _information(d) -> np.ndarray:
    v, r, k = efficiency.design_parameters(d)
    return r * k * np.eye(v, dtype=np.int64) - concurrence_matrix(d)


def _expand(roots: dict[int, int]) -> tuple[int, ...]:
    """prod (x - root)^multiplicity, x^n first."""
    poly = (1,)
    for root, mult in roots.items():
        for _ in range(mult):
            poly = tuple(a - root * b for a, b in zip(poly + (0,), (0,) + poly))
    return poly


def test_oracle_gives_the_closed_forms():
    # x (x-6)^10 (x-12)^25 for the lattice gamma-rc-2 (rk = 12), and
    # x (x-39)^16 (x-42)^10 (x-44)^9 for gamma-rc-8 (rk = 48)
    assert _oracle_charpoly(_information(gamma_design(2, "RC"))) == _expand({0: 1, 6: 10, 12: 25})
    assert (_oracle_charpoly(_information(gamma_design(8, "RC")))
            == _expand({0: 1, 39: 16, 42: 10, 44: 9}))


#: _oracle_charpoly of each information matrix met so far, by its bytes
_ORACLE: dict[bytes, tuple[int, ...]] = {}


def _oracle_information(C: np.ndarray) -> tuple[int, ...]:
    """_oracle_charpoly(C), computed once per distinct square matrix."""
    key = C.tobytes()
    if key not in _ORACLE:
        _ORACLE[key] = _oracle_charpoly(C)
    return _ORACLE[key]


def _charpoly_sides(monkeypatch) -> list[int]:
    """Spy on _charpoly: the list it returns gets the size of each matrix."""
    sides, charpoly = [], efficiency._charpoly
    monkeypatch.setattr(efficiency, "_charpoly",
                        lambda c, **kw: sides.append(len(c)) or charpoly(c, **kw))
    return sides


def test_charpoly_matches_oracle_on_catalog_and_duals(catalog_and_duals):
    # characteristic_polynomial takes the smaller quotient: for the catalog
    # the block side modulo the r replicate indicators (5r < 35) up to r = 6
    # and the variety side modulo 1_v beyond; for the duals (v = 6r, b = 36)
    # the variety side up to r = 6 and the block side modulo 1_b beyond
    for name, d in catalog_and_duals:
        C = _information(d)
        expected = _oracle_information(C)
        assert efficiency._charpoly(C) == expected, name
        assert characteristic_polynomial(d) == expected, name


def test_charpoly_matches_oracle_on_catalog_deletions(monkeypatch):
    # every single-replicate deletion robustness evaluates: the block side
    # modulo the r - 1 replicate indicators (5(r-1) < 35) for r <= 7, the
    # variety side modulo 1_v beyond
    sides = _charpoly_sides(monkeypatch)
    for e in catalog():
        for i in range(e.design.r):
            d = e.design.without_replicate(i)
            assert characteristic_polynomial(d) == _oracle_information(_information(d)), d.label
            assert sides[-1] == min(35, 5 * (e.design.r - 1)), d.label


def test_charpoly_repeated_variety_takes_the_variety_side(monkeypatch):
    # b = 3 < v = 6, but varieties 1 and 6 occur twice in one block: the
    # diagonal of N N^T (4) is not the replication (2), so N^T N does not
    # give rk*I - Lambda and the v x v matrix must be used
    d = BlockDesign.from_blocks(6, [(1, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 6)])
    sides = _charpoly_sides(monkeypatch)
    assert characteristic_polynomial(d) == _oracle_charpoly(_information(d))
    assert sides == [6]
    # the same blocks without repeats take the block side modulo 1_b
    d = BlockDesign.from_blocks(6, [(1, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 6)])
    assert characteristic_polynomial(d) == _oracle_charpoly(_information(d))
    assert sides == [6, 3]


def _with_repeat(d: ResolvableDesign) -> BlockDesign:
    """The blocks of d (r, k >= 2) with the first block's first variety x
    replaced by its second, y, and y replaced by x in the next block holding
    y: y then repeats within the first block, and every replication and
    block size stays."""
    blocks = [list(b) for b in d.blocks()]
    x, y = blocks[0][:2]
    other = next(b for b in blocks[1:] if y in b)
    blocks[0][0], other[other.index(y)] = y, x
    return BlockDesign.from_blocks(d.v, blocks)


@st.composite
def _quotient_designs(draw):
    """A random resolvable design (k | v, both up to 6 blocks; r <= 6), its
    dual, or, for r, k >= 2, its blocks with a repeated variety."""
    k, m, r = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d = random_resolvable(k * m, k, r, np.random.default_rng(draw(st.integers(0, 2**20))))
    forms = [d, dual(d)] + ([_with_repeat(d)] if r >= 2 and k >= 2 else [])
    return draw(st.sampled_from(forms))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_quotient_designs())
@example(random_resolvable(16, 16, 3, np.random.default_rng(0)))  # k = v: S is empty
@example(random_resolvable(8, 1, 3, np.random.default_rng(0)))  # k = 1
@example(random_resolvable(12, 4, 1, np.random.default_rng(0)))  # r = 1
@example(random_resolvable(2, 1, 3, np.random.default_rng(0)))  # v = 2
@example(random_resolvable(2, 2, 3, np.random.default_rng(0)))
@example(dual(random_resolvable(12, 3, 4, np.random.default_rng(0))))  # q = 1
@example(_with_repeat(random_resolvable(12, 3, 4, np.random.default_rng(0))))
def test_quotient_charpoly_matches_oracle(design):
    # |S| = min(v - 1, b - q) for a binary design with q classes on its
    # block side (the replicates of a resolvable design, else one), and the
    # full v x v matrix for a repeated variety
    v, _, _ = efficiency.design_parameters(design)
    blocks = core._blocks(design)
    q = design.r if isinstance(design, ResolvableDesign) else 1
    repeated = any(len(set(b)) < len(b) for b in blocks)
    with pytest.MonkeyPatch.context() as mp:
        sides = _charpoly_sides(mp)
        assert characteristic_polynomial(design) == _oracle_charpoly(_information(design))
    assert sides == [v if repeated else min(v - 1, len(blocks) - q)]


def test_prime_table_is_built_once_and_never_mutated():
    primes = (13, 11, 7)
    table = efficiency._prime_table(6, primes)
    assert efficiency._prime_table(6, primes) is table
    qf, qinv, inv, diag, prod, weights = table
    assert len(efficiency._prime_table(2, primes)[2]) == 2
    assert efficiency._prime_table(3, primes)[2] == inv[:3]
    k = np.arange(1, 7)[:, None]
    assert np.shape(inv) == (6, 3) and (k * np.array(inv) % primes == 1).all()
    # the CRT weights of 13 and 11 (7 is the check): 1 modulo their own prime
    assert prod == 13 * 11
    assert [[w % p for p in primes[:-1]] for w in weights] == [[1, 0], [0, 1]]
    # one column of qf and qinv per column of [M_1 | M_2 | M_3], and M_p[i, i]
    # at row i, column 6p + i
    assert qf.tolist() == [p for p in primes for _ in range(6)]
    assert qinv.tolist() == [1 / p for p in primes for _ in range(6)]
    M = np.arange(6 * 18).reshape(6, 18)
    assert M.flat[diag].tolist() == [[M[i, 6 * p + i] for p in range(3)] for i in range(6)]
    for a in (qf, qinv, diag):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert isinstance(inv, tuple) and all(isinstance(row, tuple) for row in inv)
    assert isinstance(weights, tuple)


@st.composite
def _random_designs(draw):
    k = draw(st.integers(1, 8))
    v = k * draw(st.integers(1, 8))
    r = draw(st.integers(1, 12))
    return random_resolvable(v, k, r, np.random.default_rng(draw(st.integers(0, 2**20))))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_random_designs())
@example(random_resolvable(64, 8, 12, np.random.default_rng(0)))
@example(random_resolvable(16, 1, 12, np.random.default_rng(0)))
@example(random_resolvable(16, 16, 12, np.random.default_rng(0)))
@example(random_resolvable(36, 36, 5, np.random.default_rng(0)))
@example(random_resolvable(8, 1, 3, np.random.default_rng(0)))
def test_charpoly_matches_oracle_on_random_designs(design):
    # k = v gives the smallest block side (b = r), k = 1 has b = rv >= v
    C = _information(design)
    expected = _oracle_charpoly(C)
    assert efficiency._charpoly(C) == expected
    assert characteristic_polynomial(design) == expected


def _near(c: int, residue: int, q: int) -> int:
    """The largest integer <= c congruent to residue modulo q."""
    return c - (c - residue) % q


def _moduli_calls(monkeypatch) -> list[tuple[int, int, list[int]]]:
    """Spy on _moduli: the list it returns gets (width, bound, primes) of
    each call."""
    calls, true_moduli = [], efficiency._moduli

    def spy(n, width, bound):
        calls.append((width, bound, true_moduli(n, width, bound)))
        return calls[-1][2]

    monkeypatch.setattr(efficiency, "_moduli", spy)
    return calls


@pytest.mark.parametrize("n", [2, 3])
def test_charpoly_exact_for_large_entries(monkeypatch, n):
    # entries near 2**30 leave room for narrower primes only: n * 2**30 * 2**48
    # would pass 2**53, the largest sum a float64 product keeps exact
    moduli = _moduli_calls(monkeypatch)
    rng = np.random.default_rng(n)
    for C in (rng.integers(-2**30, 2**30, size=(n, n)), np.full((n, n), 2**30),
              np.diag([2**30 - 1] * n) - 2**29, rng.integers(2**29, 2**30, size=(n, n))):
        assert efficiency._charpoly(C) == _oracle_charpoly(C)
    assert moduli and max(w for w, _, _ in moduli) < efficiency._PRIME_BITS
    # entries whose residues modulo the narrow width's first prime sit at -+q/2
    width, _, (q, *_) = moduli[-1]
    half = [_near(2**30, (q - 1) // 2, q), _near(2**30, (q + 1) // 2, q)]
    C = rng.choice(half, size=(n, n)) * rng.choice([-1, 1], size=(n, n))
    assert efficiency._charpoly(C) == _oracle_charpoly(C)
    assert moduli[-1][0] == width


def test_charpoly_psd_bound_on_design_matrices(monkeypatch):
    # rk*I - Lambda of gamma-rc-8 (36 x 36, trace 36 * 40) is positive
    # semidefinite, and its 35 x 35 quotient modulo 1_v keeps the trace and
    # every eigenvalue but the 0: (1 + 1440/35)^35 needs 5 primes of 42 bits
    # and the check; the quotient's row sum bound (1 + 51)^35 is larger
    calls = _moduli_calls(monkeypatch)
    d = gamma_design(8, "RC")
    assert characteristic_polynomial(d) == _oracle_information(_information(d))
    [(width, bound, primes)] = calls
    assert width == 42 and bound == -(-1475**35 // 35**35) and len(primes) == 6


def test_charpoly_keeps_the_row_sum_bound_off_psd(monkeypatch):
    # a signed random matrix, and a symmetric one with a nonnegative diagonal
    # and zero row sums that is not positive semidefinite (eigenvalues 3, 0
    # and -1), take (1 + B)^n
    calls = _moduli_calls(monkeypatch)
    rng = np.random.default_rng(5)
    signed = rng.integers(-9, 10, size=(8, 8))
    indefinite = np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 2]])
    for C in (signed, signed + signed.T, indefinite):
        assert efficiency._charpoly(C) == _oracle_charpoly(C)
        assert calls[-1][1] == (1 + int(np.abs(C).sum(axis=1).max())) ** len(C)


@pytest.mark.parametrize("n, c_max", [(2, 2**30), (36, 40), (1500, 1), (1500, 2**10)])
def test_charpoly_width_keeps_the_one_pass_step_exact(monkeypatch, n, c_max):
    # each step adds a coefficient below q to the diagonal of C @ M before
    # its one reduction, and sums n diagonal entries in int64.  An entry is
    # at most n * c_max * (q/2 + 2), so the width must keep that plus q below
    # 2**53, and n times it below 2**63.  The second never binds below
    # n = 2**10; at c_max = 1 it first binds at n = 1449.  The kernel is
    # stubbed out: only the width is checked
    moduli = _moduli_calls(monkeypatch)

    class Stubbed(Exception):
        pass

    def stub(C, primes):
        raise Stubbed

    monkeypatch.setattr(efficiency, "_charpoly_mod", stub)
    with pytest.raises(Stubbed):
        efficiency._charpoly(c_max * np.eye(n, dtype=np.int64))
    [(width, _, (q, *_))] = moduli
    assert q < 2**width
    assert n * c_max * (q + 4) + 2 * q < 2**54 and n * n * c_max * (q + 4) < 2**64
    narrowed = width < min(efficiency._PRIME_BITS, 53 - (n * c_max).bit_length())
    assert narrowed == (n > 2**10)


def _widest_iterate(C: np.ndarray, q: int) -> int:
    """Largest |entry| of the Faddeev-LeVerrier iterates C @ M_(k-1) in
    symmetric residues modulo q, over Python ints."""
    n, h = len(C), q // 2
    A, M, widest = C.astype(object), np.eye(n, dtype=object), 0
    for k in range(1, n + 1):
        M = (A @ M + h) % q - h
        widest = max(widest, int(np.abs(M).max()))
        M += np.eye(n, dtype=object) * (-int(M.trace()) * pow(k, -1, q) % q)
    return widest


@pytest.mark.parametrize("width", [21, 42, 44])
def test_charpoly_mod_exact_at_the_float_limit(width):
    # entries within 1% of the largest n * max|C| * (q/2 + 2) < 2**53
    # allows: exact only while the float step keeps every residue symmetric,
    # the diagonal included.  Residues sit at -+q/2.  Below 2**21, in the
    # near-constant positive matrices every M_1 entry off the diagonal is
    # (q - 1)/2, and the diagonal residue 1/(n - 1) of C puts the diagonal of
    # M_1 at -1, which a floor would leave at q - 1.  With 42 and 44 bits
    # (the widths of the 36 x 36 and 24 x 24 design matrices) every entry
    # lies far below q, so the residues reach -+q/2 in later steps, and
    # (tr mod q) * k^-1 passes 2**63
    primes = list(islice(efficiency._primes_below(width), 3))
    q = primes[0]
    rng = np.random.default_rng(12)

    def limit(n):
        return (2**54 - 1) // (n * (q + 4))

    if width == 21:
        c = limit(2)
        inputs = [np.array([[_near(c, (q - 1) // 2, q), -_near(c, (q - 1) // 2, q)],
                            [-_near(c, (q - 1) // 2, q), -_near(c, (q - 3) // 2, q)]])]
        for n in (6, 12):
            C = _near(limit(n), (q - 1) // 2, q) - q * rng.integers(0, 3, size=(n, n))
            np.fill_diagonal(C, _near(limit(n), pow(n - 1, -1, q), q) - q * rng.integers(0, 3, n))
            inputs.append(C)
    else:
        inputs = [(limit(n) - rng.integers(0, limit(n) // 100 + 1, size=(n, n)))
                  * rng.choice([-1, 1], size=(n, n)) for n in (12, 24)]
    for C in inputs:
        assert limit(len(C)) * 0.99 < np.abs(C).max() <= limit(len(C))
        if width > 21:
            assert _widest_iterate(C, q) > 0.99 * q / 2
        expected = np.array(_oracle_charpoly(C), dtype=object)
        residues = efficiency._charpoly_mod(C.astype(np.float64), primes)
        for col, p in enumerate(primes):
            assert residues[:, col].tolist() == (expected % p).tolist(), (len(C), p)


def test_prime_bits_within_the_exact_range_of_the_primality_test():
    # psi_7 = 341550071728321 = 10670053 * 32010157 is the smallest strong
    # pseudoprime to bases 2, 3, 5, 7, 11, 13 and 17 (Jaeschke 1993), which
    # _is_prime calls prime: wider primes need more Miller-Rabin bases.
    # 3215031751, the smallest for bases 2, 3, 5 and 7, is caught by 11
    psi7 = 341_550_071_728_321
    assert psi7 == 10_670_053 * 32_010_157 and efficiency._is_prime(psi7)
    assert 2**efficiency._PRIME_BITS < psi7
    assert not efficiency._is_prime(3_215_031_751)


def _trial_division(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _sieve(lo: int, hi: int) -> np.ndarray:
    """Primality of lo..hi (lo > isqrt(hi)) by a segmented sieve of
    Eratosthenes: the base primes up to isqrt(hi) strike out their
    multiples in the segment."""
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p::p] = False
    ps = np.flatnonzero(base)
    seg = np.ones(hi - lo + 1, dtype=bool)
    first = -lo % ps  # offset of each base prime's first multiple
    for p, f in zip(ps[ps <= len(seg)].tolist(), first[ps <= len(seg)].tolist()):
        seg[f::p] = False
    big = (ps > len(seg)) & (first < len(seg))
    seg[first[big]] = False
    return seg


def test_is_prime_matches_trial_division():
    assert [efficiency._is_prime(q) for q in range(20_000)] == [
        _trial_division(q) for q in range(20_000)]
    widest = list(islice(efficiency._primes_below(25), 50))
    assert widest == sorted(widest, reverse=True) and widest[0] < 2**25
    assert all(_trial_division(q) for q in widest)
    skipped = set(range(widest[-1], widest[0] + 1, 2)) - set(widest)
    assert not any(_trial_division(q) for q in skipped)
    # below 2**48, where trial division is too slow, a segmented sieve finds
    # exactly these 50 primes from the smallest of them up
    widest = list(islice(efficiency._primes_below(efficiency._PRIME_BITS), 50))
    lo = widest[-1]
    assert (np.flatnonzero(_sieve(lo, 2**efficiency._PRIME_BITS - 1)) + lo).tolist() == widest[::-1]


def test_charpoly_rejects_entries_beyond_exact_products():
    # too large for any prime width: an error, never a silent overflow
    for C in (np.array([[2**52, 0], [0, 1]]), np.array([[2**62, 1], [1, -2**62]]),
              np.array([[2**63 + 5, 0], [0, 1]], dtype=np.uint64)):
        with pytest.raises(InternalError):
            efficiency._charpoly(C)


@pytest.mark.parametrize("fault", ["residue", "check_residue", "too_few_primes"])
def test_charpoly_check_prime_catches_faults(monkeypatch, fault):
    C = _information(gamma_design(5, "RC"))
    true_mod, true_moduli = efficiency._charpoly_mod, efficiency._moduli

    def faulty_mod(A, primes):
        out = true_mod(A, primes).copy()
        col = -1 if fault == "check_residue" else 0
        out[7, col] = (out[7, col] + 1) % primes[col]
        return out

    def faulty_moduli(n, width, bound):
        primes = true_moduli(n, width, bound)
        return primes[:2] + primes[-1:]

    if fault == "too_few_primes":
        monkeypatch.setattr(efficiency, "_moduli", faulty_moduli)
    else:
        monkeypatch.setattr(efficiency, "_charpoly_mod", faulty_mod)
    with pytest.raises(InternalError, match="check modulo"):
        efficiency._charpoly(C)


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


def test_single_variety_has_no_efficiency_factors():
    d = ResolvableDesign.from_replicates([[[1]]], v=1, k=1)
    for f in (a_value, efficiency_spectrum, a_value_float):
        with pytest.raises(ShapeMismatchError, match="v >= 2"):
            f(d)


def test_disconnected_single_galaxy_raises():
    with pytest.raises(DisconnectedDesignError):
        a_value(gamma_design(1))
    spec = efficiency_spectrum(gamma_design(1))
    assert not spec.connected and spec.a_value is None
    assert spec.zero_multiplicity == 6  # one zero per starfish component


def _sign_at(coeffs, x: Fraction) -> int:
    acc = Fraction(0)
    for c in coeffs:  # x^n down to x^0
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


@pytest.mark.parametrize("design, multiplicity", [
    (gamma_design(5, "RC"), 4),
    (gamma_design(4), 3),
    (random_resolvable(36, 6, 4, np.random.default_rng(4)), 1),
])
def test_irrational_factors_bracket_characteristic_roots(design, multiplicity):
    # exact check of the float values: the characteristic polynomial of
    # rk*I - Lambda changes sign across rk*x -+ 1e-9 iff x has odd multiplicity
    coeffs = characteristic_polynomial(design)
    rk = design.r * design.k
    inexact = [f for f in efficiency_spectrum(design).factors if not f.exact]
    assert multiplicity in {f.multiplicity for f in inexact}
    eps = Fraction(1, 10**9)
    for f in inexact:
        below, above = (_sign_at(coeffs, rk * Fraction(f.value) + d) for d in (-eps, eps))
        assert below and above
        assert (below != above) == (f.multiplicity % 2 == 1), f


@pytest.mark.parametrize("fault", ["split", "merge", "rational"])
def test_float_route_disagreement_raises(monkeypatch, fault):
    # gamma-rc-5: irrational factors 0.7566 x4 and 0.8768 x4 beside rational ones
    d = gamma_design(5, "RC")
    low, high = (f.value for f in efficiency_spectrum(d).factors if not f.exact)
    true_factors = efficiency._float_factors

    def faulty(lam, rk):
        w = true_factors(lam, rk).copy()
        at_low = np.abs(w - low) < 1e-9
        if fault == "split":
            w[np.argmax(at_low)] += 1e-7
        elif fault == "merge":
            w[np.abs(w - high) < 1e-9] = low
        else:
            w[np.argmax(np.abs(w - 0.8) < 1e-9)] += 1e-7
        return np.sort(w)

    monkeypatch.setattr(efficiency, "_float_factors", faulty)
    with pytest.raises(InternalError):
        efficiency_spectrum(d)


def test_spectrum_validates_once_and_floats_read_lambda(monkeypatch):
    # gamma-rc-5 has irrational factors, so the float route runs too
    d = gamma_design(5, "RC")
    validated, seen = [], []
    true_valid, true_factors = efficiency.valid_blocks, efficiency._float_factors
    monkeypatch.setattr(efficiency, "valid_blocks", lambda x: validated.append(x) or true_valid(x))
    monkeypatch.setattr(efficiency, "_float_factors",
                        lambda lam, rk: seen.append(lam.copy()) or true_factors(lam, rk))
    efficiency_spectrum(d)
    assert validated == [d]
    assert len(seen) == 1 and seen[0].dtype == np.int64
    assert np.array_equal(seen[0], concurrence_matrix(d))


def test_exact_invariant_failures_raise():
    # a characteristic polynomial is only computed for integer matrices
    for bad in (np.array([[Fraction(3, 2), 0], [0, 1]], dtype=object),
                np.array([[1.5, 0.0], [0.0, 1.0]]), np.eye(3)):
        with pytest.raises(InternalError, match="non-integer"):
            efficiency._charpoly(bad)
    # 1 is not a root of x^2 - 2
    with pytest.raises(InternalError, match="not a root"):
        efficiency._deflate_int_root([-2, 0, 1], 1)


@pytest.mark.parametrize("factors, profile", [
    # (x-1)^3 (x^2-2)^2 (x+5): one triple root, two double roots, one simple
    ([[-1, 1]] * 3 + [[-2, 0, 1]] * 2 + [[5, 1]], {3: 1, 2: 2, 1: 1}),
    # (x^2-3)^4 (x^3-x-1) (x-7)^4: three quadruple roots, three simple
    ([[-3, 0, 1]] * 4 + [[-1, -1, 0, 1]] + [[-7, 1]] * 4, {4: 3, 1: 3}),
])
def test_multiplicity_profile_counts_distinct_roots(factors, profile):
    poly = [1]  # low-order first
    for f in factors:
        poly = [sum(poly[i] * f[n - i] for i in range(len(poly)) if 0 <= n - i < len(f))
                for n in range(len(poly) + len(f) - 1)]
    assert efficiency._multiplicity_profile(poly) == profile


def test_squarefree_proof_matches_gcd_chain(monkeypatch, catalog_and_duals):
    # every irrational residual the spectra meet: the profile with the modular
    # proof equals the integer gcd chain alone
    residuals = []
    true_profile = efficiency._multiplicity_profile
    monkeypatch.setattr(efficiency, "_multiplicity_profile",
                        lambda p: residuals.append(p) or true_profile(p))
    for _, d in catalog_and_duals:
        efficiency_spectrum(d)
    proven = [efficiency._squarefree_mod(p) for p in residuals]
    assert proven.count(True) >= 8 and proven.count(False) >= 8  # both paths run
    rng = np.random.default_rng(20)
    for r in [3, 4, 5, 6, 8] * 4:  # 20 random designs
        efficiency_spectrum(random_resolvable(36, 6, r, rng))
    monkeypatch.undo()
    profiles = [efficiency._multiplicity_profile(p) for p in residuals]
    monkeypatch.setattr(efficiency, "_squarefree_mod", lambda p: False)
    assert [efficiency._multiplicity_profile(p) for p in residuals] == profiles


# the Mersenne prime 2**61 - 1 keeps the proof honest on a multi-digit modulus
@pytest.mark.parametrize("m", [efficiency._GCD_PRIME, (1 << 61) - 1, 7])
def test_squarefree_proof_declines_when_the_prime_divides_the_lead(monkeypatch, m):
    # (m x + 1)^2 is 1 modulo m and its derivative 0: a gcd modulo m looks
    # constant, but m divides the leading coefficient, so the proof declines
    # and the integer chain finds the double root
    monkeypatch.setattr(efficiency, "_GCD_PRIME", m)
    double = [1, 2 * m, m * m]
    assert not efficiency._squarefree_mod(double)
    assert efficiency._multiplicity_profile(double) == {2: 1}
    assert efficiency._squarefree_mod([-2, 0, 1])


def test_gcd_prime_is_one_digit_and_above_every_degree():
    # a residue below 2**30 is one CPython digit; a prime above every degree
    # the CLI admits never divides i in the derivative's coefficients i * p_i
    assert efficiency._is_prime(efficiency._GCD_PRIME)
    assert cli.MAX_VARIETIES < efficiency._GCD_PRIME < 2**30


def _oracle_rational_roots(reduced: list[int], rk: int) -> tuple[list, list[int]]:
    """The exhaustive integer-root scan: every t = 1..rk by Horner, each root
    deflated by synthetic division; ((t/rk, multiplicity) pairs, residual)."""
    factors, rem = [], list(reduced)
    for t in range(1, rk + 1):
        mult = 0
        while len(rem) > 1:
            high = [rem[-1]]  # Horner, x^n first: the quotient then p(t)
            for c in rem[-2::-1]:
                high.append(c + t * high[-1])
            if high[-1]:
                break
            rem, mult = high[-2::-1], mult + 1
        if mult:
            factors.append((Fraction(t, rk), mult))
    return factors, rem


#: constant terms with many divisors, so the screen passes many non-roots
_RICH_CONSTANTS = [1, -1, 2, 720720, -720720, 5040, 2**12 * 3**6, -(2**20), 55440 * 49]


@st.composite
def _root_scan_inputs(draw):
    # monic prod (x - t)^m * g, g monic with g(0) != 0, roots t = 1 and t = rk
    # among them, beside others inside and outside 1..rk
    r, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rk = r * k
    roots = {1: draw(st.integers(1, 15)), rk: draw(st.integers(1, 15))}
    others = st.integers(-rk, 2 * rk).filter(bool)
    roots.update(draw(st.dictionaries(others, st.integers(1, 15), max_size=3)))
    const = draw(st.sampled_from(_RICH_CONSTANTS) | st.integers(-10**6, 10**6).filter(bool))
    poly = [const] + draw(st.lists(st.integers(-60, 60), max_size=5)) + [1]  # low-order first
    for t, m in roots.items():
        for _ in range(m):
            poly = [a - t * b for a, b in zip([0] + poly, poly + [0])]
    return random_resolvable(2 * k, k, r, np.random.default_rng(0)), poly


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_root_scan_inputs())
def test_root_scan_matches_exhaustive_scan(case):
    # efficiency_spectrum's scan, fed poly as the reduced polynomial, against
    # the full scan: the same rational factors and the residual it hands on
    design, poly = case
    residuals = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(efficiency, "_reduced_polynomial", lambda d, v, rk: (None, 1, list(poly)))
        mp.setattr(efficiency, "_irrational_factors",
                   lambda rem, rational, floats: residuals.append(rem) or [])
        factors = [(f.value, f.multiplicity) for f in efficiency_spectrum(design).factors]
    expected = _oracle_rational_roots(poly, design.r * design.k)
    assert (factors, (residuals + [[1]])[0]) == expected


def test_root_scan_matches_exhaustive_scan_on_designs(monkeypatch, catalog_and_duals):
    # every reduced polynomial the catalog, its duals and 20 random designs
    # meet: the same rational factors and the same residual as the full scan
    seen = []
    true_reduced, true_irrational = efficiency._reduced_polynomial, efficiency._irrational_factors

    def reduced(d, v, rk):
        out = true_reduced(d, v, rk)
        seen.append([out[2], rk, [1]])
        return out

    def irrational(rem, rational, floats):
        seen[-1][2] = rem
        return true_irrational(rem, rational, floats)

    monkeypatch.setattr(efficiency, "_reduced_polynomial", reduced)
    monkeypatch.setattr(efficiency, "_irrational_factors", irrational)
    rng = np.random.default_rng(20)
    designs = [d for _, d in catalog_and_duals]
    designs += [random_resolvable(36, 6, r, rng) for r in [3, 4, 5, 6, 8] * 4]
    for d in designs:
        spec = efficiency_spectrum(d)
        poly, rk, residual = seen[-1]
        if spec.connected:
            exact = [(f.value, f.multiplicity) for f in spec.factors if f.exact]
            assert (exact, residual) == _oracle_rational_roots(poly, rk), d.label


def test_fast_path_work_counts(monkeypatch):
    # on the benchmark's kind of design, every residual is proven squarefree
    # modulo _GCD_PRIME and the root scan evaluates only divisors of the
    # constant term; exact counts, so no host speed moves this pin
    evals, gcds = [], []
    true_eval, true_gcd = efficiency._poly_eval_int, efficiency._poly_gcd
    monkeypatch.setattr(efficiency, "_poly_eval_int",
                        lambda c, t: evals.append(c[0] % t) or true_eval(c, t))
    monkeypatch.setattr(efficiency, "_poly_gcd", lambda a, b: gcds.append(1) or true_gcd(a, b))
    rng = np.random.default_rng(22)
    for r in [4] * 10 + [8] * 10:
        efficiency_spectrum(random_resolvable(36, 6, r, rng))
    assert not gcds
    assert not any(evals)
    assert len(evals) == 449  # 150 at roots; the unscreened scan makes 870


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
