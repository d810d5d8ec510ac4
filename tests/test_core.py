"""Data model: validation, concurrence, text round-trips, duality."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdesign import (
    BlockDesign,
    DesignError,
    InvalidDesignError,
    ParseError,
    ResolvableDesign,
    concurrence_matrix,
    dual,
    read_design,
    resolution,
    validate,
    write_design,
)
from rbdesign.core import _exact_covers
from rbdesign.families import columns_replicate, rows_replicate
from rbdesign.search import random_resolvable


def _oracle_validate(design):
    """Every violation, by the detailed scan alone: the slow route validate
    now takes only when its per-replicate permutation check fails."""
    out = []
    v, k = design.v, design.k
    if design.r < 1:
        out.append("design has no replicates")
    if v < 1 or k < 1:
        out.append(f"bad parameters v={v}, k={k}")
        return out
    if v % k != 0:
        out.append(f"v={v} is not a multiple of k={k}")
    for ri, rep in enumerate(design.replicates, start=1):
        if len(rep) != v // k and v % k == 0:
            out.append(f"replicate {ri}: {len(rep)} blocks, expected {v // k}")
        seen = Counter()
        for bi, block in enumerate(rep, start=1):
            if len(block) != k:
                out.append(f"replicate {ri}, block {bi}: size {len(block)}, expected {k}")
            dups = [x for x, c in Counter(block).items() if c > 1]
            for x in sorted(dups):
                out.append(f"replicate {ri}, block {bi}: duplicate variety {x}")
            for x in block:
                if not 1 <= x <= v:
                    out.append(f"replicate {ri}, block {bi}: variety {x} out of range 1..{v}")
            seen.update(block)
        extra = sorted(x for x, c in seen.items() if c > 1 and 1 <= x <= v)
        missing = sorted(set(range(1, v + 1)) - set(seen))
        for x in extra:
            out.append(f"replicate {ri}: variety {x} occurs {seen[x]} times")
        for x in missing:
            out.append(f"replicate {ri}: variety {x} missing")
    return out


def _oracle_concurrence(design):
    """Concurrence by the pairwise loop over every block: the slow route the
    incidence product replaced."""
    blocks = design.blocks() if isinstance(design, ResolvableDesign) else design.blocks
    diag = design.r if isinstance(design, ResolvableDesign) else design.replication()
    lam = np.zeros((design.v, design.v), dtype=np.int64)
    for block in blocks:
        for a, b in itertools.combinations(block, 2):
            lam[a - 1, b - 1] += 1
            lam[b - 1, a - 1] += 1
    np.fill_diagonal(lam, diag)
    return lam


@st.composite
def _wide_designs(draw):
    """Random resolvable designs with v up to 64, singleton blocks and
    one-block replicates included."""
    k = draw(st.integers(1, 64))
    v = k * draw(st.integers(1, 64 // k))
    r = draw(st.integers(1, 6))
    return random_resolvable(v, k, r, np.random.default_rng(draw(st.integers(0, 2**20))))


def test_valid_reference_design_has_no_violations(gamma_rc_8):
    assert validate(gamma_rc_8) == []


def test_single_rows_replicate_is_valid():
    d = ResolvableDesign.from_replicates([rows_replicate()], v=36, k=6)
    assert validate(d) == []


def test_replacing_a_variety_yields_duplicate_and_missing(gamma_rc_8):
    reps = [list(map(list, rep)) for rep in gamma_rc_8.replicates]
    block = reps[0][0]
    block[block.index(1)] = 2
    broken = ResolvableDesign.from_replicates(reps, v=36, k=6)
    violations = validate(broken)
    assert len(violations) == 2
    assert any("variety 2 occurs 2 times" in v for v in violations)
    assert any("variety 1 missing" in v for v in violations)


def test_duplicate_inside_block_reported_with_coordinates():
    d = ResolvableDesign.from_replicates([[[1, 1, 2], [3, 4, 5]]], v=6, k=3)
    violations = validate(d)
    assert any("replicate 1, block 1: duplicate variety 1" in v for v in violations)
    assert any("variety 6 missing" in v for v in violations)


def test_mismatched_block_size_reported():
    d = ResolvableDesign(v=6, k=3, replicates=(((1, 2, 3), (4, 5)),))
    assert any("size 2, expected 3" in v for v in validate(d))


def test_v_not_multiple_of_k_reported():
    d = ResolvableDesign(v=7, k=3, replicates=(((1, 2, 3), (4, 5, 6)),))
    assert any("not a multiple" in v for v in validate(d))


# --- concurrence ---

def test_lattice_concurrences_are_zero_or_one(lattice):
    lam = concurrence_matrix(lattice)
    off = lam[~np.eye(36, dtype=bool)]
    assert set(np.unique(off).tolist()) == {0, 1}
    assert all(lam[i, i] == 2 for i in range(36))


def test_single_replicate_concurrence():
    d = ResolvableDesign.from_replicates([columns_replicate()], v=36, k=6)
    lam = concurrence_matrix(d)
    off = lam[~np.eye(36, dtype=bool)]
    assert set(np.unique(off).tolist()) == {0, 1}
    assert all(lam[i].sum() == 6 for i in range(36))


def test_theta8_concurrences_are_one_or_two(theta8):
    lam = concurrence_matrix(theta8)
    off = lam[~np.eye(36, dtype=bool)]
    assert set(np.unique(off).tolist()) == {1, 2}


@pytest.mark.parametrize("name_r", [(2, "RC"), (5, "C"), (8, "RC")])
def test_concurrence_invariants(name_r):
    from rbdesign import gamma_design

    r, variant = name_r
    d = gamma_design(r, variant)
    lam = concurrence_matrix(d)
    assert (lam == lam.T).all()
    assert all(lam[i, i] == d.r for i in range(36))
    assert all(lam[i].sum() == d.r * d.k for i in range(36))
    # every block contributes k(k-1) ordered concurrent pairs
    off_total = int(lam.sum() - np.trace(lam))
    assert off_total == d.r * d.v * (d.k - 1)


def test_concurrence_matches_oracle_on_catalog_and_duals(catalog_and_duals):
    for name, d in catalog_and_duals:
        lam = concurrence_matrix(d)
        assert lam.dtype == np.int64
        assert np.array_equal(lam, _oracle_concurrence(d)), name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_wide_designs())
@example(random_resolvable(64, 1, 3, np.random.default_rng(0)))
@example(random_resolvable(64, 64, 3, np.random.default_rng(0)))
@example(random_resolvable(64, 8, 6, np.random.default_rng(0)))
def test_concurrence_matches_oracle_on_random_designs(design):
    lam = concurrence_matrix(design)
    assert lam.dtype == np.int64
    assert np.array_equal(lam, _oracle_concurrence(design))


_MUTATIONS = ("swap", "move", "duplicate", "drop", "out_of_range", "grow", "drop_block")


@st.composite
def _mutated_designs(draw):
    """A valid design with one to three mutations: a swap within a replicate
    (still valid), a variety moved to another block of its replicate,
    duplicated, dropped or out of range, a block one larger, or a replicate
    one block short."""
    design = draw(_wide_designs())
    reps = [[list(b) for b in rep] for rep in design.replicates]
    kinds = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3))
    for kind in kinds:
        rep = reps[draw(st.integers(0, len(reps) - 1))]
        if kind == "drop_block":
            rep.pop(draw(st.integers(0, len(rep) - 1)))
            if not rep:
                rep.append([])
            continue
        block = rep[draw(st.integers(0, len(rep) - 1))]
        if not block:
            block.append(1)
            continue
        i = draw(st.integers(0, len(block) - 1))
        other = rep[draw(st.integers(0, len(rep) - 1))]
        if kind == "swap":
            if other:
                j = draw(st.integers(0, len(other) - 1))
                block[i], other[j] = other[j], block[i]
        elif kind == "move":
            other.append(block.pop(i))
        elif kind == "duplicate":
            block[i] = draw(st.sampled_from([x for b in rep for x in b]))
        elif kind == "drop":
            block.pop(i)
        elif kind == "out_of_range":
            block[i] = draw(st.sampled_from([0, -1, design.v + 1, design.v + 7]))
        else:  # grow
            block.append(draw(st.integers(-1, design.v + 1)))
    mutated = ResolvableDesign(design.v, design.k, tuple(tuple(tuple(b) for b in rep)
                                                        for rep in reps))
    return mutated, set(kinds) <= {"swap"}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mutated_designs())
@example((ResolvableDesign(6, 3, ()), False))
@example((ResolvableDesign(7, 3, (((1, 2, 3), (4, 5, 6)),)), False))
@example((ResolvableDesign(0, 3, (((1, 2, 3),),)), False))
@example((ResolvableDesign(0, 3, ((),)), False))
@example((ResolvableDesign(6, 3, (((3, 2, 1), (6, 5, 4)),)), True))
def test_validate_matches_detailed_scan_on_mutated_designs(case):
    design, swaps_only = case
    violations = validate(design)
    assert violations == _oracle_validate(design)
    if swaps_only:
        assert violations == []


def test_concurrence_rejects_invalid_design():
    d = ResolvableDesign(v=6, k=3, replicates=(((1, 2, 3), (3, 4, 5)),))
    with pytest.raises(InvalidDesignError):
        concurrence_matrix(d)


# --- text format ---

def test_write_then_read_is_identity(gamma_rc_8, theta8, delta_rc_8):
    for d in (gamma_rc_8, theta8, delta_rc_8):
        assert read_design(write_design(d)) == d


def test_write_read_canonicalization_is_idempotent(delta_rc_8):
    text = write_design(delta_rc_8)
    assert write_design(read_design(text)) == text


def test_read_accepts_loose_whitespace():
    messy = "# lbl\n 1  2\t3\n4 5 6\n\n\n2 4 6\n1 3 5\n"
    d = read_design(messy)
    assert d.v == 6 and d.k == 3 and d.r == 2
    assert d.replicates[0] == ((1, 2, 3), (4, 5, 6))
    assert d.label == "lbl"


def test_read_preserves_block_and_replicate_order():
    text = "4 5 6\n1 2 3\n\n1 4 5\n2 3 6\n"
    d = read_design(text)
    assert d.replicates[0][0] == (4, 5, 6)
    assert d.replicates[1][1] == (2, 3, 6)


def test_read_empty_text_raises():
    with pytest.raises(ParseError, match="no replicates"):
        read_design("")
    with pytest.raises(ParseError, match="no replicates"):
        read_design("# only a comment\n")


def test_read_malformed_line_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        read_design("1 2 3\nx y z\n")


def test_read_wrong_block_size_reports_line_number():
    with pytest.raises(ParseError, match="line 2: block of size 2"):
        read_design("1 2 3\n4 5\n")


def test_read_variety_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        read_design("1 2 3\n4 5 9\n")


@st.composite
def random_designs(draw):
    k = draw(st.sampled_from([2, 3]))
    blocks_per_rep = draw(st.integers(2, 4))
    v = k * blocks_per_rep
    r = draw(st.integers(1, 3))
    rng_seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(rng_seed)
    reps = []
    for _ in range(r):
        perm = rng.permutation(v) + 1
        reps.append([perm[i * k : (i + 1) * k] for i in range(blocks_per_rep)])
    return ResolvableDesign.from_replicates(reps, v=v, k=k, label="prop")


@settings(max_examples=25, deadline=None)
@given(random_designs())
def test_round_trip_property(design):
    assert validate(design) == []
    assert read_design(write_design(design)) == design


@st.composite
def _near_design_texts(draw):
    """Replicates of b or b + 1 lines of k integers in 1..kb (some written
    with a sign or a leading zero), blank-line separated; one line in eight
    is arbitrary text or a comment."""
    k, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    member = st.tuples(st.sampled_from(["", "", "+", "0"]), st.integers(1, k * b))
    block = st.lists(member.map(lambda m: m[0] + str(m[1])), min_size=k, max_size=k)
    block = block.map(draw(st.sampled_from([" ", "\t"])).join)
    noise = st.text(max_size=6) | st.text(max_size=6).map("#".__add__)
    line = st.sampled_from([block] * 7 + [noise]).flatmap(lambda s: s)
    reps = draw(st.lists(st.lists(line, min_size=b, max_size=b + 1), min_size=1, max_size=3))
    return "\n\n".join("\n".join(rep) for rep in reps)


@settings(max_examples=300)
@given(st.text() | _near_design_texts())
def test_read_design_raises_a_design_error_or_round_trips(text):
    # any text either fails with one of the package's errors (the CLI's
    # documented exit codes) or gives a design whose canonical text reads back
    try:
        design = read_design(text)
    except DesignError:
        return
    assert read_design(write_design(design)) == design


# --- dual ---

def test_dual_of_lattice_pairs_row_and_column_blocks(lattice):
    bd = dual(lattice)
    assert bd.v == 12
    assert len(bd.blocks) == 36
    assert bd.block_size() == 2
    # replicate 1 holds the column blocks, replicate 2 the row blocks, so
    # variety at array cell (i, j) lies in dual block {j, 6+i}
    for x in range(1, 37):
        i, j = (x - 1) // 6 + 1, (x - 1) % 6 + 1
        assert bd.blocks[x - 1] == (j, 6 + i)


def test_dual_shape(gamma_rc_8):
    bd = dual(gamma_rc_8)
    assert bd.v == 48
    assert len(bd.blocks) == 36
    assert bd.block_size() == 8
    assert bd.replication() == 6


def test_dual_concurrence_diagonal_is_block_size(gamma_rc_8):
    lam = concurrence_matrix(dual(gamma_rc_8))
    assert all(lam[i, i] == 6 for i in range(48))


def test_double_dual_restores_blocks(theta8):
    back = dual(dual(theta8))
    assert back.v == 36
    assert sorted(back.blocks) == sorted(theta8.blocks())


def test_resolution_found_for_semi_latin_dual():
    from rbdesign import delta_design

    grouping = resolution(dual(delta_design(6)))
    assert grouping is not None
    for cls in grouping:
        covered = sorted(x for b in cls for x in b)
        assert covered == list(range(1, 37))


def test_resolution_none_for_two_triangles():
    bd = BlockDesign.from_blocks(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert resolution(bd) is None


def test_resolution_none_for_nonuniform_blocks():
    bd = BlockDesign.from_blocks(4, [(1, 2), (3, 4), (1, 2, 3)])
    assert resolution(bd) is None


def _oracle_resolutions(bd):
    """Every resolution, each as a sorted tuple of sorted classes of blocks,
    without backtracking: the (v/k)-subsets of block indices that partition
    1..v, then every choice of b/(v/k) of them that partitions the blocks."""
    per_class = bd.v // len(bd.blocks[0])
    b = len(bd.blocks)
    classes = [c for c in itertools.combinations(range(b), per_class)
               if sorted(x for i in c for x in bd.blocks[i]) == list(range(1, bd.v + 1))]
    return {tuple(sorted(tuple(sorted(bd.blocks[i] for i in c)) for c in choice))
            for choice in itertools.combinations(classes, b // per_class)
            if sorted(i for c in choice for i in c) == list(range(b))}


#: (v, k, r) small enough for the oracle; k = 1 and k = v included
_RESOLUTION_SHAPES = [(2, 1, 3), (3, 1, 2), (3, 3, 3), (4, 2, 2), (4, 2, 3), (6, 2, 3),
                      (6, 3, 3), (6, 3, 4), (8, 2, 3), (8, 4, 3), (9, 3, 3)]


@st.composite
def _block_designs(draw):
    """A resolvable design from per-replicate permutations, given as its
    dual, as its blocks shuffled, or shuffled after swapping x and y between
    two replicates (x -> y in one block of one, y -> x in one block of the
    other), which keeps block size and replication uniform.  Replicates that
    repeat a partition give repeated blocks."""
    v, k, r = draw(st.sampled_from(_RESOLUTION_SHAPES))
    reps = [draw(st.permutations(range(1, v + 1))) for _ in range(r)]
    reps = [[list(p[i:i + k]) for i in range(0, v, k)] for p in reps]
    kind = draw(st.sampled_from(["swapped", "dual", "shuffled"]))
    if kind == "dual":
        return dual(ResolvableDesign.from_replicates(reps, v=v, k=k))
    if kind == "swapped" and k < v:
        i, j = draw(st.sampled_from(list(itertools.permutations(range(r), 2))))
        block_a = draw(st.sampled_from(reps[i]))
        x = draw(st.sampled_from(block_a))
        swaps = [(block_b, y) for block_b in reps[j] if x not in block_b
                 for y in block_b if y not in block_a]
        if swaps:
            block_b, y = draw(st.sampled_from(swaps))
            block_a[block_a.index(x)], block_b[block_b.index(y)] = y, x
    return BlockDesign.from_blocks(v, draw(st.permutations([b for rep in reps for b in rep])))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_block_designs())
@example(BlockDesign.from_blocks(6, [(1, 2, 3), (1, 2, 3), (4, 5, 6), (4, 5, 6)]))
@example(BlockDesign.from_blocks(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
@example(BlockDesign.from_blocks(3, [(1, 2, 3)] * 4))
@example(BlockDesign.from_blocks(3, [(1,), (2,), (3,), (3,), (2,), (1,)]))
@example(BlockDesign.from_blocks(2, [(1, 1), (2, 2)]))
@example(BlockDesign.from_blocks(4, [(1, 1), (2, 3), (4, 4), (1, 4), (2, 2), (3, 3)]))
def test_resolution_matches_brute_force(bd):
    expected = _oracle_resolutions(bd)
    found = resolution(bd)
    if found is None:
        assert expected == set()
    else:
        assert tuple(sorted(tuple(sorted(cls)) for cls in found)) in expected


def test_exact_covers_on_knuths_example():
    """The 7-column example of Knuth's "Dancing Links" has one exact cover."""
    rows = [{3, 5, 6}, {1, 4, 7}, {2, 3, 6}, {1, 4}, {2, 7}, {4, 5, 7}]

    def options(x, covered):
        return ((i, row) for i, row in enumerate(rows) if x in row and covered.isdisjoint(row))

    covers = list(_exact_covers(range(1, 8), options))
    assert [[rows[i] for i in cover] for cover in covers] == [[{1, 4}, {2, 7}, {3, 5, 6}]]
    assert list(_exact_covers(range(1, 8), options, frozenset({1, 4}))) == [[4, 0]]
