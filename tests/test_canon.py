"""Canonical labeling engine validated against brute force and known groups."""

import gc
import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbdesign import canon, catalog, catalog_entry, dual, isomorphism
from rbdesign.canon import _individualize, canonical_labeling, refine
from rbdesign.core import concurrence_matrix, valid_blocks
from rbdesign.isomorphism import _incidence_graph


def to_matrix(adj):
    """The boolean adjacency matrix of neighbor lists."""
    n = len(adj)
    matrix = np.zeros((n, n), dtype=bool)
    for v, nbrs in enumerate(adj):
        matrix[v, list(nbrs)] = True
    return matrix


def to_lists(matrix):
    """The neighbor lists of a boolean adjacency matrix."""
    return [np.flatnonzero(row).tolist() for row in matrix]


def brute_force_aut_order(adj, colors):
    n = len(adj)
    sets = [set(a) for a in adj]
    count = 0
    for perm in itertools.permutations(range(n)):
        if any(colors[perm[v]] != colors[v] for v in range(n)):
            continue
        if all(perm[u] in sets[perm[v]] for v in range(n) for u in sets[v]):
            count += 1
    return count


def _oracle_certificate(adj, labeling, colors):
    """The certificate by the bit loop: colors in position order, then the
    upper triangle of the relabeled adjacency, row-major, MSB first, the
    last byte zero-padded."""
    n = len(adj)
    rows = [set(a) for a in adj]
    vertex_at = [0] * n
    for v, p in enumerate(labeling):
        vertex_at[p] = v
    head = ",".join(str(colors[vertex_at[i]]) for i in range(n)).encode() + b";"
    bits = bytearray()
    acc = 0
    filled = 0
    for i in range(n):
        row = rows[vertex_at[i]]
        for j in range(i + 1, n):
            acc = (acc << 1) | (1 if vertex_at[j] in row else 0)
            filled += 1
            if filled == 8:
                bits.append(acc)
                acc = 0
                filled = 0
    if filled:
        bits.append(acc << (8 - filled))
    return head + bytes(bits)


def cycle(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def complete(n):
    return [[j for j in range(n) if j != i] for i in range(n)]


def complete_bipartite(a, b):
    return [list(range(a, a + b)) if i < a else list(range(a)) for i in range(a + b)]


def cube(d):
    return [[v ^ (1 << i) for i in range(d)] for v in range(1 << d)]


def disjoint_triangles(m):
    return [[3 * (v // 3) + (v + 1) % 3, 3 * (v // 3) + (v + 2) % 3] for v in range(3 * m)]


def petersen():
    adj = [[] for _ in range(10)]
    for i in range(5):
        for j in ((i + 1) % 5, (i - 1) % 5):
            adj[i].append(j)
        adj[i].append(i + 5)
        adj[i + 5].append(i)
        for j in ((i + 2) % 5, (i - 2) % 5):
            adj[i + 5].append(j + 5)
    return [sorted(set(a)) for a in adj]


@pytest.mark.parametrize(
    "adj,order",
    [
        (cycle(4), 8),       # dihedral
        (cycle(5), 10),
        (cycle(6), 12),
        (complete(4), 24),   # symmetric group
        (petersen(), 120),
        ([[1], [0], [3], [2]], 8),  # two disjoint edges: wreath of S2
        # the first-path orbit product spans several levels
        (complete_bipartite(3, 3), 72),     # S3 wr S2
        (cube(3), 48),                      # hyperoctahedral group
        ([[] for _ in range(6)], 720),      # edgeless: S6
        (disjoint_triangles(3), 1296),      # S3 wr S3
    ],
)
def test_known_automorphism_orders(adj, order):
    result = canonical_labeling(to_matrix(adj))
    assert result.group.order() == order
    assert result.certificate == _oracle_certificate(adj, result.labeling, [0] * len(adj))


def test_colors_restrict_automorphisms():
    # C4 with one vertex distinguished: only the reflection through it survives
    result = canonical_labeling(to_matrix(cycle(4)), [1, 0, 0, 0])
    assert result.group.order() == 2


def _random_graph(n, p, rng):
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i].append(j)
                adj[j].append(i)
    return adj


@pytest.mark.parametrize("seed", range(40))
def test_group_order_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.choice([5, 6, 7])
    adj = _random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
    colors = [0] * n if seed % 2 == 0 else [v % 2 for v in range(n)]
    expected = brute_force_aut_order(adj, colors)
    assert canonical_labeling(to_matrix(adj), colors).group.order() == expected


@pytest.mark.parametrize("seed", range(8))
def test_certificates_decide_isomorphism_of_random_relabelings(seed):
    rng = random.Random(100 + seed)
    n = 8
    adj = _random_graph(n, 0.4, rng)
    cert = canonical_labeling(to_matrix(adj)).certificate
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [[] for _ in range(n)]
    for v in range(n):
        for u in adj[v]:
            relabeled[perm[v]].append(perm[u])
    relabeled = [sorted(x) for x in relabeled]
    assert canonical_labeling(to_matrix(relabeled)).certificate == cert
    # flipping one edge must change the certificate
    u, v = None, None
    for i in range(n):
        for j in range(i + 1, n):
            if j not in adj[i]:
                u, v = i, j
    if u is not None:
        adj[u].append(v)
        adj[v].append(u)
        assert canonical_labeling(to_matrix(adj)).certificate != cert


def _assert_oracle_certificate(adj, colors):
    result = canonical_labeling(to_matrix(adj), colors)
    assert result.certificate == _oracle_certificate(adj, result.labeling, colors)
    return result


def _oracle_group_order(gens, n):
    """Order of the group that the permutations `gens` generate on range(n),
    by the deterministic Schreier-Sims algorithm (SCHREIERSIMS in Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005).  g[x] is
    the image of x, and a product ab applies a first."""
    identity = tuple(range(n))

    def mul(a, b):
        return tuple(map(b.__getitem__, a))

    def inv(a):
        out = [0] * n
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    base, levels = [], []  # levels[i] = (generators fixing base[:i], transversal of base[i])

    def extend_base(g):
        base.append(next(x for x in range(n) if g[x] != x))
        levels.append(([], {}))

    def orbit(i):
        gens_i, trans = levels[i]
        trans.clear()
        trans[base[i]] = identity
        frontier = [base[i]]
        while frontier:
            x = frontier.pop()
            for g in gens_i:
                if g[x] not in trans:
                    trans[g[x]] = mul(trans[x], g)
                    frontier.append(g[x])

    def strip(g):
        for i, b in enumerate(base):
            u = levels[i][1].get(g[b])
            if u is None:
                return g, i
            g = mul(g, inv(u))
        return g, len(base)

    for g in gens:
        if g != identity and all(g[b] == b for b in base):
            extend_base(g)
    for i in range(len(base)):
        levels[i][0].extend(g for g in gens if g != identity and all(g[b] == b for b in base[:i]))
        orbit(i)
    i = len(base) - 1
    while i >= 0:
        gens_i, trans = levels[i]
        found = None
        for x, u in list(trans.items()):
            for g in gens_i:
                ug = mul(u, g)
                if ug == trans[g[x]]:
                    continue
                h, j = strip(mul(ug, inv(trans[g[x]])))
                if j < len(base) or h != identity:
                    if j == len(base):
                        extend_base(h)
                    found = h, j
                    break
            if found:
                break
        if found is None:
            i -= 1
            continue
        h, j = found
        for level in range(i + 1, j + 1):
            levels[level][0].append(h)
            orbit(level)
        i = j
    order = 1
    for _, trans in levels:
        order *= len(trans)
    return order


def _assert_group_matches_oracle(adj, colors, result):
    """Every stored permutation is an automorphism, stored once, and
    together they generate exactly group.order() elements."""
    n = len(adj)
    matrix = to_matrix(adj)
    gens = result.group.generators()
    assert len(set(gens)) == len(gens)
    for g in gens:
        assert sorted(g) == list(range(n))
        assert (matrix[np.ix_(g, g)] == matrix).all()
        assert [colors[x] for x in g] == list(colors)
    assert _oracle_group_order(gens, n) == result.group.order()


@pytest.mark.parametrize("gens,n,order", [
    ([], 0, 1), ([], 5, 1),
    ([(1, 2, 3, 4, 0)], 5, 5),
    ([(1, 0, 2, 3), (0, 1, 3, 2)], 4, 4),
    ([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], 6, 720),
    ([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], 6, 12),
    ([(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)], 5, 60),  # A5 from 3-cycles
])
def test_oracle_group_order_on_known_groups(gens, n, order):
    assert _oracle_group_order(gens, n) == order


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(0, 40))
    # edgeless and complete graphs on 40 vertices take seconds each (their
    # symmetric groups); test_known_automorphism_orders covers such graphs
    p = draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adj = _random_graph(n, p, rng)
    colors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return adj, colors


@settings(max_examples=100)
@given(colored_graphs())
def test_certificate_matches_bit_loop_on_random_graphs(graph):
    _assert_group_matches_oracle(*graph, _assert_oracle_certificate(*graph))


def _oracle_incidence_graph(design):
    """The incidence graph by the loop: the varieties, then the sorted
    distinct blocks colored by multiplicity.  Returns (neighbor lists, colors)."""
    multiplicity = Counter(valid_blocks(design))
    distinct = sorted(multiplicity)
    adj = [[] for _ in range(design.v + len(distinct))]
    for bi, block in enumerate(distinct):
        for x in block:
            adj[x - 1].append(design.v + bi)
            adj[design.v + bi].append(x - 1)
    return adj, [0] * design.v + [multiplicity[b] for b in distinct]


def _oracle_bond_graph(lam):
    """The bond graph by the loop: the varieties, then one vertex per pair
    i < j with lam[i, j] > 0 in row-major order, colored by lam[i, j].
    Returns (neighbor lists, colors)."""
    n = len(lam)
    adj = [[] for _ in range(n)]
    colors = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if lam[i, j]:
                adj[i].append(len(adj))
                adj[j].append(len(adj))
                adj.append([i, j])
                colors.append(int(lam[i, j]))
    return adj, colors


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_certificate_matches_bit_loop_on_catalog_incidence_graphs(name):
    design = catalog_entry(name).design
    for d in (design, dual(design)):
        matrix, colors, _ = _incidence_graph(d)
        adj = to_lists(matrix)
        assert (adj, colors) == _oracle_incidence_graph(d)
        _assert_group_matches_oracle(adj, colors, _assert_oracle_certificate(adj, colors))


@pytest.fixture(scope="module")
def bond_graphs(theta8, gamma_rc_8):
    """(matrix, colors, labeling) of the two bond graphs that
    concurrence_equivalent(theta8, gamma_rc_8) labels."""
    graphs = []

    def spy(matrix, colors):
        result = canonical_labeling(matrix, colors)
        graphs.append((matrix, colors, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isomorphism, "canonical_labeling", spy)
        assert isomorphism.concurrence_equivalent(theta8, gamma_rc_8)
    return graphs


def test_certificate_matches_bit_loop_on_bond_graphs(bond_graphs, theta8, gamma_rc_8):
    assert [len(matrix) for matrix, _, _ in bond_graphs] == [666, 666]  # 36 varieties + 630 pairs
    for (matrix, colors, result), design in zip(bond_graphs, (theta8, gamma_rc_8)):
        assert (to_lists(matrix), colors) == _oracle_bond_graph(concurrence_matrix(design))
        assert result.certificate == _oracle_certificate(to_lists(matrix), result.labeling, colors)


#: sha256 of repr([(certificate, labeling, group order), ...]) over the
#: incidence graphs of gamma-rc-8, its dual, theta-8, its dual, delta-rc-8
#: and its dual, then the two bond graphs of bond_graphs
LABELINGS_SHA256 = "28f871d69de1eaf2c75730caf5abd67a0445c82c55e7ca7bb5414d483fde03e8"


def test_labelings_keep_their_bytes(bond_graphs):
    results = []
    for name in ("gamma-rc-8", "theta-8", "delta-rc-8"):
        design = catalog_entry(name).design
        for d in (design, dual(design)):
            matrix, colors, _ = _incidence_graph(d)
            results.append(canonical_labeling(matrix, colors))
    results += [result for _, _, result in bond_graphs]
    encoded = repr([(r.certificate, r.labeling, r.group.order()) for r in results]).encode()
    assert hashlib.sha256(encoded).hexdigest() == LABELINGS_SHA256


def _oracle_refine(adj, colors):
    """Equitable refinement with dense color ranks, re-signing every vertex
    in every round (the refinement before positional cell ids)."""
    colors = list(colors)
    while True:
        sigs = []
        for v, nbrs in enumerate(adj):
            counts = sorted(colors[u] for u in nbrs)
            sigs.append((colors[v], tuple(counts)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _oracle_individualize(adj, colors, v):
    keyed = [(c, 0 if u == v else 1) for u, c in enumerate(colors)]
    ranks = {s: i for i, s in enumerate(sorted(set(keyed)))}
    return _oracle_refine(adj, [ranks[s] for s in keyed])


def _dense(ids):
    ranks = {c: i for i, c in enumerate(sorted(set(ids)))}
    return [ranks[c] for c in ids]


def _assert_positional(ids):
    """Every cell's id is the number of vertices in the cells before it."""
    sizes = Counter(ids)
    start = 0
    for c in sorted(sizes):
        assert c == start
        start += sizes[c]


def _assert_cells(ids, cells):
    """`cells` is the partition of `ids`: one ascending list per distinct id."""
    rebuilt = {}
    for v, c in enumerate(ids):
        rebuilt.setdefault(c, []).append(v)
    assert cells == rebuilt


def _target(cells):
    """The smallest non-singleton cell, the one at the lowest position on a tie."""
    key = min(((len(vs), c) for c, vs in cells.items() if len(vs) > 1), default=None)
    return None if key is None else cells[key[1]]


def _assert_matches_oracle(adj, colors):
    ids, cells = refine(adj, colors)
    _assert_positional(ids)
    _assert_cells(ids, cells)
    assert _dense(ids) == _oracle_refine(adj, colors)
    return ids, cells


def _assert_individualizations_match_oracle(adj, ids, cell):
    for v in cell:
        child, cells = _individualize(adj, ids, cell, v)
        _assert_positional(child)
        _assert_cells(child, cells)
        assert _dense(child) == _oracle_individualize(adj, _dense(ids), v)


@settings(max_examples=150)
@given(colored_graphs(), st.sampled_from([1, 5, -3]))
def test_refine_matches_dense_oracle(graph, scale):
    adj, colors = graph
    adj = [set(a) for a in adj]
    # scale 5 and -3 give non-dense and reordered initial colors
    ids, cells = _assert_matches_oracle(adj, [scale * c for c in colors])
    cell = _target(cells)
    if cell is not None:
        _assert_individualizations_match_oracle(adj, ids, cell)


@pytest.mark.parametrize("name", ["delta-r-3", "gamma-rc-5", "theta-8", "delta-rc-8"])
def test_refine_matches_dense_oracle_on_catalog_individualizations(name):
    design = catalog_entry(name).design
    for d in (design, dual(design)):
        matrix, colors, _ = _incidence_graph(d)
        adj = [set(a) for a in to_lists(matrix)]
        root, cells = _assert_matches_oracle(adj, colors)
        for cell in cells.values():
            if len(cell) > 1:
                _assert_individualizations_match_oracle(adj, root, cell)
        # one level down, below the first vertex of the target cell
        cell = _target(cells)
        child, cells = _individualize(adj, root, cell, cell[0])
        cell = _target(cells)
        if cell is not None:
            _assert_individualizations_match_oracle(adj, child, cell)


def _relabel(design, seed):
    rng = random.Random(seed)
    perm = list(range(1, design.v + 1))
    rng.shuffle(perm)
    return design.relabel(perm)


def test_refine_matches_dense_oracle_on_every_search_call(monkeypatch):
    matrix, colors, _ = _incidence_graph(_relabel(catalog_entry("gamma-c-2").design, 2))
    real = refine
    calls = []

    def checked(adj, colors, changed=None):
        ids, cells = real(adj, colors, changed)
        _assert_positional(ids)
        _assert_cells(ids, cells)
        assert _dense(ids) == _oracle_refine(adj, colors)
        calls.append(changed)
        return ids, cells

    monkeypatch.setattr(canon, "refine", checked)
    canonical_labeling(matrix, colors)
    assert len(calls) == 460
    assert calls[0] is None and all(changed for changed in calls[1:])


@pytest.mark.parametrize("name,shuffle,nodes", [
    ("delta-r-3", None, 1879), ("delta-r-4", None, 2986), ("delta-r-5", None, 4193),
    ("delta-rc-8", None, 14), ("gamma-c-2", 2, 460),
])
def test_search_visits_pinned_node_counts(monkeypatch, name, shuffle, nodes):
    """refine calls (the root and one per search node) per labeling, as
    counted before positional cell ids: an unchanged search tree."""
    design = catalog_entry(name).design
    if shuffle is not None:
        design = _relabel(design, shuffle)
    calls = []
    real = refine

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(canon, "refine", counted)
    matrix, colors, _ = _incidence_graph(design)
    canonical_labeling(matrix, colors)
    assert len(calls) == nodes


def _assert_equitable(adj, ids):
    """Any two vertices of one cell have equally many neighbors in every cell."""
    counts = {}
    for v, nbrs in enumerate(adj):
        counts.setdefault(ids[v], set()).add(frozenset(Counter(ids[u] for u in nbrs).items()))
    assert all(len(c) == 1 for c in counts.values())


@settings(max_examples=100)
@given(colored_graphs())
@example((petersen(), [0] * 10))
def test_refinement_is_equitable(graph):
    adj, colors = graph
    adj = [set(a) for a in adj]
    ids, cells = refine(adj, colors)
    _assert_equitable(adj, ids)
    # the result refines the initial colors, and keeps their order
    assert all(colors[u] < colors[v] for u in range(len(adj)) for v in range(len(adj))
               if ids[u] < ids[v] and colors[u] != colors[v])
    assert len(set(zip(ids, colors))) == len(set(ids))
    cell = _target(cells)
    for v in cell or ():
        _assert_equitable(adj, _individualize(adj, ids, cell, v)[0])


def test_refinement_keeps_a_vertex_transitive_graph_whole():
    assert refine([set(a) for a in petersen()], [0] * 10) == ([0] * 10, {0: list(range(10))})


def test_entry_points_leave_no_cyclic_garbage():
    # without cycles every labeling's matrices die at return, not at the next gc pass
    from rbdesign import SearchConfig, anneal, automorphism_order, efficiency_spectrum, robustness

    def calls(seed):
        return [lambda: automorphism_order(_relabel(catalog_entry("delta-r-4").design, seed)),
                lambda: efficiency_spectrum(_relabel(catalog_entry("theta-4").design, seed)),
                lambda: robustness(_relabel(catalog_entry("gamma-rc-5").design, seed)),
                lambda: anneal(SearchConfig(r=3, restarts=1, seed=seed, moves_per_temperature=20,
                                            initial_temperature=0.1, min_temperature=2e-2))]

    for call in calls(0):  # first calls may free one-time objects
        call()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls(1):
            gc.collect()
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
