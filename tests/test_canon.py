"""Canonical labeling engine validated against brute force and known groups."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdesign import catalog, catalog_entry, dual, isomorphism
from rbdesign.canon import canonical_labeling, refine
from rbdesign.isomorphism import _incidence_graph


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
    result = canonical_labeling(adj)
    assert result.group.order() == order
    assert result.certificate == _oracle_certificate(adj, result.labeling, [0] * len(adj))


def test_colors_restrict_automorphisms():
    # C4 with one vertex distinguished: only the reflection through it survives
    result = canonical_labeling(cycle(4), [1, 0, 0, 0])
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
    assert canonical_labeling(adj, colors).group.order() == expected


@pytest.mark.parametrize("seed", range(8))
def test_certificates_decide_isomorphism_of_random_relabelings(seed):
    rng = random.Random(100 + seed)
    n = 8
    adj = _random_graph(n, 0.4, rng)
    cert = canonical_labeling(adj).certificate
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = [[] for _ in range(n)]
    for v in range(n):
        for u in adj[v]:
            relabeled[perm[v]].append(perm[u])
    relabeled = [sorted(x) for x in relabeled]
    assert canonical_labeling(relabeled).certificate == cert
    # flipping one edge must change the certificate
    u, v = None, None
    for i in range(n):
        for j in range(i + 1, n):
            if j not in adj[i]:
                u, v = i, j
    if u is not None:
        adj[u].append(v)
        adj[v].append(u)
        assert canonical_labeling(adj).certificate != cert


def test_refinement_is_equitable():
    adj = [set(a) for a in petersen()]
    colors = refine(adj, [0] * 10)
    # vertex-transitive graph: refinement cannot split anything
    assert len(set(colors)) == 1



def _assert_oracle_certificate(adj, colors):
    result = canonical_labeling(adj, colors)
    assert result.certificate == _oracle_certificate(adj, result.labeling, colors)


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
    _assert_oracle_certificate(*graph)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_certificate_matches_bit_loop_on_catalog_incidence_graphs(name):
    design = catalog_entry(name).design
    for d in (design, dual(design)):
        adj, colors, _ = _incidence_graph(d)
        _assert_oracle_certificate(adj, colors)


def test_certificate_matches_bit_loop_on_bond_graphs(monkeypatch, theta8, gamma_rc_8):
    graphs = []

    def spy(adj, colors):
        graphs.append((adj, colors))
        return canonical_labeling(adj, colors)

    monkeypatch.setattr(isomorphism, "canonical_labeling", spy)
    assert isomorphism.concurrence_equivalent(theta8, gamma_rc_8)
    assert [len(adj) for adj, _ in graphs] == [666, 666]  # 36 varieties + 630 pairs
    for adj, colors in graphs:
        _assert_oracle_certificate(adj, colors)
