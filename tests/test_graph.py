import dataclasses
import itertools
import random

import networkx as nx
import numpy as np
import pytest

from cactiq import enumeration, graph6
from cactiq.graph import (Graph, _block_code, _cactus_blocks, _peel,
                          are_isomorphic, block_decomposition, canonical_code,
                          from_edges, is_bundle, is_cactus, is_connected,
                          matching_number, pendant_count)
from cactiq.families import build_H, extremal_answer

from oracles import (all_labeled_graphs, block_tree, brute_isomorphic,
                     brute_matching, cactus_by_definition, check_block_order,
                     extensions, has_edge_graph6, list_block_code,
                     search_code, to_networkx)

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
C3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
S4 = from_edges(4, [(0, 1), (0, 2), (0, 3)])
BOWTIE = from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
DIAMOND = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
K4 = from_edges(4, [(i, j) for j in range(4) for i in range(j)])
NOT_A_CACTUS = "not a cactus"


class TestFromEdges:
    def test_path(self):
        assert P4.order == 4 and P4.size == 3
        assert sorted(map(len, P4.adjacency())) == [1, 1, 2, 2]

    def test_cycle(self):
        assert C3.size == 3
        assert all(len(a) == 2 for a in C3.adjacency())

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            from_edges(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="5"):
            from_edges(3, [(0, 5)])

    def test_duplicates_collapse(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_graph_is_its_order_and_edges(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["order", "edges"]
        assert P4 == Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert hash(P4) == hash((4, P4.edges))
        assert [sorted(a) for a in BOWTIE.adjacency()] == \
            [[1, 2, 3, 4], [0, 2], [0, 1], [0, 4], [0, 3]]
        assert BOWTIE.has_edge(4, 3) and not BOWTIE.has_edge(1, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            P4.order = 5

    @pytest.mark.parametrize("n", [12, 20, 64])
    def test_numpy_indices_become_ints(self, n):
        # NumPy int64 indices once went through unchanged: graph6 then
        # encoded the n = 12 cycle as KxCGGC@?G?o@ and overflowed at n = 20
        idx = np.arange(n, dtype=np.int64)
        g = from_edges(np.int64(n), zip(idx, np.roll(idx, -1)))
        assert g == from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert all(type(x) is int for e in g.edges for x in (g.order, *e))
        assert graph6.encode(g) == has_edge_graph6(g)
        if n == 12:
            assert graph6.encode(g) == "KhCGGC@?G?o@"

    @pytest.mark.parametrize("order, pairs, bad", [
        (3, [(0, 1.0), (1, 2)], r"edge \(0, 1\.0\) is not a pair"),
        (3, [(0, 1), ("1", 2)], r"edge \('1', 2\) is not a pair"),
        (3, [(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair"),
        (3, [0], "edge 0 is not a pair"),
        (3.0, [(0, 1)], "order must be an integer, got 3.0"),
    ])
    def test_non_integer_index_rejected(self, order, pairs, bad):
        with pytest.raises(ValueError, match=bad):
            from_edges(order, pairs)

    def test_handshake(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 9)
            pairs = [(i, j) for j in range(n) for i in range(j)]
            edges = [e for e in pairs if rng.random() < 0.4]
            g = from_edges(n, edges)
            assert sum(map(len, g.adjacency())) == 2 * g.size


class TestCactus:
    def test_single_cycle(self):
        assert is_cactus(C3)

    def test_diamond_not_cactus(self):
        assert not is_cactus(DIAMOND)

    def test_disconnected_not_cactus(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_cactus(g)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_definition(self, n):
        # block-based test vs the literal pairwise-cycle condition
        for g in all_labeled_graphs(n, max_edges=3 * (n - 1) // 2 + 1):
            assert is_cactus(g) == cactus_by_definition(g), g

    def test_matches_definition_n6_sample(self):
        rng = random.Random(5)
        pairs = [(i, j) for j in range(6) for i in range(j)]
        for _ in range(800):
            g = from_edges(6, [e for e in pairs if rng.random() < 0.35])
            assert is_cactus(g) == cactus_by_definition(g), g


class TestBlockDecomposition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_networkx(self, n):
        # every labelled graph, disconnected ones and isolated vertices included
        for g in all_labeled_graphs(n):
            G = to_networkx(g)
            want = {frozenset((min(u, v), max(u, v)) for u, v in comp)
                    for comp in nx.biconnected_component_edges(G)}
            got = block_decomposition(g)
            assert len(got.blocks) == len(want) and set(got.blocks) == want, g
            assert got.cut_vertices == frozenset(nx.articulation_points(G)), g


class TestBundle:
    def test_bowtie(self):
        assert is_bundle(BOWTIE)

    def test_bridge_joined_triangles(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (2, 3)])
        assert is_cactus(g) and not is_bundle(g)

    def test_tree_vacuously(self):
        assert is_bundle(P4)

    def test_non_cactus_rejected(self):
        with pytest.raises(ValueError):
            is_bundle(DIAMOND)


class TestMatching:
    def test_p4(self):
        assert matching_number(P4) == 2

    def test_c3(self):
        assert matching_number(C3) == 1

    def test_h32(self):
        # brute-force over all edge subsets gives 4 for H(3, 2) on 9 vertices
        g = build_H(3, 2)
        assert g.order == 9
        assert matching_number(g) == 4 == brute_matching(g)

    @staticmethod
    def check(g):
        # a cactus against the subset oracle; anything else raises
        if is_cactus(g):
            assert matching_number(g) == brute_matching(g), g
        else:
            with pytest.raises(ValueError, match=NOT_A_CACTUS):
                matching_number(g)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_subset_oracle_exhaustive(self, n):
        for g in all_labeled_graphs(n):
            self.check(g)

    def test_against_subset_oracle_random_n6(self):
        rng = random.Random(11)
        pairs = [(i, j) for j in range(6) for i in range(j)]
        for _ in range(300):
            self.check(from_edges(6, [e for e in pairs if rng.random() < 0.4]))


def _random_cactus(n, rng):
    """Endblocks (pendant edges and cycles of length 3..6) glued at random
    vertices until the order is n, then relabelled."""
    edges, order = [], 1
    while order < n:
        length = rng.choice([2, 2, 3, 3, 4, 5, 6])
        length = min(length, n - order + 1)
        cyc = [rng.randrange(order)] + list(range(order, order + length - 1))
        edges += [(cyc[i - 1], cyc[i]) for i in range(len(cyc))]
        order += length - 1
    return _relabelled(from_edges(n, edges), rng)


class TestCactusMatching:
    """The endblock peel's count against independent oracles."""

    @staticmethod
    def check(g, res, want):
        assert res == want, g

    def test_against_subset_oracle_every_cactus_to_8(self):
        rng = random.Random(8)
        for n in range(1, 9):
            for g in enumeration.enumerate_cacti(n):
                for h in (g, _relabelled(g, rng)):
                    self.check(h, matching_number(h), brute_matching(h))

    def test_against_networkx_every_cactus_to_10(self):
        for n in range(1, 11):
            for g in enumeration.enumerate_cacti(n):
                want = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
                self.check(g, matching_number(g), len(want))

    def test_against_networkx_random_cacti_to_64(self):
        rng = random.Random(64)
        for _ in range(150):
            g = _random_cactus(rng.randrange(11, 65), rng)
            assert is_cactus(g)
            want = nx.max_weight_matching(to_networkx(g), maxcardinality=True)
            self.check(g, matching_number(g), len(want))


class TestPendants:
    def test_star(self):
        assert pendant_count(S4) == 3

    def test_cycle(self):
        assert pendant_count(C3) == 0

    def test_h13(self):
        assert pendant_count(build_H(1, 3)) == 3


class TestCanonicalCode:
    def test_relabeled_path(self):
        other = from_edges(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_code(P4) == canonical_code(other)

    def test_path_vs_star(self):
        assert canonical_code(P4) != canonical_code(S4)

    def test_connected_graphs_on_4(self):
        # P4, the star, C4 and the paw are cacti; K4 and the diamond are not
        connected = [g for g in all_labeled_graphs(4) if is_connected(g)]
        codes = {canonical_code(g).code for g in connected if is_cactus(g)}
        assert len(codes) == 4
        for g in connected:
            if not is_cactus(g):
                assert brute_isomorphic(g, K4) or brute_isomorphic(g, DIAMOND)
                with pytest.raises(ValueError, match=NOT_A_CACTUS):
                    canonical_code(g)

    def test_random_relabelings(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 7)
            pairs = [(i, j) for j in range(n) for i in range(j)]
            g = from_edges(n, [e for e in pairs if rng.random() < 0.45])
            perm = list(range(n))
            rng.shuffle(perm)
            h = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
            if is_cactus(g):
                assert canonical_code(g) == canonical_code(h)
            else:
                with pytest.raises(ValueError, match=NOT_A_CACTUS):
                    canonical_code(h)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_permutation_search(self, n):
        reps = []
        for g in all_labeled_graphs(n):
            if not any(brute_isomorphic(g, r) for r in reps):
                reps.append(g)
        cacti = [g for g in reps if is_cactus(g)]
        codes = [canonical_code(g).code for g in cacti]
        assert len(set(codes)) == len(cacti) > 0
        for g in reps:
            if not is_cactus(g):
                with pytest.raises(ValueError, match=NOT_A_CACTUS):
                    canonical_code(g)

    def test_nonisomorphic_pairs_n6_sample(self):
        # same degree sequence, different structure: C4 with pendant edges at
        # two adjacent vertices vs at two opposite ones
        adjacent = from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)])
        opposite = from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
        assert sorted(map(len, adjacent.adjacency())) == \
            sorted(map(len, opposite.adjacency()))
        assert not brute_isomorphic(adjacent, opposite)
        assert canonical_code(adjacent) != canonical_code(opposite)


def _relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges])


def _from_parent(verts, p, code):
    """The codes of the block verts' children, in cyclic order from its
    parent p, or of all its vertices when p is -1 (the root): what
    `_block_code` reads."""
    if p >= 0:
        i = verts.index(p)
        verts = verts[i + 1:] + verts[:i]
    return [code[v] for v in verts]


def _deep(kind: str, at: int) -> Graph:
    """A cactus of order 63 or 64 with a long path in its vertex-block tree
    or one long cycle: "path", P63 with a pendant at vertex at (P64 at 0 or
    62); "triangles", 30 triangles chained at their vertices 2i, with one
    more triangle at vertex at (31 chained at 60); "cycle", C63 with a
    pendant at vertex at; "cycle2", C62 with pendants at vertices 0 and
    at."""
    if kind == "path":
        edges = [(i, i + 1) for i in range(62)] + [(at, 63)]
    elif kind == "triangles":
        edges = [e for i in range(0, 60, 2)
                 for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
        edges += [(at, 61), (61, 62), (at, 62)]
    elif kind == "cycle":
        edges = [(i, (i + 1) % 63) for i in range(63)] + [(at, 63)]
    else:
        edges = [(i, (i + 1) % 62) for i in range(62)] + [(0, 62), (at, 63)]
    return from_edges(max(v for e in edges for v in e) + 1, edges)


class TestCactusCode:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_dfs_blocks_in_block_order(self, n):
        # the DFS blocks of a relabelled copy of every class of order n are
        # its blocks in the block order that `_peel` reads
        rng = random.Random(n)
        for path in enumeration._level(n).paths:
            h = _relabelled(enumeration._path_graph(n, path), rng)
            check_block_order(h, _cactus_blocks(h))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_peel_centre_against_networkx(self, n):
        # every class of order n, from its path blocks and from the DFS
        # blocks of a relabelled copy: the peel's centre and radius are
        # networkx's centre and its eccentricity in the vertex-block tree,
        # each parent is the neighbour one step nearer the centre, and the
        # children are the other neighbours, a block's in cyclic order from
        # its parent
        rng = random.Random(100 + n)
        for path in enumeration._level(n).paths:
            h = _relabelled(enumeration._path_graph(n, path), rng)
            for blocks in (enumeration._path_blocks(n, path),
                           _cactus_blocks(h)):
                kids, par, _, radius, centre = _peel(n, blocks)
                tree = block_tree(n, blocks)
                assert nx.center(tree) == [centre], (path, blocks)
                assert nx.eccentricity(tree, centre) == radius
                dist = nx.single_source_shortest_path_length(tree, centre)
                assert par[centre] == -1
                for x in tree:
                    up = [par[x]] if x != centre else []
                    if x != centre:
                        assert tree.has_edge(x, par[x])
                        assert dist[par[x]] == dist[x] - 1
                    cyc = [*up, *kids[x]]
                    assert sorted(cyc) == sorted(tree[x])
                    if x >= n:
                        verts = list(blocks[x - n])
                        i = verts.index(cyc[0])
                        assert cyc == verts[i:] + verts[:i]

    def test_deep_cacti_against_networkx(self):
        # P64, 31 chained triangles, C63 with a pendant, and near misses of
        # each of the same order, each relabelled: the path and the chain
        # are re-rooted along a path of up to about n tree nodes from vertex
        # 0, the cycles are coded at a root block of 62 or 63 vertices.
        # Each group has isomorphic pairs and near misses; two codes are
        # equal exactly when networkx finds the graphs isomorphic, and
        # the path recoding of every pendant extension of P63 and of the
        # chain equals the full code of the extension
        rng = random.Random(64)
        groups = [[_deep("path", at) for at in (0, 62, 29, 30, 31, 32)],
                  [_deep("triangles", at) for at in (60, 59, 27, 29, 30, 31)],
                  [_deep("cycle", at) for at in (0, 17, 62)]
                  + [_deep("cycle2", at) for at in (20, 21, 31, 42)]]
        for group in groups:
            graphs = [_relabelled(g, rng) for g in group]
            codes = [canonical_code(g) for g in graphs]
            assert 1 < len(set(codes)) < len(codes)
            for g, code in zip(group, codes):
                assert canonical_code(g) == code
            for i, j in itertools.combinations(range(len(graphs)), 2):
                assert (codes[i] == codes[j]) == \
                    nx.is_isomorphic(to_networkx(graphs[i]),
                                     to_networkx(graphs[j])), (i, j)
        parents = [_relabelled(from_edges(63, [(i, i + 1) for i in range(62)]),
                               rng),
                   _relabelled(_deep("triangles", 60), rng)]
        for g in parents:
            assert list(enumeration._child_codes(
                63, _cactus_blocks(g), 64, range(63))) == \
                list(enumerate(canonical_code(c).code
                               for c in extensions(g, 64)))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_same_partition_as_search(self, n):
        # the tree code and the refinement search oracle split every
        # extension candidate of order n into the same classes
        cands = [child for size in range(1, n)
                 for path in enumeration._level(size).paths
                 for child in extensions(enumeration._path_graph(size, path),
                                         n)]
        fast, slow = {}, {}
        for i, g in enumerate(cands):
            a = fast.setdefault(canonical_code(g).code, i)
            b = slow.setdefault(search_code(g), i)
            assert a == b, g

    def test_extremal_maximizers_to_order_64(self):
        rng = random.Random(64)
        orders = range(11, 65)
        graphs = [extremal_answer(n).maximizer for n in orders]
        assert build_H(31, 1) in graphs
        for g in graphs:
            assert canonical_code(g) == canonical_code(_relabelled(g, rng))

    def test_distinct_hubs_of_triangles(self):
        codes = {canonical_code(build_H(s, k)).code
                 for s in range(1, 8) for k in range(0, 8)}
        assert len(codes) == 7 * 8

    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_code_equals_list_comparison(self, n):
        # every block of every class of order n, under each of its vertices
        # (its parent among them) and as the root, over the child codes of
        # the class's centre-rooted peel
        blocks = 0
        for path in enumeration._level(n).paths:
            path_blocks = enumeration._path_blocks(n, path)
            code = _peel(n, path_blocks)[2]
            for verts in path_blocks:
                for p in (-1, *verts):
                    assert _block_code(_from_parent(verts, p, code), p < 0) \
                        == list_block_code(verts, p, code), (path, verts, p)
                blocks += 1
        assert (blocks > 0) == (n > 1)

    def test_block_code_of_random_code_sequences(self):
        # seeded sequences of balanced codes drawn from a small pool, so
        # that children repeat and some sequences are periodic, under every
        # rotation and reflection: the root code is the same for all of
        # them, and every code equals the list-comparison one
        rng = random.Random(30)

        def balanced(depth):
            kids = [balanced(depth - 1)
                    for _ in range(rng.randint(0, 3) if depth else 0)]
            left, right = rng.choice((b"()", b"[]"))
            return bytes([left]) + b"".join(kids) + bytes([right])

        for _ in range(300):
            pool = [balanced(rng.randint(0, 3))
                    for _ in range(rng.randint(1, 3))]
            base = [rng.choice(pool) for _ in range(rng.randint(2, 8))]
            period = rng.randint(1, len(base))
            base = (base[:period] * len(base))[:len(base)]
            verts = list(range(len(base)))
            roots = set()
            for seq in (base, base[::-1]):
                for r in range(len(seq)):
                    code = seq[r:] + seq[:r]
                    for p in (-1, *verts):
                        got = _block_code(_from_parent(verts, p, code), p < 0)
                        assert got == list_block_code(verts, p, code), \
                            (code, p)
                    roots.add(_block_code(code, True))
            assert len(roots) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_non_cactus_raises(self, n):
        others = 0
        for g in all_labeled_graphs(n):
            if is_cactus(g):
                canonical_code(g)
                continue
            others += 1
            with pytest.raises(ValueError, match=NOT_A_CACTUS):
                canonical_code(g)
        assert others


def _hypercube(d):
    return from_edges(1 << d, [(v, v ^ 1 << i) for v in range(1 << d)
                               for i in range(d)])


class TestNonCactusRejected:
    """No super-polynomial path is left: every cactus-only entry point
    rejects these at once, saying why."""

    CASES = [
        # Q4 is 2-connected, so its one block is all 16 vertices
        ("q4", _hypercube(4), r"block on vertices \[0, 1, 2, .*, 15\] is"),
        ("six_triangles", from_edges(18, [(3 * t + i, 3 * t + (i + 1) % 3)
                                          for t in range(6) for i in range(3)]),
         "disconnected"),
        ("k64", from_edges(64, [(i, j) for j in range(64) for i in range(j)]),
         r"block on vertices \[0, 1, 2, .*, 63\] is"),
        ("diamond", DIAMOND, r"block on vertices \[0, 1, 2, 3\] is"),
    ]

    @pytest.mark.parametrize("g, why", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("call", [
        canonical_code, matching_number, is_bundle,
        lambda g: are_isomorphic(g, g),
    ], ids=["canonical_code", "matching_number", "is_bundle", "are_isomorphic"])
    def test_raises_naming_the_fault(self, call, g, why):
        with pytest.raises(ValueError, match=NOT_A_CACTUS + ".*" + why):
            call(g)
