import hashlib
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import chain

import numpy as np
import pytest

from cactiq import enumeration, graph6
from cactiq.cli import main
from cactiq.enumeration import (MAX_N, CactusFilter, classes, count_cacti,
                                enumerate_cacti)
from cactiq.families import build_H
from cactiq.graph import (_cactus_blocks, _cactus_code, _peel, _peel_matching,
                          are_isomorphic, canonical_code, from_edges,
                          is_cactus, matching_number, pendant_count)
from cactiq.spectra import stacked_eigenpairs

from oracles import (attach_scan, cactus_counts, check_block_order,
                     extensions, oracle_cacti, scanned_level,
                     scanned_positions)

# counts of non-isomorphic cacti on n vertices (trees included)
KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 63, 8: 188, 9: 596,
                10: 1979}

# Harary & Uhlenbeck, PNAS 39 (1953); OEIS A000083, n = 1..16.
HARARY_UHLENBECK = [1, 1, 2, 4, 9, 23, 63, 188, 596, 1979, 6804, 24118,
                    87379, 322652, 1209808, 4596158]


def found(n):
    """The Graphs of the classes of order n in discovery order, each built
    from its path."""
    return [enumeration._path_graph(n, path)
            for path in enumeration._level(n).paths]


class TestCounts:
    @pytest.mark.parametrize("n,want", sorted(KNOWN_COUNTS.items()))
    def test_known_sequence(self, n, want):
        assert count_cacti(n) == want

    def test_counting_oracle_sequence(self):
        assert cactus_counts(16) == HARARY_UHLENBECK

    def test_enumeration_matches_counting_oracle(self):
        assert [count_cacti(n) for n in range(1, 11)] == cactus_counts(10)

    def test_level_past_guard_matches_counting_oracle(self):
        # _level has no guard; n = 11 runs in about a second
        assert len(enumeration._level(11).paths) == cactus_counts(11)[-1]

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_cacti(MAX_N + 1)
        with pytest.raises(ValueError):
            enumerate_cacti(0)


class TestOutputProperties:
    def test_all_are_cacti(self):
        for n in range(1, 8):
            for g in enumerate_cacti(n):
                assert g.order == n and is_cactus(g)

    def test_sorted_and_distinct_codes(self):
        for n in range(1, 8):
            codes = [canonical_code(g).code for g in enumerate_cacti(n)]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_deterministic(self):
        a = enumerate_cacti(6)
        b = enumerate_cacti(6)
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_graph6_lines_pinned(self):
        # every representative and its labelling, as `enumerate --n 1..10`
        # prints them, fixed since the block-cut-tree canonical form
        lines = "".join(graph6.encode(g) + "\n"
                        for n in range(1, 11) for g in enumerate_cacti(n))
        assert lines.count("\n") == sum(KNOWN_COUNTS.values())
        assert hashlib.sha256(lines.encode("ascii")).hexdigest() == \
            "b357b55604f0cc6967db596ed286a78c0976f2aea51259bf219f9b36a2358a33"


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_and_duplicate_free(self, n):
        got = enumerate_cacti(n)
        want = oracle_cacti(n)
        assert len(got) == len(want)
        assert [canonical_code(g).code for g in got] == \
            sorted(canonical_code(g).code for g in want)


class TestFilters:
    def test_matching_one(self):
        # matching number 1 on 5 vertices: only the star
        got = enumerate_cacti(5, CactusFilter(matching=1))
        assert len(got) == 1
        assert pendant_count(got[0]) == 4

    def test_n5_matching_2_contains_extremal_candidates(self):
        got = enumerate_cacti(5, CactusFilter(matching=2))
        assert any(are_isomorphic(g, build_H(2, 0)) for g in got)
        assert any(are_isomorphic(g, build_H(1, 2)) for g in got)

    def test_filter_soundness(self):
        for g in enumerate_cacti(6, CactusFilter(matching=2, pendants=3)):
            assert matching_number(g) == 2
            assert pendant_count(g) == 3

    def test_infeasible_filter_empty(self):
        assert enumerate_cacti(5, CactusFilter(matching=9)) == ()
        assert enumerate_cacti(5, CactusFilter(pendants=7)) == ()
        assert classes(5).positions(CactusFilter(matching=9)) == ()

    def test_negative_filter_rejected(self):
        with pytest.raises(ValueError, match="matching must be nonnegative"):
            CactusFilter(matching=-1)
        with pytest.raises(ValueError, match="pendants must be nonnegative"):
            CactusFilter(matching=2, pendants=-2)
        assert CactusFilter(matching=0, pendants=0).admits(0, 0)

    def test_filter_fields_are_integers(self):
        assert CactusFilter(np.int64(2), True) == CactusFilter(2, 1)
        assert type(CactusFilter(np.int64(2)).matching) is int
        assert count_cacti(5, CactusFilter(matching=np.int32(1))) == 1
        for field, bad in (("matching", 1.5), ("pendants", "2"),
                           ("pendants", 2.0)):
            with pytest.raises(ValueError,
                               match=f"^{field} must be an integer, got {bad!r}$"):
                CactusFilter(**{field: bad})

    @pytest.mark.parametrize("call", [classes, enumerate_cacti, count_cacti])
    @pytest.mark.parametrize("bad", [5.0, "5", 5.5])
    def test_order_is_an_integer(self, call, bad):
        # a float order once raised TypeError from inside the enumeration
        assert call(np.int64(5)) == call(5)
        with pytest.raises(ValueError,
                           match=f"^n must be an integer, got {bad!r}$"):
            call(bad)

    @pytest.mark.parametrize("n", [1, 6, 9])
    def test_positions_index_the_full_list(self, n):
        graphs = enumerate_cacti(n)
        assert classes(n).positions() == range(len(graphs))
        for filt in ([CactusFilter(matching=m) for m in range(1, n // 2 + 1)]
                     + [CactusFilter(pendants=k) for k in range(n + 1)]):
            positions = classes(n).positions(filt)
            assert list(positions) == sorted(set(positions))
            assert tuple(graphs[i] for i in positions) == \
                enumerate_cacti(n, filt)
            assert all(matching_number(graphs[i]) == filt.matching
                       or pendant_count(graphs[i]) == filt.pendants
                       for i in positions)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_positions_equal_a_scan_of_every_class(self, n):
        # matching values 0..n/2+1 and pendant values 0..n+1, alone and in
        # every pair, possible or not, against a scan of every class; the
        # count reads the same positions.  A value of -1 is refused.
        ms, ks = range(0, n // 2 + 2), range(0, n + 2)
        for bad in ({"matching": -1}, {"pendants": -1},
                    {"matching": -1, "pendants": -1}):
            with pytest.raises(ValueError, match="must be nonnegative"):
                CactusFilter(**bad)
        filters = ([CactusFilter(matching=m) for m in ms]
                   + [CactusFilter(pendants=k) for k in ks]
                   + [CactusFilter(matching=m, pendants=k) for m in ms for k in ks])
        for filt in filters:
            positions = classes(n).positions(filt)
            assert type(positions) is tuple
            assert positions == scanned_positions(n, filt), filt
            assert count_cacti(n, filt) == len(positions)

    # Over every feasible value a filter picks each class exactly once.
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matching_partition_identity(self, n):
        picked = Counter(g for m in range(1, n // 2 + 1)
                         for g in enumerate_cacti(n, CactusFilter(matching=m)))
        assert picked == Counter(enumerate_cacti(n))
        assert sum(picked.values()) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_pendant_partition_identity(self, n):
        picked = Counter(g for k in range(0, n + 1)
                         for g in enumerate_cacti(n, CactusFilter(pendants=k)))
        assert picked == Counter(enumerate_cacti(n))
        assert sum(picked.values()) == KNOWN_COUNTS[n]


class TestExtensions:
    def test_children_equal_from_edges_build(self):
        for n in range(2, 9):
            for size in range(1, n):
                for g in found(size):
                    want = []
                    for v in range(g.order):
                        cyc = [v] + list(range(g.order, n))
                        want.append(from_edges(n, list(g.edges) + [
                            (cyc[i - 1], cyc[i]) for i in range(len(cyc))]))
                    assert list(extensions(g, n)) == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_block_list_codes_equal_canonical_code(self, n):
        for size in range(1, n):
            for g in found(size):
                assert list(enumeration._child_codes(
                    size, _cactus_blocks(g), n, range(size))) == \
                    list(enumerate(canonical_code(c).code
                                   for c in extensions(g, n)))

    def test_path_recoding_equals_full_code_at_11(self):
        # every candidate of order 11, coded in full from its block list
        # (no child Graph is built) against the path recoding; the new
        # block goes first, as `_path_blocks` orders the newest block, so
        # the list stays a DFS post-order from vertex 0
        for size in range(1, 11):
            path = list(range(size, 11))
            for g in found(size):
                blocks = _cactus_blocks(g)
                assert list(enumeration._child_codes(
                    size, blocks, 11, range(size))) == \
                    [(v, _cactus_code(11, [[v, *path]] + blocks))
                     for v in range(size)]

    @pytest.mark.parametrize("order, edges, n, v, centres", [
        (1, [], 3, 0, ("vertex", "block")),
        (3, [(0, 1), (1, 2)], 4, 1, ("vertex", "vertex")),
        (3, [(0, 1), (1, 2)], 4, 0, ("vertex", "block")),
        (3, [(0, 1), (1, 2), (0, 2)], 5, 0, ("block", "vertex")),
    ], ids=["order-1-parent", "v-is-vertex-centre", "centre-vertex-to-block",
            "centre-block-to-vertex"])
    def test_centre_rule(self, order, edges, n, v, centres):
        # one case per branch of the centre rule: the parent's and the
        # child's centre kinds show which branch the child takes
        def kind(h):
            centre = _peel(h.order, _cactus_blocks(h))[-1]
            return "vertex" if centre < h.order else "block"
        g = from_edges(order, edges)
        child = list(extensions(g, n))[v]
        assert (kind(g), kind(child)) == centres
        assert dict(enumeration._child_codes(
            order, _cactus_blocks(g), n, range(order)))[v] == \
            canonical_code(child).code

    @pytest.mark.parametrize("n", range(2, 11))
    def test_dropped_points_give_classes_already_seen(self, n):
        # a scan that fully codes every candidate in the order of `_level`:
        # each point `_scan_points` drops gives a code seen before it; the
        # points `_attach_points` drops are the same from the path blocks
        # or from the DFS blocks, and the path rule keeps a tail of the rest
        seen, dropped, by_path = set(), 0, 0
        for size in range(1, n):
            for g, path in zip(found(size), enumeration._level(size).paths):
                blocks = enumeration._path_blocks(size, path)
                kept = enumeration._attach_points(size, blocks, n - size)
                assert kept == enumeration._attach_points(
                    size, _cactus_blocks(g), n - size)
                assert kept == sorted(set(kept))
                points = enumeration._scan_points(size, path, blocks, n)
                assert points == kept[len(kept) - len(points):]
                for v, child in enumerate(extensions(g, n)):
                    code = canonical_code(child).code
                    if v not in points:
                        assert code in seen, (g, v)
                        dropped += v not in kept
                        by_path += v in kept
                    seen.add(code)
        assert len(seen) == KNOWN_COUNTS[n]
        # of 1, 3, 9, ..., 2153 and 7517 candidates
        assert dropped == [0, 1, 4, 10, 28, 75, 245, 835, 3098][n - 2]
        assert by_path == [0, 0, 0, 1, 5, 26, 100, 392, 1493][n - 2]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_path_rule_drops_only_earlier_classes(self, n):
        # the path rule's proof, step by step: for a parent P = Q + block
        # at a of order s (its path ends in (a, f)) and a new block as big
        # as P's newest, and for every v < a, P' = Q + block at v is a
        # class of order s found before P, and P + block at v is
        # isomorphic to P' + block at a
        checked = 0
        for size in range(n // 2 + 1, n):
            first = {canonical_code(g).code: i
                     for i, g in enumerate(found(size))}
            for i, (g, path) in enumerate(zip(
                    found(size), enumeration._level(size).paths)):
                a, f = path[-2:]
                if size - f != n - size:
                    continue
                q = enumeration._path_graph(f, path[:-2])
                children = list(extensions(g, n))
                for v, moved in zip(range(a), extensions(q, size)):
                    assert first[canonical_code(moved).code] < i, (g, v)
                    assert canonical_code(list(extensions(moved, n))[a]) == \
                        canonical_code(children[v])
                    checked += 1
        # every such v is one the path rule drops (the counts of the test
        # above): `_attach_points` keeps them all
        assert checked == [0, 0, 1, 5, 26, 100, 392, 1493][n - 3]

    def test_coded_candidates(self):
        # the points `_level` codes at orders 9, 10 and 11 (every output
        # byte is the same without the path rule, so only these counts
        # show that it is applied)
        def coded(n):
            return sum(len(enumeration._scan_points(
                size, path, enumeration._path_blocks(size, path), n))
                for size in range(1, n)
                for path in enumeration._level(size).paths)
        assert [coded(n) for n in (9, 10, 11)] == [926, 2926, 9734]

    @pytest.mark.parametrize("n", range(1, 12))
    def test_scan_equals_attach_points_scan(self, n):
        # the paths of every level, in order, against a scan without the
        # path rule over its own smaller levels
        @lru_cache(maxsize=None)
        def reference(size):
            return tuple(attach_scan(size, reference).values())
        assert enumeration._level(n).paths == reference(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_first_found_representatives(self, n):
        # each level's Graphs, built from their paths, against a scan that
        # builds and fully codes every candidate of the smaller levels,
        # checked at their own n
        want = scanned_level(n, found)
        assert found(n) == list(want.values())
        assert enumerate_cacti(n) == \
            tuple(want[code] for code in sorted(want))
        assert len(want) == KNOWN_COUNTS[n]


class TestPaths:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_path_blocks_are_the_blocks(self, n):
        # each class's path blocks are its DFS blocks as vertex sets, each
        # a closed walk of its edges in the order given, in the block order
        # that `_peel` and `_peel_matching` read, and the matching peel over
        # them counts its matching number; the (matching number, pendant
        # count) pair that `groups` reads off them is the class's
        level = enumeration._level(n)
        for g, path in zip(found(n), level.paths):
            blocks = enumeration._path_blocks(n, path)
            check_block_order(g, blocks)
            assert Counter(map(frozenset, blocks)) == \
                Counter(map(frozenset, _cactus_blocks(g)))
            assert all(g.has_edge(b[i - 1], b[i])
                       for b in blocks for i in range(len(b)))
            assert _peel_matching(n, blocks) == matching_number(g)
        pair = {pos: inv for inv, group in level.groups.items()
                for pos in group}
        assert [pair[pos] for pos in range(len(level.paths))] == \
            [(matching_number(g), pendant_count(g))
             for g in enumerate_cacti(n)]

    @pytest.mark.parametrize("n,path", [
        (1, b""),  # K1
        (2, bytes((0, 1))),  # K2: both ends pendants
        (3, bytes((0, 1, 1, 2))),  # vertex 0 in one edge block, not v = 0
        (3, bytes((0, 1, 0, 2))),  # vertex 0 in two edge blocks
        (5, bytes((0, 1, 0, 3, 3, 4))),  # a pendant hung on a pendant
        (6, bytes((0, 1, 0, 4, 2, 5))),  # C4, pendants at 0 and 2
        (7, bytes((0, 1, 1, 4, 3, 5, 5, 6))),  # C4, a path of two at 3
        (8, bytes((0, 1, 1, 3, 1, 4, 2, 6, 0, 7))),  # triangle, hung cycles
    ], ids=["K1", "K2", "path-at-1", "star", "pendant-on-pendant",
            "cycle-pendants", "cycle-path", "cycles-and-pendants"])
    def test_path_group_of_hand_built_paths(self, n, path):
        # paths the scan never emits, so the pendant rule is not read
        # only where `_attach_points` chose v = 0
        g = enumeration._path_graph(n, path)
        assert is_cactus(g)
        assert enumeration._path_group(n, path) == \
            (matching_number(g), pendant_count(g))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_graph6_read_off_the_paths(self, n):
        # each class's string, packed from its path, is its Graph's
        level = enumeration._level(n)
        assert level.graph6 == tuple(map(graph6.encode, enumerate_cacti(n)))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_enumerate_prints_the_graph_route(self, warm, capsys):
        # `enumerate` at n = 9 prints, for every matching number 0..5 and
        # pendant count 0..9, possible or not, the lines that encoding each
        # Graph of `enumerate_cacti` gives; a filter no class meets prints
        # nothing.  Cold, each call starts from empty tables; warm, after a
        # full list.
        filters = ([("--matching", m) for m in range(6)]
                   + [("--pendants", k) for k in range(10)])
        empty = 0
        for flag, value in filters:
            enumeration._level.cache_clear()
            if warm:
                assert main(["enumerate", "--n", "9"]) == 0
                assert capsys.readouterr().out == "".join(
                    graph6.encode(g) + "\n" for g in enumerate_cacti(9))
            assert main(["enumerate", "--n", "9", flag, str(value)]) == 0
            filt = CactusFilter(**{flag[2:]: value})
            want = "".join(graph6.encode(g) + "\n"
                           for g in enumerate_cacti(9, filt))
            assert capsys.readouterr().out == want, (flag, value)
            empty += not want
        # matching numbers 0 and 5 and pendant count 9
        assert empty == 3

    @pytest.mark.parametrize("n", range(1, 11))
    def test_path_edges_list_each_edge_once(self, n):
        # each class's edge list is its Graph's edge set as a list, with no
        # pendant edge listed twice: the closed walks of its path blocks,
        # one edge per pendant block and one per cycle vertex
        for path in enumeration._level(n).paths:
            edges = enumeration._path_edges(n, path)
            assert len(set(edges)) == len(edges)
            assert frozenset(edges) == enumeration._path_graph(n, path).edges
            blocks = enumeration._path_blocks(n, path)
            assert set(edges) == {tuple(sorted(e)) for b in blocks
                                  for e in zip(b, b[1:] + b[:1])}
            assert len(edges) == sum(len(b) if len(b) > 2 else 1
                                     for b in blocks)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_spectra_equal_eigenpairs_of_the_graphs(self, n):
        # the table's radii, Perron rows and radius bounds, solved from the
        # paths' edge lists, bit for bit those of the Graphs in
        # canonical-code order
        got = enumeration._level(n).spectra
        graphs = enumerate_cacti(n)
        want = stacked_eigenpairs(n, len(graphs), (g.edges for g in graphs))
        assert len(got) == len(want) == 4
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_codes_read_off_the_paths(self, n):
        # each class's code from its path blocks, as `verify_extremal` reads
        # the maximizer's, is the code of its Graph's block DFS
        for path in enumeration._level(n).paths:
            assert _cactus_code(n, enumeration._path_blocks(n, path)) == \
                canonical_code(enumeration._path_graph(n, path)).code

    @pytest.mark.parametrize("n", range(3, 9))
    def test_surgery_table_equals_per_draw_derivation(self, n):
        # each entry is what a monotonicity draw derived from the class's
        # path before the table, and its radius, radius bounds and Perron
        # row are the order's spectra bit for bit
        level = enumeration._level(n)
        radius, perron, lower, upper = level.spectra
        assert len(level.surgery) == KNOWN_COUNTS[n]
        for pos, entry in enumerate(level.surgery):
            path = level.path(pos)
            edges = enumeration._path_edges(n, path)
            adj = [set() for _ in range(n)]
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            blocks = enumeration._path_blocks(n, path)
            count = enumeration._block_counts(n, blocks)
            assert (entry.n, entry.path) == (n, path)
            assert entry.edges == tuple(edges)
            assert entry.sorted_edges == tuple(sorted(edges))
            assert list(entry.adj) == adj
            assert entry.bridges == {tuple(b) for b in blocks if len(b) == 2}
            assert list(entry.ends) == [v for v in range(n) if count[v] == 1]
            assert type(entry.radius) is float
            assert entry.radius.hex() == float(radius[pos]).hex()
            assert entry.lower.hex() == float(lower[pos]).hex()
            assert entry.upper.hex() == float(upper[pos]).hex()
            assert np.array(entry.perron).tobytes() == perron[pos].tobytes()

    def test_graphs_share_the_edge_table(self):
        # every edge of every class is the one tuple of the shared table
        for n in range(1, 11):
            for g in enumerate_cacti(n):
                assert all(e is enumeration._EDGES[e[0]][e[1]]
                           for e in g.edges)


class TestInvariantTable:
    def test_rebuilt_table_equals_cached(self):
        orders = range(1, 11)
        cached = [enumeration._level(n) for n in orders]
        for level in cached:
            _ = level.groups, level.spectra  # fill both cached parts
        enumeration._level.cache_clear()
        for n, old in zip(orders, cached):
            new = enumeration._level(n)
            assert new is not old
            assert (new.paths, new._order) == (old.paths, old._order)
            assert new.groups == old.groups
            assert all(np.array_equal(a, b)
                       for a, b in zip(new.spectra, old.spectra))
            # the groups' positions are each class of the order exactly once
            assert sorted(chain.from_iterable(new.groups.values())) == \
                list(range(KNOWN_COUNTS[n]))

    def test_surgery_table_dies_with_its_level(self):
        old = enumeration._level(6)
        table = old.surgery
        assert old.surgery is table
        enumeration._level.cache_clear()
        new = enumeration._level(6)
        assert "surgery" not in vars(new)
        assert new.surgery is not table
        assert new.surgery == table

    def test_cold_tables_hold_paths_only(self):
        # a class is its build path, and no Graph is built: orders 1..10
        # built cold allocate 0.47 MB at peak
        enumeration._level.cache_clear()
        tracemalloc.start()
        try:
            for n in range(1, 11):
                enumeration._level(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_unfiltered_enumeration_builds_no_table(self):
        enumeration._level.cache_clear()
        enumerate_cacti(7)
        count_cacti(8)
        for n in (7, 8):
            filled = vars(enumeration._level(n))
            assert not {"groups", "spectra", "surgery"} & set(filled)

    def test_counts_and_filters_build_no_graph(self, monkeypatch, capsys):
        # a count or the `enumerate` command in either format, filtered or
        # not, builds no Graph; a list builds only its own classes' Graphs,
        # each once
        enumeration._level.cache_clear()
        built = []
        graph = enumeration.Graph
        monkeypatch.setattr(enumeration, "Graph",
                            lambda *args: built.append(args) or graph(*args))
        count_cacti(11)
        for fmt in ("graph6", "count"):
            for extra in ([], ["--matching", "4"], ["--pendants", "3"],
                          ["--matching", "0"]):
                for n in (1, 9, 11):
                    assert main(["enumerate", "--n", str(n), "--format", fmt,
                                 *extra]) == 0
        assert capsys.readouterr().out
        assert built == []
        assert len(enumerate_cacti(9, CactusFilter(matching=4))) == len(built)
        built.clear()
        enumerate_cacti(9)
        assert len(built) == KNOWN_COUNTS[9]
