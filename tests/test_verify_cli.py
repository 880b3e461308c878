import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import random
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from cactiq import (cli, enumeration, families, graph6, polynomials, spectra,
                    verify)
from cactiq.cli import main
from cactiq.enumeration import CactusFilter, classes, enumerate_cacti
from cactiq.graph import from_edges, is_connected
from cactiq.spectra import char_poly, graph_radius, signless_laplacian
from cactiq.transforms import contract_pend, shift_neighbors
from cactiq.verify import (rank_certified, verify_conjecture11_negative,
                           verify_extremal, verify_formulas,
                           verify_monotonicity)
from oracles import (claim_argvs, contract_instance_by_path, perron_targets,
                     rank_by_sort, shift_instance_by_path,
                     subgraph_instance_by_path, subgraph_instance_by_trial)


class TestVerifyExtremal:
    def test_theorem31i_n5(self):
        r = verify_extremal("theorem31i", 5, m=2)
        assert r.passed
        assert r.observed_radius == pytest.approx((7 + math.sqrt(17)) / 2,
                                                  abs=1e-9)
        assert r.details["unique"] and r.details["isomorphic"]

    def test_theorem31i_default_m(self):
        assert verify_extremal("theorem31i", 7).passed

    def test_theorem31ii(self):
        r = verify_extremal("theorem31ii", 8, m=3)
        assert r.passed
        assert r.parameters == {"n": 8, "m": 3}

    def test_theorem31ii_requires_m(self):
        with pytest.raises(ValueError):
            verify_extremal("theorem31ii", 8)

    def test_prop215(self):
        r = verify_extremal("prop215", 6)
        assert r.passed
        assert r.observed_radius == pytest.approx((7 + math.sqrt(33)) / 2,
                                                  abs=1e-9)

    def test_prop213_both_parities(self):
        assert verify_extremal("prop213", 7, k=2).passed  # H family
        assert verify_extremal("prop213", 8, k=2).passed  # L family

    def test_theorem32_range(self):
        for n in range(3, 8):
            r = verify_extremal("theorem32", n)
            assert r.passed, n

    def test_theorem32_agrees_with_best_matching_class(self):
        # the unconstrained maximum must equal the max over matching classes
        n = 7
        overall = verify_extremal("theorem32", n).observed_radius
        per_class = [verify_extremal("theorem31i", n, m=3).observed_radius]
        for m in (1, 2):
            r = verify_extremal("theorem31ii", n, m=m)
            per_class.append(r.observed_radius)
        assert overall == pytest.approx(max(per_class), abs=1e-12)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_extremal("theorem31i", 6, m=2)
        with pytest.raises(ValueError):
            verify_extremal("prop215", 7, m=3)

    @pytest.mark.parametrize("claim, n, m, k, flag", [
        ("theorem32", 5, 1, 3, "m"),
        ("theorem32", 5, None, 3, "k"),
        ("prop213", 7, 2, 2, "m"),
        ("conjecture11_negative", 7, None, 2, "k"),
        ("theorem31i", 7, None, 2, "k"),
        ("theorem31ii", 8, 3, 1, "k"),
        ("prop215", 6, None, 1, "k"),
    ])
    def test_unread_parameter_refused(self, claim, n, m, k, flag):
        # a parameter the claim does not read is refused, not dropped from
        # the report's parameters
        with pytest.raises(ValueError, match=f"^{claim} takes no --{flag}$"):
            verify_extremal(claim, n, m=m, k=k)

    @pytest.mark.parametrize("claim, args, bad", [
        (claim, args, bad) for claim, args in [
            ("theorem31i", {"n": 7}), ("theorem31i", {"n": 7, "m": 3}),
            ("theorem31ii", {"n": 9, "m": 2}), ("theorem32", {"n": 7}),
            ("prop213", {"n": 7, "k": 2}), ("prop215", {"n": 8}),
            ("prop215", {"n": 8, "m": 4}), ("conjecture11_negative", {"n": 7}),
            ("conjecture11_negative", {"n": 7, "m": 3})]
        for bad in args])
    @pytest.mark.parametrize("cast", [str, float])
    def test_inputs_parsed_before_any_rule(self, claim, args, bad, cast):
        # a str or float n, m or k once raised TypeError from the order
        # rule's arithmetic, or blamed a matching the caller never passed
        args = {**args, bad: cast(args[bad])}
        field = {"n": "n", "m": "matching", "k": "pendants"}[bad]
        msg = f"^{re.escape(f'{field} must be an integer, got {args[bad]!r}')}$"
        with pytest.raises(ValueError, match=msg):
            verify_extremal(claim, **args)
        if claim == "conjecture11_negative":
            with pytest.raises(ValueError, match=msg):
                verify_conjecture11_negative(**args)

    def test_numpy_integer_inputs_run(self):
        r = verify_extremal("theorem31ii", np.int64(8), m=np.int64(3))
        assert r.passed and r.parameters == {"n": 8, "m": 3}
        assert r.to_json() == verify_extremal("theorem31ii", 8, m=3).to_json()
        r = verify_conjecture11_negative(np.int32(7), np.int16(3))
        assert r.to_json() == verify_conjecture11_negative(7).to_json()
        assert verify_extremal("prop213", 8, k=np.int64(2)).parameters == \
            {"n": 8, "k": 2}

    def test_unknown_claim_refused_before_parsing(self):
        with pytest.raises(ValueError,
                           match="^unknown extremal claim 'nonsense'$"):
            verify_extremal("nonsense", "x")

    def test_report_json_shape(self):
        r = verify_extremal("theorem31i", 5, m=2)
        d = json.loads(r.to_json())
        assert d["claim"] == "theorem31i"
        assert d["passed"] is True
        assert isinstance(d["predicted_maximizer"], str)
        assert d["details"]["class_size"] == len(
            enumerate_cacti(5, CactusFilter(matching=2)))


def _class_claims(n):
    """(claim, keyword arguments) for the unconstrained class, every matching
    class and every pendant class on n vertices."""
    yield "theorem32", {}
    for m in range(1, n // 2 + 1):
        claim = ("theorem31i" if n == 2 * m + 1 else
                 "prop215" if n == 2 * m else "theorem31ii")
        yield claim, {"m": m}
    for k in range(n):
        yield "prop213", {"k": k}


def _class_reports(max_n):
    out = {}
    for n in range(3, max_n + 1):
        for claim, kw in _class_claims(n):
            key = (claim, n, tuple(kw.items()))
            try:
                out[key] = verify_extremal(claim, n, **kw).to_json()
            except ValueError as exc:  # empty class or no predicted answer
                out[key] = f"error: {exc}"
    return out


@pytest.fixture
def widen(monkeypatch):
    """A call that widens every radius bound `stacked_eigenpairs` returns to
    (-inf, +inf) and empties the order tables, so that they are rebuilt
    with those bounds: every class with a runner-up and every monotonicity
    comparison then goes to exact largest-root comparison.  The tables are
    emptied again after the test."""
    def apply():
        monkeypatch.setattr(spectra, "_bounds", lambda stack, vec, product: (
            np.full(len(vec), -np.inf), np.full(len(vec), np.inf)))
        enumeration._level.cache_clear()

    yield apply
    enumeration._level.cache_clear()


class TestRankCertified:
    def test_widened_bounds_change_nothing(self, monkeypatch, widen):
        # with every bound widened the exact ranking decides every class at
        # n <= 8 that has a runner-up; verdicts and maximizers must not move
        baseline = _class_reports(8)
        calls = []

        def counting(p, q):
            calls.append(1)
            return compare(p, q)

        compare = verify.compare_largest_roots
        widen()
        monkeypatch.setattr(verify, "compare_largest_roots", counting)
        assert _class_reports(8) == baseline
        assert calls

    def test_every_member_ranked_exactly_isolates_each_once(
            self, monkeypatch, capsys, widen):
        # with every bound widened every member of every class is ranked
        # exactly; the CLI must print the certified run's bytes, and each
        # ranked candidate's largest root is estimated once, from the
        # Laguerre-Samuelson bound.  Every comparison is then certified from
        # the estimates: none reads the root bound to isolate a root, and
        # the four that meet equal polynomials (Q-cospectral classes) take
        # no Sturm count over it
        def run_all():
            for argv in claim_argvs(range(3, 8)):
                print("exit", main(argv))
            return capsys.readouterr()

        baseline = run_all()
        bounds, estimates, ranked = [], [], []

        def counting_bound(p):
            bounds.append(p)
            return root_bound(p)

        def counting_estimate(p):
            if p._guess is None:
                estimates.append(p)
            return estimate(p)

        def counting_rank(n, radii, lower, upper, edges):
            ranked.append(len(radii) if len(radii) > 1 else 0)
            return rank(n, radii, lower, upper, edges)

        root_bound, estimate = polynomials.root_bound, polynomials._estimate
        rank = verify.rank_certified
        monkeypatch.setattr(polynomials, "root_bound", counting_bound)
        monkeypatch.setattr(polynomials, "_estimate", counting_estimate)
        monkeypatch.setattr(verify, "rank_certified", counting_rank)
        widen()
        assert run_all() == baseline
        assert sum(ranked) == 348
        assert len(estimates) == 348
        assert not bounds

    def test_real_bounds_reach_sturm_only_at_the_n3_double_root(
            self, monkeypatch, capsys):
        # with the real bounds no claim at n = 3..10 and no monotonicity run
        # compares two largest roots exactly, and the only polynomial that
        # reaches a Sturm chain is the n = 3 family factor with a double top
        # root, h_cubic(3, 2) = x(x - 3)^2, whose radius no certificate
        # covers.  l_quintic(3, 1) = x(x - 1)^2(x - 3)^2 is never solved:
        # no cactus on 3 vertices has one pendant, so prop213 refuses that
        # class before predicting.  Reports and exit codes are pinned
        # elsewhere
        def refuse(p, q):
            raise AssertionError("a run reached exact root comparison")

        def recording(p):
            chained.add(p.coeffs)
            return sturm(p)

        chained, sturm = set(), polynomials.sturm_sequence
        monkeypatch.setattr(verify, "compare_largest_roots", refuse)
        monkeypatch.setattr(polynomials, "sturm_sequence", recording)
        for argv in claim_argvs(range(3, 11)):
            main(argv)
        for seed in ("1", "42"):
            main(["verify", "--claim", "monotonicity", "--trials", "200",
                  "--seed", seed])
        capsys.readouterr()
        assert chained == {families.h_cubic(3, 2).coeffs}

    def test_one_graph_built_per_report(self, monkeypatch, widen):
        # with every bound widened each class at n = 7 with a runner-up is
        # ranked exactly, from its paths' edges in one Q stack; only the
        # maximizer, which the report prints, becomes a Graph
        built, stacks = [], []
        path_graph, polys = verify._path_graph, verify.char_polys

        def counting_graph(n, path):
            built.append(path)
            return path_graph(n, path)

        def counting_polys(stack):
            stacks.append(len(stack))
            return polys(stack)

        widen()
        monkeypatch.setattr(verify, "_path_graph", counting_graph)
        monkeypatch.setattr(verify, "char_polys", counting_polys)
        per_report = []
        for claim, kw in [*_class_claims(7), ("conjecture11_negative", {})]:
            built.clear()
            try:
                verify_extremal(claim, 7, **kw)
            except ValueError:  # empty class or no predicted answer
                continue
            per_report.append(len(built))
        assert per_report == [1] * 12
        # one stack per class with a runner-up, of the whole class (the
        # classes with m = 1 and with k = 6 have one member each)
        assert stacks == [63, 10, 52, 7, 12, 19, 14, 8, 2, 52]

    @pytest.mark.parametrize("widened, exact", [(False, 0), (True, 63)],
                             ids=["certified", "widened"])
    def test_one_pass_equals_sorting_every_candidate(self, widen, widened,
                                                     exact):
        # every claim class at n = 3..10, with the solve's bounds, which
        # certify every maximizer, and with every bound widened, which sends
        # all 63 classes with a runner-up to the exact ranking: the same four
        # values as a stable float sort of the whole class
        if widened:
            widen()
        ranked = 0
        for n in range(3, 11):
            graphs = enumerate_cacti(n)
            radius, _, lower, upper = classes(n).spectra
            for _, kw in _class_claims(n):
                filt = CactusFilter(matching=kw.get("m"), pendants=kw.get("k"))
                positions = list(classes(n).positions(filt))
                if not positions:
                    continue
                radii, lo, up = (a[positions] for a in (radius, lower, upper))
                graph = [graphs[i] for i in positions].__getitem__
                got = rank_certified(n, radii, lo, up,
                                     lambda i: graph(i).edges)
                assert got == rank_by_sort(radii.tolist(), graph, lo.tolist(),
                                           up.tolist()), (n, kw)
                assert all(type(x) in (int, float, bool, type(None))
                           for x in got)
                ranked += int((up >= lo[radii.argmax()]).sum()) > 1
        assert ranked == exact

    @pytest.mark.parametrize("radii, want", [
        ([5.0, 4.0, 4.0], (0, 1)), ([4.0, 5.0, 4.0], (1, 0)),
        ([3.0, 4.0, 4.0, 5.0], (3, 1)), ([2.0, 1.0], (0, 1))])
    def test_runner_up_ties_take_the_lower_index(self, radii, want):
        # with bounds equal to the radii no rival reaches the maximum, so
        # equal floats behind it rank the lower index first, as a stable
        # float sort does, and no edges are read
        def graph(i):
            raise AssertionError("no near set, no edges")
        got = rank_certified(5, radii, radii, radii, graph)
        assert got[:2] == want
        assert got == rank_by_sort(radii, graph, radii, radii)

    def test_true_maximizer_third_in_float_order(self):
        # float noise puts the true maximizer behind two rivals whose bounds
        # overlap the float maximizer's; comparing only the top two would
        # pick the middle one
        pool = sorted(enumerate_cacti(5), key=lambda g: graph_radius(g).radius)
        low, mid, high = pool[0], pool[len(pool) // 2], pool[-1]
        radii = [5.0, 5.0 - 1e-9, 5.0 - 2e-9]
        best, second, gap, tie = rank_certified(
            5, radii, [r - 1e-8 for r in radii], [r + 1e-8 for r in radii],
            [low.edges, mid.edges, high.edges].__getitem__)
        assert (best, second, tie) == (2, 1, False)
        assert gap == pytest.approx(1e-9)

    def test_q_cospectral_pair_is_a_tie(self):
        # an exact tie from the n = 7 class, whose bounds certify neither
        # graph above the other, so the pair reaches the exact comparison;
        # the float-first graph stays the representative in either order
        a, b = graph6.decode("FsOIG"), graph6.decode("FqDGO")
        for graphs in ([a, b], [b, a]):
            radii, _, lower, upper = spectra.stacked_eigenpairs(
                7, 2, [g.edges for g in graphs])
            assert upper[0] >= lower[1] and upper[1] >= lower[0]
            first = 0 if radii[0] >= radii[1] else 1
            edges = [g.edges for g in graphs].__getitem__
            assert rank_certified(7, radii, lower, upper, edges) == \
                (first, 1 - first, 0.0, True)

    def test_singleton_class(self):
        edges = [graph6.decode("Bw").edges].__getitem__
        assert rank_certified(3, [4.0], [4.0], [4.0], edges) == \
            (0, None, None, False)

    def test_char_polys_interleave_orders(self):
        # classes of orders 5, 7 and 6 taken in turn, then every family
        # member of order at most 8: each order is one stack, yet every
        # polynomial comes back in input order, equal to its own graph's
        # char_poly
        graphs = [g for trio in itertools.zip_longest(
            enumerate_cacti(5), enumerate_cacti(7), enumerate_cacti(6))
            for g in trio if g is not None]
        graphs += [families.build(p) for family in ("H", "L")
                   for p in families.members(family, 8)]
        assert {g.order for g in graphs[:3]} == {5, 6, 7}
        got = verify._char_polys([(g.order, g.edges) for g in graphs])
        assert got == [char_poly(signless_laplacian(g)) for g in graphs]
        assert verify._char_polys([]) == []


class TestConjectureNegative:
    def test_exceeded_at_5(self):
        r = verify_conjecture11_negative(5)
        assert r.passed
        want = (7 + math.sqrt(17)) / 2 - (5 + math.sqrt(17)) / 2
        assert r.details["excess"] == pytest.approx(want, abs=1e-9)

    def test_dispatch_through_verify_extremal(self):
        assert verify_extremal("conjecture11_negative", 7).passed

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            verify_conjecture11_negative(6)

    def test_even_n_message(self, capsys):
        assert main(["verify", "--claim", "conjecture11_negative",
                     "--n", "6"]) == 2
        assert capsys.readouterr().err == \
            "error: conjecture11_negative requires n = 2m + 1, got n=6, m=2\n"


class TestFormulas:
    def test_passes_at_default_cap(self):
        r = verify_formulas(24)
        assert r.passed
        assert r.details["identity_failures"] == 0
        assert r.details["identities_checked"] > 200
        # the member list and legacy points of the separate H and L builders
        assert r.details["identities_checked"] == 242
        assert [(m["family"], m["n"], m["k"])
                for m in r.details["legacy_mismatches"]] == \
            [("H", n, 0) for n in range(5, 16, 2)] + \
            [("L", 7, 1), ("L", 8, 2), ("L", 9, 1), ("L", 9, 3), ("L", 10, 2)]
        degrees = {m["first_diff_degree"] for m in r.details["legacy_mismatches"]}
        assert degrees  # every legacy point disagrees somewhere

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            verify_formulas(25)

    def test_one_q_stack_per_order_and_no_graph(self, monkeypatch):
        # each order's members go from their generated edges into one Q
        # stack and one char_polys call; no member is built as a Graph
        def refuse(*args):
            raise AssertionError("check-formulas builds no Graph and no Q")

        banned = (families.build, spectra.signless_laplacian)
        for module in (families, spectra, verify):
            for name, value in list(vars(module).items()):
                if any(value is f for f in banned):
                    monkeypatch.setattr(module, name, refuse)
        orders, polys = [], verify.char_polys

        def counting(stack):
            assert stack.dtype.kind == "i"
            orders.append(stack.shape[1])
            return polys(stack)

        monkeypatch.setattr(verify, "char_polys", counting)
        assert verify_formulas(24).passed
        assert sorted(orders) == list(range(3, 25))

    def test_failures_in_family_s_k_order(self, monkeypatch):
        # members are solved one order at a time, yet failures keep the
        # (family, s, k) order of the member lists
        wrong = polynomials.IntPolynomial([1])
        psi_H, psi_L = verify.psi_H, verify.psi_L
        monkeypatch.setattr(verify, "psi_H", lambda n, k: wrong if k % 3 == 1
                            else psi_H(n, k))
        monkeypatch.setattr(verify, "psi_L", lambda n, k: wrong if n % 4 == 1
                            else psi_L(n, k))
        want = [{"family": p.family, "s": p.s, "k": p.k}
                for family, bad in (("H", lambda p: p.k % 3 == 1),
                                    ("L", lambda p: p.n % 4 == 1))
                for p in verify.members(family, 12) if bad(p)]
        r = verify_formulas(12)
        assert not r.passed
        assert r.counterexamples == want
        assert r.details["identity_failures"] == len(want) == 14


@pytest.mark.parametrize("call, args, field, bad", [
    # a float max_n or trials once raised TypeError, and a float seed ran
    # and was reported as given
    (verify_formulas, (10.0,), "max_n", 10.0),
    (verify_formulas, ("10",), "max_n", "10"),
    (verify_monotonicity, (10.0, 1), "trials", 10.0),
    (verify_monotonicity, (10, 1.5), "seed", 1.5),
    (verify_monotonicity, (10, None), "seed", None),
])
def test_sizes_and_seed_are_integers(call, args, field, bad):
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {bad!r}$"):
        call(*args)


class TestClassSpectra:
    """The per-order table against one `graph_radius` solve per graph."""

    def test_each_order_solved_once(self, monkeypatch):
        # every extremal claim at n = 5..8, cold: one stacked solve per order,
        # of the order's whole class list
        solved = []
        solve = enumeration.stacked_eigenpairs

        def counting(n, count, edge_lists):
            solved.append((n, count))
            return solve(n, count, edge_lists)

        monkeypatch.setattr(enumeration, "stacked_eigenpairs", counting)
        enumeration._level.cache_clear()
        for n in range(5, 9):
            for claim, kw in _class_claims(n):
                try:
                    verify_extremal(claim, n, **kw)
                except ValueError:  # no predicted answer
                    pass
            if n % 2:
                verify_conjecture11_negative(n)
        assert solved == [(n, len(enumerate_cacti(n))) for n in range(5, 9)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_class_radii_equal_graph_radius(self, n):
        graphs = enumerate_cacti(n)
        want = [graph_radius(g).radius for g in graphs]
        filters = [CactusFilter()]
        filters += [CactusFilter(matching=m) for m in range(1, n // 2 + 1)]
        filters += [CactusFilter(pendants=k) for k in range(n + 1)]
        for filt in filters:
            positions = list(classes(n).positions(filt))
            got = classes(n).spectra[0][positions]
            assert [graphs[i] for i in positions] == \
                list(enumerate_cacti(n, filt))
            assert got.tolist() == [want[i] for i in positions]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_perron_rows_equal_graph_radius(self, n):
        _, perron, _, _ = enumeration.classes(n).spectra
        assert [tuple(row) for row in perron.tolist()] == \
            [graph_radius(g).perron for g in enumerate_cacti(n)]


# sha256 of verify_monotonicity(trials, seed).to_json(), recorded when every
# radius was a separate graph_radius call; (200, 7) recorded when each draw
# still built its class's Graph.  A change to the draws' rng stream or to a
# surgery result changes them.
MONOTONICITY_PINS = {
    (200, 42): "ae709192e10a2aca2b9dd4c68db7e78afc91ac8d0d94cbe8e388850f4b67ce61",
    (200, 1): "9b7afa6d74ead7e495d4ffa4f033aeb32d2d8c9fdb6a094d71ce5e1faa1d223d",
    (200, 7): "6d6c8245b8ebef89b69035d4860ad03a58868376bc8ab4554ad079918ffbe962",
    (1000, 1): "5244526ddc5e197b4f7191eba0460a568d9aa2707a2959e05b39e4da3530929c",
}


def _sha(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


# (single-neighbour shifts, contractions) in the move tables of each order:
# every target u of a row of v counts once per neighbour of v that u lacks
# (the same counts as the power-step check, `TestPowerStepLower.SURGERIES`)
MOVE_TABLE_SIZES = {3: (0, 0), 4: (12, 5), 5: (53, 13), 6: (250, 47),
                    7: (1024, 161), 8: (4627, 602)}


def check_move_tables(n):
    """Assert that each class of order n has as its `Surgery` move tables
    the sets the draws' shuffle rule searched, derived from the class's
    path: the shift pairs (v, u), the contractions and the cycle edges,
    these found by deleting each sorted edge and testing connectivity; the
    rows and targets ascending, each once.  Return the (single-neighbour
    shifts, contractions) of the order."""
    level = classes(n)
    perron = level.spectra[1].tolist()
    shifts = contracts = 0
    for pos, c in enumerate(level.surgery):
        edges = sorted(enumeration._path_edges(n, level.path(pos)))
        adj = [{b for a, b in edges if a == v} | {a for a, b in edges if b == v}
               for v in range(n)]
        x = perron[pos]
        pairs = {(v, u) for v in range(n) for u in perron_targets(n, x, v)
                 if adj[v] - adj[u] - {u}}
        rows = [(row[0], list(row[1:])) for row in c.shifts]
        assert [v for v, _ in rows] == sorted({v for v, _ in pairs})
        assert all(us == sorted(set(us)) for _, us in rows)
        assert {(v, u) for v, us in rows for u in us} == pairs
        assert list(c.contracts) == [
            (u, v) for u, v in edges if len(adj[u]) > 1 < len(adj[v])
            and not adj[u] & adj[v]]
        assert list(c.cycle_edges) == [e for e in edges if is_connected(
            from_edges(n, [f for f in edges if f != e]))]
        shifts += sum(len(adj[v] - adj[u] - {u}) for v, u in pairs)
        contracts += len(c.contracts)
    return shifts, contracts


def first_hits(items, admissible) -> Counter:
    """How often each element of items is the first admissible one of a
    permutation of them, over all permutations; None counts those with
    none."""
    return Counter(next((x for x in perm if admissible(x)), None)
                   for perm in itertools.permutations(items))


def assert_uniform(hits, entries):
    """hits (`first_hits`) spread evenly over entries, or all on None when
    there are none."""
    total = sum(hits.values())
    if not entries:
        assert hits == {None: total}
    else:
        assert hits == {e: total // len(entries) for e in entries}


class TestMonotonicity:
    @pytest.mark.parametrize("trials, seed", sorted(MONOTONICITY_PINS))
    def test_pinned_reports(self, trials, seed):
        first = _sha(verify_monotonicity(trials, seed))
        enumeration._level.cache_clear()
        assert _sha(verify_monotonicity(trials, seed)) == first
        assert first == MONOTONICITY_PINS[trials, seed]

    def test_stacked_solves_cold(self, monkeypatch):
        # one solve per radius would take about 1,500 calls
        calls = []
        solve = spectra._top_eigenpairs

        def counting(stack):
            calls.append(len(stack))
            return solve(stack)

        monkeypatch.setattr(spectra, "_top_eigenpairs", counting)
        enumeration._level.cache_clear()
        verify_monotonicity(200, 42)
        assert len(calls) < 30
        # six order tables (n = 3..8) plus the 200 proper subgraphs, no
        # stack larger than a slice: the power step from the class's Perron
        # row certifies every neighbour shift and contraction without a solve
        assert sum(calls) == sum(map(len, map(enumerate_cacti, range(3, 9)))) + 200
        assert max(calls) <= spectra.RADII_SLICE

    def test_violations_in_trial_and_property_order(self, monkeypatch, widen):
        # widened bounds send every comparison to the exact path, and an
        # exact comparison stubbed to a tie makes each one a violation, so
        # the report lists every instance; one graph_radius call per radius
        # is the oracle, and each drawn surgery result is the public
        # surgery's on the class's Graph.  A widened class's upper bound is
        # +inf, so no power-step bound certifies a shift or contraction
        widen()
        monkeypatch.setattr(verify, "compare_largest_roots", lambda p, q: 0)
        monkeypatch.setattr(spectra, "RADII_SLICE", 7)  # several batches
        stepped, step = [], verify.power_step_lower

        def stepping(*args):
            bounds = step(*args)
            stepped.extend(bounds.tolist())
            return bounds

        monkeypatch.setattr(verify, "power_step_lower", stepping)
        got = verify_monotonicity(trials=12, seed=9).counterexamples
        assert len(stepped) == 24 and all(math.isfinite(b) for b in stepped)
        assert len(got) == 36
        rng, want = random.Random(9), []
        for t in range(12):
            c, h, plan = verify._draw_shift_instance(rng)
            g = enumeration._path_graph(c.n, c.path)
            assert h == shift_neighbors(g, *plan)
            want.append({"property": "neighbor_shift", "trial": t,
                         "graph": graph6.encode(g),
                         "before": graph_radius(g).radius,
                         "after": graph_radius(shift_neighbors(g, *plan)).radius})
            c, h, (u, v) = verify._draw_contract_instance(rng)
            g = enumeration._path_graph(c.n, c.path)
            assert h == contract_pend(g, u, v)
            want.append({"property": "contract_pend", "trial": t,
                         "graph": graph6.encode(g),
                         "before": graph_radius(g).radius,
                         "after": graph_radius(contract_pend(g, u, v)).radius})
            c, h = verify._draw_subgraph_instance(rng)
            g = enumeration._path_graph(c.n, c.path)
            want.append({"property": "proper_subgraph", "trial": t,
                         "graph": graph6.encode(g), "sub": graph6.encode(h),
                         "whole": graph_radius(g).radius,
                         "part": graph_radius(h).radius})
        assert got == want

    def test_violations_mixed_orders_equal_graph_radius(self, monkeypatch,
                                                        widen):
        # one stacked solve per order, in slices, yet a batch that
        # interleaves orders n and n - 1 gets its radii in input order, each
        # bitwise its own graph_radius; widened bounds and a tie from every
        # exact comparison make each instance a violation
        widen()
        monkeypatch.setattr(verify, "compare_largest_roots", lambda p, q: 0)
        monkeypatch.setattr(spectra, "RADII_SLICE", 5)
        hs = [h for pair in zip(enumerate_cacti(7), enumerate_cacti(6))
              for h in pair]
        entry = classes(7).surgery[0]
        batch = [("neighbor_shift" if h.order == 7 else "proper_subgraph",
                  t, entry, h) for t, h in enumerate(hs)]
        records = verify._violations(batch)
        assert [r["trial"] for r in records] == list(range(len(hs)))
        got = [r["after"] if "after" in r else r["part"] for r in records]
        assert all(type(q) is float for q in got)
        assert got == [graph_radius(h).radius for h in hs]
        assert {h.order for h in hs[-2:]} == {6, 7}

    def test_uncertified_instance_reaches_exact_comparison(self, monkeypatch):
        # a "surgery result" equal to its class has the class's radius, so
        # the bounds certify neither a rise nor a fall: each such instance
        # goes to the exact comparison, which finds a tie, and a tie is a
        # violation; a true shift beside them is certified
        calls = []
        compare = verify.compare_largest_roots

        def counting(p, q):
            calls.append(p == q)
            return compare(p, q)

        monkeypatch.setattr(verify, "compare_largest_roots", counting)
        c, shifted, _ = verify._draw_shift_instance(random.Random(3))
        g = enumeration._path_graph(c.n, c.path)
        records = verify._violations([
            ("neighbor_shift", 0, c, g), ("neighbor_shift", 1, c, shifted),
            ("proper_subgraph", 2, c, g)])
        assert calls == [True, True]
        q = graph_radius(g).radius
        assert records == [
            {"property": "neighbor_shift", "trial": 0,
             "graph": graph6.encode(g), "before": c.radius, "after": q},
            {"property": "proper_subgraph", "trial": 2,
             "graph": graph6.encode(g), "sub": graph6.encode(g),
             "whole": c.radius, "part": q}]

    @pytest.mark.parametrize("seed", sorted({*range(21), 42, 81, 90}))
    def test_every_comparison_certified(self, monkeypatch, seed):
        # every one of the 600 comparisons is decided by the bounds alone,
        # the neighbour shifts that isolate a vertex among them: each shift
        # and contraction by the power step, so only the 200 proper
        # subgraphs are solved
        def refuse(p, q):
            raise AssertionError("a monotonicity comparison went exact")

        solved, solve = [], verify.stacked_eigenpairs
        monkeypatch.setattr(verify, "compare_largest_roots", refuse)
        monkeypatch.setattr(verify, "stacked_eigenpairs", lambda *args: (
            solved.append(args[1]) or solve(*args)))
        assert verify_monotonicity(200, seed).passed
        assert sum(solved) == 200

    def test_subgraph_draw_equals_edge_trial_oracle(self):
        # the cycle-edge pick against building and testing each edge in turn:
        # the same instance and the same rng stream afterwards
        for seed in range(2000):
            rng, ref = random.Random(seed), random.Random(seed)
            c, h = verify._draw_subgraph_instance(rng)
            assert (c.n, c.path, c.radius, h) == \
                subgraph_instance_by_trial(ref)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("draw, oracle", [
        (verify._draw_shift_instance, shift_instance_by_path),
        (verify._draw_contract_instance, contract_instance_by_path),
        (verify._draw_subgraph_instance, subgraph_instance_by_path)],
        ids=["shift", "contract", "subgraph"])
    def test_draws_equal_per_draw_derivation(self, draw, oracle):
        # the draws read their order's surgery table; deriving each class
        # from its path per draw gives the same instance and leaves the rng
        # in the same state
        for seed in range(2000):
            rng, ref = random.Random(seed), random.Random(seed)
            c, *rest = draw(rng)
            assert (c.n, c.path, c.radius, *rest) == oracle(ref)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", sorted(MOVE_TABLE_SIZES))
    def test_move_tables_are_the_shuffle_rule_supports(self, n):
        assert check_move_tables(n) == MOVE_TABLE_SIZES[n]

    @pytest.mark.parametrize("n", range(3, 7))
    def test_table_draw_has_the_shuffle_law(self, n):
        # the draws picked the first admissible element of a uniform
        # shuffle: a vertex of a shuffled vertex list with a target, then
        # (from a shuffle of its own) a Perron-admissible target that lacks
        # a neighbour of v, or a sorted edge of a shuffled edge list.  Over
        # every permutation each table entry comes first equally often, so
        # a uniform index into the tables (a row, then a target in it) draws
        # with the same law; an empty table is a shuffle that finds nothing
        level = classes(n)
        for c in level.surgery:
            adj, x = c.adj, c.perron

            def moves(v, u):
                return bool(adj[v] - adj[u] - {u})

            def contractible(edge):
                u, v = edge
                return len(adj[u]) > 1 < len(adj[v]) and not adj[u] & adj[v]

            rows = {row[0]: list(row[1:]) for row in c.shifts}
            assert_uniform(first_hits(range(n), lambda v: any(
                moves(v, u) for u in perron_targets(n, x, v))), list(rows))
            for v in range(n):
                assert_uniform(first_hits(perron_targets(n, x, v),
                                          lambda u: moves(v, u)),
                               rows.get(v, []))
            assert_uniform(first_hits(c.edges, contractible), c.contracts)
            graph = enumeration._path_graph(n, c.path)
            bridges = {e for e in graph.edges if not is_connected(
                from_edges(n, graph.edges - {e}))}
            assert_uniform(first_hits(c.edges, lambda e: e not in bridges),
                           c.cycle_edges)

    def test_small_run_passes(self):
        r = verify_monotonicity(trials=30, seed=7)
        assert r.passed
        assert r.details["comparisons"] == 90

    def test_deterministic_given_seed(self):
        a = verify_monotonicity(trials=10, seed=3).to_json()
        b = verify_monotonicity(trials=10, seed=3).to_json()
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            verify_monotonicity(trials=0)


def _report_argvs():
    """Every verify claim but monotonicity at n = 3..10, with --m in
    0..n//2 and --k in 0..n for the claims that read them, then
    check-formulas at its default order."""
    for n in range(3, 11):
        for claim, flags in verify.CLAIM_FLAGS.items():
            if claim == "monotonicity":
                continue
            argv = ["verify", "--claim", claim, "--n", str(n)]
            if "m" in flags:
                yield from (argv + ["--m", str(m)] for m in range(n // 2 + 1))
            elif "k" in flags:
                yield from (argv + ["--k", str(k)] for k in range(n + 1))
            else:
                yield argv
    yield ["check-formulas", "--max-n", "24"]


# sha256 over (argv, exit code, stdout, stderr) of every `_report_argvs` call,
# recorded before `Graph` dropped its per-vertex adjacency; re-recorded when
# prop213 at n = 3, k = 1 (exit 2, an empty class) came to be refused by
# `extremal_answer` before the class lookup, its stderr the only change
REPORTS_PIN = "65a14730c8b2f4a3dc3e0bb2c719c82a3b7b72d1a733ef5473969bf8f91e8455"


def _reports_sha(capsys):
    digest = hashlib.sha256()
    for argv in _report_argvs():
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    return digest.hexdigest()


class TestReportDeterminism:
    def test_byte_identical_reports(self):
        a = verify_extremal("theorem31ii", 8, m=3).to_json()
        b = verify_extremal("theorem31ii", 8, m=3).to_json()
        assert a == b

    def test_pinned_cli_reports(self, capsys):
        assert _reports_sha(capsys) == REPORTS_PIN


def _asdict_line(report):
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


class TestReportLines:
    """`to_json` dumps the report's own fields: the same line as a deep
    copy through `dataclasses.asdict`, nested records included."""

    def test_extremal_and_conjecture_reports(self, monkeypatch):
        reports = [verify_extremal(claim, 7, **kw) for claim, kw in (
            ("theorem31i", {"m": 3}), ("theorem31ii", {"m": 2}),
            ("theorem32", {}), ("prop213", {"k": 2}),
            ("conjecture11_negative", {"m": 3}))]
        reports.append(verify_extremal("prop215", 8, m=4))
        # the predicted member coded as the path P_n, which the maximizer is
        # not, makes the maximizer a counterexample
        monkeypatch.setattr(verify, "_blocks", lambda params: [
            (i, i + 1) for i in reversed(range(params.n - 1))])
        reports.append(verify_extremal("theorem32", 6))
        assert reports[-1].counterexamples
        for r in reports:
            assert r.to_json() == _asdict_line(r)

    def test_formulas_with_failures(self, monkeypatch):
        psi_H = families.psi_H
        monkeypatch.setattr(verify, "psi_H", lambda n, k: psi_H(n, k)
                            if k % 2 else polynomials.IntPolynomial((1,)))
        r = verify_formulas(12)
        assert r.counterexamples and r.details["legacy_mismatches"]
        assert not r.passed and r.to_json() == _asdict_line(r)

    def test_monotonicity_with_violations(self, monkeypatch, widen):
        # widened bounds and a tie from every exact comparison make each of
        # the 60 comparisons a violation
        widen()
        monkeypatch.setattr(verify, "compare_largest_roots", lambda p, q: 0)
        r = verify_monotonicity(20, 1)
        assert len(r.counterexamples) == 60
        assert {"sub", "before"} <= {key for c in r.counterexamples for key in c}
        assert r.to_json() == _asdict_line(r)


class TestCli:
    def test_enumerate_count(self, capsys):
        assert main(["enumerate", "--n", "6", "--format", "count"]) == 0
        assert capsys.readouterr().out.strip() == "23"

    def test_enumerate_graph6_lines(self, capsys):
        assert main(["enumerate", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert len(set(lines)) == 4
        from cactiq import graph6
        assert all(graph6.decode(s).order == 4 for s in lines)

    def test_enumerate_k2_under_two_pendants(self, capsys):
        assert main(["enumerate", "--n", "2", "--pendants", "2"]) == 0
        assert capsys.readouterr().out == "A_\n"

    def test_enumerate_k1_under_matching_zero(self, capsys):
        assert main(["enumerate", "--n", "1", "--matching", "0"]) == 0
        assert capsys.readouterr().out == "@\n"

    @pytest.mark.parametrize("args", [
        ["--n", "15", "--matching", "9"],
        ["--n", "15", "--pendants", "2"],
        ["--n", "1000", "--pendants", "2000", "--format", "count"],
    ])
    def test_enumerate_past_guard_exit_2(self, args, capsys):
        # whether or not some class could meet the filter
        assert main(["enumerate", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: n = {args[1]} exceeds the enumeration guard 14\n"

    @pytest.mark.parametrize("args, flag, value", [
        (["--matching", "-1"], "matching", -1),
        (["--pendants", "-2", "--format", "count"], "pendants", -2),
    ])
    def test_enumerate_negative_filter_exit_2(self, args, flag, value, capsys):
        assert main(["enumerate", "--n", "5", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: {flag} must be nonnegative, got {value}\n"

    @pytest.mark.parametrize("claim, flag", [
        ("theorem31i", "--m"), ("theorem31ii", "--m"), ("prop215", "--m"),
        ("conjecture11_negative", "--m"), ("prop213", "--k"),
    ])
    def test_verify_negative_flag_exit_2(self, claim, flag, capsys):
        assert main(["verify", "--claim", claim, "--n", "8", flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("n", [3, 6])
    def test_prop213_all_pendants_exit_2(self, n, capsys):
        # the filter admits k = n, but no cactus of order >= 3 has n pendants
        assert main(["verify", "--claim", "prop213", "--n", str(n),
                     "--k", str(n)]) == 2
        assert capsys.readouterr().err == \
            f"error: pendant count {n} infeasible for n = {n}\n"

    def test_family_charpoly(self, capsys):
        assert main(["family", "--family", "H", "--s", "2", "--k", "0",
                     "--emit", "charpoly"]) == 0
        out = capsys.readouterr().out.strip()
        # (x-1)(x-3)(x^3-8x^2+15x-8) expanded, ascending coefficients
        assert json.loads(out) == ["-24", "77", "-92", "50", "-12", "1"]

    def test_radius_round_trip(self, capsys):
        assert main(["family", "--family", "H", "--s", "2", "--k", "0"]) == 0
        g6 = capsys.readouterr().out.strip()
        assert main(["radius", "--graph6", g6]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == pytest.approx((7 + math.sqrt(17)) / 2, abs=1e-10)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-12", "0"])
    def test_radius_bad_tol_exit_2(self, tol, capsys):
        # the residual gate is fixed, so any --tol is an argparse usage error
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--graph6", "Bw", f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: --tol={tol}" in captured.err

    def test_charpoly_subcommand(self, capsys):
        assert main(["charpoly", "--graph6", "Bw"]) == 0  # triangle
        assert json.loads(capsys.readouterr().out.strip()) == \
            ["-4", "9", "-6", "1"]

    def test_verify_pass_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        args = ["verify", "--claim", "theorem31i", "--n", "5", "--m", "2",
                "--out", str(out)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert json.loads(lines[0])["passed"] is True

    def test_verify_unwritable_out_exit_2(self, tmp_path, capsys):
        # the report is not printed when it cannot be appended to the file
        out = tmp_path / "missing" / "r.jsonl"
        assert main(["verify", "--claim", "theorem32", "--n", "5",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot append to {out}: " \
            "No such file or directory\n"
        assert not out.parent.exists()

    def test_verify_monotonicity_cli(self, capsys):
        assert main(["verify", "--claim", "monotonicity",
                     "--trials", "5", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_usage_error_exit_2(self, capsys):
        # parity violation surfaces as a usage error on stderr
        code = main(["verify", "--claim", "theorem31i", "--n", "6", "--m", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("claim, base, flag", [
        ("theorem31i", ["--n", "7"], "k"),
        ("theorem31ii", ["--n", "6", "--m", "2"], "k"),
        ("prop215", ["--n", "6"], "k"),
        ("conjecture11_negative", ["--n", "5"], "k"),
        ("theorem32", ["--n", "5"], "k"),
        ("theorem32", ["--n", "5"], "m"),
        ("prop213", ["--n", "7", "--k", "2"], "m"),
        ("monotonicity", ["--trials", "3"], "n"),
        ("monotonicity", ["--trials", "3"], "m"),
        ("monotonicity", ["--trials", "3"], "k"),
        ("theorem31i", ["--n", "7"], "trials"),
        ("theorem31ii", ["--n", "6", "--m", "2"], "seed"),
        ("prop215", ["--n", "6"], "trials"),
        ("conjecture11_negative", ["--n", "5"], "seed"),
        ("theorem32", ["--n", "5", "--seed", "3"], "trials"),
        ("theorem32", ["--n", "5"], "seed"),
        ("prop213", ["--n", "8", "--k", "2"], "seed"),
    ])
    def test_unread_flag_exit_2(self, claim, base, flag, capsys):
        # a flag the claim does not read is refused, not dropped
        assert main(["verify", "--claim", claim, *base, f"--{flag}", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {claim} takes no --{flag}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["--claim", "prop213", "--n", "8", "--k", "2", "--m", "1",
          "--seed", "1"], "m"),
        (["--claim", "theorem32", "--n", "5", "--k", "1", "--trials", "2"],
         "k"),
        (["--claim", "theorem31i", "--n", "6", "--seed", "1"], "seed"),
        (["--claim", "theorem32", "--k", "1"], "k"),
        (["--claim", "theorem31i", "--n", "7"], None),
        (["--claim", "monotonicity", "--trials", "2"], None)])
    def test_flags_checked_once_per_claim(self, argv, flag, monkeypatch,
                                          capsys):
        # one check of all five flags before anything else, by the CLI
        # alone; the first unread flag in the order n, m, k, trials, seed
        # is named, ahead of any other usage error
        calls = []
        refuse = verify.refuse_unread_flags

        def spy(claim, **flags):
            calls.append(flags)
            refuse(claim, **flags)

        monkeypatch.setattr(cli, "refuse_unread_flags", spy)
        monkeypatch.setattr(verify, "refuse_unread_flags", spy)
        code = main(["verify", *argv])
        assert len(calls) == 1 and list(calls[0]) == [
            "n", "m", "k", "trials", "seed"]
        if flag is None:
            assert code == 0
        else:
            assert code == 2
            assert capsys.readouterr().err == \
                f"error: {argv[1]} takes no --{flag}\n"

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_repeated_argv_list_byte_identical(self, capsys):
        # the reused parser and the per-order caches leave no trace between
        # calls: a second pass in the same process prints the same bytes
        argvs = [["enumerate", "--n", "6", "--matching", "2"],
                 ["enumerate", "--n", "6", "--pendants", "3", "--format", "count"],
                 ["verify", "--claim", "theorem31i", "--n", "7"],
                 ["verify", "--claim", "theorem32", "--n", "5", "--m", "1"],
                 ["verify", "--claim", "nonsense", "--n", "5"],
                 ["enumerate", "--n", "6", "--format", "dot"],
                 ["verify", "--claim", "prop213", "--n", "8", "--k", "2"],
                 ["family", "--family", "L", "--s", "2", "--k", "1"],
                 ["charpoly", "--graph6", "Bw"],
                 ["radius", "--graph6", "Bx"],
                 ["check-formulas", "--max-n", "7"]]

        def run_all():
            out = []
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                out.append((captured.out, captured.err, code))
            return out

        first = run_all()
        assert run_all() == first
        assert [code for *_, code in first] == [0, 0, 0, 2, 2, 2, 0, 0, 0, 2, 0]
        assert "invalid choice: 'nonsense'" in first[4][1]

    def test_missing_n_exit_2(self, capsys):
        assert main(["verify", "--claim", "theorem32"]) == 2

    def test_empty_conjecture_class_exit_2(self, capsys):
        assert main(["verify", "--claim", "conjecture11_negative", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n >= 3 required\n"

    def test_check_formulas_cli(self, capsys):
        assert main(["check-formulas", "--max-n", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("max_n", ["2", "0", "-3"])
    def test_check_formulas_below_smallest_member_exit_2(self, max_n, capsys):
        assert main(["check-formulas", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: max_n must be >= 3, the order of "
                                f"H(1, 0), got {max_n}\n")


def test_runs_without_networkx():
    # networkx is a test dependency only: with it blocked, the package
    # imports and the commands that enumerate, rank and solve exactly run
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = """if True:
        import contextlib, io, sys
        sys.modules["networkx"] = None
        from cactiq.cli import main
        for argv in (["enumerate", "--n", "8"],
                     ["verify", "--claim", "theorem32", "--n", "8"],
                     ["charpoly", "--graph6", "C~"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[0], code)
    """
    out = subprocess.run([sys.executable, "-c", script], cwd=src,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == [
        "enumerate 0", "verify 0", "charpoly 0", ""]
