import random

import networkx as nx
import pytest

from cactiq import graph6
from cactiq.cli import main
from cactiq.enumeration import enumerate_cacti
from cactiq.families import build, members
from cactiq.graph import MAX_ORDER, from_edges

from oracles import has_edge_graph6, to_networkx


def random_graph(rng, n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return from_edges(n, [e for e in pairs if rng.random() < 0.5])


def test_known_strings():
    k4 = from_edges(4, [(i, j) for j in range(4) for i in range(j)])
    assert graph6.encode(k4) == "C~"
    assert graph6.decode("C~") == k4


def test_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12))
        assert graph6.decode(graph6.encode(g)) == g


def test_against_networkx():
    rng = random.Random(2)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12))
        ours = graph6.encode(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).strip()
        assert ours.encode("ascii") == theirs
        back = nx.from_graph6_bytes(ours.encode("ascii"))
        assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges))


class TestEncodeAgainstHasEdgeLoop:
    def test_every_class(self):
        count = 0
        for n in range(1, 11):
            for g in enumerate_cacti(n):
                assert graph6.encode(g) == has_edge_graph6(g), g
                count += 1
        assert count == 2866

    def test_every_family_member(self):
        count = 0
        for family in ("H", "L"):
            for p in members(family, MAX_ORDER):
                g = build(p)
                assert graph6.encode(g) == has_edge_graph6(g), p
                count += 1
        assert count == 992 + 930

    def test_random_graphs(self):
        rng = random.Random(3)
        orders = set()
        for _ in range(200):
            n = rng.randint(1, MAX_ORDER)
            g = random_graph(rng, n)
            assert graph6.encode(g) == has_edge_graph6(g), g
            orders.add(n)
        assert {1, 62, 63, 64} <= orders  # both order prefixes


def test_bad_input():
    with pytest.raises(ValueError):
        graph6.decode("")
    with pytest.raises(ValueError):
        graph6.decode("C")  # truncated body


@pytest.mark.parametrize("text", [
    "Bx",     # the triangle 'Bw' with a nonzero padding bit
    "~??BW",  # long-form order prefix for n = 3
    "~?!?",   # long-form prefix byte below the printable range
])
def test_non_canonical_input_rejected(text, capsys):
    with pytest.raises(ValueError):
        graph6.decode(text)
    assert main(["charpoly", "--graph6", text]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, bad", [("\u00e9", "\u00e9"), ("B\u2603", "\u2603")])
def test_non_ascii_input_names_the_character(text, bad, capsys):
    with pytest.raises(ValueError, match=f"^invalid graph6 character '{bad}'$"):
        graph6.decode(text)
    assert main(["radius", "--graph6", text]) == 2
    assert capsys.readouterr().err == f"error: invalid graph6 character '{bad}'\n"


@pytest.mark.parametrize("text", [chr(127) + "?" * 336, ">" + "?" * 5],
                         ids=["byte-127", "byte-62"])
def test_order_byte_outside_short_form_rejected(text, capsys):
    # the short form is 63..126 only; 127 would read as order 64, 62 as -1
    with pytest.raises(ValueError,
                       match="^invalid byte in graph6 order prefix$"):
        graph6.decode(text)
    assert main(["radius", "--graph6", text]) == 2
    assert capsys.readouterr().err == \
        "error: invalid byte in graph6 order prefix\n"


def test_long_form_order_prefix():
    g = from_edges(63, [(i, i + 1) for i in range(62)])
    text = graph6.encode(g)
    assert text.startswith("~??~")
    assert graph6.decode(text) == g
