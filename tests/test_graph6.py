import random
import re

import networkx as nx
import pytest

from cactiq import graph6
from cactiq.cli import main
from cactiq.enumeration import _level, _path_graph, enumerate_cacti
from cactiq.families import build, members
from cactiq.graph import MAX_ORDER, from_edges

from oracles import bitlist_decode, has_edge_graph6, to_networkx


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

    def test_body_edges_at_every_order(self):
        # the packer cuts the body through base64, whose 4-chunk groups are
        # padded: orders 1..64 give every chunk count mod 4, and K_n (every
        # body bit), the edge (0, 1) (the top bit) and the edge
        # (n - 2, n - 1) (the last body bit) set the body's ends
        pads = set()
        for n in range(1, MAX_ORDER + 1):
            graphs = [from_edges(n, [(i, j) for j in range(n)
                                     for i in range(j)])]
            if n >= 2:
                graphs += [from_edges(n, [(0, 1)]),
                           from_edges(n, [(n - 2, n - 1)])]
            for g in graphs:
                ours = graph6.encode(g)
                assert ours == has_edge_graph6(g), (n, g.edges)
                theirs = nx.to_graph6_bytes(to_networkx(g), header=False)
                assert ours.encode("ascii") == theirs.strip(), (n, g.edges)
            pads.add(-(-n * (n - 1) // 12) % 4)
        assert pads == {0, 1, 2, 3}


def _error(decoder, text):
    """The ValueError text decoder raises on text, or None if it decodes."""
    try:
        decoder(text)
    except ValueError as exc:
        return str(exc)
    return None


def _corruptions(n, text):
    """text, of order n, with each body byte set to 62 and to 127, each
    padding bit set, the body one byte short (if it has a byte) and one byte
    long, and, for an order of at most 62, behind the long-form prefix."""
    data, pos = text.encode("ascii"), 1 if n <= 62 else 4
    for at in range(pos, len(data)):
        for byte in (62, 127):
            yield data[:at] + bytes([byte]) + data[at + 1:]
    for bit in range(len(data[pos:]) * 6 - n * (n - 1) // 2):
        yield data[:-1] + bytes([(data[-1] - 63 | 1 << bit) + 63])
    if len(data) > pos:
        yield data[:-1]
    yield data + b"?"
    if n <= 62:
        yield bytes([126, 63, 63, n + 63]) + data[pos:]


class TestDecodeAgainstBitList:
    def test_every_enumerated_string(self):
        count = 0
        for n in range(1, 11):
            level = _level(n)
            for pos, text in enumerate(level.graph6):
                g = graph6.decode(text)
                assert g == _path_graph(n, level.path(pos)), text
                assert g == bitlist_decode(text), text
                count += 1
        assert count == 2866

    def test_every_family_member_and_random_graphs(self):
        rng = random.Random(4)
        graphs = [build(p) for family in ("H", "L")
                  for p in members(family, MAX_ORDER)]
        graphs += [random_graph(rng, rng.randint(1, MAX_ORDER))
                   for _ in range(200)]
        for g in graphs:
            text = graph6.encode(g)
            assert graph6.decode(text) == bitlist_decode(text) == g, text
        assert len(graphs) == 992 + 930 + 200

    def test_corrupted_strings_raise_the_same_errors(self):
        rng = random.Random(5)
        errors = set()
        for n in [*range(1, 13), 31, 62, 63, 64]:
            for bad in _corruptions(n, graph6.encode(random_graph(rng, n))):
                bad = bad.decode("latin-1")
                want = _error(bitlist_decode, bad)
                assert _error(graph6.decode, bad) == want, bad
                errors.add(re.sub(r"\b\d+\b", "N", want))
        assert errors == {"invalid graph6 byte N", "nonzero graph6 padding bits",
                          "graph6 body length N, expected N",
                          "graph6 long-form order prefix used for n = N <= N"}

    def test_order_above_maximum_builds_no_table(self, monkeypatch):
        orders = []
        edge_bits = graph6._edge_bits
        monkeypatch.setattr(graph6, "_edge_bits",
                            lambda n: orders.append(n) or edge_bits(n))
        n = MAX_ORDER + 1
        text = graph6._encode_order(n).decode() + "?" * -(-n * (n - 1) // 12)
        want = f"order {n} exceeds supported maximum {MAX_ORDER}"
        with pytest.raises(ValueError, match=f"^{want}$"):
            graph6.decode(text)
        assert _error(bitlist_decode, text) == want
        assert orders == []
        # a padding bit is refused first, by both decoders
        padded = text[:-1] + "@"
        assert _error(graph6.decode, padded) == \
            _error(bitlist_decode, padded) == "nonzero graph6 padding bits"
        assert orders == []


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
