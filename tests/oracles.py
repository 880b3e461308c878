"""Independent brute-force oracles used only by tests.

Everything here is deliberately naive: subset enumeration, permutation
search, exhaustive cycle listing.  None of it shares code paths with the
library routines it checks.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

import networkx as nx
import numpy as np

from cactiq.enumeration import (_attach_points, _child_codes, _path_blocks,
                                enumerate_cacti)
from cactiq.graph import (Graph, block_decomposition, canonical_code,
                          from_edges, is_cactus, is_connected,
                          matching_number, pendant_count)
from cactiq.graph6 import _decode_order
from cactiq.polynomials import IntPolynomial, monomial_shift


def all_labeled_graphs(n, min_edges=0, max_edges=None):
    """Every labeled simple graph on n vertices (as edge lists)."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if max_edges is None:
        max_edges = len(pairs)
    for mask in range(1 << len(pairs)):
        if not min_edges <= mask.bit_count() <= max_edges:
            continue
        yield from_edges(n, [pairs[i] for i in range(len(pairs))
                             if mask >> i & 1])


def brute_matching(g: Graph) -> int:
    """Maximum matching size by recursive subset search over edges."""
    edges = sorted(g.edges)
    best = 0

    def rec(i, used, count):
        nonlocal best
        if count > best:
            best = count
        if i == len(edges) or count + (len(edges) - i) <= best:
            return
        u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, count + 1)
        rec(i + 1, used, count)

    rec(0, frozenset(), 0)
    return best


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation-search isomorphism test."""
    if a.order != b.order or a.size != b.size:
        return False
    if sorted(map(len, a.adjacency())) != sorted(map(len, b.adjacency())):
        return False
    for perm in itertools.permutations(range(a.order)):
        if all((perm[u], perm[v]) in b.edges or (perm[v], perm[u]) in b.edges
               for u, v in a.edges):
            return True
    return False


def all_cycles(g: Graph):
    """All simple cycles as frozensets of vertices (exhaustive; tiny n only)."""
    cycles = set()
    n = g.order
    for size in range(3, n + 1):
        for subset in itertools.combinations(range(n), size):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cyc = (first,) + rest
                if all(g.has_edge(cyc[i], cyc[(i + 1) % size])
                       for i in range(size)):
                    edge_set = frozenset(
                        (min(cyc[i], cyc[(i + 1) % size]),
                         max(cyc[i], cyc[(i + 1) % size]))
                        for i in range(size))
                    cycles.add((frozenset(cyc), edge_set))
    return cycles


def cactus_by_definition(g: Graph) -> bool:
    """Directly: connected and any two distinct cycles share <= 1 vertex."""
    if not is_connected(g):
        return False
    cycles = list(all_cycles(g))
    for (va, _), (vb, _) in itertools.combinations(cycles, 2):
        if len(va & vb) > 1:
            return False
    return True


def to_networkx(g: Graph) -> nx.Graph:
    """g as a networkx graph on the same vertex indices."""
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges)
    return h


def check_block_order(g: Graph, blocks) -> None:
    """Assert that blocks are the blocks of the cactus g as vertex lists in
    the block order of the `cactiq.graph` docstring, from the definition.

    Each block is two vertices or a cycle's distinct vertices in cyclic
    order, and its pairs (a cycle's closing pair too) are g's edges, each
    edge once.  Every vertex but 0 is a later vertex of exactly one block,
    its owner, and 0 of none, so the owners make the vertex-block incidence
    a tree on n + m nodes with n + m - 1 edges, rooted at vertex 0, and
    each block's first vertex is its parent.  The order is a post-order of
    that tree: each block comes before the owner of its first vertex."""
    owner, pairs = {}, []
    for i, b in enumerate(blocks):
        assert len(b) >= 2 and len(set(b)) == len(b), b
        pairs += [(b[0], b[1])] if len(b) == 2 else \
            [(b[j - 1], b[j]) for j in range(len(b))]
        for v in b[1:]:
            assert v not in owner, (v, b)
            owner[v] = i
    assert sorted((min(e), max(e)) for e in pairs) == sorted(g.edges)
    assert sorted(owner) == list(range(1, g.order))
    for i, b in enumerate(blocks):
        assert b[0] == 0 or owner[b[0]] > i, (i, b)


def block_tree(n: int, blocks) -> nx.Graph:
    """The vertex-block incidence tree of a cactus on n vertices with these
    blocks, as a networkx graph: nodes 0..n-1 the vertices, n, n + 1, ...
    the blocks in order."""
    t = nx.Graph()
    t.add_nodes_from(range(n))
    t.add_edges_from((v, b) for b, verts in enumerate(blocks, n)
                     for v in verts)
    return t


# ---------------------------------------------------------------------------
# Canonical code of any graph by refinement-pruned search (exponential in
# the worst case); an oracle for the cactus code, which shares nothing with it
# ---------------------------------------------------------------------------

def _refined_colors(adj) -> list:
    """Iterated neighborhood refinement of the graph with neighbour sets
    adj; color ids are isomorphism-invariant."""
    ranks = {d: i for i, d in enumerate(sorted({len(a) for a in adj}))}
    colors = [ranks[len(a)] for a in adj]
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in a)))
                for v, a in enumerate(adj)]
        ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [ranks[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def search_code(g: Graph) -> bytes:
    """Order byte, then the lexicographically minimal adjacency bitstring over
    all relabelings that respect the refinement coloring; equal codes mean
    isomorphic graphs, for any graph.

    The search keeps a frontier of partial labelings whose emitted bits are
    identical so far and extends greedily, so the result is the true minimum.
    """
    n = g.order
    adj = [set(a) for a in g.adjacency()]
    colors = _refined_colors(adj)
    target = sorted(colors)  # color required at each position
    by_color = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    frontier = [()]
    bits = []
    for i in range(n):
        want = target[i]
        best_row = None
        nxt = []
        for perm in frontier:
            used = set(perm)
            for v in by_color[want]:
                if v in used:
                    continue
                row = tuple(1 if p in adj[v] else 0 for p in perm)
                if best_row is None or row < best_row:
                    best_row = row
                    nxt = [perm + (v,)]
                elif row == best_row:
                    nxt.append(perm + (v,))
        # dedup prefixes whose remaining search space emits identical bits:
        # only adjacency of placed vertices to unused ones matters from here on
        seen = set()
        frontier = []
        for perm in nxt:
            used = set(perm)
            key = (frozenset(used),
                   tuple(frozenset(adj[p] - used) for p in perm))
            if key not in seen:
                seen.add(key)
                frontier.append(perm)
        bits.extend(best_row or ())

    packed = bytearray([n])
    acc, k = 0, 0
    for b in bits:
        acc = (acc << 1) | b
        k += 1
        if k == 8:
            packed.append(acc)
            acc, k = 0, 0
    if k:
        packed.append(acc << (8 - k))
    return bytes(packed)


def list_block_code(verts, p: int, code) -> bytes:
    """Code of a block with vertices verts in cyclic order under the parent
    vertex p, or as the root when p is -1, as `graph._block_code` defines
    it, by comparing lists of child codes: under p the lesser of the two
    directions from p, as the root the least of every rotation of either
    direction."""
    if p >= 0 and len(verts) == 2:
        return b"[" + code[verts[0] if verts[1] == p else verts[1]] + b"]"
    seq = [code[v] for v in verts]
    if p < 0:
        back = seq[::-1]
        best = min(min(s[i:] + s[:i] for i in range(len(s)))
                   for s in (seq, back))
    else:
        i = verts.index(p)
        seq = seq[i + 1:] + seq[:i]
        best = min(seq, seq[::-1])
    return b"[" + b"".join(best) + b"]"


def oracle_cacti(n: int) -> tuple:
    """Exhaustive edge-subset oracle (n <= 6): every labeled graph on n
    vertices, filtered for connected cactus, one per `search_code`, in
    ascending search-code order.  Independent of the endblock generator and
    of the cactus code."""
    if n > 6:
        raise ValueError("oracle limited to n <= 6")
    # a cactus on n vertices has between n-1 and 3(n-1)/2 edges
    out = {}
    for g in all_labeled_graphs(n, n - 1, 3 * (n - 1) // 2):
        if is_cactus(g):
            out.setdefault(search_code(g), g)
    return tuple(out[c] for c in sorted(out))


# ---------------------------------------------------------------------------
# Endblock extension with every candidate built as a Graph
# ---------------------------------------------------------------------------

def extensions(g: Graph, n: int):
    """All one-endblock extensions of g with order exactly n: the new vertices
    g.order..n-1 closed into a cycle through each vertex v of g in turn.  With
    one new vertex the two edges collapse into a pendant edge.

    g is valid and its edges normalised, so each child is g's edges plus the
    new path and its two closing edges (v, g.order) and (v, n - 1), all
    already normalised, with no `from_edges` validation."""
    k = g.order
    path = g.edges.union(zip(range(k, n - 1), range(k + 1, n)))
    for v in range(k):
        yield Graph(n, path | {(v, k), (v, n - 1)})


def scanned_level(n, smaller) -> dict:
    """code -> graph for every cactus class on n vertices, in discovery
    order, the first extension found in each class its graph: every
    candidate is built by `extensions` and coded by a full `canonical_code`,
    scanning the graphs of smaller(1), ..., smaller(n - 1) in their order."""
    bucket = {}
    for size in range(1, n):
        for g in smaller(size):
            for child in extensions(g, n):
                bucket.setdefault(canonical_code(child).code, child)
    return bucket


def attach_scan(n, smaller) -> dict:
    """code -> path for every cactus class on n vertices, in discovery
    order: the scan of `enumeration._level` with only the two block rules
    of `_attach_points` (no path rule), over the paths smaller(1), ...,
    smaller(n - 1) in their order.  It shares the path coding and those
    two rules with the library, so it checks the path rule alone."""
    if n == 1:
        return {b"()": b""}
    bucket = {}
    for size in range(1, n):
        for path in smaller(size):
            blocks = _path_blocks(size, path)
            points = _attach_points(size, blocks, n - size)
            if points:
                for v, code in _child_codes(size, blocks, n, points):
                    bucket.setdefault(code, path + bytes((v, size)))
    return bucket


def has_edge_graph6(g: Graph) -> str:
    """graph6 string for g by one `has_edge` test per vertex pair, column by
    column, shifted into 6-bit chunks as it goes."""
    n = g.order
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    acc, k = 0, 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if g.has_edge(i, j) else 0)
            k += 1
            if k == 6:
                out.append(acc + 63)
                acc, k = 0, 0
    if k:
        out.append((acc << (6 - k)) + 63)
    return out.decode("ascii")


def bitlist_decode(text: str) -> Graph:
    """graph6 string to Graph through a list of every body bit, six per
    byte, the first most significant, walked column by column with a
    running index; the same errors, in the same order, as `graph6.decode`
    (which shares only the order prefix parser)."""
    try:
        data = text.strip().encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(
            f"invalid graph6 character {exc.object[exc.start]!r}") from None
    n, pos = _decode_order(data)
    if n < 1:
        raise ValueError("graph6 order must be >= 1")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        v = ch - 63
        if not 0 <= v <= 63:
            raise ValueError(f"invalid graph6 byte {ch}")
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero graph6 padding bits")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return from_edges(n, edges)


@lru_cache(maxsize=None)
def _scanned_invariants(n: int) -> tuple:
    return tuple((matching_number(g), pendant_count(g))
                 for g in enumerate_cacti(n))


def scanned_positions(n: int, filt) -> tuple:
    """Positions in `enumerate_cacti(n)` of the classes meeting a filter
    that sets at least one constraint, by testing every class's matching
    number and pendant count in turn."""
    return tuple(i for i, (m, k) in enumerate(_scanned_invariants(n))
                 if filt.matching in (None, m) and filt.pendants in (None, k))


# ---------------------------------------------------------------------------
# Counting cacti: Harary & Uhlenbeck, "On the number of Husimi trees, I",
# PNAS 39 (1953) 315-322; the unrooted counts are OEIS A000083.
# ---------------------------------------------------------------------------

def _mul(a, b, top):
    out = [Fraction(0)] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), top + 1 - i)):
                out[i + j] += x * b[j]
    return out


def _at_power(a, k, top):
    """a(x^k), truncated at degree top."""
    out = [Fraction(0)] * (top + 1)
    for i in range(0, top // k + 1):
        out[i * k] = a[i]
    return out


def _pow(a, e, top):
    out = [Fraction(1)] + [Fraction(0)] * top
    for _ in range(e):
        out = _mul(out, a, top)
    return out


def _exp(f, top):
    """exp(f) for a series with f(0) = 0: n g_n = sum_k k f_k g_(n-k)."""
    g = [Fraction(1)] + [Fraction(0)] * top
    for n in range(1, top + 1):
        g[n] = sum(k * f[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def _phi(d):
    return sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)


def _polygon_index(p, r, top):
    """The cycle index of the dihedral group D_p evaluated at the series r:
    a p-gon block with a rooted cactus at each corner, up to rotation and
    reflection."""
    s1, s2 = r, _at_power(r, 2, top)
    out = [Fraction(0)] * (top + 1)
    for d in range(1, p + 1):
        if p % d == 0:
            term = _pow(_at_power(r, d, top), p // d, top)
            out = [x + Fraction(_phi(d), 2 * p) * y for x, y in zip(out, term)]
    if p % 2:
        refl = _mul(s1, _pow(s2, (p - 1) // 2, top), top)
    else:
        refl = [(x + y) / 2 for x, y in
                zip(_pow(s2, p // 2, top),
                    _mul(_pow(s1, 2, top), _pow(s2, p // 2 - 1, top), top))]
    return [x + y / 2 for x, y in zip(out, refl)]


def _branches(r, top):
    """B: what hangs from a root through one block, an edge or a cycle."""
    r2 = _at_power(r, 2, top)
    b, rj, even = list(r), r, [Fraction(1)] + [Fraction(0)] * top
    for j in range(2, top):
        rj = _mul(rj, r, top)  # R^j
        if j % 2 == 0:
            even = _mul(even, r2, top)  # R(x^2)^(j/2)
            fixed = even
        else:
            fixed = _mul(r, even, top)
        b = [x + (y + z) / 2 for x, y, z in zip(b, rj, fixed)]
    return b


def cactus_counts(top):
    """[u_1, ..., u_top]: the number of cacti on n vertices, up to
    isomorphism, from the exact generating functions.

    R, the rooted cacti, is x exp(sum_k B(x^k) / k), where B, what hangs
    from the root through one block, is R for an edge plus
    (R^j + S_j) / 2 for a cycle through the root and j >= 2 further
    vertices (S_j counts the sequences fixed by reversal: R(x^2)^(j/2) for
    even j, R R(x^2)^((j-1)/2) for odd j).  By the dissimilarity theorem the
    unrooted series is U = R + P - R B, with P the block-rooted cacti:
    (R^2 + R(x^2)) / 2 for an edge and the dihedral cycle index at R for a
    polygon.
    """
    r = [Fraction(0)] * (top + 1)
    for _ in range(top):  # each pass fixes one more coefficient of R
        b = _branches(r, top)
        f = [Fraction(0)] * (top + 1)
        for k in range(1, top + 1):
            f = [x + y / k for x, y in zip(f, _at_power(b, k, top))]
        r = [Fraction(0)] + _exp(f, top)[:top]
    b = _branches(r, top)
    p = [(x + y) / 2 for x, y in zip(_pow(r, 2, top), _at_power(r, 2, top))]
    for gon in range(3, top + 1):
        p = [x + y for x, y in zip(p, _polygon_index(gon, r, top))]
    u = [x + y - z for x, y, z in zip(r, p, _mul(r, b, top))]
    assert all(c.denominator == 1 for c in u)
    return [int(c) for c in u[1:]]


# ---------------------------------------------------------------------------
# Exact characteristic polynomials
# ---------------------------------------------------------------------------

def packed_char_poly(m) -> IntPolynomial:
    """det(xI - A) of a square integer matrix A from power sums over rows
    packed into big integers, then Newton's identities; the algorithm
    `spectra.char_poly` ran before it moved to residues of machine words.

    Each row of A^k is packed into one integer, entry j in a w-bit slot j, so
    one step A^k = A A^(k-1) is one big-int multiply-add per nonzero of A.
    With r the largest absolute row sum, |(A^k)_ij| <= r^n < 2^(w-2); adding
    2^(w-1) to every slot before reading one keeps signed entries apart.
    """
    arr = np.asarray(m)
    if arr.shape == (0,):  # [] is the 0 x 0 matrix
        arr = arr.astype(int).reshape(0, 0)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"char_poly requires a square matrix, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValueError("char_poly requires exact integer entries")
    n = len(arr)
    sparse = [[(j, a) for j, a in enumerate(row) if a != 0] for row in arr.tolist()]
    r = max((sum(abs(a) for _, a in row) for row in sparse), default=0)
    w = n * max(r, 1).bit_length() + 2
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum(half << (i * w) for i in range(n))
    packed = [1 << (i * w) for i in range(n)]  # the rows of A^0 = I
    coeffs, sums = [1], []  # c_0 .. c_(k-1) and s_1 .. s_k
    for k in range(1, n + 1):
        packed = [sum(a * packed[j] for j, a in row) for row in sparse]
        sums.append(sum(((p + bias) >> (i * w) & mask) - half
                        for i, p in enumerate(packed)))
        t = sum(c * s for c, s in zip(reversed(coeffs), sums))
        if t % k:
            raise ArithmeticError("Newton identity sum not divisible")
        coeffs.append(-(t // k))
    return IntPolynomial(coeffs[::-1])


def guarded_exact_powers(stack) -> int:
    """How many powers A, A^2, ... the exact phase of `spectra.char_polys`
    keeps for a stack, by the loop it ran before the bounds counted the
    certain powers up front: each product A^(k+1) = A^k A is taken while
    max|A^k| * w <= 2^52 over the whole stack, w the largest sum of |a_ij|
    over one matrix."""
    a = np.asarray(stack, dtype=float)
    n = a.shape[-1]
    weight = int(np.abs(a).sum(axis=(1, 2)).max())
    x, count = a, 1
    while count < n and int(np.abs(x).max()) * weight <= 1 << 52:
        x = x @ a
        count += 1
    return count


def faddeev_leverrier(rows):
    """Coefficients of det(xI - A), constant term first, by the
    Faddeev-LeVerrier recurrence on full integer matrices:
    M_k = A M_(k-1) + c_(n-k+1) I with c_(n-k) = -tr(A M_(k-1)) / k.
    Each row of A M is built as a sum of scaled rows of M."""
    n = len(rows)
    sparse = [[(j, a) for j, a in enumerate(row) if a != 0] for row in rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # row i of A M is the sum of the rows a M[j] over the nonzeros a_ij
        AM = [[sum(col) for col in zip([0] * n, *(
                   M[j] if a == 1 else [a * x for x in M[j]]
                   for j, a in sparse[i]))]
              for i in range(n)]
        tr = sum(AM[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        c = -(tr // k)
        coeffs[n - k] = c
        for i in range(n):
            AM[i][i] += c
        M = AM
    return coeffs


def product_closed_form(family: str, core, n: int, k: int) -> IntPolynomial:
    """(x-1)^e1 (x-3)^e3 times core(n, k) for the member of family "H" or
    "L" with order n, k pendants and s >= 1, each power by repeated
    `IntPolynomial` products, the form `families._closed_form` expanded
    before it took binomials: e1 = s + k - 1 for H and s + k - 2 for L,
    e3 = s - 1."""
    offset = {"H": 1, "L": 2}[family]
    s = (n - k - offset) // 2
    return (monomial_shift(1) ** (s + k - offset)
            * monomial_shift(3) ** (s - 1) * core(n, k))


# ---------------------------------------------------------------------------
# Sturm chains and root refinement over the rationals
# ---------------------------------------------------------------------------

def _frac_divmod(a, b):
    """Quotient and remainder of a / b for lists of Fractions, ascending
    order, by schoolbook long division."""
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / lb
        shift = len(a) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _frac_primitive(coeffs):
    """The primitive integer polynomial that is a positive multiple of a
    nonzero Fraction polynomial."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def fraction_sturm_sequence(coeffs):
    """Sturm chain of the integer polynomial `coeffs` (ascending) by
    Euclidean division over Fractions, every member divided by the last,
    gcd(p, p'), and scaled to its primitive positive integer multiple."""
    seq = [[Fraction(c) for c in coeffs]]
    d = [Fraction(i * c) for i, c in enumerate(coeffs) if i > 0]
    while d and d[-1] == 0:
        d.pop()
    if d:
        seq.append(d)
    while len(seq[-1]) > 1:
        _, r = _frac_divmod(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    g = seq[-1]
    if len(g) > 1:
        seq = [_frac_divmod(f, g)[0] for f in seq]
    return [_frac_primitive(f) for f in seq]


def fraction_gcd(p, q):
    """gcd of two integer polynomials (ascending lists) by the Euclidean
    algorithm over Fractions, as a primitive positive multiple of the last
    nonzero remainder ([] when both are zero)."""
    a, b = [Fraction(c) for c in p], [Fraction(c) for c in q]
    while b:
        a, b = b, _frac_divmod(a, b)[1]
    return _frac_primitive(a) if a else []


def _signs_at(polys, x, den):
    """Signs of integer polynomials (ascending lists) at x / den, den > 0,
    each read off the integer den^top * f(x / den), where top is the
    highest degree among them."""
    top = max(len(f) for f in polys) - 1
    terms = [x ** i * den ** (top - i) for i in range(top + 1)]
    out = []
    for f in polys:
        v = sum(map(mul, f, terms))
        out.append((v > 0) - (v < 0))
    return out


def cauchy_bound(coeffs) -> Fraction:
    """Cauchy's bound 1 + max_i |c_i| / |c_d|: every real root of the
    integer polynomial lies in [-B, B]."""
    return 1 + Fraction(max(map(abs, coeffs[:-1])), abs(coeffs[-1]))


def fraction_count_roots(coeffs, lo, hi, seq=None) -> int:
    """Distinct real roots of the integer polynomial in (lo, hi], by sign
    variations of `fraction_sturm_sequence` at the two ends."""
    seq = seq or fraction_sturm_sequence(coeffs)

    def var(x):
        x = Fraction(x)
        s = [v for v in _signs_at(seq, x.numerator, x.denominator) if v]
        return sum(1 for u, v in zip(s, s[1:]) if u != v)

    return var(lo) - var(hi)


@lru_cache(maxsize=None)
def fraction_isolate_largest(coeffs: tuple):
    """(lo, hi, chain): (lo, hi] holds the largest real root of the integer
    polynomial and no other root, by Fraction bisection from the Cauchy
    bound on Sturm counts of `chain`, its `fraction_sturm_sequence`; None
    when there is no real root."""
    seq = fraction_sturm_sequence(coeffs)
    hi = cauchy_bound(coeffs)
    lo = -hi - 1
    if not fraction_count_roots(coeffs, lo, hi, seq):
        return None
    while fraction_count_roots(coeffs, lo, hi, seq) > 1:
        mid = (lo + hi) / 2
        if fraction_count_roots(coeffs, mid, hi, seq):
            lo = mid
        else:
            hi = mid
    return lo, hi, seq


def fraction_compare_largest_roots(p: tuple, q: tuple) -> int:
    """-1, 0 or 1 as the largest real root of the integer polynomial p lies
    below, at or above that of q (both have a real root).  Each is isolated
    by `fraction_isolate_largest`; while the brackets overlap, a root of the
    Fraction gcd inside both is a tie, otherwise both are halved until they
    are disjoint."""
    a, b, sp = fraction_isolate_largest(p)
    c, d, sq = fraction_isolate_largest(q)
    if max(a, c) < min(b, d):
        g = fraction_gcd(p, q)
        if (len(g) > 1 and fraction_count_roots(g, a, b)
                and fraction_count_roots(g, c, d)):
            return 0
    for _ in range(2000):
        if b <= c:
            return -1
        if d <= a:
            return 1
        mid = (a + b) / 2
        a, b = (mid, b) if fraction_count_roots(p, mid, b, sp) else (a, mid)
        mid = (c + d) / 2
        c, d = (mid, d) if fraction_count_roots(q, mid, d, sq) else (c, mid)
    raise AssertionError("largest roots not separated")


def fraction_largest_root(coeffs, lo, hi):
    """Largest root of the integer polynomial in (lo, hi] as a float, by
    bisection on Sturm counts of `fraction_sturm_sequence`: halve until one
    root is left in (a, b], then down to width <= 1e-12 (as the Fraction
    nearest it with denominator at most 10^18), returning a midpoint that is
    a root as soon as one shows, else the last midpoint.

    The ends are integers over a common denominator den, doubled at each
    halving, so no step reduces a Fraction; the result is the correctly
    rounded quotient of two integers, as float() of the Fraction is."""
    seq = fraction_sturm_sequence(coeffs)

    def var(x, den):
        s = [v for v in _signs_at(seq, x, den) if v]
        return sum(1 for u, v in zip(s, s[1:]) if u != v)

    lo, hi = Fraction(lo), Fraction(hi)
    den = lcm(lo.denominator, hi.denominator)
    a, b = int(lo * den), int(hi * den)
    va, vb = var(a, den), var(b, den)
    assert va > vb, "no root in (lo, hi]"
    width = Fraction(1e-12).limit_denominator(10 ** 18)
    while True:
        if va - vb == 1 and (b - a) * width.denominator <= width.numerator * den:
            return (a + b) / (2 * den)
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        if va - vb == 1 and _signs_at([coeffs], mid, den) == [0]:
            return mid / den
        vm = var(mid, den)
        a, b, va, vb = (mid, b, vm, vb) if vm > vb else (a, mid, va, vm)


def list_quotient_eigenvalues(spec):
    """The numeric eigenvalues of a BlockSpec's quotient as the list-based
    code computed them: the t x t rows in Python arithmetic, exact for
    integers, then one float array, symmetrized under D^(1/2) and solved
    by eigvalsh."""
    t = spec.t
    rows = [[spec.l[i] * spec.sizes[i] + spec.p[i] if i == j
             else spec.s[i][j] * spec.sizes[j]
             for j in range(t)] for i in range(t)]
    b = np.array(rows, dtype=float)
    d = np.sqrt(np.array(spec.sizes, dtype=float))
    sym = b * (d[:, None] / d[None, :])
    sym = (sym + sym.T) / 2
    return [float(x) for x in np.linalg.eigvalsh(sym)]


def subgraph_instance_by_trial(rng):
    """The proper-subgraph draw of `verify._draw_subgraph_instance`, on the
    class's Graph: the edge found by trial (delete each edge of the shuffled
    list in turn, build the rest and keep the first that is still
    connected), the cut vertices from the biconnected blocks, and the vertex
    deleted by relabelling the kept vertices in order.  Only the class draw
    is the library's own."""
    from cactiq import enumeration, verify
    while True:
        drawn = verify._random_cactus(rng)
        n, path, q0 = drawn.n, drawn.path, drawn.radius
        g = enumeration._path_graph(n, path)
        if rng.random() < 0.5 and g.size > g.order - 1:
            edges = sorted(g.edges)
            rng.shuffle(edges)
            for e in edges:
                h = from_edges(g.order, [x for x in edges if x != e])
                if is_connected(h):
                    return n, path, q0, h
        cuts = block_decomposition(g).cut_vertices
        options = [v for v in range(g.order) if v not in cuts]
        if g.order >= 3 and options:
            v = rng.choice(options)
            keep = {w: i for i, w in enumerate(x for x in range(n) if x != v)}
            return n, path, q0, from_edges(n - 1, [
                (keep[a], keep[b]) for a, b in g.edges if v not in (a, b)])


def random_cactus_by_path(rng):
    """`verify._random_cactus` as each draw derived its class before the
    per-order surgery table: (n, path, edge list, neighbour sets, radius,
    Perron row), read off the drawn class's build path and the order's
    `Level.spectra`."""
    from cactiq import enumeration
    n = rng.randint(3, 8)
    level = enumeration.classes(n)
    i = rng.randrange(len(level.paths))
    path = level.path(i)
    edges = enumeration._path_edges(n, path)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return n, path, edges, adj, float(level.spectra[0][i]), level.spectra[1][i]


def shift_instance_by_path(rng):
    """`verify._draw_shift_instance` on `random_cactus_by_path`'s derivation."""
    from cactiq.transforms import _shifted
    while True:
        n, path, edges, adj, q0, x = random_cactus_by_path(rng)
        x = x.tolist()
        verts = list(range(n))
        rng.shuffle(verts)
        for v in verts:
            us = [u for u in range(n) if u != v and x[v] <= x[u] + 1e-12]
            rng.shuffle(us)
            for u in us:
                cands = sorted(adj[v] - adj[u] - {u})
                if not cands:
                    continue
                moved = rng.sample(cands, rng.randint(1, len(cands)))
                h = Graph(n, frozenset(_shifted(adj, edges, v, u, moved)))
                return n, path, q0, h, (v, u, moved)


def contract_instance_by_path(rng):
    """`verify._draw_contract_instance` on `random_cactus_by_path`'s
    derivation."""
    from cactiq.transforms import _contracted
    while True:
        n, path, edges, adj, q0, _ = random_cactus_by_path(rng)
        shuffled = sorted(edges)
        rng.shuffle(shuffled)
        for u, v in shuffled:
            if len(adj[u]) == 1 or len(adj[v]) == 1 or adj[u] & adj[v]:
                continue
            h = Graph(n, frozenset(_contracted(adj, edges, u, v)))
            return n, path, q0, h, (u, v)


def subgraph_instance_by_path(rng):
    """`verify._draw_subgraph_instance` on `random_cactus_by_path`'s
    derivation, the blocks and block counts read off the path per draw."""
    from cactiq.enumeration import _block_counts, _path_blocks
    n, path, edges, _, q0, _ = random_cactus_by_path(rng)
    blocks = _path_blocks(n, path)
    if rng.random() < 0.5 and len(edges) > n - 1:
        shuffled = sorted(edges)
        rng.shuffle(shuffled)
        bridges = {tuple(b) for b in blocks if len(b) == 2}
        e = next(e for e in shuffled if e not in bridges)
        return n, path, q0, Graph(n, frozenset(x for x in edges if x != e))
    count = _block_counts(n, blocks)
    v = rng.choice([v for v in range(n) if count[v] == 1])
    return n, path, q0, Graph(n - 1, frozenset(
        (a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)))


def q_stack_by_values(graphs) -> np.ndarray:
    """Q of every graph of one order as an (N, n, n) float array, its index
    arrays read one value at a time from a generator over the graphs' edges:
    the stack builder that took Graphs."""
    n = graphs[0].order
    k, u, v = np.fromiter((x for i, g in enumerate(graphs) for e in g.edges
                           for x in (i, *e)), dtype=np.intp).reshape(-1, 3).T
    stack = np.zeros((len(graphs), n, n))
    stack[k, u, v] = stack[k, v, u] = 1.0
    stack[:, range(n), range(n)] = stack.sum(axis=2)
    return stack


def rank_by_sort(radii, graph, lower, upper):
    """`verify.rank_certified` by sorting every candidate: float-descending
    with a stable sort, the candidates whose upper bound reaches the first
    one's lower bound ranked by exact largest-root comparison from that
    order."""
    from functools import cmp_to_key

    from cactiq.polynomials import compare_largest_roots
    from cactiq.spectra import char_polys, signless_laplacian
    radii = list(radii)
    order = sorted(range(len(radii)), key=lambda i: radii[i], reverse=True)
    if len(order) == 1:
        return order[0], None, None, False
    best, second = order[0], order[1]
    near = [i for i in order if upper[i] >= lower[best]]
    tie = False
    if len(near) > 1:
        polys = dict(zip(near, char_polys(
            [signless_laplacian(graph(i)) for i in near])))
        near.sort(key=cmp_to_key(
            lambda a, b: compare_largest_roots(polys[b], polys[a])))
        best, second = near[0], near[1]
        tie = compare_largest_roots(polys[best], polys[second]) == 0
    gap = 0.0 if tie else abs(radii[best] - radii[second])
    return best, second, gap, tie


def fraction_radius_bounds(n, edges, y):
    """For Q of the graph on n vertices with these (u, v) edges and a float
    vector y read as exact rationals: the Rayleigh quotient of
    y+ = max(y, 0), from x^T Q x = sum over edges of (x_u + x_v)^2, and the
    Collatz-Wielandt maximum max_v (Q y)_v / y_v, or None unless y > 0."""
    x = [Fraction(max(v, 0.0)) for v in y]
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rayleigh = (sum((x[u] + x[v]) ** 2 for u, v in edges)
                / sum(v * v for v in x))
    if min(y) <= 0:
        return rayleigh, None
    return rayleigh, max((len(nbrs[v]) * x[v] + sum(x[w] for w in nbrs[v]))
                         / x[v] for v in range(n))
