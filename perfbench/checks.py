"""Output checks for the benchmark, computed apart from cactiq.

Graphs printed by cactiq are parsed with networkx's graph6 reader; matrices,
spectra, matching numbers, family members, closed forms, determinants and
polynomial gcds are all computed here.  Each checker returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import networkx as nx
import numpy as np

# Cacti on n = 1..10 unlabeled vertices (Harary & Uhlenbeck 1953; OEIS A000083).
PUBLISHED_COUNTS = (1, 1, 2, 4, 9, 23, 63, 188, 596, 1979)
RADIUS_TOL = 1e-9
SPECTRUM_TOL = 1e-8


# ---------------------------------------------------------------------------
# Graph primitives
# ---------------------------------------------------------------------------

def parse_graph6(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.strip().encode("ascii"))


def is_cactus(g: nx.Graph) -> bool:
    """Connected, and every biconnected block is one edge or has |E| = |V|."""
    if g.number_of_nodes() == 0 or not nx.is_connected(g):
        return False
    for block in nx.biconnected_component_edges(g):
        block = list(block)
        nodes = {v for e in block for v in e}
        if len(block) > 1 and len(block) != len(nodes):
            return False
    return True


def brute_matching_number(g: nx.Graph) -> int:
    """Maximum matching size by exhaustive search over vertex subsets: the
    lowest remaining vertex is either left unmatched or matched to each of
    its remaining neighbours in turn."""
    nodes = sorted(g.nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    nbr = [sum(1 << pos[w] for w in g[v]) for v in nodes]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        out = best(rest)
        cand = nbr[v] & rest
        while cand:
            u = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            out = max(out, 1 + best(rest & ~(1 << u)))
        return out

    return best((1 << len(nodes)) - 1)


def pendant_count(g: nx.Graph) -> int:
    return sum(1 for _, d in g.degree if d == 1)


def q_matrix(n: int, edges) -> np.ndarray:
    """Signless Laplacian D + A of a graph on 0..n-1."""
    q = np.zeros((n, n))
    for u, v in edges:
        q[u, v] = q[v, u] = 1.0
        q[u, u] += 1.0
        q[v, v] += 1.0
    return q


def q_of(g: nx.Graph) -> np.ndarray:
    relabel = {v: i for i, v in enumerate(sorted(g.nodes))}
    return q_matrix(len(relabel), [(relabel[u], relabel[v]) for u, v in g.edges])


def max_eig(q: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(q)[-1])


def family_member(family: str, s: int, k: int) -> nx.Graph:
    """H(s, k): hub 0 with s triangles and k pendant edges.  L(s, k): hub 0
    with s triangles, one pendant path of length two and k - 1 pendants."""
    g = nx.Graph()
    g.add_node(0)
    nxt = 1
    for _ in range(s):
        a, b = nxt, nxt + 1
        g.add_edges_from([(0, a), (0, b), (a, b)])
        nxt += 2
    if family == "L":
        g.add_edges_from([(0, nxt), (nxt, nxt + 1)])
        nxt += 2
        k -= 1
    for _ in range(k):
        g.add_edge(0, nxt)
        nxt += 1
    return g


# ---------------------------------------------------------------------------
# Exact arithmetic
# ---------------------------------------------------------------------------

def bareiss_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def charpoly_matches_det(coeffs, q_int) -> bool:
    """True iff the ascending coefficient list equals det(xI - Q) as a
    polynomial: both are of degree n, so agreement at the n + 1 points
    x = 0..n proves identity."""
    n = len(q_int)
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return False
    for x in range(n + 1):
        m = [[(x if i == j else 0) - q_int[i][j] for j in range(n)]
             for i in range(n)]
        value = sum(c * x ** d for d, c in enumerate(coeffs))
        if value != bareiss_det(m):
            return False
    return True


def _rem(a, b):
    a = a[:]
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(p, q):
    """Monic gcd of two ascending integer coefficient lists, over Q."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    while b:
        a, b = b, _rem(a, b)
    return [c / a[-1] for c in a]


def poly_eval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def changes_sign_near(coeffs, r: float, delta=Fraction(1, 10 ** 10)) -> bool:
    """Exact test that the polynomial changes sign across [r - d, r + d]."""
    x = Fraction(r)
    return poly_eval(coeffs, x - delta) * poly_eval(coeffs, x + delta) < 0


def largest_real_root(coeffs_ascending) -> float:
    """Largest real root of a float polynomial: numpy's companion-matrix
    roots, polished by Newton steps."""
    roots = np.roots(list(reversed(coeffs_ascending)))
    x = max(float(r.real) for r in roots if abs(r.imag) < 1e-6)
    d = [i * c for i, c in enumerate(coeffs_ascending)][1:]
    for _ in range(4):
        slope = poly_eval(d, x)
        if slope == 0:
            break
        x -= poly_eval(coeffs_ascending, x) / slope
    return x


# ---------------------------------------------------------------------------
# The paper's extremal answers, written out
# ---------------------------------------------------------------------------

def predicted(claim: str, n: int, m=None, k=None):
    """(family, s, k, radius) of the paper's maximizer for a claim."""
    odd_closed = (n + 2 + math.sqrt(n * n - 4 * n + 12)) / 2
    even_closed = (n + 1 + math.sqrt(n * n - 2 * n + 9)) / 2
    if claim in ("theorem31i", "conjecture11_negative"):
        return "H", (n - 1) // 2, 0, odd_closed
    if claim == "prop215":
        return "H", n // 2 - 1, 1, even_closed
    if claim == "theorem32":
        return ("H", (n - 1) // 2, 0, odd_closed) if n % 2 \
            else ("H", n // 2 - 1, 1, even_closed)
    if claim == "theorem31ii":
        cubic = [-4 * m + 4, 3 * n, -(n + 3), 1]
        return "H", m - 1, n - 2 * m + 1, largest_real_root(cubic)
    if claim == "prop213":
        if (n - k) % 2:
            cubic = [-2 * n + 2 * k + 2, 3 * n, -(n + 3), 1]
            return "H", (n - k - 1) // 2, k, largest_real_root(cubic)
        quintic = [-2 * n + 2 * k + 4, 9 * n - 6 * k - 12,
                   -(12 * n - 2 * k - 10), 6 * n + 4, -(n + 5), 1]
        return "L", (n - k - 2) // 2, k, largest_real_root(quintic)
    raise ValueError(claim)


def formula_points(max_n: int) -> list:
    """The (family, s, k) points with n <= max_n: H(s, k) with s >= 1,
    k >= 0, n = 2s + k + 1 and L(s, k) with s >= 1, k >= 1, n = 2s + k + 2."""
    h = [("H", s, k) for s in range(1, max_n) for k in range(max_n)
         if 2 * s + k + 1 <= max_n]
    l = [("L", s, k) for s in range(1, max_n) for k in range(1, max_n)
         if 2 * s + k + 2 <= max_n]
    return h + l


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _wl(g):
    """Weisfeiler-Lehman hash (networkx warns that its hashes changed in 3.5)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nx.weisfeiler_lehman_graph_hash(g, iterations=3)


def _iso_index(graphs):
    """Bucket graph indices by hash for isomorphism lookups."""
    buckets = defaultdict(list)
    for i, g in enumerate(graphs):
        buckets[_wl(g)].append(i)
    return buckets


def check_census(out, spec) -> list:
    """out: {"enumerate": {N: lines}, "matching": {m: lines},
    "pendants": {k: lines}, "family_scale": {n: bool}}."""
    problems = []
    parsed = {}
    for n_, lines in sorted(out["enumerate"].items()):
        want = PUBLISHED_COUNTS[n_ - 1]
        if len(lines) != want:
            problems.append(f"enumerate n={n_}: {len(lines)} classes, published {want}")
        graphs = [parse_graph6(x) for x in lines]
        parsed[n_] = graphs
        for line, g in zip(lines, graphs):
            if g.number_of_nodes() != n_ or not is_cactus(g):
                problems.append(f"enumerate n={n_}: {line!r} is not a cactus on {n_} vertices")
        for ids in _iso_index(graphs).values():
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    if nx.is_isomorphic(graphs[ids[a]], graphs[ids[b]]):
                        problems.append(f"enumerate n={n_}: {lines[ids[a]]!r} and "
                                        f"{lines[ids[b]]!r} are isomorphic")

    n_ = spec.filter_n
    base_lines = out["enumerate"][n_]
    base = parsed[n_]
    where = {line: i for i, line in enumerate(base_lines)}
    index = _iso_index(base)
    for kind, invariant, values in (("matching", brute_matching_number,
                                     range(1, n_ // 2 + 1)),
                                    ("pendants", pendant_count, range(n_))):
        hits = [0] * len(base)
        for value in values:
            for line in out[kind].get(value, ()):
                g = parse_graph6(line)
                if g.number_of_nodes() != n_ or not is_cactus(g):
                    problems.append(f"{kind}={value}: {line!r} is not a cactus on {n_} vertices")
                    continue
                got = invariant(g)
                if got != value:
                    problems.append(f"{kind}={value}: {line!r} has {kind} {got}")
                i = where.get(line)
                if i is None:
                    i = next((j for j in index.get(_wl(g), ())
                              if nx.is_isomorphic(g, base[j])), None)
                if i is None:
                    problems.append(f"{kind}={value}: {line!r} not in the n={n_} class")
                else:
                    hits[i] += 1
        if set(hits) != {1}:
            bad = sum(1 for h in hits if h != 1)
            problems.append(f"{kind} outputs do not partition the n={n_} class "
                            f"({bad} members covered other than once)")

    for order, iso in out["family_scale"].items():
        if iso is not True:
            problems.append(f"family-scale n={order}: relabelled maximizer "
                            f"reported non-isomorphic")
    return problems


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def check_claims(out, spec) -> list:
    """out: {"reports": [(claim, n, params, rc, stdout)],
    "monotonicity": (rc, stdout), "trials": int}."""
    problems = []
    sums = defaultdict(lambda: defaultdict(int))
    for claim, n, params, rc, text in out["reports"]:
        tag = f"{claim} n={n} {params}"
        if rc != 0:
            problems.append(f"{tag}: exit code {rc}")
            continue
        report = json.loads(text.strip().splitlines()[-1])
        if report.get("passed") is not True:
            problems.append(f"{tag}: not passed")
        g = parse_graph6(report["observed_maximizer"])
        radius = report["observed_radius"]
        own = max_eig(q_of(g))
        if abs(radius - own) > RADIUS_TOL:
            problems.append(f"{tag}: observed radius {radius} vs eigvalsh {own}")
        family, s, k, paper = predicted(claim, n, params.get("m"), params.get("k"))
        if abs(radius - paper) > RADIUS_TOL:
            problems.append(f"{tag}: observed radius {radius} vs paper {paper}")
        if not nx.is_isomorphic(g, family_member(family, s, k)):
            problems.append(f"{tag}: maximizer is not {family}({s}, {k})")
        if claim == "conjecture11_negative":
            if not radius > (5 + math.sqrt(4 * n - 3)) / 2:
                problems.append(f"{tag}: radius {radius} does not exceed the superseded bound")
        else:
            size = report["details"]["class_size"]
            group = "pendants" if claim == "prop213" else (
                "all" if claim == "theorem32" else "matching")
            sums[n][group] += size
    for n, groups in sums.items():
        want = PUBLISHED_COUNTS[n - 1]
        for group in ("all", "matching"):
            if groups.get(group) != want:
                problems.append(f"n={n}: {group} class sizes sum to "
                                f"{groups.get(group)}, published {want}")
        # prop213 at even n skips k = 0, which has no prediction
        if n % 2 and groups.get("pendants") != want:
            problems.append(f"n={n}: pendant class sizes sum to "
                            f"{groups.get('pendants')}, published {want}")
        if groups.get("pendants", 0) > want:
            problems.append(f"n={n}: pendant class sizes exceed the class")

    rc, text = out["monotonicity"]
    if rc != 0:
        problems.append(f"monotonicity: exit code {rc}")
    else:
        report = json.loads(text.strip().splitlines()[-1])
        if report.get("passed") is not True:
            problems.append("monotonicity: not passed")
        if report["details"]["comparisons"] != 3 * out["trials"]:
            problems.append(f"monotonicity: {report['details']['comparisons']} "
                            f"comparisons for {out['trials']} trials")
    return problems


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def check_exact(out, spec) -> list:
    """out: {"formulas": (rc, stdout), "formula_samples": [(label, coeffs,
    q_int)], "ladder": [(label, n, edges, answer_radius, graph_radius,
    spectrum_values)], "ties": [(label, cmp, swapped, ra, rb, pa, pb,
    q_a, q_b)]}."""
    problems = []
    rc, text = out["formulas"]
    if rc != 0:
        problems.append(f"check-formulas: exit code {rc}")
    else:
        report = json.loads(text.strip().splitlines()[-1])
        want = len(formula_points(spec.formula_max_n))
        got = report["details"]["identities_checked"]
        if report.get("passed") is not True:
            problems.append("check-formulas: not passed")
        if got != want:
            problems.append(f"check-formulas: {got} identities checked, {want} points exist")

    for label, coeffs, q_int in out["formula_samples"]:
        if not charpoly_matches_det(coeffs, q_int):
            problems.append(f"{label}: coefficients differ from det(xI - Q)")

    for label, n, edges, answer_radius, g_radius, spectrum in out["ladder"]:
        q = q_matrix(n, edges)
        eig = np.linalg.eigvalsh(q)
        if abs(answer_radius - eig[-1]) > RADIUS_TOL:
            problems.append(f"{label}: predicted radius {answer_radius} vs eigvalsh {eig[-1]}")
        if abs(g_radius - eig[-1]) > RADIUS_TOL:
            problems.append(f"{label}: graph_radius {g_radius} vs eigvalsh {eig[-1]}")
        if len(spectrum) != n or np.max(np.abs(np.sort(spectrum) - eig)) > SPECTRUM_TOL:
            problems.append(f"{label}: structured spectrum differs from eigvalsh")

    for label, cmp, swapped, ra, rb, pa, pb, qa, qb in out["ties"]:
        for coeffs, q_int, side in ((pa, qa, "a"), (pb, qb, "b")):
            if q_int is not None and not charpoly_matches_det(coeffs, q_int):
                problems.append(f"{label}: char_poly of {side} differs from det(xI - Q)")
        if cmp == 0:
            if abs(ra - rb) > RADIUS_TOL:
                problems.append(f"{label}: certified tie with radii {ra}, {rb}")
            g = poly_gcd(pa, pb)
            if len(g) < 2:
                problems.append(f"{label}: certified tie without a common factor")
            elif not (changes_sign_near(pa, ra) and changes_sign_near(g, ra)):
                problems.append(f"{label}: common factor does not own the largest root")
        elif swapped != -cmp:
            problems.append(f"{label}: comparison {cmp} but swapped gives {swapped}")
    return problems
