"""Theorem verification over enumerated cacti, formula-identity checks, and
monotonicity property runs.

Every entry point returns a VerificationReport that serializes to one JSON
line.  Numeric acceptance is at 1e-9; every candidate whose radius lies within
1e-7 of a class maximum is ranked by exact largest-root comparison of the
characteristic polynomials.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import zip_longest

from . import graph6, spectra
from .enumeration import CactusFilter, enumerate_cacti
from .families import (build_H, build_L, extremal_answer, psi_H, psi_L,
                       psi_legacy, superseded_conjecture_bound)
from .graph import (Graph, canonical_code, from_edges, is_connected,
                    block_decomposition)
from .polynomials import compare_largest_roots
from .spectra import char_poly, graph_radius, signless_laplacian
from .transforms import ShiftPlan, contract_pend, shift_neighbors

RADIUS_TOL = 1e-9
EXACT_ESCALATION_GAP = 1e-7
MONOTONE_MARGIN = 1e-10

CLAIMS = ("theorem31i", "theorem31ii", "theorem32", "prop213", "prop215",
          "conjecture11_negative")


@dataclass
class VerificationReport:
    """Machine-readable outcome of one check."""
    claim: str
    parameters: dict
    predicted_maximizer: str | None = None
    observed_maximizer: str | None = None
    predicted_radius: float | None = None
    observed_radius: float | None = None
    runner_up_gap: float | None = None
    passed: bool = False
    counterexamples: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "claim": self.claim,
            "parameters": self.parameters,
            "predicted_maximizer": self.predicted_maximizer,
            "observed_maximizer": self.observed_maximizer,
            "predicted_radius": self.predicted_radius,
            "observed_radius": self.observed_radius,
            "runner_up_gap": self.runner_up_gap,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }, sort_keys=True)


def rank_certified(graphs, radii):
    """Indices of the maximizer and runner-up, the runner-up gap and an
    exact-tie flag.

    Every candidate whose float radius lies within EXACT_ESCALATION_GAP of the
    maximum is ranked by exact largest-root comparison of its characteristic
    polynomial; float-descending order breaks exact ties.  A one-graph class
    has no runner-up and no gap.
    """
    order = sorted(range(len(graphs)), key=lambda i: radii[i], reverse=True)
    if len(order) == 1:
        return order[0], None, None, False
    best, second = order[0], order[1]
    near = [i for i in order if radii[best] - radii[i] < EXACT_ESCALATION_GAP]
    tie = False
    if len(near) > 1:
        polys = {i: char_poly(signless_laplacian(graphs[i])) for i in near}
        near.sort(key=cmp_to_key(
            lambda a, b: compare_largest_roots(polys[b], polys[a])))
        best, second = near[0], near[1]
        tie = compare_largest_roots(polys[best], polys[second]) == 0
    gap = 0.0 if tie else abs(radii[best] - radii[second])
    return best, second, gap, tie


def _rank_class(report: VerificationReport, n: int, filt: CactusFilter):
    """Record the class's certified maximizer, radius and runner-up gap in the
    report; return the maximizer, its radius, class size and exact-tie flag."""
    graphs = list(enumerate_cacti(n, filt))
    if not graphs:
        raise ValueError(f"no cacti match {report.parameters}")
    class_radii = spectra.radii(graphs)
    best, _, report.runner_up_gap, tie = rank_certified(graphs, class_radii)
    report.observed_maximizer = graph6.encode(graphs[best])
    report.observed_radius = class_radii[best]
    return graphs[best], class_radii[best], len(graphs), tie


def _claim_filter(claim: str, n: int, m, k) -> CactusFilter:
    if claim == "theorem31i":
        if m is None:
            m = (n - 1) // 2
        if n != 2 * m + 1:
            raise ValueError(f"theorem31i requires n = 2m + 1, got n={n}, m={m}")
        return CactusFilter(matching=m)
    if claim == "theorem31ii":
        if m is None:
            raise ValueError("theorem31ii requires a matching number")
        if n < 2 * m + 2:
            raise ValueError(f"theorem31ii requires n >= 2m + 2, got n={n}, m={m}")
        return CactusFilter(matching=m)
    if claim == "prop215":
        if m is None:
            m = n // 2
        if n != 2 * m:
            raise ValueError(f"prop215 requires n = 2m, got n={n}, m={m}")
        return CactusFilter(matching=m)
    if claim == "prop213":
        if k is None:
            raise ValueError("prop213 requires a pendant count")
        return CactusFilter(pendants=k)
    if claim == "theorem32":
        return CactusFilter()
    raise ValueError(f"unknown extremal claim {claim!r}")


def verify_extremal(claim: str, n: int, m: int | None = None,
                    k: int | None = None) -> VerificationReport:
    """Enumerate the constrained class, find its true unique maximizer, and
    check it against the predicted family member and radius."""
    if claim == "conjecture11_negative":
        return verify_conjecture11_negative(n, m)
    filt = _claim_filter(claim, n, m, k)
    params = {"n": n}
    if filt.matching is not None:
        params["m"] = filt.matching
    if filt.pendants is not None:
        params["k"] = filt.pendants
    report = VerificationReport(claim=claim, parameters=params)

    predicted = extremal_answer(n, matching=filt.matching, pendants=filt.pendants)
    report.predicted_maximizer = graph6.encode(predicted.maximizer)
    report.predicted_radius = predicted.radius

    observed, q_obs, class_size, tie = _rank_class(report, n, filt)
    ok_iso = canonical_code(observed) == canonical_code(predicted.maximizer)
    ok_radius = abs(q_obs - predicted.radius) <= RADIUS_TOL
    ok_unique = not tie
    report.passed = ok_iso and ok_radius and ok_unique
    if not ok_iso:
        report.counterexamples.append({"observed": graph6.encode(observed),
                                       "radius": q_obs})
    report.details = {"class_size": class_size, "isomorphic": ok_iso,
                      "radius_match": ok_radius, "unique": ok_unique}
    return report


def verify_conjecture11_negative(n: int, m: int | None = None) -> VerificationReport:
    """Document that the superseded odd-case bound is exceeded by the verified
    maximum; the exceedance is the expected outcome."""
    if m is None:
        m = (n - 1) // 2
    if n != 2 * m + 1:
        raise ValueError(f"conjecture11_negative requires n = 2m + 1, got n={n}, m={m}")
    report = VerificationReport(claim="conjecture11_negative",
                                parameters={"n": n, "m": m})
    _, q_obs, _, _ = _rank_class(report, n, CactusFilter(matching=m))
    bound = superseded_conjecture_bound(n)
    report.predicted_radius = bound
    exceeded = q_obs > bound + RADIUS_TOL
    report.passed = exceeded
    report.details = {"superseded_bound": bound,
                      "exceeded_as_documented": exceeded,
                      "excess": q_obs - bound}
    return report


# ---------------------------------------------------------------------------
# Formula identities and the erratum
# ---------------------------------------------------------------------------

def _family_params(family: str, max_n: int):
    """(s, k, n) of every valid member of family "H" or "L" up to order max_n."""
    if family == "H":
        for s in range(1, (max_n - 1) // 2 + 1):
            for k in range(0, max_n - 2 * s):
                yield s, k, 2 * s + k + 1
    else:
        for s in range(1, (max_n - 3) // 2 + 1):
            for k in range(1, max_n - 2 * s - 1):
                yield s, k, 2 * s + k + 2


def verify_formulas(max_n: int = 24) -> VerificationReport:
    """Exact identity of both factored formulas against the determinant-free
    exact characteristic polynomial, plus the legacy-formula erratum."""
    if max_n > 24:
        raise ValueError("max_n capped at 24")
    report = VerificationReport(claim="formulas", parameters={"max_n": max_n})
    failures = []
    checked = 0
    for family, psi, build in (("H", psi_H, build_H), ("L", psi_L, build_L)):
        for s, k, n in _family_params(family, max_n):
            if psi(n, k) != char_poly(signless_laplacian(build(s, k))):
                failures.append({"family": family, "s": s, "k": k})
            checked += 1

    mismatches, legacy_failures = [], []
    def check_legacy(family, psi, n, k):
        """The legacy formula must disagree: record its first differing degree."""
        point = {"family": family, "n": n, "k": k}
        diff = _first_coeff_diff(psi_legacy(family, n, k), psi(n, k))
        if diff is None:
            legacy_failures.append(point)
        else:
            mismatches.append({**point, "first_diff_degree": diff})

    # H at n >= 5, k = 0: legacy H coincides with the corrected formula at n = 3
    for n in range(5, min(max_n, 15) + 1, 2):
        check_legacy("H", psi_H, n, 0)
    # the five smallest L points with s >= 2: legacy L coincides at s = 1
    l_points = sorted((t for t in _family_params("L", max_n) if t[0] >= 2),
                      key=lambda t: (t[2], t[1]))[:5]
    for s, k, n in l_points:
        check_legacy("L", psi_L, n, k)

    report.passed = not failures and not legacy_failures
    report.counterexamples = failures + legacy_failures
    report.details = {"identities_checked": checked,
                      "identity_failures": len(failures),
                      "legacy_mismatches": mismatches}
    return report


def _first_coeff_diff(a, b):
    pairs = zip_longest(a.coeffs, b.coeffs, fillvalue=0)
    return next((deg for deg, (x, y) in enumerate(pairs) if x != y), None)


# ---------------------------------------------------------------------------
# Monotonicity property suites
# ---------------------------------------------------------------------------

def _random_cactus(rng: random.Random, lo: int = 3, hi: int = 8) -> Graph:
    n = rng.randint(lo, hi)
    pool = enumerate_cacti(n)
    return pool[rng.randrange(len(pool))]


def _draw_shift_instance(rng: random.Random):
    """A (graph, plan) pair meeting the neighbor-shift hypotheses, including
    the Perron-label condition x_v <= x_u; invalid draws are redrawn."""
    while True:
        g = _random_cactus(rng)
        x = graph_radius(g).perron
        verts = list(range(g.order))
        rng.shuffle(verts)
        for v in verts:
            us = [u for u in range(g.order) if u != v and x[v] <= x[u] + 1e-12]
            rng.shuffle(us)
            for u in us:
                cands = sorted(g.neighbors(v) - g.neighbors(u) - {u})
                if not cands:
                    continue
                take = rng.randint(1, len(cands))
                moved = rng.sample(cands, take)
                return g, ShiftPlan(v=v, u=u, moved=moved)


def _draw_contract_instance(rng: random.Random):
    while True:
        g = _random_cactus(rng)
        edges = sorted(g.edges)
        rng.shuffle(edges)
        for u, v in edges:
            if g.degree(u) == 1 or g.degree(v) == 1:
                continue
            if g.neighbors(u) & g.neighbors(v):
                continue
            return g, (u, v)


def _delete_vertex(g: Graph, v: int) -> Graph:
    keep = [w for w in range(g.order) if w != v]
    remap = {w: i for i, w in enumerate(keep)}
    edges = [(remap[a], remap[b]) for a, b in g.edges if v not in (a, b)]
    return from_edges(g.order - 1, edges)


def _draw_subgraph_instance(rng: random.Random):
    """A (G, H) pair with H a proper connected subgraph of G."""
    while True:
        g = _random_cactus(rng)
        if rng.random() < 0.5 and g.size > g.order - 1:
            edges = sorted(g.edges)
            rng.shuffle(edges)
            for e in edges:
                h = from_edges(g.order, [x for x in edges if x != e])
                if is_connected(h):
                    return g, h
        cuts = block_decomposition(g).cut_vertices
        options = [v for v in range(g.order) if v not in cuts]
        if g.order >= 3 and options:
            return g, _delete_vertex(g, rng.choice(options))


def verify_monotonicity(trials: int = 200, seed: int = 42) -> VerificationReport:
    """Seeded random instances of the three monotonicity properties: neighbor
    shift, contraction-plus-pendant, and proper-subgraph comparison."""
    if trials < 1:
        raise ValueError("trials >= 1 required")
    rng = random.Random(seed)
    report = VerificationReport(claim="monotonicity",
                                parameters={"trials": trials, "seed": seed})
    violations = []
    for t in range(trials):
        g, plan = _draw_shift_instance(rng)
        q0 = graph_radius(g).radius
        q1 = graph_radius(shift_neighbors(g, plan)).radius
        if q1 - q0 <= MONOTONE_MARGIN:
            violations.append({"property": "neighbor_shift", "trial": t,
                               "graph": graph6.encode(g), "before": q0,
                               "after": q1})
        g, (u, v) = _draw_contract_instance(rng)
        q0 = graph_radius(g).radius
        q1 = graph_radius(contract_pend(g, u, v)).radius
        if q1 - q0 <= MONOTONE_MARGIN:
            violations.append({"property": "contract_pend", "trial": t,
                               "graph": graph6.encode(g), "before": q0,
                               "after": q1})
        g, h = _draw_subgraph_instance(rng)
        q0 = graph_radius(g).radius
        q1 = graph_radius(h).radius
        if q0 - q1 <= MONOTONE_MARGIN:
            violations.append({"property": "proper_subgraph", "trial": t,
                               "graph": graph6.encode(g), "sub": graph6.encode(h),
                               "whole": q0, "part": q1})
    report.passed = not violations
    report.counterexamples = violations
    report.details = {"comparisons": 3 * trials, "violations": len(violations)}
    return report
