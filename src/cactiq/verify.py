"""Theorem verification over enumerated cacti, formula-identity checks, and
monotonicity property runs.

Every entry point returns a VerificationReport that serializes to one JSON
line.  Numeric acceptance is at 1e-9; every candidate whose radius lies within
1e-7 of a class maximum is ranked by exact largest-root comparison of the
characteristic polynomials.

Numeric radii come from the order's class table (`enumeration.classes`),
which holds the radius and Perron vector of every class, solved once in
stacked calls.  A filtered class reads its radii at the table's positions for
the filter.  The monotonicity runs read each drawn graph's radius and Perron
vector from the same tables, queue the surgery results and solve them
RADII_SLICE instances at a time in one `spectra.radii` call, before checking
them in trial and property order.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from functools import cmp_to_key
from itertools import islice, zip_longest

from . import graph6, spectra
from .enumeration import CactusFilter, classes
from .families import (build, extremal_answer, members, psi_H, psi_L,
                       psi_legacy, superseded_conjecture_bound)
from .graph import (Graph, as_index, block_decomposition, canonical_code,
                    from_edges)
from .polynomials import compare_largest_roots
# graph_radius is not called here; perfbench's layer-trace self-test reads it
# as cactiq.verify.graph_radius
from .spectra import char_polys, graph_radius, signless_laplacian  # noqa: F401
from .transforms import contract_pend, shift_neighbors

RADIUS_TOL = 1e-9
EXACT_ESCALATION_GAP = 1e-7
MONOTONE_MARGIN = 1e-10

# The --n, --m, --k, --trials and --seed parameters each claim reads, in the
# order of the CLI's --claim choices; passing a claim any other is an error,
# not a no-op.
CLAIM_FLAGS = {"theorem31i": ("n", "m"), "theorem31ii": ("n", "m"),
               "theorem32": ("n",), "prop213": ("n", "k"),
               "prop215": ("n", "m"), "conjecture11_negative": ("n", "m"),
               "monotonicity": ("trials", "seed")}


def refuse_unread_flags(claim: str, **flags) -> None:
    """Raise ValueError naming the first of the given flag values that is
    set although the claim does not read it; an unknown claim is left to
    the claim's own dispatch."""
    reads = CLAIM_FLAGS.get(claim)
    if reads is None:
        return
    for flag, value in flags.items():
        if value is not None and flag not in reads:
            raise ValueError(f"{claim} takes no --{flag}")


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
        return json.dumps(asdict(self), sort_keys=True)


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
        polys = dict(zip(near, char_polys(
            [signless_laplacian(graphs[i]) for i in near])))
        near.sort(key=cmp_to_key(
            lambda a, b: compare_largest_roots(polys[b], polys[a])))
        best, second = near[0], near[1]
        tie = compare_largest_roots(polys[best], polys[second]) == 0
    gap = 0.0 if tie else abs(radii[best] - radii[second])
    return best, second, gap, tie


def _class_radii(n: int, filt: CactusFilter):
    """The classes of order n meeting the filter and their Q-radii, read from
    the order's table at the classes' positions."""
    level = classes(n)
    positions = list(level.positions(filt))
    return ([level.graphs[i] for i in positions],
            level.spectra[0][positions].tolist())


def _rank_class(report: VerificationReport, n: int, filt: CactusFilter):
    """Record the class's certified maximizer, radius and runner-up gap in the
    report; return the maximizer, its radius, class size and exact-tie flag."""
    graphs, class_radii = _class_radii(n, filt)
    if not graphs:
        raise ValueError(f"no cacti match {report.parameters}")
    best, _, report.runner_up_gap, tie = rank_certified(graphs, class_radii)
    report.observed_maximizer = graph6.encode(graphs[best])
    report.observed_radius = class_radii[best]
    return graphs[best], class_radii[best], len(graphs), tie


def _claim_filter(claim: str, n: int, m, k) -> CactusFilter:
    if claim in ("theorem31i", "conjecture11_negative"):
        if m is None:
            m = (n - 1) // 2
        if n != 2 * m + 1:
            raise ValueError(f"{claim} requires n = 2m + 1, got n={n}, m={m}")
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
    check it against the predicted family member and radius.  An m or k the
    claim does not read raises ValueError."""
    refuse_unread_flags(claim, m=m, k=k)
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
    filt = _claim_filter("conjecture11_negative", n, m, None)
    if n < 3:
        raise ValueError("n >= 3 required")
    report = VerificationReport(claim="conjecture11_negative",
                                parameters={"n": n, "m": filt.matching})
    _, q_obs, _, _ = _rank_class(report, n, filt)
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

def verify_formulas(max_n: int = 24) -> VerificationReport:
    """Exact identity of both factored formulas against the determinant-free
    exact characteristic polynomial, plus the legacy-formula erratum.  The
    members of each order are solved in one `spectra.char_polys` call;
    failures are listed in (family, s, k) order.  max_n must be an integer
    (see `graph.as_index`)."""
    max_n = as_index(max_n, "max_n")
    if max_n > 24:
        raise ValueError("max_n capped at 24")
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, the order of H(1, 0), got {max_n}")
    report = VerificationReport(claim="formulas", parameters={"max_n": max_n})
    points = [(psi, p) for family, psi in (("H", psi_H), ("L", psi_L))
              for p in members(family, max_n)]
    failed = set()
    for n in {p.n for _, p in points}:
        group = [(psi, p) for psi, p in points if p.n == n]
        polys = char_polys([signless_laplacian(build(p)) for _, p in group])
        failed.update(p for (psi, p), poly in zip(group, polys)
                      if psi(p.n, p.k) != poly)
    failures = [{"family": p.family, "s": p.s, "k": p.k}
                for _, p in points if p in failed]

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
    l_points = sorted((p for p in members("L", max_n) if p.s >= 2),
                      key=lambda p: (p.n, p.k))[:5]
    for p in l_points:
        check_legacy("L", psi_L, p.n, p.k)

    report.passed = not failures and not legacy_failures
    report.counterexamples = failures + legacy_failures
    report.details = {"identities_checked": len(points),
                      "identity_failures": len(failures),
                      "legacy_mismatches": mismatches}
    return report


def _first_coeff_diff(a, b):
    pairs = zip_longest(a.coeffs, b.coeffs, fillvalue=0)
    return next((deg for deg, (x, y) in enumerate(pairs) if x != y), None)


# ---------------------------------------------------------------------------
# Monotonicity property suites
# ---------------------------------------------------------------------------

def _random_cactus(rng: random.Random):
    """A class of a random order in 3..8, with its Q-radius and Perron
    vector read from the order's table."""
    level = classes(rng.randint(3, 8))
    i = rng.randrange(len(level.graphs))
    radius, perron = level.spectra
    return level.graphs[i], float(radius[i]), perron[i]


def _draw_shift_instance(rng: random.Random):
    """A (graph, radius, (v, u, moved)) triple meeting the neighbor-shift
    hypotheses, including the Perron-label condition x_v <= x_u; invalid
    draws are redrawn."""
    while True:
        g, q0, x = _random_cactus(rng)
        x = x.tolist()
        adj = [set(a) for a in g.adjacency()]
        verts = list(range(g.order))
        rng.shuffle(verts)
        for v in verts:
            us = [u for u in range(g.order) if u != v and x[v] <= x[u] + 1e-12]
            rng.shuffle(us)
            for u in us:
                cands = sorted(adj[v] - adj[u] - {u})
                if not cands:
                    continue
                take = rng.randint(1, len(cands))
                moved = rng.sample(cands, take)
                return g, q0, (v, u, moved)


def _draw_contract_instance(rng: random.Random):
    """A (graph, radius, edge) triple: a non-pendant edge whose endpoints
    share no neighbor."""
    while True:
        g, q0, _ = _random_cactus(rng)
        adj = [set(a) for a in g.adjacency()]
        edges = sorted(g.edges)
        rng.shuffle(edges)
        for u, v in edges:
            if len(adj[u]) == 1 or len(adj[v]) == 1 or adj[u] & adj[v]:
                continue
            return g, q0, (u, v)


def _delete_vertex(g: Graph, v: int) -> Graph:
    keep = [w for w in range(g.order) if w != v]
    remap = {w: i for i, w in enumerate(keep)}
    edges = [(remap[a], remap[b]) for a, b in g.edges if v not in (a, b)]
    return from_edges(g.order - 1, edges)


def _draw_subgraph_instance(rng: random.Random):
    """A (G, radius of G, H) triple with H a proper connected subgraph of G.

    H drops either one edge of a cycle, the first in a shuffled edge order
    (deleting an edge leaves a cactus connected iff the edge lies on a
    cycle, a block of more than two edges), or one non-cut vertex, which a
    connected graph on two or more vertices always has."""
    g, q0, _ = _random_cactus(rng)
    blocks = block_decomposition(g)
    if rng.random() < 0.5 and g.size > g.order - 1:
        edges = sorted(g.edges)
        rng.shuffle(edges)
        on_cycle = {e for b in blocks.blocks if len(b) > 2 for e in b}
        e = next(e for e in edges if e in on_cycle)
        return g, q0, from_edges(g.order, [x for x in edges if x != e])
    cuts = blocks.cut_vertices
    options = [v for v in range(g.order) if v not in cuts]
    return g, q0, _delete_vertex(g, rng.choice(options))


def _instances(rng: random.Random, trials: int):
    """(property, trial, G, radius of G, surgery result) for the three
    properties of each trial in turn, drawn lazily from rng."""
    for t in range(trials):
        g, q0, plan = _draw_shift_instance(rng)
        yield "neighbor_shift", t, g, q0, shift_neighbors(g, *plan)
        g, q0, (u, v) = _draw_contract_instance(rng)
        yield "contract_pend", t, g, q0, contract_pend(g, u, v)
        g, q0, h = _draw_subgraph_instance(rng)
        yield "proper_subgraph", t, g, q0, h


def _violations(batch) -> list:
    """Violation records of a batch of instances, in batch order."""
    out = []
    after = spectra.radii([h for *_, h in batch])
    for (prop, t, g, q0, h), q1 in zip(batch, after):
        if prop == "proper_subgraph":
            if q0 - q1 <= MONOTONE_MARGIN:
                out.append({"property": prop, "trial": t,
                            "graph": graph6.encode(g),
                            "sub": graph6.encode(h),
                            "whole": q0, "part": q1})
        elif q1 - q0 <= MONOTONE_MARGIN:
            out.append({"property": prop, "trial": t,
                        "graph": graph6.encode(g), "before": q0, "after": q1})
    return out


def verify_monotonicity(trials: int = 200, seed: int = 42) -> VerificationReport:
    """Seeded random instances of the three monotonicity properties: neighbor
    shift, contraction-plus-pendant, and proper-subgraph comparison.

    Each drawn graph's radius comes from its order's class table; the surgery
    results are solved RADII_SLICE instances at a time and checked in trial
    and property order.  trials and seed must be integers (see
    `graph.as_index`)."""
    trials, seed = as_index(trials, "trials"), as_index(seed, "seed")
    if trials < 1:
        raise ValueError("trials >= 1 required")
    report = VerificationReport(claim="monotonicity",
                                parameters={"trials": trials, "seed": seed})
    violations = []
    instances = _instances(random.Random(seed), trials)
    while batch := list(islice(instances, spectra.RADII_SLICE)):
        violations += _violations(batch)
        del batch  # release the solved batch before the next one is drawn
    report.passed = not violations
    report.counterexamples = violations
    report.details = {"comparisons": 3 * trials, "violations": len(violations)}
    return report
