"""Theorem verification over enumerated cacti, formula-identity checks, and
monotonicity property runs.

Every entry point returns a VerificationReport that serializes to one JSON
line.  Numeric acceptance is at 1e-9.  Every verdict that compares radii is
exact: one radius lies above another when its rigorous lower bound exceeds
the other's upper bound (`spectra.stacked_eigenpairs`, or for a surgery
result `spectra.power_step_lower`), and every pair without that certificate
is decided by exact largest-root comparison of the characteristic
polynomials.

A class claim reads its inputs in one place: n, m and k are parsed as
integers before the claim's order rule picks the class filter.  The class's
positions, numeric radii and radius bounds then come from one lookup of the
order's class table (`enumeration.classes`), solved once in stacked calls.
Every other solve stacks Q once per order from edge lists: an exactly ranked
near set from its classes' build paths, the uncertified monotonicity
instances from their edges, and `check-formulas` from the family members'
generated edges, each in one `char_polys` call; a `Graph` is built only for
a maximizer.  The monotonicity runs draw each class as its order's
`Level.surgery` entry, its edges, neighbour sets, admissible-move tables
and one-block vertices derived once per order, pick each surgery by one
uniform index into a table (a neighbour shift by a row, then a target in
it), and run `transforms`' internals on those sets.  That is the law of
taking the first admissible element of a uniform shuffle, which is a
uniform pick from the admissible set.  The results are taken RADII_SLICE
instances at a time, and each batch is grouped once, by result order (a
shift or contraction keeps its class's order).  Within an order each
neighbour shift and contraction is first bounded below by one power step
from its class's Perron row, in one `power_step_lower` call; the proper
subgraphs and any result whose rise that bound leaves uncertified are then
solved by one `stacked_eigenpairs` call.  The instances are then checked in
trial and property order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import islice, zip_longest

import numpy as np

from . import graph6, spectra
from .enumeration import (CactusFilter, _path_blocks, _path_edges,
                          _path_graph, classes)
from .families import (_blocks, _edges, extremal_answer, members, psi_H,
                       psi_L, psi_legacy, superseded_conjecture_bound)
from .graph import Graph, _cactus_code, as_index
from .polynomials import compare_largest_roots
from .spectra import (_q_stack, char_polys, power_step_lower,
                      stacked_eigenpairs)
# graph_radius is not called here; perfbench's layer-trace self-test reads it
# as cactiq.verify.graph_radius
from .spectra import graph_radius  # noqa: F401
from .transforms import _contracted, _shifted

RADIUS_TOL = 1e-9

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
        return json.dumps(vars(self), sort_keys=True)


def _char_polys(graphs) -> list:
    """The characteristic polynomial of Q of each (order, edges) pair, in
    turn, from one Q stack and one `char_polys` call per order; the list
    is grouped by order in one pass."""
    polys, by_order = [None] * len(graphs), {}
    for i, (n, _) in enumerate(graphs):
        by_order.setdefault(n, []).append(i)
    for n, idx in by_order.items():
        for i, p in zip(idx, char_polys(_q_stack(
                n, [graphs[i][1] for i in idx]).astype(int))):
            polys[i] = p
    return polys


def rank_certified(n: int, radii, lower, upper, edges):
    """Indices of the maximizer and runner-up, the runner-up gap and an
    exact-tie flag, for candidates of order n with these float radii and
    rigorous lower and upper bounds on them (`stacked_eigenpairs`);
    edges(i) gives candidate i's edge list, a sized collection of (u, v)
    pairs.

    The float maximizer, the lower index first on equal floats, lies above
    every candidate whose upper bound is below its lower bound.  The rest,
    the near set, is sorted by exact largest-root comparison of its
    characteristic polynomials from float order, and only its edges are
    read, into one Q stack (`_char_polys`).  Float order breaks exact ties.
    When the near set is the maximizer alone, the runner-up is the float
    maximum of the rest.  A one-candidate class has no runner-up and no
    gap.
    """
    r = np.asarray(radii, dtype=float)
    if len(r) == 1:
        return 0, None, None, False
    near = sorted(np.flatnonzero(
        np.asarray(upper) >= lower[int(r.argmax())]).tolist(),
        key=lambda i: -r[i])
    best, tie = near[0], False
    if len(near) > 1:
        polys = dict(zip(near, _char_polys([(n, edges(i)) for i in near])))
        near.sort(key=cmp_to_key(
            lambda a, b: compare_largest_roots(polys[b], polys[a])))
        best, second = near[0], near[1]
        tie = compare_largest_roots(polys[best], polys[second]) == 0
    else:  # the float maximum of the rest
        second = int(np.where(np.arange(len(r)) == best, -np.inf, r).argmax())
    gap = 0.0 if tie else abs(float(r[best] - r[second]))
    return best, second, gap, tie


def _claim_report(claim: str, n, m, k):
    """The empty report of a class claim, with its parameters, and the
    claim's class filter.  An unknown claim is refused first; then n and a
    given m or k are parsed (see `graph.as_index`, as n, matching and
    pendants) before the claim's order rule is applied."""
    if claim == "monotonicity" or claim not in CLAIM_FLAGS:
        raise ValueError(f"unknown extremal claim {claim!r}")
    n = as_index(n, "n")
    m = None if m is None else as_index(m, "matching")
    k = None if k is None else as_index(k, "pendants")
    if claim in ("theorem31i", "conjecture11_negative"):
        m = (n - 1) // 2 if m is None else m
        if n != 2 * m + 1:
            raise ValueError(f"{claim} requires n = 2m + 1, got n={n}, m={m}")
    elif claim == "theorem31ii":
        if m is None:
            raise ValueError("theorem31ii requires a matching number")
        if n < 2 * m + 2:
            raise ValueError(f"theorem31ii requires n >= 2m + 2, got n={n}, m={m}")
    elif claim == "prop215":
        m = n // 2 if m is None else m
        if n != 2 * m:
            raise ValueError(f"prop215 requires n = 2m, got n={n}, m={m}")
    elif claim == "prop213" and k is None:
        raise ValueError("prop213 requires a pendant count")
    filt = CactusFilter(matching=m, pendants=k)  # refuses a negative m or k
    if claim == "conjecture11_negative" and n < 3:
        raise ValueError("n >= 3 required")
    params = {"n": n, **{f: v for f, v in (("m", m), ("k", k)) if v is not None}}
    return VerificationReport(claim=claim, parameters=params), filt


def _rank_class(report: VerificationReport, filt: CactusFilter):
    """Record the certified maximizer, radius and runner-up gap of the class
    of order report.parameters["n"] meeting filt in the report; return the
    maximizer's build path, its radius, class size and exact-tie flag.
    Positions, radii and their bounds come from one `classes(n)` lookup."""
    n = report.parameters["n"]
    level = classes(n)
    positions = np.fromiter(level.positions(filt), dtype=np.intp)
    if not positions.size:
        raise ValueError(f"no cacti match {report.parameters}")
    radius, _, lower, upper = level.spectra
    class_radii = radius[positions]
    best, _, report.runner_up_gap, tie = rank_certified(
        n, class_radii, lower[positions], upper[positions],
        lambda i: _path_edges(n, level.path(positions[i])))
    path = level.path(positions[best])
    report.observed_maximizer = graph6.encode(_path_graph(n, path))
    report.observed_radius = float(class_radii[best])
    return path, report.observed_radius, len(positions), tie


def verify_extremal(claim: str, n: int, m: int | None = None,
                    k: int | None = None) -> VerificationReport:
    """Enumerate the constrained class, find its true unique maximizer, and
    check it against the predicted family member and radius.  An m or k the
    claim does not read raises ValueError.  The observed maximizer's
    canonical code is read off its build path's blocks, the predicted one's
    off its member's blocks."""
    refuse_unread_flags(claim, m=m, k=k)
    return _extremal_report(claim, n, m, k)


def _extremal_report(claim: str, n, m, k) -> VerificationReport:
    """`verify_extremal` once the caller has refused every unread flag."""
    if claim == "conjecture11_negative":
        return verify_conjecture11_negative(n, m)
    report, filt = _claim_report(claim, n, m, k)
    n = report.parameters["n"]
    predicted = extremal_answer(n, matching=filt.matching,
                                pendants=filt.pendants)
    report.predicted_maximizer = graph6.encode(predicted.maximizer)
    report.predicted_radius = predicted.radius

    path, q_obs, class_size, tie = _rank_class(report, filt)
    ok_iso = (_cactus_code(n, _path_blocks(n, path))
              == _cactus_code(n, _blocks(predicted.params)))
    ok_radius = abs(q_obs - predicted.radius) <= RADIUS_TOL
    ok_unique = not tie
    report.passed = ok_iso and ok_radius and ok_unique
    if not ok_iso:
        report.counterexamples.append({"observed": report.observed_maximizer,
                                       "radius": q_obs})
    report.details = {"class_size": class_size, "isomorphic": ok_iso,
                      "radius_match": ok_radius, "unique": ok_unique}
    return report


def verify_conjecture11_negative(n: int, m: int | None = None) -> VerificationReport:
    """Document that the superseded odd-case bound is exceeded by the verified
    maximum; the exceedance is the expected outcome."""
    report, filt = _claim_report("conjecture11_negative", n, m, None)
    _, q_obs, _, _ = _rank_class(report, filt)
    bound = superseded_conjecture_bound(report.parameters["n"])
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
    exact characteristic polynomial, plus the legacy-formula erratum.  Q of
    each order's members is stacked once from their generated edges, which
    `FamilyParams` has already checked, and solved in one `char_polys` call;
    failures are listed in (family, s, k) order.  max_n must be an integer
    (see `graph.as_index`)."""
    max_n = as_index(max_n, "max_n")
    if max_n > 24:
        raise ValueError("max_n capped at 24")
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, the order of H(1, 0), got {max_n}")
    report = VerificationReport(claim="formulas", parameters={"max_n": max_n})
    # each member's closed form, read by the identity and the erratum checks
    closed = {p: psi(p.n, p.k) for family, psi in (("H", psi_H), ("L", psi_L))
              for p in members(family, max_n)}
    polys = _char_polys([(p.n, list(_edges(p))) for p in closed])
    failures = [{"family": p.family, "s": p.s, "k": p.k}
                for p, poly in zip(closed, polys) if closed[p] != poly]

    # the legacy formula must disagree with the corrected one, at H(s, 0)
    # for n = 5..15 (legacy H coincides at n = 3) and at the five smallest L
    # points with s >= 2 (legacy L coincides at s = 1)
    legacy = [p for p in closed
              if p.family == "H" and p.k == 0 and 5 <= p.n <= 15]
    legacy += sorted((p for p in closed if p.family == "L" and p.s >= 2),
                     key=lambda p: (p.n, p.k))[:5]
    mismatches, legacy_failures = [], []
    for p in legacy:
        point = {"family": p.family, "n": p.n, "k": p.k}
        pairs = zip_longest(psi_legacy(p.family, p.n, p.k).coeffs,
                            closed[p].coeffs, fillvalue=0)
        diff = next((d for d, (x, y) in enumerate(pairs) if x != y), None)
        if diff is None:
            legacy_failures.append(point)
        else:
            mismatches.append({**point, "first_diff_degree": diff})

    report.passed = not failures and not legacy_failures
    report.counterexamples = failures + legacy_failures
    report.details = {"identities_checked": len(closed),
                      "identity_failures": len(failures),
                      "legacy_mismatches": mismatches}
    return report


# ---------------------------------------------------------------------------
# Monotonicity property suites
# ---------------------------------------------------------------------------

def _random_cactus(rng: random.Random):
    """A class of a random order n in 3..8, as its `Level.surgery` entry."""
    level = classes(rng.randint(3, 8))
    return level.surgery[rng.randrange(len(level.paths))]


def _draw_shift_instance(rng: random.Random):
    """A class's `Surgery` entry, the shifted Graph and its plan
    (v, u, moved), meeting the neighbor-shift hypotheses and the
    Perron-label condition x_v <= x_u: a uniform row of the class's
    `shifts`, its v, and a uniform target u in it, then a sample of a
    uniform size of v's neighbours that u lacks; a class with no row is
    redrawn."""
    c = _random_cactus(rng)
    while not c.shifts:
        c = _random_cactus(rng)
    row = rng.choice(c.shifts)
    v, u, adj = row[0], rng.choice(row[1:]), c.adj
    cands = sorted(adj[v] - adj[u] - {u})
    moved = rng.sample(cands, rng.randint(1, len(cands)))
    h = Graph(c.n, frozenset(_shifted(adj, c.edges, v, u, moved)))
    return c, h, (v, u, moved)


def _draw_contract_instance(rng: random.Random):
    """A class's `Surgery` entry, the contracted Graph and its edge (u, v),
    not pendant, whose endpoints share no neighbor, uniform among the
    class's `contracts`; a class with none is redrawn."""
    c = _random_cactus(rng)
    while not c.contracts:
        c = _random_cactus(rng)
    u, v = rng.choice(c.contracts)
    h = Graph(c.n, frozenset(_contracted(c.adj, c.edges, u, v)))
    return c, h, (u, v)


def _draw_subgraph_instance(rng: random.Random):
    """A class's `Surgery` entry and H, a proper connected subgraph: on a
    fair coin the class less a uniform one of its `cycle_edges` (deleting
    an edge leaves a cactus connected iff it lies on a cycle), when it has
    one, and otherwise less a uniform vertex in one block only, which every
    cactus on two or more vertices has."""
    c = _random_cactus(rng)
    n, edges = c.n, c.edges
    if rng.random() < 0.5 and c.cycle_edges:
        e = rng.choice(c.cycle_edges)
        return c, Graph(n, frozenset(x for x in edges if x != e))
    v = rng.choice(c.ends)
    return c, Graph(n - 1, frozenset(
        (a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)))


def _instances(rng: random.Random, trials: int):
    """(property, trial, the class's `Surgery` entry, surgery result) for
    the three properties of each trial in turn, drawn lazily from rng."""
    for t in range(trials):
        yield "neighbor_shift", t, *_draw_shift_instance(rng)[:2]
        yield "contract_pend", t, *_draw_contract_instance(rng)[:2]
        yield "proper_subgraph", t, *_draw_subgraph_instance(rng)


def _violations(batch) -> list:
    """Violation records of a batch of instances, in batch order; a class's
    Graph is built only for its record.

    The batch is grouped once, by result order, a shift or contraction
    keeping its class's order.  Within an order, a neighbour shift or
    contraction is certified to raise its class's radius when the
    power-step bound from the class's Perron row (`spectra.power_step_lower`,
    one call) exceeds the upper bound of the class's `Surgery` entry.  Every
    other result is solved by one `stacked_eigenpairs` call: its radius is
    certified above its class's when its lower bound exceeds the class's
    upper bound, and a proper subgraph's below it when the class's lower
    bound exceeds the subgraph's upper bound.  Every instance left is
    decided by exact largest-root comparison of the two characteristic
    polynomials (`_char_polys`); an exact tie is a violation."""
    rises, radii, by_order = [False] * len(batch), {}, {}
    for i, (*_, h) in enumerate(batch):
        by_order.setdefault(h.order, []).append(i)
    for n, idx in by_order.items():
        moves = [i for i in idx if batch[i][0] != "proper_subgraph"]
        bounds = power_step_lower(n, [batch[i][3].edges for i in moves],
                                  [batch[i][2].perron for i in moves])
        for i, low in zip(moves, bounds.tolist()):
            rises[i] = low > batch[i][2].upper
        idx = [i for i in idx if not rises[i]]
        radius, _, lower, upper = stacked_eigenpairs(
            n, len(idx), (batch[i][3].edges for i in idx))
        for i, q1, low, up in zip(idx, radius.tolist(), lower.tolist(),
                                  upper.tolist()):
            prop, _, c, _ = batch[i]
            radii[i] = q1
            rises[i] = (c.lower > up if prop == "proper_subgraph"
                        else low > c.upper)
    open_ = [i for i, rise in enumerate(rises) if not rise]
    polys = _char_polys([g for i in open_ for g in (
        (batch[i][2].n, batch[i][2].edges),
        (batch[i][3].order, batch[i][3].edges))])
    for i, before, now in zip(open_, polys[::2], polys[1::2]):
        rises[i] = (compare_largest_roots(before, now)
                    if batch[i][0] == "proper_subgraph"
                    else compare_largest_roots(now, before)) > 0
    out = []
    for i in open_:
        if not rises[i]:
            prop, t, c, h = batch[i]
            out.append({"property": prop, "trial": t,
                        "graph": graph6.encode(_path_graph(c.n, c.path)),
                        **({"sub": graph6.encode(h), "whole": c.radius,
                            "part": radii[i]} if prop == "proper_subgraph"
                           else {"before": c.radius, "after": radii[i]})})
    return out


def verify_monotonicity(trials: int = 200, seed: int = 42) -> VerificationReport:
    """Seeded random instances of the three monotonicity properties: neighbor
    shift, contraction-plus-pendant, and proper-subgraph comparison, checked
    in trial and property order.  trials and seed must be integers (see
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
