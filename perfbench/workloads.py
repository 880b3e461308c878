"""The benchmark's three workloads: census, claims and exact.

Each workload has a set-up (done before the clock starts), a list of ops that
make up one round, a list of block ops that join the first round of each
block, and a `collect` step that gathers a round's outputs, plus
anything the checks need from the program, off the clock.  Ops call cactiq
only through `cactiq.cli.main` (with the argv a user would type, stdout
captured) or through public functions, looked up on their module at call time
so the layer trace can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ESCALATION_GAP = 1e-7  # cactiq's documented float gap below which it goes exact
CAPPED_WALL_S = 30.0  # backstop for a capped op whose CPU cap never fires


class OpFailed(Exception):
    """An op that did not complete (here: a capped op stopped by its cap)."""


@dataclass
class Timed:
    """An op result whose time was measured where the work ran."""
    value: object
    wall: float
    cpu: float


def cq(module: str):
    return sys.modules[f"cactiq.{module}"]


def cli(*argv):
    """Run `cactiq <argv>` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cq("cli").main([str(a) for a in argv])
    return rc, out.getvalue()


def reset_caches():
    """Empty every functools cache held by a cactiq module, so the next
    enumeration starts cold."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cactiq" or name.startswith("cactiq.")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Census:
    """Cold enumeration n = 1..max_n and every matching and pendant filter at
    filter_n in each round; family-scale canonical coding at each ladder
    order once per block."""
    max_n: int = 10
    filter_n: int = 9
    # Each failure costs capped.py's CPU cap, so the ladder keeps one order
    # on each side of the cap (11 succeeds, 16 does not) plus the top.
    ladder: tuple = (11, 16, 64)

    name = "census"

    def setup(self, seed):
        return {"seed": seed}

    def before_round(self):
        reset_caches()

    def ops(self, state, env):
        ops = [(f"enumerate n={n}", lambda n=n: cli("enumerate", "--n", n))
               for n in range(1, self.max_n + 1)]
        n = self.filter_n
        ops += [(f"enumerate n={n} matching={m}",
                 lambda m=m: cli("enumerate", "--n", n, "--matching", m))
                for m in range(1, n // 2 + 1)]
        ops += [(f"enumerate n={n} pendants={k}",
                 lambda k=k: cli("enumerate", "--n", n, "--pendants", k))
                for k in range(n)]
        return ops

    def block_ops(self, state, env):
        return [(f"family-scale are_isomorphic n={order}",
                 lambda order=order: self._capped(order, state["seed"], env))
                for order in self.ladder]

    def _capped(self, order, seed, env):
        cmd = [sys.executable, str(HERE / "capped.py"), str(order), str(seed)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=CAPPED_WALL_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"n={order}: over {CAPPED_WALL_S} s wall") from exc
        if proc.returncode != 0:
            raise OpFailed(f"n={order}: capped (exit {proc.returncode})")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        return Timed(res["isomorphic"], res["wall"], res["cpu"])

    def collect(self, state, results):
        def lines(label):
            rc, text = results[label]
            return text.split() if rc == 0 else []
        n = self.filter_n
        return {
            "enumerate": {k: lines(f"enumerate n={k}")
                          for k in range(1, self.max_n + 1)},
            "matching": {m: lines(f"enumerate n={n} matching={m}")
                         for m in range(1, n // 2 + 1)},
            "pendants": {k: lines(f"enumerate n={n} pendants={k}")
                         for k in range(n)},
            "family_scale": {order: results[f"family-scale are_isomorphic n={order}"]
                             for order in self.ladder
                             if f"family-scale are_isomorphic n={order}" in results},
        }

    def check(self, out):
        return checks.check_census(out, self)

    def facts(self, state, results):
        return {}


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def claim_list(n: int):
    """Every extremal claim with a prediction at order n, as (claim, params).
    prop213 at even n with k = 0 has no prediction and is left out."""
    out = []
    if n % 2:
        out += [("theorem31i", {}), ("conjecture11_negative", {})]
    else:
        out += [("prop215", {})]
    out += [("theorem31ii", {"m": m}) for m in range(1, (n - 2) // 2 + 1)]
    out += [("prop213", {"k": k}) for k in range(n)
            if (n - k) % 2 or 1 <= k <= n - 2]
    out += [("theorem32", {})]
    return out


def claim_argv(claim: str, n: int, params: dict):
    argv = ["verify", "--claim", claim, "--n", n]
    for key, value in params.items():
        argv += [f"--{key}", value]
    return argv


def label(argv) -> str:
    return " ".join(str(a) for a in argv)


@dataclass(frozen=True)
class Claims:
    """`cactiq verify` for every claim at each order in ns, then the seeded
    monotonicity suite."""
    ns: tuple = (9, 10)
    trials: int = 200

    name = "claims"

    def setup(self, seed):
        count = cq("enumeration").count_cacti
        return {"seed": seed, "sizes": {n: count(n) for n in self.ns}}

    def before_round(self):
        pass

    def block_ops(self, state, env):
        return []

    def ops(self, state, env):
        ops = [(label(argv), lambda argv=argv: cli(*argv))
               for n in self.ns for argv in (claim_argv(c, n, p)
                                             for c, p in claim_list(n))]
        ops.append(("verify monotonicity",
                    lambda: cli("verify", "--claim", "monotonicity", "--trials",
                                self.trials, "--seed", state["seed"])))
        return ops

    def collect(self, state, results):
        reports = []
        for n in self.ns:
            for claim, params in claim_list(n):
                rc, text = results[label(claim_argv(claim, n, params))]
                reports.append((claim, n, params, rc, text))
        return {"reports": reports, "monotonicity": results["verify monotonicity"],
                "trials": self.trials}

    def check(self, out):
        return checks.check_claims(out, self)

    def facts(self, state, results):
        return {}


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def block_spec(family: str, s: int, k: int):
    """The block structure of Q(H(s, k)) or Q(L(s, k)) in the vertex order of
    cactiq's builders: hub, s triangle pairs, then (L only) the pendant
    path's two vertices, then the pendant block."""
    if family == "H":
        n = 2 * s + k + 1
        sizes, l, p = [1] + [2] * s, [n - 2] + [1] * s, [1] + [1] * s
        pend = k
    else:
        n = 2 * s + k + 2
        sizes, l, p = [1] + [2] * s + [1, 1], [n - 3] + [1] * s + [1, 0], \
            [1] * (s + 3)
        pend = k - 1
    if pend:
        sizes, l, p = sizes + [pend], l + [0], p + [1]
    t = len(sizes)
    sm = [[0] * t for _ in range(t)]
    for j in range(1, t):
        sm[0][j] = sm[j][0] = 1
    if family == "L":
        sm[0][s + 2] = sm[s + 2][0] = 0  # path end hangs off the path middle
        sm[s + 1][s + 2] = sm[s + 2][s + 1] = 1
    return cq("quotient").BlockSpec(sizes, l, p, sm)


def ladder_constraints(n: int):
    """The unconstrained answer and every feasible matching and pendant
    constraint at order n."""
    out = [{}]
    out += [{"matching": m} for m in range(1, n // 2 + 1)]
    out += [{"pendants": k} for k in range(n)
            if (n - k) % 2 or 1 <= k <= n - 2]
    return out


def tie_label(a: int, b: int) -> str:
    """Op label of a near-tie pair; the seed decides only the argument order."""
    return f"tie {min(a, b)}-{max(a, b)}"


@dataclass(frozen=True)
class Exact:
    """check-formulas, the extremal-answer ladder, and exact certification of
    every near-tie pair in the radius order of the class at tie_n."""
    formula_max_n: int = 24
    ladder: tuple = (16, 32, 64)
    tie_n: int = 10
    formula_samples: int = 4
    tie_samples: int = 8

    name = "exact"

    def setup(self, seed):
        graphs = cq("enumeration").enumerate_cacti(self.tie_n)
        radius = cq("spectra").graph_radius
        radii = [radius(g).radius for g in graphs]
        order = sorted(range(len(graphs)), key=lambda i: (radii[i], i))
        rng = random.Random(seed)
        pairs = []
        for lo, hi in zip(order, order[1:]):
            if radii[hi] - radii[lo] < ESCALATION_GAP:
                pairs.append((hi, lo) if rng.random() < 0.5 else (lo, hi))
        return {"seed": seed, "graphs": graphs, "radii": radii, "pairs": pairs}

    def before_round(self):
        pass

    def block_ops(self, state, env):
        return []

    def ops(self, state, env):
        ops = [("check-formulas", lambda: cli("check-formulas", "--max-n",
                                              self.formula_max_n))]
        ops += [(f"ladder n={n} {c}", lambda n=n, c=c: self._ladder_point(n, c))
                for n in self.ladder for c in ladder_constraints(n)]
        graphs = state["graphs"]
        ops += [(tie_label(a, b), lambda a=a, b=b: self._tie(graphs[a], graphs[b]))
                for a, b in state["pairs"]]
        return ops

    @staticmethod
    def _ladder_point(n, constraint):
        ans = cq("families").extremal_answer(n, **constraint)
        p = ans.params
        return (ans.maximizer, ans.radius,
                cq("spectra").graph_radius(ans.maximizer).radius,
                cq("quotient").structured_spectrum(
                    block_spec(p.family, p.s, p.k)).values())

    @staticmethod
    def _tie(a, b):
        spectra = cq("spectra")
        pa = spectra.char_poly(spectra.signless_laplacian(a))
        pb = spectra.char_poly(spectra.signless_laplacian(b))
        return cq("polynomials").compare_largest_roots(pa, pb), pa.coeffs, pb.coeffs

    def collect(self, state, results):
        rng = random.Random(state["seed"])
        families = cq("families")
        points = checks.formula_points(self.formula_max_n)
        samples = []
        for fam, s, k in rng.sample(points, min(self.formula_samples, len(points))):
            n = 2 * s + k + (1 if fam == "H" else 2)
            psi = families.psi_H if fam == "H" else families.psi_L
            g = checks.family_member(fam, s, k)
            q = checks.q_matrix(n, g.edges).astype(int).tolist()
            samples.append((f"psi_{fam}({n}, {k})", list(psi(n, k).coeffs), q))

        ladder = []
        for n in self.ladder:
            for c in ladder_constraints(n):
                label = f"ladder n={n} {c}"
                if label in results:
                    g, ans_r, g_r, spectrum = results[label]
                    ladder.append((label, n, sorted(g.edges), ans_r, g_r, spectrum))

        graphs, radii = state["graphs"], state["radii"]
        IntPolynomial = cq("polynomials").IntPolynomial
        compare = cq("polynomials").compare_largest_roots
        sampled = set(rng.sample(range(len(state["pairs"])),
                                 min(self.tie_samples, len(state["pairs"]))))
        ties = []
        for i, (a, b) in enumerate(state["pairs"]):
            label = tie_label(a, b)
            if label not in results:
                continue
            cmp, pa, pb = results[label]
            swapped = None if cmp == 0 else compare(IntPolynomial(pb), IntPolynomial(pa))
            qa = qb = None
            if i in sampled:
                qa = checks.q_matrix(self.tie_n, graphs[a].edges).astype(int).tolist()
                qb = checks.q_matrix(self.tie_n, graphs[b].edges).astype(int).tolist()
            ties.append((label, cmp, swapped, radii[a], radii[b], list(pa),
                         list(pb), qa, qb))
        return {"formulas": results["check-formulas"], "formula_samples": samples,
                "ladder": ladder, "ties": ties}

    def check(self, out):
        return checks.check_exact(out, self)

    def facts(self, state, results):
        ties = [results[tie_label(a, b)] for a, b in state["pairs"]]
        return {"near_tie_pairs": len(ties),
                "exact_ties": sum(1 for cmp, _, _ in ties if cmp == 0),
                "cospectral_pairs": sum(1 for _, pa, pb in ties if pa == pb)}


FULL = {w.name: w for w in (Census(), Claims(), Exact())}
SMALL = {w.name: w for w in (
    Census(max_n=7, filter_n=7, ladder=(11, 16)),
    Claims(ns=(6, 7), trials=10),
    Exact(formula_max_n=10, ladder=(8, 12), tie_n=8, tie_samples=2),
)}
