import json
import math

import pytest

from cactiq import graph6, verify
from cactiq.cli import main
from cactiq.enumeration import CactusFilter, enumerate_cacti
from cactiq.spectra import graph_radius
from cactiq.verify import (rank_certified, verify_conjecture11_negative,
                           verify_extremal, verify_formulas,
                           verify_monotonicity)


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


class TestRankCertified:
    def test_wide_escalation_gap_changes_nothing(self, monkeypatch):
        # with the gap at 1.0 the exact ranking decides every class at n <= 8
        # that has near rivals; verdicts and maximizers must not move
        baseline = _class_reports(8)
        calls = []

        def counting(p, q):
            calls.append(1)
            return compare(p, q)

        compare = verify.compare_largest_roots
        monkeypatch.setattr(verify, "EXACT_ESCALATION_GAP", 1.0)
        monkeypatch.setattr(verify, "compare_largest_roots", counting)
        assert _class_reports(8) == baseline
        assert calls

    def test_true_maximizer_third_in_float_order(self):
        # float noise puts the true maximizer behind two rivals inside the
        # escalation gap; comparing only the top two would pick the middle one
        pool = sorted(enumerate_cacti(5), key=lambda g: graph_radius(g).radius)
        low, mid, high = pool[0], pool[len(pool) // 2], pool[-1]
        radii = [5.0, 5.0 - 1e-9, 5.0 - 2e-9]
        best, second, gap, tie = rank_certified([low, mid, high], radii)
        assert (best, second, tie) == (2, 1, False)
        assert gap == pytest.approx(1e-9)

    def test_q_cospectral_pair_is_a_tie(self):
        # an exact tie from the n = 7 class; the float-first graph stays the
        # representative in either input order
        a, b = graph6.decode("FsOIG"), graph6.decode("FqDGO")
        for graphs in ([a, b], [b, a]):
            radii = [graph_radius(g).radius for g in graphs]
            first = 0 if radii[0] >= radii[1] else 1
            assert rank_certified(graphs, radii) == \
                (first, 1 - first, 0.0, True)

    def test_singleton_class(self):
        assert rank_certified([graph6.decode("Bw")], [4.0]) == \
            (0, None, None, False)


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


class TestFormulas:
    def test_passes_at_default_cap(self):
        r = verify_formulas(24)
        assert r.passed
        assert r.details["identity_failures"] == 0
        assert r.details["identities_checked"] > 200
        degrees = {m["first_diff_degree"] for m in r.details["legacy_mismatches"]}
        assert degrees  # every legacy point disagrees somewhere

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            verify_formulas(25)


class TestMonotonicity:
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


class TestReportDeterminism:
    def test_byte_identical_reports(self):
        a = verify_extremal("theorem31ii", 8, m=3).to_json()
        b = verify_extremal("theorem31ii", 8, m=3).to_json()
        assert a == b


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

    def test_verify_monotonicity_cli(self, capsys):
        assert main(["verify", "--claim", "monotonicity",
                     "--trials", "5", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_usage_error_exit_2(self, capsys):
        # parity violation surfaces as a usage error on stderr
        code = main(["verify", "--claim", "theorem31i", "--n", "6", "--m", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_n_exit_2(self, capsys):
        assert main(["verify", "--claim", "theorem32"]) == 2

    def test_empty_conjecture_class_exit_2(self, capsys):
        assert main(["verify", "--claim", "conjecture11_negative", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no cacti match {'n': 1, 'm': 0}\n"

    def test_check_formulas_cli(self, capsys):
        assert main(["check-formulas", "--max-n", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
