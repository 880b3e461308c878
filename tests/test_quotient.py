import random
import re

import numpy as np
import pytest

from cactiq.families import build_H, build_L
from cactiq.graph import from_edges
from cactiq.quotient import (BlockSpec, IndexPartition, SpectrumMultiset,
                             build_from_spec, is_equitable, quotient_char_poly,
                             quotient_eigenvalues, quotient_matrix,
                             spec_quotient_rows, structured_spectrum)
from cactiq.polynomials import IntPolynomial
from cactiq.spectra import char_poly, signless_laplacian
from oracles import faddeev_leverrier, list_quotient_eigenvalues

Q_C3 = signless_laplacian(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
Q_P3 = signless_laplacian(from_edges(3, [(0, 1), (1, 2)]))


def random_spec(rng, max_t=4, max_size=5, lo=-3, hi=3):
    t = rng.randint(1, max_t)
    sizes = [rng.randint(1, max_size) for _ in range(t)]
    l = [rng.randint(lo, hi) for _ in range(t)]
    p = [rng.randint(lo, hi) for _ in range(t)]
    s = [[0] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            s[i][j] = s[j][i] = rng.randint(lo, hi)
    return BlockSpec(sizes, l, p, s)


class TestIndexPartition:
    def test_valid(self):
        part = IndexPartition([(0,), (1, 2)])
        assert part.order == 3

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            IndexPartition([(0,), (2,)])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            IndexPartition([(0, 1), ()])

    def test_indices_become_ints(self):
        part = IndexPartition([np.array([0]), (True, np.int64(2))])
        assert part.blocks == ((0,), (1, 2))
        assert all(type(i) is int for b in part.blocks for i in b)

    @pytest.mark.parametrize("blocks, bad", [
        ([[0.7], [1.2]], "partition index must be an integer, got 0.7"),
        ([[0], ["1"]], "partition index must be an integer, got '1'"),
    ])
    def test_non_integer_index_rejected(self, blocks, bad):
        with pytest.raises(ValueError, match=bad):
            IndexPartition(blocks)


class TestQuotientMatrix:
    def test_c3_single_block(self):
        b = quotient_matrix(Q_C3, IndexPartition([(0, 1, 2)]))
        assert b.tolist() == [[4.0]]

    def test_c3_split(self):
        b = quotient_matrix(Q_C3, IndexPartition([(0,), (1, 2)]))
        assert b.tolist() == [[2.0, 2.0], [1.0, 3.0]]

    def test_p3_split_not_equitable_but_defined(self):
        b = quotient_matrix(Q_P3, IndexPartition([(0,), (1, 2)]))
        assert b.tolist() == [[1.0, 1.0], [0.5, 2.5]]

    def test_returns_float_array(self):
        b = quotient_matrix(Q_C3.tolist(), IndexPartition([(0,), (1, 2)]))
        assert isinstance(b, np.ndarray) and b.dtype == float
        assert b.shape == (2, 2)

    def test_wrong_cover_rejected(self):
        with pytest.raises(ValueError):
            quotient_matrix(Q_C3, IndexPartition([(0,), (1,)]))

    @pytest.mark.parametrize("m", [[[1, 0, 0], [0, 1, 0]], [1, 0], [[[1]], [[0]]]])
    def test_non_square_rejected(self, m):
        # a 2 x 3 matrix once gave a 2 x 2 "quotient" and passed as equitable
        part = IndexPartition([(0,), (1,)])
        for f in (quotient_matrix, is_equitable):
            with pytest.raises(ValueError, match="square"):
                f(m, part)


class TestIsEquitable:
    def test_c3(self):
        assert is_equitable(Q_C3, IndexPartition([(0,), (1, 2)]))

    def test_p3(self):
        assert not is_equitable(Q_P3, IndexPartition([(0,), (1, 2)]))

    def test_singletons_always(self):
        assert is_equitable(Q_P3, IndexPartition([(0,), (1,), (2,)]))


class TestBlockSpec:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            BlockSpec([1, 2], [0, 1], [2, 1], [[0, 1], [2, 0]])

    def test_sizes_become_ints(self):
        spec = BlockSpec([np.int64(1), True], [0, 1], [2, 1], [[0, 1], [1, 0]])
        assert spec.sizes == (1, 1)
        assert all(type(n) is int for n in spec.sizes)

    @pytest.mark.parametrize("size, bad", [
        (1.9, "block size must be an integer, got 1.9"),
        ("2", "block size must be an integer, got '2'"),
    ])
    def test_non_integer_size_rejected(self, size, bad):
        with pytest.raises(ValueError, match=bad):
            BlockSpec([size, 2], [0, 1], [2, 1], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("l, p, s", [
        ([2, 1], [np.nan, 0], [[0, 1], [1, 0]]),
        ([np.inf, 1], [0, 0], [[0, 1], [1, 0]]),
        ([2, 1], [0, -np.inf], [[0, 1], [1, 0]]),
        ([2, 1], [0, 0], [[0, np.inf], [np.inf, 0]]),
        ([2, 1], [0, 0], [[np.nan, 1], [1, 0]]),
    ])
    def test_non_finite_parameter_rejected(self, l, p, s):
        with pytest.raises(ValueError, match="must be finite"):
            BlockSpec([2, 1], l, p, s)

    @pytest.mark.parametrize("l, s", [
        ([10 ** 400, 1], [[0, 1], [1, 0]]),
        ([2, 1], [[0, -10 ** 400], [-10 ** 400, 0]]),
    ])
    def test_parameter_beyond_float_rejected(self, l, s):
        with pytest.raises(ValueError, match="must fit a float"):
            BlockSpec([2, 1], l, [0, 0], s)

    @pytest.mark.parametrize("l, p, s, error, message", [
        (["1", 1], [0, 0], [[0, 1], [1, 0]], TypeError,
         "must be real number, not str"),
        ([2, 1], [None, 0], [[0, 1], [1, 0]], TypeError,
         "must be real number, not NoneType"),
        ([2, 1], [0, 0], [[0, 1j], [1j, 0]], TypeError,
         "must be real number, not complex"),
        ([[2], 1], [0, 0], [[0, 1], [1, 0]], TypeError,
         "must be real number, not list"),
        ([2, 1], [0, 0], [[0, 1], [1, "nan"]], TypeError,
         "must be real number, not str"),
        # entries are read in order l, p, s: the first bad one decides
        ([np.nan, "1"], [0, 0], [[0, 1], [1, 0]], ValueError,
         "must be finite"),
        (["1", np.nan], [0, 0], [[0, 1], [1, 0]], TypeError,
         "must be real number, not str"),
        ([2, 1], [-np.inf, 0], [[0, 10 ** 400], [10 ** 400, 0]], ValueError,
         "must be finite"),
        ([10 ** 400, 1], [np.inf, 0], [[0, 1], [1, 0]], ValueError,
         "must fit a float"),
        ([2, -10 ** 400], [0, 0], [[0, 2 ** 70], [2 ** 70, 0]], ValueError,
         "must fit a float"),
        ([2, 1], [0, 0], [[0, np.float32("inf")], [1, 0]], ValueError,
         "must be finite"),
    ])
    def test_refusals_keep_their_messages(self, l, p, s, error, message):
        # the one-array check and the entry-by-entry one refuse alike
        with pytest.raises(error, match=f"^block parameters {message}$"
                           if error is ValueError else f"^{message}$"):
            BlockSpec([2, 1], l, p, s)

    @pytest.mark.parametrize("s, first", [
        ([[0, 1, 2], [1, 0, 3], [5, 4, 0]], "s[0][2] != s[2][0]"),
        ([[0, 1, 2], [1, 0, 3], [2, 4, 0]], "s[1][2] != s[2][1]"),
        ([[0, 1.5, 2], [1, 0, 3], [2, 3, 0]], "s[0][1] != s[1][0]"),
        ([[0, 2 ** 70, 1], [2 ** 70 + 1, 0, 3], [1, 3, 0]],
         "s[0][1] != s[1][0]"),
    ])
    def test_first_asymmetric_entry_named(self, s, first):
        with pytest.raises(ValueError, match=re.escape(
                f"{first}: matrix not symmetric")):
            BlockSpec([1, 2, 1], [0, 1, 0], [1, 1, 1], s)

    def test_real_parameters_of_any_type_accepted(self):
        from decimal import Decimal
        from fractions import Fraction
        spec = BlockSpec([2, 1], [Fraction(1, 2), Decimal("1.5")],
                         [np.float32(1), True], [[0, 2 ** 70], [2 ** 70, 0]])
        assert spec.s == ((0, 2 ** 70), (2 ** 70, 0))

    def test_build_j2_plus_i2(self):
        m = build_from_spec(BlockSpec([2], [1], [1], [[0]]))
        assert m.tolist() == [[2, 1], [1, 2]]

    def test_build_c3_from_blocks(self):
        spec = BlockSpec([1, 2], [0, 1], [2, 1], [[0, 1], [1, 0]])
        assert build_from_spec(spec).tolist() == Q_C3.tolist()

    def test_build_integer_spec_has_integer_dtype(self):
        spec = random_spec(random.Random(3))
        assert build_from_spec(spec).dtype.kind == "i"
        # integer-valued floats count as integer parameters
        m = build_from_spec(BlockSpec([2], [1.0], [1.0], [[0.0]]))
        assert m.dtype.kind == "i" and m.tolist() == [[2, 1], [1, 2]]

    def test_build_fractional_spec_is_float(self):
        m = build_from_spec(BlockSpec([1, 2], [0, 0.5], [2, 1], [[0, 1], [1, 0]]))
        assert m.dtype == float
        assert m.tolist() == [[2.0, 1.0, 1.0], [1.0, 1.5, 0.5], [1.0, 0.5, 1.5]]


class TestStructuredSpectrum:
    def test_j2_plus_i2(self):
        got = structured_spectrum(BlockSpec([2], [1], [1], [[0]]))
        assert got.pairs == ((pytest.approx(1.0), 1), (pytest.approx(3.0), 1))

    def test_matches_dense_on_random_specs(self):
        rng = random.Random(42)
        for _ in range(100):
            spec = random_spec(rng)
            dense = build_from_spec(spec)
            want = SpectrumMultiset.from_values(np.linalg.eigvalsh(dense))
            got = structured_spectrum(spec)
            np.testing.assert_allclose(
                got.values(), want.values(), rtol=0, atol=1e-8,
                err_msg=str((spec.sizes, spec.l, spec.p, spec.s)))

    def test_quotient_eigenvalues_embed(self):
        # every eigenvalue of an equitable quotient is an eigenvalue of M
        rng = random.Random(7)
        for _ in range(100):
            spec = random_spec(rng)
            dense = build_from_spec(spec)
            ends = np.cumsum((0,) + spec.sizes)
            part = IndexPartition(map(range, ends[:-1], ends[1:]))
            assert is_equitable(dense, part)
            b = quotient_matrix(dense, part)
            d = np.sqrt(np.array(spec.sizes, dtype=float))
            sym = b * (d[:, None] / d[None, :])
            quotient_eigs = np.linalg.eigvalsh((sym + sym.T) / 2)
            dense_eigs = np.linalg.eigvalsh(dense)
            for lam in quotient_eigs:
                assert min(abs(dense_eigs - lam)) < 1e-8


def hub_spec(s, k):
    """The two-stage block structure of Q(H(s, k)): hub, s triangle pairs,
    pendant block."""
    n = 2 * s + k + 1
    sizes = [1] + [2] * s + ([k] if k else [])
    l = [n - 2] + [1] * s + ([0] if k else [])
    p = [1] + [1] * s + ([1] if k else [])
    t = len(sizes)
    sm = [[0] * t for _ in range(t)]
    for j in range(1, t):
        sm[0][j] = sm[j][0] = 1
    return BlockSpec(sizes, l, p, sm)


def path_spec(s, k):
    """The block structure of Q(L(s, k)): hub, s triangle pairs, the pendant
    path's two vertices, then the pendant block."""
    n = 2 * s + k + 2
    sizes = [1] + [2] * s + [1, 1] + ([k - 1] if k > 1 else [])
    l = [n - 3] + [1] * s + [1, 0] + ([0] if k > 1 else [])
    t = len(sizes)
    sm = [[0] * t for _ in range(t)]
    for j in range(1, t):
        sm[0][j] = sm[j][0] = 1
    sm[0][s + 2] = sm[s + 2][0] = 0  # the path end hangs off the path middle
    sm[s + 1][s + 2] = sm[s + 2][s + 1] = 1
    return BlockSpec(sizes, l, [1] * t, sm)


class TestQuotientCharPoly:
    @staticmethod
    def assert_exact(spec):
        """The quotient's char poly equals the oracle's on its (generally
        non-symmetric) rows, and times (x - p_i)^(n_i - 1) over the blocks
        gives the dense matrix's."""
        p = quotient_char_poly(spec)
        rows = [[int(x) for x in row] for row in spec_quotient_rows(spec)]
        assert p.coeffs == tuple(faddeev_leverrier(rows))
        for p_i, n_i in zip(spec.p, spec.sizes):
            p = p * IntPolynomial((-p_i, 1)) ** (n_i - 1)
        assert p == char_poly(build_from_spec(spec))

    def test_family_specs(self):
        for s in range(8):
            for k in range(1, 10):
                for spec, g in ((hub_spec(s, k), build_H(s, k)),
                                (path_spec(s, k), build_L(s, k))):
                    assert build_from_spec(spec).tolist() == \
                        signless_laplacian(g).tolist()
                    self.assert_exact(spec)

    def test_random_signed_specs(self):
        rng = random.Random(37)
        for _ in range(100):
            self.assert_exact(random_spec(rng))


class TestTwoStageChain:
    @pytest.mark.parametrize("s,k", [(2, 0), (2, 1), (3, 2), (4, 3)])
    def test_hub_family_reduction(self, s, k):
        # beyond the 3x3 reduced quotient, the spectrum is exactly
        # 1 with multiplicity (n+k-3)/2 and 3 with multiplicity (n-k-3)/2
        n = 2 * s + k + 1
        spec = hub_spec(s, k)
        b2 = [[n - 1, 2 * s, k], [1, 3, 0], [1, 0, 1]]
        vals = list(np.linalg.eigvals(np.array(b2, dtype=float)).real)
        vals += [1.0] * ((n + k - 3) // 2) + [3.0] * ((n - k - 3) // 2)
        want = SpectrumMultiset.from_values(vals)
        np.testing.assert_allclose(structured_spectrum(spec).values(),
                                   want.values(), rtol=0, atol=1e-7)

    def test_exact_quotient_char_poly(self):
        spec = hub_spec(2, 0)
        p = quotient_char_poly(spec)
        dense = build_from_spec(spec)
        # quotient spectrum embeds: its char poly divides nothing here, but
        # each root must be an eigenvalue of the dense matrix
        roots = np.roots(list(reversed(p.coeffs)))
        dense_eigs = np.linalg.eigvalsh(dense)
        for r in roots.real:
            assert min(abs(dense_eigs - r)) < 1e-8


def test_bowtie_block_spec_matches_eigensolver():
    spec = hub_spec(2, 0)
    dense = build_from_spec(spec)
    assert dense.tolist() == signless_laplacian(build_H(2, 0)).tolist()
    got = structured_spectrum(spec)
    want = SpectrumMultiset.from_values(np.linalg.eigvalsh(dense))
    np.testing.assert_allclose(got.values(), want.values(), rtol=0, atol=1e-8)


def _family_specs(max_n):
    """Every hub_spec and path_spec of order at most max_n, s = 0 included."""
    for s in range(max_n // 2):
        for k in range(max_n - 2 * s):
            if s + k:
                yield hub_spec(s, k)
            if k and 2 * s + k + 2 <= max_n:
                yield path_spec(s, k)


def test_broadcast_quotient_bitwise_equals_list_rows():
    # every H and L spec to order 64, and random specs with float, mixed and
    # large integer parameters; past 2^52 / (max n_i + 1) the rows are used,
    # where float64 products of 2^53 + 1 or 3^34 would round twice
    rng = random.Random(38)
    specs = list(_family_specs(64))
    assert len(specs) == 2047
    for _ in range(100):
        spec = random_spec(rng, max_t=6, max_size=9)
        scale = rng.choice([1, 0.37, 2 ** 40 + 1, 2 ** 53 + 1, 3 ** 34, 3 ** 40])
        specs.append(BlockSpec(
            spec.sizes, [x * scale for x in spec.l], spec.p,
            [[x * scale for x in row] for row in spec.s]))
    for spec in specs:
        eigs = list_quotient_eigenvalues(spec)
        assert quotient_eigenvalues(spec) == eigs
        values = eigs + [float(p) for p, n in zip(spec.p, spec.sizes)
                         for _ in range(n - 1)]
        assert structured_spectrum(spec).values() == \
            SpectrumMultiset.from_values(values).values()
