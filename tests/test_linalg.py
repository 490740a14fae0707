import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from specgap.errors import InputError, SizeError
from specgap.linalg import (block_eigenvalues, classify, classify_exterior,
                            exterior_power, sort_eigenvalues, spectrum,
                            top_subset_products)

from oracles import (kronecker, predicted_spectrum, spectrum_tensor,
                     spectrum_union, spectrum_wedge)

RNG = np.random.default_rng(20240817)
SRC = Path(__file__).resolve().parent.parent / "src" / "specgap"


def eigs(m):
    """A bare matrix's spectrum, the classifiers' input."""
    return spectrum(m).eigenvalues


def random_unimodular(d, rng=RNG):
    m = rng.normal(size=(d, d))
    m = m / abs(np.linalg.det(m)) ** (1.0 / d)
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    return m


def assert_moduli_close(computed, expected, rtol=1e-6):
    computed = np.sort(np.abs(np.asarray(computed)))[::-1]
    expected = np.sort(np.abs(np.asarray(expected)))[::-1]
    assert computed.shape == expected.shape
    np.testing.assert_allclose(computed, expected, rtol=rtol)


class TestSpectrum:
    def test_diagonal(self):
        sp = spectrum(np.diag([4.0, 1.0, 1.0, 0.25]))
        assert sp.moduli == (4.0, 1.0, 1.0, 0.25)

    def test_rotation(self):
        t = 0.7
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        sp = spectrum(rot)
        np.testing.assert_allclose(sp.eigenvalues[0], complex(math.cos(t), math.sin(t)),
                                   rtol=1e-12)
        np.testing.assert_allclose(sp.singular_values, [1.0, 1.0], rtol=1e-12)

    def test_kron_of_signed_diagonals(self):
        k = kronecker(np.diag([9.0, 1, 1, 1 / 9.0]),
                      np.diag([-3.0, 1.0, -1 / 3.0]))
        sp = spectrum(k)
        assert sp.moduli[0] == pytest.approx(27.0, rel=1e-12)
        assert sp.eigenvalues[0] == pytest.approx(-27.0 + 0j, rel=1e-12)

    def test_singular_values_square_to_gram_moduli(self):
        for d in (3, 5):
            m = random_unimodular(d)
            sp = spectrum(m)
            gram = spectrum(m @ m.T).moduli
            np.testing.assert_allclose(np.array(sp.singular_values) ** 2, gram,
                                       rtol=1e-6)

    def test_moduli_product_is_determinant(self):
        m = random_unimodular(4) * 1.3
        sp = spectrum(m)
        assert np.prod(sp.moduli) == pytest.approx(abs(np.linalg.det(m)), rel=1e-8)

    def test_sort_key_is_deterministic(self):
        vals = [1 + 1j, 1 - 1j, -2 + 0j, 2 + 0j, 0.5 + 0j]
        assert sort_eigenvalues(vals) == (2 + 0j, -2 + 0j, 1 + 1j, 1 - 1j, 0.5 + 0j)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(InputError):
            spectrum(np.ones((2, 3)))
        with pytest.raises(InputError):
            spectrum(np.array([[np.inf, 0], [0, 1.0]]))

    def test_rejects_complex_entries(self):
        # a cast to float would keep only the real part
        for m in ([[0, -1 + 0.3j], [1, 0]],
                  np.array([[0, -1], [1, 0]], dtype=complex)):
            with pytest.raises(InputError, match="complex"):
                spectrum(m)

    def test_classifiers_refuse_spectra_that_are_not_finite(self):
        for values in ([], [2.0, complex(math.inf, 0.0)], [math.nan, 1.0]):
            for fn in (classify, lambda v: classify_exterior(v, 1)):
                with pytest.raises(InputError, match="finite"):
                    fn(values)

    def test_json_shape(self, strict_json):
        doc = spectrum(np.eye(2)).to_json()
        assert strict_json(doc) == {"eigenvalues": [[1.0, 0.0], [1.0, 0.0]],
                                    "moduli": [1.0, 1.0],
                                    "singular_values": [1.0, 1.0]}


def both(m, det=1.0):
    """Both eigenvalues of one 2x2 image of determinant ``det`` from the
    kernel."""
    return block_eigenvalues(np.array([m], dtype=float), np.array([det]))[0]


class TestTwoByTwoTrace:
    """The kernel's 2x2 rule on single det-1 images (the mpmath oracle over
    word balls is in test_obstruct)."""

    def test_hyperbolic(self):
        m = np.array([[3.0, 1.0], [2.0, 1.0]])
        m = m / math.sqrt(np.linalg.det(m))
        want = sort_eigenvalues(np.linalg.eigvals(m))
        assert both(m) == pytest.approx(want, rel=1e-12)

    def test_negative_trace(self):
        assert both(np.diag([-5.0, -0.2])) == pytest.approx([-5.0, -0.2])

    def test_elliptic(self):
        t = 1.0
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        top, other = both(rot)
        assert top == pytest.approx(complex(math.cos(t), math.sin(t)))
        assert other == top.conjugate()


class TestBlockEigenvalues:
    def test_widths_one_and_three(self):
        ones = np.array([[[2.0]], [[-0.5]]])
        np.testing.assert_array_equal(block_eigenvalues(ones, None),
                                      [[2.0], [-0.5]])
        m = np.diag([3.0, -1.0, 0.5])
        got = sort_eigenvalues(block_eigenvalues(m[None], None)[0])
        assert got == (3.0, -1.0, 0.5)

    def test_2x2_far_from_one_squares_nothing_that_overflows(self):
        # t^2 would overflow past 1e154; the rule runs on a power-of-two
        # scaling of the image, which is exact
        assert tuple(both(np.diag([1e200, 1e-200]))) == (1e200, 1e-200)
        m = np.array([[3.0, 1.0], [2.0, 1.0]])
        assert tuple(both(m * 2.0 ** 511, 2.0 ** 1022)) == tuple(
            z * 2.0 ** 511 for z in both(m))

    def test_images_that_are_not_finite(self):
        bad = np.full((1, 3, 3), np.inf)
        assert np.isnan(block_eigenvalues(bad, None)).all()
        two = np.array([[[np.inf, 1.0], [0.0, 1.0]]])
        assert not np.isfinite(block_eigenvalues(two, np.ones(1))).all()


class TestKronecker:
    def test_identity(self):
        np.testing.assert_array_equal(kronecker(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_products(self):
        k = kronecker(np.diag([2.0, 0.5]), np.diag([3.0, 1.0, 1 / 3.0]))
        assert_moduli_close(np.diag(k), [6, 2, 2 / 3, 3 / 2, 0.5, 1 / 6], rtol=1e-12)

    def test_eigenvalues_are_pairwise_products(self):
        a, b = random_unimodular(3), random_unimodular(4)
        got = spectrum(kronecker(a, b)).eigenvalues
        oracle = spectrum_tensor(spectrum(a).eigenvalues, spectrum(b).eigenvalues)
        assert_moduli_close(got, oracle)

    def test_singular_value_multiplicativity(self):
        a, b = random_unimodular(3), random_unimodular(4)
        sv = spectrum(kronecker(a, b)).singular_values
        sa = spectrum(a).singular_values
        sb = spectrum(b).singular_values
        assert sv[0] == pytest.approx(sa[0] * sb[0], rel=1e-6)
        assert sv[-1] == pytest.approx(sa[-1] * sb[-1], rel=1e-6)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            kronecker(np.eye(50), np.eye(50))


class TestExteriorPower:
    def test_first_power_is_identity_functor(self):
        m = random_unimodular(4)
        np.testing.assert_array_equal(exterior_power(m, 1), m)

    def test_top_power_is_determinant(self):
        m = random_unimodular(5) * 1.7
        assert exterior_power(m, 5)[0, 0] == pytest.approx(np.linalg.det(m),
                                                           rel=1e-9)

    def test_diagonal_subset_products(self):
        w = exterior_power(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(w, np.diag([6.0, 3.0, 2.0]), atol=1e-12)

    def test_functorial(self):
        a, b = random_unimodular(5), random_unimodular(5)
        for i in (2, 3):
            left = exterior_power(a @ b, i)
            right = exterior_power(a, i) @ exterior_power(b, i)
            bound = 1e-8 * np.linalg.norm(exterior_power(a, i)) * \
                np.linalg.norm(exterior_power(b, i))
            assert np.linalg.norm(left - right) <= bound

    @pytest.mark.parametrize("d", [4, 6])
    def test_spectrum_matches_subset_product_oracle(self, d):
        m = random_unimodular(d)
        eigs = spectrum(m).eigenvalues
        for i in range(2, d):
            got = spectrum(exterior_power(m, i)).moduli
            oracle = [abs(z) for z in spectrum_wedge(eigs, i)]
            assert_moduli_close(got, oracle)

    def test_top_singular_value_is_product(self):
        m = random_unimodular(5)
        sv = spectrum(m).singular_values
        for i in (2, 3):
            got = spectrum(exterior_power(m, i)).singular_values[0]
            assert got == pytest.approx(np.prod(sv[:i]), rel=1e-6)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_determinant_power_identity(self, d):
        m = random_unimodular(d) * 1.21
        det = np.linalg.det(m)
        for i in range(1, d + 1):
            got = np.linalg.det(exterior_power(m, i))
            assert got == pytest.approx(det ** math.comb(d - 1, i - 1), rel=1e-6)

    def test_index_range(self):
        with pytest.raises(InputError):
            exterior_power(np.eye(3), 0)
        with pytest.raises(InputError):
            exterior_power(np.eye(3), 4)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            exterior_power(np.eye(30), 15)


class TestClassify:
    def test_identity(self):
        pc = classify(eigs(np.eye(4)))
        assert pc.positively_semiproximal and pc.semiproximal
        assert not any(pc.proximal)
        assert pc.top_multiplicity == 4

    def test_signed_diagonal(self):
        pc = classify(eigs(np.diag([-5.0, 2.0, 0.5, -0.1])))
        assert pc.is_proximal_at(1)
        assert pc.top_eigenvalue == pytest.approx(-5.0 + 0j)
        assert pc.semiproximal and not pc.positively_semiproximal
        assert not pc.indeterminate

    def test_rotation_pair_not_semiproximal(self):
        t = 1.0
        m = np.diag([2.0, 1.0]) @ np.eye(2)
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        pc = classify(eigs(np.kron(np.eye(1), 2.0 * rot) * 1.0))
        assert not pc.semiproximal and not pc.positively_semiproximal
        del m

    def test_conjugation_invariance(self):
        m = np.diag([-3.0, 2.0, 1.0, -0.5, 0.1])
        rng = np.random.default_rng(5)
        for _ in range(10):
            q1, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            q2, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            # condition number <= 1e3 by construction
            p = q1 @ np.diag(np.exp(rng.uniform(-3.45, 3.45, size=5))) @ q2
            pc0 = classify(eigs(m))
            pc1 = classify(eigs(p @ m @ np.linalg.inv(p)))
            assert pc0.proximal == pc1.proximal
            assert pc0.semiproximal == pc1.semiproximal
            assert pc0.positively_semiproximal == pc1.positively_semiproximal

    def test_gray_zone_flags_indeterminate(self):
        pc = classify(eigs(np.diag([1.0, 1.0 - 5e-6, 0.1])), tol=1e-6)
        assert pc.indeterminate

    def test_json_shape(self, strict_json):
        doc = classify(eigs(np.diag([-4.0, 2.0, 0.5, 0.125]))).to_json()
        assert strict_json(doc) == {
            "dim": 4, "tol": 1e-6, "proximal": [True, True, True],
            "semiproximal": True, "positively_semiproximal": False,
            "top_eigenvalue": [-4.0, 0.0], "top_modulus": 4.0,
            "top_multiplicity": 1, "top_moduli": [4.0, 2.0, 0.5, 0.125],
            "indeterminate": False,
        }


class TestClassifyExterior:
    @staticmethod
    def _oracle_cases(rng):
        """(matrix, rtol) pairs: random unimodular matrices, then conjugated
        block diagonals of signed scalars and rotation blocks drawn from few
        moduli and angles, so that modulus ties (and angle coincidences) are
        common.  The minors of a conjugated matrix lose digits on the smaller
        moduli, hence the looser tolerance there."""
        for d in (4, 5, 6, 6, 7):
            yield random_unimodular(d, rng), 1e-8
        for _ in range(60):
            d = int(rng.integers(2, 8))
            m = np.zeros((d, d))
            k = 0
            while k < d:
                r = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
                if d - k >= 2 and rng.random() < 0.5:
                    t = float(rng.choice([0.7, 1.3, math.pi - 0.7]))
                    m[k:k + 2, k:k + 2] = r * np.array(
                        [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                    k += 2
                else:
                    m[k, k] = r * rng.choice([-1.0, 1.0])
                    k += 1
            p = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
            yield p @ m @ np.linalg.inv(p), 1e-5

    def test_matches_exterior_power_oracle(self):
        # classify() of the dense minor matrix's spectrum is the oracle;
        # compare wherever both answers are decisive
        compared = skipped = 0
        for m, rtol in self._oracle_cases(np.random.default_rng(11)):
            d = m.shape[0]
            for i in range(1, d + 1):
                got = classify_exterior(eigs(m), i)
                want = classify(eigs(exterior_power(m, i)))
                assert got.method == "subset-products"
                if want.indeterminate or got.indeterminate:
                    skipped += 1
                    continue
                compared += 1
                assert got.p1_proximal == (want.proximal[:1] == (True,))
                assert got.semiproximal == want.semiproximal
                assert got.positively_semiproximal == want.positively_semiproximal
                assert got.top_multiplicity == want.top_multiplicity
                assert got.top_modulus == pytest.approx(want.top_modulus, rel=rtol)
                np.testing.assert_allclose(got.top_moduli, want.top_moduli,
                                           rtol=rtol)
                if got.p1_proximal:
                    assert got.top_eigenvalue == pytest.approx(
                        want.top_eigenvalue, rel=rtol)
        assert compared > 10 * skipped

    def test_tie_cluster_past_any_cap(self):
        # all C(25, 10) top products have modulus 1024 and C(24, 10) of
        # them equal +1024
        cls = classify_exterior(eigs(np.diag([2.0] + [-2.0] * 24)), 10)
        assert cls.positively_semiproximal and cls.semiproximal
        assert not cls.indeterminate and not cls.p1_proximal
        assert cls.top_multiplicity == math.comb(25, 10) == 3_268_760
        assert cls.top_modulus == pytest.approx(1024.0)

    def test_halves_of_two_pairs_are_indeterminate(self):
        # below a -3, the class of modulus 2 holds two rotation pairs; the
        # third power's top products take two of its four members
        def block(t):
            return 2.0 * np.array([[math.cos(t), -math.sin(t)],
                                   [math.sin(t), math.cos(t)]])
        for t2 in (1.9, math.pi - 0.7):
            m = np.zeros((6, 6))
            m[0, 0], m[5, 5] = -3.0, 0.1
            m[1:3, 1:3], m[3:5, 3:5] = block(0.7), block(t2)
            cls = classify_exterior(eigs(m), 3)
            assert cls.indeterminate and not cls.positively_semiproximal
            assert cls.top_multiplicity == math.comb(4, 2)
        # at angles 0.7 and pi - 0.7 two halves multiply to -4, so a top
        # product is +48; at 0.7 and 1.9 none is real and positive
        assert classify(eigs(exterior_power(m, 3))).positively_semiproximal
        # taking one member, or all but one, never multiplies two halves
        assert not classify_exterior(eigs(m), 2).indeterminate
        assert not classify_exterior(eigs(m), 4).indeterminate

    def test_closed_form_cluster_on_large_diagonal(self):
        # classes: -3, 3 x7 | -1 x20 | 0.25 x32 (d = 60); at index 18 the top
        # cluster takes the eight 3s and ten of the twenty -1s
        m = np.diag([-3.0] + [3.0] * 7 + [-1.0] * 20 + [0.25] * 32)
        cls = classify_exterior(eigs(m), 18)
        assert cls.top_multiplicity == math.comb(20, 10) == 184_756
        assert cls.top_modulus == pytest.approx(3.0 ** 8)
        assert cls.semiproximal and not cls.positively_semiproximal
        assert not cls.indeterminate and not cls.p1_proximal
        whole = classify_exterior(eigs(m), 8)
        assert whole.p1_proximal and whole.top_multiplicity == 1
        assert whole.top_eigenvalue == pytest.approx(-(3.0 ** 8))
        assert not whole.positively_semiproximal
        assert (classify_exterior(eigs(m), 40).top_multiplicity
                == math.comb(32, 12))

    def test_json_shape(self, strict_json):
        # a p1-proximal power with a negative real top eigenvalue
        doc = classify_exterior(eigs(np.diag([-4.0, 2.0, 0.5, 0.125])),
                                2).to_json()
        assert strict_json(doc) == {
            "index": 2, "method": "subset-products", "p1_proximal": True,
            "semiproximal": True, "positively_semiproximal": False,
            "top_eigenvalue": [-8.0, 0.0], "top_modulus": 8.0,
            "top_multiplicity": 1,
            "top_moduli": [8.0, 2.0, 1.0, 0.5, 0.25, 0.0625],
            "indeterminate": False, "tol": 1e-6,
        }
        # a top class of two: no single top eigenvalue
        doc = classify_exterior(eigs(np.diag([2.0, -2.0, 0.5, 0.5])),
                                1).to_json()
        assert strict_json(doc) == {
            "index": 1, "method": "subset-products", "p1_proximal": False,
            "semiproximal": True, "positively_semiproximal": True,
            "top_eigenvalue": None, "top_modulus": 2.0,
            "top_multiplicity": 2, "top_moduli": [2.0, 2.0, 0.5, 0.5],
            "indeterminate": False, "tol": 1e-6,
        }

    def test_large_dimension_uses_subset_products(self):
        m = np.diag([2.0 ** k for k in range(10, -11, -1)])  # 21x21, det 1
        cls = classify_exterior(eigs(m), 8)
        assert cls.method == "subset-products"
        assert cls.p1_proximal and cls.positively_semiproximal
        expected = float(np.prod([2.0 ** k for k in range(10, 2, -1)]))
        assert cls.top_modulus == pytest.approx(expected, rel=1e-9)


class TestSubsetProducts:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        vals = sort_eigenvalues(
            complex(a, b) for a, b in rng.normal(size=(7, 2)))
        for i in (2, 3, 4):
            brute = sorted((abs(np.prod(c)) for c in
                            itertools.combinations(vals, i)), reverse=True)
            got = [abs(z) for z in top_subset_products(vals, i, 10)]
            np.testing.assert_allclose(got, brute[:10], rtol=1e-9)


class TestPredictedSpectrum:
    def test_tensor_literal(self):
        got = predicted_spectrum(("tensor", ("lit", [1.0, 2.0]), ("lit", [3.0])))
        assert got == (6 + 0j, 3 + 0j)

    def test_wedge_literal(self):
        got = predicted_spectrum(("wedge", ("lit", [3.0, 2.0, 1.0]), 2))
        assert got == (6 + 0j, 3 + 0j, 2 + 0j)

    def test_union(self):
        got = predicted_spectrum(("union", ("lit", [1.0]), ("lit", [2.0, -2.0])))
        assert got == (2 + 0j, -2 + 0j, 1 + 0j)

    def test_diagonal_tensor_pattern_top_nine(self):
        s = -3.0
        big = ("lit", [s ** 2, 1.0, 1.0, 1.0, s ** -2])
        small = ("lit", [s, 1.0, 1.0 / s])
        got = [abs(z) for z in predicted_spectrum(("tensor", big, small))][:9]
        assert got == [27.0, 9.0, 3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]

    def test_bad_expressions(self):
        with pytest.raises(InputError):
            predicted_spectrum(("frobnicate", ("lit", [1.0])))
        with pytest.raises(InputError):
            predicted_spectrum(("tensor", ("lit", [1.0])))

    def test_union_helper_matches_block_sum(self):
        a, b = random_unimodular(3), random_unimodular(2)
        block = np.zeros((5, 5))
        block[:3, :3], block[3:, 3:] = a, b
        got = spectrum(block).eigenvalues
        oracle = spectrum_union(spectrum(a).eigenvalues, spectrum(b).eigenvalues)
        assert_moduli_close(got, oracle)


class TestEigenvalueRoutes:
    """Library code reads a word's eigenvalues through ``reps.spectra`` and
    its kernel ``block_eigenvalues`` alone; ``spectrum`` serves bare
    matrices, and the limit-set sampler and the eigenvector routines take
    their own decompositions.  Any other call of numpy's ``eig`` or
    ``eigvals`` in ``src/specgap`` is a second eigenvalue route."""

    ALLOWED = {"block_eigenvalues", "spectrum", "_eig_stack",
               "_eigenframe_2x2", "common_eigenvector_defect"}

    @staticmethod
    def _routes(tree):
        """(function, line) of each reference to numpy's eig or eigvals."""
        names = {a.asname or a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "numpy.linalg" for a in node.names
                 if a.name in ("eig", "eigvals")}

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("eig", "eigvals")
                    and ast.unparse(node.value) in ("np.linalg",
                                                    "numpy.linalg")
                    or isinstance(node, ast.Name) and node.id in names):
                yield where, node.lineno
            for child in ast.iter_child_nodes(node):
                yield from visit(child, where)
        return list(visit(tree, None))

    def test_no_other_route_calls_eig(self):
        found = {}
        for path in sorted(SRC.glob("*.py")):
            for where, line in self._routes(ast.parse(path.read_text())):
                found.setdefault(where, []).append(f"{path.name}:{line}")
        assert set(found) <= self.ALLOWED, found

    def test_the_scan_sees_every_form(self):
        code = ("from numpy.linalg import eigvals as ev\n"
                "def f(m):\n    return np.linalg.eig(m)\n"
                "def g(m):\n    return ev(m)\n"
                "def h(m):\n    return _solve(numpy.linalg.eigvals, m)\n")
        assert [w for w, _ in self._routes(ast.parse(code))] == ["f", "g", "h"]
