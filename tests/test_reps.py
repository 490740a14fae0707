import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import builders
from specgap.builders import BuildResult, build_named
from specgap.certify import gap_profile, qi_profile
from specgap.cli import main
from specgap.errors import ConstructionError, InputError, SizeError
from specgap.linalg import (MAX_DIM, predicted_spectrum, spectrum, spectrum_tensor,
                            spectrum_union)
from specgap.reproduce import verify_golden
from specgap import reps
from specgap.reps import (Character, ComplexRep2, RepSpec, axis_dilation,
                          block_sum,
                          common_eigenvector_defect, graded_products,
                          iter_ball_images, products,
                          pull_back, random_unimodular, realify_lift,
                          realify_sl2c,
                          rename_generators, restrict_rep, rotation_block_rep,
                          scale_by_character, scaled_rotation_rep,
                          schottky_sl2c, schottky_sl2r, spin_lift, spin_so31,
                          symbol_table, tensor_rep, validate_homomorphism,
                          UNIMODULAR_TOL)
from specgap.words import (Alphabet, GeneratorMap, Presentation, Word,
                           ball_count, enumerate_ball,
                           retraction_to_free_part, standard_presentation,
                           word)

RNG = np.random.default_rng(11)
PAIR = Alphabet(("a1", "b1"))

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def random_word(alphabet, length, rng):
    symbols = alphabet.symbols()
    letters = []
    while len(letters) < length:
        idx, sign = symbols[rng.integers(len(symbols))]
        if letters and letters[-1][0] == idx and letters[-1][1] == -sign:
            continue
        letters.append((idx, sign))
    return Word(alphabet, tuple(letters))


class TestRepSpec:
    def test_missing_image(self):
        with pytest.raises(InputError):
            RepSpec(PAIR, {"a1": np.eye(2)})

    def test_rejects_non_unimodular(self):
        with pytest.raises(InputError):
            RepSpec(PAIR, {"a1": np.diag([2.0, 1.0]), "b1": np.eye(2)})

    def test_gate_names_the_first_failing_label(self):
        # one batched determinant for the whole table; of two failing
        # images, the first in alphabet order is named
        abc = Alphabet(("a", "b", "c"))
        with pytest.raises(InputError, match="image of 'b' is not unimodular"):
            RepSpec(abc, {"a": np.eye(2), "b": np.diag([2.0, 1.0]),
                          "c": np.diag([3.0, 1.0])})
        with pytest.raises(InputError, match="image of 'a' is not unimodular"):
            RepSpec(Alphabet(("a", "c")), {"c": np.diag([3.0, 1.0]),
                                           "a": np.diag([2.0, 1.0])})

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InputError, match="mixed dimensions"):
            RepSpec(PAIR, {"a1": np.eye(2), "b1": np.eye(3)})

    def test_rejects_degenerate(self):
        with pytest.raises(InputError):
            RepSpec(PAIR, {"a1": np.zeros((2, 2)), "b1": np.eye(2)})

    def test_huge_entries_check_without_overflow(self):
        # |M|_F^2 = 1e320 is past the double range; the gate's slack used
        # to overflow with a RuntimeWarning, an error under pytest
        big = np.diag([1e160, 1.0, 1e-160])
        rep = RepSpec(PAIR, {"a1": big, "b1": big[::-1, ::-1]})
        assert rep.dim == 3

    @pytest.mark.parametrize("e", [1e8, 1e20, 1e150, 1e160])
    def test_rejects_scaled_unimodular_image(self, e):
        # det 8 at every scale: a slack of dim * eps * |M|_F^2 accepted it
        with pytest.raises(InputError, match="not unimodular"):
            RepSpec(PAIR, {"a1": 2 * np.diag([e, 1.0, 1 / e]),
                           "b1": np.eye(3)})

    def test_rejects_overflowing_determinant(self):
        # det = 2e360 overflows to inf, and so does the gate's slack: a
        # determinant that is not finite is refused, without a warning
        a = 1e120
        m = [[a, a, 0.0], [0.0, a, a], [a, 0.0, a]]
        with pytest.raises(InputError, match="not unimodular"):
            RepSpec(PAIR, {"a1": m, "b1": np.eye(3)})

    def test_rejects_complex_entries(self):
        # a cast to float would accept this as diag(2, 0.5)
        image = [[2 + 0.5j, 0], [0, 0.5 - 0.1j]]
        for m in (image, np.array(image)):
            with pytest.raises(InputError, match="complex"):
                RepSpec(PAIR, {"a1": m, "b1": np.eye(2)})

    def test_evaluate_homomorphism_on_random_pairs(self):
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = random_word(PAIR, int(rng.integers(1, 7)), rng)
            v = random_word(PAIR, int(rng.integers(1, 7)), rng)
            left = rep.evaluate(u * v)
            right = rep.evaluate(u) @ rep.evaluate(v)
            bound = 1e-8 * np.linalg.norm(rep.evaluate(u)) * \
                np.linalg.norm(rep.evaluate(v))
            assert np.linalg.norm(left - right) <= bound

    def test_json_roundtrip_is_exact(self):
        rep = schottky_sl2r(3, 5.0)
        doc = json.loads(json.dumps(rep.to_json()))
        back = RepSpec.from_json(doc)
        for label in rep.alphabet.names:
            np.testing.assert_array_equal(back.image(label), rep.image(label))
        assert back.digest() == rep.digest()

    @pytest.mark.parametrize("edit", [
        {"provenance": 5}, {"provenance": "ab"}, {"provenance": None},
        {"alphabet": "ab"},  # once read as the labels a and b
        {"alphabet": [["a"]]}, {"images": "ab"}, {"factors": {}}])
    def test_from_json_refuses_fields_of_the_wrong_kind(self, edit):
        doc = schottky_sl2r(2, 4.0).to_json()
        with pytest.raises(InputError):
            RepSpec.from_json(dict(doc, **edit))
        with pytest.raises(InputError):
            RepSpec.from_json([doc])

    def test_images_are_read_only(self):
        rep = schottky_sl2r(2, 4.0)
        with pytest.raises(ValueError):
            rep.image("a")[0, 0] = 99.0


# the faulty image is that of "b"; those of "a" and "c" are valid
ABC = Alphabet(("a", "b", "c"))
BEYOND_CAP = np.broadcast_to(0.0, (MAX_DIM + 1, MAX_DIM + 1))  # a view


def _det_message(det, slack="2.000e-08"):
    return (f"image of 'b' is not unimodular: det = {det!r}"
            f" (allowed deviation {slack})")


# fault -> (image of "b", RepSpec's refusal, ComplexRep2's refusal); None
# as the image leaves "b" out, None as a refusal means accepted
IMAGE_FAULTS = {
    "missing label": (None, (InputError, "missing image for generator 'b'"),
                      (InputError, "missing image for generator 'b'")),
    "non-number": ([["x", 0], [0, 1]],
                   (InputError, "image of 'b' has entries that are not numbers"),
                   (InputError, "image of 'b' has entries that are not numbers")),
    "ragged rows": ([[1, 0], [0]],
                    (InputError, "image of 'b' has rows of different lengths"),
                    (InputError, "image of 'b' has rows of different lengths")),
    "complex entries": ([[1j, 0], [0, -1j]],
                        (InputError, "image of 'b' has complex entries; a real"
                                     " matrix is required"), None),
    "not square": (np.ones((2, 3)),
                   (InputError, "image of 'b' is not square: shape (2, 3)"),
                   (InputError, "image of 'b' is not 2x2")),
    "mixed dimensions": (np.eye(3), (InputError, "generator images have mixed"
                                                 " dimensions [2, 3]"),
                         (InputError, "image of 'b' is not 2x2")),
    "over MAX_DIM": (BEYOND_CAP,
                     (SizeError, f"image of 'b' has dimension {MAX_DIM + 1},"
                                 f" over the cap {MAX_DIM}"),
                     (InputError, "image of 'b' is not 2x2")),
    "non-finite": ([[np.inf, 0], [0, 1]],
                   (InputError, "image of 'b' has non-finite entries"),
                   (InputError, _det_message(np.complex128(complex("nan+nanj")),
                                             "nan"))),
    "not unimodular": (np.diag([2.0, 1.0]),
                       (InputError, _det_message(np.float64(2.0))),
                       (InputError, _det_message(np.complex128(2.0)))),
}


class TestImageValidation:
    """The one validation of generator images (``reps._image_table``),
    shared by ``RepSpec`` and ``ComplexRep2``."""

    @pytest.mark.parametrize("kind", [RepSpec, ComplexRep2])
    @pytest.mark.parametrize("fault", sorted(IMAGE_FAULTS))
    def test_each_fault_has_its_exception_and_message(self, kind, fault):
        image, real, cplx = IMAGE_FAULTS[fault]
        images = {"a": np.eye(2), "c": np.eye(2)}
        if image is not None:
            images["b"] = image
        refusal = real if kind is RepSpec else cplx
        if refusal is None:
            assert kind(ABC, images).dim == 2
            return
        with pytest.raises(refusal[0]) as info:
            kind(ABC, images)
        assert type(info.value) is refusal[0]
        assert str(info.value) == refusal[1]

    @pytest.mark.parametrize("kind", [RepSpec, ComplexRep2])
    @pytest.mark.parametrize("fault", sorted(IMAGE_FAULTS))
    def test_of_two_faults_of_one_kind_the_first_is_named(self, kind, fault):
        image, real, cplx = IMAGE_FAULTS[fault]
        refusal = real if kind is RepSpec else cplx
        if refusal is None:
            return
        # "c" goes in first: the order named is the alphabet's
        images = {"a": np.eye(2)}
        if image is not None:
            images = {"c": image, "a": np.eye(2), "b": image}
        with pytest.raises(refusal[0], match=re.escape(refusal[1])):
            kind(ABC, images)

    def test_an_empty_image_is_refused_by_name(self):
        # it once escaped the gate as numpy's "zero-size array to reduction
        # operation maximum which has no identity"
        with pytest.raises(InputError, match=r"image of 'a' is empty: shape \(0, 0\)"):
            RepSpec(Alphabet(("a",)), {"a": np.zeros((0, 0))})
        with pytest.raises(InputError, match="image of 'b' is empty"):
            RepSpec(ABC, {"a": np.eye(2), "b": np.zeros((0, 0)), "c": np.eye(2)})
        with pytest.raises(InputError, match="image of 'a' is not 2x2"):
            ComplexRep2(Alphabet(("a",)), {"a": np.zeros((0, 0))})

    @pytest.mark.parametrize("kind", [RepSpec, ComplexRep2])
    def test_caller_arrays_are_copied(self, kind):
        rep = schottky_sl2r(3, 4.0)
        images = {l: rep.image(l).copy() for l in rep.alphabet.names}
        before = kind(rep.alphabet, images)
        fresh = kind(rep.alphabet, images)
        saved = before.stack.copy()
        if kind is RepSpec:
            digest, structure = before.digest(), before.structure
        for m in images.values():
            m *= 3.0
        np.testing.assert_array_equal(before.stack, saved)
        for k, label in enumerate(rep.alphabet.names):
            np.testing.assert_array_equal(fresh.image(label), saved[k])
        if kind is RepSpec:
            assert fresh.digest() == digest
            for got, want in zip(fresh.structure, structure):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("kind", [RepSpec, ComplexRep2])
    def test_stack_and_images_are_read_only(self, kind):
        rep = kind(ABC, {l: np.eye(2) for l in ABC.names})
        assert not rep.stack.flags.writeable
        for label in ABC.names:
            with pytest.raises(ValueError):
                rep.image(label)[0, 0] = 2.0

    def test_one_batched_det_per_construction(self, monkeypatch):
        rng = np.random.default_rng(5)
        alphabet = Alphabet(tuple(f"g{i}" for i in range(8)))
        real = {l: random_unimodular(6, rng) for l in alphabet.names}
        cplx = {l: axis_dilation(0.1 * i, 2.0 * np.exp(0.3j * i))
                for i, l in enumerate(alphabet.names)}
        det, calls = np.linalg.det, []
        monkeypatch.setattr(np.linalg, "det",
                            lambda m: calls.append(np.shape(m)) or det(m))
        RepSpec(alphabet, real)
        ComplexRep2(alphabet, cplx)
        assert calls == [(8, 6, 6), (8, 2, 2)]

    def test_one_kronecker_comparison_per_factored_construction(
            self, monkeypatch):
        left, right, t = _tensor_pair()
        images = {l: t.image(l) for l in PAIR.names}
        kron, calls = reps._kron, []
        monkeypatch.setattr(reps, "_kron",
                            lambda stacks: calls.append(len(stacks)) or kron(stacks))
        RepSpec(PAIR, images, factors=(left, right))
        assert calls == [2]


def _gate_oracle(m, whats):
    """The determinant gate's full rule on every image of a stack, with no
    early accept: the slack max(UNIMODULAR_TOL d, d eps hadamard); the
    message of the first refused image, or None."""
    dim = m.shape[-1]
    scale = np.abs(m).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    with np.errstate(all="ignore"):
        det = np.linalg.det(m)
        hadamard = np.exp(np.log(np.linalg.norm(m / scale[:, None, None],
                                                axis=2)).sum(axis=1)
                          + dim * np.log(scale))
    slack = np.maximum(UNIMODULAR_TOL * dim, dim * np.finfo(float).eps * hadamard)
    bad = ~(np.isfinite(det) & (det.real > 0)) | (np.abs(det - 1.0) > slack)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return (f"{whats[k]} is not unimodular: det = {det[k]!r} "
            f"(allowed deviation {slack[k]:.3e})")


@st.composite
def _gate_stacks(draw):
    """Stacks of k images of width d: L T with T upper triangular of
    diagonal product a target det near 1 (within a few UNIMODULAR_TOL d),
    or not positive, off-diagonal entries up to 1e8 so that the Hadamard
    slack can dominate, and L unit lower triangular; some entries NaN or
    inf; complex images with a unit phase on T's diagonal."""
    k, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cplx = draw(st.booleans())
    images = []
    for _ in range(k):
        target = 1.0 + draw(st.floats(-6, 6)) * UNIMODULAR_TOL * d
        if draw(st.integers(0, 7)) == 7:
            target = draw(st.sampled_from([0.0, -1.0, 1e-300, 2.0]))
        diag = [draw(st.floats(0.1, 10.0)) for _ in range(d - 1)]
        diag.append(target / math.prod(diag))
        size = draw(st.sampled_from([1e8, 1e4, 1.0, 0.0]))
        t = np.diag(diag).astype(complex if cplx else float)
        if cplx:
            phase = np.exp(1j * draw(st.floats(-3.2, 3.2)))
            t[0, 0] *= phase
            t[-1, -1] /= phase
        for i in range(d):
            for j in range(i + 1, d):
                t[i, j] = size * draw(st.floats(-1.0, 1.0).filter(
                    lambda u: abs(u) >= 0.5))
        lower = np.eye(d)
        for i in range(d):
            for j in range(i):
                lower[i, j] = draw(st.floats(-3.0, 3.0))
        m = lower @ t
        if draw(st.integers(0, 11)) == 11:
            m[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = \
                draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        images.append(m)
    return np.array(images)


class TestGateEarlyAccept:
    @settings(max_examples=300)
    @given(_gate_stacks())
    def test_early_accept_never_changes_a_decision(self, m):
        whats = [f"m{k}" for k in range(len(m))]
        want = _gate_oracle(m, whats)
        if want is None:
            reps._check_unimodular(m, whats)
        else:
            with pytest.raises(InputError) as info:
                reps._check_unimodular(m, whats)
            assert str(info.value) == want


class TestSchottky:
    def test_generator_moduli(self):
        rep = schottky_sl2r(2, 4.0)
        assert spectrum(rep.image("a")).moduli == pytest.approx((4.0, 0.25))
        assert spectrum(rep.image("b")).moduli == pytest.approx((16.0, 1 / 16.0))

    def test_top_modulus_grows_along_the_ball(self):
        rep = schottky_sl2r(2, 4.0)
        mins = {}
        for w in enumerate_ball(rep.alphabet, 6):
            if not w.letters or w.cyclic_reduction().letters != w.letters:
                continue
            mins.setdefault(len(w), []).append(rep.top_modulus(w))
        floor = [min(v) for _, v in sorted(mins.items())]
        assert all(b > a for a, b in zip(floor, floor[1:]))

    @pytest.mark.parametrize("case", ["scalar words", "drifted schottky"])
    def test_top_modulus_with_det_drift_matches_mpmath(self, case):
        # images of det 1 + 1.5e-8, inside the unimodular gate: b = det(a)
        # a^-1 makes every word of exponent sum 0 in a and b scalar, whose
        # top modulus a det-1 trace formula read as 1.0001732 for a b; the
        # Schottky letters scaled by sqrt(1 + 1.5e-8) keep distinct
        # eigenvalues.  Every word of the radius-5 ball against the 2x2
        # closed form of its product in 60 digits
        mpmath = pytest.importorskip("mpmath")
        if case == "scalar words":
            a = np.array([[2.0, 1.0], [1.0, 1.0 + 7.5e-9]])
            quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
            rep = RepSpec(Alphabet(("a", "b")),
                          {"a": a, "b": quarter @ a @ quarter.T})
        else:
            base = schottky_sl2r(2, 4.0)
            rep = RepSpec(base.alphabet,
                          {l: math.sqrt(1 + 1.5e-8) * base.image(l)
                           for l in base.alphabet.names})
        mats = {l: mpmath.matrix(rep.image(l).tolist())
                for l in rep.alphabet.names}
        with mpmath.workdps(60):
            for w in enumerate_ball(rep.alphabet, 5):
                m = mpmath.eye(2)
                for idx, sign in w.letters:
                    g = mats[rep.alphabet.names[idx]]
                    m = m * (g if sign > 0 else mpmath.inverse(g))
                t, det = m[0, 0] + m[1, 1], mpmath.det(m)
                disc = t * t - 4 * det
                want = (mpmath.sqrt(det) if disc < 0
                        else (abs(t) + mpmath.sqrt(disc)) / 2)
                assert abs(rep.top_modulus(w) - want) <= 1e-12 * want, str(w)

    def test_commutator_trace_is_real_and_loxodromic(self):
        rep = schottky_sl2r(2, 4.0)
        m = rep.evaluate(word(rep.alphabet, "a b a^-1 b^-1"))
        assert m.dtype.kind == "f"
        assert np.trace(m) < -2

    def test_spread_too_small_raises(self):
        with pytest.raises(ConstructionError):
            schottky_sl2r(2, 2.0)
        with pytest.raises(ConstructionError):
            schottky_sl2r(4, 4.0)

    def test_rank_and_spread_validation(self):
        with pytest.raises(InputError):
            schottky_sl2r(5, 10.0)
        with pytest.raises(InputError):
            schottky_sl2r(2, 1.0)

    def test_complex_family(self):
        rep = schottky_sl2c(2, 4.0)
        m = rep.image("a")
        assert abs(np.linalg.det(m) - 1) < 1e-10
        vals = np.abs(np.linalg.eigvals(m))
        assert sorted(vals) == pytest.approx([0.25, 4.0])
        assert np.abs(m.imag).max() > 1e-4

    def test_pingpong_report_recorded(self):
        rep = schottky_sl2r(2, 4.0)
        assert rep.provenance["pingpong"]["verified"]


class TestSpin:
    def test_identity(self):
        np.testing.assert_allclose(spin_so31(np.eye(2)), np.eye(4), atol=1e-12)

    def test_real_diagonal(self):
        s = spin_so31(np.diag([2.0, 0.5]))
        assert spectrum(s).moduli == pytest.approx((4.0, 1.0, 1.0, 0.25))
        assert np.linalg.det(s) == pytest.approx(1.0)

    def test_unitary_rotation_gives_moduli_one(self):
        g = np.diag([np.exp(0.6j), np.exp(-0.6j)])
        s = spin_so31(g)
        np.testing.assert_allclose(np.abs(np.linalg.eigvals(s)), 1.0, atol=1e-10)

    def test_preserves_signature_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g = g / np.sqrt(np.linalg.det(g))
            s = spin_so31(g)
            np.testing.assert_allclose(s.T @ ETA @ s, ETA, atol=1e-8)

    def test_homomorphism(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g = g / np.sqrt(np.linalg.det(g))
            h = h / np.sqrt(np.linalg.det(h))
            np.testing.assert_allclose(spin_so31(g @ h),
                                       spin_so31(g) @ spin_so31(h), atol=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            spin_so31(np.diag([2.0, 1.0]))

    def test_lift_of_a_wider_table_is_refused(self):
        with pytest.raises(InputError, match="spin input is not 2x2"):
            spin_lift(RepSpec(PAIR, {"a1": np.eye(3), "b1": np.eye(3)}))

    @staticmethod
    def _per_entry(m):
        """The spin image entry by entry: Re tr(sigma_j m sigma_k m*) / 2."""
        out = np.empty((4, 4))
        conj = [m @ s @ m.conj().T for s in reps._SIGMA]
        for j in range(4):
            for k in range(4):
                out[j, k] = (0.5 * np.trace(reps._SIGMA[j] @ conj[k])).real
        return out

    @pytest.mark.parametrize("kind", ["complex", "real", "imaginary"])
    def test_stack_matches_the_per_entry_formula(self, kind):
        # bit for bit, signs of zero included: real and purely imaginary
        # inputs give exact zeros
        rng = np.random.default_rng(12)
        g = {"complex": rng.normal(size=(500, 2, 2))
             + 1j * rng.normal(size=(500, 2, 2)),
             "real": rng.normal(size=(500, 2, 2)).astype(complex),
             "imaginary": 1j * rng.normal(size=(500, 2, 2))}[kind]
        g /= np.sqrt(np.linalg.det(g))[:, None, None]
        want = np.array([self._per_entry(m) for m in g])
        assert reps._spin(g).tobytes() == want.tobytes()


class TestRealify:
    def test_real_input_doubles_spectrum(self):
        g = np.array([[3.0, 1.0], [1.0, 0.5]])
        g = g / math.sqrt(np.linalg.det(g))
        r = realify_sl2c(g)
        got = spectrum(r).moduli
        base = spectrum(g).moduli
        assert got == pytest.approx((base[0], base[0], base[1], base[1]))

    def test_imaginary_diagonal(self):
        r = realify_sl2c(np.array([[2j, 0], [0, -0.5j]]))
        assert spectrum(r).moduli == pytest.approx((2.0, 2.0, 0.5, 0.5))
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_homomorphism(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g = g / np.sqrt(np.linalg.det(g))
            h = h / np.sqrt(np.linalg.det(h))
            np.testing.assert_allclose(realify_sl2c(g @ h),
                                       realify_sl2c(g) @ realify_sl2c(h),
                                       atol=1e-8)

    def test_lift(self):
        crep = schottky_sl2c(2, 4.0)
        lifted = realify_lift(crep)
        assert lifted.dim == 4
        doubled = spectrum(lifted.image("a")).moduli
        assert doubled[0] == pytest.approx(doubled[1])


SL2C_INPUTS = {
    "image": lambda g: ComplexRep2(Alphabet(("a",)), {"a": g}),
    "spin input": spin_so31,
    "realification input": realify_sl2c,
}


class TestSL2CGate:
    """2x2 complex images and the inputs of both lifts meet RepSpec's
    unimodular gate: a slack that widens with the rounding of the computed
    determinant, and a refusal of every determinant that is not finite or
    has no positive real part."""

    @pytest.mark.parametrize("spread", [30.0, 100.0])
    def test_wide_loxodromic_families_build(self, spread):
        # at spread 30 the det computes as 0.99999998+1.4e-9j, within the
        # rounding of entries near spread^4 but outside a fixed 1e-8
        rep = schottky_sl2c(4, spread)
        assert realify_lift(rep).dim == 4
        # the spin lift's det computes as 0.0 against a slack near 6e10: its
        # sign is not resolved, so the real 4x4 gate refuses it
        with pytest.raises(InputError, match="not unimodular"):
            spin_lift(rep)

    @pytest.mark.parametrize("z", [1e6, 1e8])
    def test_lifts_accept_large_dilations(self, z):
        # at z = 1e8 the det computes as 1.18+0.04j, within its rounding
        g = axis_dilation(0.3, z * np.exp(0.4j))
        assert np.all(np.isfinite(spin_so31(g)))
        assert np.all(np.isfinite(realify_sl2c(g)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("what", sorted(SL2C_INPUTS))
    def test_non_finite_entries_refused(self, what, bad):
        # a NaN det once compared false against the tolerance and passed
        g = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InputError, match=f"{what}.* is not unimodular"):
            SL2C_INPUTS[what](g)

    @pytest.mark.parametrize("e", [1e8, 1e20, 1e150])
    @pytest.mark.parametrize("what", sorted(SL2C_INPUTS))
    def test_scaled_unimodular_input_refused(self, what, e):
        g = 2 * np.diag([e, 1 / e]).astype(complex)
        with pytest.raises(InputError, match="not unimodular"):
            SL2C_INPUTS[what](g)

    @pytest.mark.parametrize("what", sorted(SL2C_INPUTS))
    def test_determinant_without_positive_real_part_refused(self, what):
        with pytest.raises(InputError, match="not unimodular"):
            SL2C_INPUTS[what](np.diag([1j, 1j]))

    def test_wrong_shape_refused(self):
        for what, take in SL2C_INPUTS.items():
            with pytest.raises(InputError, match="not 2x2"):
                take(np.eye(3, dtype=complex))

    @pytest.mark.parametrize("g,why", [
        ([["x", 0], [0, 1]], "entries that are not numbers"),
        ([[1, 0], [0]], "rows of different lengths"),
        ([[None, 0], [0, 1]], "entries that are not numbers"),
    ])
    @pytest.mark.parametrize("what", sorted(SL2C_INPUTS))
    def test_malformed_input_refused(self, what, g, why):
        # once a bare ValueError, or for None a NaN determinant
        with pytest.raises(InputError, match=f"{what}.* has {why}"):
            SL2C_INPUTS[what](g)

    def test_renamed_complex_rep_keeps_its_kind(self):
        rep = rename_generators(schottky_sl2c(2, 4.0), PAIR)
        assert isinstance(rep, ComplexRep2)
        assert rep.alphabet == PAIR


class TestComposites:
    def test_block_sum_diagonal(self):
        r1 = RepSpec(PAIR, {"a1": np.diag([2.0, 0.5]), "b1": np.eye(2)})
        r2 = RepSpec(PAIR, {"a1": np.diag([3.0, 1 / 3.0]), "b1": np.eye(2)})
        s = block_sum([r1, r2])
        np.testing.assert_allclose(np.diag(s.image("a1")), [2, 0.5, 3, 1 / 3.0])

    def test_block_sum_spectrum_union(self):
        r1 = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        r2 = rename_generators(schottky_sl2r(2, 9.0), PAIR)
        s = block_sum([r1, r2])
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = random_word(PAIR, int(rng.integers(1, 6)), rng)
            got = spectrum(s.evaluate(w)).moduli
            oracle = spectrum_union(spectrum(r1.evaluate(w)).eigenvalues,
                                    spectrum(r2.evaluate(w)).eigenvalues)
            np.testing.assert_allclose(got, [abs(z) for z in oracle], rtol=1e-8)

    def test_block_sum_alphabet_mismatch(self):
        r1 = schottky_sl2r(2, 4.0)
        r2 = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        with pytest.raises(InputError):
            block_sum([r1, r2])

    def test_scale_by_trivial_character(self):
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        out = scale_by_character(rep, Character.trivial(PAIR), -0.25)
        assert out.dim == 3
        for label in PAIR.names:
            np.testing.assert_allclose(out.image(label)[:2, :2],
                                       rep.image(label))
            assert out.image(label)[2, 2] == pytest.approx(1.0)

    def test_scale_keeps_unimodularity(self):
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        eps = Character(PAIR, {"a1": 7.3, "b1": 0.2})
        out = scale_by_character(rep, eps, -0.5)
        for label in PAIR.names:
            assert np.linalg.det(out.image(label)) == pytest.approx(1.0, abs=1e-10)
        assert out.provenance["appended_exponent"] == "1"

    def test_tensor_with_trivial_line(self):
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        one = RepSpec(PAIR, {"a1": np.eye(1), "b1": np.eye(1)})
        t = tensor_rep(rep, one)
        for label in PAIR.names:
            np.testing.assert_allclose(t.image(label), rep.image(label))

    def test_tensor_spectrum_oracle_on_words(self):
        # moderate spreads keep the tensor's dynamic range inside what the
        # eigensolver resolves at 1e-6 relative
        r1 = rename_generators(schottky_sl2r(2, 2.5), PAIR)
        r2 = rename_generators(realify_lift(schottky_sl2c(2, 2.6)), PAIR)
        t = tensor_rep(r1, r2)
        assert [f.dim for f in t.factors] == [2, 4]
        rng = np.random.default_rng(6)
        for _ in range(100):
            w = random_word(PAIR, int(rng.integers(1, 5)), rng)
            got = spectrum(t.evaluate(w)).moduli
            oracle = np.sort(np.abs(spectrum_tensor(
                spectrum(r1.evaluate(w)).eigenvalues,
                spectrum(r2.evaluate(w)).eigenvalues)))[::-1]
            # moduli far below the top sit under the solver resolution floor
            np.testing.assert_allclose(got, oracle, rtol=1e-6,
                                       atol=1e-9 * oracle[0])

    def test_tensor_sigma1_multiplicativity(self):
        r1 = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        r2 = rename_generators(schottky_sl2r(2, 7.0), PAIR)
        t = tensor_rep(r1, r2)
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = random_word(PAIR, int(rng.integers(1, 6)), rng)
            s1 = spectrum(t.evaluate(w)).singular_values[0]
            assert s1 == pytest.approx(
                spectrum(r1.evaluate(w)).singular_values[0]
                * spectrum(r2.evaluate(w)).singular_values[0], rel=1e-6)


def _tensor_pair():
    """A 4x4 and a 3x3 representation of (a1, b1) and their tensor."""
    rng = np.random.default_rng(31)
    left = RepSpec(PAIR, {l: random_unimodular(4, rng) for l in PAIR.names})
    right = scaled_rotation_rep(PAIR, 1.7, 0.8, 1.1)
    return left, right, tensor_rep(left, right)


class TestFactors:
    def test_tensor_carries_its_factors(self):
        left, right, t = _tensor_pair()
        assert t.factors == (left, right)
        assert left.factors == right.factors == ()
        for label in PAIR.names:
            np.testing.assert_array_equal(
                t.image(label), np.kron(left.image(label), right.image(label)))

    def test_factors_of_factors_are_flattened(self):
        left, right, t = _tensor_pair()
        line = RepSpec(PAIR, {"a1": np.diag([2.0, 0.5]), "b1": np.eye(2)})
        nested = tensor_rep(t, line)
        assert nested.factors == (left, right, line)
        assert nested.dim == 24

    def test_derived_reps_carry_no_factors(self):
        _, _, t = _tensor_pair()
        derived = [
            pull_back(t, GeneratorMap.identity(PAIR)),
            block_sum([t, t]),
            scale_by_character(t, Character.trivial(PAIR), -0.25),
            restrict_rep(t, ("a1",)),
            rename_generators(t, Alphabet(("x", "y"))),
        ]
        assert all(d.factors == () for d in derived)

    def test_json_round_trip_keeps_the_factors(self):
        left, right, t = _tensor_pair()
        doc = json.loads(json.dumps(t.to_json()))
        assert [f["dim"] for f in doc["factors"]] == [4, 3]
        back = RepSpec.from_json(doc)
        assert back.digest() == t.digest()
        for got, want in zip(back.factors, (left, right)):
            assert got.digest() == want.digest()
        assert "factors" not in left.to_json()

    def test_factors_must_multiply_to_the_images_exactly(self):
        left, right, t = _tensor_pair()
        images = {l: t.image(l).copy() for l in PAIR.names}
        images["b1"][0, 0] = np.nextafter(images["b1"][0, 0], np.inf)
        with pytest.raises(InputError, match="Kronecker"):
            RepSpec(PAIR, images, factors=(left, right))
        # the same images in the other order are another matrix
        with pytest.raises(InputError, match="Kronecker"):
            RepSpec(PAIR, {l: t.image(l) for l in PAIR.names},
                    factors=(right, left))

    def test_factor_dims_and_alphabet_are_checked(self):
        left, right, t = _tensor_pair()
        images = {l: t.image(l) for l in PAIR.names}
        with pytest.raises(InputError, match="multiply to the dimension"):
            RepSpec(PAIR, images, factors=(left,))
        with pytest.raises(InputError, match="alphabet"):
            RepSpec(PAIR, images, factors=(
                left, rename_generators(right, Alphabet(("x", "y")))))


def _nearest_match(got, want, scale):
    """Largest distance, over ``scale``, from each value of ``got`` to its
    nearest unmatched value of ``want``, each matched once."""
    want, worst = list(want), 0.0
    for z in got:
        k = min(range(len(want)), key=lambda j: abs(want[j] - z))
        worst = max(worst, abs(want.pop(k) - z) / scale)
    return worst


class TestSpectra:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", [
        "prop42_sl4", "prop42_sl6", "thm1i_d5", "thm1i_d6", "thm1i_dge7",
        "thm1ii_d12", "thm41_pattern"])
    def test_matches_the_block_algebra_and_the_whole_image(self, name, seed):
        # every declared witness of every named build: spectra against the
        # union (blocks) and tensor (factors) algebra on each block image's
        # own eigvals, and against eigvals of the whole image.  eigvals is
        # accurate to eps |image|, not on each eigenvalue: on the d6 witness
        # it gives 0 where the 2x2 closed form gives -3.7253630598e-15, the
        # 60-digit value; so distances are relative to the top modulus
        result = build_named(name, None, seed=seed)
        rep = result.rep
        keys = sorted(result.manifest["witnesses"])
        words = [result.witness(k) for k in keys]
        for w, got in zip(words, reps.spectra(rep, words)):
            factors = []
            for f in rep.factors or (rep,):
                image = f.evaluate(w)
                factors.append(("union",) + tuple(
                    ("lit", spectrum(image[np.ix_(b, b)]).eigenvalues)
                    for b in reps._blocks(symbol_table(f))))
            expr = factors[0]
            for factor in factors[1:]:
                expr = ("tensor", expr, factor)
            top = abs(got[0])
            assert len(got) == rep.dim and got == tuple(sorted(
                got, key=lambda z: (-abs(z), -z.real, -z.imag)))
            assert _nearest_match(got, predicted_spectrum(expr), top) <= 1e-9
            whole = spectrum(rep.evaluate(w)).eigenvalues
            assert _nearest_match(got, whole, top) <= 1e-9, (name, str(w))

    @pytest.mark.parametrize("name", ["prop42_sl6", "thm1ii_d12",
                                      "thm41_pattern"])
    def test_factors_removed_give_the_same_certificate(self, name):
        # without its factors a tensor build is read from the blocks of
        # its whole images; coverage, covering witnesses and top
        # multiplicities stay
        for seed in (0, 3):
            result = build_named(name, None, seed=seed)
            doc = result.rep.to_json()
            assert doc.pop("factors")
            bare = RepSpec.from_json(doc)
            assert not bare.factors
            reports = [verify_golden(BuildResult(rep, result.manifest))
                       for rep in (result.rep, bare)]
            assert [r["passed"] for r in reports] == [True, True]
            entries = [[(e["covered"], e["witness"], e["classification"]
                         and e["classification"]["top_multiplicity"])
                        for e in r["certificate"]["entries"]]
                       for r in reports]
            assert entries[0] == entries[1]

    def test_structure_stacks_the_blocks_of_one_width(self):
        # a factor's blocks of one width are one table, and reading a word
        # through it gives each block's image and determinant bit for bit
        rep = build_named("thm41_pattern", {"n": 15}, seed=7).rep
        assert [[t.shape for t in f] for f in rep.structure] == [
            [(8, 15, 1, 1)], [(8, 1, 3, 3)]]
        rep = build_named("prop42_sl4", None, seed=0).rep
        ((table,),) = rep.structure
        assert table.shape == (8, 2, 2, 2)
        codes = np.array([[0, 3, 5, 2, 6], [7, 7, 1, 4, 4]])
        (stacked,) = reps.word_images(rep.structure, codes)
        dets = reps.word_dets(table, codes)
        for k in range(2):
            block = np.ascontiguousarray(table[:, k])
            (alone,) = reps.word_images(((block,),), codes)
            assert stacked[:, k].tobytes() == alone.tobytes()
            assert dets[:, k].tobytes() == reps.word_dets(block, codes).tobytes()

    def test_identity_and_repeated_words(self):
        rep = schottky_sl2r(2, 4.0)
        a = word(rep.alphabet, "a")
        e = Word.identity(rep.alphabet)
        got = reps.spectra(rep, [a, e, a])
        assert got[0] is got[2] and got[1] == (1.0, 1.0)
        assert got[0] == pytest.approx((4.0, 0.25))


SEVEN_BUILDS = ("prop42_sl4", "prop42_sl6", "thm1i_d5", "thm1i_d6",
                "thm1i_dge7", "thm1ii_d12", "thm41_pattern")


@functools.cache
def _walked_rep(name):
    """A named build at seed 3, or the complex ambient family."""
    if name == "ambient":
        return builders._search_pair(4.0)[1]
    return build_named(name, None, seed=3).rep


class TestLetterTable:
    @pytest.mark.parametrize("name", ["thm1i_d6", "thm1i_dge7", "thm1ii_d12"])
    def test_table_inverses_are_inv_of_each_image(self, name):
        # the batched inverses are each the one inv takes of the image alone
        rep = build_named(name, None, seed=3).rep
        for f in (rep, *rep.factors):
            for k, label in enumerate(f.alphabet.names):
                assert f.table[2 * k].tobytes() == f.image(label).tobytes()
                assert (f.table[2 * k + 1].tobytes()
                        == np.linalg.inv(f.image(label)).tobytes())

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(SEVEN_BUILDS + ("ambient",)),
           picks=st.lists(st.integers(0, 1 << 20), max_size=10))
    def test_one_walk_makes_every_word_image(self, name, picks):
        # evaluate, the stacked walk and the ball sweep's step agree bit
        # for bit on random reduced words, the identity word included
        rep = _walked_rep(name)
        codes = []
        for pick in picks:
            allowed = [c for c in range(len(rep.table))
                       if not codes or c != codes[-1] ^ 1]
            codes.append(allowed[pick % len(allowed)])
        image = rep.evaluate(Word.from_codes(rep.alphabet, codes))
        rows = np.array(codes, np.intp).reshape(1, -1)
        (state,), step = products(rep.table)
        for c in codes:
            (state,) = step((state,), np.zeros(1, np.intp), np.array([c]))
        assert image.dtype == np.dtype(rep.dtype) == state.dtype
        assert image.tobytes() == state[0].tobytes()
        assert image.tobytes() == reps.word_products(rep.table, rows)[0].tobytes()
        if not codes:
            assert image.flags.writeable
            np.testing.assert_array_equal(image, np.eye(rep.dim))
            image[0, 0] = 7.0
            assert rep.evaluate(Word.identity(rep.alphabet))[0, 0] == 1.0

    def test_table_is_made_once_on_first_use(self, monkeypatch, tmp_path):
        # construction and loading invert nothing; the first word product
        # inverts the letters once, in one batched call per representation
        # (per factor for the spectra of a tensor build), and no later call
        # inverts again
        plain = build_named("thm1i_dge7", None, seed=3).rep.to_json()
        tensor = build_named("prop42_sl6", None, seed=3).rep.to_json()
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(tensor))
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: calls.append(np.shape(a)) or inv(a))
        ambient = builders._search_pair(4.0)[1]
        RepSpec(ABC, {l: np.eye(2) for l in ABC.names})
        RepSpec.from_json(plain)
        RepSpec.load(path)
        assert calls == []
        alphabet = Alphabet(tuple(plain["alphabet"]))
        w = word(alphabet, "a1 b1^-1 a2")
        uses = [lambda r: r.evaluate(w), symbol_table,
                lambda r: reps.spectra(r, [w]),
                lambda r: validate_homomorphism(r, Presentation(alphabet, (w,)))]
        for first in uses:
            rep = RepSpec.from_json(plain)
            for use in [first, first, *uses]:
                use(rep)
                assert len(calls) == 1
            assert not rep.table.flags.writeable
            with pytest.raises(ValueError):
                rep.table[0, 0, 0] = 0.0
            calls.clear()
        rep = RepSpec.load(path)
        v = word(rep.alphabet, "a1 a2^-1 a3")
        reps.spectra(rep, [v, v.inverse()])
        reps.spectra(rep, [v])
        assert calls == [(4, 2, 2), (4, 3, 3)]
        rep.evaluate(v)
        rep.evaluate(v)
        assert calls[2:] == [(4, 6, 6)]
        ambient.evaluate(Word.from_codes(ambient.alphabet, [1, 3]))
        ambient.evaluate(Word.from_codes(ambient.alphabet, [3]))
        assert calls[3:] == [(8, 2, 2)]


class TestPullBack:
    def test_identity_map(self):
        from specgap.words import GeneratorMap
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        back = pull_back(rep, GeneratorMap.identity(PAIR))
        for label in PAIR.names:
            np.testing.assert_allclose(back.image(label), rep.image(label))

    def test_retraction_pullback_fixes_free_part(self):
        retr = retraction_to_free_part(1)
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        pulled = pull_back(rep, retr)
        for label in ("a1", "b1"):
            np.testing.assert_allclose(pulled.image(label), rep.image(label))
        np.testing.assert_allclose(pulled.image("c1"), rep.image("b1"))

    def test_alphabet_mismatch(self):
        retr = retraction_to_free_part(2)
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        with pytest.raises(InputError):
            pull_back(rep, retr)


class TestRotationBlocks:
    ABCD = Alphabet(("a1", "a2", "a3", "a4"))

    def test_rotation_images(self):
        rep = rotation_block_rep(self.ABCD, 1.0, ("a1", "a2"))
        eigs = spectrum(rep.image("a1")).eigenvalues
        assert eigs[0] == pytest.approx(complex(math.cos(1), math.sin(1)))
        np.testing.assert_allclose(rep.image("a3"), np.eye(2))

    def test_powers_accumulate_angle(self):
        rep = rotation_block_rep(self.ABCD, 1.0, ("a1",))
        m = rep.evaluate(word(self.ABCD, "a1^5"))
        np.testing.assert_allclose(m, rotation(5.0), atol=1e-12)

    def test_rational_angle_rejected(self):
        with pytest.raises(InputError):
            rotation_block_rep(self.ABCD, math.pi / 3, ("a1",))

    def test_scaled_rotation_blocks(self):
        rep = scaled_rotation_rep(self.ABCD, 5.0, 0.4, 1.0, seed=3)
        eigs = spectrum(rep.image("a1")).eigenvalues
        assert abs(eigs[0]) == pytest.approx(5.0)
        assert eigs[0].imag != 0
        assert eigs[2] == pytest.approx(1 / 25.0 + 0j)
        for label in self.ABCD.names:
            assert np.linalg.det(rep.image(label)) == pytest.approx(1.0)

    def test_scaled_rotation_seed_reproducible(self):
        r1 = scaled_rotation_rep(self.ABCD, 5.0, 0.4, 1.0, seed=3)
        r2 = scaled_rotation_rep(self.ABCD, 5.0, 0.4, 1.0, seed=3)
        for label in self.ABCD.names:
            np.testing.assert_array_equal(r1.image(label), r2.image(label))


class TestValidateHomomorphism:
    def test_free_presentation_vacuous(self):
        rep = rename_generators(schottky_sl2r(2, 4.0), PAIR)
        report = validate_homomorphism(rep, Presentation.free(PAIR))
        assert report.passed and report.max_deviation == 0.0

    def test_trivial_rep_satisfies_everything(self):
        pres = standard_presentation(1)
        images = {n: np.eye(2) for n in pres.alphabet.names}
        rep = RepSpec(pres.alphabet, images)
        report = validate_homomorphism(rep, pres)
        assert report.passed
        assert report.to_json() == {
            "deviations": [[str(r), 0.0] for r in pres.relators],
            "tol": 1e-8, "max_deviation": 0.0, "passed": True}

    def test_generic_rep_fails_surface_relator(self):
        pres = standard_presentation(1)
        rng = np.random.default_rng(12)
        images = {}
        for n in pres.alphabet.names:
            m = rng.normal(size=(2, 2))
            m = m / abs(np.linalg.det(m)) ** 0.5
            if np.linalg.det(m) < 0:
                m = m[::-1]
            images[n] = m
        rep = RepSpec(pres.alphabet, images)
        report = validate_homomorphism(rep, pres)
        assert not report.passed and report.max_deviation > 1e-3


def _sweep_reps():
    """(rep, subalphabet) pairs of dim 2 (2x2 states), dims 3, 6 and 8
    (Jacobi states), with and without a subalphabet."""
    rng = np.random.default_rng(23)
    abc = Alphabet(("a1", "b1", "c1"))
    d2 = rename_generators(schottky_sl2r(3, 5.0), abc)
    d3 = scaled_rotation_rep(abc, 1.7, 0.8, 1.1, seed=4)
    d6 = RepSpec(PAIR, {l: random_unimodular(6, rng) for l in PAIR.names})
    d8 = RepSpec(PAIR, {l: random_unimodular(8, rng) for l in PAIR.names})
    return [(d2, None), (d2, ("a1", "c1")), (d3, None), (d3, ("b1", "c1")),
            (d6, None), (d6, ("b1",)), (d8, None)]


def _sweep(rep, radius, sub=None, inverse_pairs=False):
    """The ball sweep of a profile: the graded state of one table."""
    table = symbol_table(rep, sub)
    return iter_ball_images(len(table), radius, *graded_products(table)[:2],
                            inverse_pairs=inverse_pairs)


def _check_graded_state(state, codes, rep, alphabet):
    """One table's graded state against each word's evaluated product W,
    one entry per direct-sum block B of the table (W is 0 off the blocks):
    for a table that is one 2x2 block, X = W^T / sqrt(det W) with
    X X^T = W^T W / det W, det W taken as the product of the letters' (the
    det of W itself loses about |W|^2 eps to cancellation); otherwise
    X = W_B^T V with X X^T = W_B^T W_B and pairwise orthogonal columns (to
    d eps, the sweep's criterion, plus d eps for the rounding of the
    recomputed products)."""
    table = symbol_table(rep, alphabet.names)
    blocks = reps._blocks(table)
    closed = rep.dim == 2 and len(blocks) == 1
    off = np.ones((rep.dim, rep.dim), dtype=bool)
    for b in blocks:
        off[np.ix_(b, b)] = False
    assert len(state) == len(blocks)
    dets = np.linalg.det(table)
    for k, row in enumerate(codes):
        w = rep.evaluate(Word.from_codes(alphabet, row))
        assert not w[off].any()
        for b, entry in zip(blocks, state):
            dim = len(b)
            assert entry.shape == (dim, dim, len(codes))
            x, wb = entry[:, :, k].T, w[np.ix_(b, b)]
            gram = wb.T @ wb / (dets[row].prod() if closed else 1.0)
            np.testing.assert_allclose(x @ x.T, gram, rtol=0,
                                       atol=1e-12 * np.abs(gram).max())
            if closed:
                continue  # the 2x2 state is not rotated
            cols = x.T @ x
            norms = np.sqrt(np.diag(cols))
            off_diag = np.abs(cols - np.diag(np.diag(cols)))
            assert np.all(off_diag <= 2 * dim * np.finfo(float).eps
                          * np.outer(norms, norms))


class TestBallSweep:
    """The block engine against per-word evaluation and closed-form counts."""

    @pytest.mark.parametrize("case", range(7))
    @pytest.mark.parametrize("cap", [None, 700])  # None: the module's cap
    def test_blocks_cover_the_ball_with_exact_images(self, monkeypatch,
                                                     case, cap):
        rep, sub = _sweep_reps()[case]
        if cap is None:
            cap = reps.BLOCK_BYTES
        monkeypatch.setattr(reps, "BLOCK_BYTES", cap)
        alphabet = rep.alphabet if sub is None else Alphabet(sub)
        radius = 4 if rep.dim < 6 else 3
        seen = set()
        for length, codes, state in _sweep(rep, radius, sub):
            assert codes.shape == (len(codes), length)
            # a block over the cap holds the children of a single word
            if sum(s.nbytes for s in state) > cap:
                assert len({row[:-1].tobytes() for row in codes}) == 1
            _check_graded_state(state, codes, rep, alphabet)
            for row in codes:
                w = Word.from_codes(alphabet, row)
                assert len(w) == length
                seen.add(w.letters)
        assert len(seen) == ball_count(alphabet.size, radius)

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("cap", [None, 700])
    def test_2x2_images_are_the_evaluated_products(self, monkeypatch, case,
                                                   cap):
        # raw products, as the domination sweep keeps them, bit for bit
        rep, sub = _sweep_reps()[case]
        if cap is not None:
            monkeypatch.setattr(reps, "BLOCK_BYTES", cap)
        alphabet = rep.alphabet if sub is None else Alphabet(sub)
        table = symbol_table(rep, sub)
        for _, codes, (prods,) in iter_ball_images(len(table), 5,
                                                   *products(table)):
            for row, m in zip(codes, prods):
                np.testing.assert_array_equal(
                    m, rep.evaluate(Word.from_codes(alphabet, row)))

    @pytest.mark.parametrize("case", range(7))
    def test_each_length_comes_out_in_shortlex_order(self, monkeypatch, case):
        rep, sub = _sweep_reps()[case]
        monkeypatch.setattr(reps, "BLOCK_BYTES", 700)
        alphabet = rep.alphabet if sub is None else Alphabet(sub)
        radius = 4 if rep.dim < 6 else 3
        swept: dict = {}
        for length, codes, _ in _sweep(rep, radius, sub):
            swept.setdefault(length, []).extend(map(tuple, codes.tolist()))
        expected: dict = {}
        for w in enumerate_ball(alphabet, radius):
            expected.setdefault(len(w), []).append(w.shortlex_key()[1])
        assert swept == expected

    @pytest.mark.parametrize("case", range(7))
    @pytest.mark.parametrize("cap", [None, 700])
    def test_inverse_pairs_keep_one_word_of_each_pair(self, monkeypatch,
                                                      case, cap):
        rep, sub = _sweep_reps()[case]
        if cap is None:
            cap = reps.BLOCK_BYTES
        monkeypatch.setattr(reps, "BLOCK_BYTES", cap)
        alphabet = rep.alphabet if sub is None else Alphabet(sub)
        radius = 4 if rep.dim < 6 else 3
        swept: dict = {}
        for length, codes, _ in _sweep(rep, radius, sub):
            swept.setdefault(length, []).extend(map(tuple, codes.tolist()))
        paired: dict = {}
        for length, codes, state in _sweep(rep, radius, sub, True):
            # a block over the cap holds the children of a single word
            if sum(s.nbytes for s in state) > cap:
                assert len({row[:-1].tobytes() for row in codes}) == 1
            if length == radius:
                _check_graded_state(state, codes, rep, alphabet)
            paired.setdefault(length, []).extend(map(tuple, codes.tolist()))
        kept, last = paired.pop(radius), swept.pop(radius)
        # lengths below the last are unchanged
        assert paired == swept
        # shortlex order within one length is the order of the codes
        assert kept == sorted(kept)
        inverses = [tuple(c ^ 1 for c in reversed(w)) for w in kept]
        assert all(w < v for w, v in zip(kept, inverses))
        # the kept words and their inverses cover the last length once
        assert sorted(kept + inverses) == last

    def test_inverse_pairs_at_radius_one(self):
        # each letter s is paired with s ^ 1: the kept codes are the even ones
        rep, _ = _sweep_reps()[2]
        blocks = list(_sweep(rep, 1, inverse_pairs=True))
        assert [b[0] for b in blocks] == [0, 1]
        assert blocks[1][1].tolist() == [[0], [2], [4]]

    @pytest.mark.parametrize("cap", [None, 700])
    def test_two_tables_sweep_each_factor(self, monkeypatch, cap):
        # one entry per block of each table, in order: the 4x4 factor is
        # one block, the 3x3 one a 2x2 block (on the Jacobi step) and a 1x1
        if cap is not None:
            monkeypatch.setattr(reps, "BLOCK_BYTES", cap)
        _, _, t = _tensor_pair()
        root, step, _ = graded_products(*(symbol_table(f) for f in t.factors))
        count = 0
        for length, codes, state in iter_ball_images(4, 4, root, step):
            assert [len(e) for e in state] == [4, 2, 1]
            count += len(codes)
            _check_graded_state(state[:1], codes, t.factors[0], PAIR)
            _check_graded_state(state[1:], codes, t.factors[1], PAIR)
        assert count == ball_count(2, 4)

    def test_unconverged_jacobi_is_inconclusive(self, monkeypatch, tmp_path):
        # one sweep orthogonalises no generic 3x3 product; a matrix still
        # rotating at the cap is NaN, which the profile reads as inf
        rep, _ = _sweep_reps()[2]
        prof = qi_profile(rep, radius=3)
        assert all(math.isfinite(v) for s in prof.samples for v in s[1:])
        monkeypatch.setattr(reps, "JACOBI_SWEEPS", 1)
        prof = qi_profile(rep, radius=3)
        assert prof.verdict == "inconclusive"
        assert any(math.isinf(v) for s in prof.samples for v in s[1:])
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep.to_json()))
        assert main(["diagnose", "--rep", str(path), "--qi", "--radius", "3",
                     "--out", str(tmp_path / "out")]) == 3

    def test_singular_values_past_the_double_range(self):
        # sigma_1 / sigma_3 = 1e400 at length 2: a, b and c are taken on
        # columns scaled by powers of two, so no square overflows; the
        # value is 400 log(10)
        big = np.diag([1e100, 1.0, 1e-100])
        cyclic = np.roll(np.eye(3), 1, axis=0)
        rep = RepSpec(Alphabet(("a", "b")),
                      {"a": big, "b": cyclic @ big @ cyclic.T})
        prof = qi_profile(rep, radius=2)
        assert prof.samples[-1][2] == pytest.approx(921.0340371976183,
                                                    rel=1e-12)
        assert prof.samples[-1][2] == pytest.approx(400 * math.log(10),
                                                    rel=1e-12)

    def test_small_factors_call_no_lapack(self, monkeypatch):
        # the factored thm1ii_d12 profile sweeps 4x4 and 3x3 Jacobi states
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called on a Jacobi route")
        rep = build_named("thm1ii_d12", None, seed=3).rep
        monkeypatch.setattr(np.linalg, "qr", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        prof = gap_profile(rep, 3, radius=3)
        assert prof.words_evaluated == ball_count(8, 3) - 1

    def test_blocks_are_the_connected_components(self):
        # blocks interleave in index order, an entry of one letter joins
        # two blocks of another, and a chain links a block end to end
        table = np.zeros((4, 7, 7))
        table[:] = np.eye(7)
        table[0, 0, 5] = table[1, 2, 4] = table[2, 6, 3] = 1.0
        assert [b.tolist() for b in reps._blocks(table)] == [
            [0, 5], [1], [2, 4], [3, 6]]
        table[3, 5, 2] = 1.0
        assert [b.tolist() for b in reps._blocks(table)] == [
            [0, 2, 4, 5], [1], [3, 6]]
        chain = np.eye(9)[None] + np.eye(9, k=1)[None]
        assert [b.tolist() for b in reps._blocks(chain)] == [list(range(9))]

    def test_radius_zero_is_the_identity(self):
        blocks = list(_sweep(schottky_sl2r(2, 4.0), 0))
        assert len(blocks) == 1 and blocks[0][0] == 0
        assert blocks[0][1].shape == (1, 0)
        np.testing.assert_array_equal(blocks[0][2][0][:, :, 0], np.eye(2))

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError):
            list(_sweep(schottky_sl2r(2, 4.0), -1))


class TestHelpers:
    def test_restrict_rep(self):
        rep = schottky_sl2r(3, 5.0)
        sub = restrict_rep(rep, ("a", "b"))
        assert sub.alphabet.names == ("a", "b")
        np.testing.assert_array_equal(sub.image("a"), rep.image("a"))

    def test_character_multiplicative(self):
        eps = Character(PAIR, {"a1": 2.0, "b1": 5.0})
        w = word(PAIR, "a1 b1^-1 a1")
        assert eps.value(w) == pytest.approx(4.0 / 5.0)

    def test_character_requires_positive(self):
        with pytest.raises(InputError):
            Character(PAIR, {"a1": 0.0, "b1": 1.0})

    def test_common_eigenvector_defect(self):
        shared = np.diag([2.0, 1.0, 0.5])
        other = np.diag([3.0, 1.0, 1 / 3.0])
        assert common_eigenvector_defect([shared, other]) < 1e-12
        rng = np.random.default_rng(13)
        m1 = rng.normal(size=(3, 3))
        m2 = rng.normal(size=(3, 3))
        assert common_eigenvector_defect([m1, m2]) > 1e-4
