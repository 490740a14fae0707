import functools
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import builders, certify
from specgap.builders import BuildResult, build_named
from specgap.certify import gap_profile, qi_profile
from specgap.cli import main
from specgap.errors import ConstructionError, InputError, SizeError
from specgap.linalg import MAX_DIM, spectrum
from specgap.obstruct import sample_limit_set
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
                          tensor_rep, validate_homomorphism,
                          UNIMODULAR_TOL)
from specgap.words import (Alphabet, GeneratorMap, Presentation, Word,
                           enumerate_ball, retraction_to_free_part,
                           standard_presentation, word)

from oracles import (ball_count, predicted_spectrum, spectrum_tensor,
                     spectrum_union)

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

    @pytest.mark.parametrize("dim", [7, 1, "x", 2.0, None, [2]])
    def test_from_json_refuses_a_dim_that_is_not_the_width(self, dim):
        # each once loaded as a representation of dim 2
        doc = schottky_sl2r(2, 4.0).to_json()
        with pytest.raises(InputError, match="'dim'"):
            RepSpec.from_json(dict(doc, dim=dim))
        assert RepSpec.from_json({k: v for k, v in doc.items()
                                  if k != "dim"}).dim == 2

    def test_from_json_refuses_a_bool_dim_and_a_factor_dim(self):
        one = RepSpec(Alphabet(("a",)), {"a": [[1.0]]}).to_json()
        assert RepSpec.from_json(one).dim == 1
        with pytest.raises(InputError, match="'dim' is True"):
            RepSpec.from_json(dict(one, dim=True))  # True == 1
        doc = _tensor_pair()[2].to_json()
        assert RepSpec.from_json(doc).dim == doc["dim"]
        doc["factors"][1]["dim"] += 1
        with pytest.raises(InputError, match="'dim'"):
            RepSpec.from_json(doc)

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
        ]
        assert all(d.factors == () for d in derived)

    def test_rename_generators_keeps_the_renamed_factors(self):
        # the renamed build keeps each factor, so the limit-set sampler
        # reads the same lines from it
        rep = build_named("thm1ii_d12", None, seed=0).rep
        alphabet = Alphabet(tuple(f"g{k}" for k in range(rep.alphabet.size)))
        renamed = rename_generators(rep, alphabet)
        assert [f.digest() for f in renamed.factors] == [
            f.digest() for f in rep.factors]
        assert all(f.alphabet == alphabet for f in renamed.factors)
        got, want = (sample_limit_set(r, 200, seed=3) for r in (renamed, rep))
        np.testing.assert_array_equal(got.vectors, want.vectors)
        assert got.defects == want.defects

    def test_restrict_rep_keeps_the_restricted_factors(self):
        # each factor of the restriction is that factor's images of the
        # kept generators, and the restriction's spectra match its whole
        # images' dense spectra
        rep = build_named("thm1ii_d12", None, seed=0).rep
        labels = ("a4", "b4")
        sub = restrict_rep(rep, labels)
        assert [f.digest() for f in sub.factors] == [
            RepSpec(Alphabet(labels), {l: f.image(l) for l in labels}).digest()
            for f in rep.factors]
        assert [f.dim for f in sub.factors] == [4, 3]
        words = [w for w in enumerate_ball(sub.alphabet, 3) if w.letters]
        for w, got in zip(words, reps.spectra(sub, words)):
            whole = spectrum(sub.evaluate(w)).eigenvalues
            assert _nearest_match(got, whole, abs(got[0])) <= 1e-9, str(w)

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
                    for b in reps._blocks(f.table)))
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
        stacked = reps.word_products(table, codes)
        dets = reps.word_dets(table, codes)
        for k in range(2):
            block = np.ascontiguousarray(table[:, k])
            alone = reps.word_products(block, codes)
            assert stacked[:, k].tobytes() == alone.tobytes()
            assert dets[:, k].tobytes() == reps.word_dets(block, codes).tobytes()

    def test_each_factor_is_split_into_blocks_once(self, monkeypatch):
        # profiles, spectra and top moduli all read the one cached split;
        # a restricted profile splits the factors of its restriction
        calls = []
        real = reps._blocks
        monkeypatch.setattr(reps, "_blocks",
                            lambda table: calls.append(table.shape) or real(table))
        rep = RepSpec.from_json(
            build_named("thm1ii_d12", None, seed=0).rep.to_json())
        w = word(rep.alphabet, "a1 b1 a2^-1")
        for _ in range(2):
            qi_profile(rep, radius=2)
            gap_profile(rep, 3, radius=2)
            reps.spectra(rep, [w, w.inverse()])
            rep.top_modulus(w)
        assert calls == [(16, 4, 4), (16, 3, 3)]
        calls.clear()
        qi_profile(rep, radius=2, subalphabet=("a1", "b1"))
        assert calls == [(4, 4, 4), (4, 3, 3)]

    def test_top_modulus_of_an_image_that_is_not_finite_is_nan(self):
        # as spectra reads it: a^2 overflows to inf in its first entry
        rep = RepSpec(PAIR, {"a1": np.diag([1e200, 1e-200]), "b1": np.eye(2)})
        assert rep.top_modulus(word(PAIR, "a1")) == 1e200
        assert math.isnan(rep.top_modulus(word(PAIR, "a1 a1")))
        assert all(map(math.isnan, map(abs, reps.spectra(
            rep, [word(PAIR, "a1 a1")])[0])))

    def test_top_modulus_is_the_domination_reading(self):
        # on a factored representation: top_modulus once took abs of the
        # largest product of the factors' eigenvalues, and differed from
        # check_domination's product of the factors' top block moduli in
        # the last bit on 30 of the 160 words of this ball
        sub = restrict_rep(build_named("thm1ii_d12", None, seed=0).rep,
                           ("a1", "b1"))
        tables = [t for ts in sub.structure for t in ts]
        sweep = iter_ball_images(len(tables[0]), 4, *products(*tables))
        next(sweep)  # the identity
        want = {}  # check_domination's reading of each cyclically reduced word
        for _, codes, state in sweep:
            keep = codes[:, 0] != codes[:, -1] ^ 1
            tops = reps.top_moduli(reps.block_spectra(
                sub.structure, codes[keep], [s[keep] for s in state]))
            want.update(zip(map(tuple, codes[keep].tolist()), tops.tolist()))
        words = [w for w in enumerate_ball(sub.alphabet, 4) if w.letters]
        assert len(words) == 160
        for w in words:
            core = tuple(reps.letter_codes(sub.alphabet, w.cyclic_reduction()))
            assert sub.top_modulus(w) == want[core], str(w)

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
        uses = [lambda r: r.evaluate(w), lambda r: r.table,
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


def _sweep(rep, radius, sub=None, order=None):
    """The ball sweep of a profile: the graded state of one table."""
    rep = rep if sub is None else restrict_rep(rep, sub)
    return iter_ball_images(len(rep.table), radius,
                            *graded_products(rep.structure)[:2], order)


def _check_graded_state(state, codes, rep, alphabet):
    """One table's graded state against each word's evaluated product W,
    one entry per direct-sum block B of the table, in ``RepSpec.structure``
    order, narrowest first (W is 0 off the blocks):
    for a table that is one 2x2 block, X = W^T / sqrt(det W) with
    X X^T = W^T W / det W, det W taken as the product of the letters' (the
    det of W itself loses about |W|^2 eps to cancellation); otherwise
    X = W_B^T V with X X^T = W_B^T W_B and pairwise orthogonal columns (to
    d eps, the sweep's criterion, plus d eps for the rounding of the
    recomputed products)."""
    table = restrict_rep(rep, alphabet.names).table
    blocks = sorted(reps._blocks(table), key=len)
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
        table = (rep if sub is None else restrict_rep(rep, sub)).table
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
    def test_inverse_pairs_keep_one_word_of_each_pair(
            self, monkeypatch, profile_steps, unbounded, case, cap):
        # past dim 2 a profile steps one word of each pair {w, w^-1} at its
        # last length, the one whose codes come first, parent-major; a
        # whole 2x2 representation steps every word
        rep, sub = _sweep_reps()[case]
        if cap is None:
            cap = reps.BLOCK_BYTES
        monkeypatch.setattr(reps, "BLOCK_BYTES", cap)
        unbounded()
        alphabet = rep.alphabet if sub is None else Alphabet(sub)
        radius = 4 if rep.dim < 6 else 3
        qi_profile(rep, radius, sub)
        rank = np.argsort(profile_steps[0][0][:, 0])  # the profile's order
        swept: dict = {}
        for codes, state in profile_steps:
            # a run over the cap holds the children of a single word
            if sum(s.nbytes for s in state) > cap:
                assert len({row[:-1].tobytes() for row in codes}) == 1
            if codes.shape[1] == radius:
                _check_graded_state(state, codes, rep, alphabet)
            swept.setdefault(codes.shape[1], []).extend(
                map(tuple, codes.tolist()))
        ball: dict = {}
        for w in enumerate_ball(alphabet, radius):
            ball.setdefault(len(w), []).append(w.shortlex_key()[1])
        kept, last = swept.pop(radius), ball.pop(radius)
        # lengths below the last are stepped whole, each word once
        assert {l: sorted(w) for l, w in swept.items()} == {
            l: w for l, w in ball.items() if l}
        # shortlex order, in the profile's ranking of the letters
        keys = [rank[list(w)].tolist() for w in kept]
        assert keys == sorted(keys)
        if rep.dim == 2:
            assert sorted(kept) == last
            return
        inverses = [tuple(c ^ 1 for c in reversed(w)) for w in kept]
        assert all(w < v for w, v in zip(kept, inverses))
        # the kept words and their inverses cover the last length once
        assert sorted(kept + inverses) == last

    def test_inverse_pairs_at_radius_one(self, profile_steps):
        # each letter s is paired with s ^ 1: the kept codes are the even
        # ones, stepped by the profile from the identity in one run
        rep, _ = _sweep_reps()[2]
        qi_profile(rep, radius=1)
        [(codes, _)] = profile_steps
        assert sorted(codes.tolist()) == [[0], [2], [4]]

    @pytest.mark.parametrize("cap", [None, 700])
    def test_two_tables_sweep_each_factor(self, monkeypatch, cap):
        # one entry per block of each factor, in structure order: the 4x4
        # factor is one block, the 3x3 one a 1x1 and a 2x2 block (on the
        # Jacobi step), narrowest first
        if cap is not None:
            monkeypatch.setattr(reps, "BLOCK_BYTES", cap)
        _, _, t = _tensor_pair()
        root, step, _ = graded_products(t.structure)
        count = 0
        for length, codes, state in iter_ball_images(4, 4, root, step):
            assert [len(e) for e in state] == [4, 1, 2]
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

    @pytest.mark.parametrize("case", range(7))
    @pytest.mark.parametrize("pairs", [False, True])
    def test_an_order_sweeps_the_same_words_shortlex_in_it(
            self, monkeypatch, profile_steps, unbounded, case, pairs):
        # a ranking of the letter codes: each block's words come out
        # shortlex in the ranking, every length across blocks too, and the
        # sweep holds the same words.  Blocks of the same words give bit
        # for bit the same states.  With ``pairs`` the ranking is a
        # profile's (widest first), and past dim 2 its last length holds
        # one word of each inverse pair, the same one as in shortlex order,
        # stepped in runs cut elsewhere, to the same states: a word stepped
        # alone is summed as in a batch
        rep, sub = _sweep_reps()[case]
        monkeypatch.setattr(reps, "BLOCK_BYTES", 700)
        radius = 4 if rep.dim < 6 else 3
        nsym = 2 * (rep.alphabet.size if sub is None else len(sub))
        paired = pairs and rep.dim > 2

        def words(blocks, order):
            """Per length, the rank keys and, by codes, the states."""
            rank = np.argsort(order)  # each code's place in the order
            keys: dict = {}
            states: dict = {}
            for length, codes, state in blocks:
                block = rank[codes].tolist()
                assert block == sorted(block)
                keys.setdefault(length, []).extend(block)
                states.update((tuple(row), [s[..., k] for s in state])
                              for k, row in enumerate(codes.tolist()))
            return keys, states

        plain, want = words(_sweep(rep, radius, sub), np.arange(nsym))
        if pairs:
            unbounded()
            qi_profile(rep, radius, sub)
            order = profile_steps[0][0][:, 0]
            blocks = [(codes.shape[1], codes, state)
                      for codes, state in profile_steps]
        else:
            order = np.roll(np.arange(nsym)[::-1], 1)
            blocks = _sweep(rep, radius, sub, order)
        ranked, got = words(blocks, order)
        # a profile steps no identity
        assert ranked.keys() - {0} == plain.keys() - {0}
        for length, keys in ranked.items():
            assert keys == sorted(keys)
        if paired:
            last = [w for w in want if len(w) == radius]
            assert sorted(w for w in got if len(w) == radius) == [
                w for w in last if w < tuple(c ^ 1 for c in reversed(w))]
        else:
            assert got.keys() - {()} == want.keys() - {()}
        for row, state in got.items():
            for a, b in zip(state, want[row]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("pairs", [False, True])
    def test_a_block_is_freed_once_its_last_run_is_handed_out(
            self, monkeypatch, pairs):
        # the sweep drops a block's state when it hands out the child block
        # that holds its last word's children: it is gone by the next
        # block, not only after that child's subtree.  With ``pairs`` a QI
        # profile steps the last length from the blocks of the length
        # before, and holds none of them past the runs of its children
        monkeypatch.setattr(reps, "BLOCK_BYTES", 700)
        rep, _ = _sweep_reps()[2]
        radius, blocks, due, freed = 5, [], [], 0
        if pairs:
            real_sweep, real_products = (certify.iter_ball_images,
                                         certify.graded_products)
            parents = []

            def sweep(*args):
                for length, codes, state in real_sweep(*args):
                    if length == radius - 1:
                        parents.append(weakref.ref(state[0]))
                    yield length, codes, state

            def products(structure):
                root, step, logs = real_products(structure)

                def spy(state, parent, letter):
                    nonlocal freed
                    if parents and parents[-1]() is state[0]:
                        assert all(ref() is None for ref in parents[:-1])
                        freed += len(parents) > 1
                    return step(state, parent, letter)
                return root, spy, logs
            monkeypatch.setattr(certify, "iter_ball_images", sweep)
            monkeypatch.setattr(certify, "graded_products", products)
            qi_profile(rep, radius=radius)
            assert freed > 10
            return
        for length, codes, state in _sweep(rep, radius):
            assert all(ref() is None for ref in due)
            freed += len(due)
            parent = codes[-1, :-1].tolist()
            due = [ref for ref, l, last in blocks
                   if l == length - 1 and last == parent]
            if length:  # the caller holds the identity's state
                blocks.append((weakref.ref(state[0]), length,
                               codes[-1].tolist()))
        assert freed > 10

    def test_the_radius_10_2x2_profile_peak(self):
        # the benchmark's radius-10 QI profile of a 2x2 pair, 2.12 MB; kept
        # until its children generator ran dry, each block held on through
        # its last child's subtree, and the peak read 2.18 to 2.24 MB
        rep = schottky_sl2r(2, 2.5)
        qi_profile(rep, radius=10)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            qi_profile(rep, radius=10)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2_150_000

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)])
    def test_word_dets_are_python_products_bit_for_bit(self, shape):
        # each letter's a d - b c, and its reciprocal as Python's x ** -1,
        # multiplied in word order; numpy's reciprocal rounds a few of
        # 4,000 random determinants differently
        rng = np.random.default_rng(29)
        table = rng.standard_normal((4000, *shape))
        codes = np.concatenate([np.arange(4000)[:, None].repeat(3, axis=1),
                                rng.integers(0, 4000, (500, 3))])
        letters = table[0::2].reshape(2000, -1, 2, 2).tolist()
        dets = np.array([[(p * s - q * r) ** sign for (p, q), (r, s) in blocks]
                         for blocks in letters for sign in (1, -1)])
        want = dets[codes[:, 0]] * dets[codes[:, 1]] * dets[codes[:, 2]]
        want = want.reshape((len(codes),) + shape[:-2])
        for _ in range(2):  # made, then read again
            assert reps.word_dets(table, codes).tobytes() == want.tobytes()


def _circle_rounds(d):
    """The circle method's rounds of column pairs (p, q) as index lists, a
    phantom column d padding an odd d."""
    n = d + d % 2
    seats, rounds = list(range(n)), []
    for _ in range(n - 1):
        pairs = [(seats[i], seats[n - 1 - i]) for i in range(n // 2)
                 if max(seats[i], seats[n - 1 - i]) < d]
        if pairs:
            rounds.append([list(side) for side in zip(*pairs)])
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return rounds


def _oracle_dots(u, v):
    """Column dot products, summed row by row: ``einsum`` on a stack of two
    or more words, and by hand on a lone word, whose contiguous row axis
    ``einsum`` would reduce in another order."""
    if u.shape[2] > 1:
        return np.einsum("kin,kin->kn", u, v)
    out = u[:, 0] * v[:, 0]
    for i in range(1, u.shape[1]):
        out = out + u[:, i] * v[:, i]
    return out


def _oracle_orthogonalise(m):
    """The one-sided Jacobi kernel as it stood with every round gathered,
    scattered back and every sweep compacted: the oracle the in-place
    kernel must match bit for bit."""
    d = len(m)
    tol2 = (d * np.finfo(float).eps) ** 2
    rounds = [tuple(np.array(side) for side in sides)
              for sides in _circle_rounds(d)]
    if not rounds:
        return m
    live = np.flatnonzero(np.isfinite(m).all(axis=(0, 1)))
    x = m if live.size == m.shape[2] else m.take(live, axis=2)
    e = np.frexp(np.abs(x).max(axis=1))[1]
    y = np.ldexp(x, -e[:, None])
    r = np.ldexp(1.0, np.stack([e[q] - e[p] for p, q in rounds]).clip(-64, 64))
    ratios = np.stack((r / 2, 0.5 / r, r, 1 / r), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(reps.JACOBI_SWEEPS):
            moved = np.zeros(live.size, dtype=bool)
            for (p, q), (h, h_inv, r, r_inv) in zip(rounds, ratios):
                yp, yq = y[p], y[q]
                a, b, c = (_oracle_dots(yp, yp), _oracle_dots(yq, yq),
                           _oracle_dots(yp, yq))
                rot = c * c > tol2 * a * b
                if not rot.any():
                    continue
                moved |= rot.any(axis=0)
                zeta = (b * h - a * h_inv) / c
                t = np.where(rot, np.copysign(
                    1 / (np.abs(zeta) + np.sqrt(1 + zeta * zeta)), zeta), 0.0)
                cs = 1 / np.sqrt(1 + t * t)
                t *= cs
                tmp = yp * (t * r_inv)[:, None]
                yp *= cs[:, None]
                yp -= yq * (t * r)[:, None]
                yq *= cs[:, None]
                yq += tmp
                y[p], y[q] = yp, yq
            done, keep = np.flatnonzero(~moved), np.flatnonzero(moved)
            m[:, :, live[done]] = np.ldexp(y.take(done, axis=2),
                                          e.take(done, axis=1)[:, None])
            live, y, e, ratios = (live[keep], y.take(keep, axis=2),
                                  e.take(keep, axis=1),
                                  ratios.take(keep, axis=-1))
            if not live.size:
                return m
    m[:, :, live] = np.nan
    return m


def _oracle_product(table, x, parent, letter):
    """g^T X for each word as d multiply-adds, summed over k in order."""
    g = table.transpose(1, 2, 0)
    xp, gl = x.take(parent, axis=2), g.take(letter, axis=2)
    m = xp[:, 0, None] * gl[0]
    for k in range(1, table.shape[1]):
        m += xp[:, k, None] * gl[k]
    return m


@st.composite
def _jacobi_stacks(draw):
    """(column, row, word) stacks of width 1-9 and 1-300 words, columns
    scaled by 2^-300 to 2^300, with non-finite words, zero columns or
    monomial words (orthogonal from the start) mixed in."""
    d, n = draw(st.integers(1, 9)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((d, d, n)) * np.ldexp(
        1.0, rng.integers(-300, 301, (d, 1, n)))
    kinds = draw(st.sets(st.sampled_from(("nonfinite", "zero", "monomial"))))
    if "monomial" in kinds:
        words = rng.random(n) < 0.5
        mono = np.zeros((d, d, n))
        mono[np.arange(d)[:, None], rng.permutation(d)[:, None],
             np.arange(n)] = m[:, 0]
        m[:, :, words] = mono[:, :, words]
    if "zero" in kinds:
        m[rng.integers(d), :, rng.random(n) < 0.3] = 0.0
    if "nonfinite" in kinds:
        bad = rng.random(n) < 0.2
        m[rng.integers(d), rng.integers(d), bad] = rng.choice(
            [np.nan, np.inf, -np.inf], int(bad.sum()))
    return m


class TestJacobiKernel:
    """The in-place Jacobi rounds and the one-call product step against a
    copy of the gather/scatter kernel and multiply-add step they replaced."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_round_robin_sides(self, d):
        cols = np.arange(d)
        rounds = reps._round_robin(d)
        want = _circle_rounds(d)
        assert [[cols[s].tolist() for s in sides] for sides in rounds] == want
        met = sorted(tuple(sorted(pq)) for p, q in want for pq in zip(p, q))
        assert met == [(i, j) for i in range(d) for j in range(i + 1, d)]
        for sides, (p, q) in zip(rounds, want):
            assert len(set(p + q)) == len(p + q)  # disjoint
            for side, idx in zip(sides, (p, q)):
                even = len({b - a for a, b in zip(idx, idx[1:])}) <= 1
                assert isinstance(side, slice) == even
        assert all(isinstance(s, slice) for sides in rounds
                   for s in sides) == (d <= 5)

    @settings(max_examples=200)
    @given(m=_jacobi_stacks(), sweeps=st.sampled_from((30, 1)))
    def test_orthogonalise_matches_the_gathering_kernel(self, m, sweeps):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reps, "JACOBI_SWEEPS", sweeps)
            want_state, got_state = m.copy(), m.copy()
            want = _oracle_orthogonalise(want_state)
            got = reps._orthogonalise(got_state)
        assert np.array_equal(got_state, want_state, equal_nan=True)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=100)
    @given(x=_jacobi_stacks(), k=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_step_matches_multiply_adds(self, x, k, seed):
        d, n = x.shape[1], x.shape[2]
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((k, d, d))
        table[np.linalg.det(table) < 0, 0] *= -1  # det > 0, for closed
        parent, letter = rng.integers(0, n, 2 * n), rng.integers(0, k, 2 * n)
        for closed in (False, True):
            _, step = reps._jacobi_step(table, closed)
            scaled = (table / np.sqrt(np.linalg.det(table))[:, None, None]
                      if closed else table)
            want = _oracle_product(scaled, x, parent, letter)
            if not closed:
                want = _oracle_orthogonalise(want)
            assert np.array_equal(step(x, parent, letter), want,
                                  equal_nan=True)

    def test_closed_step_peaks_at_three_blocks(self):
        # two takes and the result; d multiply-adds need one block more
        n = reps.BLOCK_BYTES // (2 * 2 * 8)
        rng = np.random.default_rng(5)
        table = rng.standard_normal((4, 2, 2))
        table[np.linalg.det(table) < 0, 0] *= -1
        _, step = reps._jacobi_step(table, True)
        x = rng.standard_normal((2, 2, n))
        parent, letter = rng.permutation(n), rng.integers(0, 4, n)
        step(x, parent, letter)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = step(x, parent, letter)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.nbytes == reps.BLOCK_BYTES
        assert peak <= 3.25 * out.nbytes


class TestHelpers:
    def test_restrict_rep(self):
        rep = schottky_sl2r(3, 5.0)
        sub = restrict_rep(rep, ("a", "b"))
        assert sub.alphabet.names == ("a", "b")
        np.testing.assert_array_equal(sub.image("a"), rep.image("a"))
        assert sub.factors == ()

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
