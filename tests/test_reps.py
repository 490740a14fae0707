import json
import math

import numpy as np
import pytest

from specgap.errors import ConstructionError, InputError
from specgap.linalg import spectrum, spectrum_tensor, spectrum_union
from specgap import reps
from specgap.reps import (Character, RepSpec, block_sum,
                          common_eigenvector_defect, iter_ball_images,
                          pull_back, random_unimodular, realify_lift,
                          realify_sl2c,
                          rename_generators, restrict_rep, rotation_block_rep,
                          scale_by_character, scaled_rotation_rep,
                          schottky_sl2c, schottky_sl2r, spin_so31,
                          tensor_rep, validate_homomorphism)
from specgap.words import (Alphabet, Presentation, Word, ball_count,
                           enumerate_ball,
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

    def test_rejects_degenerate(self):
        with pytest.raises(InputError):
            RepSpec(PAIR, {"a1": np.zeros((2, 2)), "b1": np.eye(2)})

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

    def test_images_are_read_only(self):
        rep = schottky_sl2r(2, 4.0)
        with pytest.raises(ValueError):
            rep.image("a")[0, 0] = 99.0


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
        assert t.provenance["tensor_factors"] == [2, 4]
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
    """(rep, subalphabet) pairs of dims 2, 3 and 6, with and without a
    subalphabet."""
    rng = np.random.default_rng(23)
    abc = Alphabet(("a1", "b1", "c1"))
    d2 = rename_generators(schottky_sl2r(3, 5.0), abc)
    d3 = scaled_rotation_rep(abc, 1.7, 0.8, 1.1, seed=4)
    d6 = RepSpec(PAIR, {l: random_unimodular(6, rng) for l in PAIR.names})
    return [(d2, None), (d2, ("a1", "c1")), (d3, None), (d3, ("b1", "c1")),
            (d6, None), (d6, ("b1",))]


class TestBallSweep:
    """The block engine against per-word evaluation and closed-form counts."""

    @pytest.mark.parametrize("case", range(6))
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
        for length, codes, images in iter_ball_images(rep, radius, sub):
            assert codes.shape == (len(codes), length)
            if rep.dim == 2:
                prods = images
            else:
                q, r = images
                np.testing.assert_allclose(np.tril(r, -1), 0.0, atol=0)
                prods = q @ r
            # a block over the cap holds the children of a single word
            if prods.nbytes * (1 if rep.dim == 2 else 2) > cap:
                assert len({row[1:].tobytes() for row in codes}) == 1
            for row, m in zip(codes, prods):
                w = Word.from_codes(alphabet, row)
                assert len(w) == length
                seen.add(w.letters)
                np.testing.assert_allclose(m, rep.evaluate(w), rtol=1e-12,
                                           atol=1e-12 * np.abs(m).max())
        assert len(seen) == ball_count(alphabet.size, radius)

    def test_radius_zero_is_the_identity(self):
        blocks = list(iter_ball_images(schottky_sl2r(2, 4.0), 0))
        assert len(blocks) == 1 and blocks[0][0] == 0
        np.testing.assert_array_equal(blocks[0][2], np.eye(2)[None])

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError):
            list(iter_ball_images(schottky_sl2r(2, 4.0), -1))


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
