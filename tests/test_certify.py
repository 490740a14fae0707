import numpy as np
import pytest

from specgap.builders import build_named
from specgap.certify import (default_radius, gap_profile, qi_profile,
                             DISCLAIMER)
from specgap.errors import InputError
from specgap.linalg import exterior_power
from specgap.reps import (Character, RepSpec, rename_generators,
                          scale_by_character, schottky_sl2c, schottky_sl2r,
                          spin_lift, tensor_rep)
from specgap.words import Alphabet

PAIR = Alphabet(("a1", "b1"))


def schottky_pair(spread=4.0):
    return rename_generators(schottky_sl2r(2, spread), PAIR)


def wedge_rep(rep, i):
    images = {l: exterior_power(rep.image(l), i) for l in rep.alphabet.names}
    return RepSpec(rep.alphabet, images)


class TestGapProfile:
    def test_schottky_passes_with_steep_slope(self):
        prof = gap_profile(schottky_pair(), 1, radius=6)
        assert prof.verdict == "pass"
        assert prof.slope > 0.5
        assert prof.monotone
        assert prof.note == DISCLAIMER

    def test_identity_generator_fails_flat(self):
        rep = RepSpec(PAIR, {"a1": np.eye(2),
                             "b1": schottky_pair().image("b1")})
        prof = gap_profile(rep, 1, radius=6)
        assert prof.verdict == "fail"
        assert min(lo for _, lo, _ in prof.samples) == pytest.approx(0.0, abs=1e-12)

    def test_samples_cover_every_length(self):
        prof = gap_profile(schottky_pair(), 1, radius=5)
        assert [l for l, _, _ in prof.samples] == [1, 2, 3, 4, 5]

    def test_budget_truncation_is_inconclusive(self):
        prof = gap_profile(schottky_pair(), 1, radius=6, max_words=50)
        assert prof.verdict == "inconclusive"
        assert 0 < prof.words_evaluated <= 50

    def test_verdict_stable_under_radius_extension(self):
        small = gap_profile(schottky_pair(), 1, radius=4)
        large = gap_profile(schottky_pair(), 1, radius=6)
        assert small.verdict == large.verdict == "pass"

    def test_index_validation(self):
        with pytest.raises(InputError):
            gap_profile(schottky_pair(), 2, radius=3)

    def test_csv_and_json(self):
        prof = gap_profile(schottky_pair(), 1, radius=3)
        lines = prof.to_csv().strip().splitlines()
        assert lines[0] == "length,min_log_gap,max_log_gap"
        assert len(lines) == 4
        doc = prof.to_json()
        assert doc["verdict"] == "pass"
        assert doc["lower_fit"]["slope"] == pytest.approx(prof.slope)

    def test_default_radius_scales_with_dimension(self):
        assert default_radius(2) == 6
        assert default_radius(6) == 5
        assert default_radius(12) == 4


class TestGapAgreement:
    """log(sigma_i/sigma_{i+1}) of a word equals log(sigma_1/sigma_2) of its
    exterior image; the two profile routes must agree in verdict."""

    @pytest.mark.parametrize("name,i", [("thm1i_d5", 2), ("thm1i_d6", 2),
                                        ("prop42_sl4", 2), ("prop42_sl6", 2)])
    def test_named_builds_agree(self, name, i):
        rep = build_named(name, None, seed=2).rep
        sub = rep.alphabet.names[:2]
        direct = gap_profile(rep, i, radius=4, subalphabet=sub)
        lifted = gap_profile(wedge_rep(rep, i), 1, radius=4, subalphabet=sub)
        assert direct.verdict == lifted.verdict
        for (l1, lo1, _), (l2, lo2, _) in zip(direct.samples, lifted.samples):
            assert l1 == l2
            assert lo1 == pytest.approx(lo2, abs=1e-8)


class TestQIProfile:
    def test_trivial_rep_fails(self):
        rep = RepSpec(PAIR, {"a1": np.eye(2), "b1": np.eye(2)})
        prof = qi_profile(rep, radius=4)
        assert prof.verdict == "fail"
        assert prof.lower_fit[1] == pytest.approx(0.0, abs=1e-12)

    def test_schottky_passes(self):
        prof = qi_profile(schottky_pair(), radius=6)
        assert prof.verdict == "pass"
        assert prof.J >= 1.0 and prof.K >= 1.0

    def test_spin_tensor_assembly_passes(self):
        # spin lift of a complex 2x2 family tensored with a character-scaled
        # dominating block: the 12-dimensional tensor keeps a growing gap
        base_c = rename_generators(schottky_sl2c(2, 3.0), PAIR)
        rho0 = spin_lift(base_c)
        j = rename_generators(schottky_sl2r(2, 3.0 ** 4 * 1.25), PAIR)
        eps = Character(PAIR, {"a1": 2.0, "b1": 1.0})
        line = scale_by_character(j, eps, -0.5)
        twelve = tensor_rep(rho0, line)
        assert twelve.dim == 12
        prof = qi_profile(twelve, radius=4)
        assert prof.verdict == "pass"

    def test_envelopes_are_ordered(self):
        prof = qi_profile(schottky_pair(), radius=5)
        for _, lo, hi in prof.samples:
            assert lo <= hi + 1e-12
