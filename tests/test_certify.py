import itertools
import json
import math

import numpy as np
import pytest

from specgap import certify, reps
from specgap.builders import build_named
from specgap.certify import (default_radius, gap_profile, qi_profile,
                             DISCLAIMER)
from specgap.errors import InputError
from specgap.linalg import exterior_power
from specgap.reps import (Character, RepSpec, graded_products,
                          iter_ball_images, rename_generators, restrict_rep,
                          scale_by_character,
                          scaled_rotation_rep, schottky_sl2c, schottky_sl2r,
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

    def test_budget_truncation_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(certify, "MAX_WORDS", 50)
        prof = gap_profile(schottky_pair(), 1, radius=6)
        assert prof.verdict == "inconclusive"
        assert 0 < prof.words_evaluated <= 50

    @pytest.mark.parametrize("radius", [-1, -5])
    def test_negative_radius_rejected(self, radius):
        rep = build_named("thm1i_d6", None, seed=0).rep
        for profile in (lambda: gap_profile(rep, 1, radius),
                        lambda: qi_profile(rep, radius),
                        lambda: gap_profile(schottky_pair(), 1, radius)):
            with pytest.raises(InputError, match="radius"):
                profile()

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


class TestFactoredProfiles:
    """A tensor build sweeps its Kronecker factors; the same images without
    factors sweep the whole product.  The two must agree to rounding."""

    @staticmethod
    def _profiles(rep, index):
        """The radius-3 profiles of ``rep`` and of its images without
        factors."""
        whole = RepSpec(rep.alphabet,
                        {l: rep.image(l) for l in rep.alphabet.names},
                        rep.provenance)
        assert len(rep.factors) == 2 and whole.factors == ()
        return [qi_profile(r, radius=3) if index is None
                else gap_profile(r, index, radius=3) for r in (rep, whole)]

    @pytest.mark.parametrize("name,params", [
        ("thm1ii_d12", None), ("thm41_pattern", {"n": 13})])
    def test_factored_and_whole_sweeps_agree(self, name, params):
        rep = build_named(name, params, seed=3).rep
        for index in [*range(1, rep.dim), None]:
            got, want = self._profiles(rep, index)
            assert got.verdict == want.verdict
            assert (got.J is None) == (want.J is None)
            assert got.words_evaluated == want.words_evaluated
            assert [s[0] for s in got.samples] == [s[0] for s in want.samples]
            for g, w in zip(got.samples, want.samples):
                for a, b in zip(g[1:], w[1:]):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


    def test_prop42_sl6_factored_sweep_matches_mpmath_oracle(self):
        # the (Q, R) sweep of the whole 6x6 product put the QI maximum at
        # length 3 at 50.37 against the 80-digit 47.2031, and its gap-4 and
        # gap-5 lower envelopes at rounding noise of 1e-12 instead of
        # 1e-75, which gave them a J; both the factored (2x2 and 3x3) and
        # the whole (6x6) Jacobi sweeps are within 1e-10 of the oracle
        mpmath = pytest.importorskip("mpmath")
        rep = build_named("prop42_sl6", None, seed=3).rep
        mats = [mpmath.matrix(m.tolist()) for m in rep.table]
        logs: dict = {}
        with mpmath.workdps(80):
            def walk(m, first, length):
                if length:
                    sv = sorted(mpmath.svd_r(m, compute_uv=False), reverse=True)
                    logs.setdefault(length, []).append(
                        [mpmath.log(s) for s in sv])
                if length < 3:
                    for k, g in enumerate(mats):
                        if first is None or k != first ^ 1:
                            walk(g * m, k, length + 1)

            walk(mpmath.eye(rep.dim), None, 0)
        for index in [*range(1, rep.dim), None]:
            hi, lo = (0, rep.dim - 1) if index is None else (index - 1, index)
            got, whole = self._profiles(rep, index)
            assert got.verdict == whole.verdict
            assert got.words_evaluated == whole.words_evaluated
            for prof in (got, whole):
                for l, got_lo, got_hi in prof.samples:
                    vals = [float(v[hi] - v[lo]) for v in logs[l]]
                    for a, b in ((got_lo, min(vals)), (got_hi, max(vals))):
                        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
            if index in (4, 5):
                assert got.J is None and whole.J is None

    def test_one_dimensional_factor_changes_nothing(self):
        # a 1x1 Jacobi state has no column pair to rotate
        ab = Alphabet(("a", "b"))
        three = scaled_rotation_rep(ab, 1.7, 0.8, 1.1)
        doc = three.to_json()
        doc["factors"] = [RepSpec(ab, {"a": [[1.0]], "b": [[1.0]]}).to_json(),
                          three.to_json()]
        rep = RepSpec.from_json(doc)
        assert [f.dim for f in rep.factors] == [1, 3]
        for index in (1, 2, None):
            got, want = (qi_profile(r, radius=3) if index is None
                         else gap_profile(r, index, radius=3)
                         for r in (rep, three))
            assert got.samples == want.samples

    def test_overflow_in_one_factor_is_inconclusive(self):
        ab = Alphabet(("a", "b"))
        big = np.diag([1e120, 1.0, 1e-120])
        wide = RepSpec(ab, {"a": big, "b": big[::-1, ::-1]})
        rep = tensor_rep(wide, RepSpec(ab, {"a": np.eye(2),
                                            "b": np.diag([2.0, 0.5])}))
        prof = qi_profile(rep, radius=3)
        assert prof.verdict == "inconclusive"
        assert prof.samples[-1][2] == math.inf


class TestBlockLayout:
    """The direct-sum blocks each named build's profile sweeps, per table
    (Kronecker factor or whole representation).  One-sided Jacobi costs
    several times more per word on a wide dense table (CHANGES.md), so no
    named build may sweep a block wider than 6 unnoticed."""

    @pytest.mark.parametrize("name,params,layout", [
        ("thm1i_d5", None, [[1, 4]]),
        ("thm1i_d6", None, [[2, 4]]),
        ("thm1i_dge7", None, [[1, 2, 4]]),
        ("thm1i_dge7", {"d": 10}, [[1, 1, 1, 1, 2, 4]]),
        ("prop42_sl4", None, [[2, 2]]),
        ("thm41_pattern", None, [[1] * 5, [3]]),
        ("thm41_pattern", {"n": 13}, [[1] * 13, [3]]),
        ("thm1ii_d12", None, [[4], [3]]),
        ("prop42_sl6", None, [[2], [3]])])
    def test_named_builds_sweep_their_blocks(self, monkeypatch, name, params,
                                             layout):
        rep = build_named(name, params).rep
        real = certify.graded_products
        seen = []

        def spy(structure):
            root, step, logs = real(structure)
            seen.append(([[t.shape[-1] for t in ts for _ in range(t.shape[1])]
                          for ts in structure],
                         [len(entry) for entry in root]))
            return root, step, logs
        monkeypatch.setattr(certify, "graded_products", spy)
        qi_profile(rep, radius=1)
        assert seen == [(layout, [w for table in layout for w in table])]
        assert max(seen[0][1]) <= 6


class TestInversePairs:
    """Past dim 2 a profile sweeps one word of each pair {w, w^-1} at its
    last length and reads gap_i(w^-1) = gap_{dim-i}(w) from w's singular
    values.  An unpaired sweep of the whole ball is the oracle."""

    @staticmethod
    def _unpaired(rep, radius, sub=None):
        """Per index (None: QI), per length, the (min, max) of every word's
        own ratio, and the number of words."""
        structure = (rep if sub is None else restrict_rep(rep, sub)).structure
        indices = [*range(1, rep.dim), None]
        extrema = {i: {} for i in indices}
        count = 0
        root, step, logs = graded_products(structure)
        for length, codes, state in iter_ball_images(len(structure[0][0]),
                                                     radius, root, step):
            if not length:
                continue
            count += len(codes)
            for i in indices:
                hi, lo = (0, rep.dim - 1) if i is None else (i - 1, i)
                v = certify._log_ratios(logs(state), hi, lo)
                old = extrema[i].get(length, (math.inf, -math.inf))
                extrema[i][length] = (min(old[0], v.min()),
                                      max(old[1], v.max()))
        return extrema, count

    @staticmethod
    def _whole(rep):
        return RepSpec(rep.alphabet,
                       {l: rep.image(l) for l in rep.alphabet.names})

    @pytest.mark.parametrize("name,seed,sub,radius", [
        ("thm1i_d6", 0, None, 3), ("thm1i_d6", 3, None, 3),
        ("prop42_sl6", 0, None, 3), ("prop42_sl6", 3, None, 3),
        ("thm1ii_d12", 3, ("a4", "b4"), 5),
        ("prop42_sl6 factored", 0, None, 3),
        ("prop42_sl6 factored", 3, None, 3),
        ("thm1i_dge7", 3, None, 3), ("thm1ii_d12 whole", 3, None, 2)])
    def test_paired_profiles_match_an_unpaired_sweep(self, name, seed, sub,
                                                     radius):
        # a factored prop42_sl6 sweeps a 2x2 state with a 3x3 Jacobi state,
        # thm1i_dge7 its 4 + 2 + 1 blocks, a whole 12x12 table one block
        rep = build_named(name.split()[0], None, seed=seed).rep
        if name in ("prop42_sl6", "thm1ii_d12 whole"):
            rep = self._whole(rep)  # one 6x6 or 12x12 Jacobi state
        extrema, count = self._unpaired(rep, radius, sub)
        for i, want in extrema.items():
            prof = (qi_profile(rep, radius, sub) if i is None
                    else gap_profile(rep, i, radius, sub))
            assert prof.words_evaluated == count
            assert [s[0] for s in prof.samples] == sorted(want)
            # a log ratio is off by rounding at the scale of the logs, so a
            # value near 0 is compared absolutely
            for length, lo, hi in prof.samples:
                for a, b in zip((lo, hi), want[length]):
                    assert abs(a - b) <= 1e-11 * max(1.0, abs(b))

    @pytest.mark.parametrize("case,paired", [
        ("schottky", False), ("thm1i_d6", True), ("thm1ii_d12", True),
        ("thm1ii_d12 whole", True)])
    def test_only_jacobi_states_pair(self, monkeypatch, case, paired):
        # every state past dim 2 is a Jacobi state, a whole 12x12 table
        # too; the 2x2 closed form of a whole 2x2 table is cheaper unpaired.
        # A paired profile sweeps the ball to the length before the last
        # and steps the last length itself
        if case == "schottky":
            rep = schottky_pair()
        else:
            rep = build_named(case.split()[0]).rep
            if case.endswith("whole"):
                rep = self._whole(rep)  # one 12x12 Jacobi state
        seen = []

        def spy(nsym, radius, *args):
            seen.append(radius)
            return iter_ball_images(nsym, radius, *args)
        monkeypatch.setattr(certify, "iter_ball_images", spy)
        qi_profile(rep, radius=2)
        assert seen == [2 - paired]


def _outputs(rep, index, radius=None, sub=None):
    """The bytes ``diagnose`` writes of a profile: its JSON and CSV."""
    prof = (qi_profile(rep, radius, sub) if index is None
            else gap_profile(rep, index, radius, sub))
    return json.dumps(prof.to_json(), sort_keys=True), prof.to_csv()


class TestWholeBalls:
    """A profile sweeps the ball of the largest radius, up to the one
    asked for, whose words (identity excluded) fit ``MAX_WORDS``, and is
    inconclusive when that radius falls short."""

    FIELDS = ("samples", "lower_fit", "upper_fit", "J", "K", "monotone",
              "words_evaluated")

    @pytest.mark.parametrize("case,index,radius", [
        ("thm1i_d6", None, 3), ("thm1i_d6", 1, 3), ("thm1i_d6", None, 4),
        ("schottky", None, 8), ("schottky", 1, 8)])
    def test_a_budget_one_word_short_sweeps_the_radius_below(
            self, monkeypatch, case, index, radius):
        # thm1i_d6 is paired (Jacobi states), schottky_sl2r(2, 4.0) is a
        # whole 2x2 table, not paired
        rep = (schottky_sl2r(2, 4.0) if case == "schottky"
               else build_named(case, None, seed=0).rep)
        nsym = 2 * rep.alphabet.size
        size = nsym * ((nsym - 1) ** radius - 1) // (nsym - 2)

        def profile(r):
            return (qi_profile(rep, r) if index is None
                    else gap_profile(rep, index, r))

        def fields(prof):
            doc = prof.to_json()
            return json.dumps([doc[f] for f in self.FIELDS]), prof.to_csv()
        below = profile(radius - 1)
        monkeypatch.setattr(certify, "MAX_WORDS", size)
        whole = profile(radius)
        assert whole.words_evaluated == size
        assert whole.verdict in ("pass", "fail")
        monkeypatch.setattr(certify, "MAX_WORDS", size - 1)
        cut = profile(radius)
        assert cut.radius == radius and cut.verdict == "inconclusive"
        assert fields(cut) == fields(below)

    def test_a_huge_radius_sweeps_the_largest_ball_within_budget(self):
        # thm1i_d6 over 16 letters: the radius-4 ball holds 57,856 words,
        # the radius-5 ball 867,856, past MAX_WORDS; a radius of 10**6 is
        # answered as fast as the default one
        rep = build_named("thm1i_d6", None, seed=0).rep
        four = qi_profile(rep, 4)
        huge = qi_profile(rep, 10 ** 6)
        assert huge.radius == 10 ** 6 and huge.verdict == "inconclusive"
        assert huge.samples == four.samples
        assert huge.words_evaluated == four.words_evaluated == 57_856


class TestBoundedLastLength:
    """Profiles whose ball fits ``MAX_WORDS`` on Jacobi and 2x2 states skip
    the last-length words whose statistic is bounded inside the envelope;
    the same sweep without the bound is the oracle."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("name", ["prop42_sl4", "prop42_sl6",
                                      "thm1ii_d12", "thm41_pattern"])
    def test_profiles_match_an_unbounded_sweep(self, unbounded, name, seed):
        # every gap index and the QI profile at the default radius; the
        # thm1ii_d12 gap-3 profile is the benchmark's
        rep = build_named(name, None, seed=seed).rep
        indices = [*range(1, rep.dim), None]
        got = [_outputs(rep, i) for i in indices]
        unbounded()
        assert got == [_outputs(rep, i) for i in indices]

    @pytest.mark.parametrize("seed", [7, 23])
    def test_radius_4_d12_profiles_match_an_unbounded_sweep(self, unbounded,
                                                            seed):
        # the benchmark's build at the benchmark's radius, where the bound
        # skips the most words; gap 3 is the benchmark's profile
        rep = build_named("thm1ii_d12", None, seed=seed).rep
        indices = [1, 3, 6, None]
        got = [_outputs(rep, i, 4) for i in indices]
        unbounded()
        assert got == [_outputs(rep, i, 4) for i in indices]

    @pytest.mark.parametrize("name,d", [("thm1i_d6", None), ("thm1i_dge7", 7),
                                        ("thm1i_dge7", 10)])
    def test_block_sum_profiles_match_an_unbounded_sweep(self, unbounded,
                                                         name, d):
        # every gap index and the QI profile at radius 4, where the ball
        # fits the budget (the default radius 5 does not); these builds
        # sweep the 4 + 2 (+ 1 ...) blocks of their tables
        rep = build_named(name, None if d is None else {"d": d}).rep
        indices = [*range(1, rep.dim), None]
        got = [_outputs(rep, i, 4) for i in indices]
        unbounded()
        assert got == [_outputs(rep, i, 4) for i in indices]

    @pytest.mark.parametrize("spread,radius", [(2.5, 10), (4.0, 8)])
    def test_2x2_profiles_are_unchanged(self, unbounded, spread, radius):
        # the benchmark's Schottky QI profiles: a whole 2x2 sweep is not
        # paired, so it is not bounded either
        rep = schottky_sl2r(2, spread)
        got = _outputs(rep, None, radius)
        unbounded()
        assert got == _outputs(rep, None, radius)

    @pytest.mark.parametrize("case,paired,top", [
        ("thm1ii_d12 r4", True, 3), ("thm1i_d6 r5", True, 3),
        ("schottky r10", False, 10), ("thm1ii_d12 whole r3", True, 2)])
    def test_only_paired_sweeps_within_budget_are_bounded(self, monkeypatch,
                                                          case, paired, top):
        # every paired sweep is bounded: it steps the letters for their
        # logs before its sweep, and sweeps its ball to the length before
        # the last.  thm1i_d6's radius-5 ball passes MAX_WORDS, so its
        # profile sweeps the radius-4 ball
        name, radius = case.split()[0], int(case.split()[-1][1:])
        rep = (schottky_pair() if name == "schottky"
               else build_named(name, None, seed=0).rep)
        if "whole" in case:
            rep = TestInversePairs._whole(rep)  # one 12x12 Jacobi state
        calls = []

        def products(structure):
            root, step, logs = graded_products(structure)

            def spy(*args):
                calls.append("step")
                return step(*args)
            return root, spy, logs

        def sweep(nsym, top, *args):
            calls.append(top)
            return iter(())
        monkeypatch.setattr(certify, "graded_products", products)
        monkeypatch.setattr(certify, "iter_ball_images", sweep)
        qi_profile(rep, radius=radius)
        assert calls == ["step"] * paired + [top]

    def test_jacobi_step_sees_at_most_65_percent_of_the_last_length(
            self, monkeypatch):
        # thm1ii_d12, seed 0, gap 3 at radius 4 over 16 letters: lengths
        # 1-3 hold 3,856 words, and 27,000 pairs stand for the 54,000 words
        # of length 4; 2,070 of them are swept, besides the 16 letters
        # stepped once for their logs.  The Weyl bound alone sweeps 16,785
        # in shortlex order and 7,345 widest letters first; Horn's bound in
        # shortlex order sweeps 9,935
        rep = build_named("thm1ii_d12", None, seed=0).rep
        swept = self._swept(monkeypatch)
        prof = gap_profile(rep, 3, radius=4)
        assert prof.words_evaluated == 57_856
        assert swept[0] - 3_856 - 16 == 2_070

    @pytest.mark.parametrize("seed,steps", [(7, 8_543), (23, 16_271)])
    def test_benchmark_profile_steps(self, monkeypatch, seed, steps):
        # the benchmark's gap-3 profile of thm1ii_d12 at radius 4: every
        # word the Jacobi step sees, letters and lengths 1-3 included; the
        # Weyl bound in shortlex order stepped 19,580 and 22,253
        rep = build_named("thm1ii_d12", None, seed=seed).rep
        swept = self._swept(monkeypatch)
        assert gap_profile(rep, 3, radius=4).words_evaluated == 57_856
        assert swept[0] == steps

    @pytest.mark.parametrize("case", ["2x2"])
    def test_other_routes_sweep_every_word(self, monkeypatch, case):
        # the closed form of a whole 2x2 table is neither paired nor bounded
        rep, radius, words = schottky_pair(2.5), 10, 4 * (3 ** 10 - 1) // 2
        swept = self._swept(monkeypatch)
        prof = qi_profile(rep, radius=radius)
        assert swept[0] == prof.words_evaluated == words

    @pytest.mark.parametrize("index", [3, None])
    def test_each_word_stepped_is_read_once(self, monkeypatch, index):
        # the benchmark's build at radius 4: a parent block's logs bound
        # its children from the same read that widened its envelope, so
        # the reader sees each word stepped once, the 16 letters included
        rep = build_named("thm1ii_d12", None, seed=7).rep
        swept = self._swept(monkeypatch)
        (qi_profile(rep, radius=4) if index is None
         else gap_profile(rep, index, radius=4))
        assert swept[0] < 57_856 and swept[1] == swept[0]

    @staticmethod
    def _swept(monkeypatch):
        """Counts of the words handed to the sweep's step and of the rows
        its reader reads, from now on."""
        swept = [0, 0]
        real = certify.graded_products

        def counted(structure):
            root, step, logs = real(structure)

            def spy(state, parent, letter):
                swept[0] += len(parent)
                return step(state, parent, letter)

            def read(state):
                swept[1] += state[0].shape[-1]
                return logs(state)
            return root, spy, read
        monkeypatch.setattr(certify, "graded_products", counted)
        return swept

    def test_parents_that_are_not_finite_bound_nothing(
            self, monkeypatch, profile_steps, unbounded):
        # a^2 overflows in the 3x3 factor, so the parents of the radius-4
        # words that hold a^2 or a^-2 have no finite ratio; every child of
        # such a parent is stepped (the first of its inverse pair), while
        # finite parents bound some children (small blocks give the bound
        # many runs to act on)
        monkeypatch.setattr(reps, "BLOCK_BYTES", 700)
        ab = Alphabet(("a", "b"))
        cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        wide = RepSpec(ab, {"a": np.diag([1e160, 1.0, 1e-160]),
                            "b": cycle @ np.diag([1.5, 1.0, 1 / 1.5])})
        rep = tensor_rep(wide, RepSpec(ab, {"a": np.eye(2),
                                            "b": np.diag([2.0, 0.5])}))
        reader = graded_products(rep.structure)[2]
        prof = gap_profile(rep, 1, radius=4)
        finite, stepped = {}, set()
        for codes, state in profile_steps:
            words = map(tuple, codes.tolist())
            if codes.shape[1] == 3:
                finite.update(zip(words, np.isfinite(reader(state)).all(
                    axis=1)))
            elif codes.shape[1] == 4:
                stepped.update(words)
        swept = {False: [], True: []}
        for w, ok in finite.items():
            children = [w + (s,) for s in range(4) if s != w[-1] ^ 1]
            swept[bool(ok)] += [x in stepped for x in children
                                if x < tuple(c ^ 1 for c in reversed(x))]
        assert swept[False] and all(swept[False])
        assert not all(swept[True])
        assert prof.samples[-1][2] == math.inf
        unbounded()
        assert gap_profile(rep, 1, radius=4) == prof


class TestHornBound:
    """The last-length bound of each ratio against the 50-digit singular
    values of the children x = w*s of parents w at lengths 1-3, with every
    letter s: three parents of each sweep block (first, middle, last)."""

    @pytest.mark.parametrize("name", ["thm1ii_d12", "thm1i_d5", "thm1i_d6",
                                      "prop42_sl6"])
    def test_children_lie_inside_their_bounds(self, name):
        mpmath = pytest.importorskip("mpmath")
        rep = build_named(name, None, seed=0).rep
        d, nsym = rep.dim, len(rep.table)
        root, step, logs = graded_products(rep.structure)
        letters = logs(step(root, np.zeros(nsym, dtype=int), np.arange(nsym)))
        picked = [(codes[k].tolist(), logs(state)[k])
                  for length, codes, state in iter_ball_images(nsym, 3, root,
                                                               step)
                  if length for k in {0, len(codes) // 2, len(codes) - 1}]
        parents = np.array([lg for _, lg in picked])
        with mpmath.workdps(50):
            # per factor (Kronecker: singular values multiply) the letters
            tables = [[mpmath.matrix(m.tolist()) for m in f.table]
                      for f in rep.factors or (rep,)]

            def exact_logs(codes):
                per_factor = []
                for table in tables:
                    m = mpmath.eye(table[0].rows)
                    for c in codes:
                        m = m * table[c]
                    per_factor.append([mpmath.log(v) for v in
                                       mpmath.svd_r(m, compute_uv=False)])
                return sorted(map(sum, itertools.product(*per_factor)),
                              reverse=True)

            children = [[exact_logs(codes + [s]) for s in range(nsym)]
                        for codes, _ in picked]
        tighter = 0
        for a, b in [(i - 1, i) for i in range(1, d)] + [(0, d - 1)]:
            low, high = certify._last_length_bounds(parents, letters, {(a, b)})
            low, high = low.T, high.T  # (parents, letters)
            assert np.isfinite(low).all() and np.isfinite(high).all()
            for p, row in enumerate(children):
                for s, x in enumerate(row):
                    assert low[p, s] <= float(x[a] - x[b]) <= high[p, s]
            # the Weyl interval, from the parent's ratio and kappa(s)
            v = parents[:, a, None] - parents[:, b, None]
            reach = letters[:, 0] - letters[:, -1]
            tighter += int((high < v + reach - 1e-6).sum()
                           + (low > np.maximum(v - reach, 0.0) + 1e-6).sum())
        assert tighter > 0


class TestTooFewLengths:
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_fewer_than_two_fitted_lengths_are_inconclusive(self, radius):
        # a slope needs two lengths >= 2; a fit of fewer reads 0
        prof = qi_profile(schottky_pair(), radius=radius)
        assert prof.verdict == "inconclusive"
        assert prof.J is None
