import json
import math
import tracemalloc

import numpy as np
import pytest

from specgap import builders, obstruct, reps
from specgap.builders import build_named
from specgap.cli import main
from specgap.errors import (DegenerateConfigurationError, InputError,
                            SamplingError, SearchError)
from specgap.linalg import block_eigenvalues, classify, spectrum
from specgap.obstruct import (_line_angle_stats, certify_not_limit,
                              check_domination, find_negative_lambda,
                              limit_formula_check, sample_limit_set,
                              verify_certificate)
from specgap.reps import (ComplexRep2, RepSpec, axis_dilation, block_sum,
                          pull_back,
                          rename_generators, rotation_block_rep, schottky_sl2c,
                          schottky_sl2r, spin_lift, tensor_rep)
from specgap.words import (Alphabet, Presentation, Word, commutator,
                           enumerate_ball, word)

from oracles import sandwich_map

PAIR = Alphabet(("a1", "b1"))


def j_spread(spread):
    return rename_generators(schottky_sl2r(2, spread), PAIR)


class TestFindNegativeLambda:
    def test_identity_coset_returns_trace_witness(self):
        j = j_spread(4.0)
        sw = find_negative_lambda(j, Word.identity(PAIR))
        assert sw.power == 1 and sw.word == sw.base_word
        assert sw.lambda1 < -1
        pc = classify(spectrum(j.evaluate(sw.word)).eigenvalues)
        assert pc.proximal[0] and pc.top_eigenvalue.real == pytest.approx(
            sw.lambda1, rel=1e-9)

    def test_square_coset_within_budget(self):
        j = j_spread(4.0)
        sw = find_negative_lambda(j, word(PAIR, "a1^2"))
        assert sw.power <= 20
        assert sw.lambda1 < 0
        # independent re-check of the returned witness
        pc = classify(spectrum(j.evaluate(sw.word.cyclic_reduction()))
                      .eigenvalues)
        assert pc.top_eigenvalue.real < 0

    def test_witness_stays_in_commutator_coset(self):
        j = j_spread(4.0)
        coset = word(PAIR, "a1^2")
        sw = find_negative_lambda(j, coset)
        assert sw.word == (sw.base_word ** sw.power) * coset
        assert sw.word.exponent_sums() == (2, 0)

    def test_deterministic(self):
        j = j_spread(4.0)
        sw1 = find_negative_lambda(j, word(PAIR, "a1^2"))
        sw2 = find_negative_lambda(j, word(PAIR, "a1^2"))
        assert sw1.word == sw2.word
        assert sw1.search_trace == sw2.search_trace

    @pytest.mark.parametrize("coset", ["", "a1^2", "b1^-2"])
    def test_lambda_with_det_drift_matches_mpmath(self, coset):
        # letters of det 1 + 1.5e-8, inside the unimodular gate: the
        # witness's eigenvalue against the 2x2 closed form of its product
        # in 60 digits
        mpmath = pytest.importorskip("mpmath")
        base = j_spread(4.0)
        j = RepSpec(PAIR, {l: math.sqrt(1 + 1.5e-8) * base.image(l)
                           for l in PAIR.names})
        sw = find_negative_lambda(j, word(PAIR, coset) if coset
                                  else Word.identity(PAIR))
        with mpmath.workdps(60):
            m = mpmath.eye(2)
            for idx, sign in sw.word.letters:
                g = mpmath.matrix(j.image(PAIR.names[idx]).tolist())
                m = m * (g if sign > 0 else mpmath.inverse(g))
            t = m[0, 0] + m[1, 1]
            want = (t - mpmath.sqrt(t * t - 4 * mpmath.det(m))) / 2
        assert abs(sw.lambda1 - want) <= 1e-12 * abs(want)

    def test_budget_exhaustion_raises_with_trace(self, monkeypatch):
        monkeypatch.setattr(obstruct, "MAX_CANDIDATES", 10)
        rot = rotation_block_rep(PAIR, 1.0, ("a1", "b1"))
        with pytest.raises(SearchError) as err:
            find_negative_lambda(rot, Word.identity(PAIR))
        assert len(err.value.trace) > 0

    def test_requires_2x2(self):
        big = tensor_rep(j_spread(4.0), j_spread(9.0))
        with pytest.raises(InputError):
            find_negative_lambda(big, Word.identity(PAIR))


class TestLimitFormula:
    def test_identity_coset_gives_unit_ratio(self):
        j = j_spread(4.0)
        w0 = commutator(word(PAIR, "a1"), word(PAIR, "b1"))
        rpt = limit_formula_check(j, w0, Word.identity(PAIR), n_max=10)
        assert rpt.predicted == pytest.approx(1.0, rel=1e-9)
        assert abs(rpt.ratios[0] - 1.0) < 1e-9

    def test_base_word_coset_gives_top_eigenvalue(self):
        j = j_spread(4.0)
        w0 = commutator(word(PAIR, "a1"), word(PAIR, "b1"))
        rpt = limit_formula_check(j, w0, w0, n_max=30)
        assert rpt.predicted == pytest.approx(rpt.base_top_eigenvalue, rel=1e-4)
        assert rpt.converged

    def test_random_pair_converges_geometrically(self):
        j = j_spread(4.0)
        w0 = commutator(word(PAIR, "a1"), word(PAIR, "b1"))
        rpt = limit_formula_check(j, w0, word(PAIR, "a1^2 b1"), n_max=12)
        errs = [abs(r - rpt.predicted) for r in rpt.ratios]
        # the first steps decay like the square of the base contraction;
        # later ones sit on the rounding floor
        assert errs[1] <= errs[0] * 1e-3 + 1e-12
        assert errs[-1] <= 1e-10 * max(1.0, abs(rpt.predicted))

    def test_consecutive_ratio_recovers_base_eigenvalue(self):
        j = j_spread(4.0)
        w0 = commutator(word(PAIR, "a1"), word(PAIR, "b1"))
        rpt = limit_formula_check(j, w0, word(PAIR, "a1^2"), n_max=30)
        assert rpt.consecutive_error <= 1e-4 * abs(rpt.base_top_eigenvalue)

    def test_transversality_violation_raises(self):
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = RepSpec(PAIR, {"a1": np.diag([-3.0, -1 / 3.0]), "b1": quarter})
        with pytest.raises(DegenerateConfigurationError):
            limit_formula_check(rep, word(PAIR, "a1"), word(PAIR, "b1"))

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_fewer_than_two_powers_rejected(self, n_max):
        # the last ratio and the last consecutive ratio raised IndexError
        w0 = commutator(word(PAIR, "a1"), word(PAIR, "b1"))
        with pytest.raises(InputError, match="n_max"):
            limit_formula_check(j_spread(4.0), w0, word(PAIR, "a1^2"),
                                n_max=n_max)

    def test_nonproximal_base_rejected(self):
        rot = rotation_block_rep(PAIR, 1.0, ("a1",))
        with pytest.raises(InputError):
            limit_formula_check(rot, word(PAIR, "a1"), word(PAIR, "b1"))


class TestDomination:
    def test_equal_reps_sit_on_the_boundary(self):
        j = j_spread(4.0)
        rpt = check_domination(j, j, 1.0, 4)
        assert rpt.margin == pytest.approx(0.0, abs=1e-9)
        assert rpt.boundary and rpt.passed

    def test_square_spread_against_squared_exponent(self):
        rpt = check_domination(j_spread(16.0), j_spread(4.0), 2.0, 5)
        assert rpt.passed
        assert rpt.margin == pytest.approx(0.0, abs=1e-9)

    def test_sandwich_substitution_dominates(self):
        j = j_spread(4.0)
        pulled = pull_back(j, sandwich_map(PAIR, 6))
        rpt = check_domination(pulled, j, 6.0, 4)
        assert rpt.passed and rpt.margin > 0.1

    def test_failing_exponent(self):
        j = j_spread(4.0)
        rpt = check_domination(j, j, 2.0, 4)
        assert not rpt.passed and rpt.margin < -1.0

    def test_json_shape(self, strict_json):
        # diagonal images with power-of-two spectra: every margin is exact,
        # log 2 at length 1 and 0 on a1 b1^-1, whose image is the identity
        upper = RepSpec(PAIR, {l: np.diag([4.0, 0.25]) for l in PAIR.names})
        lower = RepSpec(PAIR, {l: np.diag([2.0, 0.5]) for l in PAIR.names})
        doc = check_domination(upper, lower, 1.0, 2).to_json()
        assert strict_json(doc) == {
            "exponent": 1.0, "radius": 2, "margin": 0.0, "argmin": "a1 b1^-1",
            "per_length": [[1, math.log(2.0)], [2, 0.0]],
            "passed": True, "boundary": True, "words_checked": 16,
        }

    def test_per_length_minima_cover_every_length(self):
        rpt = check_domination(j_spread(16.0), j_spread(4.0), 2.0, 4)
        assert [l for l, _ in rpt.per_length] == [1, 2, 3, 4]

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            check_domination(schottky_sl2r(2, 4.0), j_spread(4.0), 1.0, 2)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_exponent_that_is_not_finite_is_refused(self, exponent):
        # a NaN exponent once read as margin inf, argmin "e" and a pass
        with pytest.raises(InputError, match="not finite"):
            check_domination(schottky_sl2r(2, 4.0), schottky_sl2r(2, 16.0),
                             exponent, 3)

    @staticmethod
    def _per_word(upper, lower, exponent, radius):
        """The definition, word by word: every word of the ball in shortlex
        order takes the margin of its cyclic reduction."""
        per_length: dict = {}
        margin, argmin, count = math.inf, "", 0
        for w in enumerate_ball(upper.alphabet, radius):
            if not w.letters:
                continue
            count += 1
            core = w.cyclic_reduction()
            m = (math.log(upper.top_modulus(core))
                 - exponent * math.log(lower.top_modulus(core)))
            per_length[len(w)] = min(per_length.get(len(w), math.inf), m)
            if m < margin:
                margin, argmin = m, str(core)
        return count, tuple(sorted(per_length.items())), margin, argmin

    @staticmethod
    def _pairs(case):
        """(upper, lower, exponent, radius): random Schottky pairs against
        random spin lifts of loxodromic pairs, both ways round; then pairs
        whose margins tie exactly in exact arithmetic, so that the argmin
        rests on rounding alone; then diagonal powers of two, whose margins
        tie exactly in floating point too (b1^5 and b1^-5 both reach the
        minimum); then a rank-1 pair, which has no padded words, and a
        rank-4 pair."""
        if case == "rank1":
            a = Alphabet(("a",))
            return [(RepSpec(a, {"a": np.array([[2.0, 1.0], [1.0, 1.0]])}),
                     RepSpec(a, {"a": np.diag([1.5, 1 / 1.5])}), 1.5, 6)]
        if case == "rank4":
            labels = Alphabet(("a1", "b1", "c1", "d1"))
            j = rename_generators(schottky_sl2r(4, 7.0), labels)
            spin = spin_lift(rename_generators(schottky_sl2c(4, 6.0), labels))
            return [(j, spin, 0.7, 3), (spin, j, 1.3, 3)]
        if case == "diagonal":
            rep = RepSpec(PAIR, {"a1": np.diag([2.0, 0.5]),
                                 "b1": np.diag([4.0, 0.25])})
            return [(rep, rep, 2.0, 5)]
        if case == "tied":
            j = j_spread(4.0)
            spin = spin_lift(rename_generators(schottky_sl2c(2, 4.0), PAIR))
            return [(j, j, 1.0, 5), (j_spread(16.0), j, 2.0, 5),
                    (spin, spin, 1.0, 4)]
        rng = np.random.default_rng(case)
        rank = 2 + case % 2
        labels = Alphabet(("a1", "b1", "c1")[:rank])
        j = rename_generators(schottky_sl2r(rank, rng.uniform(4, 9)), labels)
        lox = rename_generators(schottky_sl2c(rank, rng.uniform(4, 9)), labels)
        spin = spin_lift(lox)
        exponent = float(rng.uniform(0.5, 3.0))
        radius = 5 if rank == 2 else 4
        return [(j, spin, exponent, radius), (spin, j, exponent, radius)]

    @pytest.mark.parametrize("case", [0, 1, 2, 3, "tied", "diagonal",
                                      "rank1", "rank4"])
    def test_matches_the_per_word_sweep(self, case):
        for upper, lower, exponent, radius in self._pairs(case):
            rpt = check_domination(upper, lower, exponent, radius)
            count, per_length, margin, argmin = self._per_word(
                upper, lower, exponent, radius)
            assert rpt.words_checked == count
            assert rpt.per_length == per_length
            assert rpt.margin == margin
            assert rpt.argmin == argmin

    @pytest.mark.parametrize("case", ["det drift", "near parabolic",
                                      "near scalar"])
    def test_2x2_rule_matches_mpmath(self, case):
        # both eigenvalues from the kernel, on the letters' determinants,
        # against those of the exact product of the letters in 50 digits, on
        # every word of the radius-6 ball: images whose determinants drift
        # from 1 inside the input gate, and words whose eigenvalues nearly
        # coincide, where the entry form of the discriminant is taken.  An
        # error delta ~ |w| eps |W| in the entries moves coinciding roots by
        # up to sqrt(|t| delta); separated ones stay within 1e-13 relative
        mpmath = pytest.importorskip("mpmath")
        ab = Alphabet(("a", "b"))
        if case == "det drift":
            a = np.array([[2.0, 1.0], [1.0, 1.0 + 7.5e-9]])
            quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
            images = {"a": a, "b": quarter @ a @ quarter.T}
        elif case == "near parabolic":
            images = {"a": np.array([[1.0, 1.0], [0.0, 1.0]]),
                      "b": np.array([[1.0, 0.0], [3e-9, 1.0]])}
        else:
            c, s = math.cos(1e-9), math.sin(1e-9)
            images = {"a": np.array([[1.0 + 4e-9, 1e-9], [1e-9, 1.0]]),
                      "b": np.array([[c, -s], [s, c]])}
        rep = RepSpec(ab, images)
        table = rep.table
        eps = np.finfo(float).eps
        entry_form = separated = 0
        with mpmath.workdps(50):
            letters = [mpmath.matrix(images[l].tolist()) for l in ab.names]
            letters = [g for m in letters for g in (m, mpmath.inverse(m))]
            for length, codes, (prods,) in reps.iter_ball_images(
                    4, 6, *reps.products(table)):
                if not length:
                    continue  # the identity
                dets = reps.word_dets(table, codes)
                got = block_eigenvalues(prods, dets)
                for row, m, det, pair in zip(codes, prods, dets, got):
                    w = mpmath.eye(2)
                    for code in row:
                        w = w * letters[code]
                    t = w[0, 0] + w[1, 1]
                    root = mpmath.sqrt(t * t - 4 * mpmath.det(w))
                    want = [complex((t + root) / 2), complex((t - root) / 2)]
                    err = min(max(abs(pair[0] - want[0]),
                                  abs(pair[1] - want[1])),
                              max(abs(pair[0] - want[1]),
                                  abs(pair[1] - want[0])))
                    top = max(map(abs, want))
                    if abs(want[0] - want[1]) > 1e-2 * top:
                        separated += 1
                        assert err <= 1e-13 * top, row
                    delta = len(row) * eps * np.abs(m).max()
                    assert err <= 1e-13 * top + math.sqrt(
                        delta * max(abs(t), 1)), row
                    (p, q), (r, s) = m.tolist()
                    entry_form += (abs((p + s) ** 2 - 4 * det)
                                   < 1.5e-8 * (p + s) ** 2
                                   and abs(p - s) + 2 * (abs(q) + abs(r))
                                   < 2 * abs(p + s))
        assert entry_form
        assert separated or case != "det drift"

    @pytest.mark.parametrize("block_bytes", [1, 2000])
    @pytest.mark.parametrize("case", [0, 1, "tied", "diagonal"])
    def test_small_blocks_give_the_same_report(self, monkeypatch, case,
                                               block_bytes):
        pairs = self._pairs(case)
        expected = [check_domination(*args) for args in pairs]
        monkeypatch.setattr(reps, "BLOCK_BYTES", block_bytes)
        assert [check_domination(*args) for args in pairs] == expected

    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("case", ["exponent 0", "negative exponent",
                                      "4x4 upper side", "rank 1, 4x4 lower"])
    def test_bound_pruning_matches_the_per_word_sweep(self, monkeypatch, case,
                                                      block_bytes):
        # exponent <= 0 prunes nothing; a 4x4 lower side is pruned against
        # the merged threshold with two generators, its length's own with
        # one.  One-word blocks put a^-L after a^L, where a^L's margin is
        # the threshold and a^-L's may be a rounding below it
        if block_bytes:
            monkeypatch.setattr(reps, "BLOCK_BYTES", block_bytes)
        j = j_spread(4.0)
        spin = spin_lift(rename_generators(schottky_sl2c(2, 4.0), PAIR))
        wide = spin_lift(rename_generators(schottky_sl2c(2, 6.0), PAIR))
        one = Alphabet(("a",))
        pairs = {
            "exponent 0": [(j, spin, 0.0, 5), (spin, wide, 0.0, 4)],
            "negative exponent": [(j, spin, -1.5, 5), (spin, wide, -0.7, 4)],
            "4x4 upper side": [(wide, spin, 1.2, 5), (spin, wide, 0.5, 4),
                               (wide, j, 2.0, 5)],
            "rank 1, 4x4 lower": [
                (RepSpec(one, {"a": np.array([[2.0, 1.0], [1.0, 1.0]])}),
                 spin_lift(ComplexRep2(one, {"a": axis_dilation(
                     0.3, 1.2 * np.exp(0.5j))})), e, 8) for e in (0.9, 1.5)],
        }[case]
        for upper, lower, exponent, radius in pairs:
            rpt = check_domination(upper, lower, exponent, radius)
            count, per_length, margin, argmin = self._per_word(
                upper, lower, exponent, radius)
            assert rpt.words_checked == count
            assert rpt.per_length == per_length
            assert rpt.margin == margin
            assert rpt.argmin == argmin

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_pruning_with_a_2x2_lower_block(self, monkeypatch, block_bytes):
        # a lower side of a 4x4 spin block and a 2x2 block of drifted
        # determinant: the 2x2 block is read exactly in the bound, the 4x4
        # one bounded by its Frobenius norm, and words are still skipped
        if block_bytes:
            monkeypatch.setattr(reps, "BLOCK_BYTES", block_bytes)
        spin = spin_lift(rename_generators(schottky_sl2c(2, 4.0), PAIR))
        scale = math.sqrt(1 + 1.5e-8)
        drift = RepSpec(PAIR, {l: scale * j_spread(5.0).image(l)
                               for l in PAIR.names})
        rows = {2: 0, 4: 0}
        real = reps.block_eigenvalues

        def spy(images, dets):
            rows[images.shape[1]] += len(images)
            return real(images, dets)
        monkeypatch.setattr(reps, "block_eigenvalues", spy)
        for lower in (block_sum([spin, drift]), block_sum([drift, spin])):
            for upper, exponent, radius in ((j_spread(16.0), 1.5, 5),
                                            (spin, 0.5, 4)):
                rows.update({2: 0, 4: 0})
                rpt = check_domination(upper, lower, exponent, radius)
                if upper.dim == 2:
                    # N words meet the upper side and the 2x2 block's bound,
                    # C < N the 4x4 block: 3 C < 2 N + C
                    assert 3 * rows[4] < rows[2]
                count, per_length, margin, argmin = self._per_word(
                    upper, lower, exponent, radius)
                assert rpt.words_checked == count
                assert rpt.per_length == per_length
                assert rpt.margin == margin
                assert rpt.argmin == argmin

    def test_d6_pair_sends_few_words_to_eigvals(self, monkeypatch):
        # the d6 pair at radius 8: every one of the 9,856 cyclically reduced
        # words meets the kernel on the 2x2 upper side, at most 1% on the
        # lower side's blocks wider than 2, where it calls eigvals
        rows: dict = {}
        sweeping = []
        real, sweep = reps.block_eigenvalues, builders.check_domination

        def spy(images, dets):
            if sweeping:
                width = images.shape[1]
                rows[width] = rows.get(width, 0) + len(images)
            return real(images, dets)

        def traced(*args):
            sweeping.append(True)
            try:
                return sweep(*args)
            finally:
                sweeping.clear()
        monkeypatch.setattr(reps, "block_eigenvalues", spy)
        monkeypatch.setattr(builders, "check_domination", traced)
        build_named("thm1i_d6", {"dom_radius": 8}, seed=0)
        assert rows[2] == 9856
        wide = sum(n for width, n in rows.items() if width > 2)
        assert 0 < wide <= 0.01 * rows[2]

    def test_last_level_is_never_held_whole(self):
        # radius 9 over a rank-2 pair of 2x2 images: the last level holds
        # 26,244 words and 1.7 MB of images; made whole, with its gathered
        # factors, it would take three times that
        j = j_spread(4.0)
        tracemalloc.start()
        try:
            rpt = check_domination(j_spread(16.0), j, 2.0, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rpt.words_checked == 4 * (3 ** 9 - 1) // 2
        assert peak < 2 * (4 * 3 ** 8) * 2 * j.image("a1").nbytes

    def test_memory_is_bounded_whatever_the_ball_size(self):
        # radius 10, a rank-2 pair of 2x2 images against a 4x4 spin lift:
        # 118,096 words and 19 MB of images, swept with about one block of
        # at most reps.BLOCK_BYTES per length live at a time
        j = j_spread(4.0)
        spin = spin_lift(rename_generators(schottky_sl2c(2, 4.0), PAIR))
        tracemalloc.start()
        try:
            rpt = check_domination(j, spin, 2.0, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rpt.words_checked == 4 * (3 ** 10 - 1) // 2
        assert peak < reps.BLOCK_BYTES * rpt.radius


class TestCertificates:
    def _identity_rep(self):
        return RepSpec(PAIR, {"a1": np.eye(4), "b1": np.eye(4)})

    def test_identity_rep_covers_nothing(self, strict_json):
        rep = self._identity_rep()
        cert = certify_not_limit(rep, [word(PAIR, "a1^2")], [1, 2],
                                 Presentation.free(PAIR))
        assert not cert.covered_all
        assert all(not e.covered for e in cert.entries)
        assert strict_json(cert.entries[0].to_json()) == {
            "index": 1, "covered": False, "witness": None,
            "reason": "all decisive witnesses positively semiproximal",
            "classification": None,
        }

    def test_tie_cluster_with_positive_products_stays_uncovered(self):
        # a1^2 = diag(2, -2 x24, 0.5 x25): at index 10 the top cluster holds
        # C(25, 10) products, C(24, 10) of them +1024
        rot = math.sqrt(2.0) * np.array([[0.0, -1.0], [1.0, 0.0]])
        a1 = np.zeros((50, 50))
        a1[0, 0] = math.sqrt(2.0)
        for k in range(1, 25, 2):
            a1[k:k + 2, k:k + 2] = rot
        a1[25:, 25:] = np.eye(25) / math.sqrt(2.0)
        rep = RepSpec(PAIR, {"a1": a1, "b1": np.eye(50)})
        cert = certify_not_limit(rep, [word(PAIR, "a1^2")], [10],
                                 Presentation.free(PAIR))
        assert not cert.entries[0].covered and not cert.covered_all

    def test_witness_parity_precondition(self):
        rep = self._identity_rep()
        with pytest.raises(InputError):
            certify_not_limit(rep, [word(PAIR, "a1")], [1],
                              Presentation.free(PAIR))

    def test_empty_witness_list(self):
        with pytest.raises(InputError):
            certify_not_limit(self._identity_rep(), [], [1],
                              Presentation.free(PAIR))

    def test_index_range_checked(self):
        rep = self._identity_rep()
        with pytest.raises(InputError):
            certify_not_limit(rep, [word(PAIR, "a1^2")], [3],
                              Presentation.free(PAIR))

    @pytest.mark.parametrize("indices", [[], [1, 1], [2, 1, 2]])
    def test_empty_or_repeated_indices(self, indices):
        # an empty list once gave a certificate with covered_all true
        with pytest.raises(InputError):
            certify_not_limit(self._identity_rep(), [word(PAIR, "a1^2")],
                              indices, Presentation.free(PAIR))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_tol_that_is_not_finite_and_positive_is_refused(self, tol):
        with pytest.raises(InputError, match="finite and positive"):
            certify_not_limit(self._signed_rep(),
                              [word(PAIR, "a1 b1 a1 b1^-1")], [1],
                              Presentation.free(PAIR), tol=tol)

    def test_forged_certificate_with_a_nan_tol_is_refused(self):
        # a1 a1 covers none of indices 1-3 of thm1ii_d12; the record
        # edited to claim all three, with a NaN tol (which json.load
        # accepts), once verified: every comparison with NaN is false
        rep = build_named("thm1ii_d12", None, seed=0).rep
        cert = certify_not_limit(rep, [word(rep.alphabet, "a1 a1")],
                                 [1, 2, 3], Presentation.free(rep.alphabet))
        assert not any(e.covered for e in cert.entries)
        doc = cert.to_json()
        for entry in doc["entries"]:
            entry.update(covered=True, witness="a1 a1")
        for tol in (math.nan, math.inf, 0.0, -1e-6, 1e-6):
            forged = json.loads(json.dumps({**doc, "tol": tol}))
            assert verify_certificate(forged, rep) is False

    @pytest.mark.parametrize("forge", [
        lambda doc: doc["entries"][0].update(classification=None),
        lambda doc: doc["entries"][0]["classification"].update(
            top_modulus=0.0),
        lambda doc: doc["entries"][0]["classification"].update(
            top_modulus=-5.0),
        lambda doc: doc["entries"][0]["classification"].update(
            top_multiplicity=7),
        lambda doc: doc["entries"][0]["classification"].update(
            positively_semiproximal=True),
        lambda doc: doc.update(covered_all=False),
        lambda doc: doc["entries"][0]["classification"].update(
            top_eigenvalue=[-v for v in doc["entries"][0]["classification"][
                "top_eigenvalue"]]),
        lambda doc: doc["entries"][0]["classification"].update(
            top_eigenvalue=None),
        lambda doc: doc["entries"][0]["classification"].update(index=2),
        lambda doc: doc["entries"][0]["classification"].update(tol=0.5),
        lambda doc: doc["entries"][0]["classification"].update(
            method="dense-minors"),
        lambda doc: doc.update(witnesses=["a1"]),
        lambda doc: doc.update(dim=99),
    ], ids=["classification null", "top modulus 0", "top modulus -5",
            "multiplicity 7", "positively semiproximal", "covered_all false",
            "top eigenvalue sign flipped", "top eigenvalue null",
            "classification index 2", "classification tol 0.5",
            "method dense-minors", "witnesses a1", "dim 99"])
    def test_forged_fields_of_a_covering_certificate_are_refuted(self, forge):
        # thm1i_d6's witness covers indices 1-3; each forgery once verified
        result = build_named("thm1i_d6", None, seed=0)
        rep = result.rep
        cert = certify_not_limit(rep, [result.witness("main")], [1, 2, 3],
                                 Presentation.free(rep.alphabet))
        doc = json.loads(json.dumps(cert.to_json()))
        assert cert.covered_all and verify_certificate(doc, rep)
        forge(doc)
        assert verify_certificate(doc, rep) is False

    @pytest.mark.parametrize("field,forge", [
        ("top_eigenvalue", lambda doc: doc["entries"][0]["classification"]
         .update(top_eigenvalue=[1.0, 0.0, 0.0])),
        ("top_eigenvalue", lambda doc: doc["entries"][0]["classification"]
         .update(top_eigenvalue=[True, 0.0])),
        ("top_eigenvalue", lambda doc: doc["entries"][0]["classification"]
         .update(top_eigenvalue="-2.68e14")),
        ("method", lambda doc: doc["entries"][0]["classification"]
         .update(method=None)),
        ("tol", lambda doc: doc["entries"][0]["classification"]
         .update(tol="1e-6")),
        ("index", lambda doc: doc["entries"][0]["classification"].pop(
            "index")),
        ("witnesses", lambda doc: doc.update(witnesses="a1")),
        ("dim", lambda doc: doc.update(dim=6.0)),
    ])
    def test_mistyped_fields_of_a_certificate_are_input_errors(self, field,
                                                               forge):
        result = build_named("thm1i_d6", None, seed=0)
        rep = result.rep
        cert = certify_not_limit(rep, [result.witness("main")], [1, 2, 3],
                                 Presentation.free(rep.alphabet))
        doc = json.loads(json.dumps(cert.to_json()))
        forge(doc)
        with pytest.raises(InputError, match=repr(field)):
            verify_certificate(doc, rep)

    def test_revalidation_refuses_empty_or_repeated_entries(self):
        rep = self._signed_rep()
        cert = certify_not_limit(rep, [word(PAIR, "a1 b1 a1 b1^-1")], [1],
                                 Presentation.free(PAIR))
        doc = json.loads(json.dumps(cert.to_json()))
        assert verify_certificate(doc, rep)
        for entries in ([], doc["entries"] * 2):
            assert not verify_certificate({**doc, "entries": entries}, rep)

    @staticmethod
    def _signed_rep():
        # a1 carries signs, b1 cycles coordinates, so the witness
        # a1 b1 a1 b1^-1 lands on diag(0.5, -10, -0.2)
        cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        return RepSpec(PAIR, {"a1": np.diag([-5.0, 2.0, -0.1]), "b1": cycle})

    def test_covering_certificate_and_revalidation(self):
        rep = self._signed_rep()
        cert = certify_not_limit(rep, [word(PAIR, "a1^2")], [1],
                                 Presentation.free(PAIR),
                                 assumptions=("demo",))
        # a1^2 image diag(25, 4, 0.01) is positively semiproximal
        assert not cert.entries[0].covered
        cert2 = certify_not_limit(rep, [word(PAIR, "a1 b1 a1 b1^-1")], [1],
                                  Presentation.free(PAIR))
        assert cert2.entries[0].covered
        assert verify_certificate(cert2, rep)
        doc = json.loads(json.dumps(cert2.to_json()))
        assert verify_certificate(doc, rep)

    def test_revalidation_detects_wrong_rep(self):
        rep = self._signed_rep()
        cert = certify_not_limit(rep, [word(PAIR, "a1 b1 a1 b1^-1")], [1],
                                 Presentation.free(PAIR))
        other = RepSpec(PAIR, {"a1": np.diag([5.0, 2.0, 0.1]),
                               "b1": np.diag([2.0, 1.0, 0.5])})
        assert not verify_certificate(cert, other)

    @staticmethod
    def _rotation_rep():
        # a has eigenvalues -3, 2e^(+-i), 2e^(+-2.2i), -1/48: the witness a
        # fails positive semiproximality at indices 1 and 2, and at index 3
        # its six-fold top cluster leaves the classification indeterminate.
        # b^2 is -1 on coordinates 0 and 5, so a = b^2 c^2: the relator
        # a c^-2 b^-2 holds and puts a in the index-two core
        abc = Alphabet(("a", "b", "c"))
        a, b, c = np.zeros((6, 6)), np.eye(6), np.zeros((6, 6))
        a[0, 0], a[5, 5] = -3.0, -1 / 48
        c[0, 0], c[5, 5] = math.sqrt(3.0), 1 / math.sqrt(48.0)
        for at, t in ((1, 1.0), (3, 2.2)):
            a[at:at + 2, at:at + 2] = 2 * rotation_block_rep(
                abc, t, ("a",)).image("a")
            c[at:at + 2, at:at + 2] = math.sqrt(2.0) * rotation_block_rep(
                abc, t / 2, ("a",)).image("a")
        b[np.ix_([0, 5], [0, 5])] = [[0.0, -1.0], [1.0, 0.0]]
        rep = RepSpec(abc, {"a": a, "b": b, "c": c})
        cert = certify_not_limit(rep, [word(abc, "a")], [1, 2, 3],
                                 Presentation(abc, (word(abc, "a c^-2 b^-2"),)))
        return rep, cert

    def test_revalidation_skips_uncovered_entries(self):
        rep, cert = self._rotation_rep()
        assert [e.covered for e in cert.entries] == [True, True, False]
        assert cert.entries[2].reason.startswith("classification indeterminate")
        assert verify_certificate(cert, rep)

    def test_relators_are_recorded_and_rechecked(self):
        rep, cert = self._rotation_rep()
        doc = json.loads(json.dumps(cert.to_json()))
        [(relator, dev)] = doc["relators"]["deviations"]
        assert relator == str(word(rep.alphabet, "a c^-2 b^-2"))
        assert dev <= doc["relators"]["tol"]
        assert verify_certificate(doc, rep)
        # a relator the images fail, edited into the record
        doc["relators"]["deviations"].append(["a b^-2", 0.0])
        assert not verify_certificate(doc, rep)

    def test_unsatisfied_relator_is_refused(self):
        rep, _ = self._rotation_rep()
        abc = rep.alphabet
        with pytest.raises(InputError, match="does not satisfy relator a b"):
            certify_not_limit(rep, [word(abc, "a^2")], [1],
                              Presentation(abc, (word(abc, "a b^-2"),)))

    @pytest.mark.parametrize("tamper", [
        # the index-2 entry claimed for index 3, where the class is
        # indeterminate
        lambda entries: entries[1].update(index=3),
        # the index-1 entry relabelled as index 2, whose top modulus is 6
        lambda entries: entries[0].update(index=2),
        lambda entries: entries[0]["classification"].update(
            top_modulus=1.01 * entries[0]["classification"]["top_modulus"]),
    ], ids=["covered entry moved to index 3", "entry relabelled",
            "top modulus scaled"])
    def test_revalidation_refuses_tampered_entries(self, tamper):
        rep, cert = self._rotation_rep()
        doc = cert.to_json()
        tamper(doc["entries"])
        assert not verify_certificate(doc, rep)

    @pytest.mark.parametrize("field, edit", [
        ("rep_digest", lambda d: d.pop("rep_digest")),
        ("tol", lambda d: d.update(tol=None)),
        ("tol", lambda d: d.update(tol="1e-6")),
        ("entries", lambda d: d.pop("entries")),
        ("entries", lambda d: d.update(entries="[]")),
        ("index", lambda d: d["entries"][0].update(index="1")),
        ("covered", lambda d: d["entries"][0].update(covered=1)),
        ("witness", lambda d: d["entries"][0].update(witness=7)),
        ("classification", lambda d: d["entries"][0].update(classification=[])),
        ("top_modulus", lambda d: d["entries"][0]["classification"].update(
            top_modulus="6.0")),
        ("relators", lambda d: d.update(relators="a c^-2 b^-2")),
        ("deviations", lambda d: d["relators"].update(
            deviations=["a c^-2 b^-2"])),
        ("tol", lambda d: d["relators"].update(tol=None)),
    ], ids=["rep_digest missing", "tol null", "tol string", "entries missing",
            "entries string", "index string", "covered integer",
            "witness integer", "classification list", "top_modulus string",
            "relators string", "deviations of strings", "relators tol null"])
    def test_malformed_document_is_an_input_error_naming_the_field(
            self, field, edit):
        # each once raised TypeError, KeyError or AttributeError
        rep, cert = self._rotation_rep()
        doc = json.loads(json.dumps(cert.to_json()))
        assert verify_certificate(doc, rep)
        edit(doc)
        with pytest.raises(InputError, match=f"'{field}' must be a JSON"):
            verify_certificate(doc, rep)

    def test_certificate_json_fields(self, strict_json):
        rep = self._signed_rep()
        cert = certify_not_limit(rep, [word(PAIR, "a1 b1 a1 b1^-1")], [1],
                                 Presentation.free(PAIR),
                                 assumptions=("declared hypothesis",))
        doc = cert.to_json()
        assert doc["schema_version"] == 1
        assert doc["assumptions"] == ["declared hypothesis"]
        assert doc["parity_evidence"][0]["exponent_sums"] == [2, 0]
        assert len(doc["entries"][0]["classification"]["top_moduli"]) <= 8
        assert strict_json(doc) == {
            "schema_version": 1, "construction": {},
            "rep_digest": rep.digest(), "dim": 3, "tol": 1e-6,
            "witnesses": ["a1 b1 a1 b1^-1"],
            "parity_evidence": [{"witness": "a1 b1 a1 b1^-1",
                                 "exponent_sums": [2, 0],
                                 "relator_count": 0}],
            "entries": [{
                "index": 1, "covered": True, "witness": "a1 b1 a1 b1^-1",
                "reason": "witness fails positive semiproximality",
                "classification": {
                    "index": 1, "method": "subset-products",
                    "p1_proximal": True, "semiproximal": True,
                    "positively_semiproximal": False,
                    "top_eigenvalue": [-10.0, 0.0], "top_modulus": 10.0,
                    "top_multiplicity": 1, "top_moduli": [10.0, 0.5, 0.2],
                    "indeterminate": False, "tol": 1e-6,
                },
            }],
            "assumptions": ["declared hypothesis"], "covered_all": True,
            "relators": {"tol": 1e-8, "deviations": []},
        }


class TestVerifyRecomputes:
    """A certificate verifies when ``certify_not_limit``, run again on its
    own inputs, writes it again."""

    @staticmethod
    def covering():
        # thm1i_d6's witness covers indices 1-3, and so does its cube
        result = build_named("thm1i_d6", None, seed=0)
        rep, main = result.rep, result.witness("main")
        pres = Presentation.free(rep.alphabet)
        return rep, main, pres, json.loads(json.dumps(certify_not_limit(
            rep, [main], [1, 2, 3], pres).to_json()))

    @pytest.mark.parametrize("forge", [
        lambda doc: doc["parity_evidence"][0].update(exponent_sums=[5] * 8),
        lambda doc: doc["parity_evidence"][0].update(witness="a1"),
        lambda doc: doc["entries"][0].update(reason="any string"),
        lambda doc: doc.update(schema_version=99),
        lambda doc: doc["construction"].update(construction="thm1i_d5"),
        lambda doc: doc["relators"].update(tol=0.5),
        lambda doc: doc.update(note="an extra key"),
    ], ids=["parity exponent sums", "parity witness", "reason",
            "schema_version 99", "construction thm1i_d5", "relators tol 0.5",
            "extra top-level key"])
    def test_a_forged_claim_is_refuted(self, forge):
        # each once verified: the fields were re-derived one by one
        rep, _, _, doc = self.covering()
        assert verify_certificate(doc, rep)
        forge(doc)
        assert verify_certificate(doc, rep) is False

    def test_an_entry_must_name_the_first_covering_witness(self):
        rep, main, pres, _ = self.covering()
        cube = main ** 3
        doc = json.loads(json.dumps(certify_not_limit(
            rep, [main, cube], [1, 2, 3], pres).to_json()))
        assert verify_certificate(doc, rep)
        entry = certify_not_limit(rep, [cube], [1], pres).to_json()[
            "entries"][0]
        assert entry["covered"] and entry["witness"] == str(cube)
        doc["entries"][0] = json.loads(json.dumps(entry))
        assert verify_certificate(doc, rep) is False

    def test_an_uncovered_entry_that_recomputation_covers_is_refuted(self):
        rep, _, _, doc = self.covering()
        doc["entries"][0].update(
            covered=False, witness=None, classification=None,
            reason="all decisive witnesses positively semiproximal")
        doc["covered_all"] = False
        assert verify_certificate(doc, rep) is False


class TestOverflowingWitness:
    """a = diag(1e100, 1e-100, 1): the image of a^4 overflows.  b^2 has the
    negative top pair -4, -4 and covers index 1."""

    AB = Alphabet(("a", "b"))

    def rep(self):
        b = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.25]])
        return RepSpec(self.AB, {"a": np.diag([1e100, 1e-100, 1.0]), "b": b})

    def certify(self, *witnesses):
        words = [word(self.AB, w) for w in witnesses]
        return certify_not_limit(self.rep(), words, [1],
                                 Presentation.free(self.AB))

    def test_is_indeterminate_at_every_index(self):
        (entry,) = self.certify("a^4").entries
        assert not entry.covered
        assert entry.reason == "classification indeterminate at this tolerance"

    def test_a_later_witness_still_covers(self):
        cert = self.certify("a^4", "b^2")
        assert cert.covered_all and cert.entries[0].witness == "b b"
        assert cert.entries[0].classification.top_multiplicity == 2

    def test_verify_refuses_an_entry_it_covers(self):
        doc = self.certify("b^2").to_json()
        assert verify_certificate(doc, self.rep())
        doc["entries"][0]["witness"] = "a^4"
        assert verify_certificate(doc, self.rep()) is False

    def test_cli_leaves_the_index_uncovered_and_exits_3(self, tmp_path,
                                                          capsys):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(self.rep().to_json()))
        argv = ["obstruct", "--rep", str(path), "--witness", "a^4"]
        assert main(argv + ["--out", str(tmp_path / "one")]) == 3
        assert main(argv + ["--witness", "b^2",
                            "--out", str(tmp_path / "two")]) == 0
        assert "Warning" not in capsys.readouterr().err

    def test_domination_still_refuses_it(self):
        rep = self.rep()
        with pytest.raises(InputError, match="non-finite"):
            check_domination(rep, rep, 1.0, 4)


class TestLimitSet:
    def test_pure_tensor_defect_is_tiny(self, monkeypatch):
        monkeypatch.setattr(obstruct, "MIN_PROXIMAL", 20)
        t = tensor_rep(j_spread(4.0), j_spread(9.0))
        sample = sample_limit_set(t, 120, seed=5)
        assert sample.max_defect < 1e-8
        assert sample.factor_dims == (2, 2)

    def test_requires_tensor_provenance(self):
        with pytest.raises(InputError):
            sample_limit_set(j_spread(4.0), 10, seed=0)

    def test_sampling_error_when_nothing_is_proximal(self, monkeypatch):
        monkeypatch.setattr(obstruct, "MIN_PROXIMAL", 5)
        rot = rotation_block_rep(PAIR, 1.0, ("a1", "b1"))
        t = tensor_rep(rot, rot)
        with pytest.raises(SamplingError):
            sample_limit_set(t, 40, seed=0)

    def test_csv_shape(self, monkeypatch):
        monkeypatch.setattr(obstruct, "MIN_PROXIMAL", 10)
        t = tensor_rep(j_spread(4.0), j_spread(9.0))
        sample = sample_limit_set(t, 60, seed=5)
        lines = sample.to_csv().strip().splitlines()
        assert lines[0].startswith("word,")
        assert len(lines) == len(sample.words) + 1


def _dense_angle_stats(lines):
    """The angle statistics from the whole Gram matrix."""
    if len(lines) < 2:
        return {"count": int(len(lines))}
    gram = np.abs(lines @ lines.T)
    np.fill_diagonal(gram, -1.0)
    nearest = np.arccos(np.clip(gram.max(axis=1), -1.0, 1.0))
    return {
        "count": int(len(lines)),
        "nearest_neighbor_min": float(nearest.min()),
        "nearest_neighbor_median": float(np.median(nearest)),
        "spread_max": float(np.arccos(np.clip(gram[gram > -1].min(), -1.0, 1.0))),
    }


def _per_word_sample(rep, sample_words, seed, min_length=4, max_length=10,
                     tol=1e-6):
    """The sampler one word at a time: one evaluate, one eig and one SVD per
    sample.  Also returns, per word length, the set of spectrum kinds
    (real or not) that the eigendecompositions met."""
    d1 = rep.factors[0].dim
    d2 = rep.dim // d1
    rng = np.random.default_rng(seed)
    symbols = rep.alphabet.symbols()
    words, vecs, defects, left, right = [], [], [], [], []
    kinds: dict = {}
    for _ in range(sample_words):
        length = int(rng.integers(min_length, max_length + 1))
        letters = []
        while len(letters) < length:
            idx, sign = symbols[rng.integers(len(symbols))]
            if letters and letters[-1][0] == idx and letters[-1][1] == -sign:
                continue
            letters.append((idx, sign))
        w = Word(rep.alphabet, tuple(letters))
        m = rep.evaluate(w)
        try:
            vals, eigvecs = np.linalg.eig(m)
        except np.linalg.LinAlgError:
            continue
        kinds.setdefault(length, set()).add(np.isrealobj(vals))
        order = np.argsort(-np.abs(vals))
        top, second = vals[order[0]], vals[order[1]]
        if abs(top) <= (1 + tol) * abs(second):
            continue
        if abs(top.imag) > tol * abs(top):
            continue
        v = eigvecs[:, order[0]]
        pivot = np.argmax(np.abs(v))
        v = v / v[pivot]
        if np.max(np.abs(v.imag)) > 1e-8 * np.max(np.abs(v.real)):
            continue
        v = v.real / np.linalg.norm(v.real)
        u, sv, vt = np.linalg.svd(v.reshape(d1, d2))
        words.append(str(w))
        vecs.append(v)
        defects.append(float(sv[1] / sv[0]))
        left.append(u[:, 0])
        right.append(vt[0])
    stats = {"left": _dense_angle_stats(np.array(left)),
             "right": _dense_angle_stats(np.array(right))}
    return (tuple(words), np.array(vecs), tuple(defects), max(defects),
            stats, kinds)


class TestSamplerMatchesPerWord:
    """The batched sampler against the word-by-word definition, bit for
    bit: the same words, vectors, defects and angle statistics."""

    @staticmethod
    def assert_same(sample, reference):
        words, vecs, defects, max_defect, stats, _ = reference
        assert sample.words == words
        assert sample.vectors.shape == vecs.shape
        assert sample.vectors.tobytes() == vecs.tobytes()
        assert np.array(sample.defects).tobytes() == np.array(defects).tobytes()
        assert sample.max_defect == max_defect
        assert json.dumps(sample.factor_stats) == json.dumps(stats)

    @pytest.mark.parametrize("block_bytes", [None, 1, 3000])
    @pytest.mark.parametrize("name", ["thm1ii_d12", "prop42_sl6"])
    def test_matches_the_per_word_sampler(self, monkeypatch, name, block_bytes):
        rep = build_named(name, None, seed=0).rep
        reference = _per_word_sample(rep, 400, seed=3)
        if block_bytes is not None:
            monkeypatch.setattr(reps, "BLOCK_BYTES", block_bytes)
        self.assert_same(sample_limit_set(rep, 400, seed=3), reference)

    def test_stacks_mix_real_and_complex_spectra(self):
        # words of one length share a stack, so a length whose words met
        # both kinds of spectrum makes a batched eig return complex arrays
        # for real spectra too
        rep = build_named("thm1ii_d12", None, seed=0).rep
        reference = _per_word_sample(rep, 400, seed=3)
        kinds = reference[-1]
        assert any(k == {True, False} for k in kinds.values())
        self.assert_same(sample_limit_set(rep, 400, seed=3), reference)

    def test_linalg_error_falls_back_to_one_matrix_at_a_time(self,
                                                             monkeypatch):
        rep = build_named("thm1ii_d12", None, seed=0).rep
        eig = np.linalg.eig
        failed = []

        def flaky_eig(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("batched eig refused")
            if int(np.abs(a).sum() * 1e6) % 5 == 0:
                failed.append(1)
                raise np.linalg.LinAlgError("did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", flaky_eig)
        reference = _per_word_sample(rep, 300, seed=5)
        skipped = len(failed)
        sample = sample_limit_set(rep, 300, seed=5)
        assert skipped > 0 and len(failed) == 2 * skipped
        self.assert_same(sample, reference)


class TestLineAngleStats:
    @staticmethod
    def _exact_lines(n, seed):
        """Unit lines whose dot products are exact in any summation order:
        sign vectors in R^16 scaled by 1/4, with coordinate axes mixed in.
        They repeat (up to sign) and meet at right angles."""
        rng = np.random.default_rng(seed)
        lines = rng.choice([-0.25, 0.25], size=(n, 16))
        axes = rng.random(n) < 0.2
        lines[axes] = np.eye(16)[rng.integers(16, size=int(axes.sum()))]
        return lines

    @pytest.mark.parametrize("rows", [None, 1, 2, 3, 64])
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 301])
    def test_matches_the_dense_formula(self, monkeypatch, n, rows):
        lines = self._exact_lines(n, n)
        if rows is not None:
            monkeypatch.setattr(reps, "BLOCK_BYTES", 8 * n * rows)
        assert _line_angle_stats(lines) == _dense_angle_stats(lines)

    @pytest.mark.parametrize("rows", [None, 2, 7])
    @pytest.mark.parametrize("n", [2, 50, 301])
    def test_random_lines_match_to_rounding(self, monkeypatch, n, rows):
        # the blocked and the whole products are different BLAS kernels and
        # may round a dot product differently in the last bits; k ulps of a
        # cosine near 1 move its arccos by up to sqrt(2 k eps), under 1e-7
        # for k <= 8
        rng = np.random.default_rng(n)
        lines = rng.normal(size=(n, 4))
        lines /= np.linalg.norm(lines, axis=1)[:, None]
        if rows is not None:
            monkeypatch.setattr(reps, "BLOCK_BYTES", 8 * n * rows)
        got, want = _line_angle_stats(lines), _dense_angle_stats(lines)
        assert got.keys() == want.keys()
        for key in got:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-7)

    def test_duplicate_and_orthogonal_lines_are_degenerate(self):
        lines = np.eye(4)[[0, 3, 0, 1]]
        stats = _line_angle_stats(lines)
        assert stats["nearest_neighbor_min"] == 0.0
        assert stats["spread_max"] == math.pi / 2

    def test_memory_stays_below_the_gram_matrix(self):
        rng = np.random.default_rng(2)
        lines = rng.normal(size=(3000, 4))  # a Gram matrix of 72 MB
        # warm up: the first call imports numpy.ma, which is not the sweep
        _line_angle_stats(lines[:10])
        tracemalloc.start()
        try:
            _line_angle_stats(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * reps.BLOCK_BYTES
