import json
import math
import tracemalloc

import numpy as np
import pytest

from specgap import reps
from specgap.builders import build_named
from specgap.errors import (DegenerateConfigurationError, InputError,
                            SamplingError, SearchError)
from specgap.linalg import classify
from specgap.obstruct import (_line_angle_stats, certify_not_limit,
                              check_domination, find_negative_lambda,
                              limit_formula_check, sample_limit_set,
                              verify_certificate)
from specgap.reps import (RepSpec, pull_back, rename_generators,
                          rotation_block_rep, schottky_sl2c, schottky_sl2r,
                          spin_lift, tensor_rep)
from specgap.words import (Alphabet, Presentation, Word, commutator,
                           enumerate_ball, sandwich_map, word)

PAIR = Alphabet(("a1", "b1"))


def j_spread(spread):
    return rename_generators(schottky_sl2r(2, spread), PAIR)


class TestFindNegativeLambda:
    def test_identity_coset_returns_trace_witness(self):
        j = j_spread(4.0)
        sw = find_negative_lambda(j, Word.identity(PAIR))
        assert sw.power == 1 and sw.word == sw.base_word
        assert sw.lambda1 < -1
        pc = classify(j.evaluate(sw.word))
        assert pc.proximal[0] and pc.top_eigenvalue.real == pytest.approx(
            sw.lambda1, rel=1e-9)

    def test_square_coset_within_budget(self):
        j = j_spread(4.0)
        sw = find_negative_lambda(j, word(PAIR, "a1^2"))
        assert sw.power <= 20
        assert sw.lambda1 < 0
        # independent re-check of the returned witness
        pc = classify(j.evaluate(sw.word.cyclic_reduction()))
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

    def test_budget_exhaustion_raises_with_trace(self):
        rot = rotation_block_rep(PAIR, 1.0, ("a1", "b1"))
        with pytest.raises(SearchError) as err:
            find_negative_lambda(rot, Word.identity(PAIR), max_candidates=10)
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
        minimum)."""
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

    @pytest.mark.parametrize("case", [0, 1, 2, 3, "tied", "diagonal"])
    def test_matches_the_per_word_sweep(self, case):
        for upper, lower, exponent, radius in self._pairs(case):
            rpt = check_domination(upper, lower, exponent, radius)
            count, per_length, margin, argmin = self._per_word(
                upper, lower, exponent, radius)
            assert rpt.words_checked == count
            assert rpt.per_length == per_length
            assert rpt.margin == margin
            assert rpt.argmin == argmin

    @pytest.mark.parametrize("block_bytes", [1, 2000])
    @pytest.mark.parametrize("case", [0, 1, "tied", "diagonal"])
    def test_small_blocks_give_the_same_report(self, monkeypatch, case,
                                               block_bytes):
        pairs = self._pairs(case)
        expected = [check_domination(*args) for args in pairs]
        monkeypatch.setattr(reps, "BLOCK_BYTES", block_bytes)
        assert [check_domination(*args) for args in pairs] == expected

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
        }


class TestLimitSet:
    def test_pure_tensor_defect_is_tiny(self):
        t = tensor_rep(j_spread(4.0), j_spread(9.0))
        sample = sample_limit_set(t, 120, seed=5, min_proximal=20)
        assert sample.max_defect < 1e-8
        assert sample.factor_dims == (2, 2)

    def test_requires_tensor_provenance(self):
        with pytest.raises(InputError):
            sample_limit_set(j_spread(4.0), 10, seed=0)

    def test_sampling_error_when_nothing_is_proximal(self):
        rot = rotation_block_rep(PAIR, 1.0, ("a1", "b1"))
        t = tensor_rep(rot, rot)
        with pytest.raises(SamplingError):
            sample_limit_set(t, 40, seed=0, min_proximal=5)

    def test_csv_shape(self):
        t = tensor_rep(j_spread(4.0), j_spread(9.0))
        sample = sample_limit_set(t, 60, seed=5, min_proximal=10)
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
    d1, d2 = rep.provenance["tensor_factors"]
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
        tracemalloc.start()
        try:
            _line_angle_stats(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * reps.BLOCK_BYTES
