"""Profile statistics past the range of a raw double-precision product:
the 2x2 closed form and the Jacobi states of the graded sweep against mpmath
oracles, overflow, and the verdict on envelopes known only to rounding
error."""

import itertools
import math

import numpy as np
import pytest

from specgap.builders import build_named
from specgap.certify import (MONOTONE_SLACK, SLOPE_THRESHOLD,
                             _fit_line, _rounding, _slope_range, _verdict,
                             gap_profile, qi_profile)
from specgap import reps
from specgap.reps import (RepSpec, graded_products, iter_ball_images,
                          random_unimodular, schottky_sl2r, symbol_table,
                          tensor_rep)
from specgap.words import Alphabet


def _sl2_oracle(rep, radius, mpmath):
    """Per length (length, min, max) of log(sigma_1 / sigma_2) over the
    reduced ball of a 2x2 representation, at 60 digits from its float
    images, with no unimodularity assumed."""
    mats = [[[mpmath.mpf(float(x)) for x in row] for row in m]
            for m in rep.table]
    lows: dict = {}
    highs: dict = {}
    with mpmath.workdps(60):
        def walk(m, last, length):
            if length:
                # sigma_1^2 sigma_2^2 = det^2
                f = sum(x * x for row in m for x in row)
                det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                s1 = (f + mpmath.sqrt(f * f - 4 * det * det)) / 2
                ratio = s1 * s1 / (det * det)
                lows[length] = min(lows.get(length, ratio), ratio)
                highs[length] = max(highs.get(length, ratio), ratio)
            if length == radius:
                return
            for k, g in enumerate(mats):
                if last is not None and k == last ^ 1:
                    continue
                prod = [[m[i][0] * g[0][j] + m[i][1] * g[1][j]
                         for j in range(2)] for i in range(2)]
                walk(prod, k, length + 1)

        walk([[mpmath.mpf(1), 0], [0, mpmath.mpf(1)]], None, 0)
        return [(l, float(mpmath.log(lows[l]) / 2),
                 float(mpmath.log(highs[l]) / 2)) for l in sorted(lows)]


class TestSaturation:
    def test_sl2_profile_matches_mpmath_oracle(self):
        # spread 4 at radius 8 reaches log(sigma_1/sigma_2) = 44.36, past the
        # ~36 where a double-precision SVD of the product returns sigma_2 = 0
        mpmath = pytest.importorskip("mpmath")
        rep = schottky_sl2r(2, 4.0)
        prof = qi_profile(rep, radius=8)
        oracle = _sl2_oracle(rep, 8, mpmath)
        assert [l for l, _, _ in prof.samples] == [l for l, _, _ in oracle]
        for (_, lo, hi), (_, olo, ohi) in zip(prof.samples, oracle):
            assert lo == pytest.approx(olo, rel=1e-12)
            assert hi == pytest.approx(ohi, rel=1e-12)
        assert prof.samples[-1][2] == pytest.approx(44.36, abs=5e-3)
        assert prof.verdict == "pass"

    def test_sl2_profile_with_det_drift_matches_mpmath_oracle(self):
        # both images have det 1 + 1.5e-8, inside the unimodular gate; a
        # closed form that takes det = 1 is off by 1.5e-8 per letter and
        # read -3.0e-8 for the length-2 minimum, which is 0 (b = det(a)
        # a^-1, so a b is scalar)
        mpmath = pytest.importorskip("mpmath")
        a = np.array([[2.0, 1.0], [1.0, 1.0 + 7.5e-9]])
        quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = RepSpec(Alphabet(("a", "b")),
                      {"a": a, "b": quarter @ a @ quarter.T})
        prof = qi_profile(rep, radius=8)
        oracle = _sl2_oracle(rep, 8, mpmath)
        assert [l for l, _, _ in prof.samples] == [l for l, _, _ in oracle]
        for (_, lo, hi), (_, olo, ohi) in zip(prof.samples, oracle):
            assert lo >= 0.0
            for got, want in ((lo, olo), (hi, ohi)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("dims", [(2,), (3,), (4,), (5,), (6,), (7,),
                                      (8,), (2, 3)])
    def test_every_route_gives_descending_logs_of_an_mpmath_svd(self, dims):
        # one table per factor: the 2x2 closed form, Jacobi states for
        # 3..8, and a Kronecker pair, whose logs are the sorted sums; every
        # word of the radius-3 ball on random unimodular images against a
        # 40-digit SVD of its product W, of W / sqrt(det W) on the 2x2 route
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(sum(dims))
        ab = Alphabet(("a", "b"))
        factors = [RepSpec(ab, {l: random_unimodular(d, rng) for l in "ab"})
                   for d in dims]
        rep = factors[0] if len(dims) == 1 else tensor_rep(*factors)
        tables = [symbol_table(f) for f in factors]
        mats = [mpmath.matrix(m.tolist()) for m in symbol_table(rep)]
        count = 0
        root, step, reader = graded_products(*tables)
        for _, codes, state in iter_ball_images(len(tables[0]), 3, root,
                                                step):
            logs = reader(state)
            assert logs.shape == (len(codes), rep.dim)
            assert np.all(np.diff(logs, axis=1) <= 0)
            with mpmath.workdps(40):
                for row, got in zip(codes.tolist(), logs):
                    m = mpmath.eye(rep.dim)
                    for c in row:
                        m = m * mats[c]
                    sv = sorted(mpmath.svd_r(m, compute_uv=False),
                                reverse=True)
                    shift = mpmath.log(mpmath.det(m)) / 2 if dims == (2,) else 0
                    want = np.array([float(mpmath.log(v) - shift) for v in sv])
                    assert np.all(np.abs(got - want)
                                  <= 1e-12 * np.maximum(1.0, np.abs(want)))
                    count += 1
        assert count == 1 + 4 + 12 + 36

    @pytest.mark.parametrize("name", ["thm1i_d6", "thm1i_dge7", "thm1ii_d12"])
    def test_graded_profiles_match_mpmath_oracle(self, name):
        # every gap index and the QI ratio at radius 4 on (a1, b1), where a
        # raw double-precision product loses sigma_dim (log ratios past 60);
        # the tensor build sweeps its 4x4 and 3x3 Kronecker factors, here on
        # (a4, b4), where neither factor's images are diagonal or monomial;
        # thm1i_d6 sweeps 4 + 2 blocks, thm1i_dge7 4 + 2 + 1
        mpmath = pytest.importorskip("mpmath")
        rep = build_named(name, None, seed=0).rep
        sub = ("a4", "b4") if rep.factors else ("a1", "b1")
        radius, dim = 4, rep.dim
        mats = [mpmath.matrix(m.tolist()) for m in symbol_table(rep, sub)]
        logs: dict = {}
        with mpmath.workdps(80):
            def walk(m, first, length):
                if length:
                    sv = sorted(mpmath.svd_r(m, compute_uv=False), reverse=True)
                    logs.setdefault(length, []).append(
                        [mpmath.log(s) for s in sv])
                if length == radius:
                    return
                for k, g in enumerate(mats):
                    if first is None or k != first ^ 1:
                        walk(g * m, k, length + 1)

            walk(mpmath.eye(dim), None, 0)
        for index in [*range(1, dim), None]:
            hi, lo = (0, dim - 1) if index is None else (index - 1, index)
            prof = (qi_profile(rep, radius=radius, subalphabet=sub)
                    if index is None else
                    gap_profile(rep, index, radius=radius, subalphabet=sub))
            assert [l for l, _, _ in prof.samples] == sorted(logs)
            for l, got_lo, got_hi in prof.samples:
                vals = [float(v[hi] - v[lo]) for v in logs[l]]
                for got, want in ((got_lo, min(vals)), (got_hi, max(vals))):
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @staticmethod
    def _word_sample(table, radius, every, mpmath):
        """(got, want) log singular values of every ``every``-th word of
        the reduced ball of a table, lengths >= 1: the graded sweep's and
        those of a 50-digit SVD of the same float images' product."""
        root, step, reader = graded_products(table)
        codes, logs = [], []
        for length, block, state in iter_ball_images(len(table), radius,
                                                     root, step):
            if length:
                codes += block.tolist()
                logs.append(reader(state))
        codes, logs = codes[::every], np.concatenate(logs)[::every]
        mats = [mpmath.matrix(m.tolist()) for m in table]
        wants = []
        with mpmath.workdps(50):
            for word in codes:
                m = mats[word[0]]
                for c in word[1:]:
                    m = m * mats[c]
                sv = sorted(mpmath.svd_r(m, compute_uv=False), reverse=True)
                wants.append([float(mpmath.log(s)) for s in sv])
        return logs, np.array(wants)

    def test_dge7_word_sample_matches_mpmath_oracle(self):
        # the d = 7 build sweeps the 4 + 2 + 1 direct-sum blocks of its
        # table.  Every 19th word of the radius-3 ball at seed 3, 203 words
        # on all eight generators, against a 50-digit oracle of the same
        # float images; a graded (Q, R) sweep of the whole 7x7 table missed
        # these gaps by up to 8.7e-7
        mpmath = pytest.importorskip("mpmath")
        rep = build_named("thm1i_dge7", None, seed=3).rep
        table = symbol_table(rep)
        assert [len(b) for b in reps._blocks(table)] == [4, 2, 1]
        got, want = self._word_sample(table, 3, 19, mpmath)
        assert len(got) == 203
        gaps = np.diff(got), np.diff(want)
        assert np.all(np.abs(gaps[0] - gaps[1])
                      <= 1e-10 * np.maximum(1.0, np.abs(gaps[1])))

    def test_dense_12x12_word_sample_matches_mpmath_oracle(self):
        # a table with no block structure is one 12x12 Jacobi state: every
        # 4th word of the radius-4 ball of two random unimodular images,
        # 40 words, against a 50-digit oracle
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        rep = RepSpec(Alphabet(("a", "b")),
                      {l: random_unimodular(12, rng) for l in "ab"})
        table = symbol_table(rep)
        assert [len(b) for b in reps._blocks(table)] == [12]
        got, want = self._word_sample(table, 4, 4, mpmath)
        assert len(got) == 40
        assert np.all(np.abs(got - want)
                      <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("radius", [3, 4])
    def test_d6_qi_profile_is_finite_and_passes(self, radius):
        # a raw-product SVD recorded inf maxima at lengths 3 and 4 and a
        # length-4 minimum of 37.93 here, and could not decide radius 4
        rep = build_named("thm1i_d6", None, seed=0).rep
        prof = qi_profile(rep, radius=radius, subalphabet=("a1", "b1"))
        assert prof.verdict == "pass"
        assert all(math.isfinite(hi) for _, _, hi in prof.samples)
        if radius == 4:
            assert prof.samples[-1][1] == pytest.approx(46.15, abs=5e-3)

    def test_overflow_is_inconclusive(self):
        big = np.diag([1e120, 1.0, 1e-120])
        rep = RepSpec(Alphabet(("a", "b")), {"a": big, "b": big[::-1, ::-1]})
        prof = qi_profile(rep, radius=3)
        assert prof.verdict == "inconclusive"
        assert prof.samples[-1][2] == math.inf
        assert prof.to_json()["samples"][-1][2] is None

    def test_rounding_noise_slope_gives_no_j(self):
        # a flat envelope whose values are rounding noise of 0: the parent
        # of this check fitted slope 1.1e-16 and wrote J = 9.0e15
        noise = [(2, 0.0), (3, 2.2e-16), (4, 2.2e-16)]
        assert _fit_line(noise)[1] > 0
        boxes = [(l, v - _rounding(v, 4), v + _rounding(v, 4)) for l, v in noise]
        flattest, steepest = _slope_range(boxes)
        assert flattest <= 0 < steepest < SLOPE_THRESHOLD
        assert _verdict(boxes, SLOPE_THRESHOLD) == "fail"

    @pytest.mark.parametrize("seed", range(40))
    def test_box_verdict_holds_for_every_envelope_in_the_box(self, seed):
        # brute force over a grid of envelopes inside a random box, with a
        # threshold among the grid's slopes so that boxes straddle it; odd
        # seeds give point boxes, as an unsaturated sweep does
        rng = np.random.default_rng(seed)
        lengths = [2, 3, 4, 5]
        highs = np.cumsum(rng.uniform(-0.3, 1.0, len(lengths)))
        lows = highs - (rng.uniform(0, 1, len(lengths)) * (rng.random(4) < 0.5)
                        * (seed % 2 == 0))
        grid = [(np.polyfit(lengths, ys, 1)[0],
                 all(b >= a - MONOTONE_SLACK for a, b in zip(ys, ys[1:])))
                for ys in itertools.product(*(np.linspace(lo, hi, 5)
                                              for lo, hi in zip(lows, highs)))]
        threshold = float(np.quantile([g[0] for g in grid], rng.random())
                          - 0.1 * rng.random())
        seen = {"pass" if slope > threshold and monotone else "fail"
                for slope, monotone in grid}
        verdict = _verdict(list(zip(lengths, lows, highs)), threshold)
        if verdict == "inconclusive":
            assert np.any(lows < highs)
        else:
            assert seen == {verdict}
