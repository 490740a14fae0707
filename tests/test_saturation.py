"""Profile statistics past the range of a double-precision SVD: the 2x2
closed form against an mpmath oracle, and the verdict on saturated
ratios."""

import itertools
import math

import numpy as np
import pytest

from specgap.builders import build_named
from specgap.certify import MONOTONE_SLACK, _verdict, qi_profile
from specgap.reps import schottky_sl2r


class TestSaturation:
    def test_sl2_profile_matches_mpmath_oracle(self):
        # spread 4 at radius 8 reaches log(sigma_1/sigma_2) = 44.36, past the
        # ~36 where a double-precision SVD of the product returns sigma_2 = 0
        mpmath = pytest.importorskip("mpmath")
        rep = schottky_sl2r(2, 4.0)
        prof = qi_profile(rep, radius=8)
        mats = []
        for label in rep.alphabet.names:
            for m in (rep.image(label), rep.inverse_image(label)):
                mats.append([[mpmath.mpf(float(x)) for x in row] for row in m])
        lows: dict = {}
        highs: dict = {}
        with mpmath.workdps(60):
            def walk(m, last, length):
                if length:
                    # sigma_1^2 sigma_2^2 = det^2, with no unimodularity assumed
                    f = sum(x * x for row in m for x in row)
                    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                    s1 = (f + mpmath.sqrt(f * f - 4 * det * det)) / 2
                    ratio = s1 * s1 / (det * det)
                    lows[length] = min(lows.get(length, ratio), ratio)
                    highs[length] = max(highs.get(length, ratio), ratio)
                if length == 8:
                    return
                for k, g in enumerate(mats):
                    if last is not None and k == last ^ 1:
                        continue
                    prod = [[m[i][0] * g[0][j] + m[i][1] * g[1][j]
                             for j in range(2)] for i in range(2)]
                    walk(prod, k, length + 1)

            walk([[mpmath.mpf(1), 0], [0, mpmath.mpf(1)]], None, 0)
            oracle = [(l, float(mpmath.log(lows[l]) / 2),
                       float(mpmath.log(highs[l]) / 2)) for l in sorted(lows)]
        assert [l for l, _, _ in prof.samples] == [l for l, _, _ in oracle]
        for (_, lo, hi), (_, olo, ohi) in zip(prof.samples, oracle):
            assert lo == pytest.approx(olo, rel=1e-12)
            assert hi == pytest.approx(ohi, rel=1e-12)
        assert prof.samples[-1][2] == pytest.approx(44.36, abs=5e-3)
        assert prof.verdict == "pass"

    def test_saturated_maximum_off_the_lower_envelope_keeps_the_verdict(self):
        # b1 b1 a1 saturates (sigma_6 computes as 0), but its floor keeps the
        # length-3 minimum and the monotone envelope whatever its true value
        rep = build_named("thm1i_d6", None, seed=0).rep
        prof = qi_profile(rep, radius=3, subalphabet=("a1", "b1"))
        assert prof.verdict == "pass"
        assert prof.samples[-1][2] == math.inf
        assert prof.to_json()["samples"][-1][2] is None

    def test_saturation_that_may_reach_the_lower_envelope_is_inconclusive(self):
        rep = build_named("thm1i_d6", None, seed=0).rep
        prof = qi_profile(rep, radius=4, subalphabet=("a1", "b1"))
        assert prof.verdict == "inconclusive"


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
