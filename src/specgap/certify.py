"""Finite-scale singular-value-gap diagnostics over word balls.

A profile is evidence, never a proof: the underlying definitions quantify
over the whole group, and a pass at radius L only says the lower envelope
of the statistic grew at the fitted rate on the enumerated ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .linalg import Record
from .reps import RepSpec, iter_ball_images

DISCLAIMER = "finite-scale diagnostic, not a proof"
SLOPE_THRESHOLD = 0.05
# ties between verdict routes must not flip on rounding noise
MONOTONE_SLACK = 1e-9
_LOG_MAX = math.log(np.finfo(float).max)


def default_radius(dim: int) -> int:
    if dim <= 4:
        return 6
    if dim >= 12:
        return 4
    return 5


def _fit_line(samples: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares (intercept, slope) of a per-length envelope, lengths >= 2."""
    pts = [(l, v) for l, v in samples if l >= 2 and math.isfinite(v)]
    if len(pts) < 2:
        return (0.0, 0.0)
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    return (float(intercept), float(slope))


def _finite(v: float) -> Optional[float]:
    return v if math.isfinite(v) else None


@dataclass(frozen=True)
class Profile(Record):
    """Per-length envelopes of log(sigma_index / sigma_{index+1}), or of
    log(sigma_1 / sigma_dim) when ``index`` is None (the QI profile)."""

    index: Optional[int]
    radius: int
    alphabet: tuple[str, ...]
    restricted_to: Optional[tuple[str, ...]]
    samples: tuple[tuple[int, float, float], ...]  # (length, min, max)
    lower_fit: tuple[float, float]  # (intercept, slope)
    upper_fit: tuple[float, float]
    J: Optional[float]  # None when the lower envelope does not grow
    K: float
    slope_threshold: float
    monotone: bool
    verdict: str
    words_evaluated: int
    note: str = DISCLAIMER

    @property
    def slope(self) -> float:
        """Fitted slope of the lower envelope, the one the verdict reads."""
        return self.lower_fit[1]

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            # a non-finite extremum (inf) has no strict-JSON number
            "samples": [[l, _finite(lo), _finite(hi)]
                        for l, lo, hi in self.samples],
            "lower_fit": {"log_C": self.lower_fit[0], "slope": self.lower_fit[1]},
            "upper_fit": {"log_C": self.upper_fit[0], "slope": self.upper_fit[1]},
            "K": _finite(self.K),
        }

    def to_csv(self) -> str:
        lines = ["length,min_log_gap,max_log_gap"]
        for l, lo, hi in self.samples:
            lines.append(f"{l},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"


def _log_ratios(images, hi: int, lo: int) -> np.ndarray:
    """log(sigma_{hi+1} / sigma_{lo+1}) of each image of a sweep block, inf
    where it is not finite (the smaller singular value computes as 0, or
    the product overflowed).

    For 2x2 images sigma_1 = (s + t) / 2 with s = |(a+d, b-c)| and
    t = |(a-d, b+c)|, and sigma_1 * sigma_2 = det = 1, so the ratio is
    sigma_1^2 in closed form.  For dim >= 3 the images are graded factors
    (Q, R) and the singular values are those of R.
    """
    with np.errstate(all="ignore"):
        if not isinstance(images, tuple):
            a, b, c, d = (images[:, i, j] for i in (0, 1) for j in (0, 1))
            s = np.hypot(a + d, b - c)
            t = np.hypot(a - d, b + c)
            v = 2.0 * np.log((s + t) / 2.0)
        else:
            r = images[1]
            finite = np.isfinite(r).all(axis=(1, 2))
            sv = np.linalg.svd(np.where(finite[:, None, None], r, 0.0),
                               compute_uv=False)
            v = np.where(finite, np.log(sv[:, hi]) - np.log(sv[:, lo]), math.inf)
    return np.where(np.isfinite(v), v, math.inf)


def _rounding(v: float, dim: int) -> float:
    """Rounding error of one envelope value: each singular value carries a
    relative error of about dim * eps, so their log ratio is off by about
    2 * dim * eps absolutely, plus eps * |v| from the logarithm."""
    return 2 * dim * np.finfo(float).eps * (1.0 + abs(v))


def _slope_range(boxes: Sequence[tuple[int, float, float]]) -> tuple[float, float]:
    """Flattest and steepest fitted slope of an envelope known per length
    only to lie in [low, high].  The fitted slope is linear in the envelope,
    so it is extreme at the corners that are low (or high) on one side of
    the mean length."""
    mid = sum(l for l, _, _ in boxes) / max(len(boxes), 1)
    flattest = _fit_line([(l, lo if l > mid else hi) for l, lo, hi in boxes])[1]
    steepest = _fit_line([(l, hi if l > mid else lo) for l, lo, hi in boxes])[1]
    return flattest, steepest


def _verdict(boxes: Sequence[tuple[int, float, float]],
             slope_threshold: float) -> str:
    """Verdict on a lower envelope known per length only to lie in
    [low, high]: "pass" or "fail" must hold for every envelope in the
    box, else "inconclusive"."""
    y = -math.inf  # the lowest monotone envelope in the box, if there is one
    for _, lo, hi in boxes:
        y = max(lo, y - MONOTONE_SLACK)
        if y > hi:
            return "fail"
    flattest, steepest = _slope_range(boxes)
    if steepest <= slope_threshold:
        return "fail"
    if flattest > slope_threshold and all(
            lo1 >= hi0 - MONOTONE_SLACK
            for (_, _, hi0), (_, lo1, _) in zip(boxes, boxes[1:])):
        return "pass"
    return "inconclusive"


def _profile(rep: RepSpec, index: Optional[int], radius: Optional[int],
             subalphabet: Optional[Sequence[str]],
             max_words: Optional[int]) -> Profile:
    if radius is None:
        radius = default_radius(rep.dim)
    hi, lo = (0, rep.dim - 1) if index is None else (index - 1, index)
    mins: dict[int, float] = {}
    maxs: dict[int, float] = {}
    count = 0
    truncated = False
    for length, codes, images in iter_ball_images(rep, radius, subalphabet):
        if not length:
            continue
        if max_words is not None and count + len(codes) > max_words:
            truncated = True
            break
        count += len(codes)
        v = _log_ratios(images, hi, lo)
        mins[length] = min(mins.get(length, math.inf), float(v.min()))
        maxs[length] = max(maxs.get(length, -math.inf), float(v.max()))
    samples = tuple((l, mins[l], maxs[l]) for l in sorted(mins))

    lower = _fit_line([(l, v) for l, v, _ in samples])
    upper = _fit_line([(l, v) for l, _, v in samples])
    lows = [v for l, v, _ in samples if l >= 2]
    monotone = all(v1 >= v0 - MONOTONE_SLACK for v0, v1 in zip(lows, lows[1:]))
    # the lower envelope with its rounding error, per length
    boxes = [(l, v - _rounding(v, rep.dim), v + _rounding(v, rep.dim))
             for l, v, _ in samples if l >= 2 and math.isfinite(v)]
    log_k = max(upper[0], -lower[0], 0.0)
    if truncated or any(math.isinf(v) for _, _, v in samples):
        verdict = "inconclusive"
    else:
        verdict = _verdict(boxes, SLOPE_THRESHOLD)
    return Profile(
        index=index, radius=radius,
        alphabet=rep.alphabet.names,
        restricted_to=None if subalphabet is None else tuple(subalphabet),
        samples=samples, lower_fit=lower, upper_fit=upper,
        # a slope within its rounding error of 0 may be 0: no J
        J=max(upper[1], 1.0 / lower[1]) if _slope_range(boxes)[0] > 0 else None,
        K=math.exp(log_k) if log_k <= _LOG_MAX else math.inf,
        slope_threshold=SLOPE_THRESHOLD, monotone=monotone, verdict=verdict,
        words_evaluated=count,
    )


def gap_profile(rep: RepSpec, i: int, radius: Optional[int] = None,
                subalphabet: Optional[Sequence[str]] = None,
                max_words: Optional[int] = 200_000) -> Profile:
    """Per-length extrema of log(sigma_i / sigma_{i+1}) over the ball,
    with a least-squares fit of the lower envelope.

    The sweep stops before the block (``reps.iter_ball_images``) that would
    take it past ``max_words``; the verdict is then "inconclusive" and
    ``words_evaluated`` counts only the words evaluated.  A ratio that is
    not finite is recorded as inf and makes the verdict "inconclusive".
    """
    if not 1 <= i <= rep.dim - 1:
        raise InputError(f"gap index {i} out of range 1..{rep.dim - 1}")
    return _profile(rep, i, radius, subalphabet, max_words)


def qi_profile(rep: RepSpec, radius: Optional[int] = None,
               subalphabet: Optional[Sequence[str]] = None,
               max_words: Optional[int] = 200_000) -> Profile:
    """Two-sided per-length envelopes of log(sigma_1 / sigma_dim).

    The fitted slopes give finite-scale versions of the two-sided
    exponential comparison constants (J, K); the verdict keys on the lower
    envelope growing, which is the quasi-isometric-embedding content.
    """
    return _profile(rep, None, radius, subalphabet, max_words)
