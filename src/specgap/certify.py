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
from . import reps
from .reps import (RepSpec, _reduced_children, graded_products,
                   iter_ball_images, restrict_rep)

DISCLAIMER = "finite-scale diagnostic, not a proof"
SLOPE_THRESHOLD = 0.05
MAX_WORDS = 200_000  # words in the largest ball a profile sweeps
# ties between verdict routes must not flip on rounding noise
MONOTONE_SLACK = 1e-9
_LOG_MAX = math.log(np.finfo(float).max)


def default_radius(dim: int) -> int:
    return 6 if dim <= 4 else 4 if dim >= 12 else 5


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


def _log_ratios(logs: np.ndarray, hi: int, lo: int,
                inverses: bool = False) -> np.ndarray:
    """log(sigma_{hi+1} / sigma_{lo+1}) of each word of a sweep block from
    its descending ``logs`` (the reader of ``reps.graded_products``), inf
    where it is not finite (the smaller singular value computes as 0, the
    product overflowed, or a Jacobi state gave up).  With ``inverses`` the
    ratios of each word's inverse follow, read from the same logs, which
    resolve the smallest singular values as accurately as the largest:
    sigma_k(W^-1) = 1 / sigma_{dim+1-k}(W), so gap_i(W^-1) = gap_{dim-i}(W),
    and sigma_1 / sigma_dim is its own mirror."""
    with np.errstate(all="ignore"):
        v = logs[:, hi] - logs[:, lo]
        if inverses:
            v = np.concatenate((v, logs[:, -1 - lo] - logs[:, -1 - hi]))
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


# widening of a bounded word's interval, relative to the values it adds: a
# thousand times the 1e-12 at which the graded states meet their
# high-precision oracles
_BOUND_SLACK = 1e-9


def _last_length_bounds(parents: np.ndarray, letters: np.ndarray,
                        ratios) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) tables, (letters, parents), that bound each log ratio
    X_a - X_b, a < b, of ``ratios`` for every child x = w*s of a parent w
    and a letter s, read from their descending logs.

    0-based, with W_i = log sigma_{i+1}(w), S_j that of s and X that of x,
    Horn's product inequalities (Horn & Johnson, *Topics in Matrix
    Analysis*, Thm 3.3.16) read X_{i+j} <= W_i + S_j and, applied to the
    inverses, X_{i+j+1-d} >= W_i + S_j.  So, with T_k the terms
    W_i + S_{k-i}, X_a - X_b lies in
    [max(0, max T_{a+d-1} - min T_b), min T_a - max T_{b+d-1}].  Their
    j = 0 and j = d - 1 terms are the multiplicative Weyl inequalities, so
    the interval lies within kappa(s) of W_a - W_b, kappa the log condition
    number.

    The logs are computed, not exact.  Say each difference of two logs of
    w, of s or of x is computed within 1e-12 (1 + its size), the accuracy
    at which the graded states meet their high-precision oracles.  An end
    is a min or max of such a difference of w's plus one of s's, so it is
    off by at most 2e-12 (1 + kappa(w) + kappa(s)); x's ratio, at most
    kappa(x) <= kappa(w) + kappa(s), is off by at most half that.  So each
    interval is widened by ``_BOUND_SLACK`` (1 + kappa(w) + kappa(s)), over
    300 times the sum, and the tables hold the loosest over ``ratios``.
    Widening only loosens an interval, so no Weyl interval is intersected
    in: the Horn one already lies within it.  A parent or letter with a log
    that is not finite bounds nothing: its entries are NaN, which fails
    every comparison."""
    d = parents.shape[1]
    cols = np.ascontiguousarray(parents.T)  # W_i of every parent, per i
    kappa_w = cols[0] - cols[-1]
    kappa_s = letters[:, :1] - letters[:, -1:]
    pad = _BOUND_SLACK * (1.0 + kappa_w + kappa_s)
    # the tables are filled in place: a fresh array of a block's size per
    # term costs more than the term itself; a parent row is contiguous
    low, high = np.full_like(pad, np.inf), np.full_like(pad, -np.inf)
    term = np.empty_like(pad)

    def horn(k, extreme):
        """extreme over i + j = k of W_i + S_j, per letter and parent."""
        at = range(max(0, k + 1 - d), min(k, d - 1) + 1)
        out = letters[:, k - at[0], None] + cols[at[0]]
        for i in at[1:]:
            extreme(out, np.add(letters[:, k - i, None], cols[i], out=term),
                    out=out)
        return out

    with np.errstate(invalid="ignore"):  # inf - inf, where nothing is bound
        for a, b in ratios:
            lo = horn(a + d - 1, np.maximum) - horn(b, np.minimum)
            lo -= pad
            np.minimum(low, np.maximum(lo, 0.0, out=lo), out=low)
            hi = horn(a, np.minimum) - horn(b + d - 1, np.maximum)
            hi += pad
            np.maximum(high, hi, out=high)
    finite = (np.isfinite(letters).all(axis=1)[:, None]
              & np.isfinite(parents).all(axis=1))
    for table in (low, high):
        np.copyto(table, np.nan, where=~finite)
    return low, high


def _first_of_pairs(codes: np.ndarray, parent: np.ndarray,
                    letter: np.ndarray) -> np.ndarray:
    """Mask of the reduced children x = w*s (w the row ``parent`` of
    ``codes``, s ``letter``) whose codes come before those of x^-1 (x's
    reversed, each ``^ 1``) lexicographically; no reduced word is its own
    inverse."""
    x = np.concatenate([codes[parent], letter[:, None].astype(np.int8)],
                       axis=1)
    mirror = x[:, ::-1] ^ 1
    at = (x != mirror).argmax(axis=1)[:, None]
    return (np.take_along_axis(x, at, axis=1)
            < np.take_along_axis(mirror, at, axis=1))[:, 0]


def _profile(rep: RepSpec, index: Optional[int], radius: Optional[int],
             subalphabet: Optional[Sequence[str]]) -> Profile:
    """The profile of ratio ``index`` (None: QI) over the ball of the
    reach, the largest radius up to ``radius`` whose words fit
    ``MAX_WORDS``, swept whole by ``reps.iter_ball_images`` on the
    ``reps.graded_products`` state of ``rep.structure`` (``restrict_rep``'s
    for ``subalphabet``).  Past dim 2 the engine sweeps to the reach's
    length before the last, widest letters first, and the profile steps the
    last length itself: of each parent block's children, one word of each
    inverse pair (:func:`_first_of_pairs`), parent-major, in runs of at
    most ``reps.BLOCK_BYTES`` of state, save those whose
    :func:`_last_length_bounds` lie inside the last length's running
    envelope, which they therefore cannot move."""
    if radius is None:
        radius = default_radius(rep.dim)
    if radius < 0:
        raise InputError("radius must be >= 0")
    hi, lo = (0, rep.dim - 1) if index is None else (index - 1, index)
    mins: dict[int, float] = {}
    maxs: dict[int, float] = {}
    structure = (rep if subalphabet is None
                 else restrict_rep(rep, subalphabet)).structure
    nsym = len(structure[0][0])
    reach = words = 0
    while reach < radius and words + nsym * (nsym - 1) ** reach <= MAX_WORDS:
        words += nsym * (nsym - 1) ** reach
        reach += 1
    root, step, logs = graded_products(structure)
    # a whole 2x2 sweep is cheaper than the regrouping
    paired = rep.dim > 2 and reach > 0
    order = None  # shortlex
    if paired:
        # the letters' sorted logs, each from its own state; words that
        # start with the widest letters go first, to widen the envelope early
        letters = logs(step(root, np.zeros(nsym, dtype=int), np.arange(nsym)))
        order = np.argsort(letters[:, -1] - letters[:, 0], kind="stable")
        ratios = {(hi, lo), ((-1 - lo) % rep.dim, (-1 - hi) % rep.dim)}
    size = max(1, reps.BLOCK_BYTES // sum(s.nbytes for s in root))

    def tally(length, found, inverses=False):
        """Widen the envelope of ``length`` by a swept block's ratios."""
        v = _log_ratios(found, hi, lo, inverses)
        mins[length] = min(mins.get(length, math.inf), float(v.min()))
        maxs[length] = max(maxs.get(length, -math.inf), float(v.max()))

    for length, codes, state in iter_ball_images(
            nsym, reach - paired, root, step, order):
        found = logs(state) if length else np.zeros((1, rep.dim))
        if length:
            tally(length, found)
        if not paired or length < reach - 1:
            del found  # not held while the next block is stepped
            continue
        parent, letter = _reduced_children(codes, order, 0, len(codes))
        keep = _first_of_pairs(codes, parent, letter)
        parent, letter = parent[keep], letter[keep]
        low, high = _last_length_bounds(found, letters, ratios)
        while True:
            if reach in mins:
                inside = ((low[letter, parent] >= mins[reach])
                          & (high[letter, parent] <= maxs[reach]))
                parent, letter = parent[~inside], letter[~inside]
            if not len(parent):
                break
            n = min(size, len(parent))
            with np.errstate(over="ignore", invalid="ignore"):  # read as inf
                tally(reach, logs(step(state, parent[:n], letter[:n])), True)
            parent, letter = parent[n:], letter[n:]
    samples = tuple((l, mins[l], maxs[l]) for l in sorted(mins))

    lower = _fit_line([(l, v) for l, v, _ in samples])
    upper = _fit_line([(l, v) for l, _, v in samples])
    lows = [v for l, v, _ in samples if l >= 2]
    monotone = all(v1 >= v0 - MONOTONE_SLACK for v0, v1 in zip(lows, lows[1:]))
    # the lower envelope with its rounding error, per length
    boxes = [(l, v - _rounding(v, rep.dim), v + _rounding(v, rep.dim))
             for l, v, _ in samples if l >= 2 and math.isfinite(v)]
    log_k = max(upper[0], -lower[0], 0.0)
    # a slope needs two lengths >= 2; on fewer the fit reads 0
    if (reach < radius or any(math.isinf(v) for _, _, v in samples)
            or len(boxes) < 2):
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
        words_evaluated=words,
    )


def gap_profile(rep: RepSpec, i: int, radius: Optional[int] = None,
                subalphabet: Optional[Sequence[str]] = None) -> Profile:
    """Per-length extrema of log(sigma_i / sigma_{i+1}) over the ball,
    with a least-squares fit of the lower envelope.

    The ball is the largest, up to ``radius``, whose words (identity
    excluded) fit ``MAX_WORDS``; ``words_evaluated`` counts them, and a
    ball short of ``radius`` makes the verdict "inconclusive".  When
    dim > 2 the last length is swept one word of each pair {w, w^-1},
    w^-1's ratio read as gap_{dim-i}(w), and a word x = w*s is skipped when
    Horn's product inequalities on the singular values of w and of s put
    its gap_i and gap_{dim-i} inside the envelope so far: the samples are
    those of the full sweep.  A ratio that is not finite is recorded as inf
    and makes the verdict "inconclusive".
    """
    if not 1 <= i <= rep.dim - 1:
        raise InputError(f"gap index {i} out of range 1..{rep.dim - 1}")
    return _profile(rep, i, radius, subalphabet)


def qi_profile(rep: RepSpec, radius: Optional[int] = None,
               subalphabet: Optional[Sequence[str]] = None) -> Profile:
    """Two-sided per-length envelopes of log(sigma_1 / sigma_dim).

    The fitted slopes give finite-scale versions of the two-sided
    exponential comparison constants (J, K); the verdict keys on the lower
    envelope growing, which is the quasi-isometric-embedding content.
    The ball, its budget and its sweep are those of :func:`gap_profile`,
    inverse pairs and bounded last-length words included:
    log(sigma_1 / sigma_dim) is the same for w and w^-1.
    """
    return _profile(rep, None, radius, subalphabet)
