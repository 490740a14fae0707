"""Obstruction machinery.

* a bounded deterministic search for words with negative leading eigenvalue
  (commutator seed with trace < -2, then a power scan along a fixed coset);
* exact-ratio convergence reports for the two limit identities behind that
  search;
* finite-ball domination sweeps between representations;
* certificates recording exterior indices at which a designated witness
  fails positive semiproximality, re-checkable from serialized data;
* rank-one sampling of attracting lines of tensor-built representations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateConfigurationError, InputError, SamplingError,
                     SearchError)
from .linalg import (DEFAULT_TOL, ExteriorClassification, Record,
                     block_eigenvalues, classify, classify_exterior)
from . import reps
from .reps import (RepSpec, letter_codes, spectra, validate_homomorphism,
                   word_dets)
from .words import (Alphabet, Presentation, Word, commutator, enumerate_ball,
                    in_index_two_core, json_field)

SCHEMA_VERSION = 1
TRANSVERSALITY_TOL = 1e-8
MAX_POWER = 64  # powers w0^m the sign search scans per candidate
CONV_TOL = 1e-4  # relative error at which a limit formula has converged
TIE_TOL = 1e-9  # domination margins within this of 0 are ties
SAMPLE_LENGTHS = (4, 10)  # word lengths the limit-set sampler draws from
MIN_PROXIMAL = 30  # proximal samples below which the sampler refuses
MAX_CANDIDATES = 200  # commutator candidates the sign search examines


# ---------------------------------------------------------------------------
# Negative leading eigenvalue search

@dataclass(frozen=True)
class SignWitness:
    """A word whose image is proximal with real negative top eigenvalue."""

    word: Word
    lambda1: float
    base_word: Word
    power: int
    coset: Word
    search_trace: tuple[dict, ...]
    tol: float

    def to_json(self) -> dict:
        return {
            "word": str(self.word),
            "lambda1": self.lambda1,
            "base_word": str(self.base_word),
            "power": self.power,
            "coset": str(self.coset),
            "candidates_examined": len(self.search_trace),
            "tol": self.tol,
        }


def _commutator_candidates(alphabet: Alphabet, cap: int):
    """Commutators [u, v] in shortlex pair order: generator pairs first,
    then pairs involving length-2 words.  Deduplicated, nontrivial."""
    short = [w for w in enumerate_ball(alphabet, 2) if len(w) >= 1]
    ones = [w for w in short if len(w) == 1]
    seen = set()
    count = 0
    for pool in (ones, short):
        for u in pool:
            for v in pool:
                if count >= cap:
                    return
                w0 = commutator(u, v)
                if not w0.letters or w0.letters in seen:
                    continue
                seen.add(w0.letters)
                count += 1
                yield u, v, w0


def _eigenframe_2x2(m: np.ndarray) -> np.ndarray:
    """Columns: attracting then repelling eigenvector."""
    vals, vecs = np.linalg.eig(m)
    order = np.argsort(-np.abs(vals))
    frame = vecs[:, order]
    if np.max(np.abs(frame.imag)) < 1e-12 * np.max(np.abs(frame.real)):
        frame = frame.real
    return frame


def _image_and_det(rep: RepSpec, w: Word) -> tuple[np.ndarray, float]:
    """The 2x2 image of ``w`` and its determinant from its letters'
    (``reps.word_dets``), both read from ``rep.table``."""
    codes = np.array([letter_codes(rep.alphabet, w)], dtype=np.intp)
    return (reps.word_products(rep.table, codes[0]),
            float(word_dets(rep.table, codes)[0]))


def find_negative_lambda(rep: RepSpec, coset: Word, *,
                         tol: float = DEFAULT_TOL) -> SignWitness:
    """Find w = w0^m * coset with real negative leading eigenvalue.

    Stage one scans commutator candidates w0 until trace < -2 sqrt(det)
    (a discrete free 2x2 group always contains such an element).  Stage
    two walks the powers w0^m * coset until the guaranteed sign flip shows
    a negative leading eigenvalue, read by ``linalg.block_eigenvalues``
    from the trace and the letters' determinants.  Fails loudly with the
    examined trace when the budget runs out; that is never a nonexistence
    claim.
    """
    if rep.dim != 2:
        raise InputError("the sign search runs on 2x2 representations")
    if coset.alphabet.names != rep.alphabet.names:
        raise InputError("coset word uses a different alphabet")
    trace: list[dict] = []
    coset_img, coset_det = _image_and_det(rep, coset)
    for u, v, w0 in _commutator_candidates(rep.alphabet, MAX_CANDIDATES):
        m0, det0 = _image_and_det(rep, w0)
        tr = float(m0[0, 0] + m0[1, 1])
        entry = {"candidate": str(w0), "trace": tr}
        if tr >= -2.0 * math.sqrt(det0) - 1e-9:
            entry["rejected"] = "trace not below -2"
            trace.append(entry)
            continue
        frame = _eigenframe_2x2(m0)
        predicted = (np.linalg.inv(frame) @ coset_img @ frame)[0, 0]
        if abs(predicted) <= TRANSVERSALITY_TOL * np.linalg.norm(coset_img):
            entry["rejected"] = "coset not transverse to candidate axes"
            trace.append(entry)
            continue
        power_img = np.eye(2)
        for m in range(1, MAX_POWER + 1):
            power_img = power_img @ m0
            if np.max(np.abs(power_img)) > 1e250:
                entry["rejected"] = f"power overflow at exponent {m}"
                break
            det = np.array([det0 ** m * coset_det])
            top = block_eigenvalues((power_img @ coset_img)[None], det)
            lam = complex(top[0, 0])
            if abs(lam.imag) <= tol * abs(lam) and lam.real < 0:
                entry["accepted"] = f"sign flip at power {m}"
                trace.append(entry)
                witness = (w0 ** m) * coset
                _revalidate_sign_witness(rep, witness, tol)
                return SignWitness(word=witness, lambda1=lam.real, base_word=w0,
                                   power=m, coset=coset,
                                   search_trace=tuple(trace), tol=tol)
        entry.setdefault("rejected", f"no sign flip within power {MAX_POWER}")
        trace.append(entry)
    raise SearchError(
        f"no witness found within {MAX_CANDIDATES} candidates "
        f"and power cap {MAX_POWER}", trace=trace)


def _revalidate_sign_witness(rep: RepSpec, witness: Word, tol: float):
    pc = classify(spectra(rep, [witness.cyclic_reduction()])[0], tol)
    lam = pc.top_eigenvalue
    if not pc.proximal[0] or lam is None or lam.real >= 0 or \
            abs(lam.imag) > tol * abs(lam):
        raise SearchError(
            f"witness {witness} failed re-validation: {pc.to_json()}")


# ---------------------------------------------------------------------------
# Limit identities behind the power scan

@dataclass(frozen=True)
class LimitFormulaReport(Record):
    ratios: tuple[complex, ...]
    predicted: float
    final_error: float
    converged: bool
    consecutive: tuple[complex, ...]
    base_top_eigenvalue: float
    consecutive_error: float

    def to_json(self) -> dict:
        doc = super().to_json()
        del doc["consecutive"]
        return doc


def limit_formula_check(rep: RepSpec, w0: Word, a: Word,
                        n_max: int = 30) -> LimitFormulaReport:
    """Track lambda1(w0^n a) / lambda1(w0^n) against its frame-coordinate
    limit, and the consecutive ratio against lambda1(w0).

    Powers are evaluated on the rescaled matrix w0 / lambda1, which keeps
    every intermediate bounded; the ratio is exact under that rescaling.
    """
    if rep.dim != 2:
        raise InputError("limit formulas are checked on 2x2 representations")
    if n_max < 2:  # the consecutive ratio needs two powers
        raise InputError(f"n_max must be >= 2, got {n_max}")
    m0, det0 = _image_and_det(rep, w0)
    pc = classify(block_eigenvalues(m0[None], np.array([det0]))[0])
    lam0 = pc.top_eigenvalue
    if not pc.proximal[0] or lam0 is None or abs(lam0.imag) > 1e-9 * abs(lam0):
        raise InputError("base word must have a real proximal leading eigenvalue")
    lam0 = lam0.real
    frame = _eigenframe_2x2(m0)
    ma, det_a = _image_and_det(rep, a)
    predicted = (np.linalg.inv(frame) @ ma @ frame)[0, 0]
    if abs(predicted.imag) > 1e-9 * max(abs(predicted), 1.0):
        raise DegenerateConfigurationError("predicted limit is not real")
    predicted = float(predicted.real)
    if abs(predicted) < TRANSVERSALITY_TOL * np.linalg.norm(ma):
        raise DegenerateConfigurationError(
            "predicted limit vanishes: coset fixed lines are not transverse")
    q = m0 / lam0
    images, power = [], np.eye(2)
    for _ in range(n_max):
        power = power @ q
        images.append(power @ ma)
    # lambda1(w0^n a) / lambda1(w0)^n, exactly; det q = det0 / lam0^2
    dets = np.array([(det0 / lam0 ** 2) ** n * det_a
                     for n in range(1, n_max + 1)])
    ratios = block_eigenvalues(np.array(images).reshape(-1, 2, 2),
                               dets)[:, 0].tolist()
    consecutive = tuple(lam0 * ratios[k + 1] / ratios[k]
                        for k in range(len(ratios) - 1))
    final_error = abs(ratios[-1] - predicted)
    consecutive_error = abs(consecutive[-1] - lam0)
    return LimitFormulaReport(
        ratios=tuple(ratios),
        predicted=predicted,
        final_error=final_error,
        converged=final_error <= CONV_TOL * max(1.0, abs(predicted)),
        consecutive=consecutive,
        base_top_eigenvalue=lam0,
        consecutive_error=consecutive_error,
    )


# ---------------------------------------------------------------------------
# Domination sweeps

@dataclass(frozen=True)
class DominationReport(Record):
    """Finite-ball margin of log l1(upper) - exponent * log l1(lower).

    The required inequality is non-strict, so `passed` tolerates exact ties
    up to rounding; `boundary` flags margins at zero.  The identity word is
    excluded (its margin is identically zero).
    """

    exponent: float
    radius: int
    margin: float
    argmin: str
    per_length: tuple[tuple[int, float], ...]
    passed: bool
    boundary: bool
    words_checked: int


def check_domination(upper: RepSpec, lower: RepSpec, exponent: float,
                     radius: int) -> DominationReport:
    """Exhaustive margin sweep over the reduced ball (length >= 1), of
    images per block table of both sides' ``structure``, made by
    ``reps.iter_ball_images`` on ``reps.products`` (``reps.word_products``,
    one letter a block) and read by ``reps.block_spectra``.
    Top moduli are class functions, so only the cyclically reduced words
    are evaluated.  A padded word u w u^-1 takes the margin of its core w,
    and with two or more generators every word of length L - 2 is such a
    core, so the minimum over length L is that over its cyclically reduced
    words and length L - 2.  ``argmin`` is the first strict minimum in
    shortlex order: a padded word ties with its core, a shorter word.  An
    image that is not finite is refused.

    With ``exponent > 0`` the lower side's blocks wider than 2 go to
    ``eigvals`` only for words whose margin may reach the running threshold
    T of their length L, ``min(lows[L], lows[L-2], ...)`` (``lows[L]`` with
    one generator, where no word is padded): a word is skipped when its
    margin bound exceeds T, the lower log top modulus taken with each such
    block's top modulus replaced by |B|_F, plus ``slack``; a NaN or inf
    bound never is.  ``geev`` is backward stable, so a computed modulus is
    at most |B|_F (1 + c b eps); |B|_F is computed to within about b^2 eps,
    products and maxima of the narrower blocks' moduli, read alike in both,
    round monotonically, and each logarithm is within an ulp of a value
    below 746.  ``slack`` = (64 b^2 + 2048) eps, b the widest block, covers
    them all, so no computed margin is below its bound.  T only falls, so a
    skipped word could set no minimum: the report is the full sweep's,
    ``words_checked`` included.  An exponent that is not finite is refused.
    """
    if not math.isfinite(exponent):
        raise InputError(f"domination exponent {exponent!r} is not finite")
    if upper.alphabet.names != lower.alphabet.names:
        raise InputError("domination sides use different alphabets")
    if radius < 1:
        raise InputError("domination radius must be >= 1: a sweep of no"
                         " words has no margin")
    tables = [t for rep in (upper, lower) for group in rep.structure
              for t in group]
    split = sum(map(len, upper.structure))
    lows = [math.inf] * (radius + 1)  # per length: cyclically reduced, then all
    firsts = [()] * (radius + 1)  # codes of the first word to reach each low
    padded = upper.alphabet.size > 1  # else no word is padded
    widest = max(t.shape[-1] for group in lower.structure for t in group)
    prune = exponent > 0 and widest > 2
    slack = (64 * widest ** 2 + 2048) * np.finfo(float).eps

    def frobenius(b: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("ngij,ngij->ng", b, b))

    def tops(rep: RepSpec, codes, images, wide=None) -> np.ndarray:
        return reps.top_moduli(reps.block_spectra(rep.structure, codes,
                                                  images, wide))

    def logs(rep: RepSpec, codes, images) -> np.ndarray:
        """``math.log`` of each word's top modulus (numpy's SIMD ``log``
        can differ in the last bit), so exact ties break as word by word."""
        values = tops(rep, codes, images).tolist()
        return np.fromiter(map(math.log, values), float, len(values))

    words_checked = 0
    blocks = reps.iter_ball_images(len(tables[0]), radius,
                                   *reps.products(*tables))
    next(blocks)  # the identity, whose margin is identically zero
    for length, codes, state in blocks:
        words_checked += len(codes)
        keep = codes[:, 0] != codes[:, -1] ^ 1  # cyclically reduced
        codes, state = codes[keep], [s[keep] for s in state]
        if not all(np.isfinite(s).all() for s in state):
            raise InputError("matrix has non-finite entries")
        low = state[split:]
        m = logs(upper, codes, state[:split])
        if prune:
            threshold = min(lows[length::-2]) if padded else lows[length]
            with np.errstate(all="ignore"):
                bound = m - exponent * (np.log(tops(lower, codes, low,
                                                    frobenius)) + slack)
            candidates = ~(bound > threshold)
            if not candidates.any():
                continue
            codes, m = codes[candidates], m[candidates]
            low = [s[candidates] for s in low]
        m = m - exponent * logs(lower, codes, low)
        k = int(np.argmin(m))
        if m[k] < lows[length]:
            lows[length], firsts[length] = float(m[k]), codes[k]
    k = int(np.argmin(lows))
    margin, argmin = lows[k], str(Word.from_codes(upper.alphabet, firsts[k]))
    if padded:
        for length in range(3, radius + 1):
            lows[length] = min(lows[length], lows[length - 2])
    return DominationReport(
        exponent=float(exponent), radius=radius, margin=margin, argmin=argmin,
        per_length=tuple(enumerate(lows))[1:],
        passed=margin >= -TIE_TOL,
        boundary=abs(margin) <= TIE_TOL,
        words_checked=words_checked,
    )


# ---------------------------------------------------------------------------
# Certificates

@dataclass(frozen=True)
class IndexEntry(Record):
    index: int
    covered: bool
    witness: Optional[str]
    reason: str
    classification: Optional[ExteriorClassification]


@dataclass(frozen=True)
class ObstructionCertificate(Record):
    """Record of exterior indices at which witnesses fail positive
    semiproximality, together with parity evidence and the declared,
    unverified subgroup hypotheses.

    Semantics: were the representation a limit of representations with the
    index-i gap property, each listed witness would have positively
    semiproximal i-th exterior image; the recorded classification rules
    that out at the stated tolerance.  ``relators`` records the
    presentation's relators with their relative deviations from
    ``reps.validate_homomorphism`` and its tol; the free presentation
    records none.
    """

    construction: dict
    rep_digest: str
    dim: int
    tol: float
    witnesses: tuple[str, ...]
    parity_evidence: tuple[dict, ...]
    entries: tuple[IndexEntry, ...]
    assumptions: tuple[str, ...]
    covered_all: bool
    relators: dict
    schema_version: int = SCHEMA_VERSION


def certify_not_limit(rep: RepSpec, witnesses: Sequence[Word],
                      indices: Sequence[int], p: Presentation,
                      tol: float = DEFAULT_TOL,
                      assumptions: Sequence[str] = ()) -> ObstructionCertificate:
    """For each index, find a witness whose exterior image is not positively
    semiproximal; indeterminate classifications leave the index uncovered
    rather than covering or failing it.  Each witness's spectrum is read
    once (``reps.spectra``); one that is not finite is indeterminate at
    every index.  The indices must be distinct, and there must be at least
    one; ``tol`` must be finite and positive.  A representation that fails a
    relator of ``p`` (``reps.validate_homomorphism``) is refused: the
    certificate is about the presented group."""
    if not witnesses:
        raise InputError("at least one witness word is required")
    if not indices:
        raise InputError("at least one exterior index is required")
    if len(set(indices)) != len(indices):
        raise InputError(f"exterior indices {list(indices)} repeat an index")
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, not {tol!r}")
    check = validate_homomorphism(rep, p)
    if not check.passed:
        relator, dev = max(check.deviations, key=lambda d: d[1])
        raise InputError(
            f"the representation does not satisfy relator {relator}:"
            f" relative deviation {dev:.3g} > {check.tol:g}")
    parity = []
    for w in witnesses:
        if not in_index_two_core(w, p):
            raise InputError(
                f"witness {w} is not in the index-two core of the presentation")
        parity.append({
            "witness": str(w),
            "exponent_sums": list(w.exponent_sums()),
            "relator_count": len(p.relators),
        })
    found = spectra(rep, witnesses)
    entries = []
    for i in indices:
        if not 1 <= i <= rep.dim // 2:
            raise InputError(f"exterior index {i} out of range 1..{rep.dim // 2}")
        entry = None
        saw_indeterminate = False
        for w, spec in zip(witnesses, found):
            cls = (classify_exterior(spec, i, tol)
                   if all(map(cmath.isfinite, spec)) else None)
            if cls is None or cls.indeterminate:
                saw_indeterminate = True
                continue
            if not cls.positively_semiproximal:
                entry = IndexEntry(i, True, str(w),
                                   "witness fails positive semiproximality", cls)
                break
        if entry is None:
            reason = ("all decisive witnesses positively semiproximal"
                      if not saw_indeterminate else
                      "classification indeterminate at this tolerance")
            entry = IndexEntry(i, False, None, reason, None)
        entries.append(entry)
    return ObstructionCertificate(
        construction=dict(rep.provenance),
        rep_digest=rep.digest(),
        dim=rep.dim,
        tol=tol,
        witnesses=tuple(str(w) for w in witnesses),
        parity_evidence=tuple(parity),
        entries=tuple(entries),
        assumptions=tuple(assumptions),
        covered_all=all(e.covered for e in entries),
        relators={"tol": check.tol, "deviations": check.deviations},
    )


# the recomputed fields that may be null, and their JSON kind when not
_NULLABLE = {"witness": str, "classification": dict, "top_eigenvalue": list}


def _agrees(got, want, key: str, parent: dict) -> bool:
    """Whether ``got``, under ``key`` in a certificate document, equals
    ``want``, its recomputed value, held by the recomputed ``parent``:
    objects with the same keys, lists of the same length, numbers within
    1e-6 relative to ``want`` (a ``top_eigenvalue`` to the ``top_modulus``
    beside it), anything else equal; ``top_moduli`` unread, relator
    deviations within the relator tol.  A value missing or of another JSON
    kind is an input error naming its key; all are visited."""
    if key == "top_moduli":  # rounding noise below the top cluster
        return True
    if type(got) is not type(want):  # the same type is the same JSON kind
        kind = _NULLABLE.get(key) or next(k for k in (
            bool, int, float, str, list, dict, type(None)) if isinstance(want, k))
        got = json_field({key: got}, key,
                         (kind, type(None)) if key in _NULLABLE else kind)
    if got is None or want is None:
        return got is want
    if key == "top_eigenvalue":
        if not (len(got) == 2 and all(type(x) in (int, float) for x in got)):
            raise InputError(f"{key!r} must be a JSON null or [re, im] pair")
        return abs(complex(*got) - complex(*want)) <= 1e-6 * parent["top_modulus"]
    if isinstance(want, dict):  # a missing key reads as ..., of no JSON kind
        same = [_agrees(got.get(k, ...), w, k, want) for k, w in want.items()]
        return all(same) and got.keys() == want.keys()
    if key == "deviations":  # [relator, deviation] pairs, read as input
        return ([r for r, _ in got] == [r for r, _ in want]
                and all(0 <= d <= parent["tol"] for _, d in got))
    if isinstance(want, list):
        same = [_agrees(g, w, key, parent) for g, w in zip(got, want)]
        return all(same) and len(got) == len(want)
    if isinstance(want, float):
        return abs(got - want) <= 1e-6 * abs(want)
    return got == want


def verify_certificate(cert: ObstructionCertificate | dict, rep: RepSpec) -> bool:
    """Whether :func:`certify_not_limit`, run on ``rep`` and the document's
    own inputs (``witnesses``, the entries' indices in order, ``tol``,
    relators and ``assumptions``), writes the document again, as ``_agrees``
    compares them; inputs it refuses refute it.  A malformed field is an
    input error naming it."""
    doc = cert.to_json() if isinstance(cert, ObstructionCertificate) else cert
    tol = json_field(doc, "tol", float)
    indices = [json_field(e, "index", int) for e in json_field(doc, "entries", list)]
    witnesses, assumptions = ([json_field({k: s}, k, str) for s in json_field(
        doc, k, list)] for k in ("witnesses", "assumptions"))
    deviations = json_field(json_field(doc, "relators", dict), "deviations", list)
    if not all(isinstance(d, list) and len(d) == 2 and isinstance(d[0], str)
               and type(d[1]) in (int, float) for d in deviations):
        raise InputError("'deviations' must be a JSON list of [relator, deviation] pairs")
    try:
        p = Presentation(rep.alphabet, [Word.parse(rep.alphabet, r)
                                        for r, _ in deviations])
        want = certify_not_limit(rep, [Word.parse(rep.alphabet, w) for w in
                                       witnesses], indices, p, tol, assumptions)
    except InputError:  # inputs certify_not_limit refuses
        return False
    return _agrees(doc, want.to_json(), "certificate", {})


# ---------------------------------------------------------------------------
# Attracting-line sampling for tensor-built representations

@dataclass(frozen=True)
class LimitSetSample:
    factor_dims: tuple[int, int]
    words: tuple[str, ...]
    vectors: np.ndarray
    defects: tuple[float, ...]
    max_defect: float
    attempted: int
    factor_stats: dict

    def to_json(self) -> dict:
        return {
            "factor_dims": list(self.factor_dims),
            "count": len(self.words),
            "attempted": self.attempted,
            "max_defect": self.max_defect,
            "factor_stats": self.factor_stats,
        }

    def to_csv(self) -> str:
        lines = []
        dim = self.vectors.shape[1] if len(self.words) else 0
        header = ["word"] + [f"x{k}" for k in range(dim)] + ["rank_defect"]
        lines.append(",".join(header))
        for w, vec, d in zip(self.words, self.vectors, self.defects):
            lines.append(",".join(['"' + w + '"']
                                  + [repr(float(x)) for x in vec]
                                  + [repr(float(d))]))
        return "\n".join(lines) + "\n"


def _line_angle_stats(lines: np.ndarray) -> dict:
    """Angles between the lines spanned by the rows of ``lines`` (unit
    vectors): each line's angle to its nearest other line, and the largest
    angle of any pair.  |<l_i, l_j>| is formed a block of rows at a time,
    each block at most ``reps.BLOCK_BYTES``, so no N x N array is held.  A
    block has at least two rows: numpy hands a one-row product to BLAS
    gemv, which rounds dot products differently from a matrix product."""
    n = len(lines)
    if n < 2:
        return {"count": int(n)}
    lines = np.ascontiguousarray(lines)
    step = max(2, reps.BLOCK_BYTES // (lines.itemsize * n))
    nearest = np.empty(n)
    smallest = math.inf
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = np.abs(lines[lo:hi] @ lines.T)
        diagonal = (np.arange(hi - lo), np.arange(lo, hi))
        block[diagonal] = -1.0
        nearest[lo:hi] = block.max(axis=1)
        block[diagonal] = math.inf
        smallest = min(smallest, float(block.min()))
    nearest = np.arccos(np.clip(nearest, -1.0, 1.0))
    return {
        "count": int(n),
        "nearest_neighbor_min": float(nearest.min()),
        "nearest_neighbor_median": float(np.median(nearest)),
        "spread_max": float(np.arccos(np.clip(smallest, -1.0, 1.0))),
    }


def _eig_stack(images: np.ndarray):
    """Eigenvalues and eigenvectors of a stack, and a mask of the images
    whose decomposition succeeded: one batched call, or matrix by matrix
    when the batched call raises ``LinAlgError``."""
    ok = np.ones(len(images), dtype=bool)
    try:
        return (*np.linalg.eig(images), ok)
    except np.linalg.LinAlgError:
        pass
    n, d = images.shape[:2]
    vals, vecs = np.zeros((n, d), complex), np.zeros((n, d, d), complex)
    for k, m in enumerate(images):
        try:
            vals[k], vecs[k] = np.linalg.eig(m)
        except np.linalg.LinAlgError:
            ok[k] = False
    return vals, vecs, ok


def _attracting_vectors(images: np.ndarray, tol: float):
    """Positions in the stack of the proximal images with a real top
    eigenvalue and a real top eigenvector, and those eigenvectors scaled by
    their largest entry, then to unit norm.

    Bit for bit as one ``np.linalg.eig`` per image: that returns real arrays
    when the whole spectrum is real, so such rows are divided in real
    arithmetic (complex division by a real pivot differs in the last bit);
    moduli go through libm ``hypot`` as the scalar ``abs`` does, and each
    norm is ``np.linalg.norm`` of its own row (``axis=1`` sums in another
    order)."""
    vals, vecs, ok = _eig_stack(images)
    order = np.argsort(-np.abs(vals), axis=1)
    rows = np.arange(len(vals))
    top = vals[rows, order[:, 0]]
    second = vals[rows, order[:, 1]]
    top_mod = np.hypot(top.real, top.imag)
    keep = (ok & ~(top_mod <= (1 + tol) * np.hypot(second.real, second.imag))
            & ~(np.abs(top.imag) > tol * top_mod))
    rows = np.flatnonzero(keep)
    v = vecs[rows, :, order[rows, 0]]
    pivot = v[np.arange(len(rows)), np.argmax(np.abs(v), axis=1)][:, None]
    real = (vals[rows].imag == 0.0).all(axis=1)
    out = np.empty(v.shape)
    out[real] = v[real].real / pivot[real].real
    w = v[~real] / pivot[~real]
    out[~real] = w.real
    real_vector = np.ones(len(rows), dtype=bool)
    real_vector[~real] = ~(np.abs(w.imag).max(axis=1)
                           > 1e-8 * np.abs(w.real).max(axis=1))
    rows, out = rows[real_vector], out[real_vector]
    out /= np.array([np.linalg.norm(x) for x in out])[:, None]
    return rows, out


def sample_limit_set(rep: RepSpec, sample_words: int, seed: int = 0, *,
                     tol: float = DEFAULT_TOL) -> LimitSetSample:
    """Sample attracting lines of proximal word images and measure how far
    each is from a pure tensor (second-to-first singular value of the
    representative reshaped to the first of ``rep.factors`` against the
    product of the rest; scale invariant).

    The seeded stream draws each word's length, then its letter codes one
    at a time, redrawing a letter that would cancel its predecessor.  The
    images are made by length, in slices of at most ``reps.BLOCK_BYTES``,
    from ``rep.table`` by ``reps.word_products``, with one
    eigendecomposition per slice; memory stays linear in ``sample_words``."""
    if sample_words < 1:
        raise InputError(f"sample count must be >= 1, got {sample_words}")
    if not rep.factors:
        raise InputError("representation records no tensor factors")
    d1 = rep.factors[0].dim
    d2 = rep.dim // d1
    rng = np.random.default_rng(seed)
    nsym = 2 * rep.alphabet.size
    shortest, longest = SAMPLE_LENGTHS
    draws: list[list[int]] = []
    for _ in range(sample_words):
        length = int(rng.integers(shortest, longest + 1))
        codes: list[int] = []
        while len(codes) < length:
            code = int(rng.integers(nsym))
            if not (codes and code == codes[-1] ^ 1):
                codes.append(code)
        draws.append(codes)
    per_slice = max(1, reps.BLOCK_BYTES // rep.table[0].nbytes)
    lengths = np.array([len(c) for c in draws])
    kept = np.zeros(sample_words, dtype=bool)
    vectors = np.empty((sample_words, rep.dim))
    for length in np.unique(lengths):
        members = np.flatnonzero(lengths == length)
        for lo in range(0, len(members), per_slice):
            idx = members[lo:lo + per_slice]
            images = reps.word_products(rep.table, [draws[k] for k in idx])
            rows, vecs = _attracting_vectors(images, tol)
            kept[idx[rows]] = True
            vectors[idx[rows]] = vecs
    keep = np.flatnonzero(kept)
    if len(keep) < MIN_PROXIMAL:
        raise SamplingError(
            f"only {len(keep)} proximal samples out of {sample_words}")
    vectors = vectors[keep]
    u, sv, vt = np.linalg.svd(vectors.reshape(-1, d1, d2))
    defects = (sv[:, 1] / sv[:, 0] if sv.shape[1] > 1
               else np.zeros(len(keep))).tolist()
    return LimitSetSample(
        factor_dims=(d1, d2),
        words=tuple(str(Word.from_codes(rep.alphabet, draws[k])) for k in keep),
        vectors=vectors,
        defects=tuple(defects),
        max_defect=max(defects),
        attempted=sample_words,
        factor_stats={
            "left": _line_angle_stats(u[:, :, 0]),
            "right": _line_angle_stats(vt[:, 0, :]),
        },
    )
