"""Dense real matrix kernels and eigenvalue-ordering classifiers.

Conventions used throughout:

* eigenvalues sort by (modulus, real part, imaginary part), all descending;
* exterior powers are written in the basis of i-element index subsets in
  lexicographic order, entry (S, T) being the minor with rows S, columns T;
* classification is relative: a gap at index i means
  ``moduli[i-1] > (1 + tol) * moduli[i]``.

The classifiers take a spectrum, a sequence of eigenvalues: a word's from
``reps.spectra``, which reads it from the representation's structure
through :func:`block_eigenvalues`, a bare matrix's from :func:`spectrum`.
"""

from __future__ import annotations

import cmath
import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError, SizeError

MAX_DIM = 2000
DEFAULT_TOL = 1e-6


def matrix_hash(m: np.ndarray) -> str:
    data = np.ascontiguousarray(m)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def to_plain(value):
    """JSON form of a result value: a record's ``to_json()``, a complex
    number as ``[re, im]``, a tuple or list as a list, a dict with its
    values so; anything else as is."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    return value


class Record:
    """Base of the frozen result dataclasses: the JSON of a record is its
    fields, each through ``to_plain``."""

    def to_json(self) -> dict:
        return {f.name: to_plain(getattr(self, f.name)) for f in fields(self)}


def _as_numeric(m, what: str) -> np.ndarray:
    """``m`` as an integer, float or complex array; ragged rows and entries
    that are not numbers are refused."""
    try:
        a = np.asarray(m)
    except ValueError:  # numpy refuses ragged nested lists
        raise InputError(f"{what} has rows of different lengths") from None
    if a.dtype.kind not in "iufc":
        raise InputError(f"{what} has entries that are not numbers")
    return a


def _as_real(m, what: str) -> np.ndarray:
    """``m`` as a float array; complex entries are refused, never cast to
    their real part, and so is all that ``_as_numeric`` refuses."""
    a = _as_numeric(m, what)
    if np.iscomplexobj(a):
        raise InputError(f"{what} has complex entries; a real matrix is required")
    return a.astype(float, copy=False)


def _check_square(a: np.ndarray, what: str):
    """Refuse an array that is not square or has dimension over ``MAX_DIM``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{what} is not square: shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise SizeError(f"{what} has dimension {a.shape[0]}, over the cap {MAX_DIM}")


def _as_square(m, what: str = "matrix") -> np.ndarray:
    """``m`` as a finite square float array of dimension <= ``MAX_DIM``."""
    a = _as_real(m, what)
    _check_square(a, what)
    if not np.all(np.isfinite(a)):
        raise InputError(f"{what} has non-finite entries")
    return a


def eigenvalue_sort_key(z: complex):
    return (-abs(z), -z.real, -z.imag)


def sort_eigenvalues(values: Iterable[complex]) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in values), key=eigenvalue_sort_key))


@dataclass(frozen=True)
class Spectrum(Record):
    eigenvalues: tuple[complex, ...]
    moduli: tuple[float, ...]
    singular_values: tuple[float, ...]


def _solve(solver, a: np.ndarray, **kwargs):
    try:
        return solver(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense solver failed: {exc}",
                             matrix_hash=matrix_hash(a)) from exc


def spectrum(m) -> Spectrum:
    """Eigenvalues and singular values of a bare matrix, both in decreasing
    order."""
    a = _as_square(m)
    eigs = sort_eigenvalues(_solve(np.linalg.eigvals, a))
    sv = _solve(np.linalg.svd, a, compute_uv=False)
    return Spectrum(
        eigenvalues=eigs,
        moduli=tuple(abs(z) for z in eigs),
        singular_values=tuple(float(s) for s in sv),
    )


_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def block_eigenvalues(images: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """(n, b) eigenvalues, unordered, of a (n, b, b) stack of real blocks:
    the one kernel that reads words' eigenvalues.  Width 1 is the entry,
    widths past 2 one batched ``eigvals`` (NaN where not finite).  Width 2
    is solved from t = a + d and the determinants ``dets`` (for a word, of
    its letters: ``reps.word_dets``); the trace stays accurate when the
    entries dwarf the eigenvalues.  Where they nearly coincide
    (|t^2 - 4 det| < sqrt(eps) t^2) the root amplifies an error delta in the
    entries to about sqrt(4 |t| delta); the entry form (a - d)^2 + 4bc of
    the discriminant is taken there when delta moves it less,
    2 (|a - d| + 2 |b| + 2 |c|) delta against 4 |t| delta.  The larger root
    takes the sign of t, the other is det over it; a negative discriminant
    gives the pair t / 2 +- i sqrt(-disc) / 2."""
    n, b = images.shape[:2]
    out = np.full((n, b), np.nan, dtype=complex)
    with np.errstate(all="ignore"):  # an image that is not finite gives NaN
        if b == 1:
            out[:, 0] = images[:, 0, 0]
        elif b == 2:
            # t and det scaled down by a power of two, exactly, so that no
            # square overflows
            t = images[:, 0, 0] + images[:, 1, 1]
            e = np.frexp(t)[1].clip(0)
            t = np.ldexp(t, -e)
            disc = t * t - 4.0 * np.ldexp(dets, -2 * e)
            near = np.flatnonzero(np.abs(disc) < _SQRT_EPS * t * t)
            if near.size:
                (p, q), (r, s) = np.ldexp(
                    images[near], -e[near, None, None]).transpose(1, 2, 0)
                entry = (np.abs(p - s) + 2.0 * (np.abs(q) + np.abs(r))
                         < 2.0 * np.abs(t[near]))
                disc[near[entry]] = ((p - s) * (p - s) + 4.0 * q * r)[entry]
            t, root = np.ldexp(t, e), np.ldexp(np.sqrt(np.abs(disc)), e)
            top = (t + np.copysign(root, t)) / 2.0
            pair = disc < 0.0
            z = t / 2.0 + 1j * (root / 2.0)  # the pair's, imaginary part up
            out[:, 0] = np.where(pair, z, top)
            out[:, 1] = np.where(pair, z.conj(), dets / top)
        else:
            ok = np.isfinite(images).all(axis=(1, 2))
            out[ok] = _solve(np.linalg.eigvals, images[ok])
    return out


def exterior_power(m, i: int) -> np.ndarray:
    """Matrix of the induced action on i-vectors: entries are i x i minors,
    basis subsets in lexicographic order."""
    a = _as_square(m)
    d = a.shape[0]
    if not 1 <= i <= d:
        raise InputError(f"exterior index {i} out of range 1..{d}")
    n = math.comb(d, i)
    if n > MAX_DIM:
        raise SizeError(f"exterior power dimension {n} exceeds {MAX_DIM}")
    if i == 1:
        return a.copy()
    subs = np.array(list(itertools.combinations(range(d), i)))
    out = np.empty((n, n))
    # chunk the row blocks so the (rows, n, i, i) minor tensor stays small
    chunk = max(1, 4_000_000 // (n * i * i))
    for start in range(0, n, chunk):
        rows = subs[start:start + chunk]
        blocks = a[rows[:, None, :, None], subs[None, :, None, :]]
        out[start:start + chunk] = np.linalg.det(blocks)
    return out


# ---------------------------------------------------------------------------
# Classification

@dataclass(frozen=True)
class ProximalityClass(Record):
    """Eigenvalue-ordering classification of one matrix.

    ``proximal[k]`` is the gap flag at index k+1 (i.e. moduli[k] exceeds
    moduli[k+1] by the relative tolerance).  ``indeterminate`` is set when a
    modulus or a realness call sits in the gray zone around the tolerance;
    consumers must not treat gray results as decisive.
    """

    dim: int
    tol: float
    proximal: tuple[bool, ...]
    semiproximal: bool
    positively_semiproximal: bool
    top_eigenvalue: Optional[complex]
    top_modulus: float
    top_multiplicity: int
    top_moduli: tuple[float, ...]
    indeterminate: bool

    def is_proximal_at(self, i: int) -> bool:
        if not 1 <= i <= self.dim - 1:
            raise InputError(f"proximality index {i} out of range 1..{self.dim - 1}")
        return self.proximal[i - 1]


def _as_spectrum(values: Iterable[complex]) -> tuple[complex, ...]:
    """``values`` as eigenvalues in decreasing order; an empty spectrum, or
    one with a value that is not finite, is refused."""
    eigs = tuple(map(complex, values))
    if not eigs or not all(map(cmath.isfinite, eigs)):
        raise InputError("a spectrum needs one or more finite eigenvalues")
    return sort_eigenvalues(eigs)


def classify(eigenvalues: Iterable[complex],
             tol: float = DEFAULT_TOL) -> ProximalityClass:
    """Classify a spectrum (a matrix's: ``spectrum(m).eigenvalues``)."""
    eigs = _as_spectrum(eigenvalues)
    dim = len(eigs)
    moduli = [abs(z) for z in eigs]
    l1 = moduli[0]
    proximal = tuple(moduli[k] > (1.0 + tol) * moduli[k + 1] for k in range(dim - 1))
    if l1 == 0.0:
        return ProximalityClass(dim, tol, proximal, False, False, None, 0.0, dim,
                                tuple(moduli[:8]), False)
    cluster = [z for z in eigs if abs(z) >= (1.0 - tol) * l1]
    real_pos = any(abs(z.imag) <= tol * l1 and z.real > 0 for z in cluster)
    real_neg = any(abs(z.imag) <= tol * l1 and z.real < 0 for z in cluster)
    gray_modulus = any((1.0 - 10.0 * tol) * l1 <= abs(z) < (1.0 - tol) * l1
                       for z in eigs)
    gray_real = any(tol * l1 < abs(z.imag) <= 10.0 * tol * l1 for z in cluster)
    return ProximalityClass(
        dim=dim,
        tol=tol,
        proximal=proximal,
        semiproximal=real_pos or real_neg,
        positively_semiproximal=real_pos,
        top_eigenvalue=complex(eigs[0]) if proximal and proximal[0] else None,
        top_modulus=l1,
        top_multiplicity=len(cluster),
        top_moduli=tuple(moduli[:8]),
        indeterminate=gray_modulus or gray_real,
    )


def top_subset_products(values: Sequence[complex], i: int, count: int
                        ) -> list[complex]:
    """The ``count`` largest-by-modulus products over i-element subsets.

    ``values`` come in ``eigenvalue_sort_key`` order, as ``reps.spectra``
    gives them, and subsets are explored best-first by single right-shifts,
    so products come off the heap in nonincreasing modulus order without
    enumerating all C(d, i) subsets.
    """
    d = len(values)
    if not 1 <= i <= d:
        raise InputError(f"subset size {i} out of range 1..{d}")
    logs = [math.log(abs(z)) if abs(z) > 0 else -math.inf for z in values]
    start = tuple(range(i))
    heap = [(-sum(logs[k] for k in start), start)]
    seen = {start}
    out: list[complex] = []
    while heap and len(out) < count:
        negsum, subset = heapq.heappop(heap)
        out.append(math.prod(values[k] for k in subset))
        for pos in range(i):
            nxt = subset[pos] + 1
            if nxt >= d:
                continue
            if pos + 1 < i and nxt == subset[pos + 1]:
                continue
            child = subset[:pos] + (nxt,) + subset[pos + 1:]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (negsum + logs[subset[pos]] - logs[nxt], child))
    return out


@dataclass(frozen=True)
class ExteriorClassification(Record):
    """Classification of the i-th exterior power of a matrix, read off the
    i-subset products of its eigenvalues (``method`` "subset-products")."""

    index: int
    method: str
    p1_proximal: bool
    semiproximal: bool
    positively_semiproximal: bool
    top_eigenvalue: Optional[complex]
    top_modulus: float
    top_multiplicity: int
    top_moduli: tuple[float, ...]
    indeterminate: bool
    tol: float


def classify_exterior(eigenvalues: Iterable[complex], i: int,
                      tol: float = DEFAULT_TOL) -> ExteriorClassification:
    """Classify the induced action on i-vectors of a matrix of the spectrum
    ``eigenvalues`` by counting modulus classes.

    The top i-subset products take every class above the boundary class (the
    class of the i-th largest modulus) and k of its m members: C(m, k) of
    them.  A (positive) real one exists iff the boundary class's positive
    reals, negative reals and whole conjugate pairs can make one; if only
    halves of two non-real pairs could, the result is indeterminate.
    """
    eigs = _as_spectrum(eigenvalues)
    d = len(eigs)
    if not 1 <= i <= d:
        raise InputError(f"exterior index {i} out of range 1..{d}")
    mods = [abs(z) for z in eigs]
    top_moduli = tuple(abs(z) for z in top_subset_products(eigs, i, 8))
    if mods[i - 1] == 0.0:
        # every i-subset meets the kernel, so all C(d, i) products vanish
        return ExteriorClassification(i, "subset-products", False, False, False,
                                      None, 0.0, math.comb(d, i), top_moduli,
                                      False, tol)
    # boundary class eigs[lo:hi]: adjacent moduli within the tolerance
    lo, hi = i - 1, i
    while lo > 0 and mods[lo] >= (1.0 - tol) * mods[lo - 1]:
        lo -= 1
    while hi < d and mods[hi] >= (1.0 - tol) * mods[hi - 1]:
        hi += 1
    size, k = hi - lo, i - lo
    # a boundary class wider than tol, or a swap with a neighbour in the gray band
    gray_modulus = (mods[hi - 1] < (1.0 - tol) * mods[lo]
                    or hi < d and mods[hi] >= (1.0 - 10.0 * tol) * mods[hi - 1]
                    or 0 < lo and k < size
                    and mods[lo] >= (1.0 - 10.0 * tol) * mods[lo - 1])
    # classes above are taken whole: conjugate pairs give positive factors,
    # so their sign is the parity of their negative real eigenvalues
    sign_above = sum(z.real < 0 and abs(z.imag) <= tol * abs(z) for z in eigs[:lo])
    boundary = eigs[lo:hi]
    reals = [z.real for z in boundary if abs(z.imag) <= tol * abs(z)]
    pos = sum(x > 0 for x in reals)
    neg = len(reals) - pos
    pairs = (size - len(reals)) // 2
    gray_real = k < size and any(tol * abs(z) < abs(z.imag) <= 10.0 * tol * abs(z)
                                 for z in boundary)
    # parities of the real products built from c negatives, the positives
    # and whole pairs.  A product taking half of one pair is never real; one
    # taking halves of two pairs may be, which counting cannot settle.
    parities = {(sign_above + c) % 2 for c in range(min(neg, k) + 1)
                if (max(0, k - c - pos) + 1) // 2 <= min(pairs, (k - c) // 2)}
    positive = 0 in parities
    undecided = pairs >= 2 and 2 <= k <= size - 2 and not positive
    p1 = k == size and i < d and mods[i - 1] > (1.0 + tol) * mods[i]
    return ExteriorClassification(
        index=i, method="subset-products",
        p1_proximal=p1,
        semiproximal=bool(parities),
        positively_semiproximal=positive,
        top_eigenvalue=math.prod(eigs[:i]) if p1 else None,
        top_modulus=math.prod(mods[:i]),
        top_multiplicity=math.comb(size, k),
        top_moduli=top_moduli,
        indeterminate=gray_modulus or gray_real or undecided,
        tol=tol,
    )
