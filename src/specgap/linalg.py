"""Dense real matrix kernels and eigenvalue-ordering classifiers.

Conventions used throughout:

* eigenvalues sort by (modulus, real part, imaginary part), all descending;
* exterior powers are written in the basis of i-element index subsets in
  lexicographic order, entry (S, T) being the minor with rows S, columns T;
* classification is relative: a gap at index i means
  ``moduli[i-1] > (1 + tol) * moduli[i]``.

The symbolic spectrum algebra (union / tensor / wedge on literal value
multisets) is the independent oracle the numerical kernels are tested
against.
"""

from __future__ import annotations

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
    number as ``[re, im]``, a tuple or list as a list; anything else as is."""
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (tuple, list)):
        return [to_plain(v) for v in value]
    return value


class Record:
    """Base of the frozen result dataclasses: the JSON of a record is its
    fields, each through ``to_plain``."""

    def to_json(self) -> dict:
        return {f.name: to_plain(getattr(self, f.name)) for f in fields(self)}


def _as_real(m, what: str) -> np.ndarray:
    """``m`` as a float array; complex entries are refused, never cast to
    their real part."""
    a = np.asarray(m)
    if np.iscomplexobj(a):
        raise InputError(f"{what} has complex entries; a real matrix is required")
    return a.astype(float, copy=False)


def _as_square(m) -> np.ndarray:
    a = _as_real(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise SizeError(f"dimension {a.shape[0]} exceeds the cap {MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
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


def _eigenvalues(m) -> tuple[complex, ...]:
    """Eigenvalues in decreasing order, without the singular values."""
    return sort_eigenvalues(_solve(np.linalg.eigvals, _as_square(m)))


def spectrum(m) -> Spectrum:
    """Eigenvalues and singular values, both in decreasing order."""
    a = _as_square(m)
    eigs = _eigenvalues(a)
    sv = _solve(np.linalg.svd, a, compute_uv=False)
    return Spectrum(
        eigenvalues=eigs,
        moduli=tuple(abs(z) for z in eigs),
        singular_values=tuple(float(s) for s in sv),
    )


def top_eigenvalue_2x2_unimodular(m: np.ndarray) -> complex:
    """Largest eigenvalue of a 2x2 real matrix whose determinant is 1 by
    construction.  Computed from the trace alone, which stays accurate even
    when the entries dwarf the eigenvalues (conjugation-heavy words)."""
    t = float(m[0, 0] + m[1, 1])
    disc = t * t - 4.0
    if disc >= 0.0:
        root = math.sqrt(disc)
        lam = (t + root) / 2.0 if t >= 0 else (t - root) / 2.0
        return complex(lam)
    return complex(t / 2.0, math.sqrt(-disc) / 2.0)


def kronecker(a, b) -> np.ndarray:
    ma, mb = _as_square(a), _as_square(b)
    if ma.shape[0] * mb.shape[0] > MAX_DIM:
        raise SizeError(
            f"Kronecker product dimension {ma.shape[0] * mb.shape[0]} exceeds {MAX_DIM}")
    return np.kron(ma, mb)


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


def classify(m, tol: float = DEFAULT_TOL) -> ProximalityClass:
    eigs = _eigenvalues(m)
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

    Values are sorted by decreasing modulus and subsets explored best-first
    by single right-shifts, so products come off the heap in nonincreasing
    modulus order without enumerating all C(d, i) subsets.
    """
    d = len(values)
    if not 1 <= i <= d:
        raise InputError(f"subset size {i} out of range 1..{d}")
    vals = sort_eigenvalues(values)
    logs = [math.log(abs(z)) if abs(z) > 0 else -math.inf for z in vals]
    start = tuple(range(i))
    heap = [(-sum(logs[k] for k in start), start)]
    seen = {start}
    out: list[complex] = []
    while heap and len(out) < count:
        negsum, subset = heapq.heappop(heap)
        out.append(math.prod(vals[k] for k in subset))
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


def classify_exterior(m, i: int, tol: float = DEFAULT_TOL) -> ExteriorClassification:
    """Classify the induced action on i-vectors by counting modulus classes.

    The top i-subset products take every class above the boundary class (the
    class of the i-th largest modulus) and k of its m members: C(m, k) of
    them.  A (positive) real one exists iff the boundary class's positive
    reals, negative reals and whole conjugate pairs can make one; if only
    halves of two non-real pairs could, the result is indeterminate.
    """
    a = _as_square(m)
    d = a.shape[0]
    if not 1 <= i <= d:
        raise InputError(f"exterior index {i} out of range 1..{d}")
    eigs = _eigenvalues(a)
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


# ---------------------------------------------------------------------------
# Symbolic spectrum algebra (exact oracle)

def spectrum_union(*parts: Sequence[complex]) -> tuple[complex, ...]:
    """Spectrum of a block sum: multiset union."""
    out: list[complex] = []
    for p in parts:
        out.extend(complex(z) for z in p)
    return sort_eigenvalues(out)


def spectrum_tensor(s1: Sequence[complex], s2: Sequence[complex]
                    ) -> tuple[complex, ...]:
    """Spectrum of a Kronecker product: all pairwise products."""
    return sort_eigenvalues(complex(a) * complex(b) for a in s1 for b in s2)


def spectrum_wedge(s: Sequence[complex], i: int) -> tuple[complex, ...]:
    """Spectrum of the i-th exterior power: all i-subset products."""
    vals = [complex(z) for z in s]
    if not 1 <= i <= len(vals):
        raise InputError(f"subset size {i} out of range 1..{len(vals)}")
    prods = []
    for subset in itertools.combinations(vals, i):
        p = complex(1.0)
        for z in subset:
            p *= z
        prods.append(p)
    return sort_eigenvalues(prods)


def predicted_spectrum(expr) -> tuple[complex, ...]:
    """Evaluate a spectrum expression tree.

    Nodes are tuples: ``("lit", values)``, ``("union", e1, e2)``,
    ``("tensor", e1, e2)``, ``("wedge", e, i)``.
    """
    if not isinstance(expr, tuple) or not expr:
        raise InputError("spectrum expression must be a nonempty tuple")
    op = expr[0]
    if op == "lit":
        return sort_eigenvalues(expr[1])
    if op == "union":
        return spectrum_union(*(predicted_spectrum(e) for e in expr[1:]))
    if op == "tensor":
        if len(expr) != 3:
            raise InputError("tensor node needs exactly two operands")
        return spectrum_tensor(predicted_spectrum(expr[1]), predicted_spectrum(expr[2]))
    if op == "wedge":
        if len(expr) != 3:
            raise InputError("wedge node needs an operand and an index")
        return spectrum_wedge(predicted_spectrum(expr[1]), int(expr[2]))
    raise InputError(f"unknown spectrum operator {op!r}")
