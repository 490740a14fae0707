"""Reference computations the benchmark checks specgap's outputs against.

Nothing here imports specgap.  Every quantity is recomputed from the JSON
files the benchmark feeds the CLI, with numpy alone and by a different
route from the library's: closed forms instead of enumeration, breadth-first
batched products instead of a depth-first generator, modulus classes
instead of subset products or dense minors.  ``test_reference.py`` tests
each function here against brute force on small cases.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def strict_json_loads(text: str):
    """``json.loads`` that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def ball_count(rank: int, radius: int) -> int:
    """Reduced words of length <= radius in the free group of the given rank:
    1 + 2k((2k-1)^r - 1)/(2k-2), and 2r + 1 for rank one."""
    if rank == 1:
        return 2 * radius + 1
    k2 = 2 * rank
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)


# ---------------------------------------------------------------------------
# Words and representations read from rep.json

def parse_word(names, text: str) -> list[tuple[int, int]]:
    """Letters (generator index, +1/-1) of a word like ``a1 b1^-1 a2^2``,
    freely reduced."""
    out: list[tuple[int, int]] = []
    for token in text.split():
        label, _, exp = token.partition("^")
        power = int(exp) if exp else 1
        letter = (names.index(label), 1 if power > 0 else -1)
        for _ in range(abs(power)):
            if out and out[-1] == (letter[0], -letter[1]):
                out.pop()
            else:
                out.append(letter)
    return out


def cyclic_reduce(letters):
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return letters


class Rep:
    """Generator images of a rep.json document, with their inverses."""

    def __init__(self, doc: dict):
        self.names = list(doc["alphabet"])
        self.images = np.array([np.array(doc["images"][n], dtype=float)
                                for n in self.names])
        self.inverses = np.linalg.inv(self.images)
        self.dim = self.images.shape[1]

    @classmethod
    def load(cls, path) -> "Rep":
        with open(path) as fh:
            return cls(json.load(fh))

    def digest(self) -> str:
        """sha256 prefix of the images raveled in alphabet order."""
        return hashlib.sha256(self.images.tobytes()).hexdigest()[:16]

    def symbol_table(self) -> np.ndarray:
        """(2k, d, d): symbol 2g is generator g, symbol 2g+1 its inverse."""
        k, d, _ = self.images.shape
        table = np.empty((2 * k, d, d))
        table[0::2] = self.images
        table[1::2] = self.inverses
        return table

    def evaluate(self, letters) -> np.ndarray:
        out = np.eye(self.dim)
        for idx, sign in letters:
            out = out @ (self.images[idx] if sign > 0 else self.inverses[idx])
        return out

    def word(self, text: str) -> np.ndarray:
        return self.evaluate(parse_word(self.names, text))


def random_reduced_words(rank: int, count: int, max_length: int,
                         rng: np.random.Generator):
    """``count`` reduced words with lengths uniform in 1..max_length."""
    words = []
    for _ in range(count):
        length = int(rng.integers(1, max_length + 1))
        letters: list[tuple[int, int]] = []
        while len(letters) < length:
            letter = (int(rng.integers(rank)), 1 if rng.integers(2) else -1)
            if letters and letters[-1] == (letter[0], -letter[1]):
                continue
            letters.append(letter)
        words.append(letters)
    return words


# ---------------------------------------------------------------------------
# Per-length extrema over a word ball, breadth first and batched

def gap_statistic(i: int):
    """log(sigma_i / sigma_{i+1}) of a stack of matrices."""
    def stat(batch):
        sv = np.linalg.svd(batch, compute_uv=False)
        return np.log(sv[:, i - 1] / sv[:, i])
    return stat


def sl2_log_ratio(batch: np.ndarray) -> np.ndarray:
    """log(sigma_1 / sigma_2) of a stack of 2x2 matrices of determinant one.

    sigma_1 sigma_2 = 1 and sigma_1^2 + sigma_2^2 = |M|_F^2, so the ratio is
    sigma_1^2 = (F^2 + sqrt(F^4 - 4)) / 2, which stays finite and accurate
    at any word length, unlike an SVD of the raw product.
    """
    f2 = np.einsum("nij,nij->n", batch, batch)
    return np.log((f2 + np.sqrt(np.maximum(f2 * f2 - 4.0, 0.0))) / 2.0)


def ball_extrema(rep: Rep, radius: int, stat, chunk: int = 8192):
    """Per-length (min, max) of ``stat`` over the reduced ball, length >= 1,
    and the number of words evaluated.

    Level L+1 is level L times the symbol table, skipping the backtracking
    symbol, in chunks of at most ``chunk`` words so the stacked products of
    the last level are never held at once.
    """
    table = rep.symbol_table()
    nsym = len(table)
    level = np.eye(rep.dim)[None]
    last = np.array([-1])
    extrema: dict[int, tuple[float, float]] = {}
    count = 0
    for length in range(1, radius + 1):
        keep = length < radius
        next_levels, next_last = [], []
        lo, hi = math.inf, -math.inf
        for start in range(0, len(level), max(1, chunk // nsym)):
            block = level[start:start + max(1, chunk // nsym)]
            block_last = last[start:start + max(1, chunk // nsym)]
            for s in range(nsym):
                mask = block_last != (s ^ 1)
                if not mask.any():
                    continue
                prods = block[mask] @ table[s]
                vals = stat(prods)
                count += len(vals)
                lo = min(lo, float(vals.min()))
                hi = max(hi, float(vals.max()))
                if keep:
                    next_levels.append(prods)
                    next_last.append(np.full(len(prods), s))
        extrema[length] = (lo, hi)
        if keep:
            level = np.concatenate(next_levels)
            last = np.concatenate(next_last)
    return extrema, count


# ---------------------------------------------------------------------------
# Exterior powers by modulus classes

def modulus_classes(eigs, tol: float) -> list[list[complex]]:
    """Eigenvalues grouped by modulus, largest first: a value joins the
    current class while its modulus is at least (1 - tol) times the class's
    largest."""
    vals = sorted((complex(z) for z in eigs), key=lambda z: -abs(z))
    classes: list[list[complex]] = []
    for z in vals:
        if classes and abs(z) >= (1.0 - tol) * abs(classes[-1][0]):
            classes[-1].append(z)
        else:
            classes.append([z])
    return classes


def exterior_top(eigs, i: int, tol: float = 1e-6):
    """Top modulus, its multiplicity, and whether a positive real product
    exists, among the i-subset products of the eigenvalues.

    The top products take every class above the boundary class whole and k
    of the boundary class's m members, so the top modulus is the product of
    the i largest moduli and the multiplicity is C(m, k).  The sign is
    decided when it can be decided by counting: the classes above the
    boundary are closed under conjugation, so their product is real with
    the sign of their negative reals; in the boundary class a selection of
    reals and whole conjugate pairs settles the question when one gives a
    positive product, or when the class has no non-real members.  Otherwise
    the sign is reported as None.
    """
    classes = modulus_classes(eigs, tol)
    above: list[complex] = []
    for cls in classes:
        if len(above) + len(cls) >= i:
            boundary = cls
            break
        above.extend(cls)
    k = i - len(above)
    moduli = sorted((abs(complex(z)) for z in eigs), reverse=True)
    top = float(np.prod(moduli[:i]))
    multiplicity = math.comb(len(boundary), k)

    def is_real(z):
        return abs(z.imag) <= tol * abs(z)

    if sum(not is_real(z) for z in above) % 2:
        return top, multiplicity, None
    sign = -1 if sum(z.real < 0 for z in above) % 2 else 1
    pos = sum(1 for z in boundary if is_real(z) and z.real > 0)
    neg = sum(1 for z in boundary if is_real(z) and z.real < 0)
    pairs = (len(boundary) - pos - neg) // 2
    for q in range(min(pairs, k // 2) + 1):
        for j in range(min(neg, k - 2 * q) + 1):
            if k - 2 * q - j <= pos and sign * (-1) ** j > 0:
                return top, multiplicity, True
    if pairs == 0:
        return top, multiplicity, False
    return top, multiplicity, None


# ---------------------------------------------------------------------------
# Attracting lines of tensor products

def rank_defect(v: np.ndarray, d1: int, d2: int) -> float:
    """sigma_2 / sigma_1 of v reshaped to d1 x d2: zero exactly when v is a
    pure tensor."""
    sv = np.linalg.svd(np.asarray(v, dtype=float).reshape(d1, d2),
                       compute_uv=False)
    return float(sv[1] / sv[0])
