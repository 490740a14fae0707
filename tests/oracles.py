"""Oracles the library is tested against; the library does not use them.

The symbolic spectrum algebra (union / tensor / wedge on literal value
multisets) is the independent oracle the numerical kernels are tested
against.  ``kronecker`` is the dense Kronecker product whose spectrum the
tensor rule predicts, ``ball_count`` the closed-form size of a word ball,
and ``sandwich_map`` a rank-2 substitution whose pull-back a domination
sweep is tested on.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from specgap.errors import InputError, SizeError
from specgap.linalg import MAX_DIM, _as_square, sort_eigenvalues
from specgap.words import Alphabet, GeneratorMap


def kronecker(a, b) -> np.ndarray:
    ma, mb = _as_square(a), _as_square(b)
    if ma.shape[0] * mb.shape[0] > MAX_DIM:
        raise SizeError(
            f"Kronecker product dimension {ma.shape[0] * mb.shape[0]} exceeds {MAX_DIM}")
    return np.kron(ma, mb)


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


# ---------------------------------------------------------------------------
# Words

def ball_count(rank: int, radius: int) -> int:
    """Number of reduced words of length <= radius in the rank-k free group."""
    if rank < 1 or radius < 0:
        raise InputError("rank >= 1 and radius >= 0 required")
    if rank == 1:
        return 2 * radius + 1
    k2 = 2 * rank
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)


def sandwich_map(alphabet: Alphabet, k: int) -> GeneratorMap:
    """On a rank-2 alphabet (x, y): x -> y^k x y^k and y -> x^k y x^k."""
    if alphabet.size != 2:
        raise InputError("sandwich substitution is defined on rank-2 alphabets")
    if k < 1:
        raise InputError("k must be >= 1")
    x, y = alphabet.names
    return GeneratorMap.from_dict(alphabet, alphabet, {
        x: f"{y}^{k} {x} {y}^{k}",
        y: f"{x}^{k} {y} {x}^{k}",
    })
