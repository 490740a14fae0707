"""Representation specifications: finite generator-to-matrix maps with
unimodular images, plus the constructions the named builders assemble.

A :class:`RepSpec` is a homomorphism of the free group on its alphabet;
whether it factors through any intended quotient is checked numerically by
:func:`validate_homomorphism` and otherwise recorded as an assumption.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConstructionError, InputError, SizeError
from .linalg import (MAX_DIM, Record, _as_real, _eigenvalues, matrix_hash,
                     top_eigenvalue_2x2_unimodular)
from .words import Alphabet, GeneratorMap, Presentation, Word, extensions

UNIMODULAR_TOL = 1e-8


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _check_unimodular(m: np.ndarray, dim: int, label: str):
    det = np.linalg.det(m)
    # the determinant of a large-norm product is itself only computable to
    # about eps * |M|_F^2, so the gate widens with the norm
    slack = max(UNIMODULAR_TOL * dim,
                dim * np.finfo(float).eps * float(np.sum(m * m)))
    if det <= 0 or abs(det - 1.0) > slack:
        raise InputError(
            f"image of {label!r} is not unimodular: det = {det!r} "
            f"(allowed deviation {slack:.3e})")


class RepSpec:
    """Immutable map from generator labels to unimodular real matrices."""

    def __init__(self, alphabet: Alphabet, images: Mapping[str, np.ndarray],
                 provenance: Optional[Mapping] = None):
        dims = set()
        table = {}
        for label in alphabet.names:
            if label not in images:
                raise InputError(f"missing image for generator {label!r}")
            m = np.array(_as_real(images[label], f"image of {label!r}"))
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InputError(f"image of {label!r} is not square")
            if not np.all(np.isfinite(m)):
                raise InputError(f"image of {label!r} has non-finite entries")
            dims.add(m.shape[0])
            m.flags.writeable = False
            table[label] = m
        if len(dims) != 1:
            raise InputError(f"generator images have mixed dimensions {sorted(dims)}")
        dim = dims.pop()
        if dim > MAX_DIM:
            raise SizeError(f"dimension {dim} exceeds the cap {MAX_DIM}")
        for label, m in table.items():
            _check_unimodular(m, dim, label)
        self.alphabet = alphabet
        self.dim = dim
        self._images = table
        self._inverses = {}
        self.provenance = dict(provenance or {})

    def image(self, label: str) -> np.ndarray:
        if label not in self._images:
            raise InputError(f"unknown generator label {label!r}")
        return self._images[label]

    def inverse_image(self, label: str) -> np.ndarray:
        if label not in self._inverses:
            inv = np.linalg.inv(self.image(label))
            inv.flags.writeable = False
            self._inverses[label] = inv
        return self._inverses[label]

    def evaluate(self, w: Word) -> np.ndarray:
        out = np.eye(self.dim)
        for idx, sign in w.letters:
            label = w.alphabet.names[idx]
            out = out @ (self.image(label) if sign > 0 else self.inverse_image(label))
        return out

    def top_modulus(self, w: Word) -> float:
        """Largest eigenvalue modulus of the image, computed on the cyclic
        reduction (a class function, far better conditioned)."""
        m = self.evaluate(w.cyclic_reduction())
        if self.dim == 2:
            return abs(top_eigenvalue_2x2_unimodular(m))
        return abs(_eigenvalues(m)[0])

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.names),
            "dim": self.dim,
            "images": {label: self._images[label].tolist()
                       for label in self.alphabet.names},
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "RepSpec":
        alphabet = Alphabet(tuple(doc["alphabet"]))
        images = {k: np.array(v, dtype=float) for k, v in doc["images"].items()}
        return cls(alphabet, images, doc.get("provenance"))

    @classmethod
    def load(cls, path) -> "RepSpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def digest(self) -> str:
        stacked = np.concatenate([self._images[l].ravel()
                                  for l in self.alphabet.names])
        return matrix_hash(stacked)


class ComplexRep2:
    """Generator map into 2x2 complex matrices of determinant one."""

    def __init__(self, alphabet: Alphabet, images: Mapping[str, np.ndarray],
                 provenance: Optional[Mapping] = None):
        table = {}
        for label in alphabet.names:
            if label not in images:
                raise InputError(f"missing image for generator {label!r}")
            m = np.array(images[label], dtype=complex)
            if m.shape != (2, 2):
                raise InputError(f"image of {label!r} is not 2x2")
            det = np.linalg.det(m)
            if abs(det - 1.0) > UNIMODULAR_TOL:
                raise InputError(f"image of {label!r} has det {det!r} != 1")
            m.flags.writeable = False
            table[label] = m
        self.alphabet = alphabet
        self.dim = 2
        self._images = table
        self.provenance = dict(provenance or {})

    def image(self, label: str) -> np.ndarray:
        if label not in self._images:
            raise InputError(f"unknown generator label {label!r}")
        return self._images[label]

    def evaluate(self, w: Word) -> np.ndarray:
        out = np.eye(2, dtype=complex)
        for idx, sign in w.letters:
            m = self.image(w.alphabet.names[idx])
            out = out @ (m if sign > 0 else np.linalg.inv(m))
        return out


# ---------------------------------------------------------------------------
# Free discrete families of 2x2 matrices

def pingpong_report(axes: Sequence[tuple[float, complex]]) -> dict:
    """Table-tennis check for a family of axis-conjugated dilations.

    Each entry is (axis angle, dilation eigenvalue z).  The fixed lines sit
    at the axis angle and at axis angle + pi/2.  With disjoint balls of
    radius r around all fixed lines, a generator maps the complement of its
    repelling ball into its attracting ball exactly when |z| >= cot(r); the
    conjugating rotations are unitary, so the criterion is frame-free.
    """
    lines: list[float] = []
    for theta, _ in axes:
        lines.append(theta % math.pi)
        lines.append((theta + math.pi / 2) % math.pi)
    sep = math.inf
    for a_idx in range(len(lines)):
        for b_idx in range(a_idx + 1, len(lines)):
            d = abs(lines[a_idx] - lines[b_idx])
            sep = min(sep, min(d, math.pi - d))
    radius = 0.49 * sep
    required = math.inf if radius <= 0 else 1.0 / math.tan(radius)
    strengths = [abs(z) for _, z in axes]
    ok = sep > 0 and all(s >= required * (1 + 1e-9) for s in strengths)
    return {
        "verified": bool(ok),
        "min_line_separation": sep,
        "ball_radius": radius,
        "required_strength": required,
        "min_strength": min(strengths),
    }


def axis_dilation(theta: float, z: complex) -> np.ndarray:
    """diag(z, 1/z) conjugated by the rotation of angle theta."""
    r = _rotation(theta)
    d = np.diag([z, 1.0 / z])
    out = r @ d @ r.T
    if abs(z.imag) == 0.0:
        return out.real
    return out


def _schottky(kind, name: str, rank: int, spread: float, dilation):
    """Generator i (1-based) is diag(z, 1/z), z = dilation(i), conjugated by
    the rotation of angle i*pi/(2*rank), after the separation check."""
    if rank not in (2, 3, 4):
        raise InputError("rank must be 2, 3 or 4")
    if spread < 2:
        raise InputError("spread must be >= 2")
    labels = ("a", "b", "c", "d")[:rank]
    axes = [(i * math.pi / (2 * rank), dilation(i)) for i in range(1, rank + 1)]
    report = pingpong_report(axes)
    if not report["verified"]:
        raise ConstructionError(
            f"spread {spread} too small for ping-pong separation: need "
            f"strength >= {report['required_strength']:.3f}",
            inequality="strength >= cot(ball radius)")
    images = {lbl: axis_dilation(theta, z)
              for lbl, (theta, z) in zip(labels, axes)}
    return kind(Alphabet(labels), images,
                provenance={"construction": name,
                            "params": {"rank": rank, "spread": spread},
                            "pingpong": report})


def schottky_sl2r(rank: int, spread: float) -> RepSpec:
    """Free discrete family of hyperbolic generators in ping-pong position.

    Generator i is diag(spread^i, spread^-i) conjugated by the rotation of
    angle i*pi/(2*rank).  The builder verifies the separation criterion and
    refuses spreads too small for it.
    """
    return _schottky(RepSpec, "schottky_sl2r", rank, spread,
                     lambda i: complex(spread ** i))


def schottky_sl2c(rank: int, spread: float) -> ComplexRep2:
    """As :func:`schottky_sl2r` with loxodromic eigenvalues
    spread^i * exp(1j*i*pi/(3*rank))."""
    return _schottky(ComplexRep2, "schottky_sl2c", rank, spread,
                     lambda i: spread ** i * np.exp(1j * i * math.pi / (3 * rank)))


# ---------------------------------------------------------------------------
# The two maps out of SL(2, C)

_SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def spin_so31(g) -> np.ndarray:
    """Action of a 2x2 complex unimodular matrix on Hermitian forms.

    In the orthonormal Hermitian basis (identity, the three trace-free
    generators) the determinant form has signature (1,3); the image is the
    real 4x4 matrix of H -> g H g*.  diag(a, 1/a) with a real maps to a
    matrix with eigenvalue moduli (a^2, 1, 1, a^-2).
    """
    m = np.array(g, dtype=complex)
    if m.shape != (2, 2):
        raise InputError("spin input must be 2x2")
    if abs(np.linalg.det(m) - 1.0) > UNIMODULAR_TOL:
        raise InputError("spin input must have determinant 1")
    out = np.empty((4, 4))
    conj = [m @ s @ m.conj().T for s in _SIGMA]
    for j in range(4):
        for k in range(4):
            out[j, k] = (0.5 * np.trace(_SIGMA[j] @ conj[k])).real
    return out


def realify_sl2c(g) -> np.ndarray:
    """Real 4x4 form [[Re g, -Im g], [Im g, Re g]] of a 2x2 complex matrix."""
    m = np.array(g, dtype=complex)
    if m.shape != (2, 2):
        raise InputError("realification input must be 2x2")
    if abs(np.linalg.det(m) - 1.0) > UNIMODULAR_TOL:
        raise InputError("realification input must have determinant 1")
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def spin_lift(rep: ComplexRep2 | RepSpec) -> RepSpec:
    images = {l: spin_so31(rep.image(l)) for l in rep.alphabet.names}
    return RepSpec(rep.alphabet, images,
                   provenance={"construction": "spin_lift",
                               "base": rep.provenance.get("construction")})


def realify_lift(rep: ComplexRep2 | RepSpec) -> RepSpec:
    images = {l: realify_sl2c(rep.image(l)) for l in rep.alphabet.names}
    return RepSpec(rep.alphabet, images,
                   provenance={"construction": "realify_lift",
                               "base": rep.provenance.get("construction")})


# ---------------------------------------------------------------------------
# Characters and composite representations

class Character:
    """Positive multiplicative weight on generators, extended to words."""

    def __init__(self, alphabet: Alphabet, values: Mapping[str, float]):
        table = {}
        for label in alphabet.names:
            if label not in values:
                raise InputError(f"missing character value for {label!r}")
            v = float(values[label])
            if not v > 0:
                raise InputError(f"character value for {label!r} must be positive")
            table[label] = v
        self.alphabet = alphabet
        self._values = table

    def value(self, arg: str | Word) -> float:
        if isinstance(arg, str):
            if arg not in self._values:
                raise InputError(f"unknown generator label {arg!r}")
            return self._values[arg]
        out = 1.0
        for idx, sign in arg.letters:
            out *= self._values[arg.alphabet.names[idx]] ** sign
        return out

    @classmethod
    def trivial(cls, alphabet: Alphabet) -> "Character":
        return cls(alphabet, {n: 1.0 for n in alphabet.names})

    @classmethod
    def pulled_back(cls, char: "Character", gmap: GeneratorMap) -> "Character":
        if char.alphabet.names != gmap.target.names:
            raise InputError("character alphabet does not match the map's target")
        return cls(gmap.source,
                   {n: char.value(gmap.image(n)) for n in gmap.source.names})


def block_sum(parts: Sequence[RepSpec]) -> RepSpec:
    if not parts:
        raise InputError("block_sum needs at least one part")
    alphabet = parts[0].alphabet
    for p in parts[1:]:
        if p.alphabet.names != alphabet.names:
            raise InputError("block_sum parts use different alphabets")
    dim = sum(p.dim for p in parts)
    if dim > MAX_DIM:
        raise SizeError(f"block sum dimension {dim} exceeds {MAX_DIM}")
    images = {}
    for label in alphabet.names:
        m = np.zeros((dim, dim))
        at = 0
        for p in parts:
            m[at:at + p.dim, at:at + p.dim] = p.image(label)
            at += p.dim
        images[label] = m
    return RepSpec(alphabet, images,
                   provenance={"construction": "block_sum",
                               "part_dims": [p.dim for p in parts]})


def scale_by_character(rep: RepSpec, eps: Character, exponent) -> RepSpec:
    """Twist by eps^exponent and append the compensating scalar block.

    The appended diagonal entry carries eps^(-exponent*dim), which restores
    det = 1 identically; the exponent bookkeeping is exact rational
    arithmetic, and the runtime unimodularity check still applies.
    """
    if rep.alphabet.names != eps.alphabet.names:
        raise InputError("character alphabet does not match the representation")
    exp = Fraction(exponent).limit_denominator(10 ** 9)
    appended = -exp * rep.dim
    if exp * rep.dim + appended != 0:
        raise ConstructionError("character exponent bookkeeping is inconsistent",
                                inequality="exponent*dim + appended = 0")
    dim = rep.dim + 1
    images = {}
    for label in rep.alphabet.names:
        v = eps.value(label)
        m = np.zeros((dim, dim))
        m[:rep.dim, :rep.dim] = (v ** float(exp)) * rep.image(label)
        m[rep.dim, rep.dim] = v ** float(appended)
        images[label] = m
    try:
        return RepSpec(rep.alphabet, images,
                       provenance={"construction": "scale_by_character",
                                   "exponent": str(exp),
                                   "appended_exponent": str(appended),
                                   "base": rep.provenance.get("construction")})
    except InputError as exc:
        raise ConstructionError(f"character scaling broke unimodularity: {exc}",
                                inequality="det = 1") from exc


def tensor_rep(r1: RepSpec, r2: RepSpec) -> RepSpec:
    if r1.alphabet.names != r2.alphabet.names:
        raise InputError("tensor factors use different alphabets")
    if r1.dim * r2.dim > MAX_DIM:
        raise SizeError(f"tensor dimension {r1.dim * r2.dim} exceeds {MAX_DIM}")
    images = {l: np.kron(r1.image(l), r2.image(l)) for l in r1.alphabet.names}
    return RepSpec(r1.alphabet, images,
                   provenance={"construction": "tensor_rep",
                               "tensor_factors": [r1.dim, r2.dim]})


def pull_back(rep: RepSpec, gmap: GeneratorMap) -> RepSpec:
    if rep.alphabet.names != gmap.target.names:
        raise InputError("representation alphabet does not match the map target")
    images = {l: rep.evaluate(gmap.image(l)) for l in gmap.source.names}
    prov = {"construction": "pull_back", "base": rep.provenance.get("construction")}
    if "tensor_factors" in rep.provenance:
        prov["tensor_factors"] = rep.provenance["tensor_factors"]
    return RepSpec(gmap.source, images, prov)


def rotation_block_rep(alphabet: Alphabet, theta: float,
                       targets: Iterable[str]) -> RepSpec:
    """Send designated generators to the rotation by theta, others to I."""
    _reject_rational_angle(theta)
    targets = set(targets)
    for t in targets:
        alphabet.index(t)
    rot = _rotation(theta)
    images = {l: (rot if l in targets else np.eye(2)) for l in alphabet.names}
    return RepSpec(alphabet, images,
                   provenance={"construction": "rotation_block_rep",
                               "theta": theta, "targets": sorted(targets)})


def _reject_rational_angle(theta: float):
    # a genuine p/q lands within float rounding (~1e-17); the best rational
    # approximation of a generic irrational with q <= 1e6 stays above ~1e-13
    ratio = theta / math.pi
    frac = Fraction(ratio).limit_denominator(10 ** 6)
    if abs(ratio - float(frac)) < 1e-14:
        raise InputError(
            f"theta = {theta} is a rational multiple of pi "
            f"(approx {frac}); an irrational rotation angle is required")


def _rotation_scaling(scale: float, theta: float) -> np.ndarray:
    m = np.zeros((3, 3))
    m[:2, :2] = scale * _rotation(theta)
    m[2, 2] = 1.0 / scale ** 2
    return m


def random_unimodular(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian matrix rescaled to determinant exactly +1 (up to rounding)."""
    while True:
        m = rng.normal(size=(dim, dim))
        det = np.linalg.det(m)
        if abs(det) > 1e-6:
            break
    m = m / abs(det) ** (1.0 / dim)
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    return m


def scaled_rotation_rep(alphabet: Alphabet, s: float, t: float, theta: float,
                        seed: int = 0) -> RepSpec:
    """3x3 family: first two generators are rotation-scaling blocks with
    scales s and t, the rest are seeded pseudo-random unimodular matrices
    standing in for an algebraically large subgroup."""
    if alphabet.size < 2:
        raise InputError("need at least two generators")
    if not (s > 0 and t > 0):
        raise InputError("scales must be positive")
    _reject_rational_angle(theta)
    rng = np.random.default_rng(seed)
    images = {}
    for k, label in enumerate(alphabet.names):
        if k == 0:
            images[label] = _rotation_scaling(s, theta)
        elif k == 1:
            images[label] = _rotation_scaling(t, theta)
        else:
            images[label] = random_unimodular(3, rng)
    return RepSpec(alphabet, images,
                   provenance={"construction": "scaled_rotation_rep",
                               "params": {"s": s, "t": t, "theta": theta},
                               "seed": seed})


# ---------------------------------------------------------------------------
# Utilities over representations

def rename_generators(rep: RepSpec | ComplexRep2,
                      alphabet: Alphabet) -> RepSpec | ComplexRep2:
    """Same images, new labels (positional)."""
    if alphabet.size != rep.alphabet.size:
        raise InputError("alphabet sizes differ")
    images = {new: rep.image(old)
              for new, old in zip(alphabet.names, rep.alphabet.names)}
    kind = ComplexRep2 if isinstance(rep, ComplexRep2) else RepSpec
    return kind(alphabet, images, rep.provenance)


def restrict_rep(rep: RepSpec, labels: Sequence[str]) -> RepSpec:
    sub = Alphabet(tuple(labels))
    images = {l: rep.image(l) for l in sub.names}
    prov = dict(rep.provenance)
    prov["restricted_to"] = list(sub.names)
    return RepSpec(sub, images, prov)


def symbol_table(rep: RepSpec, alphabet: Optional[Alphabet] = None) -> np.ndarray:
    """(2k, d, d) stack of the images of the signed letters of ``alphabet``
    (default: the representation's), indexed by letter code."""
    alphabet = rep.alphabet if alphabet is None else alphabet
    return np.stack([m for label in alphabet.names
                     for m in (rep.image(label), rep.inverse_image(label))])


# cap on the bytes of images in one block of the ball sweep; a block may
# exceed it only when it holds the children of a single word
BLOCK_BYTES = 1 << 18

Block = tuple[int, np.ndarray, "np.ndarray | tuple[np.ndarray, np.ndarray]"]


def iter_ball_images(rep: RepSpec, radius: int,
                     subalphabet: Optional[Sequence[str]] = None
                     ) -> Iterator[Block]:
    """Sweep of the reduced ball in blocks ``(length, codes, images)``,
    the identity first; ``codes`` holds one row of letter codes (see
    ``Alphabet.symbols``) per word.

    Words grow on the left: a block holds s*w for the words w of a slice of
    one parent block, minus the backtracking letters, made by one stacked
    product with the letter table.  Blocks are visited depth first, so
    about ``radius`` of them are live, each of at most ``BLOCK_BYTES``.

    2x2 images are raw products.  For dim >= 3 ``images`` is a pair (Q, R)
    of stacks, Q orthogonal, R upper triangular, Q @ R the product: a step
    factors g @ Q = Q'R' and keeps R'R, so the growth sits in the graded
    factor R instead of drowning the small singular values of a raw
    product in rounding (Stewart, ETNA 3, 1995).
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    alphabet = rep.alphabet if subalphabet is None else Alphabet(tuple(subalphabet))
    table = symbol_table(rep, alphabet)
    nsym = len(table)
    graded = rep.dim >= 3
    eye = np.eye(rep.dim)[None]
    root: Block = (0, np.zeros((1, 0), dtype=np.int8),
                   (eye, eye) if graded else eye)
    yield root
    word_bytes = table[0].nbytes * (2 if graded else 1)
    fan = max(1, BLOCK_BYTES // (word_bytes * (nsym - 1)))  # parents per block
    stack = [(root, 0, 1)] if radius else []
    while stack:
        (length, codes, images), lo, hi = stack.pop()
        heads = codes[lo:hi, 0] if length else np.full(1, -1)
        parent, letter = extensions(heads, nsym)
        parent += lo
        g = table[letter]
        with np.errstate(over="ignore", invalid="ignore"):  # seen downstream
            if graded:
                q, r = np.linalg.qr(g @ images[0][parent])
                images = (q, r @ images[1][parent])
            else:
                images = g @ images[parent]
        block = (length + 1,
                 np.concatenate([letter[:, None].astype(np.int8),
                                 codes[parent]], axis=1), images)
        yield block
        if length + 1 < radius:
            n = len(block[1])
            stack.extend((block, i, min(i + fan, n))
                         for i in reversed(range(0, n, fan)))


@dataclass(frozen=True)
class HomomorphismReport(Record):
    deviations: tuple[tuple[str, float], ...]
    tol: float
    max_deviation: float
    passed: bool


def validate_homomorphism(rep: RepSpec, p: Presentation,
                          tol: float = 1e-8) -> HomomorphismReport:
    """Per-relator Frobenius distance of the image from the identity."""
    if rep.alphabet.names != p.alphabet.names:
        raise InputError("representation and presentation alphabets differ")
    devs = []
    for rel in p.relators:
        m = rep.evaluate(rel)
        devs.append((str(rel), float(np.linalg.norm(m - np.eye(rep.dim)))))
    worst = max((d for _, d in devs), default=0.0)
    return HomomorphismReport(tuple(devs), tol, worst, worst <= tol)


def common_eigenvector_defect(images: Sequence[np.ndarray]) -> float:
    """Smallest joint deviation of any eigenvector of the first matrix from
    being an eigenvector of all the others (heuristic irreducibility probe;
    large means no common invariant line was found)."""
    first = np.asarray(images[0])
    _, vecs = np.linalg.eig(first)
    best = math.inf
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        v = v / np.linalg.norm(v)
        worst = 0.0
        for m in images[1:]:
            w = np.asarray(m) @ v
            coeff = np.vdot(v, w)
            worst = max(worst, float(np.linalg.norm(w - coeff * v) /
                                     max(np.linalg.norm(w), 1e-30)))
        best = min(best, worst)
    return best
