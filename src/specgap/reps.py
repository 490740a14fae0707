"""Representation specifications: finite generator-to-matrix maps with
unimodular images, plus the constructions the named builders assemble.

A :class:`RepSpec` is a homomorphism of the free group on its alphabet;
whether it factors through any intended quotient is checked numerically by
:func:`validate_homomorphism` and otherwise recorded as an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import ConstructionError, InputError, SizeError
from .linalg import (MAX_DIM, Record, _as_numeric, _as_real, _check_square,
                     block_eigenvalues, matrix_hash, sort_eigenvalues)
from .words import (Alphabet, GeneratorMap, Presentation, Word, json_field,
                    load_json)

UNIMODULAR_TOL = 1e-8


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _check_unimodular(m: np.ndarray, whats: Sequence[str]):
    """The one determinant gate on input, real or complex: a (k, d, d)
    stack of images, named by ``whats``, with one batched ``det``.

    A computed determinant is known only to about eps times the product of
    the row norms (Hadamard's bound on |det|), so the gate widens with it,
    never below ``UNIMODULAR_TOL * d``: dets all within that floor of 1 are
    accepted at once, before the slack is computed.  The product is taken
    in logs on each image scaled to entries <= 1, silently: a zero row
    gives 0, an overflow inf.  A det that is not finite (NaN or inf entries
    included) or has no positive real part is refused.  The first refused
    image in stack order is named."""
    dim = m.shape[-1]
    with np.errstate(all="ignore"):
        det = np.linalg.det(m)
        if (np.abs(det - 1.0) <= UNIMODULAR_TOL * dim).all():
            return
        scale = np.abs(m).max(axis=(1, 2))
        scale[scale == 0.0] = 1.0
        hadamard = np.exp(np.log(np.linalg.norm(m / scale[:, None, None],
                                                axis=2)).sum(axis=1)
                          + dim * np.log(scale))
    slack = np.maximum(UNIMODULAR_TOL * dim,
                       dim * np.finfo(float).eps * hadamard)
    bad = ~(np.isfinite(det) & (det.real > 0)) | (np.abs(det - 1.0) > slack)
    if bad.any():
        k = int(np.argmax(bad))
        raise InputError(f"{whats[k]} is not unimodular: det = {det[k]!r} "
                         f"(allowed deviation {slack[k]:.3e})")


def _image_table(images: Sequence, whats: Sequence[str],
                 dtype: type) -> np.ndarray:
    """The one validation of generator images: a read-only (k, d, d) copy
    of ``images``, named by ``whats``.  Each image is read with
    ``np.asarray`` and its entries and shape checked (real: square, at most
    ``MAX_DIM`` and not empty; complex: 2x2); then the images are stacked,
    tested finite (real) and gated (:func:`_check_unimodular`) as one.
    Of two faults of one kind, the first image is named."""
    arrays = []
    for m, what in zip(images, whats):
        if dtype is float:
            a = _as_real(m, what)
            _check_square(a, what)
            if not a.size:
                raise InputError(f"{what} is empty: shape {a.shape}")
        elif (a := _as_numeric(m, what)).shape != (2, 2):
            raise InputError(f"{what} is not 2x2")
        arrays.append(a)
    dims = {a.shape[0] for a in arrays}
    if len(dims) != 1:
        raise InputError(f"generator images have mixed dimensions {sorted(dims)}")
    stack = np.array(arrays, dtype)
    if dtype is float and not (finite := np.isfinite(stack).all(axis=(1, 2))).all():
        raise InputError(f"{whats[int(np.argmin(finite))]} has non-finite entries")
    _check_unimodular(stack, whats)
    stack.flags.writeable = False
    return stack


class _Images:
    """Generator labels mapped to unimodular matrices of entries ``dtype``,
    held as one read-only (k, d, d) ``stack`` in alphabet order, validated
    once (:func:`_image_table`); ``image`` and ``table`` read it."""

    dtype: type = float

    def __init__(self, alphabet: Alphabet, images: Mapping[str, np.ndarray],
                 provenance: Optional[Mapping] = None):
        for label in alphabet.names:
            if label not in images:
                raise InputError(f"missing image for generator {label!r}")
        self.alphabet = alphabet
        self.stack = _image_table([images[l] for l in alphabet.names],
                                  [f"image of {l!r}" for l in alphabet.names],
                                  self.dtype)
        self.dim = self.stack.shape[1]
        self.provenance = dict(provenance or {})

    def image(self, label: str) -> np.ndarray:
        return self.stack[self.alphabet.index(label)]

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only (2k, d, d) images of the signed letters in code
        order (``Alphabet.symbols``), each image followed by its inverse,
        the inverses from one batched ``inv``: the one letter table every
        word product reads (:func:`word_products`), made on first use."""
        table = np.stack([self.stack, np.linalg.inv(self.stack)],
                         axis=1).reshape(-1, self.dim, self.dim)
        table.flags.writeable = False
        return table


class RepSpec(_Images):
    """Immutable map from generator labels to unimodular real matrices.

    ``factors`` are representations on the same alphabet whose ordered
    Kronecker product is each image exactly, bit for bit; ``()`` when none
    are known.  Singular values of a Kronecker product are the products of
    the factors' singular values, so profiles sweep the factors instead.
    """

    def __init__(self, alphabet: Alphabet, images: Mapping[str, np.ndarray],
                 provenance: Optional[Mapping] = None,
                 factors: Sequence["RepSpec"] = ()):
        super().__init__(alphabet, images, provenance)
        self.factors = tuple(factors)
        if self.factors:
            self._check_factors()

    def _check_factors(self):
        for f in self.factors:
            if f.alphabet.names != self.alphabet.names:
                raise InputError("tensor factors use another alphabet")
        dims = [f.dim for f in self.factors]
        if math.prod(dims) != self.dim:
            raise InputError(f"tensor factor dimensions {dims} do not"
                             f" multiply to the dimension {self.dim}")
        kron = _kron([f.stack for f in self.factors])
        if not (same := (kron == self.stack).all(axis=(1, 2))).all():
            raise InputError("the Kronecker product of the tensor factors is not"
                             f" the image of {self.alphabet.names[np.argmin(same)]!r}")

    def evaluate(self, w: Word) -> np.ndarray:
        return word_products(self.table, letter_codes(self.alphabet, w))

    @cached_property
    def structure(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per Kronecker factor (:func:`factor_tables`), the letter tables
        of its direct-sum blocks (:func:`block_tables`) stacked by width,
        narrowest first: (2k, g, b, b) for its g blocks of width b; made on
        first use."""
        out = []
        for blocks in map(block_tables, factor_tables(self)):
            widths = sorted({len(b[0]) for b in blocks})
            out.append(tuple(np.stack([b for b in blocks if len(b[0]) == w],
                                      axis=1) for w in widths))
        return tuple(out)

    def top_modulus(self, w: Word) -> float:
        """Largest eigenvalue modulus of the image, computed on the cyclic
        reduction (a class function, far better conditioned) from its block
        images (:func:`top_moduli`)."""
        codes = np.array([letter_codes(self.alphabet, w.cyclic_reduction())],
                         np.intp)
        spectra = block_spectra(self.structure, codes,
                                word_images(self.structure, codes))
        return float(top_moduli(spectra)[0])

    def to_json(self) -> dict:
        doc = {
            "alphabet": list(self.alphabet.names),
            "dim": self.dim,
            "images": dict(zip(self.alphabet.names, self.stack.tolist())),
            "provenance": self.provenance,
        }
        if self.factors:
            doc["factors"] = [f.to_json() for f in self.factors]
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "RepSpec":
        return cls(Alphabet(tuple(json_field(doc, "alphabet", list))),
                   json_field(doc, "images", dict),
                   json_field(doc, "provenance", dict, {}),
                   [cls.from_json(f) for f in json_field(doc, "factors", list, [])])

    @classmethod
    def load(cls, path) -> "RepSpec":
        return cls.from_json(load_json(path))

    def digest(self) -> str:
        return matrix_hash(self.stack)


class ComplexRep2(_Images):
    """Generator map into 2x2 complex matrices of determinant one."""

    dtype = complex

    def evaluate(self, w: Word) -> np.ndarray:
        return word_products(self.table, letter_codes(self.alphabet, w))


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

# the orthonormal Hermitian basis: the identity, then the Pauli matrices
_SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _spin(g: np.ndarray) -> np.ndarray:
    """(k, 4, 4) spin images of a (k, 2, 2) complex stack, ungated: entry
    (j, l) is Re tr(sigma_j g sigma_l g*) / 2.  One pass of stacked
    products, c_l = (g sigma_l) g* and then sigma_j c_l, and a sum of the
    diagonal; the same operations, in the same order, as the matrix by
    matrix formula, so every image is the same bit for bit.  The sum starts
    from 0, as ``np.trace``'s does, which turns -0 + -0 into +0."""
    c = (g[:, None] @ _SIGMA) @ g.conj().transpose(0, 2, 1)[:, None]
    p = _SIGMA[:, None] @ c[:, None]
    return (0.5 * (0.0 + p[..., 0, 0] + p[..., 1, 1])).real


def _realify(g: np.ndarray) -> np.ndarray:
    """(k, 4, 4) real forms [[Re g, -Im g], [Im g, Re g]] of a (k, 2, 2)
    complex stack, ungated."""
    return np.block([[g.real, -g.imag], [g.imag, g.real]])


def spin_so31(g) -> np.ndarray:
    """Action of a 2x2 complex unimodular matrix on Hermitian forms.

    In the orthonormal Hermitian basis (identity, the three trace-free
    generators) the determinant form has signature (1,3); the image is the
    real 4x4 matrix of H -> g H g*.  diag(a, 1/a) with a real maps to a
    matrix with eigenvalue moduli (a^2, 1, 1, a^-2).
    """
    return _spin(_image_table([g], ["spin input"], complex))[0]


def realify_sl2c(g) -> np.ndarray:
    """Real 4x4 form [[Re g, -Im g], [Im g, Re g]] of a 2x2 complex matrix."""
    return _realify(_image_table([g], ["realification input"], complex))[0]


def _lift(rep: ComplexRep2 | RepSpec, construction: str, what: str,
          lift: Callable[[np.ndarray], np.ndarray]) -> RepSpec:
    """The representation of ``lift`` applied to the whole image table at
    once.  The table passed its own unimodular gate, so only its shape is
    checked here; the lifted table meets ``RepSpec``'s gate."""
    if rep.dim != 2:
        raise InputError(f"{what} is not 2x2")
    lifted = lift(rep.stack.astype(complex, copy=False))
    return RepSpec(rep.alphabet, dict(zip(rep.alphabet.names, lifted)),
                   provenance={"construction": construction,
                               "base": rep.provenance.get("construction")})


def spin_lift(rep: ComplexRep2 | RepSpec) -> RepSpec:
    """``spin_so31`` of every image, lifted as one stack."""
    return _lift(rep, "spin_lift", "spin input", _spin)


def realify_lift(rep: ComplexRep2 | RepSpec) -> RepSpec:
    """``realify_sl2c`` of every image, lifted as one stack."""
    return _lift(rep, "realify_lift", "realification input", _realify)


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
    stack, at = np.zeros((alphabet.size, dim, dim)), 0
    for p in parts:
        stack[:, at:at + p.dim, at:at + p.dim] = p.stack
        at += p.dim
    return RepSpec(alphabet, dict(zip(alphabet.names, stack)),
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
    values = [eps.value(label) for label in rep.alphabet.names]
    stack = np.zeros((len(values), rep.dim + 1, rep.dim + 1))
    stack[:, :-1, :-1] = (np.array([v ** float(exp) for v in values])[:, None, None]
                          * rep.stack)
    stack[:, -1, -1] = [v ** float(appended) for v in values]
    try:
        return RepSpec(rep.alphabet, dict(zip(rep.alphabet.names, stack)),
                       provenance={"construction": "scale_by_character",
                                   "exponent": str(exp),
                                   "appended_exponent": str(appended),
                                   "base": rep.provenance.get("construction")})
    except InputError as exc:
        raise ConstructionError(f"character scaling broke unimodularity: {exc}",
                                inequality="det = 1") from exc


def _kron(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Ordered Kronecker products of (k, d_i, d_i) stacks, image by image,
    entry by entry the one product ``np.kron`` takes, in one broadcast
    multiply per factor."""
    return reduce(lambda a, b: (a[:, :, None, :, None] * b[:, None, :, None, :])
                  .reshape(len(a), a.shape[1] * b.shape[1], -1), stacks)


def tensor_rep(r1: RepSpec, r2: RepSpec) -> RepSpec:
    """r1 (x) r2, carrying the factors of both (or the reps themselves) as
    its exact Kronecker factors."""
    if r1.alphabet.names != r2.alphabet.names:
        raise InputError("tensor factors use different alphabets")
    if r1.dim * r2.dim > MAX_DIM:
        raise SizeError(f"tensor dimension {r1.dim * r2.dim} exceeds {MAX_DIM}")
    factors = (r1.factors or (r1,)) + (r2.factors or (r2,))
    images = dict(zip(r1.alphabet.names, _kron([f.stack for f in factors])))
    return RepSpec(r1.alphabet, images, provenance={"construction": "tensor_rep"},
                   factors=factors)


def pull_back(rep: RepSpec, gmap: GeneratorMap) -> RepSpec:
    if rep.alphabet.names != gmap.target.names:
        raise InputError("representation alphabet does not match the map target")
    images = {l: rep.evaluate(gmap.image(l)) for l in gmap.source.names}
    prov = {"construction": "pull_back", "base": rep.provenance.get("construction")}
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
    return type(rep)(alphabet, dict(zip(alphabet.names, rep.stack)),
                     rep.provenance)


def restrict_rep(rep: RepSpec, labels: Sequence[str]) -> RepSpec:
    sub = Alphabet(tuple(labels))
    images = {l: rep.image(l) for l in sub.names}
    prov = dict(rep.provenance)
    prov["restricted_to"] = list(sub.names)
    return RepSpec(sub, images, prov)


def symbol_table(rep: RepSpec, subalphabet: Optional[Sequence[str]] = None) -> np.ndarray:
    """``rep.table``, or its rows for the signed letters of the labels
    ``subalphabet``, indexed by letter code over ``subalphabet``."""
    if subalphabet is None:
        return rep.table
    return rep.table[[2 * rep.alphabet.index(l) + sign for l in
                      Alphabet(tuple(subalphabet)).names for sign in (0, 1)]]


def letter_codes(alphabet: Alphabet, w: Word) -> list[int]:
    """Codes over ``alphabet`` of the letters of ``w``, matched by label."""
    return [2 * alphabet.index(w.alphabet.names[i]) + (sign < 0)
            for i, sign in w.letters]


def factor_tables(rep: RepSpec, subalphabet: Optional[Sequence[str]] = None
                  ) -> list[np.ndarray]:
    """The symbol tables of the representation's Kronecker factors (itself
    when it records none), from which words' statistics are read."""
    return [symbol_table(f, subalphabet) for f in rep.factors or (rep,)]


def block_tables(table: np.ndarray) -> list[np.ndarray]:
    """The letter tables of a table's direct-sum blocks (:func:`_blocks`);
    the table itself when it is one block."""
    blocks = _blocks(table)
    if len(blocks) == 1:
        return [table]
    return [table[:, b[:, None], b] for b in blocks]


def word_dets(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Determinants of the images of words (rows of letter codes) over a
    symbol table of 2x2 letter images, (2k, 2, 2) or stacked (2k, g, 2, 2),
    as products in word order of their letters' a d - b c (an inverse
    letter's: its reciprocal); the det of a long product would lose about
    |w|^2 eps to cancellation."""
    letters = table[0::2].reshape(len(table) // 2, -1, 2, 2).tolist()
    dets = np.array([[(p * s - q * r) ** sign for (p, q), (r, s) in blocks]
                     for blocks in letters for sign in (1, -1)])
    out = np.ones((len(codes),) + dets.shape[1:])
    for column in codes.T:
        out = out * dets[column]
    return out.reshape((len(codes),) + table.shape[1:-2])


def word_products(table: np.ndarray, codes) -> np.ndarray:
    """The one walk from letters to word images: the identity multiplied
    on the right by each letter of a table (``_Images.table``, or a stacked
    block table of ``RepSpec.structure``) in turn.  ``codes`` is one word's
    letter codes, or rows of them, one word each, all of one length; the
    identity word gives a fresh identity."""
    codes = np.asarray(codes, np.intp)
    out = np.eye(table.shape[-1], dtype=table.dtype)
    for letters in codes.T:  # the first product broadcasts the identity
        out = out @ table[letters]
    if codes.shape[-1]:
        return out
    return np.broadcast_to(out, codes.shape[:-1] + table.shape[1:]).copy()


def word_images(structure, codes: np.ndarray) -> State:
    """Per table of ``structure`` (``RepSpec.structure``), the images of
    the words of letter codes ``codes`` (rows, one length), by
    :func:`word_products`."""
    with np.errstate(over="ignore", invalid="ignore"):  # seen downstream
        return tuple(word_products(t, codes) for ts in structure for t in ts)


def block_spectra(structure, codes: np.ndarray, images: State, wide=None
                  ) -> list[list[np.ndarray]]:
    """Per factor and table of ``structure``, the (n, g b) eigenvalues of
    the words' ``images`` (:func:`word_images`; ``codes`` their letters) in
    the table's g blocks of width b: :func:`block_eigenvalues` on 2x2
    determinants from the letters, or ``wide`` of the images when it is
    given and b > 2."""
    images = iter(images)
    return [[wide(m) if wide and t.shape[-1] > 2 else block_eigenvalues(
                m.reshape(-1, *t.shape[-2:]),
                word_dets(t, codes).ravel() if t.shape[-1] == 2 else None
             ).reshape(len(m), -1)
             for t, m in zip(tables, images)] for tables in structure]


def top_moduli(factors: list[list[np.ndarray]]) -> np.ndarray:
    """Each word's top eigenvalue modulus from its :func:`block_spectra`:
    per factor the largest over its blocks (libm ``hypot``, as the scalar
    ``abs`` takes it), multiplied over the factors in order."""
    return reduce(np.multiply, [
        reduce(np.maximum, [np.hypot(e.real, e.imag).max(axis=1)
                            for e in tables]) for tables in factors])


def spectra(rep: RepSpec, words: Sequence[Word]) -> list[tuple[complex, ...]]:
    """Each word's eigenvalues in ``eigenvalue_sort_key`` order, read from
    ``rep.structure``: per Kronecker factor the union of its direct-sum
    blocks' (:func:`block_spectra`), across factors their products, once
    per distinct word.  A word whose eigenvalues are not all finite has NaN
    for each."""
    codes = [tuple(letter_codes(rep.alphabet, w)) for w in words]
    found = {}
    for length in set(map(len, codes)):
        at = list(dict.fromkeys(c for c in codes if len(c) == length))
        rows = np.array(at, np.intp).reshape(len(at), length)
        blocks = block_spectra(rep.structure, rows,
                               word_images(rep.structure, rows))
        with np.errstate(invalid="ignore"):  # inf * 0 in a product
            eigs = reduce(lambda x, y: (x[:, :, None] * y[:, None]).reshape(
                len(at), -1), [np.concatenate(b, axis=1) for b in blocks])
        eigs[~np.isfinite(eigs).all(axis=1)] = np.nan
        found.update(zip(at, map(sort_eigenvalues, eigs.tolist())))
    return [found[c] for c in codes]


# cap on the bytes of states in one block of the ball sweep; a block may
# exceed it only when it holds the children of a single word
BLOCK_BYTES = 1 << 18

State = tuple[np.ndarray, ...]  # stacks with one entry per word
Block = tuple[int, np.ndarray, State]
Bound = Callable[[Block, np.ndarray, np.ndarray], np.ndarray]


def iter_ball_images(nsym: int, radius: int, root: State,
                     step: Callable[[State, np.ndarray, np.ndarray], State],
                     inverse_pairs: bool | Bound = False) -> Iterator[Block]:
    """Sweep of the reduced ball over ``nsym`` letter codes (see
    ``Alphabet.symbols``) in blocks ``(length, codes, state)``, the identity
    first, with state ``root``; ``codes`` holds one row of letter codes per
    word, and ``state`` one stack per entry of ``root``.

    Words grow on the right: a block holds w*s for the words w of a slice
    of one parent block and each letter s that keeps w*s reduced, and its
    state is ``step(state, parent, letter)`` of the parent block's state,
    each word's parent position in it and its appended code.  Blocks are
    visited depth first, so about ``radius`` of them are live, each of at
    most ``BLOCK_BYTES``.  Without ``inverse_pairs`` the blocks cover the
    ball and each length's words come out in shortlex order across blocks.

    With ``inverse_pairs`` the last length holds one word of each pair
    {w, w^-1}, the one whose codes come first lexicographically (w^-1 has
    w's codes reversed, each ``^ 1``), for a caller that reads w^-1's
    statistic from w's state.  When it is a callable, it is called as
    ``inverse_pairs(parent_block, parent, letter)`` on those kept children
    of a slice when the slice is taken off the stack, after every earlier
    block has been yielded, and only the children where the boolean mask
    it returns is true are swept; it sees each child at least once, and
    again if it was kept but left over from a full block.  How many
    children of a word are kept depends on its first code (and on the
    callable), so the kept children of a parent block are regrouped into
    blocks of at most ``BLOCK_BYTES``, refilled from the slices that
    follow; the last length's kept words then come out in shortlex order
    within each parent block.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    first: Block = (0, np.zeros((1, 0), dtype=np.int8), root)
    yield first
    word_bytes = sum(s.nbytes for s in root)
    fan = max(1, BLOCK_BYTES // (word_bytes * (nsym - 1)))  # parents per block
    size = max(1, BLOCK_BYTES // word_bytes)  # words per last-length block
    stack: list = []

    def children(block: Block, part) -> tuple[np.ndarray, np.ndarray]:
        """(parent, letter) of the children a stack entry sweeps: the
        reduced children of a slice of the block's words, or a leftover
        (parent, letter) pair; at the last length, only the kept ones."""
        if isinstance(part, slice):
            parent, letter = _reduced_children(block[1][part], nsym)
            parent += part.start
            if pairing(block):
                keep = _first_of_pairs(block[1], parent, letter)
                parent, letter = parent[keep], letter[keep]
        else:
            parent, letter = part
        if callable(inverse_pairs) and pairing(block):
            keep = inverse_pairs(block, parent, letter)
            parent, letter = parent[keep], letter[keep]
        return parent, letter

    def pairing(block: Block) -> bool:
        return bool(inverse_pairs) and block[0] + 1 == radius

    def push(block: Block):
        """Queue the slices of the block's words, the first on top."""
        stack.extend((block, slice(i, i + fan))
                     for i in reversed(range(0, len(block[1]), fan)))

    if radius:
        push(first)
    while stack:
        parent_block, part = stack.pop()
        parent, letter = children(parent_block, part)
        if pairing(parent_block):
            # refill from the block's next slices, then leave the rest over
            while (len(parent) < size and stack
                   and stack[-1][0] is parent_block):
                more = children(*stack.pop())
                parent, letter = (np.concatenate((parent, more[0])),
                                  np.concatenate((letter, more[1])))
            if len(parent) > size:
                stack.append((parent_block, (parent[size:], letter[size:])))
                parent, letter = parent[:size], letter[:size]
            if not len(parent):
                continue
        length, codes, state = parent_block
        with np.errstate(over="ignore", invalid="ignore"):  # seen downstream
            state = step(state, parent, letter)
        block = (length + 1,
                 np.concatenate([codes[parent],
                                 letter[:, None].astype(np.int8)], axis=1),
                 state)
        yield block
        if length + 1 < radius:
            push(block)


def _reduced_children(codes: np.ndarray, nsym: int):
    """(parent, letter) of each reduced child w*s of the words w in
    ``codes``, parent-major and codes ascending, so that a shortlex slice
    gives shortlex words."""
    ends = codes[:, -1] if codes.shape[1] else np.full(len(codes), -1)
    return np.nonzero(np.arange(nsym) != (ends[:, None] ^ 1))


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


def products(*tables: np.ndarray):
    """Root and step of a ball sweep whose state is, per table of letter
    images, the word's product as :func:`word_products` makes it, bit for
    bit: the walk taken one letter per block."""
    def step(state, parent, letter):
        return tuple(s[parent] @ t[letter] for s, t in zip(state, tables))
    return tuple(word_products(t, np.empty((1, 0))) for t in tables), step


def graded_products(*tables: np.ndarray):
    """Root, step and reader of a ball sweep whose state holds one entry
    per direct-sum block (:func:`_blocks`) of each table of letter images,
    from which the singular values of the block's product W are read
    without drowning the small ones in the rounding of a raw product.

    A block keeps X = W^T V with V orthogonal, a (d, d, n) stack laid out
    (column, row, word), whose columns are orthogonal with the singular
    values of W as norms.  Appending g orthogonalises the columns of g^T X
    by one-sided Jacobi (:func:`_orthogonalise`), accurate on graded
    matrices at any width (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13,
    1992).  A table that is one 2x2 block keeps X = W^T / sqrt(det W), not
    rotated; a 2x2 block of a larger sum keeps its scale on the Jacobi
    step.  The reader, ``logs(state)``, is :func:`log_singular_values` on
    the tables' block counts."""
    counts, sweeps = [], []
    for table in tables:
        blocks = block_tables(table)
        counts.append(len(blocks))
        closed = len(blocks) == 1 and table.shape[1] == 2
        sweeps += [_jacobi_step(b, closed) for b in blocks]

    def step(state, parent, letter):
        return tuple(f(s, parent, letter) for (_, f), s in zip(sweeps, state))
    return (tuple(root for root, _ in sweeps), step,
            partial(log_singular_values, counts=tuple(counts)))


def _blocks(table: np.ndarray) -> list[np.ndarray]:
    """Ascending index arrays, by first index, of the direct-sum blocks of
    a (k, d, d) table: the connected components of the union of its nonzero
    patterns.  The table holds the inverse images too, so every word's
    product is the same block sum, and its singular values are the union
    of its blocks'."""
    linked = (table != 0).any(axis=0)
    linked |= linked.T
    label = np.arange(len(linked))  # the least index known to be linked
    while ((least := np.where(linked, label, label[:, None]).min(axis=1))
           < label).any():
        label = least[least]  # pointer jumping: a chain takes log d rounds
    return [np.flatnonzero(label == i) for i in range(len(label))
            if label[i] == i]


def _jacobi_step(table: np.ndarray, closed: bool):
    d = table.shape[1]
    if closed:  # the closed form takes det 1; ratios do not see the scale
        table = table / np.sqrt(np.linalg.det(table))[:, None, None]
    g = table.transpose(1, 2, 0)  # g[k, i, s] is entry (k, i) of letter s

    def step(x, parent, letter):
        # column j of g^T X is sum_k g[k, :] X[k, j]; take keeps the word
        # axis innermost in memory, where x[:, :, parent] would not
        xp, gl = x.take(parent, axis=2), g.take(letter, axis=2)
        m = xp[:, 0, None] * gl[0]
        for k in range(1, d):
            m += xp[:, k, None] * gl[k]
        return m if closed else _orthogonalise(m)
    return np.eye(d)[:, :, None], step


# a matrix still rotating after this many sweeps is given up as NaN, which
# a profile reads as inf ("inconclusive"); the named builds' blocks need at
# most 6 sweeps, dense tables 7 to 66 wide up to 15 (CHANGES.md has counts)
JACOBI_SWEEPS = 30


@cache
def _round_robin(d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint column pairs (p, q) that meet every pair once: the
    circle method, with a phantom column d padding an odd d."""
    n = d + d % 2
    seats = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [(seats[i], seats[n - 1 - i]) for i in range(n // 2)
                 if max(seats[i], seats[n - 1 - i]) < d]
        if pairs:
            rounds.append(tuple(np.array(side) for side in zip(*pairs)))
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return rounds


def log_singular_values(state: State, counts: Sequence[int]) -> np.ndarray:
    """(n, D) logs of the singular values of each word's product, descending,
    from a :func:`graded_products` state whose tables hold ``counts``
    blocks each, in order: per table the union of its blocks' logs, past
    one table the sums over all index tuples (Kronecker product); a row is
    NaN where an entry is not finite.  A table that is one 2x2 block gives
    log sigma_1 = |log((s + t) / 2)|, s = |(a+d, b-c)| and t = |(a-d, b+c)|
    (>= 0 but for rounding), and log sigma_2 = -log sigma_1, those of
    W / sqrt(det W), unsorted; every other block its log column norms,
    taken on columns scaled by powers of two, exponents added back as logs."""
    entries, finite, tables = iter(state), True, []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for count in counts:
            logs = []
            for entry in islice(entries, count):
                finite &= np.isfinite(entry).all(axis=(0, 1))
                if count == 1 and len(entry) == 2:
                    (a, b), (c, d) = entry
                    top = np.abs(np.log((np.hypot(a + d, b - c)
                                         + np.hypot(a - d, b + c)) / 2.0))
                    logs.append(np.stack((top, -top), axis=1))
                else:
                    e = np.frexp(np.abs(entry).max(axis=1))[1]
                    y = np.ldexp(entry, -e[:, None])
                    logs.append((0.5 * np.log(np.einsum("jin,jin->jn", y, y))
                                 + math.log(2.0) * e).T)
            tables.append(np.concatenate(logs, axis=1))
        total = reduce(lambda t, lg: (t[:, :, None] + lg[:, None, :])
                       .reshape(len(lg), -1), tables)
        if len(state) > 1 or len(state[0]) > 2:
            total = np.sort(total, axis=1)[:, ::-1]
    return total if finite.all() else np.where(finite[:, None], total, np.nan)


def _orthogonalise(m: np.ndarray) -> np.ndarray:
    """Rotate the columns of each finite matrix of a (column, row, word)
    stack, in place, until they are pairwise orthogonal: one-sided
    (Hestenes) Jacobi, batched over the words.

    A sweep visits every column pair once, in rounds of disjoint pairs.  A
    pair is orthogonal when c^2 <= (d eps)^2 a b, with a = |x_p|^2,
    b = |x_q|^2 and c = x_p . x_q recomputed for every round, and is
    otherwise rotated to make c vanish.  The columns are first scaled by
    powers of two, x_p = 2^e_p y_p, so that no square over- or underflows,
    and the rotation of (x_p, x_q) is carried out on (y_p, y_q), where it
    mixes in r = 2^(e_q - e_p); r is capped at 2^64, past which the
    rotation no longer depends on it in double precision.  After each
    sweep only the matrices that rotated go on; one still rotating after
    ``JACOBI_SWEEPS`` sweeps is set to NaN.

    Words are selected with ``take``, which keeps the word axis innermost
    in memory; fancy indexing on the last axis would not, and every later
    operation would run strided, at about 1.6 times the cost.
    """
    d = len(m)
    tol2 = (d * np.finfo(float).eps) ** 2
    rounds = _round_robin(d)
    if not rounds:  # a single column
        return m
    live = np.flatnonzero(np.isfinite(m).all(axis=(0, 1)))
    x = m if live.size == m.shape[2] else m.take(live, axis=2)
    e = np.frexp(np.abs(x).max(axis=1))[1]
    y = np.ldexp(x, -e[:, None])
    # per round: r / 2, 1 / 2r, r and 1 / r
    r = np.ldexp(1.0, np.stack([e[q] - e[p] for p, q in rounds]).clip(-64, 64))
    ratios = np.stack((r / 2, 0.5 / r, r, 1 / r), axis=1)
    # a pair with c = 0 is orthogonal: its zeta is not used
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(JACOBI_SWEEPS):
            moved = np.zeros(live.size, dtype=bool)
            for (p, q), (h, h_inv, r, r_inv) in zip(rounds, ratios):
                yp, yq = y[p], y[q]
                a = np.einsum("kin,kin->kn", yp, yp)
                b = np.einsum("kin,kin->kn", yq, yq)
                c = np.einsum("kin,kin->kn", yp, yq)
                rot = c * c > tol2 * a * b
                if not rot.any():
                    continue
                moved |= rot.any(axis=0)
                zeta = (b * h - a * h_inv) / c  # (b - a) / 2c unscaled
                t = np.where(rot, np.copysign(
                    1 / (np.abs(zeta) + np.sqrt(1 + zeta * zeta)), zeta), 0.0)
                cs = 1 / np.sqrt(1 + t * t)
                t *= cs  # the sine
                tmp = yp * (t * r_inv)[:, None]
                yp *= cs[:, None]
                yp -= yq * (t * r)[:, None]
                yq *= cs[:, None]
                yq += tmp
                y[p], y[q] = yp, yq
            done, keep = np.flatnonzero(~moved), np.flatnonzero(moved)
            m[:, :, live[done]] = np.ldexp(y.take(done, axis=2),
                                          e.take(done, axis=1)[:, None])
            live, y, e, ratios = (live[keep], y.take(keep, axis=2),
                                  e.take(keep, axis=1),
                                  ratios.take(keep, axis=-1))
            if not live.size:
                return m
    m[:, :, live] = np.nan
    return m


@dataclass(frozen=True)
class HomomorphismReport(Record):
    deviations: tuple[tuple[str, float], ...]
    tol: float
    max_deviation: float
    passed: bool


def validate_homomorphism(rep: RepSpec, p: Presentation,
                          tol: float = 1e-8) -> HomomorphismReport:
    """Per-relator Frobenius distance of the image from the identity,
    relative to the product of the spectral norms of the letters along the
    relator (one batched norm over ``rep.table``), which bounds the
    rounding of the product; for unimodular
    images that product is at least 1.  A distance that is not finite
    counts as inf."""
    if rep.alphabet.names != p.alphabet.names:
        raise InputError("representation and presentation alphabets differ")
    if not p.relators:  # no spectral norms to take
        return HomomorphismReport((), tol, 0.0, True)
    norms = np.linalg.norm(rep.table, 2, axis=(1, 2)).tolist()
    devs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rel in p.relators:
            scale = math.prod(norms[c] for c in letter_codes(rep.alphabet, rel))
            dev = float(np.linalg.norm(rep.evaluate(rel) - np.eye(rep.dim))
                        / scale)
            devs.append((str(rel), dev if math.isfinite(dev) else math.inf))
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
