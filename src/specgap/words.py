"""Free-group word calculus over named generator alphabets.

Words are stored fully reduced, letter by letter, as (generator index,
sign) pairs.  Shortlex order is induced by the alphabet's declared
generator order with each inverse placed immediately after its generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Alphabet:
    """Ordered tuple of unique generator labels."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise InputError("alphabet needs at least one generator")
        if not all(isinstance(n, str) and n for n in self.names):
            raise InputError("generator labels must be nonempty strings")
        if len(set(self.names)) != len(self.names):
            raise InputError("generator labels must be unique")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise InputError(f"unknown generator label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.names

    def symbols(self) -> list[tuple[int, int]]:
        """All signed letters in shortlex symbol order; the position of a
        letter in this list is its code (2*index, plus 1 for an inverse)."""
        out = []
        for i in range(self.size):
            out.append((i, 1))
            out.append((i, -1))
        return out

    def token(self, index: int, sign: int) -> str:
        return self.names[index] if sign > 0 else self.names[index] + "^-1"


def _free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A reduced word.  Construct via :func:`reduce`, ``parse`` or operators."""

    alphabet: Alphabet
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(tuple(l) for l in self.letters))
        for idx, sign in self.letters:
            if not 0 <= idx < self.alphabet.size:
                raise InputError(f"letter index {idx} outside alphabet")
            if sign not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {sign}")
        if self.letters != _free_reduce(self.letters):
            raise InputError("Word requires reduced letters; use reduce()")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, ())

    @classmethod
    def from_codes(cls, alphabet: Alphabet, codes: Iterable[int]) -> "Word":
        """The word whose letters have the given codes (see Alphabet.symbols)."""
        return cls(alphabet, tuple((int(c) >> 1, 1 - 2 * (int(c) & 1))
                                   for c in codes))

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse whitespace-separated tokens like ``a1 b1^-1 a1^2``."""
        letters: list[tuple[int, int]] = []
        for token in text.split():
            label, _, exp = token.partition("^")
            power = 1
            if exp:
                try:
                    power = int(exp)
                except ValueError:
                    raise InputError(f"bad exponent in token {token!r}") from None
            idx = alphabet.index(label)
            sign = 1 if power > 0 else -1
            letters.extend([(idx, sign)] * abs(power))
        return cls(alphabet, _free_reduce(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        _require_same_alphabet(self, other)
        return Word(self.alphabet, _free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        inv = tuple((idx, -sign) for idx, sign in reversed(self.letters))
        return Word(self.alphabet, inv)

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word.identity(self.alphabet)
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def cyclic_reduction(self) -> "Word":
        """Strip matching u...u^-1 padding; eigenvalue computations on the
        result see the same conjugacy class with much better conditioning."""
        ls = list(self.letters)
        while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
            ls = ls[1:-1]
        return Word(self.alphabet, tuple(ls))

    def exponent_sums(self) -> tuple[int, ...]:
        sums = [0] * self.alphabet.size
        for idx, sign in self.letters:
            sums[idx] += sign
        return tuple(sums)

    def shortlex_key(self):
        return (len(self.letters),
                tuple(2 * i + (0 if s > 0 else 1) for i, s in self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(self.alphabet.token(i, s) for i, s in self.letters)


def _require_same_alphabet(u: Word, v: Word):
    if u.alphabet.names != v.alphabet.names:
        raise InputError("words live over different alphabets")


def reduce(alphabet: Alphabet, raw: Sequence[tuple[int, int]]) -> Word:
    """Free reduction of a raw (index, sign) letter sequence."""
    for idx, sign in raw:
        if not 0 <= idx < alphabet.size:
            raise InputError(f"letter index {idx} outside alphabet")
        if sign not in (1, -1):
            raise InputError(f"letter sign must be +1 or -1, got {sign}")
    return Word(alphabet, _free_reduce(raw))


def word(alphabet: Alphabet, text: str) -> Word:
    return Word.parse(alphabet, text)


def commutator(u: Word, v: Word) -> Word:
    _require_same_alphabet(u, v)
    return u * v * u.inverse() * v.inverse()


def ball_count(rank: int, radius: int) -> int:
    """Number of reduced words of length <= radius in the rank-k free group."""
    if rank < 1 or radius < 0:
        raise InputError("rank >= 1 and radius >= 0 required")
    if rank == 1:
        return 2 * radius + 1
    k2 = 2 * rank
    return 1 + k2 * ((k2 - 1) ** radius - 1) // (k2 - 2)


def enumerate_ball(alphabet: Alphabet, radius: int) -> Iterator[Word]:
    """Yield every reduced word of length <= radius once, in shortlex order."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    yield Word.identity(alphabet)
    symbols = alphabet.symbols()
    level: list[tuple[tuple[int, int], ...]] = [()]
    for _ in range(radius):
        nxt: list[tuple[tuple[int, int], ...]] = []
        for prefix in level:
            for idx, sign in symbols:
                if prefix and prefix[-1][0] == idx and prefix[-1][1] == -sign:
                    continue
                w = prefix + ((idx, sign),)
                nxt.append(w)
                yield Word(alphabet, w)
        level = nxt


def json_field(doc, key: str, kind: type, default=None):
    """``doc[key]`` of a JSON object ``doc``, or ``default`` when the key is
    absent and a default is given; a value that is not a ``kind`` (``list``
    or ``dict``) is an input error."""
    value = doc.get(key, default) if isinstance(doc, dict) else None
    if not isinstance(value, kind):
        raise InputError(f"{key!r} must be a JSON "
                         + ("list" if kind is list else "object"))
    return value


def load_json(path):
    """The JSON document in the file at ``path``; a file that cannot be
    read or is not JSON is an input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise InputError(f"cannot read {path} as JSON: {exc}") from None


def transport(w: Word, target: Alphabet) -> Word:
    """Re-express a word over an alphabet containing the same labels."""
    letters = tuple((target.index(w.alphabet.names[i]), s) for i, s in w.letters)
    return Word(target, letters)


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(self.relators))
        for rel in self.relators:
            if rel.alphabet.names != self.alphabet.names:
                raise InputError("relator uses a different alphabet")

    @classmethod
    def free(cls, alphabet: Alphabet) -> "Presentation":
        return cls(alphabet, ())

    def to_json(self) -> dict:
        return {
            "generators": list(self.alphabet.names),
            "relators": [str(r) for r in self.relators],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Presentation":
        alphabet = Alphabet(tuple(json_field(doc, "generators", list)))
        try:
            return cls(alphabet, [Word.parse(alphabet, r) for r in
                                  json_field(doc, "relators", list, [])])
        except AttributeError:
            raise InputError("'relators' must be a list of words") from None

    @classmethod
    def load(cls, path) -> "Presentation":
        return cls.from_json(load_json(path))


def _parity_mask(w: Word) -> int:
    mask = 0
    for i, s in enumerate(w.exponent_sums()):
        if s % 2:
            mask |= 1 << i
    return mask


def _gf2_basis(masks: Iterable[int]) -> dict[int, int]:
    basis: dict[int, int] = {}
    for m in masks:
        for pivot in sorted(basis, reverse=True):
            if m >> pivot & 1:
                m ^= basis[pivot]
        if m:
            basis[m.bit_length() - 1] = m
    return basis


def in_index_two_core(w: Word, p: Presentation) -> bool:
    """Whether w dies under every homomorphism of the presented group onto
    the two-element group.

    Decided exactly: reduce the mod-2 exponent vector of w against the mod-2
    row space of the relators' exponent vectors.
    """
    if w.alphabet.names != p.alphabet.names:
        raise InputError("word and presentation use different alphabets")
    vec = _parity_mask(w)
    basis = _gf2_basis(_parity_mask(r) for r in p.relators)
    for pivot in sorted(basis, reverse=True):
        if vec >> pivot & 1:
            vec ^= basis[pivot]
    return vec == 0


@dataclass(frozen=True)
class GeneratorMap:
    """Substitution sending each source generator to a word over the target.

    ``apply`` accepts any word whose labels all appear in the source
    alphabet, so retractions compose with their own output.
    """

    source: Alphabet
    target: Alphabet
    images: tuple[tuple[str, Word], ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        seen = {}
        for label, img in self.images:
            self.source.index(label)
            if img.alphabet.names != self.target.names:
                raise InputError(f"image of {label!r} is not over the target alphabet")
            seen[label] = img
        for label in self.source.names:
            if label not in seen:
                raise InputError(f"no image given for generator {label!r}")
        object.__setattr__(self, "_table", seen)

    @classmethod
    def from_dict(cls, source: Alphabet, target: Alphabet,
                  images: Mapping[str, str | Word]) -> "GeneratorMap":
        pairs = []
        for label in source.names:
            if label not in images:
                raise InputError(f"no image given for generator {label!r}")
            img = images[label]
            if isinstance(img, str):
                img = Word.parse(target, img)
            pairs.append((label, img))
        return cls(source, target, tuple(pairs))

    def image(self, label: str) -> Word:
        table: dict[str, Word] = getattr(self, "_table")
        if label not in table:
            raise InputError(f"generator {label!r} has no image under this map")
        return table[label]

    def apply(self, w: Word) -> Word:
        letters: list[tuple[int, int]] = []
        for idx, sign in w.letters:
            img = self.image(w.alphabet.names[idx])
            piece = img if sign > 0 else img.inverse()
            letters.extend(piece.letters)
        return Word(self.target, _free_reduce(letters))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "GeneratorMap":
        return cls(alphabet, alphabet,
                   tuple((n, Word.parse(alphabet, n)) for n in alphabet.names))


# ---------------------------------------------------------------------------
# Standard alphabets, the retraction onto the free part, and the k-fold
# sandwich substitution.

def full_alphabet(g: int) -> Alphabet:
    """a1,b1,...,a_{2g},b_{2g},c1,d1,...,c_{2g},d_{2g}."""
    names = []
    for i in range(1, 2 * g + 1):
        names += [f"a{i}", f"b{i}"]
    for i in range(1, 2 * g + 1):
        names += [f"c{i}", f"d{i}"]
    return Alphabet(tuple(names))


def surface_alphabet(g: int) -> Alphabet:
    names = []
    for i in range(1, 2 * g + 1):
        names += [f"a{i}", f"b{i}"]
    return Alphabet(tuple(names))


def free_part_alphabet(g: int) -> Alphabet:
    names = []
    for i in range(1, g + 1):
        names += [f"a{i}", f"b{i}"]
    return Alphabet(tuple(names))


def standard_presentation(g: int) -> Presentation:
    """Two surface relators glued along their common half product."""
    alphabet = full_alphabet(g)

    def comm_product(letter_pairs):
        w = Word.identity(alphabet)
        for x, y in letter_pairs:
            w = w * commutator(Word.parse(alphabet, x), Word.parse(alphabet, y))
        return w

    r1 = comm_product([(f"a{i}", f"b{i}") for i in range(1, 2 * g + 1)])
    r2 = comm_product([(f"c{i}", f"d{i}") for i in range(1, 2 * g + 1)])
    r3 = comm_product([(f"a{i}", f"b{i}") for i in range(1, g + 1)]
                      + [(f"c{i}", f"d{i}") for i in range(1, g + 1)])
    return Presentation(alphabet, (r1, r2, r3))


def retraction_to_free_part(g: int, source: str = "full") -> GeneratorMap:
    """Retraction onto <a1,b1,...,ag,bg>, restricting to the identity there.

    On the surface letters: a_{g+i} -> b_{g-i+1}, b_{g+i} -> a_{g-i+1}.
    The extension to the c/d letters (c_i -> b_{g-i+1}, d_i -> a_{g-i+1},
    c_{g+i} -> a_i, d_{g+i} -> b_i) kills all standard relators already in
    the free group on the target letters.
    """
    if source == "full":
        src = full_alphabet(g)
    elif source == "surface":
        src = surface_alphabet(g)
    else:
        raise InputError("source must be 'full' or 'surface'")
    tgt = free_part_alphabet(g)
    images: dict[str, str] = {}
    for i in range(1, g + 1):
        images[f"a{i}"] = f"a{i}"
        images[f"b{i}"] = f"b{i}"
        images[f"a{g + i}"] = f"b{g - i + 1}"
        images[f"b{g + i}"] = f"a{g - i + 1}"
    if source == "full":
        for i in range(1, g + 1):
            images[f"c{i}"] = f"b{g - i + 1}"
            images[f"d{i}"] = f"a{g - i + 1}"
            images[f"c{g + i}"] = f"a{i}"
            images[f"d{g + i}"] = f"b{i}"
    return GeneratorMap.from_dict(src, tgt, images)


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
