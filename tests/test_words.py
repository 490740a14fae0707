import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specgap.errors import InputError
from specgap.words import (Alphabet, GeneratorMap, Presentation, Word,
                           ball_count, commutator, enumerate_ball,
                           free_part_alphabet, full_alphabet,
                           in_index_two_core, reduce, retraction_to_free_part,
                           sandwich_map, standard_presentation,
                           surface_alphabet, transport, word)

AB = Alphabet(("a1", "b1"))
ABC = Alphabet(("a1", "b1", "c1"))


def letters(rank, max_len=24):
    return st.lists(
        st.tuples(st.integers(0, rank - 1), st.sampled_from([1, -1])),
        max_size=max_len)


def brute_ball(alphabet, radius):
    """Independent enumeration: all raw strings, reduced, deduplicated."""
    symbols = alphabet.symbols()
    seen = set()
    for length in range(radius + 1):
        for raw in itertools.product(symbols, repeat=length):
            w = reduce(alphabet, list(raw))
            if len(w) <= radius:
                seen.add(w.letters)
    return seen


class TestReduce:
    def test_cancellation(self):
        assert word(AB, "a1 a1^-1").letters == ()

    def test_inner_cancellation(self):
        assert str(word(AB, "a1 b1 b1^-1 a1")) == "a1 a1"

    def test_already_reduced(self):
        w = word(AB, "a1 b1 a1^-1 b1^-1")
        assert len(w) == 4 and str(w) == "a1 b1 a1^-1 b1^-1"

    def test_unknown_label(self):
        with pytest.raises(InputError):
            word(AB, "z9")

    def test_bad_letters(self):
        with pytest.raises(InputError):
            reduce(AB, [(5, 1)])
        with pytest.raises(InputError):
            reduce(AB, [(0, 2)])

    @given(letters(2))
    def test_idempotent_and_nonincreasing(self, raw):
        w = reduce(AB, raw)
        assert reduce(AB, w.letters).letters == w.letters
        assert len(w) <= len(raw)

    @given(letters(3, max_len=12))
    def test_word_times_inverse_is_identity(self, raw):
        w = reduce(ABC, raw)
        assert (w * w.inverse()).letters == ()

    @given(letters(2, max_len=10), letters(2, max_len=10))
    def test_product_reduces_concatenation(self, r1, r2):
        u, v = reduce(AB, r1), reduce(AB, r2)
        assert (u * v).letters == reduce(AB, list(r1) + list(r2)).letters


class TestEnumerateBall:
    def test_rank2_radius1(self):
        ws = [str(w) for w in enumerate_ball(AB, 1)]
        assert ws == ["e", "a1", "a1^-1", "b1", "b1^-1"]

    def test_rank2_radius2_against_brute_force(self):
        got = [w.letters for w in enumerate_ball(AB, 2)]
        assert len(got) == 17
        assert set(got) == brute_ball(AB, 2)

    def test_rank3_radius2_against_brute_force_and_formula(self):
        got = [w.letters for w in enumerate_ball(ABC, 2)]
        assert set(got) == brute_ball(ABC, 2)
        assert len(got) == ball_count(3, 2) == len(set(got))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4, 5, 6])
    def test_counts_match_closed_form(self, rank, radius):
        alphabet = Alphabet(tuple(f"g{i}" for i in range(rank)))
        assert sum(1 for _ in enumerate_ball(alphabet, radius)) == \
            ball_count(rank, radius)

    def test_no_duplicates_and_shortlex_sorted(self):
        ws = list(enumerate_ball(ABC, 4))
        keys = [w.shortlex_key() for w in ws]
        assert keys == sorted(keys)
        assert len(set(w.letters for w in ws)) == len(ws)

    def test_negative_radius(self):
        with pytest.raises(InputError):
            list(enumerate_ball(AB, -1))


class TestCommutator:
    def test_self_commutator(self):
        a = word(AB, "a1")
        assert commutator(a, a).letters == ()

    def test_free_generators(self):
        assert str(commutator(word(AB, "a1"), word(AB, "b1"))) == \
            "a1 b1 a1^-1 b1^-1"

    def test_hand_reduction(self):
        # (a1 b1) b1 (a1 b1)^-1 b1^-1 reduces to the plain commutator
        got = commutator(word(AB, "a1 b1"), word(AB, "b1"))
        assert got == word(AB, "a1 b1 a1^-1 b1^-1")


class TestIndexTwoCore:
    def test_commutators_die(self):
        p = Presentation.free(AB)
        assert in_index_two_core(commutator(word(AB, "a1"), word(AB, "b1")), p)

    def test_commutator_times_square(self):
        p = Presentation.free(AB)
        w = commutator(word(AB, "a1 b1"), word(AB, "b1")) * word(AB, "a1^2")
        assert in_index_two_core(w, p)

    def test_single_generator_fails(self):
        assert not in_index_two_core(word(AB, "a1"), Presentation.free(AB))

    def test_relators_enlarge_the_core(self):
        p = Presentation(AB, (word(AB, "a1 b1"),))
        assert in_index_two_core(word(AB, "a1 b1"), p)
        assert in_index_two_core(word(AB, "a1 b1^-1"), p)
        assert not in_index_two_core(word(AB, "a1"), p)

    @given(st.lists(letters(2, max_len=6), min_size=1, max_size=4))
    def test_products_of_squares_and_commutators(self, raws):
        p = Presentation.free(AB)
        acc = Word.identity(AB)
        for k, raw in enumerate(raws):
            w = reduce(AB, raw)
            acc = acc * (w * w if k % 2 == 0 else
                         commutator(w, word(AB, "b1")))
        assert in_index_two_core(acc, p)

    def test_thousand_randomized_square_commutator_products(self):
        import random
        rng = random.Random(99)
        p = Presentation.free(ABC)
        symbols = ABC.symbols()

        def rand_word():
            raw = [symbols[rng.randrange(len(symbols))]
                   for _ in range(rng.randint(1, 6))]
            return reduce(ABC, raw)

        for _ in range(1000):
            acc = Word.identity(ABC)
            for _ in range(rng.randint(1, 3)):
                w = rand_word()
                acc = acc * (w * w if rng.random() < 0.5
                             else commutator(w, rand_word()))
            assert in_index_two_core(acc, p)

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            in_index_two_core(word(ABC, "c1"), Presentation.free(AB))


class TestGeneratorMap:
    def test_identity_on_empty_word(self):
        m = GeneratorMap.identity(AB)
        assert m.apply(Word.identity(AB)).letters == ()

    def test_sandwich_images(self):
        generic = Alphabet(("a", "b"))
        m = sandwich_map(generic, 2)
        assert str(m.image("a")) == "b b a b b"
        assert len(m.apply(word(generic, "a"))) == 5

    @given(letters(2, max_len=8), letters(2, max_len=8))
    def test_multiplicative(self, r1, r2):
        m = sandwich_map(Alphabet(("a1", "b1")), 3)
        u, v = reduce(AB, r1), reduce(AB, r2)
        assert m.apply(u * v) == m.apply(u) * m.apply(v)

    def test_retraction_fixes_the_free_part(self):
        for g in (1, 2):
            r = retraction_to_free_part(g)
            free = free_part_alphabet(g)
            for name in free.names:
                assert str(r.image(name)) == name

    def test_retraction_is_idempotent_exhaustive(self):
        r = retraction_to_free_part(1, source="surface")
        delta = surface_alphabet(1)
        for w in enumerate_ball(delta, 4):
            once = r.apply(w)
            assert r.apply(transport(once, delta)) == once

    def test_retraction_is_idempotent_sampled_g2(self):
        import random
        rng = random.Random(11)
        r = retraction_to_free_part(2, source="surface")
        delta = surface_alphabet(2)
        symbols = delta.symbols()
        for _ in range(500):
            raw = []
            for _ in range(rng.randint(5, 8)):
                raw.append(symbols[rng.randrange(len(symbols))])
            w = reduce(delta, raw)
            once = r.apply(w)
            assert r.apply(transport(once, delta)) == once

    def test_standard_relators_die_under_retraction(self):
        for g in (1, 2):
            p = standard_presentation(g)
            r = retraction_to_free_part(g)
            for rel in p.relators:
                assert r.apply(rel).letters == ()

    def test_missing_image_rejected(self):
        with pytest.raises(InputError):
            GeneratorMap.from_dict(AB, AB, {"a1": "a1"})


class TestWordBasics:
    def test_lengths(self):
        assert len(Word.identity(AB)) == 0
        assert len(word(AB, "a1 b1 a1^-1 b1^-1")) == 4

    def test_parse_exponents(self):
        assert str(word(AB, "a1^3 b1^-2")) == "a1 a1 a1 b1^-1 b1^-1"

    def test_str_parse_roundtrip(self):
        w = word(AB, "a1 b1^-1 a1 a1")
        assert Word.parse(AB, str(w)) == w

    def test_power(self):
        w = word(AB, "a1 b1")
        assert (w ** 3).letters == reduce(AB, list(w.letters) * 3).letters
        assert (w ** -1) == w.inverse()
        assert (w ** 0).letters == ()

    def test_cyclic_reduction(self):
        # a1 b1 a1 b1^-1 a1^-1 is the conjugate of a1 by a1 b1
        w = word(AB, "a1 b1 a1 b1^-1 a1^-1")
        assert str(w.cyclic_reduction()) == "a1"
        assert str(word(AB, "b1 a1 b1").cyclic_reduction()) == "b1 a1 b1"

    def test_exponent_sums(self):
        assert word(AB, "a1 b1 a1 b1^-1").exponent_sums() == (2, 0)


class TestPresentation:
    def test_roundtrip(self):
        p = standard_presentation(1)
        doc = json.loads(json.dumps(p.to_json()))
        q = Presentation.from_json(doc)
        assert q.alphabet.names == p.alphabet.names
        assert [str(r) for r in q.relators] == [str(r) for r in p.relators]

    @pytest.mark.parametrize("doc", [
        {"generators": "ab", "relators": "ab"},  # once read as a, b and a, b
        {"generators": "ab", "relators": []},
        {"generators": ["a", "b"], "relators": "ab"},
        {"generators": [["a"]], "relators": []},
        {"generators": ["a", "b"], "relators": [5]},
        ["a", "b"]])
    def test_from_json_refuses_what_is_not_a_list_of_labels_or_words(self, doc):
        with pytest.raises(InputError):
            Presentation.from_json(doc)

    def test_standard_alphabet_layout(self):
        assert full_alphabet(1).names == \
            ("a1", "b1", "a2", "b2", "c1", "d1", "c2", "d2")
        assert free_part_alphabet(2).names == ("a1", "b1", "a2", "b2")

    def test_relator_alphabet_checked(self):
        with pytest.raises(InputError):
            Presentation(AB, (word(ABC, "c1"),))
