"""Brute-force tests of the benchmark's reference computations.

    python3 -m pytest bench/test_reference.py -q
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402


def reduced_words(rank: int, radius: int):
    """Every reduced word of length 1..radius, by filtering all words."""
    symbols = [(g, s) for g in range(rank) for s in (1, -1)]
    for length in range(1, radius + 1):
        for letters in itertools.product(symbols, repeat=length):
            if all(a != (b[0], -b[1]) for a, b in zip(letters, letters[1:])):
                yield list(letters)


def rep_doc(images):
    names = [f"g{k}" for k in range(len(images))]
    return {"alphabet": names,
            "images": {n: np.asarray(m).tolist() for n, m in zip(names, images)}}


def sl2(rng, scale=1.0):
    m = rng.normal(size=(2, 2)) * scale
    det = np.linalg.det(m)
    if det < 0:
        m[0] = -m[0]
    return m / math.sqrt(abs(det))


@pytest.mark.parametrize("rank,radius", [(1, 5), (2, 0), (2, 1), (2, 4), (3, 3)])
def test_ball_count_matches_enumeration(rank, radius):
    assert ref.ball_count(rank, radius) == 1 + sum(1 for _ in reduced_words(rank, radius))


def test_strict_json_rejects_non_standard_tokens():
    assert ref.strict_json_loads('{"a": [1.5, null]}') == {"a": [1.5, None]}
    for token in ("Infinity", "-Infinity", "NaN"):
        with pytest.raises(ValueError):
            ref.strict_json_loads(f'{{"a": {token}}}')


def test_parse_word_reduces_and_cyclic_reduce_strips_conjugation():
    names = ["a", "b"]
    assert ref.parse_word(names, "a b^2 b^-1 a^-1 b") == [(0, 1), (1, 1), (0, -1), (1, 1)]
    assert ref.parse_word(names, "a b b^-1 a^-1") == []
    assert ref.cyclic_reduce([(1, 1), (0, 1), (0, 1), (1, -1)]) == [(0, 1), (0, 1)]


def test_sl2_identity_matches_svd():
    rng = np.random.default_rng(3)
    batch = np.array([sl2(rng, 3.0) for _ in range(200)])
    sv = np.linalg.svd(batch, compute_uv=False)
    assert np.allclose(ref.sl2_log_ratio(batch), np.log(sv[:, 0] / sv[:, 1]),
                       rtol=1e-10, atol=1e-12)


def test_sl2_identity_stays_finite_where_svd_saturates():
    import mpmath
    mpmath.mp.dps = 60
    a = np.diag([4.0, 0.25])
    r = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    m = np.linalg.matrix_power(r @ a @ r.T, 14)
    # the exact value: 2 log of the largest singular value of the product
    exact = float(2 * mpmath.log(max(mpmath.svd_r(mpmath.matrix(m.tolist()),
                                                  compute_uv=False))))
    value = float(ref.sl2_log_ratio(m[None])[0])
    assert math.isfinite(value) and value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("dim,rank,radius,stat", [
    (3, 2, 4, "gap1"), (3, 2, 3, "gap2"), (2, 2, 5, "sl2")])
def test_ball_extrema_match_word_by_word(dim, rank, radius, stat):
    rng = np.random.default_rng(dim + radius)
    if stat == "sl2":
        images = [sl2(rng) for _ in range(rank)]
        fn = ref.sl2_log_ratio
    else:
        images = [np.eye(dim) + 0.4 * rng.normal(size=(dim, dim))
                  for _ in range(rank)]
        fn = ref.gap_statistic(int(stat[-1]))
    rep = ref.Rep(rep_doc(images))
    expected: dict[int, list[float]] = {}
    for letters in reduced_words(rank, radius):
        m = np.eye(dim)
        for g, s in letters:
            m = m @ (images[g] if s > 0 else np.linalg.inv(images[g]))
        expected.setdefault(len(letters), []).append(float(fn(m[None])[0]))
    # a tiny chunk forces the chunked path
    extrema, count = ref.ball_extrema(rep, radius, fn, chunk=16)
    assert count == ref.ball_count(rank, radius) - 1
    for length, values in expected.items():
        assert extrema[length] == pytest.approx((min(values), max(values)),
                                                rel=1e-12, abs=1e-12)


def brute_exterior(eigs, i, tol):
    prods = [complex(np.prod(s)) for s in itertools.combinations(eigs, i)]
    top = max(abs(p) for p in prods)
    cluster = [p for p in prods if abs(p) >= (1 - tol) * top]
    positive = any(abs(p.imag) <= tol * abs(p) and p.real > 0 for p in cluster)
    return top, len(cluster), positive


@pytest.mark.parametrize("eigs", [
    [5.0, 3.0, 2.0, 1.0, 0.5],
    [-3.0, 3.0, 3.0, -3.0, 1.0, 0.2],
    [2.0, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0, 0.1],
    [4.0, 2j, -2j, 2.0, -2.0, 0.5],
    [-4.0, 1 + 1j, 1 - 1j, -math.sqrt(2), 0.3],
    [3.0, -1.5, -1.5, -1.5, 1.5, 0.7, -0.7],
])
def test_exterior_top_matches_subset_enumeration(eigs):
    tol = 1e-6
    for i in range(1, len(eigs) + 1):
        top, mult, positive = ref.exterior_top(eigs, i, tol)
        b_top, b_mult, b_positive = brute_exterior(eigs, i, tol)
        assert top == pytest.approx(b_top, rel=1e-12)
        assert mult == b_mult
        assert positive is None or positive == b_positive


def test_exterior_top_counts_a_cluster_past_any_enumeration_cap():
    # diag(2, -2 x 24) at index 10: all C(25, 10) products have modulus
    # 1024, and the C(24, 10) that leave out the 2 equal +1024
    top, mult, positive = ref.exterior_top([2.0] + [-2.0] * 24, 10)
    assert (top, mult, positive) == (1024.0, math.comb(25, 10), True)


def test_exterior_top_from_matrix_eigenvalues_matches_dense_minors():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(6, 6))
    eigs = np.linalg.eigvals(m)
    for i in (2, 3):
        subsets = list(itertools.combinations(range(6), i))
        minors = np.array([[np.linalg.det(m[np.ix_(r, c)]) for c in subsets]
                           for r in subsets])
        dense = np.linalg.eigvals(minors)
        top, mult, _ = ref.exterior_top(eigs, i)
        assert top == pytest.approx(np.max(np.abs(dense)), rel=1e-9)


def test_attracting_line_of_a_tensor_product_is_a_pure_tensor():
    rng = np.random.default_rng(11)
    a = np.diag([3.0, 1.0, 1 / 3.0])
    b = np.diag([2.0, 0.5])
    qa, qb = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
    ma = qa @ a @ np.linalg.inv(qa)
    mb = qb @ b @ np.linalg.inv(qb)
    vals, vecs = np.linalg.eig(np.kron(ma, mb))
    v = np.real(vecs[:, np.argmax(np.abs(vals))])
    assert ref.rank_defect(v, 3, 2) < 1e-6
    # brute force: the line is spanned by the tensor of the factors' lines
    pure = np.kron(qa[:, 0], qb[:, 0])
    pure /= np.linalg.norm(pure)
    assert abs(abs(v @ pure) - np.linalg.norm(v)) < 1e-9
    # a generic vector is far from rank one
    assert ref.rank_defect(rng.normal(size=6), 3, 2) > 1e-3


def test_rep_digest_is_the_sha256_of_the_raveled_images():
    import hashlib
    images = [np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]])]
    rep = ref.Rep(rep_doc(images))
    data = np.concatenate([m.ravel() for m in images]).tobytes()
    assert rep.digest() == hashlib.sha256(data).hexdigest()[:16]
