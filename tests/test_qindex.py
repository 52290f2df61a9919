import pytest
from hypothesis import given
from hypothesis import strategies as st

from qweyl.errors import RankMismatch
from qweyl.qindex import MultiIndex, star, theta, theta_exponent
from qweyl.qring import LaurentPoly, q_power
from qweyl.weylops import X

vectors = st.lists(st.integers(-5, 5), min_size=3, max_size=3).map(MultiIndex)


def test_star_examples():
    assert star(MultiIndex.unit(3, 2), MultiIndex((4, 5, 6))) == 4
    assert star(MultiIndex((7, -2, 3)), MultiIndex.zero(3)) == 0
    assert star(MultiIndex((1, 2)), MultiIndex((3, 4))) == 6


def test_star_unit_slices():
    beta = MultiIndex((4, 5, 6, 7))
    for i in range(1, 5):
        eps = MultiIndex.unit(4, i)
        assert star(eps, beta) == sum(beta[: i - 1])
        assert star(beta, eps) == sum(beta[i:])


def test_theta_examples():
    for i in range(1, 4):
        for j in range(1, 4):
            expected = 1 if i > j else (-1 if i < j else 0)
            got = theta(MultiIndex.unit(3, i), MultiIndex.unit(3, j))
            assert got == q_power(expected)
    a = MultiIndex((2, -1, 3))
    assert theta(a, a) == LaurentPoly.one()
    assert theta(MultiIndex((1, 2)), MultiIndex((3, 4))) == q_power(2)


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        star(MultiIndex((1, 2)), MultiIndex((1, 2, 3)))
    with pytest.raises(RankMismatch):
        MultiIndex((1, 2)) + MultiIndex((1,))


@given(vectors, vectors, vectors)
def test_star_biadditive(a, b, c):
    assert star(a + b, c) == star(a, c) + star(b, c)
    assert star(a, b + c) == star(a, b) + star(a, c)


@given(vectors, vectors, vectors)
def test_theta_bicharacter(a, b, c):
    assert theta(a + b, c) == theta(a, c) * theta(b, c)
    assert theta(a, b + c) == theta(a, b) * theta(a, c)
    assert theta(a, b) * theta(b, a) == LaurentPoly.one()
    assert theta(a, MultiIndex.zero(3)) == LaurentPoly.one()
    assert theta_exponent(a, b) == -theta_exponent(b, a)


def test_multiindex_ops():
    a = MultiIndex((1, 2, 0))
    assert a.degree() == 3
    assert a.is_nonneg()
    assert not (-a).is_nonneg()
    assert a.bump(3, 2) == MultiIndex((1, 2, 2))
    assert a.scaled(-1) == -a
    assert (a - a) == MultiIndex.zero(3)
    assert MultiIndex((0, 1)) < MultiIndex((1, 0))
    assert list(a) == [1, 2, 0]
    # a MultiIndex is the tuple of its entries: equal, same hash, same order
    assert MultiIndex((1, 2)) == (1, 2)
    assert hash(MultiIndex((1, 2))) == hash((1, 2))
    coerced = MultiIndex((1.0, 2))
    assert coerced == (1, 2) and all(type(v) is int for v in coerced)
    assert sorted([MultiIndex((1, 0)), MultiIndex((0, 2)), MultiIndex((0, 1))]) == [
        (0, 1), (0, 2), (1, 0)]
    assert MultiIndex((0, 5)) <= MultiIndex((1, 0)) and not a < a
    # + and - stay vector operations, not tuple concatenation
    assert MultiIndex((1, 2)) + MultiIndex((3, 4)) == MultiIndex((4, 6))
    assert isinstance(MultiIndex((1, 2)) + MultiIndex((3, 4)), MultiIndex)
    with pytest.raises(RankMismatch):
        MultiIndex((1, 2)) - MultiIndex((1, 2, 3))
    # operator letters are tuples of their fields too
    assert X(1) == ("X", 1, 0, ()) and hash(X(1)) == hash(tuple(X(1)))


def test_json_roundtrip():
    a = MultiIndex((1, 0, 2))
    assert a.to_json() == [1, 0, 2]
    assert MultiIndex.from_json([1, 0, 2]) == a
