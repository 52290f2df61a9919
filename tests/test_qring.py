import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qweyl.errors import InvalidArgs, NotDivisible
from qweyl.qring import (LaurentPoly, bar, eval_at_one, exact_div, q_binom,
                         q_fact, q_int, q_power)

from helpers import random_laurent

q = q_power(1)
qinv = q_power(-1)

laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                           max_size=5).map(LaurentPoly)


def test_add_examples():
    assert q + qinv == LaurentPoly({1: 1, -1: 1})
    p = LaurentPoly({3: 2, 0: -1})
    assert p + LaurentPoly.zero() == p
    assert (q - qinv) + (qinv - q) == LaurentPoly.zero()


def test_mul_examples():
    assert q * qinv == LaurentPoly.one()
    assert (q + qinv) * (q - qinv) == LaurentPoly({2: 1, -2: -1})
    assert LaurentPoly({5: 7}) * LaurentPoly.zero() == LaurentPoly.zero()


def test_pow():
    assert q_power(2) ** 3 == q_power(6)
    assert (q + qinv) ** 0 == LaurentPoly.one()
    assert q_power(2, -1) ** -3 == q_power(-6, -1)
    with pytest.raises(InvalidArgs):
        (q + qinv) ** -1


def test_exact_div_examples():
    assert exact_div(q_power(2) - q_power(-2), q - qinv) == q + qinv
    assert exact_div(LaurentPoly.zero(), q - qinv) == LaurentPoly.zero()
    with pytest.raises(NotDivisible):
        exact_div(q + LaurentPoly.one(), q - qinv)
    with pytest.raises(InvalidArgs):
        exact_div(q, LaurentPoly.zero())


def test_q_int():
    assert q_int(0) == LaurentPoly.zero()
    assert q_int(1) == LaurentPoly.one()
    assert q_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert q_int(-4) == -q_int(4)
    # [3] = (q^3 - q^-3)/(q - q^-1)
    assert q_int(3) == exact_div(q_power(3) - q_power(-3), q - qinv)


def test_q_int_recurrence():
    for m in range(1, 51):
        assert q_int(m) == q * q_int(m - 1) + q_power(1 - m)


def test_q_fact():
    assert q_fact(0) == LaurentPoly.one()
    assert q_fact(2) == q + qinv
    assert q_fact(3) == q_int(2) * q_int(3)
    with pytest.raises(InvalidArgs):
        q_fact(-1)


def test_q_binom_examples():
    for m in range(7):
        assert q_binom(m, 0) == LaurentPoly.one()
    assert q_binom(2, 1) == q + qinv
    assert q_binom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    with pytest.raises(InvalidArgs):
        q_binom(2, 3)


def test_q_binom_agrees_with_factorial_division():
    # Pascal route vs direct factorial division, plus positivity and the
    # classical specialization.
    for a in range(13):
        for b in range(a + 1):
            byfact = exact_div(q_fact(a), q_fact(b) * q_fact(a - b))
            assert q_binom(a, b) == byfact
            assert q_binom(a, b) * q_fact(b) * q_fact(a - b) == q_fact(a)
            assert all(c > 0 for c in q_binom(a, b).terms.values())
            assert eval_at_one(q_binom(a, b)) == math.comb(a, b)


def test_eval_at_one():
    assert eval_at_one(q + qinv) == 2
    for m in range(10):
        assert eval_at_one(q_int(m)) == m


def test_bar():
    assert bar(q_power(2)) == q_power(-2)
    for m in range(8):
        assert bar(q_int(m)) == q_int(m)
    p = LaurentPoly({3: 2, -1: 5, 0: -7})
    assert bar(bar(p)) == p


def test_exact_div_random_roundtrip():
    rng = random.Random(20240811)
    done = 0
    while done < 200:
        a = random_laurent(rng)
        b = random_laurent(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert exact_div(a * b, b) == a
        done += 1


@given(laurents, laurents)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(laurents, laurents, laurents)
def test_ring_associativity_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurents, laurents)
def test_bar_is_ring_automorphism(a, b):
    assert bar(a * b) == bar(a) * bar(b)
    assert bar(a + b) == bar(a) + bar(b)


@given(laurents)
def test_json_roundtrip(p):
    back = LaurentPoly.from_json(p.to_json())
    assert back == p
    assert hash(back) == hash(p)


def test_constants_hash_like_ints():
    for c in (3, -1, 0):
        p = LaurentPoly({0: c})
        assert p == c
        assert hash(p) == hash(c)
        assert c in {p}
        assert p in {c}
    assert LaurentPoly.zero() in {0}
    assert {LaurentPoly({0: 3}): "x"}[3] == "x"


def test_json_shape():
    p = LaurentPoly({2: 1, 0: 2, -2: 1})
    assert p.to_json() == {"2": 1, "0": 2, "-2": 1}


def test_str_forms():
    assert str(LaurentPoly.zero()) == "0"
    assert str(q_power(2) + 2 + q_power(-2)) == "q^2+2+q^-2"
    assert str(-q + 3) == "-q+3"
    assert str(q_power(-1, 2)) == "2q^-1"
