from fractions import Fraction

import pytest

from hochcat.errors import BadFieldSpec
from hochcat.fields import GF2, GF5, QQ, FieldSpec, is_prime
from hochcat.matrix import _scalar_hooks


def test_parse_selectors():
    assert FieldSpec.parse("q") == FieldSpec(None)
    assert FieldSpec.parse("gf:2") == FieldSpec(2)
    assert FieldSpec.parse("GF:7") == FieldSpec(7)


@pytest.mark.parametrize("bad", ["gf:4", "gf:1", "gf:x", "f2", "gf:-3"])
def test_parse_rejects(bad):
    with pytest.raises(BadFieldSpec):
        FieldSpec.parse(bad)


def test_characteristics():
    assert GF5.p == 5 and GF5.is_prime_field
    assert QQ.p is None and not QQ.is_prime_field
    assert GF5.name == "gf:5" and QQ.name == "q"


def test_prime_check():
    primes = [2, 3, 5, 7, 11, 101, 2**31 - 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [0, 1, 4, 9, 91, 2**31 - 2])


def test_gf_arithmetic():
    # inverse and ``a - f*b`` are the elimination engine's own hooks
    inv, mul, sub = _scalar_hooks(GF5)
    assert GF5.add(3, 4) == 2
    assert sub(1, 1, 3) == 3
    assert GF5.mul(3, 4) == 2 == mul(3, 4)
    assert GF5.neg(2) == 3
    assert inv(3) == 2
    assert GF5.scalar(-1) == 4


def test_rational_arithmetic():
    inv, _mul, sub = _scalar_hooks(QQ)
    third = inv(Fraction(3))
    assert third == Fraction(1, 3)
    assert sub(Fraction(1), third, Fraction(3)) == QQ.zero
    assert QQ.mul(third, Fraction(3)) == QQ.one
    assert QQ.scalar(7) == Fraction(7)
    assert QQ.format_scalar(Fraction(-2, 7)) == "-2/7"


def test_gf2_negation_is_identity():
    assert GF2.neg(1) == 1
