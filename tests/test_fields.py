from fractions import Fraction

import pytest

from hochcat.errors import BadFieldSpec
from hochcat.fields import GF2, GF5, QQ, FieldSpec, is_prime
from hochcat.matrix import _reciprocal


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
    # the elimination engine's pivot inverse, given the modulus
    assert GF5.add(3, 4) == 2
    assert GF5.mul(3, 4) == 2
    assert GF5.neg(2) == 3
    assert _reciprocal(3, 5) == 2
    assert GF5.scalar(-1) == 4


def test_rational_arithmetic():
    # over Q (no modulus) the inverse of an int is a Fraction, never a float
    third = _reciprocal(3, None)
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert QQ.mul(third, Fraction(3)) == QQ.one
    assert QQ.scalar(7) == Fraction(7)
    assert QQ.format_scalar(Fraction(-2, 7)) == "-2/7"


def test_gf2_negation_is_identity():
    assert GF2.neg(1) == 1
