"""Moment generators: values, poles, scaling, classical limits, parsing."""

from fractions import Fraction
from math import comb

import pytest

from hankelkit.errors import PoleInSequence
from hankelkit.field import as_field, q
from hankelkit.sequences import (
    CatalanSeq,
    CentralBinomialSeq,
    ExplicitSeq,
    PochRatioSeq,
    RisingRatioSeq,
    ScaledSeq,
    ShiftedSeq,
    andrews_q_catalan,
    parse_sequence_spec,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_catalan_terms():
    seq = CatalanSeq()
    assert [t.as_rational() for t in seq.terms_upto(8)] == CATALAN


def test_central_binomial_terms():
    assert [t.as_rational() for t in CentralBinomialSeq().terms_upto(4)] == [1, 2, 6, 20]


def test_rising_ratio_term():
    assert RisingRatioSeq(4, 1, 2).term(2).as_rational() == Fraction(1, 8)
    assert RisingRatioSeq(4, 1, 2).term(0) == 1


def test_poch_ratio_term():
    seq = PochRatioSeq(q ** 2, q, q ** 2)
    assert seq.term(0) == 1
    assert seq.term(1) == 1 / (1 + q)


def test_scaled_terms():
    seq = ScaledSeq(CatalanSeq(), 4)
    for n in range(8):
        assert seq.term(n).as_rational() == 4 ** n * CATALAN[n]
    base = CatalanSeq()
    x = (1 + q) / 2
    scaled = ScaledSeq(base, x)
    for n in range(11):
        assert scaled.term(n) == x ** n * base.term(n)


def test_shifted_terms():
    assert [t.as_rational() for t in ShiftedSeq(CatalanSeq(), 2).terms_upto(3)] == [2, 5, 14]


def test_explicit_exhaustion():
    seq = ExplicitSeq([1, 1, 2])
    assert seq.term(2).as_rational() == 2
    with pytest.raises(PoleInSequence):
        seq.term(3)


def test_pole_in_q_sequence():
    seq = PochRatioSeq(as_field(1), q, q)
    with pytest.raises(PoleInSequence) as err:
        seq.term(1)
    assert err.value.index == 1


def test_pole_in_classical_sequence():
    seq = RisingRatioSeq(-2, 1, 1)
    with pytest.raises(PoleInSequence):
        seq.term(4)  # a + 2c = 0 hits at the third factor


def test_classical_limit_bridge():
    qseq = andrews_q_catalan()
    useq = RisingRatioSeq(4, 1, 2)
    for n in range(11):
        assert qseq.term(n).specialize(1) == useq.term(n).as_rational()


def test_central_binomial_is_scaled_specialization():
    qseq = PochRatioSeq(q ** 2, q, q ** 2)
    for n in range(9):
        assert 4 ** n * qseq.term(n).specialize(1) == comb(2 * n, n)


def test_parse_sequence_specs():
    assert parse_sequence_spec("catalan").term(4).as_rational() == 14
    assert parse_sequence_spec("central-binomial").term(2).as_rational() == 6
    assert parse_sequence_spec("andrews").term(1) == (1 - q) / (1 - q ** 4)
    assert parse_sequence_spec("c:q^2,q,q^2").term(1) == 1 / (1 + q)
    assert parse_sequence_spec("u:4,1,2").term(2).as_rational() == Fraction(1, 8)
    assert parse_sequence_spec("shift:2:catalan").term(0).as_rational() == 2
    assert parse_sequence_spec("scale:4:catalan").term(2).as_rational() == 32
    assert parse_sequence_spec("explicit:1,1,2,5").term(3).as_rational() == 5
    assert parse_sequence_spec("scale:q:shift:1:catalan").term(1) == q * 2


@pytest.mark.parametrize("spec", [
    "catalan", "central-binomial", "andrews", "c:q^2,q,q^2", "c:1/2,-3/4,q",
    "u:4,1,2", "u:5/2,-1/3,3", "shift:2:catalan", "scale:q/(1+q):andrews",
    "explicit:1,1/2,q^2-1,1/(1-q)", "scale:-2:shift:1:c:q^3,q,q",
])
def test_spec_string_round_trip(spec):
    seq = parse_sequence_spec(spec)
    again = parse_sequence_spec(seq.spec_string())
    assert again.spec_string() == seq.spec_string()
    assert again.terms_upto(4) == seq.terms_upto(4)


def test_parse_sequence_spec_errors():
    with pytest.raises(ValueError):
        parse_sequence_spec("bogus")
    with pytest.raises(ValueError):
        parse_sequence_spec("c:q,q")
