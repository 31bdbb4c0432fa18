"""The immutable value classes RingSpec, PowerSumProblem, WeightPair and
BinaryForm: repr, equality, hashing, immutability, pickling (of
TruncatedPolynomial too) and construction checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from tvcount import BinaryForm, PowerSumProblem, RingSpec, WeightPair, beta_pushforward, validate


def test_repr_strings():
    assert repr(PowerSumProblem(m=2, n=3, a=3, b=2)) == "PowerSumProblem(m=2, n=3, a=3, b=2)"
    assert repr(RingSpec((2, 3, 3))) == "RingSpec(caps=(2, 3, 3))"
    assert repr(WeightPair(3, -1)) == "WeightPair(w1=-1, w2=3)"


def test_equality_and_hash():
    p = PowerSumProblem(m=2, n=3, a=3, b=2)
    assert p == PowerSumProblem(2, 3, 3, 2)
    assert p != PowerSumProblem(m=4, n=6, a=3, b=2)
    assert p != (2, 3, 3, 2)
    assert hash(p) == hash((2, 3, 3, 2))
    assert len({p, PowerSumProblem(2, 3, 3, 2), PowerSumProblem(3, 2, 2, 3)}) == 1

    spec = RingSpec((2, 3, 3))
    assert spec == RingSpec([2, 3, 3]) and spec != RingSpec((2, 3, 4))
    assert spec != (2, 3, 3)
    assert hash(spec) == hash(((2, 3, 3),))

    # a weight pair is unordered
    assert WeightPair(3, -1) == WeightPair(-1, 3)
    assert hash(WeightPair(3, -1)) == hash(WeightPair(-1, 3))
    assert WeightPair(3, -1) != WeightPair(3, 1)

    # a form's coefficients are read as Fractions, whatever type they came in
    forms = [BinaryForm(2, [1, "1/2", 3]), BinaryForm(2, ["1", Fraction(1, 2), "3"]), BinaryForm(2, [Fraction(1), "2/4", 3])]
    assert forms[0] == forms[1] == forms[2]
    assert hash(forms[0]) == hash(forms[1]) == hash(forms[2])
    assert len(set(forms)) == 1
    assert forms[0] != BinaryForm(3, [0, 1, "1/2", 3]) and forms[0] != (2, (1, Fraction(1, 2), 3))


def test_weight_pair_is_stored_in_order():
    # given swapped, it is kept as (smaller, larger), and so loads that way
    pair = WeightPair(3, -1)
    assert (pair.w1, pair.w2) == (-1, 3)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(pair, protocol))
        assert (back.w1, back.w2) == (-1, 3) and back == WeightPair(-1, 3)
    # both values pass the integer gate before they are ordered
    assert WeightPair(3.0, -1) == pair and type(WeightPair(3.0, -1).w2) is int


@pytest.mark.parametrize(
    "value, field",
    [
        (PowerSumProblem(m=2, n=3, a=3, b=2), "m"),
        (RingSpec((1, 2)), "caps"),
        (WeightPair(1, 2), "w1"),
        (BinaryForm(2, [1, "1/2", 3]), "degree"),
    ],
)
def test_fields_are_read_only(value, field):
    before = repr(value)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 7)
    with pytest.raises(AttributeError):
        value.new_attribute = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize(
    "value",
    # the problem is given swapped: unpickling reads the normalized fields
    [
        PowerSumProblem(m=6, n=4, a=2, b=3),
        RingSpec((4, 6, 8)),
        WeightPair(-5, 2),
        BinaryForm(2, [1, "1/2", 3]),
        beta_pushforward(4, 6),
    ],
)
def test_pickle_and_copy_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and repr(back) == repr(value)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


def test_ring_spec_coerces_caps():
    spec = RingSpec([1.0, 2])
    assert spec.caps == (1, 2)
    assert all(type(c) is int for c in spec.caps)
    with pytest.raises(ValueError, match="at least one variable"):
        RingSpec(())
    with pytest.raises(ValueError, match="nonnegative"):
        RingSpec((2, -1))


def test_problem_construction_errors():
    with pytest.raises(ValueError, match="am != bn"):
        PowerSumProblem(m=2, n=3, a=2, b=3)
    # checked after the swap, so the message shows the normalized problem
    with pytest.raises(ValueError, match="^am != bn: 3\\*2 = 6 but 3\\*3 = 9$"):
        PowerSumProblem(m=3, n=2, a=3, b=3)
    with pytest.raises(ValueError, match="unsupported gcd"):
        PowerSumProblem(m=3, n=6, a=2, b=1)
    # d is derived, never given
    with pytest.raises(TypeError):
        PowerSumProblem(m=2, n=3, a=3, b=2, d=6)
    with pytest.raises(TypeError):
        PowerSumProblem(m=2, n=3, a=3)


def test_problem_is_read_and_normalized_in_one_place():
    assert PowerSumProblem.__slots__ == ("m", "n", "a", "b")
    swapped = PowerSumProblem(6, 4, 2, 3)
    assert swapped == PowerSumProblem(4, 6, 3, 2) == validate(6, 4, 2, 3)
    assert (swapped.m, swapped.n, swapped.a, swapped.b, swapped.d) == (4, 6, 3, 2, 12)
    assert type(swapped.d) is int and isinstance(PowerSumProblem.d, property)
    assert (PowerSumProblem(1, 1, 5, 5).d, PowerSumProblem(1, 2, 2, 1).d) == (5, 2)
