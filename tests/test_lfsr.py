"""Register engine: polynomial parsing, stepping, cycle analysis, and
primitive-polynomial discovery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from dualpuf.errors import (
    InsufficientPrimitives,
    MalformedPolynomial,
    OrderTooLarge,
    ZeroSeed,
)
from dualpuf.lfsr import (
    LfsrSpec,
    classify,
    find_primitive,
    is_m_sequence,
    period,
    pick_lfsr_pair,
    step_array,
)
from dualpuf.obfuscator import DualLfsrSpec, check_external_challenge


def valid_specs(max_order=10):
    """Strategy over well-formed polynomials: unit low and high taps."""
    return st.integers(2, max_order).flatmap(
        lambda n: st.integers(0, (1 << (n - 1)) - 1).map(
            lambda mid: LfsrSpec(n, 1 | (mid << 1) | (1 << n))
        )
    )


# -- polynomial encoding -------------------------------------------------


def test_parse_equivalent_forms():
    expected = LfsrSpec(3, 0b1011)
    for text in ("0b1011", "0xb", "11", "x^3+x+1", "x^3 + x + 1", "1+x+x^3"):
        assert LfsrSpec.parse(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "x^3+x",      # no constant term
        "x^3+x^3+1",  # duplicate term
        "x^3+y+1",    # unknown symbol
        "0b1010",     # no constant term
        "4",          # 0b100, shift-only
        "0",          # empty mask
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(MalformedPolynomial):
        LfsrSpec.parse(text)


def test_spec_validation():
    with pytest.raises(MalformedPolynomial):
        LfsrSpec(1, 0b11)          # order below 2
    with pytest.raises(MalformedPolynomial):
        LfsrSpec(3, 0b111)         # top tap missing
    with pytest.raises(MalformedPolynomial):
        LfsrSpec(2, 0b1011)        # taps above the order
    with pytest.raises(MalformedPolynomial):
        LfsrSpec.from_mask(0)


@given(valid_specs())
def test_text_forms_round_trip(spec):
    assert LfsrSpec.parse(spec.poly_str()) == spec
    assert LfsrSpec.parse(spec.mask_str()) == spec
    assert spec.feed == spec.mask >> 1


def test_string_forms():
    spec = LfsrSpec(3, 0b1011)
    assert spec.poly_str() == "x^3+x+1"
    assert spec.mask_str() == "0b1011"
    assert str(spec) == "x^3+x+1 (0b1011)"


# -- stepping --------------------------------------------------------------


def test_seed_rejection():
    # a register is loaded only with a nonzero challenge that fits its order
    for bad in (0, 8, -1):
        with pytest.raises(ZeroSeed):
            check_external_challenge(bad, 3)


def test_known_seven_state_cycle():
    # all seven nonzero 3-bit states on one cycle, first shift 001 -> 101
    feed = np.int64(LfsrSpec(3, 0b1011).feed)
    state = np.int64(0b001)
    seen = []
    for _ in range(7):
        state = step_array(feed, state)
        seen.append(int(state))
    assert seen == [0b101, 0b111, 0b110, 0b011, 0b100, 0b010, 0b001]


@given(valid_specs())
def test_zero_is_a_fixed_point(spec):
    assert step_array(np.int64(spec.feed), np.int64(0)) == 0


@given(valid_specs(), st.lists(st.integers(0, 1023), min_size=1, max_size=32))
def test_step_array_matches_scalar(spec, raw):
    states = np.array([s % (1 << spec.order) for s in raw], dtype=np.int64)
    expected = np.array([reference.shift(spec.feed, int(s)) for s in states])
    assert np.array_equal(step_array(np.int64(spec.feed), states), expected)


def test_period_oracle():
    assert period(LfsrSpec(3, 0b1011), 1) == 7
    dense = LfsrSpec(3, 0b1111)
    assert period(dense, 1) == 4
    assert period(dense, 3) == 2
    assert period(dense, 5) == 1
    with pytest.raises(ZeroSeed):
        period(dense, 0)


# -- primitive discovery -----------------------------------------------------


def test_find_primitive_small_orders_exact():
    assert tuple(s.mask for s in find_primitive(3)) == (0b1011, 0b1101)
    assert tuple(s.mask for s in find_primitive(4)) == (0b10011, 0b11001)


def test_find_primitive_counts():
    for order, count in {3: 2, 4: 2, 5: 6, 6: 6, 7: 18, 8: 16}.items():
        assert len(find_primitive(order)) == count


def test_find_primitive_sorted_and_maximal():
    for order in range(3, 10):
        specs = find_primitive(order)
        masks = [s.mask for s in specs]
        assert masks == sorted(set(masks))
        assert all(s.order == order for s in specs)
        assert all(is_m_sequence(s) for s in specs)


def test_primitive_walk_visits_all_nonzero_states():
    # from seed 1 a primitive register walks one cycle through every
    # nonzero state before it returns
    for order in (3, 4, 5, 6):
        full = set(range(1, 1 << order))
        for spec in find_primitive(order):
            (cycle,) = classify(spec).useful
            assert cycle[0] == 1 and set(cycle) == full


def test_find_primitive_order_bounds():
    for bad in (1, 21):
        with pytest.raises(OrderTooLarge):
            find_primitive(bad)


def test_is_m_sequence():
    assert is_m_sequence(LfsrSpec(3, 0b1011))
    assert not is_m_sequence(LfsrSpec(3, 0b1111))


def test_period_check_order_cap():
    # the check walks the whole period, so it refuses orders above 24
    # instead of hanging, and so does a register pair built from them
    a, b = LfsrSpec(25, (1 << 25) | 0b1001), LfsrSpec(25, (1 << 25) | 0b11)
    with pytest.raises(OrderTooLarge):
        is_m_sequence(a)
    with pytest.raises(OrderTooLarge):
        DualLfsrSpec((a, b))


# -- classification ---------------------------------------------------------


def test_classify_dense_cubic_oracle():
    result = classify(LfsrSpec(3, 0b1111))
    assert result.useless == frozenset({0})
    assert result.useful == ((1, 7, 4, 2),)
    assert result.additional == ((3, 6), (5,))
    assert result.useful_count == 4
    assert result.additional_count == 3


def test_classify_primitive_has_no_leftover_cycles():
    result = classify(LfsrSpec(3, 0b1011))
    assert result.useless == frozenset({0})
    assert len(result.useful) == 1 and len(result.useful[0]) == 7
    assert result.additional == ()


@given(valid_specs(max_order=8))
def test_classify_is_a_partition(spec):
    result = classify(spec)
    total = len(result.useless) + result.useful_count + result.additional_count
    assert total == 1 << spec.order
    all_states = set(result.useless)
    for cycle in result.useful + result.additional:
        assert all_states.isdisjoint(cycle)
        all_states.update(cycle)
    assert all_states == set(range(1 << spec.order))
    assert classify(spec) == result  # deterministic


def test_same_order_primitives_share_useful_state_set():
    for order in (3, 4):
        nonzero = set(range(1, 1 << order))
        for spec in find_primitive(order):
            result = classify(spec)
            states = {s for cycle in result.useful for s in cycle}
            assert states == nonzero


def test_classify_order_cap():
    with pytest.raises(OrderTooLarge):
        classify(LfsrSpec(25, (1 << 25) | 1))


# -- pair selection ----------------------------------------------------------


def test_pick_lfsr_pair_enumeration():
    assert pick_lfsr_pair(3, 0) == (LfsrSpec(3, 0b1011), LfsrSpec(3, 0b1101))
    assert pick_lfsr_pair(3, 1) == (LfsrSpec(3, 0b1101), LfsrSpec(3, 0b1011))
    assert pick_lfsr_pair(3, 2) == pick_lfsr_pair(3, 0)  # wraps


def test_pick_lfsr_pair_properties():
    prims = set(find_primitive(5))
    seen = set()
    for idx in range(30):
        a, b = pick_lfsr_pair(5, idx)
        assert a != b and a in prims and b in prims
        seen.add((a, b))
    assert len(seen) == 30  # all ordered pairs of 6 primitives


def test_pick_lfsr_pair_needs_two_primitives():
    assert len(find_primitive(2)) == 1
    with pytest.raises(InsufficientPrimitives):
        pick_lfsr_pair(2, 0)
