"""Register engine: polynomial parsing, stepping, cycle analysis, and
primitive-polynomial discovery."""

import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from reference import period
from dualpuf import lfsr
from dualpuf.device import default_lane_pairs
from dualpuf.errors import (
    InsufficientPrimitives,
    InvalidParameter,
    MalformedPolynomial,
    OrderTooLarge,
    ZeroSeed,
)
from dualpuf.lfsr import (
    LfsrSpec,
    _is_prime,
    _mersenne_factors,
    classify,
    find_primitive,
    is_m_sequence,
    step_array,
)
from dualpuf.obfuscator import DualLfsrSpec, check_external_challenge


def valid_specs(max_order=10, min_order=2):
    """Strategy over well-formed polynomials: unit low and high taps."""
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.integers(0, (1 << (n - 1)) - 1).map(
            lambda mid: LfsrSpec(n, 1 | (mid << 1) | (1 << n))
        )
    )


# -- polynomial encoding -------------------------------------------------


def test_parse_equivalent_forms():
    expected = LfsrSpec(3, 0b1011)
    for text in ("0b1011", "0xb", "11", "x^3+x+1", "x^3 + x + 1", "1+x+x^3"):
        assert LfsrSpec.parse(text) == expected


MALFORMED = {
    "x^3+x": MalformedPolynomial,      # no constant term
    "x^3+x^3+1": MalformedPolynomial,  # duplicate term
    "x^3+y+1": MalformedPolynomial,    # unknown symbol
    "0b1010": MalformedPolynomial,     # no constant term
    "4": MalformedPolynomial,          # 0b100, shift-only
    "0": MalformedPolynomial,          # empty mask
    "zz": MalformedPolynomial,         # no integer literal
    "0x": MalformedPolynomial,         # prefix without digits
    "0b102": MalformedPolynomial,      # digit outside the base
    # wider than any register a command accepts, refused before the mask
    # is formed: 1 << 99999999999999 would exhaust memory
    "x^99999999999999+1": OrderTooLarge,
    "x^63+x+1": OrderTooLarge,
    "0x8000000000000003": OrderTooLarge,
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed(text):
    with pytest.raises(MALFORMED[text]):
        LfsrSpec.parse(text)


def test_parse_bounds_the_widest_register():
    assert LfsrSpec.parse("x^62+x^6+x^5+x^3+1").order == 62
    assert LfsrSpec.parse("x^062+1") == LfsrSpec(62, 1 | 1 << 62)
    for text in ("x^" + "9" * 5000 + "+1", "0x" + "f" * 5000):
        with pytest.raises(OrderTooLarge):
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
    with pytest.raises(InvalidParameter):
        find_primitive(5, -1)


def test_find_primitive_prefix():
    # a prefix is the full list cut short, whatever block it ends in
    for order in range(2, 17):
        prims = find_primitive(order)
        for count in {0, 1, 2, 65, len(prims) - 1, len(prims), len(prims) + 1}:
            assert find_primitive(order, count) == prims[:count]
    for count in (2, 65, 5000):  # 5000 spans several blocks
        assert find_primitive(20, count) == find_primitive(20)[:count]


def test_is_m_sequence():
    assert is_m_sequence(LfsrSpec(3, 0b1011))
    assert not is_m_sequence(LfsrSpec(3, 0b1111))


def test_period_check_order_cap():
    # 62 is the widest register run_rounds' int64 arithmetic holds, so the
    # check refuses order 63, and so does a register pair built from it
    wide = (LfsrSpec.from_mask(0x4000000000000069), LfsrSpec.from_mask(0x40000000000000AF))
    assert all(is_m_sequence(spec) for spec in wide)
    DualLfsrSpec(wide)
    a, b = LfsrSpec(63, (1 << 63) | 0b11), LfsrSpec(63, (1 << 63) | 0b1001)
    with pytest.raises(OrderTooLarge):
        is_m_sequence(a)
    with pytest.raises(OrderTooLarge):
        DualLfsrSpec((a, b))


# -- the algebraic test against the period walk ------------------------------

#: sha256 of the space-separated decimal masks the period walk found for
#: each order; pins find_primitive, and with it every default_lane_pairs result
WALK_DIGESTS = {
    2: "7902699be42c8a8e46fbbb4501726517e86b22c56a189f7625a6da49081b2451",
    3: "7607bf4a316a91426c8fa4ae5fd2e050ac54c19ae5d001f3a625dee04647a6f8",
    4: "35884a02ead8325719a1c3dd21172643247b83dbc40ce83586a98c6396c62ec3",
    5: "1d284a49271cd20b53d91848c2ffc0ff26d591cf30f6fd87de59ddd6b8f82338",
    6: "47ab37e6e2e69f44ddeec03ba316e97971ba4898713a564f647b33447cd4d26d",
    7: "ecee80dfbc1e7cda9559007c3990f97844b74a501aad9552eae27a0f83ca95c4",
    8: "4819f475bad7f662bf6f094c908722c1fcf8a5291694df17cb392bf3ec1ea9c6",
    9: "8381ede81f51cf39f665106fa9b9a489aa952bb1cfdc1a540058840d66cbc2c0",
    10: "f6fa4abec8a06ec88c36987a26ce111c3017b7f5bb03784bb41155c186242c04",
    11: "881234a80d79aed86f6f4d13801816e4766a8a4f5db77987718cdf38b63dc6c4",
    12: "782703cd2e9aa4b4e69e5ce9a5ca771e060900c0eae8c6311c9b2c72e24173f6",
    13: "9d6e801aec18288a63f15ea37006f930f069ae3b5c5271d741fb639cf6c36408",
    14: "d1026190d5723e6b40e1e4d8ce5d979c23afa1d65acc7896d3c660a4013af8fd",
    15: "8c08c3b0f78599fc88b913d7e413bbe8acbdf3cfea81bc256f23eaf9dd7a6407",
    16: "9d0c457fad30f807a65f5cb5f48931646e3d8e85beaa58f42f105e6c72cb7565",
}


#: the same digest of the masks find_primitive listed at orders beyond the
#: walk's reach, taken before the search moved to linear squaring in blocks
SEARCH_DIGESTS = {
    17: "bcbf4916de61b6f336c62132d19a609fe7836c8592e859110c6e22dc718e9c13",
    18: "3f4c441924abbc7aa9719b30322e9404a9027eef7e972a24b70b6ec57fd7fd8e",
    19: "e82f69030ca7d88c9a4c29bc90ec7d9b28ea22b8fc20f191bab7e441b6e145bc",
    20: "739cadfb998ab58747398de69d80b7fd115ee4a10486eea74e5ef15131fe7f30",
}

#: sha256 of the space-separated ``first:second`` masks of
#: default_lane_pairs(order, k), taken when every pair was picked from the
#: full primitive list: k = 256 (indices 0..255) up to order 16, k = 64 at 20
PAIR_DIGESTS = {
    (3, 256): "ef7978e12076390cee122d2644b4c5e521742b392a6f37983c5cec9047a6baad",
    (4, 256): "d144689bdab43caaf587bf86e948adc506bcff54c306283fd179b0ea46ac3a28",
    (5, 256): "2f908e26b13314591e9feee1dd9f92d05551131aed7e366834f2037ef9cf5b6b",
    (6, 256): "47273dcb844ab1d4d967c23305e563a92b91bb09648a8f9e90ec442889250e6e",
    (7, 256): "a811f06a100193801bbb1e7bbee26389f0342bf54934956892b9ec7b51bdf57b",
    (8, 256): "a0eb685047ca777d17da05f5418886c7f2acaf5a62d8f26f91b958ac2333570b",
    (9, 256): "b4f0f032f12d94c6d48a584650eb88be51ce8c1b18ff0ea829e02ed565e2bcb2",
    (10, 256): "7eebe2bf71d8b64deed5f4d8f2ac81ca00d03a0aae2727ef4a8ed0c586109be9",
    (11, 256): "416286650ce3e9fea6b454bacdd09162013a57d5b7bb9fed7c099dc23adb8bba",
    (12, 256): "af9e923396dc808094d719975c2591fe00d8bffe03277e514fbbb7f07c30dc3c",
    (13, 256): "9fe3ef19cfc0c2c296bac81e416d0d83c61c25a9550fe70affbcb6e8f7130efb",
    (14, 256): "f3b995ee04f214a89f17f62a410b69217dbb90a3de4de9b81823b338cc7c3f04",
    (15, 256): "8eb4c64bb99d53cb913047a26add81608a37e0355cfcd554b3825ac1c2f23c3d",
    (16, 256): "730e873770cf57c71d9545c78367e9117a7ab761ed98fe3482b2701a3a04b978",
    (20, 64): "1459059db9e1c96a3abf83922eb2e5713f0b4bc806c24b8605ad33c9ebef737d",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_find_primitive_matches_the_walk():
    for order, digest in WALK_DIGESTS.items():
        assert sha256(" ".join(str(spec.mask) for spec in find_primitive(order))) == digest


def test_find_primitive_beyond_the_walk():
    for order, digest in SEARCH_DIGESTS.items():
        assert sha256(" ".join(str(spec.mask) for spec in find_primitive(order))) == digest


def test_default_lane_pairs_are_pinned():
    for (order, k), digest in PAIR_DIGESTS.items():
        pairs = default_lane_pairs(order, k)
        assert sha256(" ".join(f"{a.mask}:{b.mask}" for a, b in (p.pair for p in pairs))) == digest


def test_provisioning_searches_no_cached_work(monkeypatch):
    # perfbench clears only these two caches before each set-up, so a cold
    # provisioning must redo all of its powers of x after that clear; a
    # memo elsewhere would make a second set-up look cheaper than the first
    x_power, calls = lfsr._x_power, []

    def counted(exponent, mask, order):
        calls.append(exponent)
        return x_power(exponent, mask, order)

    monkeypatch.setattr(lfsr, "_x_power", counted)
    counts = []
    for _ in range(2):
        find_primitive.cache_clear()
        is_m_sequence.cache_clear()
        default_lane_pairs(16, 64)
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] > 0


@given(st.integers(2, 62).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, (1 << n - 1) - 1), st.integers(0, 1 << n)
)))
def test_x_power_matches_the_bit_serial_product(case):
    order, mid, exponent = case
    mask = 1 | mid << 1 | 1 << order
    assert lfsr._x_power(exponent, mask, order) == reference.x_power(exponent, mask, order)


@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n - 1) - 1), min_size=1, max_size=16),
    st.integers(0, 1 << n),
)))
def test_x_power_matches_the_bit_serial_product_on_arrays(case):
    order, mids, exponent = case
    masks = 1 | np.array(mids, dtype=np.int64) << 1 | 1 << order
    got = lfsr._x_power(exponent, masks, order)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference.x_power(exponent, masks, order))


def test_is_m_sequence_matches_the_walk_exhaustively():
    for order in range(2, 11):
        for mid in range(1 << order - 1):
            spec = LfsrSpec(order, 1 | mid << 1 | 1 << order)
            assert is_m_sequence(spec) == (period(spec, 1) == (1 << order) - 1)


@given(valid_specs(max_order=14, min_order=11))
def test_is_m_sequence_matches_the_walk(spec):
    assert is_m_sequence(spec) == (period(spec, 1) == (1 << spec.order) - 1)


def test_mersenne_factors():
    for order in range(2, 63):
        primes = _mersenne_factors(order)
        assert list(primes) == sorted(primes)
        assert math.prod(primes) == (1 << order) - 1
        assert all(_is_prime(p) for p in primes)
    assert _mersenne_factors(61) == (2**61 - 1,)
    assert _mersenne_factors(62) == (3, 715827883, 2147483647)


def test_is_prime():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(2000) if _is_prime(n)] == [n for n in range(2000) if sieve[n]]
    # strong pseudoprimes to the prime bases up to 7 and up to 23
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)


def test_provisioning_at_order_20():
    t0 = time.perf_counter()
    assert len(find_primitive(20)) == 24000  # phi(2^20 - 1) / 20
    pairs = default_lane_pairs(20, 64)
    assert len(pairs) == 64 and len(set(pairs)) == 64
    assert all(p.order == 20 and p.pair[0] != p.pair[1] for p in pairs)
    assert time.perf_counter() - t0 < 60.0


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


def test_default_lane_pairs_enumeration():
    first, second, third = (p.pair for p in default_lane_pairs(3, 3))
    assert first == (LfsrSpec(3, 0b1011), LfsrSpec(3, 0b1101))
    assert second == (LfsrSpec(3, 0b1101), LfsrSpec(3, 0b1011))
    assert third == first  # wraps


def test_default_lane_pairs_properties():
    prims = set(find_primitive(5))
    seen = set()
    for a, b in (p.pair for p in default_lane_pairs(5, 30)):
        assert a != b and a in prims and b in prims
        seen.add((a, b))
    assert len(seen) == 30  # all ordered pairs of 6 primitives


def test_default_lane_pairs_needs_two_primitives():
    assert len(find_primitive(2)) == 1
    with pytest.raises(InsufficientPrimitives):
        default_lane_pairs(2, 1)
