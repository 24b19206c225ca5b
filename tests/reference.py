"""Scalar reference of the tag's response chain, used only by the tests.

Plain Python, one register shift, one arbiter evaluation and one noise draw
at a time: the period walk that lfsr.is_m_sequence replaces with algebra, the
bit-serial GF(2)[x] product that lfsr._x_power replaces with linear squaring,
the parity transform and delay of dualpuf.apuf, the temporal majority voter of
postproc.lane_bits and the dual-register selection rule of
obfuscator.run_rounds.  The package computes all of these on arrays; the
tests compare it against the functions here.  delay_sums is the one array
oracle: the parity-feature reduction that the package's delay-sum tables
replace.  unpack, compare and session are the reader on lane-bit arrays,
which the package's comparison of response words replaces.

From dualpuf it imports only the errors and the protocol glue that session
drives (frames, the channel, the session draw and the prediction); every
computation it checks is its own.
"""

import math

import numpy as np

from dualpuf.errors import ChannelTimeout, WidthMismatch, ZeroSeed
from dualpuf.protocol import CHALLENGE, READER_TO_TAG, Frame, SimChannel
from dualpuf.server import gen_session, predict_response


def shift(feed: int, state: int) -> int:
    """One Galois shift of a register holding state."""
    return (state >> 1) ^ (feed if state & 1 else 0)


def period(spec, seed: int) -> int:
    """Length of the cycle through seed, by plain iteration."""
    if seed == 0:
        raise ZeroSeed("period of the all-zero state is degenerate")
    feed = spec.feed
    state, length = shift(feed, seed), 1
    while state != seed:
        state, length = shift(feed, state), length + 1
    return length


def mulmod(a, b, mask, order):
    """a·b mod g by shift-and-add over the bits of b, top bit first.

    Only ``^ * >> &`` touch the operands, so a Python int or an int64 array
    of masks (one product per candidate) goes through the same code.
    """
    product = a & 0
    for i in range(order - 1, -1, -1):
        product = product * 2
        product = product ^ mask * (product >> order & 1) ^ a * (b >> i & 1)
    return product


def x_power(exponent: int, mask, order: int):
    """x^exponent mod g by square-and-multiply on mulmod; x is the mask 2."""
    result = 1
    for bit in f"{exponent:b}":
        result = mulmod(result, result, mask, order)
        if bit == "1":
            result = mulmod(result, 2, mask, order)
    return result


def challenge_bits(challenge: int, n_stages: int) -> list[int]:
    """Challenge bits C_0 .. C_{N-1}; C_0 is the least significant bit."""
    return [challenge >> j & 1 for j in range(n_stages)]


def parity_features(challenge: int, n_stages: int) -> list[float]:
    """phi_i = prod_{j>=i} (1 - 2 C_j) for i < N, and phi_N = 1."""
    phi = [1.0]
    for bit in reversed(challenge_bits(challenge, n_stages)):
        phi.insert(0, (1 - 2 * bit) * phi[0])
    return phi


def delay_sums(challenges, weights, offsets) -> np.ndarray:
    """w . phi + b of lanes (*lanes, N+1) at challenges whose layout ends
    in the lanes', reduced over parity_features above by einsum."""
    challenges, n_stages = np.asarray(challenges), np.shape(weights)[-1] - 1
    phi = [parity_features(int(c), n_stages) for c in challenges.flat]
    phi = np.reshape(phi, challenges.shape + (n_stages + 1,))
    return np.einsum("...i,...i->...", phi, weights) + offsets


def delta(lane, challenge: int, noise: float = 0.0) -> float:
    """Delay difference the arbiter sees in one evaluation."""
    phi = np.array(parity_features(challenge, lane.n_stages))
    return float(lane.weights @ phi) + noise + lane.offset


def evaluate(lane, challenge: int, noise: float = 0.0) -> int:
    """One arbiter decision: 1 iff delta > 0, so an exact tie gives 0."""
    return 1 if delta(lane, challenge, noise) > 0 else 0


def raw_bits(lane, challenges, noise) -> np.ndarray:
    """evaluate at each challenge of an array, each with its own noise draw."""
    return np.array(
        [evaluate(lane, int(c), float(d)) for c, d in zip(challenges, noise)], dtype=np.uint8
    )


def p_one(lane, challenge: int, sigma: float) -> float:
    """Closed-form P(bit = 1) of one evaluation under Gaussian noise, sigma > 0."""
    mu = delta(lane, challenge)
    return 0.5 * (1.0 + math.erf(mu / (sigma * math.sqrt(2.0))))


def vote(lane, challenge: int, sigma: float, voter_t: int, noise_stream) -> int:
    """Majority of voter_t noisy evaluations of std sigma; at sigma 0 one
    noiseless evaluation and no draw."""
    if sigma == 0:
        return evaluate(lane, challenge)
    draws = noise_stream.standard_normal(voter_t) * sigma
    ones = sum(evaluate(lane, challenge, float(d)) for d in draws)
    return 1 if 2 * ones > voter_t else 0


def rounds(spec, challenge: int, mode: int, round_bit) -> tuple[list[int], list[int]]:
    """Challenges and bits of every round of the selection rule.

    Both registers load the external challenge and shift once per round
    before it is read.  A round reads the first register when the previous
    round's bit xor mode is 1 (the previous bit is 0 before round 1), else
    the second.  round_bit(round_index, challenge) gives the round's bit.
    """
    s1 = s2 = challenge
    prev, challenges, bits = 0, [], []
    for round_no in range(spec.rounds_per_response):
        s1, s2 = shift(spec.pair[0].feed, s1), shift(spec.pair[1].feed, s2)
        challenges.append(s1 if prev ^ mode == 1 else s2)
        prev = round_bit(round_no, challenges[-1])
        bits.append(prev)
    return challenges, bits


def response(
    spec, lane, challenge: int, mode: int, sigma: float = 0.0, voter_t: int = 1, noise_stream=None
) -> int:
    """One lane's response: the XOR fold of its voted round bits."""
    _, bits = rounds(
        spec, challenge, mode, lambda _, c: vote(lane, c, sigma, voter_t, noise_stream)
    )
    return sum(bits) % 2


def unpack(word, k: int) -> np.ndarray:
    """The (k,) lane bits of a response word, lane i from bit i.  A word
    that is not an integer (a bool is none, np.bool_ included) or does not
    fit k lanes raises WidthMismatch."""
    if not isinstance(word, (int, np.integer)) or isinstance(word, bool):
        raise WidthMismatch(f"response {word!r} is not an integer word")
    if not 0 <= int(word) < 1 << k:
        raise WidthMismatch(f"response {int(word):#x} does not fit {k} lanes")
    return np.array([int(word) >> i & 1 for i in range(k)], dtype=np.uint8)


def compare(r_m, r_p, tau: int) -> int:
    """1 iff two lane-bit arrays differ in at most tau lanes."""
    r_m = np.asarray(r_m, dtype=np.uint8)
    r_p = np.asarray(r_p, dtype=np.uint8)
    if r_m.shape != r_p.shape:
        raise WidthMismatch(f"response widths differ: {r_m.shape} vs {r_p.shape}")
    return 1 if int((r_m ^ r_p).sum()) <= tau else 0


def session(registry, responder) -> tuple:
    """One two-time session as protocol.run_authentication runs it, but
    with each response payload unpacked by unpack above and
    compared with its predicted lane bits by compare above.  Returns the
    session, d1, d2, passed, the two distances (None where no response was
    compared) and the lines of the frames on the wire."""
    channel = SimChannel()
    c1, c2, t = gen_session(registry)
    k, n = registry.k, registry.n_stages
    expected = predict_response(registry, (c1, c2), (1, t & 1))
    responder.begin_session()
    decisions, distances = [0, 0], [None, None]
    for i, (challenge, tick) in enumerate(((c1, 0), (c2, t))):
        frame = Frame(tick, READER_TO_TAG, CHALLENGE, challenge, n)
        try:
            reply = channel.exchange(frame, responder, response_width=k)
        except ChannelTimeout:
            break
        bits = unpack(reply.payload, k)
        decisions[i] = compare(expected[i], bits, registry.tau)
        distances[i] = int((expected[i] ^ bits).sum())
        if not decisions[i]:
            break
    d1, d2 = decisions
    lines = [f.line() for f in channel.log]
    return (c1, c2, t), d1, d2, d1 == 1 and d2 == 1, *distances, lines
