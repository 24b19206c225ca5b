"""Scalar reference of the tag's response chain, used only by the tests.

Plain Python, one register shift, one arbiter evaluation and one noise draw
at a time: the period walk that lfsr.is_m_sequence replaces with algebra, the
parity transform and delay of dualpuf.apuf, the temporal majority voter of
postproc.lane_bits and the dual-register selection rule of
obfuscator.run_rounds.  The package computes all of these on arrays; the
tests compare it against the functions here.
"""

import math

import numpy as np

from dualpuf.errors import ZeroSeed


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


def challenge_bits(challenge: int, n_stages: int) -> list[int]:
    """Challenge bits C_0 .. C_{N-1}; C_0 is the least significant bit."""
    return [challenge >> j & 1 for j in range(n_stages)]


def parity_features(challenge: int, n_stages: int) -> list[float]:
    """phi_i = prod_{j>=i} (1 - 2 C_j) for i < N, and phi_N = 1."""
    phi = [1.0]
    for bit in reversed(challenge_bits(challenge, n_stages)):
        phi.insert(0, (1 - 2 * bit) * phi[0])
    return phi


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
