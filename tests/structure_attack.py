"""A modeling attacker that knows a lane's public register pair.

This is Ruehrmair et al.'s logistic-regression attack on XOR arbiter PUFs
(CCS 2010) with the selection path known.  The pairs are public: a tag's
lane pairs follow from its order and lane index, so by Kerckhoffs's
principle an attacker has them.  The attacker steps both registers of the
pair from each external challenge itself, so it holds both candidates of
every round; only which one a round reads depends on the lane's votes.

It fits the lane's weights w by maximum likelihood.  A round's bit is 1
with probability sigmoid(w . phi) of the candidate the round reads, and a
forward recursion over the four states (previous selected bit, fold parity)
sums over every selection path.  The gradient is carried forward beside the
recursion, and Adam takes the steps.  NumPy only; nothing here comes from
dualpuf, so the tests can hold the package's obfuscation against it.
"""

import numpy as np


def candidates(feeds, seeds, rounds: int) -> np.ndarray:
    """(rounds, 2, S) states of both Galois registers, feeds first then
    second, after each of `rounds` shifts from the external challenges."""
    seeds = np.asarray(seeds, dtype=np.int64)
    feeds = np.asarray(feeds, dtype=np.int64)[:, None]
    states = np.stack([seeds, seeds])
    walked = np.empty((rounds,) + states.shape, dtype=np.int64)
    for r in range(rounds):
        states = walked[r] = (states >> 1) ^ feeds * (states & 1)
    return walked


def parity_features(challenges, n_stages: int) -> np.ndarray:
    """(..., N+1) features: phi_i = prod_{j>=i} (1 - 2 C_j), and phi_N = 1."""
    signs = 1 - 2 * (np.asarray(challenges)[..., None] >> np.arange(n_stages) & 1)
    phi = np.cumprod(signs[..., ::-1], axis=-1)[..., ::-1]
    return np.concatenate([phi, np.ones_like(phi[..., :1])], axis=-1).astype(np.float64)


def _read(mode: int) -> list[int]:
    """The register (0 first, 1 second) a round reads after a selected bit
    of 0 and of 1: the first when that bit xor mode is 1."""
    return [1 - (prev ^ mode) for prev in (0, 1)]


def fold_probability(w, phi, mode: int):
    """P(folded bit = 1) of every CRP and its gradient in w, for features
    phi laid out (rounds, 2, S, N+1), by the forward recursion over
    alpha[s, prev, fold]."""
    rounds, _, count, width = phi.shape
    alpha = np.zeros((count, 2, 2))
    alpha[:, 0, 0] = 1.0  # before round 1: no selected bit, an empty fold
    d_alpha = np.zeros((count, 2, 2, width))
    read = _read(mode)
    for r in range(rounds):
        q = 1.0 / (1.0 + np.exp(-(phi[r] @ w)))  # (2, S): P(bit 1) of each candidate
        dq = (q * (1.0 - q))[..., None] * phi[r]
        q, dq = q[read].T, dq[read].transpose(1, 0, 2)  # by previous bit: (S, 2), (S, 2, N+1)
        flipped, d_flipped = alpha[:, :, ::-1], d_alpha[:, :, ::-1]  # a 1 flips the fold
        ones = np.einsum("spf,sp->sf", flipped, q)
        zeros = np.einsum("spf,sp->sf", alpha, 1.0 - q)
        d_ones = np.einsum("spfd,sp->sfd", d_flipped, q) + np.einsum("spf,spd->sfd", flipped, dq)
        d_zeros = np.einsum("spfd,sp->sfd", d_alpha, 1.0 - q) - np.einsum("spf,spd->sfd", alpha, dq)
        alpha, d_alpha = np.stack([zeros, ones], axis=1), np.stack([d_zeros, d_ones], axis=1)
    return alpha[:, :, 1].sum(axis=1), d_alpha[:, :, 1].sum(axis=1)


def predict(w, phi, mode: int) -> np.ndarray:
    """The folded bit of every CRP when each round's bit is w . phi > 0."""
    count = phi.shape[2]
    prev, fold = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    read = np.array(_read(mode))
    for r in range(phi.shape[0]):
        chosen = phi[r][read[prev], np.arange(count)]
        prev = (chosen @ w > 0).astype(np.int64)
        fold ^= prev
    return fold


def fit(phi, labels, mode: int, restarts: int = 3, steps: int = 300, rate: float = 0.1,
        rng_seed: int = 0) -> np.ndarray:
    """Weights of the restart whose Adam descent on the mean negative
    log-likelihood ends lowest.  Each starts near w = 0, normal of std 0.1:
    from starts of unit scale the descent stalls near a loss of log 2."""
    labels = np.asarray(labels, dtype=np.float64)
    rng = np.random.default_rng(rng_seed)
    best, best_loss = None, np.inf
    for _ in range(restarts):
        w = 0.1 * rng.standard_normal(phi.shape[-1])
        m, v = np.zeros_like(w), np.zeros_like(w)
        for step in range(1, steps + 1):
            p, dp = fold_probability(w, phi, mode)
            p = np.clip(p, 1e-12, 1.0 - 1e-12)
            grad = -((labels / p - (1.0 - labels) / (1.0 - p))[:, None] * dp).mean(axis=0)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            w = w - rate * (m / (1 - 0.9**step)) / (np.sqrt(v / (1 - 0.999**step)) + 1e-8)
        p = np.clip(fold_probability(w, phi, mode)[0], 1e-12, 1.0 - 1e-12)
        loss = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
        if loss < best_loss:
            best, best_loss = w, loss
    return best
