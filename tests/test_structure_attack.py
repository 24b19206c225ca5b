"""Criterion 09's modeling gap against an attacker who uses the public
register pairs: structure_attack.py steps a lane's pair itself and fits the
lane through the selection rule, where the linear attack stays near a coin
flip on the same CRPs."""

import time

import structure_attack
from conftest import make_device
from dualpuf.adversary import collect_obfuscated_crps, train_linear_attack

FIGURE_LOG: list[str] = []


def test_an_attacker_who_knows_the_pairs_models_an_obfuscated_lane():
    # criterion 09's tag and interface: n=16, k=1, device_seed 99, mode-1
    # CRPs, here 2,000 to train and 5,000 held out.  While the attacker was
    # written, CRP seed 8 read 0.986 at device_seed 99 and at 7 against a
    # linear 0.52; the bounds were set before seed 41 was first run
    t0 = time.perf_counter()
    device = make_device(k=1, n_stages=16, device_seed=99)
    pair = device.config.lane_pairs[0]
    seeds, labels = collect_obfuscated_crps(device, 7000, mode=1, rng_seed=41)
    phi = structure_attack.parity_features(
        structure_attack.candidates(pair.feeds, seeds, pair.rounds_per_response), 16
    )
    w = structure_attack.fit(phi[:, :, :2000], labels[:2000], mode=1)
    structured = float((structure_attack.predict(w, phi[:, :, 2000:], 1) == labels[2000:]).mean())
    linear = train_linear_attack(seeds, labels, 16, split=2 / 7, epochs=300, learning_rate=0.5,
                                 rng_seed=1)
    assert linear.train_size == 2000
    assert structured >= 0.95
    assert linear.holdout_accuracy <= 0.60
    FIGURE_LOG.append(
        f"n=16 PASS: from 2000 mode-1 CRPs, structure-aware {structured:.4f} vs linear "
        f"{linear.holdout_accuracy:.4f} on 5000 held out in {time.perf_counter() - t0:.1f}s"
    )
