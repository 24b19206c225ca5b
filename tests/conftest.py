"""Shared test helpers and suite-wide hypothesis settings."""

import sys

from hypothesis import settings

from dualpuf.device import DeviceConfig, build_device, default_lane_pairs

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def make_device(k=4, n_stages=8, device_seed=3, sigma_noise=0.0, voter_t=5, rounds=5):
    """Fresh small tag; cheap enough to build per test."""
    config = DeviceConfig(
        k=k,
        n_stages=n_stages,
        lane_pairs=default_lane_pairs(n_stages, k, rounds),
        voter_t=voter_t,
        sigma_noise=sigma_noise,
        device_seed=device_seed,
    )
    return build_device(config)


FIGURE_LOGS = (
    ("test_acceptance", "ACCEPTANCE_LOG", "acceptance criteria"),
    ("test_exhaustive", "FIGURE_LOG", "exhaustive sigma-0 identity"),
    ("test_replay_coverage", "FIGURE_LOG", "replay from a store of all traffic"),
    ("test_structure_attack", "FIGURE_LOG", "modeling with the public register pairs"),
)


def pytest_terminal_summary(terminalreporter):
    # one visible pass line per acceptance criterion, per exhaustive order,
    # per replay-coverage order and for the structure-aware attack, collected
    # by those modules as they run
    for module, attribute, title in FIGURE_LOGS:
        lines = getattr(sys.modules.get(module), attribute, None)
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
