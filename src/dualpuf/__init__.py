"""Desk-scale simulation of a time-variant dual-LFSR arbiter PUF and its
replay-resistant two-time authentication protocol."""

from .adversary import (
    AttackReport,
    LinearAttackModel,
    MetricsRecord,
    ReplayAttacker,
    collect_naked_crps,
    collect_obfuscated_crps,
    eavesdrop,
    puf_metrics,
    replay_attack,
    train_linear_attack,
)
from .apuf import (
    ApufInstance,
    parity_features,
    sample_instance,
)
from .device import (
    DeviceConfig,
    PufDevice,
    build_device,
    default_lane_pairs,
    deserialize_response,
    load_device,
    save_device,
    serialize_response,
)
from .errors import SimulationError
from .lfsr import (
    LfsrSpec,
    classify,
    find_primitive,
    is_m_sequence,
    pick_lfsr_pair,
)
from .obfuscator import (
    DualLfsrSpec,
    trace_records,
)
from .postproc import (
    AdjustParams,
    AdjustReport,
    randomness_adjust,
)
from .protocol import (
    AuthResult,
    Frame,
    SessionTranscript,
    SimChannel,
    run_authentication,
    run_registration,
)
from .server import (
    ServerRegistry,
    compare,
    default_tau,
    gen_session,
    load_registry,
    predict_response,
    register_from_ttp,
    save_registry,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustParams",
    "AdjustReport",
    "ApufInstance",
    "AttackReport",
    "AuthResult",
    "DeviceConfig",
    "DualLfsrSpec",
    "Frame",
    "LfsrSpec",
    "LinearAttackModel",
    "MetricsRecord",
    "PufDevice",
    "ReplayAttacker",
    "ServerRegistry",
    "SessionTranscript",
    "SimChannel",
    "SimulationError",
    "build_device",
    "classify",
    "collect_naked_crps",
    "collect_obfuscated_crps",
    "compare",
    "default_lane_pairs",
    "default_tau",
    "deserialize_response",
    "eavesdrop",
    "find_primitive",
    "gen_session",
    "is_m_sequence",
    "load_device",
    "load_registry",
    "parity_features",
    "pick_lfsr_pair",
    "predict_response",
    "puf_metrics",
    "randomness_adjust",
    "register_from_ttp",
    "replay_attack",
    "run_authentication",
    "run_registration",
    "sample_instance",
    "save_device",
    "save_registry",
    "serialize_response",
    "trace_records",
    "train_linear_attack",
]
