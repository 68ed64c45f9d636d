"""gridcosim: federated IT/communication co-simulation of grid telecontrol traffic."""

__version__ = "0.1.0"

from .config import ScenarioConfig, load_config, loads_config, serialize_config
from .messages import MessageClass, MessageKind, NodeDescriptor, NodeKind, SimMessage
from .metrics import class_reliability_ci, ddf
from .simtime import TICKS_PER_SECOND
from .topology import generate_topology

__all__ = [
    "ScenarioConfig",
    "load_config",
    "loads_config",
    "serialize_config",
    "MessageClass",
    "MessageKind",
    "NodeDescriptor",
    "NodeKind",
    "SimMessage",
    "class_reliability_ci",
    "ddf",
    "TICKS_PER_SECOND",
    "generate_topology",
    "__version__",
]
