"""Scenario configuration: flat key-value files, validation, defaults.

The file format is one ``key = value`` pair per line, ``#`` comments, keys
named exactly after the :class:`ScenarioConfig` fields.  Rates accept a
fractional literal (``1/30``) since polling rates are naturally expressed
that way.  Defaults reproduce the shipped LTE-failover case study.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParseError, ValidationError
from .links import segment_sizes
from .simtime import ticks_from_seconds
from .messages import MessageClass, NodeKind

QOS_MODES = ("fifo", "wfq", "wfq-ra")
ARRIVAL_MODELS = ("periodic", "poisson")
#: The most nodes a topology may have, the DMS, the DMR access point and the
#: LTE base stations counted.  Set-up time and memory grow with the node
#: count; README says why the limit is here.
MAX_NODES = 100_000
_NODE_COUNTS = ("lte_bs_count", "count_hva_lv", "count_switch", "count_substation",
                "count_pv_plant", "count_wind_farm")


@dataclass
class ScenarioConfig:
    """Every tunable of a scenario run.  All fields are file-loadable."""

    # Clock and horizon
    tau_s: float = 0.01
    duration_s: float = 1600.0
    seed: int = 1
    metrics_interval_s: float = 25.0

    # Traffic model
    lambda_m_hz: float = 1.0 / 30.0
    lambda_c_hz: float = 2.0 / 600.0
    control_burst_size: int = 2
    monitor_ders: bool = True
    arrival_model: str = "periodic"

    # Payloads (bytes)
    payload_poll_request_bytes: int = 64
    payload_control_command_bytes: int = 184
    payload_hva_lv_bytes: int = 500
    payload_substation_bytes: int = 5000
    payload_der_bytes: int = 224
    payload_switch_ack_bytes: int = 100

    # Delay limits per class (seconds)
    delay_limit_monitoring_s: float = 30.0
    delay_limit_control_s: float = 10.0

    # Links
    lte_bs_count: int = 2
    lte_bs_capacity_bps: int = 50_000
    dmr_capacity_bps: int = 1_920
    access_latency_lte_s: float = 0.020
    access_latency_dmr_s: float = 0.050

    # QoS
    qos: str = "fifo"
    wfq_weight_monitoring: float = 0.1
    wfq_weight_control: float = 0.9
    alpha_e: float = 0.3

    # Failure injection (None disables)
    lte_fail_at_s: float | None = None
    lte_restore_at_s: float | None = None

    # Transport overhead
    header_bytes: int = 40
    mss_bytes: int = 1460
    ack_bytes: int = 40

    # Topology
    region_side_km: float = 15.0
    count_hva_lv: int = 332
    count_switch: int = 26
    count_substation: int = 1
    count_pv_plant: int = 1
    count_wind_farm: int = 1

    # ------------------------------------------------------------- derived

    @property
    def tau_ticks(self) -> int:
        return ticks_from_seconds(self.tau_s, key="tau_s")

    @property
    def duration_ticks(self) -> int:
        return ticks_from_seconds(self.duration_s, key="duration_s")

    @property
    def interval_ticks(self) -> int:
        return ticks_from_seconds(self.metrics_interval_s, key="metrics_interval_s")

    @property
    def n_slots(self) -> int:
        tau = self.tau_ticks
        return -(-self.duration_ticks // tau)

    def delay_limit_ticks(self, msg_class: MessageClass) -> int:
        if msg_class is MessageClass.MONITORING:
            return ticks_from_seconds(self.delay_limit_monitoring_s)
        return ticks_from_seconds(self.delay_limit_control_s)

    def response_payload_bytes(self, kind: NodeKind) -> int:
        table = {
            NodeKind.HVA_LV: self.payload_hva_lv_bytes,
            NodeKind.SUBSTATION: self.payload_substation_bytes,
            NodeKind.PV_PLANT: self.payload_der_bytes,
            NodeKind.WIND_FARM: self.payload_der_bytes,
            NodeKind.SWITCH: self.payload_switch_ack_bytes,
        }
        return table[kind]

    def monitored_counts(self) -> dict[NodeKind, int]:
        counts = {NodeKind.HVA_LV: self.count_hva_lv, NodeKind.SUBSTATION: self.count_substation}
        if self.monitor_ders:
            counts[NodeKind.PV_PLANT] = self.count_pv_plant
            counts[NodeKind.WIND_FARM] = self.count_wind_farm
        return counts

    def derive_seed(self, label: str) -> int:
        """A per-purpose RNG seed, stable across processes and platforms."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        def positive(key: str, value) -> None:
            if value is None or not value > 0 or not math.isfinite(value):
                raise ValidationError(key, "must be positive and finite")

        positive("tau_s", self.tau_s)
        if self.duration_s < 0:
            raise ValidationError("duration_s", "must be non-negative")
        positive("metrics_interval_s", self.metrics_interval_s)
        positive("lambda_m_hz", self.lambda_m_hz)
        positive("lambda_c_hz", self.lambda_c_hz)
        positive("control_burst_size", self.control_burst_size)
        positive("lte_bs_capacity_bps", self.lte_bs_capacity_bps)
        positive("dmr_capacity_bps", self.dmr_capacity_bps)
        positive("wfq_weight_monitoring", self.wfq_weight_monitoring)
        positive("wfq_weight_control", self.wfq_weight_control)
        positive("mss_bytes", self.mss_bytes)
        positive("region_side_km", self.region_side_km)
        positive("delay_limit_monitoring_s", self.delay_limit_monitoring_s)
        positive("delay_limit_control_s", self.delay_limit_control_s)
        for key in ("payload_poll_request_bytes", "payload_control_command_bytes",
                    "payload_hva_lv_bytes", "payload_substation_bytes",
                    "payload_der_bytes", "payload_switch_ack_bytes"):
            positive(key, getattr(self, key))
        # A zero-byte ACK would be served in no ticks, so that two
        # completions on one link could share a tick.
        positive("ack_bytes", self.ack_bytes)
        for key in ("header_bytes", *_NODE_COUNTS, "access_latency_lte_s", "access_latency_dmr_s"):
            if getattr(self, key) < 0:
                raise ValidationError(key, "must be non-negative")
        nodes = 2 + sum(getattr(self, key) for key in _NODE_COUNTS)
        if nodes > MAX_NODES:
            raise ValidationError(max(_NODE_COUNTS, key=lambda key: getattr(self, key)),
                                  f"makes {nodes} nodes, more than the {MAX_NODES} allowed")
        if not 0 <= self.alpha_e < 1:
            raise ValidationError("alpha_e", "must lie in [0, 1)")
        if self.qos not in QOS_MODES:
            raise ValidationError("qos", f"must be one of {QOS_MODES}")
        if self.qos == "wfq-ra" and not any(self.monitored_counts().values()):
            # The adapted rate is a budget shared among monitored endpoints.
            raise ValidationError("qos", "wfq-ra needs at least one monitored endpoint")
        if self.arrival_model not in ARRIVAL_MODELS:
            raise ValidationError("arrival_model", f"must be one of {ARRIVAL_MODELS}")
        for key in ("lte_fail_at_s", "lte_restore_at_s"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ValidationError(key, "must be non-negative")

        # Every time the federates convert to ticks must be finite, sit on
        # the tick grid and fit a signed 64-bit tick (the leg columns are
        # ``array("q")``), and the reporting window must sit on the slot
        # grid, or interval bookkeeping would drift.
        for key in ("tau_s", "duration_s", "metrics_interval_s", "delay_limit_monitoring_s",
                    "delay_limit_control_s", "access_latency_lte_s", "access_latency_dmr_s",
                    "lte_fail_at_s", "lte_restore_at_s"):
            value = getattr(self, key)
            if value is None:
                continue
            try:
                ticks = ticks_from_seconds(value, key=key)
            except ValueError as exc:
                raise ValidationError(key, str(exc)) from exc
            if ticks >= 2**63:
                raise ValidationError(key, f"{value!r} s does not fit a 64-bit tick count")
        # One outage: a restore ends a failure, at or after its tick.
        if self.lte_restore_at_s is not None:
            if self.lte_fail_at_s is None:
                raise ValidationError("lte_restore_at_s", "needs lte_fail_at_s")
            if ticks_from_seconds(self.lte_restore_at_s) < ticks_from_seconds(self.lte_fail_at_s):
                raise ValidationError("lte_restore_at_s", "must not be earlier than lte_fail_at_s")
        if self.interval_ticks % self.tau_ticks != 0:
            raise ValidationError("metrics_interval_s", "must be a multiple of tau_s")

    def warnings(self) -> list[str]:
        """Sanity notes about the configured traffic volume.

        The failover study only makes sense when the steady monitoring load
        fits the combined LTE reserve but exceeds the DMR capacity; warn when
        a configuration breaks that premise.
        """
        out = []
        offered = offered_monitoring_bps(self)
        lte_total = self.lte_bs_count * self.lte_bs_capacity_bps
        if offered > lte_total > 0:
            out.append(
                f"monitoring load {offered:.0f} bps exceeds total LTE reserve "
                f"{lte_total} bps; the network is overloaded before any failure"
            )
        if offered <= self.dmr_capacity_bps:
            out.append(
                f"monitoring load {offered:.0f} bps fits the DMR capacity "
                f"{self.dmr_capacity_bps} bps; a failover will not overload it"
            )
        return out


def exchange_wire_bits(cfg: ScenarioConfig, response_payload: int) -> int:
    """Bits on the wire for one full poll exchange with a given response size.

    Counts the request and response segments with per-segment headers plus
    one acknowledgement frame per data segment, both directions.
    """
    total_bytes = 0
    for payload in (cfg.payload_poll_request_bytes, response_payload):
        sizes = segment_sizes(payload, cfg.mss_bytes, cfg.header_bytes)
        total_bytes += sum(sizes) + len(sizes) * cfg.ack_bytes
    return total_bytes * 8


def offered_monitoring_bps(cfg: ScenarioConfig) -> float:
    """Steady-state monitoring load including transport overhead."""
    total = 0.0
    for kind, count in cfg.monitored_counts().items():
        total += count * cfg.lambda_m_hz * exchange_wire_bits(cfg, cfg.response_payload_bytes(kind))
    return total


# ----------------------------------------------------------------- parsing

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_VALUES[text.lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {text!r}")


def _parse_float(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_optional_float(text: str) -> float | None:
    if text.lower() in ("none", ""):
        return None
    return _parse_float(text)


_PARSERS = {}
for f in fields(ScenarioConfig):
    if f.name in ("lte_fail_at_s", "lte_restore_at_s"):
        _PARSERS[f.name] = _parse_optional_float
    elif f.type in ("int",):
        _PARSERS[f.name] = int
    elif f.type in ("float",):
        _PARSERS[f.name] = _parse_float
    elif f.type in ("bool",):
        _PARSERS[f.name] = _parse_bool
    else:
        _PARSERS[f.name] = str


def loads_config(text: str) -> ScenarioConfig:
    """Parse scenario text into a :class:`ScenarioConfig`, not yet validated:
    callers validate the config they run, once they have overridden fields."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        value = value.strip()
        if key not in _PARSERS:
            raise ValidationError(key, f"unknown configuration key (line {lineno})")
        if key in values:
            raise ParseError(f"line {lineno}: {key} is set twice")
        try:
            values[key] = _PARSERS[key](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return ScenarioConfig(**values)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return loads_config(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config as scenario text; round-trips through loads_config."""
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"
