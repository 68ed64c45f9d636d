"""Deterministic topology generation for the modeled region."""

from __future__ import annotations

import random

from .config import ScenarioConfig
from .messages import MONITORED_KINDS, NodeDescriptor, NodeKind


def generate_topology(cfg: ScenarioConfig, seed: int | None = None) -> list[NodeDescriptor]:
    """Place every node of the scenario inside the region square.

    A pure function of (cfg, seed): the same arguments always produce the
    identical descriptor list.  The DMR access point sits at the region
    center, LTE base stations split the region evenly along the x axis, and
    everything else is uniform random.  Positions only drive base-station
    assignment; no electrical topology is modeled.
    """
    if seed is None:
        seed = cfg.seed
    side = cfg.region_side_km
    rng = random.Random(_topology_seed(seed))

    nodes: list[NodeDescriptor] = []

    def place(kind: NodeKind) -> None:
        nodes.append(NodeDescriptor(len(nodes), kind, rng.uniform(0.0, side), rng.uniform(0.0, side)))

    place(NodeKind.DMS)
    for _ in range(cfg.count_substation):
        place(NodeKind.SUBSTATION)
    for _ in range(cfg.count_pv_plant):
        place(NodeKind.PV_PLANT)
    for _ in range(cfg.count_wind_farm):
        place(NodeKind.WIND_FARM)
    for _ in range(cfg.count_hva_lv):
        place(NodeKind.HVA_LV)
    for _ in range(cfg.count_switch):
        place(NodeKind.SWITCH)

    # Base stations at the midpoints of equal vertical strips, one per strip.
    for i in range(cfg.lte_bs_count):
        x = (i + 0.5) * side / cfg.lte_bs_count
        nodes.append(NodeDescriptor(len(nodes), NodeKind.LTE_BS, x, side / 2.0))
    nodes.append(NodeDescriptor(len(nodes), NodeKind.DMR_AP, side / 2.0, side / 2.0))
    return nodes


def _topology_seed(seed: int) -> int:
    import hashlib

    return int.from_bytes(hashlib.sha256(f"{seed}:topology".encode()).digest()[:8], "big")


def monitored_nodes(nodes: list[NodeDescriptor], cfg: ScenarioConfig) -> list[NodeDescriptor]:
    """Endpoints polled by the management system, in stable id order."""
    kinds = set(MONITORED_KINDS)
    if not cfg.monitor_ders:
        kinds -= {NodeKind.PV_PLANT, NodeKind.WIND_FARM}
    return [n for n in nodes if n.kind in kinds]

