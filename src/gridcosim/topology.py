"""Deterministic topology generation for the modeled region."""

from __future__ import annotations

import random

from .config import ScenarioConfig
from .messages import NodeDescriptor, NodeKind


def generate_topology(cfg: ScenarioConfig) -> list[NodeDescriptor]:
    """Place every node of the scenario inside the region square.

    A pure function of the config, its seed included: the same config always
    produces the identical descriptor list.  The DMR access point sits at the
    region center, LTE base stations split the region evenly along the x
    axis, and everything else is uniform random.  Positions only drive
    base-station assignment; no electrical topology is modeled.
    """
    side = cfg.region_side_km
    rng = random.Random(cfg.derive_seed("topology"))

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


def monitored_nodes(nodes: list[NodeDescriptor], cfg: ScenarioConfig) -> list[NodeDescriptor]:
    """Endpoints polled by the management system, in stable id order."""
    kinds = cfg.monitored_counts().keys()
    return [n for n in nodes if n.kind in kinds]

