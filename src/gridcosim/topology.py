"""Deterministic topology generation for the modeled region, and nearest-site search."""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Iterable

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


# How far a lower bound on a distance may sit above the best distance found
# before a site is skipped: more than the rounding of either computation.
_MARGIN = 1.0 + 1e-9


def nearest_sites(sites: list[tuple[float, float]], points: Iterable[tuple[float, float]]) -> list[int]:
    """Per point, the index of the site nearest to it by ``math.dist``, the
    lowest index on a tie: ``distances.index(min(distances))`` exactly.

    The sites are sorted by x once.  From a point's place in that order the
    search walks outward on both sides and stops a side once the x distance
    together with the point's distance from the sites' y band exceeds the
    best distance found, since every site further out on that side is at
    least that far.  Stations in one row make this a few sites per point.
    """
    order = sorted(range(len(sites)), key=lambda i: sites[i][0])
    xs = [sites[i][0] for i in order]
    low, high = min(y for _, y in sites), max(y for _, y in sites)
    nearest = []
    # Two plain while loops: a loop over two range objects per point cost
    # more than the brute force does with two sites.
    for point in points:
        x, y = point
        gap = low - y if y < low else y - high if y > high else 0.0
        best, best_index = math.inf, -1
        k = start = bisect.bisect_left(xs, x)
        while k < len(xs) and math.hypot(xs[k] - x, gap) <= best * _MARGIN:
            index = order[k]
            distance = math.dist(sites[index], point)
            if distance < best or (distance == best and index < best_index):
                best, best_index = distance, index
            k += 1
        k = start - 1
        while k >= 0 and math.hypot(xs[k] - x, gap) <= best * _MARGIN:
            index = order[k]
            distance = math.dist(sites[index], point)
            if distance < best or (distance == best and index < best_index):
                best, best_index = distance, index
            k -= 1
        nearest.append(best_index)
    return nearest
