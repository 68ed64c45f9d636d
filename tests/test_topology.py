import dataclasses
import math

from hypothesis import given, settings, strategies as st

from gridcosim.config import ScenarioConfig
from gridcosim.messages import MessageClass, MessageKind, NodeKind, SimMessage
from gridcosim.netfed import NetFederate
from gridcosim.topology import generate_topology, monitored_nodes, nearest_sites


def _counts(nodes):
    out = {}
    for node in nodes:
        out[node.kind] = out.get(node.kind, 0) + 1
    return out


def test_default_topology_counts_and_center():
    cfg = ScenarioConfig()
    nodes = generate_topology(dataclasses.replace(cfg, seed=1))
    assert len(nodes) == 365
    counts = _counts(nodes)
    assert counts[NodeKind.HVA_LV] == 332
    assert counts[NodeKind.SWITCH] == 26
    assert counts[NodeKind.SUBSTATION] == 1
    assert counts[NodeKind.PV_PLANT] == 1
    assert counts[NodeKind.WIND_FARM] == 1
    assert counts[NodeKind.DMS] == 1
    assert counts[NodeKind.LTE_BS] == 2
    assert counts[NodeKind.DMR_AP] == 1
    (ap,) = [n for n in nodes if n.kind is NodeKind.DMR_AP]
    assert (ap.x_km, ap.y_km) == (7.5, 7.5)


def test_base_stations_split_region():
    nodes = generate_topology(dataclasses.replace(ScenarioConfig(), seed=3))
    stations = [n for n in nodes if n.kind is NodeKind.LTE_BS]
    assert [(bs.x_km, bs.y_km) for bs in stations] == [(3.75, 7.5), (11.25, 7.5)]


def test_minimal_federation_topology():
    cfg = ScenarioConfig(count_hva_lv=0, count_switch=0, count_substation=0,
                         count_pv_plant=0, count_wind_farm=0, lte_bs_count=0)
    nodes = generate_topology(dataclasses.replace(cfg, seed=1))
    assert len(nodes) == 2
    assert {n.kind for n in nodes} == {NodeKind.DMS, NodeKind.DMR_AP}


def test_same_seed_same_positions():
    cfg = ScenarioConfig()

    def positions(seed):
        return generate_topology(dataclasses.replace(cfg, seed=seed))

    assert positions(42) == positions(42)
    assert positions(42) != positions(43)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_positions_inside_region(seed):
    cfg = ScenarioConfig()
    side = cfg.region_side_km
    for node in generate_topology(dataclasses.replace(cfg, seed=seed)):
        assert 0.0 <= node.x_km <= side
        assert 0.0 <= node.y_km <= side


def test_monitored_selection_follows_der_switch():
    cfg = ScenarioConfig()
    nodes = generate_topology(dataclasses.replace(cfg, seed=1))
    assert len(monitored_nodes(nodes, cfg)) == 335
    without = dataclasses.replace(cfg, monitor_ders=False)
    assert len(monitored_nodes(nodes, without)) == 333


def test_nearest_base_station_prefers_closest_then_lowest_id():
    cfg = ScenarioConfig()
    nodes = generate_topology(dataclasses.replace(cfg, seed=1))
    west = next(n for n in nodes if n.kind is NodeKind.HVA_LV and n.x_km < 7.0)
    east = next(n for n in nodes if n.kind is NodeKind.HVA_LV and n.x_km > 8.0)
    # Stations sit at x = 3.75 and 11.25 km: x = 7.5 km is equidistant.
    tie = next(n for n in nodes if n.kind is NodeKind.HVA_LV and n.id not in (west.id, east.id))
    nodes[tie.id] = dataclasses.replace(tie, x_km=7.5)
    net = NetFederate(cfg, nodes)
    dms = next(n.id for n in nodes if n.kind is NodeKind.DMS)

    def station(node):
        return net.route(SimMessage(2, MessageClass.MONITORING, MessageKind.REQUEST, dms, node.id, 64, 0)).id

    assert station(west) == "lte-0"
    assert station(east) == "lte-1"
    assert station(tie) == "lte-0"


# Positions on a coarse grid, so that points meet sites and ties are common.
_grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda p: (p[0] * 0.75, p[1] * 0.5))


@given(sites=st.lists(_grid, min_size=1, max_size=12), points=st.lists(_grid, max_size=12))
def test_nearest_sites_is_the_brute_force_nearest_lowest_index_first(sites, points):
    expected = []
    for point in points:
        distances = [math.dist(site, point) for site in sites]
        expected.append(distances.index(min(distances)))
    assert nearest_sites(sites, points) == expected
