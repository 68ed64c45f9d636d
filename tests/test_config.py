import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gridcosim import config
from gridcosim.config import (
    ScenarioConfig,
    exchange_wire_bits,
    load_config,
    loads_config,
    offered_monitoring_bps,
    serialize_config,
)
from gridcosim.errors import ParseError, ValidationError
from gridcosim.links import segment_sizes
from gridcosim.topology import generate_topology

SCENARIO_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "lte_failover_case_study.cfg"


def test_default_file_matches_case_study_values():
    cfg = load_config(SCENARIO_FILE)
    assert cfg.lambda_m_hz == pytest.approx(1 / 30)
    assert cfg.lambda_c_hz == pytest.approx(2 / 600)
    assert cfg.dmr_capacity_bps == 1920
    assert cfg.lte_bs_capacity_bps == 50_000
    assert cfg.lte_bs_count == 2
    assert cfg.payload_poll_request_bytes == 64
    assert cfg.payload_control_command_bytes == 184
    assert cfg.payload_hva_lv_bytes == 500
    assert cfg.payload_substation_bytes == 5000
    assert cfg.payload_der_bytes == 224
    assert cfg.payload_switch_ack_bytes == 100
    assert cfg.delay_limit_control_s == 10.0
    assert cfg.delay_limit_monitoring_s == 30.0
    assert cfg.alpha_e == 0.3
    assert (cfg.wfq_weight_monitoring, cfg.wfq_weight_control) == (0.1, 0.9)
    assert cfg == ScenarioConfig()


def test_zero_tau_rejected_by_key():
    with pytest.raises(ValidationError) as err:
        loads_config("tau_s = 0\n").validate()
    assert err.value.key == "tau_s"


def test_interval_must_divide_into_slots():
    cfg = loads_config("metrics_interval_s = 25\ntau_s = 0.01\n")
    assert cfg.interval_ticks // cfg.tau_ticks == 2500
    with pytest.raises(ValidationError) as err:
        loads_config("metrics_interval_s = 25\ntau_s = 0.007\n").validate()
    assert err.value.key == "metrics_interval_s"


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        loads_config("no_such_knob = 3\n")
    assert err.value.key == "no_such_knob"


def test_unknown_key_error_names_its_line():
    with pytest.raises(ValidationError, match=r"^no_such: unknown configuration key \(line 2\)$") as err:
        loads_config("seed = 1\nno_such = 3\n")
    assert err.value.key == "no_such"


def test_empty_key_is_parse_error_naming_its_line():
    with pytest.raises(ParseError, match=r"^line 2: expected 'key = value', got '= 3'$"):
        loads_config("seed = 1\n= 3\n")


def test_malformed_line_is_parse_error():
    with pytest.raises(ParseError):
        loads_config("tau_s 0.01\n")
    with pytest.raises(ParseError):
        loads_config("seed = not-a-number\n")


def test_key_set_twice_is_parse_error():
    with pytest.raises(ParseError, match=r"^line 3: tau_s is set twice$"):
        loads_config("tau_s = 0.01\n# the same key again\ntau_s = 0.02\n")
    # A key repeated with the same value is still refused.
    with pytest.raises(ParseError, match=r"^line 2: seed is set twice$"):
        loads_config("seed = 7\nseed = 7\n")


def test_fraction_literals():
    cfg = loads_config("lambda_m_hz = 1/60\n")
    assert cfg.lambda_m_hz == pytest.approx(1 / 60)


def test_comments_and_blank_lines_ignored():
    cfg = loads_config("# a comment\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_optional_failure_time():
    assert loads_config("lte_fail_at_s = none\n").lte_fail_at_s is None
    assert loads_config("lte_fail_at_s = 500\n").lte_fail_at_s == 500.0


@pytest.mark.parametrize("fail, restore, ok", [
    (None, 100.0, False),   # a restore without a failure
    (200.0, 100.0, False),  # a restore before the failure would leave LTE down for good
    (200.0, 199.99, False),
    (200.0, 200.0, True),   # a zero-length outage
    (200.0, 300.0, True),
    (200.0, None, True),
])
def test_restore_must_end_a_failure(fail, restore, ok):
    cfg = ScenarioConfig(lte_fail_at_s=fail, lte_restore_at_s=restore)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ValidationError) as err:
            cfg.validate()
        assert err.value.key == "lte_restore_at_s"


@pytest.mark.parametrize("key, seconds, ok", [
    ("duration_s", 9e13, True),
    ("duration_s", 1e14, False),
    ("duration_s", 1e300, False),
    ("lte_fail_at_s", 1e14, False),
    ("delay_limit_control_s", 1e300, False),
])
def test_times_must_fit_64_bit_ticks(key, seconds, ok):
    # Slots of 1e6 s and rates of 1e-11 Hz keep a 9e13 s horizon within the
    # work bounds: 9e7 slots and about 1.4e6 frames.
    cfg = ScenarioConfig(**{"tau_s": 1e6, "metrics_interval_s": 1e6, "lambda_m_hz": 1e-11,
                            "lambda_c_hz": 1e-11, key: seconds})
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ValidationError) as err:
            cfg.validate()
        assert err.value.key == key


@pytest.mark.parametrize("changes, key, error", [
    (dict(duration_s=1e9), "duration_s", "makes 100000000000 slots of 0.01 s, more than the 100000000"),
    (dict(payload_substation_bytes=10**20), "payload_substation_bytes",
     "makes the nodes' first polls alone put more than the 10000000 frames allowed"),
    (dict(tau_s=9e13, metrics_interval_s=9e13, duration_s=9e13), "duration_s",
     "is expected to put 4.04e+15 frames on the wire, more than the 10000000"),
    (dict(lambda_m_hz=1e300), "duration_s", "at lambda_m_hz = 1e+300 and"),
    (dict(lambda_c_hz=1e300, duration_s=30.0), "duration_s", "lambda_c_hz = 1e+300 is expected"),
    # No node is polled, so an infinite poll count must not hide the commands.
    (dict(count_hva_lv=0, count_substation=0, monitor_ders=False, lambda_m_hz=1e300,
          lambda_c_hz=1e300), "duration_s", "is expected to put 6.4e+303 frames"),
    # Under wfq-ra a failover may raise every node's rate to the DMR budget.
    (dict(qos="wfq-ra", lte_fail_at_s=0.0, dmr_capacity_bps=10**300, duration_s=30.0),
     "duration_s", "is expected to put 1.93e+297 frames"),
], ids=["slots", "first-polls", "one-slot", "poll-rate", "command-rate", "commands-only",
        "adapted-rate"])
def test_work_is_bounded_by_key_without_listing_segments(changes, key, error):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=re.escape(error)) as err:
            ScenarioConfig(**changes).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.key == key
    assert peak < 1 << 20


@pytest.mark.parametrize("changes, key", [
    (dict(tau_s=1e304), "tau_s"),
    (dict(control_burst_size=10**301), "lambda_c_hz"),
    (dict(lambda_m_hz=1e-300), "lambda_m_hz"),
    (dict(header_bytes=10**308), "header_bytes"),
    (dict(ack_bytes=2**50), "ack_bytes"),
    (dict(payload_hva_lv_bytes=10**400), "payload_hva_lv_bytes"),
], ids=["tau-past-float-ticks", "burst-period", "poll-period", "header", "ack", "int-past-floats"])
def test_values_past_the_float_range_are_validation_errors_by_key(changes, key):
    with pytest.raises(ValidationError) as err:
        ScenarioConfig(**changes).validate()
    assert err.value.key == key


@pytest.mark.parametrize("changes", [
    dict(tau_s=0.001),
    dict(duration_s=6400.0),
    dict(duration_s=86400.0),
    dict(count_hva_lv=3320, count_switch=260, lte_bs_count=20, duration_s=6400.0),
    dict(qos="wfq-ra", lte_fail_at_s=500.0),
], ids=["1ms-slots", "6400s", "one-day", "x10-6400s", "wfq-ra"])
def test_work_bounds_keep_the_studied_runs_valid(changes):
    ScenarioConfig(**changes).validate()


def test_work_bound_counts_frames_as_the_network_sends_them(monkeypatch):
    # The first polls alone: 332 one-segment and three DER exchanges of 4
    # frames, one 4-segment substation exchange of 10.  The key is that of
    # the kind whose first polls make the most frames.
    cfg = ScenarioConfig(duration_s=0.0)
    first = 334 * 4 + 10
    monkeypatch.setattr(config, "MAX_FRAMES", first)
    cfg.validate()
    monkeypatch.setattr(config, "MAX_FRAMES", first - 1)
    with pytest.raises(ValidationError) as err:
        cfg.validate()
    assert err.value.key == "payload_hva_lv_bytes"


@pytest.mark.parametrize("key", ["count_hva_lv", "count_switch", "lte_bs_count"])
def test_node_count_is_bounded_by_key_before_anything_is_built(key):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(**{key: 10**9}).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.key == key
    assert peak < 1 << 20


def test_node_limit_counts_the_topology_nodes(monkeypatch):
    # Ten times the case study's topology, the largest the benchmark runs.
    cfg = ScenarioConfig(count_hva_lv=3320, count_switch=260, lte_bs_count=20)
    nodes = len(generate_topology(cfg))
    assert nodes == 3605 <= config.MAX_NODES
    cfg.validate()
    monkeypatch.setattr(config, "MAX_NODES", nodes)
    cfg.validate()
    monkeypatch.setattr(config, "MAX_NODES", nodes - 1)
    with pytest.raises(ValidationError) as err:
        cfg.validate()
    assert err.value.key == "count_hva_lv"


def test_zero_byte_ack_rejected_by_key():
    with pytest.raises(ValidationError) as err:
        loads_config("ack_bytes = 0\n").validate()
    assert err.value.key == "ack_bytes"
    assert loads_config("ack_bytes = 1\n").ack_bytes == 1


def test_alpha_bounds():
    with pytest.raises(ValidationError) as err:
        loads_config("alpha_e = 1.0\n").validate()
    assert err.value.key == "alpha_e"
    assert loads_config("alpha_e = 0\n").alpha_e == 0.0


def test_round_trip_default():
    cfg = ScenarioConfig()
    assert loads_config(serialize_config(cfg)) == cfg


@given(
    tau=st.sampled_from([0.001, 0.01, 0.1, 1.0]),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    qos=st.sampled_from(["fifo", "wfq", "wfq-ra"]),
    lam=st.sampled_from([1 / 60, 1 / 30, 0.5]),
    fail=st.sampled_from([None, 250.0, 500.0]),
)
def test_round_trip_property(tau, seed, qos, lam, fail):
    cfg = ScenarioConfig(tau_s=tau, seed=seed, qos=qos, lambda_m_hz=lam, lte_fail_at_s=fail)
    cfg.validate()
    assert loads_config(serialize_config(cfg)) == cfg


def test_exchange_wire_bits_single_segment():
    cfg = ScenarioConfig()
    # 64+40 request, 500+40 response, one 40-byte ack per direction.
    assert exchange_wire_bits(cfg, 500) == (64 + 40 + 40 + 500 + 40 + 40) * 8 == 5792


def test_exchange_wire_bits_multi_segment():
    cfg = ScenarioConfig()
    # 5000 bytes split into 4 segments: 4 headers and 4 acks on the response.
    expected = (64 + 40 + 40) * 8 + (5000 + 4 * 40 + 4 * 40) * 8
    assert exchange_wire_bits(cfg, 5000) == expected == 43_712


@given(request=st.integers(1, 10**5), response=st.integers(1, 10**5), mss=st.integers(1, 3000),
       header=st.integers(0, 100), ack=st.integers(1, 100))
def test_exchange_wire_bits_counts_the_segments_links_cuts(request, response, mss, header, ack):
    cfg = ScenarioConfig(payload_poll_request_bytes=request, mss_bytes=mss, header_bytes=header,
                         ack_bytes=ack)
    listed = [segment_sizes(payload, mss, header) for payload in (request, response)]
    assert exchange_wire_bits(cfg, response) == 8 * sum(sum(s) + len(s) * ack for s in listed)


def test_overload_premise_holds_at_defaults():
    cfg = ScenarioConfig()
    offered = offered_monitoring_bps(cfg)
    assert offered < cfg.lte_bs_count * cfg.lte_bs_capacity_bps
    assert offered > 10 * cfg.dmr_capacity_bps
    assert cfg.warnings() == []


def test_warning_when_premise_broken():
    trivial = ScenarioConfig(count_hva_lv=1, count_substation=1, count_pv_plant=0,
                             count_wind_farm=0, monitor_ders=False)
    assert any("fits the DMR capacity" in note for note in trivial.warnings())
    flooded = ScenarioConfig(lambda_m_hz=10.0)
    assert any("exceeds total LTE reserve" in note for note in flooded.warnings())


def test_missing_file():
    with pytest.raises(ParseError):
        load_config("/nonexistent/scenario.cfg")


def test_slot_counts_for_common_horizons():
    assert ScenarioConfig().n_slots == 160_000  # 1600 s of 10 ms slots
    assert ScenarioConfig(tau_s=1.0).n_slots == 1_600
    assert ScenarioConfig(duration_s=0.0).n_slots == 0
    # A horizon that is not a slot multiple rounds up to cover it fully.
    assert ScenarioConfig(tau_s=1.0, duration_s=10.5, metrics_interval_s=1.0).n_slots == 11
