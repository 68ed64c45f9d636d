import csv
import dataclasses
import enum
import gc
import json
import math
import statistics
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from gridcosim.config import ScenarioConfig
from gridcosim import runner
from gridcosim.errors import UsageError, ValidationError
from gridcosim.messages import _CLASSES, MISSING, MessageClass, MessageKind, SimMessage
from gridcosim.metrics import delay_series
from gridcosim.runner import run_scenario, run_tau_sweep, write_exchange_log, write_manifest, write_outputs
from gridcosim.simtime import TICKS_PER_SECOND
from tests import records, reference_reports


def small_cfg(**overrides):
    base = dict(duration_s=100.0, count_hva_lv=20, count_switch=4, monitor_ders=False,
                lambda_m_hz=1 / 10)
    base.update(overrides)
    cfg = dataclasses.replace(ScenarioConfig(), **base)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def small_run():
    return run_scenario(small_cfg())


def test_reliability_csv_schema(tmp_path, small_run):
    write_outputs(tmp_path, small_run)
    lines = (tmp_path / "reliability.csv").read_text().splitlines()
    assert lines[0] == "t_s,class,mean,ci_low,ci_high,ci_low_clamped,ci_high_clamped,clamped"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[1] in ("monitoring", "control")
    assert 0.0 <= float(first[5]) <= float(first[6]) <= 1.0


def test_delay_csv_schema(tmp_path, small_run):
    write_outputs(tmp_path, small_run)
    lines = (tmp_path / "delay.csv").read_text().splitlines()
    assert lines[0] == "t_s,class,mean_s,p95_s"
    assert len(lines) > 1
    for line in lines[1:]:
        t_s, _cls, mean_s, p95_s = line.split(",")
        assert float(p95_s) >= 0 and float(mean_s) > 0


def test_ddf_csv_schema(tmp_path, small_run):
    write_outputs(tmp_path, small_run)
    lines = (tmp_path / "ddf.csv").read_text().splitlines()
    assert lines[0] == "tau_s,ddf_percent,wallclock_s"
    tau_s, ddf_percent, _wall = lines[1].split(",")
    assert float(tau_s) == 0.01
    assert float(ddf_percent) > 0


def test_exchange_log_columns(tmp_path, small_run):
    write_outputs(tmp_path, small_run, exchange_log=True)
    lines = (tmp_path / "exchange_log.csv").read_text().splitlines()
    assert lines[0] == "id,class,node,created_s,delivered_s,d_it_s,d_comm_s,within_limit"
    answered = [line for line in lines[1:] if line.split(",")[7] == "1"]
    assert answered
    row = answered[0].split(",")
    assert float(row[5]) >= float(row[6]) > 0


def test_link_log_columns(tmp_path, small_run):
    write_outputs(tmp_path, small_run, link_log=True)
    lines = (tmp_path / "link_log.csv").read_text().splitlines()
    assert lines[0] == "t_s,link,queue_bytes_monitoring,queue_bytes_control,bits_served"
    links = {line.split(",")[1] for line in lines[1:]}
    assert links == {"lte-0", "lte-1", "dmr"}


def test_link_rows_report_an_interval_the_run_ended_inside():
    result = run_scenario(small_cfg(duration_s=60.0, lte_fail_at_s=10.0))
    dmr = [row for row in result.link_rows if row[1] == "dmr"]
    assert [row[0] for row in dmr] == [0.0, 25.0, 50.0]
    assert dmr[1][2] > 0  # sampled at 50 s, with the failover backlog queued
    assert dmr[2][2:4] == (0, 0)  # the run ended before this sample
    assert dmr[2][4] > 0


def test_topology_dump(tmp_path, small_run):
    write_outputs(tmp_path, small_run, dump_topology=True)
    lines = (tmp_path / "topology.csv").read_text().splitlines()
    assert lines[0] == "id,kind,x_km,y_km"
    assert len(lines) == 1 + len(small_run.nodes)


def test_manifest_lists_outputs(tmp_path, small_run):
    outputs = write_outputs(tmp_path, small_run, exchange_log=True)
    write_manifest(tmp_path / "manifest.json", small_run.cfg,
                   outputs=outputs + ["manifest.json"], wallclock_s=1.0,
                   experiments={"run": "ok"}, status="ok")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "reliability.csv" in manifest["outputs"]
    assert "exchange_log.csv" in manifest["outputs"]
    assert manifest["config"]["duration_s"] == 100.0
    assert manifest["seed"] == 1


def test_manifest_written_on_failure(tmp_path):
    write_manifest(tmp_path / "manifest.json", ScenarioConfig(),
                   outputs=["manifest.json"], wallclock_s=0.5,
                   experiments={"run": "failed"}, status="error", error="boom")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "boom"


def test_zero_duration_produces_empty_csvs(tmp_path):
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=0.0)
    cfg.validate()
    result = run_scenario(cfg)
    assert result.federation.slots_run == 0
    write_outputs(tmp_path, result)
    assert (tmp_path / "reliability.csv").read_text().splitlines() == [
        "t_s,class,mean,ci_low,ci_high,ci_low_clamped,ci_high_clamped,clamped"
    ]
    assert (tmp_path / "delay.csv").read_text().splitlines() == ["t_s,class,mean_s,p95_s"]
    assert (tmp_path / "ddf.csv").read_text().splitlines() == ["tau_s,ddf_percent,wallclock_s"]


def test_runs_are_byte_identical(tmp_path, small_run):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_outputs(dir_a, small_run, exchange_log=True, link_log=True)
    write_outputs(dir_b, run_scenario(small_cfg()), exchange_log=True, link_log=True)
    for name in ("reliability.csv", "delay.csv", "exchange_log.csv", "link_log.csv", "scenario.cfg"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_delay_series_grouped_by_delivery_interval(small_run):
    w = small_run.cfg.interval_ticks
    for stats in small_run.delays:
        legs = [d_comm / TICKS_PER_SECOND for cls, _k, _dit, d_comm, tick in small_run.comm_legs
                if tick // w == stats.interval and cls is stats.msg_class]
        assert legs
        assert stats.mean_s == pytest.approx(sum(legs) / len(legs), rel=1e-12)
        assert stats.p95_s in legs


def test_comm_legs_read_as_a_sequence_of_leg_tuples(small_run):
    # bench/checks.py iterates the legs and reads each one's per-leg bound
    # from leg[2] - leg[3] (d_it minus d_comm), so the tuple order is pinned.
    legs = small_run.comm_legs
    listed = list(legs)
    assert len(legs) == len(listed) > 0
    for cls, kind, d_it, d_comm, tick in listed:
        assert isinstance(cls, MessageClass) and isinstance(kind, MessageKind)
        assert 0 < d_comm < d_it and 0 < tick
    assert [leg[2] - leg[3] for leg in listed] == [a - b for a, b in zip(legs.d_it, legs.d_comm)]
    w = small_run.cfg.interval_ticks
    assert delay_series(legs, w) == small_run.delays
    assert reference_reports.delay_series(listed, w) == small_run.delays


def test_exchange_log_lists_each_exchange_by_interval_then_class(tmp_path):
    # A control burst every 10 s, so that both classes share each interval.
    run = run_scenario(small_cfg(lambda_c_hz=0.2))
    rows = run.exchange_rows
    assert len(rows) > 0
    assert set(rows.scores) <= {0, 1, MISSING}
    # The columns keep creation order, and ids grow with it.
    assert all(a < b for a, b in zip(rows.ids, rows.ids[1:]))
    # The log lists each exchange once, by creation interval, then class, then creation order.
    write_outputs(tmp_path, run, exchange_log=True)
    with (tmp_path / "exchange_log.csv").open(newline="") as handle:
        log = list(csv.DictReader(handle))
    row_of = {mid: row for row, mid in enumerate(rows.ids)}
    logged = [row_of[int(entry["id"])] for entry in log]
    assert sorted(logged) == list(range(len(rows)))
    assert [entry["class"] for entry in log] == [_CLASSES[rows.classes[row]].value for row in logged]
    w = run.cfg.interval_ticks
    keys = [(rows.created[row] // w, rows.classes[row], rows.ids[row]) for row in logged]
    assert keys == sorted(keys)
    assert {(interval, cls) for interval, cls, _id in keys} == {
        (interval, cls) for interval in range(4) for cls in range(len(_CLASSES))}
    assert sorted(keys, key=lambda key: key[2]) != keys


_EXCHANGE_INTERVAL = 4 * TICKS_PER_SECOND


@st.composite
def exchange_rows(draw):
    """Exchanges over several intervals and both classes, in any order, with
    ``MISSING`` in any of delivered, d_comm and score, independently."""
    ticks = st.integers(0, 6 * _EXCHANGE_INTERVAL) | st.sampled_from(
        [0, _EXCHANGE_INTERVAL - 1, _EXCHANGE_INTERVAL, 3 * _EXCHANGE_INTERVAL + 7])
    return draw(st.lists(st.builds(
        records.Exchange,
        st.integers(0, 2**40),
        st.sampled_from(list(MessageClass)),
        st.integers(0, 400),
        ticks,
        st.none() | ticks,
        st.none() | st.integers(1, 2 * _EXCHANGE_INTERVAL),
        st.sampled_from([None, 0, 1]),
    ), max_size=60))


# Delivered with d_comm missing, which no pinned run produces, next to every
# other pattern of missing cells, over three intervals and both classes.
@example([records.Exchange(8, MessageClass.CONTROL, 3, 2 * _EXCHANGE_INTERVAL + 1,
                          2 * _EXCHANGE_INTERVAL + 9, None, 1),
          records.Exchange(2, MessageClass.MONITORING, 7, _EXCHANGE_INTERVAL, None, None, 0),
          records.Exchange(4, MessageClass.MONITORING, 7, 5, 123_457, 99_999, 0),
          records.Exchange(6, MessageClass.CONTROL, 1, 3, None, None, None),
          records.Exchange(10, MessageClass.MONITORING, 2, 4, 17, 11, None)])
@given(exchange_rows())
def test_exchange_log_matches_the_row_reference(rows):
    result = types.SimpleNamespace(exchange_rows=records.exchanges(rows),
                                   cfg=types.SimpleNamespace(interval_ticks=_EXCHANGE_INTERVAL))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_exchange_log(out / "columns.csv", result)
        reference_reports.write_exchange_log(out / "rows.csv", rows, _EXCHANGE_INTERVAL)
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


@pytest.mark.parametrize("overrides", [{}, dict(arrival_model="poisson", tau_s=0.5, lambda_c_hz=0.2)])
def test_records_come_in_interval_order(overrides):
    # The reports read each interval's records as one run: legs in delivery
    # order, exchanges in creation intervals that never decrease.  A slot
    # creates its polls before its commands, so with Poisson polls in 0.5 s
    # slots creation ticks step back within an interval.
    run = run_scenario(small_cfg(**overrides))
    delivered, created = run.comm_legs.delivered, run.exchange_rows.created
    w = run.cfg.interval_ticks
    assert len(delivered) > 100 and len(created) > 100
    assert all(a <= b for a, b in zip(delivered, delivered[1:]))
    assert all(a // w <= b // w for a, b in zip(created, created[1:]))
    if overrides:
        assert any(b < a for a, b in zip(created, created[1:]))


def test_exchange_columns_take_at_most_64_bytes_an_exchange():
    rows = run_scenario(dataclasses.replace(ScenarioConfig(), duration_s=120.0)).exchange_rows
    columns = [getattr(rows, name) for name in rows.__slots__]
    assert len(rows) > 1000
    assert sum(sys.getsizeof(column) for column in columns) / len(rows) <= 64


def test_reliability_csv_recomputed_from_exchange_log(tmp_path):
    # After a failover the DMR link clogs: the log holds answered, late,
    # unanswered (scored 0) and undecided (empty) exchanges.  Each
    # reliability.csv row must follow from the logged scores alone.
    cfg = small_cfg(duration_s=200.0, lambda_c_hz=1 / 5, qos="fifo", lte_fail_at_s=50.0)
    write_outputs(tmp_path, run_scenario(cfg), exchange_log=True)
    with (tmp_path / "exchange_log.csv").open(newline="") as handle:
        log = list(csv.DictReader(handle))
    assert any(row["delivered_s"] == "" and row["within_limit"] == "0" for row in log)
    assert any(row["within_limit"] == "" for row in log)

    scores = defaultdict(lambda: defaultdict(list))
    for row in log:
        if row["within_limit"]:
            t_s = float(row["created_s"]) // cfg.metrics_interval_s * cfg.metrics_interval_s
            scores[(t_s, row["class"])][row["node"]].append(int(row["within_limit"]))
    expected = {}
    for key, by_node in scores.items():
        values = [statistics.fmean(s) for s in by_node.values()]
        half = 1.96 * statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
        expected[key] = (statistics.fmean(values), half)

    with (tmp_path / "reliability.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {(float(row["t_s"]), row["class"]) for row in rows} == set(expected)
    for row in rows:
        mean, half = expected[(float(row["t_s"]), row["class"])]
        assert float(row["mean"]) == pytest.approx(mean, abs=1e-9)
        assert float(row["ci_low"]) == pytest.approx(mean - half, abs=1e-9)
        assert float(row["ci_high"]) == pytest.approx(mean + half, abs=1e-9)


def test_run_result_holds_no_message(small_run):
    # Each exchange is closed into ticks: no message outlives its delivery.
    # Classes, modules, functions and enum members are not followed, since
    # they lead to the whole interpreter rather than to the run's state.
    seen = set()
    stack = [small_run]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType, enum.Enum)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, SimMessage), obj
        stack.extend(gc.get_referents(obj))
    assert len(seen) > len(small_run.exchange_rows)


def test_sweep_requires_two_taus():
    with pytest.raises(UsageError):
        run_tau_sweep(small_cfg(), [0.01])


def test_sweep_validates_every_tau_before_the_first_run(monkeypatch):
    calls = []

    def run_scenario(cfg, **kwargs):
        calls.append(cfg.tau_s)
        raise AssertionError(f"ran tau_s={cfg.tau_s} before every swept config was validated")

    monkeypatch.setattr(runner, "run_scenario", run_scenario)
    with pytest.raises(ValidationError, match="metrics_interval_s: must be a multiple of tau_s"):
        run_tau_sweep(small_cfg(), [0.1, 0.3])
    assert calls == []


def test_sweep_runs_each_tau_with_same_seed():
    cfg = small_cfg(duration_s=50.0, count_hva_lv=5, lambda_m_hz=1 / 5)
    rows = run_tau_sweep(cfg, [0.1, 0.01])
    assert [tau for tau, _, _ in rows] == [0.1, 0.01]
    assert rows[0][1] >= rows[1][1]  # coarser slots cannot lower the mismatch
