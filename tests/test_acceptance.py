"""Acceptance suite: every shipped criterion at its stated tolerance.

Full-scale runs use the default desk configuration: the complete 365-node
topology, 1600 simulated seconds, 10 ms slots.  Each criterion prints one
PASS/FAIL line (visible with ``pytest -s``).
"""

import dataclasses
import hashlib
import math
import statistics
from contextlib import contextmanager

import pytest

from gridcosim.config import ScenarioConfig
from gridcosim.links import TransportFrame, WfqQueue
from gridcosim.messages import MISSING, MessageClass
from gridcosim.metrics import class_reliability_ci, ddf
from gridcosim.runner import run_scenario, run_tau_sweep, write_outputs
from gridcosim.simtime import TICKS_PER_SECOND
from tests.test_metrics import _exchange, _node_reliability

MON = MessageClass.MONITORING
CTL = MessageClass.CONTROL

FAIL_AT_S = 500.0
INTERVAL_S = 25.0


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {title}")
        raise
    print(f"criterion {number}: PASS  {title}")


def full_cfg(**overrides):
    cfg = dataclasses.replace(ScenarioConfig(), **overrides)
    cfg.validate()
    assert cfg.duration_s == 1600.0 and cfg.tau_s == 0.01
    return cfg


@pytest.fixture(scope="module")
def default_run():
    return run_scenario(full_cfg())


@pytest.fixture(scope="module")
def fifo_fail_run():
    return run_scenario(full_cfg(qos="fifo", lte_fail_at_s=FAIL_AT_S))


@pytest.fixture(scope="module")
def wfq_run():
    return run_scenario(full_cfg(qos="wfq", lte_fail_at_s=FAIL_AT_S))


@pytest.fixture(scope="module")
def wfqra_run():
    return run_scenario(full_cfg(qos="wfq-ra", lte_fail_at_s=FAIL_AT_S))


# (trace_digest, then the SHA-256 of reliability.csv, delay.csv,
# exchange_log.csv and link_log.csv, then RunResult.ddf) of each acceptance
# run; a change that alters any of them changes the reproduction.
PINNED_OUTPUTS = {
    "default_run": (
        "1cfb1b5d124d98042c52ca617692d7be1f19f1bf304c8b2bc05a77029ae251f2",
        "828c3cde8629da4cd6a4a78ade9e43e2e43244725a1434a842e8596a7c42f5b8",
        "3e011660e02bf13ebfeeacc3c259845cd1dffa829286b7134c16b5dacaef3f87",
        "d6618e9e1d12e6f7d509c9577abc16afd404f6aa82e6bb5296f5aa7956133836",
        "55cdfa28bc61bd8f5069702470af81349a79b7757134e77dd3575c0fd52f6c7d",
        8.72510893710823,
    ),
    "fifo_fail_run": (
        "7d29dd6f9cc1bace10a6434d00676c3de8cabd53e7c7dc76a2bbadf13c62b0a5",
        "4bb2d7100b6ef25c4e67542e444ab00df4f532c5dac08db5366b0f0098da4d76",
        "3265c204280b05e515c59220127256990f6987e74847dabb340d035c8259720e",
        "5c0f27ef07c37113ee37dc6891193eb5cc2602a39e563b6aef346521354242d0",
        "799cc455efb7eb4a74b327c4f9d2653d84607ecec5f5887ecd54704a0c92f45a",
        8.454801071769342,
    ),
    "wfq_run": (
        "529ed3252a0e2d8553c6ccbb6e11aa3da899b9f555ed4a86bb331730b7dc21c0",
        "0269adf9ce338eb80e8afc802f7876fc754f8a29679d04cd2756c2d867d37a30",
        "55354d13fc028793953c6c4bb8fed98da7bf89314180c50a9df3d89fff9e410d",
        "871325f37b1a8f22c9f0cbf03c805b0824aed82450823f4a9ab97c8f16b61b7b",
        "08374a6468a1561d08628cb6078eae36c779e033161c5c8db7b709422a94e11f",
        8.456100323780301,
    ),
    "wfqra_run": (
        "04ce964c85572d9efb4c38aaea2540318fcfc9324bdc5146ebe308c505512586",
        "956fd084a931598eff72854293b422e09959750b2e7055bdfbd78dd958c0e11f",
        "72926bd0cbdc97c2d7f42f8738b5e14d09f21b27120de16cfc069f9a042b550b",
        "f8f3e42b70c6061f0d729c9681cb7689d037b336fa345aab6c175d6bd96e42f6",
        "d04bd61d1dbe631674a5dd40f0dda5ae367e840f62363fb0d16d2421463a649e",
        8.68230230250685,
    ),
}


def _rows(result, msg_class):
    return [m for m in result.reliability if m.msg_class is msg_class]


# ---------------------------------------------------------------------------

def test_criterion_1_metric_oracles_exact():
    with criterion(1, "metric unit oracles match independent computation to 1e-9"):
        rel = 1e-9
        values = [1, 1, 0.5, 0.5]
        oracle_mean = statistics.fmean(values)
        oracle_half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
        mean, half = class_reliability_ci({i: v for i, v in enumerate(values)})
        assert abs(mean - oracle_mean) <= rel * oracle_mean
        assert abs(half - oracle_half) <= rel * oracle_half
        assert abs(half - 0.2829016319029166) <= rel * half

        assert ddf([(2.5, 2.0)] * 4) == pytest.approx(25.0, rel=rel)
        assert ddf([(2.0, 2.0)] * 3) == 0.0

        # Exchanges scored against a 30 s limit, then read back per node.
        records = [_exchange(1.0)] * 8 + [_exchange(45.0)] * 2
        assert _node_reliability(records) == pytest.approx(0.8, rel=rel)
        assert _node_reliability([_exchange(31.0)] * 3 + [_exchange(None)]) == 0.0


def test_criterion_2_synchronization_bound(default_run):
    with criterion(2, "0 <= d_it - d_comm <= 4*tau for every completed exchange"):
        tau_ticks = default_run.cfg.tau_ticks
        rows = default_run.exchange_rows
        completed = [(created, delivered, d_comm)
                     for created, delivered, d_comm in zip(rows.created, rows.delivered, rows.d_comm)
                     if delivered != MISSING and d_comm != MISSING]
        assert len(completed) > 10_000
        violations = [row for row in completed if not 0 <= row[1] - row[0] - row[2] <= 4 * tau_ticks]
        assert violations == []
        # Each one-way leg individually stays within two boundary crossings.
        leg_violations = [leg for leg in default_run.comm_legs
                          if not 0 < leg[2] - leg[3] <= 2 * tau_ticks]
        assert leg_violations == []


def test_criterion_3_conservation(default_run, fifo_fail_run, wfq_run, wfqra_run):
    with criterion(3, "published = delivered + failure-lost + in-flight, per class"):
        for result in (default_run, fifo_fail_run, wfq_run, wfqra_run):
            for cls, counters in result.conservation.items():
                assert counters["received"] == (
                    counters["delivered"] + counters["lost_failure"]
                    + counters["dropped_noroute"] + counters["in_flight_at_end"]
                ), (result.cfg.qos, cls)
            fed = result.federation
            assert fed.messages_published == fed.messages_delivered


def test_criterion_4_failure_reproduction(fifo_fail_run):
    with criterion(4, "fifo + failure at 500 s: monitoring healthy before, collapsed after"):
        monitoring = _rows(fifo_fail_run, MON)
        before = [m for m in monitoring if (m.interval + 1) * INTERVAL_S <= FAIL_AT_S]
        after = [m for m in monitoring if m.interval * INTERVAL_S >= 600.0]
        # The final interval may be absent: exchanges born there are still
        # inside their delay limit at the horizon, so they have no outcome.
        assert len(before) == 20 and len(after) >= 39
        assert all(m.mean >= 0.99 for m in before)
        assert all(m.mean <= 0.05 for m in after)


def test_criterion_5_wfq_reproduction(wfq_run):
    with criterion(5, "wfq: control reliability stays 1.0; monitoring collapses"):
        control = _rows(wfq_run, CTL)
        assert control, "no control intervals observed"
        assert all(m.mean == 1.0 for m in control)
        late_monitoring = [m for m in _rows(wfq_run, MON) if m.interval * INTERVAL_S >= 700.0]
        assert late_monitoring
        assert all(m.mean <= 0.2 for m in late_monitoring)


def test_criterion_6_wfq_ra_reproduction(wfqra_run):
    with criterion(6, "wfq-ra: both classes recover, control delay sane, load in budget"):
        for msg_class in (MON, CTL):
            late = [m for m in _rows(wfqra_run, msg_class) if m.interval * INTERVAL_S >= 700.0]
            assert late, msg_class
            assert all(m.mean >= 0.95 for m in late), msg_class

        fail_tick = round(FAIL_AT_S * TICKS_PER_SECOND)
        control_delays = [d_comm / TICKS_PER_SECOND
                          for cls, _k, _dit, d_comm, tick in wfqra_run.comm_legs
                          if cls is CTL and tick >= fail_tick]
        assert control_delays
        mean_control_delay = sum(control_delays) / len(control_delays)
        assert 0.3 <= mean_control_delay <= 2.0

        steady_from_s = 700.0
        offered_bits = sum(off for t_s, link, _qm, _qc, _srv, off, _b in wfqra_run.link_rows
                           if link == "dmr" and t_s >= steady_from_s)
        window_s = 1600.0 - steady_from_s
        budget_bps = (1 - wfqra_run.cfg.alpha_e) * wfqra_run.cfg.dmr_capacity_bps
        assert budget_bps == 1344.0
        assert offered_bits / window_s <= budget_bps


def test_criterion_7_tau_tradeoff():
    with criterion(7, "smaller slots: mismatch non-increasing, wallclock strictly rising"):
        cfg = dataclasses.replace(
            ScenarioConfig(),
            duration_s=2400.0, count_hva_lv=2, count_switch=2, monitor_ders=False,
            lambda_m_hz=1 / 200,
        )
        cfg.validate()
        sweeps = [run_tau_sweep(cfg, [1.0, 0.1, 0.01, 0.001]) for _ in range(3)]
        ddf_values = [row[1] for row in sweeps[0]]
        assert all([row[1] for row in rows] == ddf_values for rows in sweeps[1:])
        # The fastest of three runs per tau: the runs take milliseconds, so
        # one host stall could reorder single runs.
        wallclocks = [min(timings) for timings in zip(*([row[2] for row in rows] for rows in sweeps))]
        assert all(a >= b for a, b in zip(ddf_values, ddf_values[1:])), ddf_values
        assert all(a < b for a, b in zip(wallclocks, wallclocks[1:])), wallclocks


def test_criterion_8_determinism(tmp_path, default_run):
    with criterion(8, "identical flags byte-identical; transports trace-identical"):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_outputs(dir_a, default_run)
        write_outputs(dir_b, run_scenario(full_cfg()))
        for name in ("reliability.csv", "delay.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

        short = dataclasses.replace(
            ScenarioConfig(), duration_s=60.0, qos="wfq-ra", lte_fail_at_s=20.0
        )
        short.validate()
        inproc = run_scenario(short)
        socketed = run_scenario(short, transport="socket")
        assert inproc.federation.trace_digest == socketed.federation.trace_digest
        dir_c = tmp_path / "c"
        dir_d = tmp_path / "d"
        write_outputs(dir_c, inproc)
        write_outputs(dir_d, socketed)
        for name in ("reliability.csv", "delay.csv"):
            assert (dir_c / name).read_bytes() == (dir_d / name).read_bytes(), name


def test_criterion_9_wfq_fairness():
    with criterion(9, "both-backlogged 0.1/0.9 split serves frames 1:9 within 1%"):
        queue = WfqQueue({MON: 0.1, CTL: 0.9})
        total = 10_000
        for _ in range(12_000):
            queue.push(TransportFrame(1, 0, 100, False, MON))
            queue.push(TransportFrame(2, 0, 100, False, CTL))
        served = [queue.pop().msg_class for _ in range(total)]
        mon_share = sum(1 for cls in served if cls is MON)
        assert abs(mon_share - total * 0.1) <= total * 0.01


def test_pinned_outputs(tmp_path, default_run, fifo_fail_run, wfq_run, wfqra_run):
    runs = {"default_run": default_run, "fifo_fail_run": fifo_fail_run,
            "wfq_run": wfq_run, "wfqra_run": wfqra_run}
    for name, result in runs.items():
        out_dir = tmp_path / name
        write_outputs(out_dir, result, exchange_log=True, link_log=True)
        actual = (result.federation.trace_digest,) + tuple(
            hashlib.sha256((out_dir / csv).read_bytes()).hexdigest()
            for csv in ("reliability.csv", "delay.csv", "exchange_log.csv", "link_log.csv")
        ) + (result.ddf,)
        assert actual == PINNED_OUTPUTS[name], name
