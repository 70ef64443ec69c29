"""Differential parity fuzzing: batched vs reference over random chaos.

The hand-picked matrix in ``test_parity.py`` pins the configurations we
thought of; this harness searches the ones we didn't.  Hypothesis draws
a :class:`~repro.experiments.scenarios.ScenarioConfig` across every
dimension the general executor mirrors — direction × workload ×
congestion × outage η × quota × RRC pressure (cycle length drives the
counter-check interval, frame rate drives release/re-setup cycling) ×
handover schedule × fault schedule (random specs over every fault kind
with glob-targeted injection points) — runs the same scenario on both
kernels and requires the *entire observable simulation state* to match
bit-for-bit: usage records, raw counter point series, RSS walks, queue
contents, policer internals, the fault trace, every RNG stream's state
and the full metrics snapshot.

Profiles come from ``tests/conftest.py``: ``dev`` (default) runs 25
derandomized examples for the inner loop; ``HYPOTHESIS_PROFILE=ci``
runs 250.  Whole-scenario doubles are tier-2 work, so the module is
marked ``slow`` and excluded from the tier-1 command by ``addopts``.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import ALL_APPS
from repro.netsim.faults import (
    BURST_LOSS,
    CLOCK_DRIFT,
    CLOCK_SKEW,
    CORRUPT,
    DUPLICATE,
    FAULT_KINDS,
    REORDER,
    FaultSchedule,
    FaultSpec,
)

pytestmark = pytest.mark.slow


def counter_points(counter):
    return (list(counter._times), list(counter._cums), counter._total)


def flow(stats):
    return (stats.packets, stats.bytes)


def packet_key(p):
    # Everything but pkt_id: that field is a process-global monotonic
    # counter, so it cannot match between two runs in one process (two
    # reference runs differ in it too).
    return (
        p.size,
        p.flow_id,
        p.direction,
        p.qci,
        p.transport,
        p.created_at,
        p.seq,
        p.dropped_at,
        p.delivered_at,
    )


def queue_state(q):
    return (
        [packet_key(p) for p in q._queue],
        q._bytes,
        q.capacity_bytes,
        q.drop_layer,
    )


def deep_state(runner, result):
    """Every observable the simulation produces, as one comparable value.

    Strictly wider than what the charging study reads: raw point series,
    buffered packets and RNG stream states catch divergence that happens
    to cancel out by the next cycle boundary.
    """
    radio = runner.session.access.radio
    ue = runner.network.enodeb.ue(str(runner.session.device.imsi))
    bearer = runner.network.bearers.by_flow(runner.session.flow_id)
    enodeb = runner.network.enodeb
    policer = runner.network.spgw._policers.get(runner.session.flow_id)
    return {
        "usages": result.usages,
        "outcomes": result.outcomes,
        "bitrate": result.measured_bitrate_bps,
        "points": [
            counter_points(c)
            for c in (
                runner.session.device.ul_monitor.counter,
                runner.session.device.dl_monitor.counter,
                runner.session.server.ul_monitor.counter,
                runner.session.server.dl_monitor.counter,
                runner.session.access.modem.ul_sent,
                runner.session.access.modem.dl_received,
                runner.session.counter_monitor._dl_reports,
                runner.session.counter_monitor._ul_reports,
                bearer.uplink,
                bearer.downlink,
            )
        ],
        "counter_monitor": (
            runner.session.counter_monitor.reports_received,
            runner.session.counter_monitor.resets_observed,
            runner.session.counter_monitor._last_dl,
            runner.session.counter_monitor._last_ul,
        ),
        "bearer_usage": (bearer.first_usage, bearer.last_usage),
        "radio": (radio._current_rss, radio.connected, list(radio.rss_history)),
        "rrc": (
            ue.rrc.state,
            ue.rrc.setups,
            ue.rrc.releases,
            ue.rrc.counter_checks_sent,
        ),
        "rlf_count": ue.rlf_count,
        "queues": (queue_state(ue.dl_buffer), queue_state(runner.session.access._ul_buffer)),
        "policer": policer
        and (policer.rate_bps, policer._tokens, policer._last),
        "handover": runner.session.handover
        and (runner.session.handover._saved_capacity, runner.session.handover._saved_drop_layer),
        "air": [
            flow(getattr(air, pick))
            for air in (enodeb.uplink_air, enodeb.downlink_air)
            for pick in ("offered", "dropped", "transmitted")
        ],
        "middlebox": (
            flow(runner.network.middlebox.passed),
            flow(runner.network.middlebox.dropped),
        ),
        "latencies": runner.session.server.stats.latencies,
        "fault_trace": result.fault_trace,
        "rng": {
            name: stream.getstate()
            for name, stream in runner.rng._streams.items()
        },
        "net_rng": {
            name: stream.getstate()
            for name, stream in runner.network.rng._streams.items()
        }
        if runner.network.rng is not runner.rng
        else None,
        "metrics": runner.metrics.snapshot().to_dict(),
    }


#: Glob patterns exercising every match shape a schedule can take:
#: exact points, wildcards spanning both lane points, clock-only
#: targets, and globs matching nothing at all (which must leave the
#: lane on the fold loops with zero fault RNG draws).
FUZZ_TARGETS = [
    "*", "uplink", "downlink", "*link*",
    "modem", "edge-clock", "operator-clock", "no-match-*",
]

_PROB_KINDS = (BURST_LOSS, REORDER, DUPLICATE, CORRUPT)


@st.composite
def fault_schedules(draw):
    """1–4 random specs over every fault kind and target shape."""
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(FAULT_KINDS))
        if kind in _PROB_KINDS:
            magnitude = draw(st.sampled_from([0.02, 0.1, 0.3, 0.8]))
        elif kind == CLOCK_SKEW:
            magnitude = draw(st.sampled_from([-0.05, 0.05, 0.2]))
        elif kind == CLOCK_DRIFT:
            magnitude = draw(st.sampled_from([-400.0, 150.0, 300.0]))
        else:
            magnitude = 1.0
        specs.append(
            FaultSpec(
                kind,
                start=draw(st.sampled_from([0.0, 1.0, 5.0, 9.5])),
                duration=draw(st.sampled_from([None, 0.5, 2.0, 6.0])),
                target=draw(st.sampled_from(FUZZ_TARGETS)),
                magnitude=magnitude,
                jitter_s=draw(st.sampled_from([0.0, 0.01, 0.05]))
                if kind in (REORDER, DUPLICATE)
                else 0.0,
            )
        )
    return FaultSchedule(name="fuzz", specs=tuple(specs))


@st.composite
def chaos_configs(draw):
    """A ScenarioConfig across every batched-eligible chaos dimension."""
    base = draw(st.sampled_from(ALL_APPS))  # direction × workload × qci
    kwargs = dict(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        n_cycles=draw(st.sampled_from([1, 2])),
        # Short cycles also squeeze the derived RRC counter-check
        # interval down to its 50 ms floor — maximum check pressure.
        cycle_duration_s=draw(st.sampled_from([4.0, 8.0, 15.0])),
        background_mbps=draw(st.sampled_from([0.0, 0.0, 40.0, 80.0])),
    )
    if draw(st.booleans()):
        kwargs["outage_eta"] = draw(st.sampled_from([0.02, 0.05, 0.1, 0.25]))
        kwargs["mean_outage_s"] = draw(st.sampled_from([0.5, 1.93, 4.0]))
    if draw(st.booleans()):
        kwargs["quota_bytes"] = draw(
            st.sampled_from([20_000, 60_000, 150_000, 1_000_000])
        )
        kwargs["quota_throttle_bps"] = draw(
            st.sampled_from([64_000.0, 128_000.0, 256_000.0])
        )
    if draw(st.booleans()):
        kwargs["handover_interval_s"] = draw(st.sampled_from([1.5, 3.0, 6.0]))
        kwargs["handover_interruption_s"] = draw(st.sampled_from([0.02, 0.05, 0.2]))
        kwargs["handover_x2"] = draw(st.booleans())
    if draw(st.booleans()):
        kwargs["sla_budget_s"] = draw(st.sampled_from([0.0001, 0.05]))
    if draw(st.booleans()):
        kwargs["faults"] = draw(fault_schedules())
    config = base.with_(**kwargs)
    # RRC release/re-setup cycling: sparse frame rates idle past the
    # 10 s inactivity timeout between frames.
    if draw(st.booleans()):
        config = config.with_(
            workload=replace(config.workload, fps=draw(st.sampled_from([0.05, 0.5])))
        )
    return config


@given(config=chaos_configs())
def test_batched_reference_parity_fuzz(config):
    ref = ScenarioRunner(config, kernel="reference")
    bat = ScenarioRunner(config, kernel="batched")
    ref_state = deep_state(ref, ref.run())
    bat_state = deep_state(bat, bat.run())
    assert bat.session.kernel_used == "batched"
    assert ref.session.kernel_used == "reference"
    for key in ref_state:
        assert ref_state[key] == bat_state[key], f"divergence in {key!r}"
