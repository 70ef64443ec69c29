"""Adversarial integration: tamper attacks meeting the negotiation bound.

§5.4's threat scenarios run end-to-end: a selfish party tampers its
records, plays the negotiation, and we check what the protocol lets it
get away with — bounded by the honest counterpart's cross-check.
"""

import random

import pytest

from repro.core import (
    DataPlan,
    HonestStrategy,
    NegotiationEngine,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
)
from repro.edge.tamper import BillCycleResetTamper, CdrInflationTamper, ScalingTamper
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL


@pytest.fixture(scope="module")
def uplink_cycle():
    runner = ScenarioRunner(WEBCAM_UDP_UL.with_(n_cycles=1, seed=51))
    runner.simulate()
    return runner.session.collect()[0], runner


@pytest.fixture(scope="module")
def downlink_cycle():
    runner = ScenarioRunner(VRIDGE_DL.with_(n_cycles=1, seed=52))
    runner.simulate()
    return runner.session.collect()[0], runner


def negotiate(plan, edge_record, edge_est, op_record, op_est, tol=0.05):
    edge = OptimalStrategy(PartyKnowledge(PartyRole.EDGE, edge_record, edge_est), accept_tolerance=tol)
    operator = OptimalStrategy(PartyKnowledge(PartyRole.OPERATOR, op_record, op_est), accept_tolerance=tol)
    return NegotiationEngine(plan, edge, operator).run()


class TestSelfishEdgeTampering:
    def test_netstat_underreport_bounded_by_operator_record(self, uplink_cycle):
        """An edge halving its netstat numbers cannot push the charge
        below (about) what the operator's own record proves."""
        usage, runner = uplink_cycle
        plan = DataPlan(c=0.5)
        # The tampered edge claims from scaled records.
        tampered_sent = int(usage.edge_sent_record * 0.5)
        tampered_est = int(usage.edge_received_estimate * 0.5)
        result = negotiate(
            plan, tampered_sent, tampered_est,
            usage.operator_received_record, usage.operator_sent_estimate,
        )
        floor = usage.operator_received_record * 0.94  # tolerance + slack
        # Either the charge respects the operator's provable floor, or the
        # negotiation never converged (no PoC ⇒ the attack bought nothing).
        assert not result.converged or result.volume >= floor

    def test_bill_cycle_reset_bounded_the_same_way(self, uplink_cycle):
        usage, runner = uplink_cycle
        device_monitor = runner.session.device.ul_monitor
        reset = BillCycleResetTamper(device_monitor, reset_at=usage.cycle.duration * 0.8)
        tampered_sent = reset.reported_usage(usage.cycle.t_start, usage.cycle.t_end)
        assert tampered_sent < usage.edge_sent_record * 0.5  # attack is large
        result = negotiate(
            DataPlan(c=0.5), tampered_sent, tampered_sent,
            usage.operator_received_record, usage.operator_sent_estimate,
        )
        assert not result.converged or result.volume >= usage.operator_received_record * 0.94

    def test_modem_record_unaffected_by_edge_tampering(self, downlink_cycle):
        """The RRC-based operator record comes from the modem, which the
        user-space tamper cannot reach: the operator's knowledge is intact
        regardless of what the edge does to its own monitors."""
        usage, runner = downlink_cycle
        device_monitor = runner.session.device.dl_monitor
        ScalingTamper(device_monitor, 0.1)  # edge tampers its own view
        assert usage.operator_received_record == pytest.approx(
            usage.true_received, rel=0.2
        )


class TestSelfishOperatorTampering:
    def test_cdr_inflation_bounded_by_edge_record(self, downlink_cycle):
        """An operator inflating CDRs by 50 % cannot charge beyond (about)
        the edge's sent record — the Theorem 2 ceiling."""
        usage, runner = downlink_cycle
        plan = DataPlan(c=0.5)
        inflated_record = int(usage.operator_received_record * 1.5)
        inflated_est = int(usage.operator_sent_estimate * 1.5)
        result = negotiate(
            plan,
            usage.edge_sent_record, usage.edge_received_estimate,
            inflated_record, inflated_est,
        )
        ceiling = usage.edge_sent_record * 1.06  # tolerance + slack
        assert not result.converged or result.volume <= ceiling

    def test_flat_inflation_against_honest_edge(self, downlink_cycle):
        usage, runner = downlink_cycle
        plan = DataPlan(c=0.5)
        tamper = CdrInflationTamper(
            _RecordView(usage.operator_received_record), extra_bytes=10**9
        )
        inflated = tamper.reported_usage(usage.cycle.t_start, usage.cycle.t_end)
        edge = HonestStrategy(
            PartyKnowledge(PartyRole.EDGE, usage.edge_sent_record, usage.edge_received_estimate),
            accept_tolerance=0.05,
        )
        operator = OptimalStrategy(
            PartyKnowledge(PartyRole.OPERATOR, inflated, inflated), accept_tolerance=0.05
        )
        result = NegotiationEngine(plan, edge, operator, max_rounds=32).run()
        if result.converged:
            assert result.volume <= usage.edge_sent_record * 1.06
        # Non-convergence is also a win: no PoC, no payment.


class _RecordView:
    """Adapter: expose a fixed volume through the UsageView protocol."""

    def __init__(self, volume: int) -> None:
        self.volume = volume

    def reported_usage(self, t1: float, t2: float) -> int:
        return self.volume


class TestLegacyComparison:
    def test_legacy_has_no_defence_against_inflation(self, downlink_cycle):
        """In legacy 4G/5G the operator's (tampered) CDR *is* the bill —
        unbounded over-charging; under TLC the same attack is bounded."""
        usage, _ = downlink_cycle
        inflated = usage.gateway_count + 10**9
        legacy_bill = inflated  # nothing checks it
        assert legacy_bill - usage.gateway_count == 10**9  # passes through
        assert legacy_bill > usage.true_sent * 10
        tlc = negotiate(
            DataPlan(c=0.5),
            usage.edge_sent_record, usage.edge_received_estimate,
            inflated, inflated,
        )
        assert not tlc.converged or tlc.volume < usage.true_sent * 1.1
