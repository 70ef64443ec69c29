"""Full-stack integration: traffic → records → negotiation → PoC → verify.

The complete TLC lifecycle on the simulated testbed, including the paper's
central claims as executable assertions.
"""

import random

import pytest

from repro.core import (
    DataPlan,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
)
from repro.crypto import generate_keypair
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import VRIDGE_DL, WEBCAM_UDP_UL
from repro.poc import NegotiationDriver, PlanParams, PublicVerifier


@pytest.fixture(scope="module")
def keys():
    rng = random.Random(31)
    return generate_keypair(512, rng), generate_keypair(512, rng)


class TestFullLifecycle:
    def _negotiate_cycle(self, config, keys, seed=21):
        """Run a scenario cycle and take its records through the PoC."""
        runner = ScenarioRunner(config.with_(n_cycles=1, seed=seed))
        runner.simulate()
        usage = runner.session.collect()[0]
        edge_key, operator_key = keys
        plan = DataPlan(c=config.c, cycle_duration_s=config.cycle_duration_s)
        driver = NegotiationDriver(
            plan, usage.cycle.t_start,
            OptimalStrategy(
                PartyKnowledge(PartyRole.EDGE, usage.edge_sent_record, usage.edge_received_estimate),
                accept_tolerance=0.05,
            ),
            OptimalStrategy(
                PartyKnowledge(
                    PartyRole.OPERATOR,
                    usage.operator_received_record,
                    usage.operator_sent_estimate,
                ),
                accept_tolerance=0.05,
            ),
            edge_key, operator_key, random.Random(seed),
        )
        return usage, plan, driver.run()

    def test_uplink_cycle_to_verified_poc(self, keys):
        usage, plan, result = self._negotiate_cycle(WEBCAM_UDP_UL, keys)
        edge_key, operator_key = keys
        verifier = PublicVerifier(plan)
        params = PlanParams(usage.cycle.t_start, usage.cycle.t_end, plan.c)
        report = verifier.verify(result.poc, params, edge_key.public, operator_key.public)
        assert report.ok
        assert report.volume == result.volume

    def test_negotiated_volume_tracks_ground_truth(self, keys):
        usage, plan, result = self._negotiate_cycle(WEBCAM_UDP_UL, keys)
        expected = plan.expected_charge(usage.true_sent, usage.true_received)
        assert result.volume == pytest.approx(expected, rel=0.05)

    def test_downlink_cycle_to_verified_poc(self, keys):
        usage, plan, result = self._negotiate_cycle(VRIDGE_DL, keys, seed=22)
        edge_key, operator_key = keys
        params = PlanParams(usage.cycle.t_start, usage.cycle.t_end, plan.c)
        report = PublicVerifier(plan).verify(
            result.poc, params, edge_key.public, operator_key.public
        )
        assert report.ok

    def test_poc_claims_reflect_minimax_flip(self, keys):
        """The rational claims are (≈received, ≈sent) — recoverable by
        any third party from the PoC chain."""
        usage, plan, result = self._negotiate_cycle(WEBCAM_UDP_UL, keys)
        edge_claim, operator_claim = result.poc.claims
        assert edge_claim == pytest.approx(usage.true_received, rel=0.1)
        assert operator_claim == pytest.approx(usage.true_sent, rel=0.1)


class TestHeadlineClaims:
    """The paper's abstract numbers as (band-checked) assertions."""

    @pytest.fixture(scope="class")
    def pooled(self):
        from repro.experiments.figures import _pooled_results

        return {
            "udp": _pooled_results(WEBCAM_UDP_UL, seed=41, n_cycles=2),
            "vr": _pooled_results(VRIDGE_DL, seed=43, n_cycles=2),
        }

    @staticmethod
    def _reduction(results, scheme):
        import statistics

        legacy = statistics.mean(r.mean_delta_mb_per_hr("legacy") for r in results)
        tlc = statistics.mean(r.mean_delta_mb_per_hr(scheme) for r in results)
        return 1.0 - tlc / legacy

    def test_vr_gap_reduction_near_87_percent(self, pooled):
        """Paper: TLC reduces the VR gap by 87.5 %."""
        assert self._reduction(pooled["vr"], "tlc-optimal") > 0.6

    def test_udp_webcam_gap_reduction_strong(self, pooled):
        """Paper: 71.5 % reduction on UDP WebCam."""
        assert self._reduction(pooled["udp"], "tlc-optimal") > 0.5

    def test_optimal_relative_gap_small(self, pooled):
        """Paper: TLC-optimal keeps ε ≤ 2.5 %."""
        import statistics

        for results in pooled.values():
            epsilon = statistics.mean(r.mean_epsilon("tlc-optimal") for r in results)
            assert epsilon <= 0.035
