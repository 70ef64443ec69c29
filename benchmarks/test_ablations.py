"""Ablations of TLC's design choices (DESIGN.md §6).

Not paper figures — these quantify why the design is the way it is:

* strategy matrix: what an honest party loses against a rational one
  (the paper's §5.2 caveat on mixed honesty);
* acceptance tolerance: rounds vs. residual gap trade-off;
* RRC COUNTER CHECK vs. tamperable user-space monitors (§5.4's strawmen).
"""

import random
import statistics

from repro.core import (
    DataPlan,
    HonestStrategy,
    NegotiationEngine,
    OptimalStrategy,
    PartyKnowledge,
    PartyRole,
)
from repro.edge.tamper import ScalingTamper
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenarios import VRIDGE_DL

X_E, X_O = 1_000_000, 930_000
PLAN = DataPlan(c=0.5)


def _negotiate(edge_cls, operator_cls):
    edge = edge_cls(PartyKnowledge(PartyRole.EDGE, X_E, X_O))
    operator = operator_cls(PartyKnowledge(PartyRole.OPERATOR, X_O, X_E))
    return NegotiationEngine(PLAN, edge, operator).run()


def test_ablation_strategy_matrix(benchmark, archive):
    """Honest play is exploitable; rational-vs-rational is exact."""

    def matrix():
        return {
            (e_name, o_name): _negotiate(e_cls, o_cls).volume
            for e_name, e_cls in [("honest", HonestStrategy), ("rational", OptimalStrategy)]
            for o_name, o_cls in [("honest", HonestStrategy), ("rational", OptimalStrategy)]
        }

    volumes = benchmark.pedantic(matrix, rounds=1, iterations=1)
    expected = 965_000
    lines = ["Ablation: strategy matrix (x̂ = 965,000)"]
    for pair, volume in volumes.items():
        lines.append(f"  edge={pair[0]:8s} operator={pair[1]:8s} -> x={volume}")
    archive("ablation_strategies", "\n".join(lines))

    assert volumes[("honest", "honest")] == expected
    assert volumes[("rational", "rational")] == expected
    # A rational operator extracts more from an honest edge, and vice
    # versa — but always within the Theorem 2 bound.
    assert expected <= volumes[("honest", "rational")] <= X_E
    assert X_O <= volumes[("rational", "honest")] <= expected


def test_ablation_acceptance_tolerance(benchmark, archive):
    """Tolerance trades negotiation rounds against residual gap."""

    def sweep():
        rows = []
        for tol in (0.0, 0.01, 0.03, 0.05):
            rounds, gaps = [], []
            for seed in range(40):
                rng = random.Random(seed)
                noisy_e = int(X_E * rng.gauss(1.0, 0.02))
                noisy_o = int(X_O * rng.gauss(1.0, 0.02))
                edge = OptimalStrategy(
                    PartyKnowledge(PartyRole.EDGE, noisy_e, noisy_o), accept_tolerance=tol
                )
                operator = OptimalStrategy(
                    PartyKnowledge(PartyRole.OPERATOR, noisy_o, noisy_e), accept_tolerance=tol
                )
                result = NegotiationEngine(PLAN, edge, operator).run()
                rounds.append(result.rounds)
                gaps.append(abs(result.volume - 965_000) / 965_000)
            rows.append((tol, statistics.mean(rounds), statistics.mean(gaps) * 100))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation: acceptance tolerance under 2% record noise",
             "  tol    rounds   gap(%)"]
    for tol, mean_rounds, gap_pct in rows:
        lines.append(f"  {tol:<5}  {mean_rounds:6.2f}  {gap_pct:6.2f}")
    archive("ablation_tolerance", "\n".join(lines))

    # Strict cross-checks need the most rounds under noisy records.
    assert rows[0][1] >= rows[-1][1]
    # With 5% tolerance, noisy optimal play is effectively 1-round.
    assert rows[-1][1] <= 1.6


def test_ablation_rrc_vs_userspace_monitor(benchmark, archive):
    """§5.4's strawman 1 vs. TLC: a tampering edge wipes out a user-space
    operator monitor, while the RRC record is untouched."""

    def run():
        runner = ScenarioRunner(VRIDGE_DL.with_(n_cycles=2, seed=91))
        runner.simulate()
        usage = runner.session.collect()[0]
        # Strawman 1: the operator reads the device's user-space counter,
        # which a selfish edge scales down to 30 %.
        strawman_view = ScalingTamper(runner.session.device.dl_monitor, 0.3)
        strawman_record = strawman_view.reported_usage(
            usage.cycle.t_start, usage.cycle.t_end
        )
        return usage, strawman_record

    usage, strawman_record = benchmark.pedantic(run, rounds=1, iterations=1)
    rrc_record = usage.operator_received_record
    truth = usage.true_received
    archive(
        "ablation_monitors",
        "Ablation: operator downlink record source under edge tampering\n"
        f"  ground truth received : {truth}\n"
        f"  RRC COUNTER CHECK     : {rrc_record} "
        f"({abs(rrc_record - truth) / truth:.1%} error)\n"
        f"  user-space (tampered) : {strawman_record} "
        f"({abs(strawman_record - truth) / truth:.1%} error)",
    )
    assert abs(rrc_record - truth) / truth < 0.1
    assert strawman_record < truth * 0.5  # the strawman collapses
