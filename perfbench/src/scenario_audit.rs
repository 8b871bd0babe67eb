//! `scenario-audit`: the shipped network regimes, one cell at a time,
//! each simulated and then judged against the paper's criteria.
//!
//! A round is every cell of the ten shipped scenarios
//! (`btadt_bench::scenarios::shipped_matrix`) over the fixed seeds 1–100
//! (1–2 at smoke scale) — in an order shuffled by the run's `--seed`, so
//! every run does the same cells.  A cell (the primary op) builds the
//! miners, runs the simulation (netsim, PoW replicas, gossip delta-sync),
//! extracts the histories, judges BT Strong and Eventual Consistency and
//! computes the honest replicas' divergence with `ReachForest` — the steps
//! of `btadt_bench::scenarios::run_cell`, each timed on its own.
//!
//! The first round also judges every cell with the reference checkers and
//! the positional `mcp_len` walk, outside the timed phase; later rounds
//! must reproduce the first round's outcomes exactly.

use std::cell::RefCell;
use std::sync::Arc;

use btadt_bench::scenarios::{shipped_matrix, WITHHOLD_DELAY};
use btadt_core::{
    eventual_consistency, eventual_consistency_reference, strong_consistency,
    strong_consistency_reference, BtHistory, ReachForest,
};
use btadt_history::ConsistencyCriterion;
use btadt_netsim::{Scenario, SimTime, Simulator};
use btadt_protocols::extract::ReplicaLog;
use btadt_protocols::{build_histories, build_miners, scenario_pow_config, Miner};
use btadt_types::{AlwaysValid, Blockchain, LengthScore};

use crate::probe::{now_ns, Probe};
use crate::stats::Rng;
use crate::{Scale, Work, Workload};

/// Seeds each scenario runs under: `1..=cell_seeds(scale)`.
fn cell_seeds(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 100,
        Scale::Smoke => 2,
    }
}

/// What one cell produced — deterministic in (scenario, seed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    /// Index into the shipped scenarios.
    pub scenario: usize,
    /// Cell seed.
    pub seed: u64,
    /// Simulator events.
    pub events: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Honest replicas agree on the tip at the end.
    pub converged: bool,
    /// Deepest honest divergence (max height − common prefix).
    pub divergence: u64,
    /// BT Strong Consistency admits the history.
    pub strong: bool,
    /// BT Eventual Consistency admits the history.
    pub eventual: bool,
    /// Operations in the judged history.
    pub history_ops: u64,
    /// Blocks created by all miners.
    pub blocks_created: u64,
    /// Sync requests, retries and orphaned batch blocks of the honest
    /// replicas (adversaries expose no gossip counters).
    pub sync: (u64, u64, u64),
}

/// The shipped scenarios and the seeded cell order.
pub struct Inputs {
    scenarios: Vec<Scenario>,
    /// `(scenario index, seed)` in round order.
    pub cells: Vec<(usize, u64)>,
    /// The first round's records, which every later round must repeat.
    first: RefCell<Option<Vec<CellRecord>>>,
}

/// A round's records, with the reference judgements of the first round.
pub struct Output {
    /// One record per cell, in round order.
    pub records: Vec<CellRecord>,
    /// Per cell, the reference judgement (first round only).
    pub reference: Vec<Option<Reference>>,
}

fn positional_divergence(chains: &[Blockchain]) -> u64 {
    let mut depth = 0;
    for (i, a) in chains.iter().enumerate() {
        for b in &chains[i + 1..] {
            depth = depth.max(a.height().max(b.height()) - a.mcp_len(b));
        }
    }
    depth
}

/// SC and EC verdicts of the reference checkers and the positional
/// divergence depth.
pub type Reference = (bool, bool, u64);

/// Runs one cell through `probe`.  With `verify`, also judges it with the
/// reference checkers and the positional walk, outside the timed phase.
fn run_cell(
    probe: &mut Probe,
    scenario: &Scenario,
    index: usize,
    seed: u64,
    verify: bool,
) -> (CellRecord, Option<Reference>) {
    let start = now_ns();
    probe.enter("bench.cell");
    let config = scenario_pow_config(seed, scenario.duration);
    let (miners, _) = probe.call("protocols.build_miners", || {
        build_miners(
            scenario.nodes,
            scenario.adversaries,
            &config,
            WITHHOLD_DELAY,
        )
    });
    let (mut sim, _) = probe.call("netsim.new", || {
        Simulator::new(miners, scenario.sim_config(seed), scenario.failure_plan())
    });
    let (report, _) = probe.call("netsim.run", || sim.run());
    let (mut miners, trace) = sim.into_parts();
    let crashed: Vec<usize> = scenario.crashes.iter().map(|&(p, _)| p).collect();
    let live = |i: usize, m: &Miner| m.is_honest() && !crashed.contains(&i);
    let (honest, _) = probe.call("protocols.selected", || {
        for (i, m) in miners.iter_mut().enumerate() {
            if !crashed.contains(&i) {
                m.force_read(SimTime(scenario.max_time));
            }
        }
        miners
            .iter()
            .enumerate()
            .filter(|(i, m)| live(*i, m))
            .map(|(_, m)| m.selected())
            .collect::<Vec<Blockchain>>()
    });
    let converged = honest.windows(2).all(|w| w[0].tip().id == w[1].tip().id);
    let (divergence, _) = probe.call("core.divergence", || {
        let forest = ReachForest::from_chains(honest.iter())?;
        let mut depth = 0;
        for (i, a) in honest.iter().enumerate() {
            for (j, b) in honest.iter().enumerate().skip(i + 1) {
                depth = depth.max(a.height().max(b.height()) - forest.mcp_len(a, forest.tip(j)));
            }
        }
        Some(depth)
    });
    let (history, _) = probe.call("protocols.extract", || {
        let logs: Vec<ReplicaLog> = miners.iter().map(|m| m.log().clone()).collect();
        build_histories(&logs).0
    });
    let judge = |reference: bool, strong: bool, history: &BtHistory| {
        let (score, valid) = (Arc::new(LengthScore), Arc::new(AlwaysValid));
        let criterion = match (reference, strong) {
            (false, true) => strong_consistency(score, valid),
            (false, false) => eventual_consistency(score, valid),
            (true, true) => strong_consistency_reference(score, valid),
            (true, false) => eventual_consistency_reference(score, valid),
        };
        criterion.admits(history)
    };
    let (strong, _) = probe.call("core.sc_check", || judge(false, true, &history));
    let (eventual, _) = probe.call("core.ec_check", || judge(false, false, &history));
    probe.exit();
    probe.lat_ns.push(now_ns() - start);

    let mut sync = (0, 0, 0);
    for m in &miners {
        if let Miner::Honest(r) = m {
            let s = r.sync_stats();
            sync.0 += s.requests_sent;
            sync.1 += s.retries;
            sync.2 += s.batch_orphaned;
        }
    }
    let record = CellRecord {
        scenario: index,
        seed,
        events: report.events_processed,
        delivered: trace.delivered() as u64,
        dropped: trace.dropped() as u64,
        converged,
        divergence: divergence.unwrap_or_else(|| positional_divergence(&honest)),
        strong,
        eventual,
        history_ops: history.len() as u64,
        blocks_created: miners.iter().map(|m| m.log().created.len() as u64).sum(),
        sync,
    };
    let reference = verify.then(|| {
        probe.pause(|| {
            (
                judge(true, true, &history),
                judge(true, false, &history),
                positional_divergence(&honest),
            )
        })
    });
    (record, reference)
}

/// The workload.
pub struct ScenarioAudit;

impl Workload for ScenarioAudit {
    const NAME: &'static str = "scenario-audit";
    const OP: &'static str = "cell";
    const TAIL: f64 = 0.99;
    type Inputs = Inputs;
    /// Whether the round verifies against the reference checkers.
    type State = bool;
    type Output = Output;

    fn setup(seed: u64, scale: Scale) -> Inputs {
        let scenarios = shipped_matrix().scenarios;
        let mut cells: Vec<(usize, u64)> = (0..scenarios.len())
            .flat_map(|s| (1..=cell_seeds(scale)).map(move |seed| (s, seed)))
            .collect();
        Rng::new(seed, 4).shuffle(&mut cells);
        // Warm-up: the first two seeds of every scenario, so code and
        // allocator pages are resident before the timed phase.
        let mut warm = Probe::new(false);
        for (i, scenario) in scenarios.iter().enumerate() {
            for seed in 1..=2 {
                run_cell(&mut warm, scenario, i, seed, false);
            }
        }
        Inputs {
            scenarios,
            cells,
            first: RefCell::new(None),
        }
    }

    fn fresh(_inputs: &Inputs, round: u64) -> bool {
        round == 0
    }

    fn round(inputs: &Inputs, verify: bool, probe: &mut Probe) -> Output {
        let (records, reference) = inputs
            .cells
            .iter()
            .map(|&(s, seed)| run_cell(probe, &inputs.scenarios[s], s, seed, verify))
            .unzip();
        Output { records, reference }
    }

    fn check(inputs: &Inputs, out: &Output) -> Result<(), String> {
        for (r, reference) in out.records.iter().zip(&out.reference) {
            let indexed = (r.strong, r.eventual, r.divergence);
            if let Some(reference) = reference.filter(|reference| *reference != indexed) {
                return Err(format!(
                    "{} seed {}: (SC, EC, divergence) {indexed:?}, reference {reference:?}",
                    inputs.scenarios[r.scenario].name, r.seed
                ));
            }
        }
        let mut first = inputs.first.borrow_mut();
        match first.as_ref() {
            None => *first = Some(out.records.clone()),
            Some(records) => {
                if let Some((a, b)) = records.iter().zip(&out.records).find(|(a, b)| a != b) {
                    return Err(format!("cell not reproduced: {b:?}, first round {a:?}"));
                }
            }
        }
        Ok(())
    }

    fn work(out: &Output) -> Work {
        let sum = |f: fn(&CellRecord) -> u64| out.records.iter().map(f).sum::<u64>();
        vec![
            ("cells", out.records.len() as u64),
            ("events", sum(|r| r.events)),
            ("delivered", sum(|r| r.delivered)),
            ("dropped", sum(|r| r.dropped)),
            ("blocks_created", sum(|r| r.blocks_created)),
            ("history_ops", sum(|r| r.history_ops)),
            ("sc_rejected", sum(|r| u64::from(!r.strong))),
            ("ec_rejected", sum(|r| u64::from(!r.eventual))),
            ("not_converged", sum(|r| u64::from(!r.converged))),
        ]
    }

    fn layers(
        _inputs: &Inputs,
        out: &Output,
        _replay: &mut Probe,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let sum = |f: fn(&CellRecord) -> u64| out.records.iter().map(f).sum::<u64>() as f64;
        Ok(vec![
            ("netsim.events", sum(|r| r.events)),
            ("netsim.delivered", sum(|r| r.delivered)),
            ("netsim.dropped", sum(|r| r.dropped)),
            ("protocols.sync_requests", sum(|r| r.sync.0)),
            ("protocols.sync_retries", sum(|r| r.sync.1)),
            ("protocols.batch_orphaned", sum(|r| r.sync.2)),
            ("history.ops", sum(|r| r.history_ops)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke_round;

    #[test]
    fn smoke_round_agrees_with_the_reference_checkers() {
        let (inputs, out) = smoke_round::<ScenarioAudit>(1);
        assert_eq!(out.records.len(), 20);
        ScenarioAudit::check(&inputs, &out).expect("clean round");
        // A second check of the same records is a reproduced round.
        ScenarioAudit::check(&inputs, &out).expect("reproduced round");
    }

    #[test]
    fn check_rejects_a_round_that_does_not_reproduce_the_first() {
        let (inputs, mut out) = smoke_round::<ScenarioAudit>(1);
        ScenarioAudit::check(&inputs, &out).expect("clean round");
        out.records[0].eventual = !out.records[0].eventual;
        assert!(ScenarioAudit::check(&inputs, &out).is_err());
    }

    #[test]
    fn check_rejects_a_verdict_the_reference_does_not_give() {
        let (inputs, mut out) = smoke_round::<ScenarioAudit>(1);
        out.records[0].strong = !out.records[0].strong;
        assert!(ScenarioAudit::check(&inputs, &out).is_err());
    }
}
