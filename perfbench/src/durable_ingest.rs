//! `durable-ingest`: a checkpointed replica ingesting a mostly linear
//! sequence, then checkpointing, crashing and recovering.
//!
//! A `CheckpointedReplica` with the store drill's full-scale configuration
//! (`btadt_bench::store::scale_config(false)`: prune depth 128, a prune
//! attempt every 512 ingests, 4096-block memory ceiling, 256-record
//! chunks, a checkpoint every 1024 appends).  Set-up generates each
//! episode's sequence from the seed: every eighth block forks off a recent
//! ancestor, the rest extend the newest tip, with seeded work 1–3.  A
//! round is [`EPISODES`] episodes, each on a fresh replica with its own
//! sequence: ingest every block (the primary op), then checkpoint, crash
//! and recover.
//!
//! An episode is four times the memory ceiling long, so the ceiling and
//! repeated prunes of a growing live store are exercised.  Recovery
//! re-admits the whole live store — cold spine included — into the hot
//! window, and the spine alone is 7/8 of an episode: every recovery ends
//! above the ceiling, whatever the seed.  Each recovery is counted as an
//! attempted operation and, when it ends above the ceiling, as a failed
//! one; the pre-crash peak must stay at or below the ceiling.

use std::collections::HashMap;

use btadt_bench::store::scale_config;
use btadt_core::{check_block_tree, check_store_tree_agreement};
use btadt_store::{CheckpointedReplica, RecoveryReport, ReplicaConfig, StoreStats};
use btadt_types::{Block, BlockBuilder, BlockId};

use crate::probe::Probe;
use crate::stats::Rng;
use crate::{Scale, Work, Workload};

/// Blocks per episode: four times the memory ceiling of the scale's
/// configuration (a multiple of 8, so the height is exactly 7/8 of it).
fn episode_blocks(config: &ReplicaConfig) -> usize {
    4 * config.memory_ceiling
}

/// Episodes per round, each generated from its own seed, so that a
/// round mixes several prune schedules.
pub const EPISODES: usize = 2;

/// One episode's sequence and the benchmark's own heaviest-chain choice.
pub struct Episode {
    blocks: Vec<Block>,
    /// Heaviest chain's tip (maximum cumulative work, ties to the
    /// largest id) and its height.
    pub expected_tip: (BlockId, u64),
    /// The tallest block's height: the replica's `height()`.
    pub expected_height: u64,
}

/// The replica configuration and the round's episodes.
pub struct Inputs {
    config: ReplicaConfig,
    /// Episodes in round order.
    pub episodes: Vec<Episode>,
}

fn generate(seed: u64, n: usize) -> Episode {
    let mut rng = Rng::new(seed, 3);
    let genesis = Block::genesis();
    let mut work: HashMap<BlockId, u64> = HashMap::from([(genesis.id, 0)]);
    let mut best = (0u64, genesis.id, 0u64);
    let mut tips = vec![genesis];
    let mut blocks = Vec::with_capacity(n);
    for i in 0..n {
        let r = rng.next_u64();
        // Every eighth block forks off the tip's parent or grandparent;
        // it never raises the height, so the height is exactly 7n/8.
        let parent = if i % 8 == 7 && tips.len() > 2 {
            &tips[tips.len() - 2 - (r % 2) as usize]
        } else {
            &tips[tips.len() - 1]
        };
        let block = BlockBuilder::new(parent)
            .producer((r % 5) as u32)
            .nonce(i as u64)
            .work(1 + (r >> 8) % 3)
            .build();
        let cumulative = work[&parent.id] + block.work;
        work.insert(block.id, cumulative);
        if (cumulative, block.id) > (best.0, best.1) {
            best = (cumulative, block.id, block.height);
        }
        if block.height > tips[tips.len() - 1].height {
            tips.push(block.clone());
            if tips.len() > 4 {
                tips.remove(0);
            }
        }
        blocks.push(block);
    }
    Episode {
        expected_height: blocks.iter().map(|b| b.height).max().unwrap_or(0),
        blocks,
        expected_tip: (best.1, best.2),
    }
}

/// The replica's state just before the crash.
#[derive(Clone, Debug)]
pub struct PreCrash {
    /// Selected tip.
    pub tip: BlockId,
    /// The selected tip's height.
    pub tip_height: u64,
    /// The tree's height (its tallest block).
    pub height: u64,
    /// Resident high-water mark.
    pub resident_peak: usize,
    /// Store counters.
    pub stats: StoreStats,
    /// Bytes the medium took.
    pub bytes_written: u64,
}

/// One episode's outcome.
pub struct EpisodeRun {
    /// Blocks ingested.
    pub ingested: u64,
    /// Ingests that returned an error.
    pub failed: u64,
    /// State before the crash.
    pub pre: PreCrash,
    /// The recovered replica.
    pub recovered: CheckpointedReplica,
    /// Recovery left more blocks resident than the memory ceiling.
    pub recovery_over_ceiling: bool,
    /// What recovery reported.
    pub report: RecoveryReport,
}

fn run_episode(config: ReplicaConfig, blocks: Vec<Block>, probe: &mut Probe) -> EpisodeRun {
    let (mut replica, _) = probe.call("store.new", || CheckpointedReplica::new(config));
    let mut failed = 0;
    let ingested = blocks.len() as u64;
    let tracing = probe.tracing();
    for block in blocks {
        let prunes = tracing.then(|| replica.store().stats().prunes);
        if probe.op("store.ingest", || replica.ingest(block)).is_err() {
            failed += 1;
        }
        if tracing && prunes != Some(replica.store().stats().prunes) {
            probe.rename_last("store.prune");
        }
    }
    probe.failed += failed;
    probe.call("store.checkpoint", || replica.checkpoint());
    let pre = PreCrash {
        tip: replica.tip(),
        tip_height: replica.hot().get(replica.tip()).map_or(0, |b| b.height),
        height: replica.height(),
        resident_peak: replica.resident_peak(),
        stats: replica.store().stats(),
        bytes_written: replica.store().medium().stats().bytes_written,
    };
    let (medium, _) = probe.call("store.crash", || replica.crash());
    let ((recovered, report), _) = probe.call("store.recover", || {
        CheckpointedReplica::recover(medium, config)
    });
    let recovery_over_ceiling = recovered.resident_peak() > config.memory_ceiling;
    probe.other_attempted += 1;
    probe.failed += u64::from(recovery_over_ceiling);
    EpisodeRun {
        ingested,
        failed,
        pre,
        recovered,
        recovery_over_ceiling,
        report,
    }
}

fn check_episode(config: ReplicaConfig, episode: &Episode, run: &EpisodeRun) -> Result<(), String> {
    if run.failed > 0 {
        return Err(format!("{} ingests failed", run.failed));
    }
    let (tip, tip_height) = episode.expected_tip;
    if (run.pre.tip, run.pre.tip_height) != (tip, tip_height) {
        return Err(format!(
            "pre-crash tip {:?} at {}, heaviest chain ends at {tip:?} at {tip_height}",
            run.pre.tip, run.pre.tip_height
        ));
    }
    if run.pre.height != episode.expected_height {
        return Err(format!(
            "pre-crash height {}, tallest block at {}",
            run.pre.height, episode.expected_height
        ));
    }
    let rec = &run.recovered;
    if (rec.tip(), rec.height()) != (tip, run.pre.height) {
        return Err(format!(
            "recovery moved the tip to {:?} and the height to {}",
            rec.tip(),
            rec.height()
        ));
    }
    if !run.report.is_pristine() || !rec.is_healed() {
        return Err(format!("recovery of an undamaged medium: {:?}", run.report));
    }
    let tree = check_block_tree(rec.hot());
    let agreement = check_store_tree_agreement(rec.hot(), &rec.store().blocks());
    if let Some(v) = tree.first().or(agreement.first()) {
        return Err(format!("invariant {}: {}", v.invariant, v.detail));
    }
    if run.pre.resident_peak > config.memory_ceiling {
        return Err(format!(
            "pre-crash resident peak {} above the ceiling {}",
            run.pre.resident_peak, config.memory_ceiling
        ));
    }
    Ok(())
}

/// The workload.
pub struct DurableIngest;

impl Workload for DurableIngest {
    const NAME: &'static str = "durable-ingest";
    const OP: &'static str = "ingest";
    const TAIL: f64 = 0.999;
    type Inputs = Inputs;
    /// Each episode's blocks, cloned for `ingest` to consume.
    type State = Vec<Vec<Block>>;
    type Output = Vec<EpisodeRun>;

    fn setup(seed: u64, scale: Scale) -> Inputs {
        let mut seeds = Rng::new(seed, 3);
        let config = scale_config(scale == Scale::Smoke);
        let inputs = Inputs {
            config,
            episodes: (0..EPISODES)
                .map(|_| generate(seeds.next_u64(), episode_blocks(&config)))
                .collect(),
        };
        // One untimed round, so allocator and cache state is warm before
        // the timed phase.
        Self::round(&inputs, Self::fresh(&inputs, 0), &mut Probe::new(false));
        inputs
    }

    fn fresh(inputs: &Inputs, _round: u64) -> Self::State {
        inputs.episodes.iter().map(|e| e.blocks.clone()).collect()
    }

    fn round(inputs: &Inputs, state: Self::State, probe: &mut Probe) -> Self::Output {
        state
            .into_iter()
            .map(|blocks| run_episode(inputs.config, blocks, probe))
            .collect()
    }

    fn check(inputs: &Inputs, out: &Self::Output) -> Result<(), String> {
        for (k, (episode, run)) in inputs.episodes.iter().zip(out).enumerate() {
            check_episode(inputs.config, episode, run).map_err(|e| format!("episode {k}: {e}"))?;
        }
        Ok(())
    }

    fn work(out: &Self::Output) -> Work {
        let sum = |f: fn(&EpisodeRun) -> u64| out.iter().map(f).sum::<u64>();
        vec![
            ("blocks", sum(|r| r.ingested)),
            ("prunes", sum(|r| r.pre.stats.prunes)),
            ("gc_dropped", sum(|r| r.pre.stats.pruned)),
            ("bytes_written", sum(|r| r.pre.bytes_written)),
            ("chunks_sealed", sum(|r| r.pre.stats.chunks_sealed)),
            ("checkpoints", sum(|r| r.pre.stats.checkpoints)),
            (
                "blocks_recovered",
                sum(|r| r.report.blocks_recovered as u64),
            ),
            (
                "recoveries_over_ceiling",
                sum(|r| u64::from(r.recovery_over_ceiling)),
            ),
        ]
    }

    fn layers(
        _inputs: &Inputs,
        out: &Self::Output,
        _replay: &mut Probe,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let sum = |f: fn(&EpisodeRun) -> u64| out.iter().map(f).sum::<u64>() as f64;
        let peak = out
            .iter()
            .map(|r| r.pre.resident_peak.max(r.recovered.resident_peak()))
            .max()
            .unwrap_or(0);
        Ok(vec![
            ("store.prunes", sum(|r| r.pre.stats.prunes)),
            (
                "store.bytes_written_per_block",
                sum(|r| r.pre.bytes_written) / sum(|r| r.ingested),
            ),
            ("store.checkpoints", sum(|r| r.pre.stats.checkpoints)),
            ("store.chunks_sealed", sum(|r| r.pre.stats.chunks_sealed)),
            (
                "store.blocks_recovered",
                sum(|r| r.report.blocks_recovered as u64),
            ),
            ("store.resident_peak", peak as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke_round_counting as smoke_round;

    #[test]
    fn smoke_round_passes_its_checks() {
        let (inputs, out, failed) = smoke_round::<DurableIngest>(1);
        DurableIngest::check(&inputs, &out).expect("clean round");
        let work = DurableIngest::work(&out);
        assert!(
            work.iter().any(|&(n, v)| n == "prunes" && v > 0),
            "{work:?}"
        );
        // Recovery re-admits the whole live store (CHANGES.md, FOUND):
        // every episode's recovery ends above the ceiling and is counted
        // as the round's only failed operations.
        assert!(out.iter().all(|r| r.recovery_over_ceiling));
        assert_eq!(failed, EPISODES as u64);
    }

    #[test]
    fn check_rejects_a_wrong_heaviest_chain() {
        let (mut inputs, out, _) = smoke_round::<DurableIngest>(1);
        inputs.episodes[0].expected_tip.1 += 1;
        assert!(DurableIngest::check(&inputs, &out).is_err());
    }

    #[test]
    fn check_rejects_a_pre_crash_peak_above_the_ceiling() {
        let (mut inputs, out, _) = smoke_round::<DurableIngest>(1);
        inputs.config.memory_ceiling = out[0].pre.resident_peak - 1;
        assert!(DurableIngest::check(&inputs, &out).is_err());
    }
}
