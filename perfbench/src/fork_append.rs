//! `fork-append`: mediated appends with forks on an eventual replica,
//! with peer batches arriving between them.
//!
//! An eventual replica (Θ_P through `SnapshotConsumeToken`) and two
//! logical clients.  On a seeded share of steps both clients prepare on
//! the same tip before either commits — the interleaving that makes a
//! fork under the prodigal oracle, where the sibling with the larger id
//! wins.  Every [`Sizes::batch_every`] steps a peer batch arrives through
//! `ingest_batch`: a branch off a recent ancestor of the tip, sometimes
//! longer than the local branch (a reorganisation), plus a few blocks the
//! replica already knows, shuffled.  There are no reads.
//!
//! A round is [`Sizes::episodes`] episodes, each on a fresh replica and
//! scripted from its own seed derived from the run's; an episode's size
//! keeps today's code on the near side of the reachability-reindex cliff
//! (README).  Set-up derives every episode with the benchmark's own model
//! of the tree — each block's id, every batch verdict, the tip after every
//! step — so a round only makes calls into the replica, and the checks
//! compare the replica with that model.

use std::collections::HashMap;

use btadt_concurrent::{ConcurrentBlockTree, IngestVerdict, PreparedAppend};
use btadt_pipeline::{stage_batch, validate_isolated};
use btadt_types::{Block, BlockBuilder, BlockId, BlockTree, NodeIdx};

use crate::probe::Probe;
use crate::stats::Rng;
use crate::{Scale, Work, Workload};

/// Logical clients.
const CLIENTS: usize = 2;
/// Client index peer batches are ingested under.
const PEER_CLIENT: usize = 2;
/// Peer nonces start here, clear of the replica's own nonce counter.
const PEER_NONCE_BASE: u64 = 1 << 40;
/// Share of steps, in percent, on which both clients contend.
const FORK_PERCENT: u64 = 10;
/// `is_ancestor` pairs sampled by the check.
const ANCESTRY_SAMPLES: usize = 256;

/// Round sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Episodes per round, each scripted from its own seed, so that a
    /// round's op distribution mixes several tree shapes.
    pub episodes: usize,
    /// Local steps (one append, or two contending ones).
    pub steps: usize,
    /// A peer batch arrives after every this many steps.
    pub batch_every: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                episodes: 8,
                steps: 1_500,
                batch_every: 32,
            },
            Scale::Smoke => Sizes {
                episodes: 2,
                steps: 200,
                batch_every: 16,
            },
        }
    }
}

/// One scripted step of a round.
#[derive(Clone, Debug)]
pub enum Step {
    /// `client` prepares on the tip and commits; the model's block id.
    Append {
        /// The appending client.
        client: usize,
        /// The block `prepare` must build.
        expect: BlockId,
    },
    /// Clients 0 and 1 both prepare on the tip, then commit — `first`
    /// commits first.
    Contend {
        /// The client that commits first.
        first: usize,
        /// The blocks clients 0 and 1 must build.
        expect: [BlockId; 2],
    },
    /// The next peer batch arrives.
    Batch,
}

/// A peer batch and the verdict each block must get.
#[derive(Clone, Debug)]
pub struct PeerBatch {
    /// Blocks in arrival order.
    pub blocks: Vec<Block>,
    /// `true`: new (`Accepted`); `false`: already known (`Duplicate`).
    pub fresh: Vec<bool>,
}

/// The benchmark's own tree: parents, heights and the tip rule.
#[derive(Clone, Debug)]
pub struct Model {
    blocks: HashMap<BlockId, Block>,
    children: HashMap<BlockId, u32>,
    /// Every block in creation order (genesis first).
    order: Vec<BlockId>,
    tip: (u64, BlockId),
}

impl Model {
    fn new() -> Self {
        let genesis = Block::genesis();
        Model {
            tip: (0, genesis.id),
            order: vec![genesis.id],
            children: HashMap::new(),
            blocks: HashMap::from([(genesis.id, genesis)]),
        }
    }

    fn add(&mut self, block: Block) {
        let parent = block.parent.expect("model blocks have parents");
        *self.children.entry(parent).or_default() += 1;
        // The tip rule: maximum height, ties to the largest id.
        if (block.height, block.id) > self.tip {
            self.tip = (block.height, block.id);
        }
        self.order.push(block.id);
        self.blocks.insert(block.id, block);
    }

    fn tip_block(&self) -> &Block {
        &self.blocks[&self.tip.1]
    }

    /// Childless blocks.
    pub fn leaves(&self) -> usize {
        self.order
            .iter()
            .filter(|id| !self.children.contains_key(id))
            .count()
    }

    /// Is `a` an ancestor of (or equal to) `b`, by walking parents.
    pub fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        let target = self.blocks[&a].height;
        let mut cursor = &self.blocks[&b];
        while cursor.height > target {
            cursor = &self.blocks[&cursor.parent.expect("above genesis")];
        }
        cursor.id == a
    }
}

/// One scripted episode and the model's final state.
pub struct Episode {
    /// Steps in order.
    pub steps: Vec<Step>,
    /// Peer batches in arrival order.
    pub batches: Vec<PeerBatch>,
    /// The tree after the episode.
    pub model: Model,
    /// Sampled `(a, b, a is an ancestor of b)` triples.
    pub ancestry: Vec<(BlockId, BlockId, bool)>,
}

fn script(seed: u64, sizes: Sizes) -> Episode {
    let mut rng = Rng::new(seed, 2);
    let mut model = Model::new();
    let mut nonce = 1u64;
    let mut peer_nonce = PEER_NONCE_BASE;
    let mut steps = Vec::new();
    let mut batches = Vec::new();
    let local = |model: &Model, client: usize, nonce: u64| {
        BlockBuilder::new(model.tip_block())
            .producer(client as u32)
            .nonce(nonce)
            .payload(Vec::new())
            .build()
    };
    for step in 0..sizes.steps {
        if rng.percent(FORK_PERCENT) {
            let a = local(&model, 0, nonce);
            let b = local(&model, 1, nonce + 1);
            nonce += 2;
            steps.push(Step::Contend {
                first: rng.below(2) as usize,
                expect: [a.id, b.id],
            });
            model.add(a);
            model.add(b);
        } else {
            let client = rng.below(CLIENTS as u64) as usize;
            let block = local(&model, client, nonce);
            nonce += 1;
            steps.push(Step::Append {
                client,
                expect: block.id,
            });
            model.add(block);
        }
        if step % sizes.batch_every == sizes.batch_every - 1 {
            // A side branch off an ancestor `depth` below the tip, of a
            // length that sometimes overtakes the local branch.
            let depth = 1 + rng.below(6);
            let mut fork_point = model.tip_block().clone();
            for _ in 0..depth {
                if let Some(parent) = fork_point.parent {
                    fork_point = model.blocks[&parent].clone();
                }
            }
            let producer = 2 + rng.below(3) as u32;
            let mut branch = Vec::new();
            let mut prev = fork_point;
            for _ in 0..1 + rng.below(depth + 2) {
                peer_nonce += 1;
                let block = BlockBuilder::new(&prev)
                    .producer(producer)
                    .nonce(peer_nonce)
                    .payload(Vec::new())
                    .build();
                prev = block.clone();
                branch.push(block);
            }
            let mut entries: Vec<(Block, bool)> = Vec::new();
            let recent = &model.order[model.order.len().saturating_sub(64).max(1)..];
            for _ in 0..rng.below(3) {
                let known = recent[rng.below(recent.len() as u64) as usize];
                if !entries.iter().any(|(b, _)| b.id == known) {
                    entries.push((model.blocks[&known].clone(), false));
                }
            }
            for block in &branch {
                model.add(block.clone());
            }
            entries.extend(branch.into_iter().map(|b| (b, true)));
            rng.shuffle(&mut entries);
            let (blocks, fresh) = entries.into_iter().unzip();
            batches.push(PeerBatch { blocks, fresh });
            steps.push(Step::Batch);
        }
    }
    let ancestry = (0..ANCESTRY_SAMPLES)
        .map(|_| {
            let a = model.order[rng.below(model.order.len() as u64) as usize];
            let b = model.order[rng.below(model.order.len() as u64) as usize];
            (a, b, model.is_ancestor(a, b))
        })
        .collect();
    Episode {
        steps,
        batches,
        model,
        ancestry,
    }
}

/// What one episode's calls returned.
pub struct EpisodeRun {
    replica: ConcurrentBlockTree,
    /// Ids of the blocks `prepare` built, in step order.
    pub prepared: Vec<BlockId>,
    /// Appends whose commit did not append the candidate.
    pub lost: u64,
    /// Verdicts per batch.
    pub verdicts: Vec<Vec<IngestVerdict>>,
}

/// `clients` prepare in order, then commit in `commit_order`; one op
/// sample per append (its prepare plus its commit).  A single client's
/// prepare and commit are timed as one [`Probe::call_pair`].  Returns the
/// appends that lost their candidate.
fn append(
    probe: &mut Probe,
    replica: &ConcurrentBlockTree,
    clients: &[usize],
    commit_order: &[usize],
    prepared_ids: &mut Vec<BlockId>,
) -> u64 {
    if let [client] = *clients {
        // Uncontended: commit follows prepare directly.
        let ((id, outcome), prepare_ns, commit_ns) = probe.call_pair(
            "concurrent.prepare",
            || replica.prepare(client, Vec::new()),
            "concurrent.commit",
            |p| (p.block.id, replica.commit(p)),
        );
        prepared_ids.push(id);
        probe.lat_ns.push(prepare_ns + commit_ns);
        return u64::from(!outcome.appended);
    }
    let mut latency = [0u64; CLIENTS];
    let mut prepared: [Option<PreparedAppend>; CLIENTS] = [None, None];
    for (k, &client) in clients.iter().enumerate() {
        let (p, ns) = probe.call("concurrent.prepare", || replica.prepare(client, Vec::new()));
        latency[k] = ns;
        prepared_ids.push(p.block.id);
        prepared[k] = Some(p);
    }
    let mut lost = 0;
    for &k in commit_order {
        let p = prepared[k].take().expect("each candidate commits once");
        let (outcome, ns) = probe.call("concurrent.commit", || replica.commit(p));
        lost += u64::from(!outcome.appended);
        probe.lat_ns.push(latency[k] + ns);
    }
    lost
}

/// Runs `episode` on a fresh replica, consuming its cloned batches.
fn run_episode(episode: &Episode, batches: Vec<Vec<Block>>, probe: &mut Probe) -> EpisodeRun {
    let (replica, _) = probe.call("concurrent.new", || ConcurrentBlockTree::eventual(CLIENTS));
    let mut batches = batches.into_iter();
    let mut prepared = Vec::with_capacity(episode.model.order.len());
    let mut lost = 0;
    let mut verdicts = Vec::with_capacity(episode.batches.len());
    for step in &episode.steps {
        match *step {
            Step::Append { client, .. } => {
                lost += append(probe, &replica, &[client], &[0], &mut prepared)
            }
            Step::Contend { first, .. } => {
                lost += append(probe, &replica, &[0, 1], &[first, 1 - first], &mut prepared)
            }
            Step::Batch => {
                let blocks = batches.next().expect("one batch per batch step");
                let (report, _) = probe.call("concurrent.ingest_batch", || {
                    replica.ingest_batch(PEER_CLIENT, blocks)
                });
                verdicts.push(report.verdicts);
            }
        }
    }
    EpisodeRun {
        replica,
        prepared,
        lost,
        verdicts,
    }
}

/// Checks one episode's replica against the model.
fn check_episode(episode: &Episode, run: &EpisodeRun) -> Result<(), String> {
    if run.lost > 0 {
        return Err(format!("{} prodigal appends were not retained", run.lost));
    }
    let expected: Vec<BlockId> = episode
        .steps
        .iter()
        .flat_map(|s| match s {
            Step::Append { expect, .. } => vec![*expect],
            Step::Contend { expect, .. } => expect.to_vec(),
            Step::Batch => Vec::new(),
        })
        .collect();
    if run.prepared != expected {
        return Err("prepare built blocks other than the model's".into());
    }
    for (i, (batch, verdicts)) in episode.batches.iter().zip(&run.verdicts).enumerate() {
        for (fresh, verdict) in batch.fresh.iter().zip(verdicts) {
            let ok = match verdict {
                IngestVerdict::Accepted => *fresh,
                IngestVerdict::Duplicate => !*fresh,
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "batch {i}: verdict {verdict:?} for a fresh={fresh} block"
                ));
            }
        }
    }
    let tree = run.replica.writer_tree_snapshot();
    let want_tip = episode.model.tip.1;
    let published = run.replica.tip_block().id;
    if published != want_tip || tree.best_leaf_by_height(true) != want_tip {
        return Err(format!(
            "selected tip {published:?}, expected {want_tip:?} (max height, largest id)"
        ));
    }
    if tree.len() != episode.model.order.len() {
        return Err(format!(
            "tree holds {} blocks, the model {}",
            tree.len(),
            episode.model.order.len()
        ));
    }
    if tree.leaf_count() != episode.model.leaves() {
        return Err(format!(
            "{} leaves, the model has {} childless blocks",
            tree.leaf_count(),
            episode.model.leaves()
        ));
    }
    for &(a, b, want) in &episode.ancestry {
        if tree.is_ancestor(a, b) != Some(want) {
            return Err(format!(
                "is_ancestor({a:?}, {b:?}) disagrees with the walk ({want})"
            ));
        }
    }
    Ok(())
}

/// The episode's work counts, from the replica's writer tree and verdicts.
fn episode_work(run: &EpisodeRun) -> Work {
    let tree = run.replica.writer_tree_snapshot();
    let forks = (0..tree.len() as u32)
        .filter(|&i| tree.children_idx(NodeIdx(i)).len() > 1)
        .count();
    let count = |pred: fn(&IngestVerdict) -> bool| {
        run.verdicts.iter().flatten().filter(|v| pred(v)).count() as u64
    };
    vec![
        ("appends", run.prepared.len() as u64),
        ("blocks", tree.len() as u64 - 1),
        ("forks", forks as u64),
        ("reindexes", tree.reachability_reindexes()),
        ("leaves", tree.leaf_count() as u64),
        ("accepted", count(|v| matches!(v, IngestVerdict::Accepted))),
        (
            "duplicates",
            count(|v| matches!(v, IngestVerdict::Duplicate)),
        ),
        ("orphans", count(|v| matches!(v, IngestVerdict::Orphaned))),
    ]
}

/// Replays the episode's installs, in install order, through
/// `BlockTree::insert` (the tree insert inside `commit` and
/// `ingest_batch`) and each batch through `validate_isolated` and
/// `stage_batch` (stages 1–2 inside `ingest_batch`); returns the replay
/// tree and its duplicate and orphan counts.
fn replay_episode(episode: &Episode, replay: &mut Probe) -> Result<(BlockTree, u64, u64), String> {
    let mut tree = BlockTree::new();
    let mut batches = episode.batches.iter();
    let (mut duplicates, mut orphans) = (0u64, 0u64);
    for step in &episode.steps {
        let installs: Vec<Block> = match step {
            Step::Append { expect, .. } => vec![episode.model.blocks[expect].clone()],
            Step::Contend { first, expect } => vec![
                episode.model.blocks[&expect[*first]].clone(),
                episode.model.blocks[&expect[1 - first]].clone(),
            ],
            Step::Batch => {
                let batch = batches.next().expect("one batch per batch step");
                for block in &batch.blocks {
                    let (valid, _) = replay.call("pipeline.validate", || validate_isolated(block));
                    valid.map_err(|e| format!("stage 1 rejected a peer block: {e:?}"))?;
                }
                let blocks = batch.blocks.clone();
                let (staged, _) = replay.call("pipeline.stage", || {
                    stage_batch(blocks, |id| tree.contains(id))
                });
                duplicates += staged
                    .verdicts
                    .iter()
                    .filter(|v| matches!(v, Some(IngestVerdict::Duplicate)))
                    .count() as u64;
                orphans += staged.orphans.len() as u64;
                staged.ready.into_iter().map(|(_, b)| b).collect()
            }
        };
        for block in installs {
            let (inserted, _) = replay.call("types.insert", || tree.insert(block));
            inserted.map_err(|e| format!("replayed insert failed: {e:?}"))?;
        }
    }
    Ok((tree, duplicates, orphans))
}

/// Sums work counts name by name.
fn add_work(total: &mut Work, part: Work) {
    if total.is_empty() {
        *total = part;
    } else {
        for ((_, sum), (_, v)) in total.iter_mut().zip(part) {
            *sum += v;
        }
    }
}

/// The scripted episodes of a round.
pub struct Inputs {
    /// Episodes in round order.
    pub episodes: Vec<Episode>,
}

/// The workload.
pub struct ForkAppend;

impl Workload for ForkAppend {
    const NAME: &'static str = "fork-append";
    const OP: &'static str = "append";
    const TAIL: f64 = 0.999;
    type Inputs = Inputs;
    /// Each episode's batches, cloned for `ingest_batch` to consume.
    type State = Vec<Vec<Vec<Block>>>;
    type Output = Vec<EpisodeRun>;

    fn setup(seed: u64, scale: Scale) -> Inputs {
        let sizes = Sizes::of(scale);
        let mut seeds = Rng::new(seed, 2);
        let inputs = Inputs {
            episodes: (0..sizes.episodes)
                .map(|_| script(seeds.next_u64(), sizes))
                .collect(),
        };
        // One untimed round, so allocator and cache state is warm before
        // the timed phase.
        Self::round(&inputs, Self::fresh(&inputs, 0), &mut Probe::new(false));
        inputs
    }

    fn fresh(inputs: &Inputs, _round: u64) -> Self::State {
        inputs
            .episodes
            .iter()
            .map(|e| e.batches.iter().map(|b| b.blocks.clone()).collect())
            .collect()
    }

    fn round(inputs: &Inputs, state: Self::State, probe: &mut Probe) -> Self::Output {
        inputs
            .episodes
            .iter()
            .zip(state)
            .map(|(episode, batches)| run_episode(episode, batches, probe))
            .collect()
    }

    fn check(inputs: &Inputs, out: &Self::Output) -> Result<(), String> {
        for (k, (episode, run)) in inputs.episodes.iter().zip(out).enumerate() {
            check_episode(episode, run).map_err(|e| format!("episode {k}: {e}"))?;
        }
        Ok(())
    }

    fn work(out: &Self::Output) -> Work {
        let mut total = Work::new();
        for run in out {
            add_work(&mut total, episode_work(run));
        }
        total
    }

    fn layers(
        inputs: &Inputs,
        out: &Self::Output,
        replay: &mut Probe,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let (mut reindexes, mut leaves, mut duplicates, mut orphans, mut degree) = (0, 0, 0, 0, 0);
        for (k, (episode, run)) in inputs.episodes.iter().zip(out).enumerate() {
            let (tree, dup, orph) = replay_episode(episode, replay)?;
            let work = episode_work(run);
            let program = |name: &str| work.iter().find(|(n, _)| *n == name).map_or(0, |w| w.1);
            let replayed = [
                ("reindexes", tree.reachability_reindexes()),
                ("leaves", tree.leaf_count() as u64),
                ("blocks", tree.len() as u64 - 1),
                ("duplicates", dup),
                ("orphans", orph),
            ];
            for (name, value) in replayed {
                if value != program(name) {
                    return Err(format!(
                        "episode {k}: replay counted {name}={value}, the program {}",
                        program(name)
                    ));
                }
            }
            reindexes += tree.reachability_reindexes();
            leaves += tree.leaf_count() as u64;
            duplicates += dup;
            orphans += orph;
            degree = degree.max(run.replica.max_fork_degree());
        }
        Ok(vec![
            ("types.reindexes", reindexes as f64),
            ("types.leaves", leaves as f64),
            ("pipeline.duplicates", duplicates as f64),
            ("pipeline.orphans", orphans as f64),
            ("concurrent.max_fork_degree", degree as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke_round;

    #[test]
    fn smoke_round_passes_its_checks_and_replays_exactly() {
        let (inputs, out) = smoke_round::<ForkAppend>(1);
        ForkAppend::check(&inputs, &out).expect("clean round");
        ForkAppend::layers(&inputs, &out, &mut Probe::new(true)).expect("replay matches");
        let work = ForkAppend::work(&out);
        assert!(work.iter().any(|&(n, v)| n == "forks" && v > 0), "{work:?}");
        assert!(
            work.iter().any(|&(n, v)| n == "duplicates" && v > 0),
            "{work:?}"
        );
    }

    #[test]
    fn check_rejects_a_wrong_tip_choice() {
        let (mut inputs, out) = smoke_round::<ForkAppend>(1);
        let model = &mut inputs.episodes[0].model;
        model.tip.1 = model
            .order
            .iter()
            .copied()
            .find(|id| *id != model.tip.1)
            .expect("more than one block");
        assert!(ForkAppend::check(&inputs, &out).is_err());
    }
}
