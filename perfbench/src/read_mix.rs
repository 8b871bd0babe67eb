//! `read-mix`: reads of a pre-grown strong replica between sequential
//! appends.
//!
//! A strong replica (Θ_F,k=1 through `OracleCas`) is grown in set-up to
//! [`Sizes::pregrown`] blocks of 1–4 seeded transactions each.  A round
//! then makes [`Sizes::appends`] uncontended appends, alternating between
//! two logical clients, and after each one the two clients issue
//! [`Sizes::reads_per_append`] `read()`s between them — the primary op.
//! Every round starts from an identically pre-grown replica, so read cost
//! (linear in height today) is the same in every round and every run.

use std::cell::RefCell;

use btadt_concurrent::ConcurrentBlockTree;
use btadt_types::{BlockId, Transaction, GENESIS_ID};

use crate::probe::Probe;
use crate::stats::Rng;
use crate::{Scale, Work, Workload};

/// Logical clients.
const CLIENTS: usize = 2;
/// Untimed reads set-up makes of the pre-grown replica, so allocator and
/// cache state is warm before the timed phase.
const WARMUP_READS: usize = 16;

/// Round and state sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Blocks appended in set-up, before any round.
    pub pregrown: usize,
    /// Appends per round.
    pub appends: usize,
    /// Reads after each append.
    pub reads_per_append: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                pregrown: 20_000,
                appends: 32,
                reads_per_append: 16,
            },
            Scale::Smoke => Sizes {
                pregrown: 300,
                appends: 8,
                reads_per_append: 4,
            },
        }
    }
}

/// Seeded payloads and the replica pre-grown from them.
pub struct Inputs {
    sizes: Sizes,
    seed: u64,
    /// One payload per block: the pre-grown ones, then one per append.
    payloads: Vec<Vec<Transaction>>,
    /// The replica set-up grew, taken by the first round.
    pregrown: RefCell<Option<State>>,
}

/// A pre-grown replica and the ids of the blocks appended to it.
pub struct State {
    replica: ConcurrentBlockTree,
    record: Vec<BlockId>,
}

/// A round's replica and everything its operations returned.
pub struct Output {
    replica: ConcurrentBlockTree,
    /// Ids appended, pre-grown ones first.
    pub record: Vec<BlockId>,
    /// Whether each round append appended its own block.
    pub appended: Vec<bool>,
    /// `(tip id, height)` of every read, in order.
    pub reads: Vec<(BlockId, u64)>,
    /// Blocks returned by all reads.
    pub read_blocks: u64,
    /// Oracle `getToken` and `consumeToken` calls during the round.
    pub oracle_calls: (u64, u64),
}

fn grow(sizes: Sizes, seed: u64, payloads: &[Vec<Transaction>]) -> State {
    let replica = ConcurrentBlockTree::strong(CLIENTS, seed);
    let record = payloads[..sizes.pregrown]
        .iter()
        .enumerate()
        .map(|(i, payload)| replica.append(i % CLIENTS, payload.clone()).block.id)
        .collect();
    State { replica, record }
}

fn oracle_calls(replica: &ConcurrentBlockTree) -> (u64, u64) {
    let stats = replica
        .oracle_stats()
        .expect("the strong replica is oracle-mediated");
    (stats.get_token_calls, stats.consume_calls)
}

/// The workload.
pub struct ReadMix;

impl Workload for ReadMix {
    const NAME: &'static str = "read-mix";
    const OP: &'static str = "read";
    /// Every read does the same work, so above p95 the tail measures the
    /// host's interference bursts rather than the program (README).
    const TAIL: f64 = 0.95;
    type Inputs = Inputs;
    type State = State;
    type Output = Output;

    fn setup(seed: u64, scale: Scale) -> Inputs {
        let sizes = Sizes::of(scale);
        let mut rng = Rng::new(seed, 1);
        let mut tx_id = 0u64;
        let payloads: Vec<Vec<Transaction>> = (0..sizes.pregrown + sizes.appends)
            .map(|_| {
                (0..1 + rng.below(4))
                    .map(|_| {
                        tx_id += 1;
                        Transaction::transfer(
                            tx_id,
                            rng.below(64) as u32,
                            rng.below(64) as u32,
                            1 + rng.below(1000),
                        )
                    })
                    .collect()
            })
            .collect();
        let state = grow(sizes, seed, &payloads);
        for _ in 0..WARMUP_READS {
            std::hint::black_box(state.replica.read());
        }
        Inputs {
            sizes,
            seed,
            payloads,
            pregrown: RefCell::new(Some(state)),
        }
    }

    fn fresh(inputs: &Inputs, _round: u64) -> State {
        inputs
            .pregrown
            .borrow_mut()
            .take()
            .unwrap_or_else(|| grow(inputs.sizes, inputs.seed, &inputs.payloads))
    }

    fn round(inputs: &Inputs, state: State, probe: &mut Probe) -> Output {
        let State {
            replica,
            mut record,
        } = state;
        let sizes = inputs.sizes;
        let before = oracle_calls(&replica);
        let mut appended = Vec::with_capacity(sizes.appends);
        let mut reads = Vec::with_capacity(sizes.appends * sizes.reads_per_append);
        let mut read_blocks = 0u64;
        for a in 0..sizes.appends {
            let payload = inputs.payloads[sizes.pregrown + a].clone();
            let (prepared, _) = probe.call("concurrent.prepare", || {
                replica.prepare(a % CLIENTS, payload)
            });
            let (outcome, _) = probe.call("concurrent.commit", || replica.commit(prepared));
            appended.push(outcome.appended);
            record.push(outcome.block.id);
            for _ in 0..sizes.reads_per_append {
                // The two clients' reads are the same call on the shared
                // replica; dropping the materialized chain is part of it.
                let (tip, height, len) = probe.op("concurrent.read", || {
                    let chain = replica.read();
                    (chain.tip().id, chain.height(), chain.len())
                });
                reads.push((tip, height));
                read_blocks += len as u64;
            }
        }
        let after = oracle_calls(&replica);
        Output {
            replica,
            record,
            appended,
            reads,
            read_blocks,
            oracle_calls: (after.0 - before.0, after.1 - before.1),
        }
    }

    fn check(inputs: &Inputs, out: &Output) -> Result<(), String> {
        let sizes = inputs.sizes;
        if let Some(a) = out.appended.iter().position(|ok| !ok) {
            return Err(format!("append {a} lost its slot on an uncontended tip"));
        }
        for (i, &(tip, height)) in out.reads.iter().enumerate() {
            let k = sizes.pregrown + i / sizes.reads_per_append;
            let want = (out.record[k], k as u64 + 1);
            if (tip, height) != want {
                return Err(format!(
                    "read {i} returned tip {tip:?} at height {height}, expected {:?} at {}",
                    want.0, want.1
                ));
            }
        }
        let chain: Vec<BlockId> = out.replica.read().ids().collect();
        let expected: Vec<BlockId> = std::iter::once(GENESIS_ID)
            .chain(out.record.iter().copied())
            .collect();
        if chain != expected {
            return Err(format!(
                "final chain of {} blocks is not genesis + the {} appended",
                chain.len(),
                out.record.len()
            ));
        }
        let degree = out.replica.max_fork_degree();
        if degree != 1 {
            return Err(format!("strong replica forked (max fork degree {degree})"));
        }
        Ok(())
    }

    fn work(out: &Output) -> Work {
        vec![
            ("reads", out.reads.len() as u64),
            ("appends", out.appended.len() as u64),
            ("read_blocks", out.read_blocks),
            ("get_token_calls", out.oracle_calls.0),
            ("consume_calls", out.oracle_calls.1),
        ]
    }

    fn layers(
        _inputs: &Inputs,
        out: &Output,
        _replay: &mut Probe,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![
            ("concurrent.read_blocks", out.read_blocks as f64),
            (
                "concurrent.max_fork_degree",
                out.replica.max_fork_degree() as f64,
            ),
            ("oracle.get_token_calls", out.oracle_calls.0 as f64),
            ("oracle.consume_calls", out.oracle_calls.1 as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke_round;

    #[test]
    fn smoke_round_passes_its_checks() {
        let (inputs, out) = smoke_round::<ReadMix>(1);
        ReadMix::check(&inputs, &out).expect("clean round");
    }

    #[test]
    fn check_rejects_a_wrong_record() {
        let (inputs, mut out) = smoke_round::<ReadMix>(1);
        let last = out.record.len() - 1;
        out.record.swap(last, last - 1);
        assert!(ReadMix::check(&inputs, &out).is_err());
    }
}
