//! One single-thread benchmark of the BT-ADT reproduction.
//!
//! Four seeded workloads drive the program from one thread through its
//! public functions (see `README.md` for the make-up of each).  A run
//!
//! 1. sets up its inputs and state [`SETUP_REPS`] times, spread over the
//!    run, and reports the median as `setup_s`;
//! 2. repeats fixed-size, identical *rounds* of the workload until the
//!    timed phase has lasted `--seconds` — whole rounds only, so the work a
//!    run does is a whole number of copies of one deterministic round;
//! 3. checks every round's outputs outside the timed phase, and that every
//!    round did exactly the work of the first;
//! 4. prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//!    metrics) as the last line of standard output.

pub mod durable_ingest;
pub mod fork_append;
pub mod probe;
pub mod read_mix;
pub mod scenario_audit;
pub mod stats;

use std::collections::BTreeMap;

use probe::{now_ns, spans_jsonl, Probe, SpanTotals};
use stats::{median_f64, peak_rss_mb, quantile, Reservoir};

/// Set-ups per run; `setup_s` is their median.  The first is the one the
/// rounds use; the others are timed and dropped.
pub const SETUP_REPS: usize = 9;

/// Op latencies kept per run for the percentiles (8 MiB of samples).
pub const LATENCY_SAMPLES: usize = 1 << 20;

/// Input sizes: `Full` for measured runs, `Smoke` for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A reduced configuration that runs in well under a second.
    Smoke,
}

/// Work counts of one round, by name.
pub type Work = Vec<(&'static str, u64)>;

/// One benchmark workload.
pub trait Workload {
    /// The `--workload` name.
    const NAME: &'static str;
    /// The primary operation ("op" in the metric names).
    const OP: &'static str;
    /// Nearest-rank percentile reported as `op_tail_us`.
    const TAIL: f64;
    /// Inputs generated from the seed (and any state every round shares).
    type Inputs;
    /// Per-round starting state, rebuilt before each round.
    type State;
    /// What a round returns for checking.
    type Output;

    /// Generates the inputs from `seed` and pre-builds what the rounds
    /// share.  Timed as set-up.
    fn setup(seed: u64, scale: Scale) -> Self::Inputs;
    /// Builds round `round`'s starting state (outside the timed phase).
    fn fresh(inputs: &Self::Inputs, round: u64) -> Self::State;
    /// Runs one round — the timed phase — through `probe`.
    fn round(inputs: &Self::Inputs, state: Self::State, probe: &mut Probe) -> Self::Output;
    /// Checks a round's outputs against the benchmark's own computation.
    fn check(inputs: &Self::Inputs, out: &Self::Output) -> Result<(), String>;
    /// The round's work counts; every round of a run must repeat them.
    fn work(out: &Self::Output) -> Work;
    /// Traced rounds only: per-layer counts, plus the replays that time
    /// layers the program reaches only from inside another layer's call
    /// (recorded through `replay`, outside the timed phase).
    fn layers(
        inputs: &Self::Inputs,
        out: &Self::Output,
        replay: &mut Probe,
    ) -> Result<Vec<(&'static str, f64)>, String>;
}

/// The command-line parameters of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans (`None`: not written).
    pub trace_dir: Option<std::path::PathBuf>,
}

/// Everything a run measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: the primary ones, plus those counted through
    /// [`Probe::other_attempted`].
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Rounds run.
    pub rounds: u64,
    /// Work counts of one round.
    pub work: Work,
    /// Check failures (empty when correct).
    pub errors: Vec<String>,
    /// Metric name → value (end-to-end or per-layer).
    pub metrics: BTreeMap<String, f64>,
}

/// The end-to-end metrics, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Program layers whose self time and call count a traced run reports.
pub const LAYERS: [&str; 7] = [
    "concurrent",
    "types",
    "pipeline",
    "store",
    "netsim",
    "protocols",
    "core",
];

/// The per-layer metrics, with their units (`<layer>.self_s` and
/// `<layer>.calls` for each of [`LAYERS`] follow these).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("concurrent.read_s", "s"),
    ("concurrent.read_blocks", "count"),
    ("concurrent.prepare_s", "s"),
    ("concurrent.commit_s", "s"),
    ("concurrent.ingest_batch_s", "s"),
    ("concurrent.max_fork_degree", "count"),
    ("oracle.get_token_calls", "count"),
    ("oracle.consume_calls", "count"),
    ("types.insert_s", "s"),
    ("types.reindexes", "count"),
    ("types.leaves", "count"),
    ("pipeline.validate_s", "s"),
    ("pipeline.stage_s", "s"),
    ("pipeline.orphans", "count"),
    ("pipeline.duplicates", "count"),
    ("store.ingest_s", "s"),
    ("store.prune_s", "s"),
    ("store.prunes", "count"),
    ("store.bytes_written_per_block", "B/block"),
    ("store.checkpoints", "count"),
    ("store.chunks_sealed", "count"),
    ("store.recover_s", "s"),
    ("store.blocks_recovered", "count"),
    ("store.resident_peak", "count"),
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.delivered", "count"),
    ("netsim.dropped", "count"),
    ("protocols.sync_requests", "count"),
    ("protocols.sync_retries", "count"),
    ("protocols.batch_orphaned", "count"),
    ("protocols.extract_s", "s"),
    ("history.ops", "count"),
    ("core.sc_check_s", "s"),
    ("core.ec_check_s", "s"),
    ("core.divergence_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for layer in LAYERS {
        out.push((format!("{layer}.self_s"), "s"));
        out.push((format!("{layer}.calls"), "count"));
    }
    out
}

/// Runs workload `W` under `config`.
pub fn run<W: Workload>(config: &RunConfig) -> RunResult {
    let timed_setup = || {
        let start = now_ns();
        let inputs = W::setup(config.seed, config.scale);
        ((now_ns() - start) as f64 * 1e-9, inputs)
    };
    let (first_setup_s, inputs) = timed_setup();
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    setup_samples.push(first_setup_s);

    let mut errors: Vec<String> = Vec::new();
    let mut lat_ns = Reservoir::new(LATENCY_SAMPLES, config.seed);
    let mut failed = 0u64;
    let mut other_attempted = 0u64;
    let mut timed_s = 0.0f64;
    let mut rounds = 0u64;
    let mut first_work: Option<Work> = None;
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is the ratio of their median durations.
    let mut traced_round_s: Vec<f64> = Vec::new();
    let mut untraced_round_s: Vec<f64> = Vec::new();
    let mut totals = SpanTotals::default();
    let mut replay_totals = SpanTotals::default();
    let mut layer_sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut first_spans: Option<String> = None;
    // A traced run compares traced rounds with untraced ones after the
    // first (which runs colder), so it needs at least three.
    let min_rounds = if config.trace { 3 } else { 1 };
    let (mut ops_hint, mut spans_hint) = (0, 0);

    while timed_s < config.seconds || rounds < min_rounds {
        // The other set-ups run each time another 1/SETUP_REPS of the
        // run's length has been timed, so that their median samples the
        // host's speed across the run, as the rounds do, rather than over
        // one short stretch before them.
        let due = config.seconds * setup_samples.len() as f64 / SETUP_REPS as f64;
        if setup_samples.len() < SETUP_REPS && timed_s >= due {
            setup_samples.push(timed_setup().0);
        }
        let traced = config.trace && rounds % 2 == 1;
        let state = W::fresh(&inputs, rounds);
        let spans = if spans_hint > 0 {
            spans_hint
        } else {
            16 * ops_hint
        };
        let mut probe = Probe::with_capacity(traced, ops_hint, spans);
        let start = now_ns();
        let out = W::round(&inputs, state, &mut probe);
        let round_s = (now_ns() - start - probe.paused_ns) as f64 * 1e-9;
        timed_s += round_s;
        rounds += 1;

        if let Err(e) = W::check(&inputs, &out) {
            errors.push(format!("round {}: {e}", rounds - 1));
        }
        let work = W::work(&out);
        match &first_work {
            None => first_work = Some(work),
            Some(first) if *first != work => errors.push(format!(
                "round {} did different work: {work:?} vs {first:?}",
                rounds - 1
            )),
            Some(_) => {}
        }
        failed += probe.failed;
        other_attempted += probe.other_attempted;
        ops_hint = probe.lat_ns.len();
        if traced {
            spans_hint = probe.spans().len();
            traced_round_s.push(round_s);
            totals.add(probe.spans());
            if first_spans.is_none() {
                first_spans = Some(spans_jsonl(probe.spans()));
            }
            let mut replay = Probe::new(true);
            match W::layers(&inputs, &out, &mut replay) {
                Ok(values) => {
                    for (name, v) in values {
                        *layer_sums.entry(name).or_default() += v;
                    }
                }
                Err(e) => errors.push(format!("replay of round {}: {e}", rounds - 1)),
            }
            replay_totals.add(replay.spans());
        } else if rounds > 1 {
            untraced_round_s.push(round_s);
        }
        lat_ns.extend(&probe.lat_ns);
    }
    while setup_samples.len() < SETUP_REPS {
        setup_samples.push(timed_setup().0);
    }

    let attempted = lat_ns.seen() + other_attempted;
    let mut metrics = BTreeMap::new();
    if config.trace {
        let n = traced_round_s.len() as f64;
        let traced_s: f64 = traced_round_s.iter().sum();
        // Each `<span name>_s` metric sums that span's durations.
        for (metric, unit) in PER_LAYER {
            let Some(span) = metric.strip_suffix("_s").filter(|_| unit == "s") else {
                continue;
            };
            let from_timed = totals.by_name.get(span).map_or(0.0, |v| v.0);
            let from_replay = replay_totals.by_name.get(span).map_or(0.0, |v| v.0);
            metrics.insert(metric.to_string(), (from_timed + from_replay) / n);
        }
        for layer in LAYERS {
            let (mut self_s, mut calls) = totals.by_layer.get(layer).copied().unwrap_or_default();
            if let Some((s, c)) = replay_totals.by_layer.get(layer) {
                self_s += s;
                calls += c;
            }
            metrics.insert(format!("{layer}.self_s"), self_s / n);
            metrics.insert(format!("{layer}.calls"), calls as f64 / n);
        }
        for (name, sum) in &layer_sums {
            metrics.insert(name.to_string(), sum / n);
        }
        let coverage = totals.covered_s / traced_s;
        metrics.insert("trace.coverage".into(), coverage);
        metrics.insert(
            "trace.overhead".into(),
            median_f64(&traced_round_s) / median_f64(&untraced_round_s) - 1.0,
        );
        if coverage < 0.9 {
            errors.push(format!(
                "spans cover {:.3} of the traced rounds (< 0.9)",
                coverage
            ));
        }
        for (name, _) in per_layer_metrics() {
            metrics.entry(name).or_insert(0.0);
        }
        if let (Some(dir), Some(spans)) = (&config.trace_dir, first_spans) {
            let path = dir.join(format!("{}-seed{}.spans.jsonl", W::NAME, config.seed));
            let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans));
            if let Err(e) = written {
                errors.push(format!("could not write {}: {e}", path.display()));
            }
        }
    } else {
        let p50 = quantile(lat_ns.samples_mut(), 0.5).unwrap_or(0);
        let tail = quantile(lat_ns.samples_mut(), W::TAIL).unwrap_or(0);
        metrics.insert("throughput_ops_s".into(), lat_ns.seen() as f64 / timed_s);
        metrics.insert("op_p50_us".into(), p50 as f64 / 1e3);
        metrics.insert("op_tail_us".into(), tail as f64 / 1e3);
        metrics.insert("setup_s".into(), median_f64(&setup_samples));
        metrics.insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(0.0));
    }
    if attempted == 0 {
        errors.push("no operation was attempted".into());
    }
    RunResult {
        correct: errors.is_empty(),
        attempted,
        failed,
        rounds,
        work: first_work.unwrap_or_default(),
        errors,
        metrics,
    }
}

/// Runs the workload named `name`, or `None` for an unknown name.
pub fn run_named(name: &str, config: &RunConfig) -> Option<(RunResult, &'static str, f64)> {
    Some(match name {
        read_mix::ReadMix::NAME => (
            run::<read_mix::ReadMix>(config),
            read_mix::ReadMix::OP,
            read_mix::ReadMix::TAIL,
        ),
        fork_append::ForkAppend::NAME => (
            run::<fork_append::ForkAppend>(config),
            fork_append::ForkAppend::OP,
            fork_append::ForkAppend::TAIL,
        ),
        durable_ingest::DurableIngest::NAME => (
            run::<durable_ingest::DurableIngest>(config),
            durable_ingest::DurableIngest::OP,
            durable_ingest::DurableIngest::TAIL,
        ),
        scenario_audit::ScenarioAudit::NAME => (
            run::<scenario_audit::ScenarioAudit>(config),
            scenario_audit::ScenarioAudit::OP,
            scenario_audit::ScenarioAudit::TAIL,
        ),
        _ => return None,
    })
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    read_mix::ReadMix::NAME,
    fork_append::ForkAppend::NAME,
    durable_ingest::DurableIngest::NAME,
    scenario_audit::ScenarioAudit::NAME,
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(result: &RunResult, trace: bool) -> String {
    let units: Vec<(String, &str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Runs one round of `W` at smoke scale and returns its output with the
/// number of failed operations, for the tests: the checks are then
/// exercised on real outputs.
#[cfg(test)]
pub(crate) fn smoke_round_counting<W: Workload>(seed: u64) -> (W::Inputs, W::Output, u64) {
    let inputs = W::setup(seed, Scale::Smoke);
    let state = W::fresh(&inputs, 0);
    let mut probe = Probe::new(false);
    let out = W::round(&inputs, state, &mut probe);
    (inputs, out, probe.failed)
}

/// [`smoke_round_counting`] for a workload in which no operation fails.
#[cfg(test)]
pub(crate) fn smoke_round<W: Workload>(seed: u64) -> (W::Inputs, W::Output) {
    let (inputs, out, failed) = smoke_round_counting::<W>(seed);
    assert_eq!(failed, 0, "{}: no operation fails", W::NAME);
    (inputs, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> RunConfig {
        // Long enough that one preemption landing between two spans
        // cannot pull the traced coverage below 0.9.
        RunConfig {
            seed: 3,
            seconds: 0.25,
            trace,
            scale: Scale::Smoke,
            trace_dir: None,
        }
    }

    #[test]
    fn every_workload_runs_clean_with_every_metric() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let (result, _, _) = run_named(name, &smoke(trace)).expect("known workload");
                assert!(result.correct, "{name} trace={trace}: {:?}", result.errors);
                // Only durable-ingest's recoveries fail, one per episode
                // (see `durable_ingest`).
                let known = if name == durable_ingest::DurableIngest::NAME {
                    result.rounds * durable_ingest::EPISODES as u64
                } else {
                    0
                };
                assert_eq!(result.failed, known, "{name}");
                assert!(result.attempted > 0, "{name}");
                let line = result_json(&result, trace);
                let keys = if trace {
                    per_layer_metrics().len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(line.matches("\"unit\"").count(), keys, "{name}");
                if !trace {
                    for (metric, _) in END_TO_END {
                        assert!(result.metrics[metric] > 0.0, "{name}: {metric} is 0");
                    }
                }
            }
        }
    }

    #[test]
    fn work_repeats_exactly_between_runs_of_one_seed() {
        for name in WORKLOADS {
            let a = run_named(name, &smoke(false)).expect("known workload").0;
            let b = run_named(name, &smoke(false)).expect("known workload").0;
            assert_eq!(a.work, b.work, "{name}");
            assert!(!a.work.is_empty(), "{name}");
        }
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let json = btadt_bench::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect("string field");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let own = |metrics: Vec<(String, &str)>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect()
        };
        assert_eq!(listed("per_layer"), own(per_layer_metrics()));
        let end_to_end = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_eq!(listed("end_to_end"), own(end_to_end));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
