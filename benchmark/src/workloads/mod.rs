//! The four workloads and what they share.
//!
//! A workload is set up once per repetition (timed as `setup_s`) and then
//! runs a fixed number of identical *passes* — fixed work, or for `serve` a
//! fixed duration of load — and every end-to-end number is a median over
//! passes, so two commits' numbers compare like with like.

use std::collections::BTreeMap;

use scord_core::SplitMix64;
use scord_sim::SimStats;

use crate::metrics::Counters;
use crate::trace::Tracer;

pub mod paper_scale;
pub mod paper_tables;
pub mod serve;
mod sim;
pub mod trace_audit;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["paper-tables", "paper-scale", "trace-audit", "serve"];

/// A benchmark workload.
pub trait Workload: Sized {
    /// Seconds one pass takes on the reference host (see README.md). The
    /// pass count is `--seconds / PASS_S`, rounded, at least 1: it depends
    /// only on the arguments, never on how fast this commit runs.
    const PASS_S: f64;

    /// The nearest-rank percentile `tail_ms` reports. It is fixed, never
    /// derived from how many operations a pass completed, so every commit
    /// reports the same percentile whatever its speed. A fixed-work
    /// workload uses the highest with at least ten of one pass's operations
    /// beyond it (`stats::tail_percentile`), or 100 (the maximum) when a
    /// pass has too few operations for any.
    const TAIL_PCT: u32;

    /// Builds every input from `seed`. Layer counters of the set-up go to
    /// `c`.
    ///
    /// # Errors
    ///
    /// A description of what could not be set up.
    fn setup(seed: u64, tr: &mut Tracer, c: &mut Counters) -> Result<Self, String>;

    /// Runs one pass of the fixed work, recording operations, checks and
    /// layer counters into `m`.
    fn pass(&mut self, tr: &mut Tracer, m: &mut Measured);

    /// Traced runs only, after each pass and outside its timing: measures
    /// a layer the pass cannot time from outside on its own.
    fn layer_pass(&mut self, _tr: &mut Tracer, _m: &mut Measured) {}
}

/// What the passes of one mode (untraced or traced) measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Operations completed per second in each pass.
    pub ops_per_s: Vec<f64>,
    /// Each pass's tail operation latency, milliseconds.
    pub pass_tail: Vec<f64>,
    /// Peak resident set (MiB) through set-up and the first pass.
    pub peak_rss_mib: f64,
    /// Latency of each operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Digest of the simulated counters of each pass (simulating
    /// workloads only).
    pub digests: Vec<u64>,
    /// Layer counters.
    pub c: Counters,
    /// Latency samples (milliseconds) of each class of operation, for
    /// workloads that have classes: they give per-layer percentiles and the
    /// end-to-end tail of the worst-served class.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    next_op: u64,
}

impl Measured {
    /// Counts one operation or check; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// A fresh operation id for spans.
    pub fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }
}

/// Folds every counter of `s` into an FNV-1a digest.
#[must_use]
pub fn digest_stats(mut h: u64, s: &SimStats) -> u64 {
    let fields = [
        s.cycles,
        s.cycles_skipped,
        s.warp_instructions,
        s.thread_instructions,
        s.l1_hits,
        s.l1_misses,
        s.l2_data_hits,
        s.l2_data_misses,
        s.l2_md_hits,
        s.l2_md_misses,
        s.dram.data_reads,
        s.dram.data_writebacks,
        s.dram.metadata_reads,
        s.dram.metadata_writebacks,
        s.noc_flits,
        s.detector_events,
        s.detector_lane_accesses,
        s.stalls.lhd,
        s.stalls.noc_full,
        s.stalls.memory,
        s.stalls.barrier,
        s.unique_races as u64,
        s.total_races,
        s.faults_injected,
    ];
    for f in fields {
        for byte in f.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The FNV-1a offset basis, the digest of nothing.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A child seed stream for `seed`, separated by `salt` so two inputs
/// drawn from one `--seed` never share a stream.
#[must_use]
pub fn rng(seed: u64, salt: u64) -> SplitMix64 {
    let mut root = SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    SplitMix64::new(root.next_u64())
}
