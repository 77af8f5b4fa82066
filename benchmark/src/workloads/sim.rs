//! One simulation, timed at the `sim` and `detector` layer boundaries.

use std::sync::Arc;

use scor_suite::micro::Micro;
use scor_suite::Benchmark;
use scord_core::ScordDetector;
use scord_sim::{DetectionMode, Gpu, GpuConfig, SimError, SimStats};

use super::Measured;
use crate::trace::{DetectorCounters, Timed, Tracer};

/// A program the suite can run on a GPU.
#[derive(Clone, Copy)]
pub enum Prog<'a> {
    /// An application.
    App(&'a dyn Benchmark),
    /// A microbenchmark.
    Micro(&'a Micro),
}

impl Prog<'_> {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Prog::App(a) => a.name(),
            Prog::Micro(m) => m.name,
        }
    }

    fn run(&self, gpu: &mut Gpu) -> Result<(SimStats, Option<bool>), SimError> {
        match self {
            Prog::App(a) => a.run(gpu).map(|r| (r.stats, r.output_valid)),
            Prog::Micro(m) => m.run(gpu).map(|s| (s, None)),
        }
    }
}

/// Runs every racey microbenchmark under each detection mode on GPUs with
/// `mem_bytes` of device memory, so the first timed simulation does not
/// pay for first-use page faults and allocator growth.
///
/// # Errors
///
/// The simulator's error, should a microbenchmark fail.
pub fn warm_up(mem_bytes: u64) -> Result<(), String> {
    for micro in scor_suite::micro::all_micros().iter().filter(|m| m.racey) {
        for mode in [
            DetectionMode::Off,
            DetectionMode::base_design(),
            DetectionMode::scord(),
        ] {
            let mut cfg = GpuConfig::paper_default().with_detection(mode);
            cfg.mem_bytes = mem_bytes;
            micro
                .run(&mut Gpu::new(cfg))
                .map_err(|e| format!("warm-up {}: {e}", micro.name))?;
        }
    }
    Ok(())
}

/// What a simulation produced.
pub struct Simulated {
    /// Simulated counters (summed over the run's launches).
    pub stats: SimStats,
    /// Unique races, when detection was on.
    pub races: Option<usize>,
}

/// Builds a GPU for `cfg`, runs `prog` on it and records the operation's
/// latency, its layer counters, and a failed check if the simulation
/// errs or validates wrong output. The digest of the simulated counters is
/// folded into `digest`.
pub fn simulate(
    prog: Prog<'_>,
    cfg: GpuConfig,
    tr: &mut Tracer,
    m: &mut Measured,
    digest: &mut u64,
) -> Option<Simulated> {
    let op = m.op_id();
    let span = tr.enter("sim.op", op);
    let counters = Arc::new(DetectorCounters::default());
    let new = tr.enter("sim.gpu_new", op);
    let mut gpu = if tr.on() {
        let c = Arc::clone(&counters);
        let mut g =
            Gpu::with_detector_factory(cfg, |dc| Box::new(Timed::new(ScordDetector::new(dc), c)));
        g.set_phase_timing(true);
        g
    } else {
        Gpu::new(cfg)
    };
    let new_s = tr.exit(new);
    let run = tr.enter("sim.run", op);
    let result = prog.run(&mut gpu);
    let run_s = tr.exit(run);
    m.op_ms.push(tr.exit(span) * 1e3);

    let (stats, valid) = match result {
        Ok(r) => r,
        Err(e) => {
            m.check(false, || format!("{}: {e}", prog.name()));
            return None;
        }
    };
    m.check(valid != Some(false), || {
        format!("{}: output differs from the CPU reference", prog.name())
    });
    *digest = super::digest_stats(*digest, &stats);
    let races = gpu.races().map(scord_core::RaceLog::unique_count);

    let c = &mut m.c;
    c.add("sim.gpus", 1.0);
    c.add("sim.gpu_new_s", new_s);
    c.add("sim.run_s", run_s);
    c.add("sim.cycles", stats.cycles as f64);
    c.add("sim.cycles_skipped", stats.cycles_skipped as f64);
    c.add("sim.warp_insts", stats.warp_instructions as f64);
    c.add("sim.l1_hits", stats.l1_hits as f64);
    c.add("sim.l1_accesses", (stats.l1_hits + stats.l1_misses) as f64);
    c.add("sim.l2_data_hits", stats.l2_data_hits as f64);
    c.add(
        "sim.l2_data_accesses",
        (stats.l2_data_hits + stats.l2_data_misses) as f64,
    );
    c.add("sim.l2_md_hits", stats.l2_md_hits as f64);
    c.add(
        "sim.l2_md_accesses",
        (stats.l2_md_hits + stats.l2_md_misses) as f64,
    );
    c.add("sim.dram_data", stats.dram.data() as f64);
    c.add("sim.dram_md", stats.dram.metadata() as f64);
    c.add("sim.noc_flits", stats.noc_flits as f64);
    c.add("sim.stall_lhd", stats.stalls.lhd as f64);
    c.add("sim.stall_noc_full", stats.stalls.noc_full as f64);
    c.add("sim.stall_memory", stats.stalls.memory as f64);
    c.add("sim.stall_barrier", stats.stalls.barrier as f64);
    c.max("pool.sm_threads", f64::from(gpu.sm_threads()));
    c.max("pool.mem_threads", f64::from(gpu.mem_threads()));
    if let Some(r) = races {
        c.add("detector.races_unique", r as f64);
    }
    if let Some((bytes, entries)) = gpu.detector_store_usage() {
        c.max("detector.store_bytes", bytes as f64);
        c.max("detector.store_entries", entries as f64);
    }
    if tr.on() {
        // Every suite program makes one launch, and the phase clocks cover
        // the last launch, so they cover the whole run.
        let (a, b) = gpu.phase_nanos();
        let shard: u64 = gpu.shard_phase_b_nanos().iter().sum();
        let (a, b) = (a as f64 * 1e-9, b as f64 * 1e-9);
        c.add("sim.phase_a_s", a);
        c.add("sim.phase_b_s", b);
        c.add("sim.shard_b_s", shard as f64 * 1e-9);
        c.add("sim.other_s", run_s - a - b);
        let (access_calls, access_s, sync_calls, sync_s) = counters.read();
        c.add("detector.access_calls", access_calls as f64);
        c.add("detector.access_s", access_s);
        c.add("detector.sync_calls", sync_calls as f64);
        c.add("detector.sync_s", sync_s);
        c.add("detector.busy_s", access_s + sync_s);
    }
    Some(Simulated { stats, races })
}
