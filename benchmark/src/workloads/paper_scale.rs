//! `paper-scale`: three long simulations at the paper's input sizes — the
//! 25.6M-element reduction with ScoRD, the 800×500×30 matrix multiply and
//! a 10× R-MAT graph connectivity, both without detection. The
//! single-simulation critical path with a large host working set: Phase A
//! dominates and per-simulation set-up is negligible.
//!
//! `--seed` draws the reduction's and the matrix multiply's input values,
//! which leave their work unchanged; outputs are checked against the CPU
//! references. The graph keeps the suite's own seed: its structure sets how
//! long connectivity runs (1.08–1.48 s over ten seeds), which would swamp
//! the bound.

use scor_suite::apps::{GraphConnectivity, MatMul, Reduction};
use scor_suite::Benchmark;
use scord_sim::{DetectionMode, GpuConfig};

use super::sim::{simulate, warm_up, Prog};
use super::{rng, Measured, Workload, DIGEST_SEED};
use crate::metrics::Counters;
use crate::trace::Tracer;

/// Device memory for paper-size inputs (25.6M words of reduction input
/// outgrow the 64 MiB default).
const MEM_BYTES: u64 = 192 << 20;

/// The three applications and the detection each runs under.
pub struct PaperScale {
    apps: Vec<(Box<dyn Benchmark>, DetectionMode)>,
}

impl Workload for PaperScale {
    const PASS_S: f64 = 14.3;
    /// Three simulations per pass: the longest.
    const TAIL_PCT: u32 = 100;

    fn setup(seed: u64, tr: &mut Tracer, c: &mut Counters) -> Result<Self, String> {
        let mut r = rng(seed, 2);
        let s = tr.enter("suite.build", 0);
        let red = Reduction {
            elements: 25_600_000,
            blocks: 120,
            threads_per_block: 128,
            seed: r.next_u64(),
            ..Reduction::default()
        };
        let mm = MatMul {
            m: 800,
            k: 500,
            n: 30,
            seed: r.next_u64(),
            ..MatMul::default()
        };
        let gcon = GraphConnectivity::scaled(10);
        let apps: Vec<(Box<dyn Benchmark>, DetectionMode)> = vec![
            (Box::new(red), DetectionMode::scord()),
            (Box::new(mm), DetectionMode::Off),
            (Box::new(gcon), DetectionMode::Off),
        ];
        c.add("suite.setup_s", tr.exit(s));
        let s = tr.enter("sim.warm_up", 0);
        warm_up(MEM_BYTES)?;
        let _ = tr.exit(s);
        Ok(PaperScale { apps })
    }

    fn pass(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let mut digest = DIGEST_SEED;
        for (app, mode) in &self.apps {
            let mut cfg = GpuConfig::paper_default().with_detection(*mode);
            cfg.mem_bytes = MEM_BYTES;
            if let Some(races) =
                simulate(Prog::App(app.as_ref()), cfg, tr, m, &mut digest).and_then(|s| s.races)
            {
                m.check(races == 0, || {
                    format!("{}: {races} false positives on the clean build", app.name())
                });
            }
        }
        m.digests.push(digest);
    }
}
