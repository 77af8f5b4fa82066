//! `paper-tables`: the 71 simulations behind Table VI and Figure 8 at the
//! suite's default sizes — what a user regenerating the paper runs. Many
//! short simulations, detection on in 64 of them, so per-simulation set-up,
//! Phase B and the live detector dominate.
//!
//! Inputs are fixed and independent of `--seed`: the Table VI race counts
//! are calibrated to them.

use scor_suite::micro::{all_micros, Micro};
use scor_suite::Benchmark;
use scord_sim::{DetectionMode, GpuConfig};

use super::sim::{simulate, warm_up, Prog};
use super::{Measured, Workload, DIGEST_SEED};
use crate::metrics::Counters;
use crate::trace::Tracer;

/// Table VI totals (races present, base design, ScoRD) at default sizes.
pub const TABLE6_TOTALS: (usize, usize, usize) = (44, 44, 37);
/// Figure 8's ScoRD geometric-mean overhead at default sizes, in percent,
/// as printed to one decimal.
pub const FIG8_OVERHEAD_PCT: &str = "37.5";

/// The workload's programs.
pub struct PaperTables {
    racey_apps: Vec<Box<dyn Benchmark>>,
    racey_micros: Vec<Micro>,
    clean_apps: Vec<Box<dyn Benchmark>>,
}

fn gpu(mode: DetectionMode) -> GpuConfig {
    GpuConfig::paper_default().with_detection(mode)
}

impl Workload for PaperTables {
    const PASS_S: f64 = 3.8;
    /// 71 simulations per pass.
    const TAIL_PCT: u32 = 85;

    fn setup(_seed: u64, tr: &mut Tracer, c: &mut Counters) -> Result<Self, String> {
        let s = tr.enter("suite.build", 0);
        let w = PaperTables {
            racey_apps: scor_suite::apps::all_apps_racey(),
            racey_micros: all_micros().into_iter().filter(|m| m.racey).collect(),
            clean_apps: scor_suite::apps::all_apps(),
        };
        c.add("suite.setup_s", tr.exit(s));
        let s = tr.enter("sim.warm_up", 0);
        warm_up(GpuConfig::paper_default().mem_bytes)?;
        let _ = tr.exit(s);
        Ok(w)
    }

    fn pass(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let detect = [DetectionMode::base_design(), DetectionMode::scord()];
        let mut digest = DIGEST_SEED;
        let mut present = 0;
        let (mut base, mut scord) = (0, 0);

        // Table VI: racey apps count unique races, racey micros count as
        // detected when they report any.
        for app in &self.racey_apps {
            present += app.expected_races();
            let counts = detect.map(|mode| {
                simulate(Prog::App(app.as_ref()), gpu(mode), tr, m, &mut digest)
                    .and_then(|s| s.races)
                    .unwrap_or(0)
            });
            base += counts[0];
            scord += counts[1];
        }
        for micro in &self.racey_micros {
            present += 1;
            let hit = detect.map(|mode| {
                simulate(Prog::Micro(micro), gpu(mode), tr, m, &mut digest)
                    .and_then(|s| s.races)
                    .is_some_and(|r| r > 0)
            });
            base += usize::from(hit[0]);
            scord += usize::from(hit[1]);
        }
        let totals = (present, base, scord);
        m.check(totals == TABLE6_TOTALS, || {
            format!("Table VI totals {totals:?}, expected {TABLE6_TOTALS:?}")
        });

        // Figure 8: clean apps off / base / ScoRD; detection must stay
        // silent on them.
        let mut log_sum = 0.0;
        for app in &self.clean_apps {
            let modes = [DetectionMode::Off, detect[0], detect[1]];
            let runs =
                modes.map(|mode| simulate(Prog::App(app.as_ref()), gpu(mode), tr, m, &mut digest));
            for r in runs.iter().flatten() {
                let races = r.races.unwrap_or(0);
                m.check(races == 0, || {
                    format!("{}: {races} false positives on the clean build", app.name())
                });
            }
            if let (Some(off), Some(sc)) = (&runs[0], &runs[2]) {
                log_sum += (sc.stats.cycles as f64 / off.stats.cycles as f64).ln();
            }
        }
        let overhead = ((log_sum / self.clean_apps.len() as f64).exp() - 1.0) * 100.0;
        m.check(format!("{overhead:.1}") == FIG8_OVERHEAD_PCT, || {
            format!("Figure 8 geomean overhead {overhead:.3}%, expected {FIG8_OVERHEAD_PCT}%")
        });
        m.c.set("sim.scord_overhead_pct", overhead);
        m.digests.push(digest);
    }
}
