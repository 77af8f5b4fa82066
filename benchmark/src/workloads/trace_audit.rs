//! `trace-audit`: scord-core's offline layers with no simulator in the
//! timed part. Traces of the seven racey applications, captured at set-up
//! with a `RecordingDetector`, replay through the ScoRD detector (cached
//! and full metadata store) and the exact oracle; seeded fuzz traces run
//! through the interleaving explorer and the predictive detector. Any
//! simulator change should leave this workload flat.

use scord_core::explore::{explore, oracle_keys, ExploreConfig};
use scord_core::predict::{predict, PredictConfig, PredictionClass};
use scord_core::{
    Detector, DetectorConfig, FuzzConfig, Geometry, RecordingDetector, ScordDetector, StoreKind,
    Trace,
};
use scord_sim::{DetectionMode, Gpu, GpuConfig};

use super::{rng, Measured, Workload};
use crate::metrics::Counters;
use crate::trace::Tracer;

/// Fuzz traces per pass.
pub const FUZZ_TRACES: usize = 128;
/// Interleavings the explorer tries per fuzz trace.
const SCHEDULE_BOUND: u32 = 64;
const RACE_PCT: [u32; 4] = [0, 10, 30, 60];
/// `(sms, blocks_per_sm, warps_per_block)`: the differential audit's four
/// machine shapes.
const SHAPES: [(u8, u8, u8); 4] = [(2, 2, 2), (1, 2, 4), (2, 1, 2), (3, 2, 1)];
const LENGTHS: [u32; 3] = [240, 1000, 2000];
/// Seed of the fuzz traces' contents (see [`fuzz_corpus`]).
const CORPUS_SEED: u64 = 0x5c0d;

/// Whether `cfg` is the race-free configuration the fuzz generator's own
/// tests pin as oracle-clean. Other shapes and lengths at race_pct 0 can
/// race (3 of this corpus's 20 such traces of 1000–2000 events do), so the
/// clean check covers only this one.
fn pinned_clean(cfg: &FuzzConfig) -> bool {
    *cfg == FuzzConfig {
        race_pct: 0,
        ..FuzzConfig::default()
    }
}

/// A captured application trace and what the live run reported.
struct Captured {
    name: &'static str,
    trace: Trace,
    config: DetectorConfig,
    live_unique: usize,
}

/// A seeded fuzz trace.
pub struct FuzzCase {
    /// The generator settings.
    pub cfg: FuzzConfig,
    /// Seed of its explorer's and predictor's schedules.
    pub seed: u64,
    /// The trace.
    pub trace: Trace,
}

/// The workload's inputs.
pub struct TraceAudit {
    captured: Vec<Captured>,
    fuzz: Vec<FuzzCase>,
}

/// The fuzz corpus for `seed`: rotating race rates, machine shapes and
/// lengths, so every pass covers clean and racey traces of each shape.
///
/// The traces themselves are the same for every seed and `seed` draws the
/// explorer's and predictor's schedule seeds: the cost of exploring and
/// predicting one trace varies several-fold with its contents, so a
/// corpus drawn afresh per seed would move the workload's time by more
/// than any bound could tolerate.
#[must_use]
pub fn fuzz_corpus(seed: u64) -> Vec<FuzzCase> {
    let mut contents = rng(CORPUS_SEED, 3);
    let mut schedules = rng(seed, 3);
    (0..FUZZ_TRACES)
        .map(|i| {
            let (sms, blocks_per_sm, warps_per_block) = SHAPES[(i / 4) % 4];
            let cfg = FuzzConfig {
                sms,
                blocks_per_sm,
                warps_per_block,
                race_pct: RACE_PCT[i % 4],
                events: LENGTHS[(i / 16) % 3],
                ..FuzzConfig::default()
            };
            FuzzCase {
                cfg,
                trace: cfg.generate(contents.next_u64()),
                seed: schedules.next_u64(),
            }
        })
        .collect()
}

impl Workload for TraceAudit {
    const PASS_S: f64 = 6.0;
    /// 7 captured and 128 fuzz traces per pass.
    const TAIL_PCT: u32 = 92;

    fn setup(seed: u64, tr: &mut Tracer, c: &mut Counters) -> Result<Self, String> {
        let mut captured = Vec::new();
        for app in scor_suite::apps::all_apps_racey() {
            let s = tr.enter("suite.capture", 0);
            let cfg = GpuConfig::paper_default().with_detection(DetectionMode::scord());
            let mut gpu = Gpu::with_detector_factory(cfg, |dc| {
                Box::new(RecordingDetector::new(ScordDetector::new(dc)))
            });
            app.run(&mut gpu)
                .map_err(|e| format!("capturing {}: {e}", app.name()))?;
            let live_unique = gpu.races().map_or(0, scord_core::RaceLog::unique_count);
            let trace = gpu
                .recorded_trace()
                .cloned()
                .ok_or_else(|| format!("{}: no trace recorded", app.name()))?;
            let config = cfg
                .detector_config()
                .ok_or_else(|| format!("{}: detection off", app.name()))?;
            c.add("suite.setup_s", tr.exit(s));
            captured.push(Captured {
                name: app.name(),
                trace,
                config,
                live_unique,
            });
        }
        Ok(TraceAudit {
            captured,
            fuzz: fuzz_corpus(seed),
        })
    }

    fn pass(&mut self, tr: &mut Tracer, m: &mut Measured) {
        for cap in &self.captured {
            let op = m.op_id();
            let span = tr.enter("audit.captured", op);
            let events = cap.trace.len() as f64;

            let s = tr.enter("detector.replay", op);
            let mut cached = ScordDetector::new(cap.config);
            let ok = cap.trace.replay(&mut cached);
            let replay_s = tr.exit(s);
            let unique = cached.races().unique_count();
            m.check(ok.is_ok() && unique == cap.live_unique, || {
                format!(
                    "{}: replay found {unique} unique races ({ok:?}), live run {}",
                    cap.name, cap.live_unique
                )
            });

            let s = tr.enter("detector.replay_full", op);
            let mut full = ScordDetector::new(DetectorConfig {
                store: StoreKind::Full { granularity: 4 },
                ..cap.config
            });
            let ok = cap.trace.replay(&mut full);
            let replay_full_s = tr.exit(s);
            m.check(ok.is_ok(), || {
                format!("{}: full-store replay {ok:?}", cap.name)
            });

            let s = tr.enter("oracle.replay", op);
            let keys = oracle_keys(&cap.trace, cap.config.geometry);
            let oracle_s = tr.exit(s);
            m.check(keys.is_ok(), || {
                format!("{}: oracle replay {keys:?}", cap.name)
            });

            m.op_ms.push(tr.exit(span) * 1e3);
            let c = &mut m.c;
            c.add("detector.replay_s", replay_s);
            c.add("detector.replay_full_s", replay_full_s);
            c.add("detector.replay_total_s", replay_s + replay_full_s);
            c.add("detector.replay_events", 2.0 * events);
            c.add("oracle.replay_s", oracle_s);
            c.add("oracle.events", events);
            c.add("oracle.race_keys", keys.map_or(0, |k| k.len()) as f64);
        }

        let geometry = Geometry::paper_default();
        for case in &self.fuzz {
            let op = m.op_id();
            let span = tr.enter("audit.fuzz", op);

            let s = tr.enter("explore.explore", op);
            let explored = explore(
                &case.trace,
                geometry,
                &ExploreConfig {
                    bound: SCHEDULE_BOUND,
                    seed: case.seed,
                },
            );
            let explore_s = tr.exit(s);

            let s = tr.enter("predict.predict", op);
            let predicted = predict(
                &case.trace,
                geometry,
                &PredictConfig {
                    seed: case.seed,
                    ..PredictConfig::default()
                },
            );
            let predict_s = tr.exit(s);
            m.op_ms.push(tr.exit(span) * 1e3);

            match explored {
                Ok(out) => {
                    let must_be_clean = pinned_clean(&case.cfg);
                    m.check(!must_be_clean || out.baseline.is_empty(), || {
                        format!(
                            "fuzz seed {} ({:?}): race_pct 0 trace has {} oracle races",
                            case.seed,
                            case.cfg,
                            out.baseline.len()
                        )
                    });
                    let c = &mut m.c;
                    c.add("explore.s", explore_s);
                    c.add("explore.schedules", out.schedules_run as f64);
                    c.add("explore.distinct", out.distinct as f64);
                    c.add("explore.attempts", f64::from(SCHEDULE_BOUND + 1));
                    c.add(
                        "explore.schedule_only_keys",
                        out.beyond_baseline().len() as f64,
                    );
                }
                Err(e) => m.check(false, || format!("fuzz seed {}: explore {e}", case.seed)),
            }
            match predicted {
                Ok(out) => {
                    let unconfirmed = out.count(PredictionClass::Unconfirmed);
                    m.check(unconfirmed == 0, || {
                        format!(
                            "fuzz seed {}: {unconfirmed} unconfirmed predictions",
                            case.seed
                        )
                    });
                    let c = &mut m.c;
                    c.add("predict.s", predict_s);
                    c.add("predict.raw_candidates", out.raw_candidates as f64);
                    c.add("predict.predictions", out.predictions.len() as f64);
                    c.add(
                        "predict.confirmed",
                        out.count(PredictionClass::Confirmed) as f64,
                    );
                    c.add("predict.unconfirmed", unconfirmed as f64);
                }
                Err(e) => m.check(false, || format!("fuzz seed {}: predict {e}", case.seed)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_corpus_fixes_traces_and_seeds_schedules() {
        let (a, b) = (fuzz_corpus(1), fuzz_corpus(2));
        assert_eq!(a.len(), FUZZ_TRACES);
        let texts =
            |c: &[FuzzCase]| -> Vec<String> { c.iter().map(|f| f.trace.to_text()).collect() };
        let seeds = |c: &[FuzzCase]| -> Vec<u64> { c.iter().map(|f| f.seed).collect() };
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(seeds(&a), seeds(&fuzz_corpus(1)));
        assert_ne!(seeds(&a), seeds(&b));
        let pcts: Vec<u32> = a.iter().map(|c| c.cfg.race_pct).take(4).collect();
        assert_eq!(pcts, RACE_PCT);
    }
}
