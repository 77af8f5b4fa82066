//! The benchmark's metric catalogue — the single source for the names,
//! units, directions and bounds that `BENCHMARK.json` repeats (a self-test
//! keeps the two in agreement) — and the counters the per-layer metrics
//! are derived from.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, measured with
/// tracing off, with the share of the parent's median by which it may get
/// worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (share of the parent's median).
    pub bound: f64,
}

/// Every end-to-end metric, reported for every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.09,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.09,
    },
];

/// How a per-layer metric is derived from the run's [`Counters`].
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    /// The counter of the same name, divided by the number of passes.
    PerPass,
    /// The counter of the same name, as set (a value, not a sum).
    Value,
    /// `scale × numerator / denominator` over the run's counter totals
    /// (0 when the denominator is 0).
    Ratio(&'static str, &'static str, f64),
}

/// A per-layer metric (traced run only; no regression bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Derivation from the counters.
    pub agg: Agg,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, agg: Agg) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        agg,
    }
}

use Agg::{PerPass, Ratio, Value};
use Better::{Higher, Lower};

/// Every per-layer metric, reported (0 where a workload does not reach the
/// layer) for every workload. Times and counts are per pass.
pub const PER_LAYER: &[PerLayer] = &[
    pl("suite.setup_s", "s", Lower, Value),
    pl("sim.gpus", "count", Lower, PerPass),
    pl("sim.gpu_new_s", "s", Lower, PerPass),
    pl("sim.run_s", "s", Lower, PerPass),
    pl("sim.phase_a_s", "s", Lower, PerPass),
    pl("sim.phase_b_s", "s", Lower, PerPass),
    pl("sim.shard_b_s", "s", Lower, PerPass),
    pl("sim.other_s", "s", Lower, PerPass),
    pl(
        "sim.ns_per_winst",
        "ns",
        Lower,
        Ratio("sim.run_s", "sim.warp_insts", 1e9),
    ),
    pl("sim.cycles_skipped", "cycles", Higher, PerPass),
    pl(
        "sim.skip_ratio",
        "ratio",
        Higher,
        Ratio("sim.cycles_skipped", "sim.cycles", 1.0),
    ),
    pl("sim.cycles", "cycles", Lower, PerPass),
    pl("sim.warp_insts", "count", Lower, PerPass),
    pl(
        "sim.l1_hit_rate",
        "ratio",
        Higher,
        Ratio("sim.l1_hits", "sim.l1_accesses", 1.0),
    ),
    pl(
        "sim.l2_data_hit_rate",
        "ratio",
        Higher,
        Ratio("sim.l2_data_hits", "sim.l2_data_accesses", 1.0),
    ),
    pl(
        "sim.l2_md_hit_rate",
        "ratio",
        Higher,
        Ratio("sim.l2_md_hits", "sim.l2_md_accesses", 1.0),
    ),
    pl("sim.dram_data", "count", Lower, PerPass),
    pl("sim.dram_md", "count", Lower, PerPass),
    pl("sim.noc_flits", "count", Lower, PerPass),
    pl("sim.stall_lhd", "cycles", Lower, PerPass),
    pl("sim.stall_noc_full", "cycles", Lower, PerPass),
    pl("sim.stall_memory", "cycles", Lower, PerPass),
    pl("sim.stall_barrier", "cycles", Lower, PerPass),
    pl("sim.stats_digest", "hash", Lower, Value),
    pl("sim.scord_overhead_pct", "%", Lower, Value),
    pl("pool.sm_threads", "threads", Lower, Value),
    pl("pool.mem_threads", "threads", Lower, Value),
    pl("detector.access_calls", "count", Lower, PerPass),
    pl("detector.access_s", "s", Lower, PerPass),
    pl(
        "detector.ns_per_access",
        "ns",
        Lower,
        Ratio("detector.access_s", "detector.access_calls", 1e9),
    ),
    pl("detector.sync_calls", "count", Lower, PerPass),
    pl("detector.sync_s", "s", Lower, PerPass),
    pl(
        "detector.phase_b_share",
        "ratio",
        Lower,
        Ratio("detector.busy_s", "sim.phase_b_s", 1.0),
    ),
    pl("detector.races_unique", "count", Higher, PerPass),
    pl("detector.store_bytes", "B", Lower, Value),
    pl("detector.store_entries", "count", Lower, Value),
    pl("detector.replay_s", "s", Lower, PerPass),
    pl("detector.replay_full_s", "s", Lower, PerPass),
    pl(
        "detector.events_per_s",
        "1/s",
        Higher,
        Ratio("detector.replay_events", "detector.replay_total_s", 1.0),
    ),
    pl("oracle.replay_s", "s", Lower, PerPass),
    pl(
        "oracle.events_per_s",
        "1/s",
        Higher,
        Ratio("oracle.events", "oracle.replay_s", 1.0),
    ),
    pl("oracle.race_keys", "count", Higher, PerPass),
    pl("explore.s", "s", Lower, PerPass),
    pl("explore.schedules", "count", Higher, PerPass),
    pl("explore.distinct", "count", Higher, PerPass),
    pl(
        "explore.distinct_ratio",
        "ratio",
        Higher,
        Ratio("explore.distinct", "explore.attempts", 1.0),
    ),
    pl(
        "explore.us_per_schedule",
        "us",
        Lower,
        Ratio("explore.s", "explore.schedules", 1e6),
    ),
    pl("explore.schedule_only_keys", "count", Higher, PerPass),
    pl("predict.s", "s", Lower, PerPass),
    pl("predict.raw_candidates", "count", Lower, PerPass),
    pl("predict.predictions", "count", Higher, PerPass),
    pl(
        "predict.confirmed_ratio",
        "ratio",
        Higher,
        Ratio("predict.confirmed", "predict.predictions", 1.0),
    ),
    pl("predict.unconfirmed", "count", Lower, PerPass),
    pl("wire.encode_s", "s", Lower, PerPass),
    pl("wire.decode_s", "s", Lower, PerPass),
    pl("wire.bytes", "B", Lower, PerPass),
    pl(
        "wire.mb_per_s",
        "MB/s",
        Higher,
        Ratio("wire.bytes", "wire.s", 1e-6),
    ),
    pl("serve.connect_s", "s", Lower, PerPass),
    pl("serve.send_s", "s", Lower, PerPass),
    pl("serve.wait_s", "s", Lower, PerPass),
    pl(
        "serve.session.traces_per_s",
        "1/s",
        Higher,
        Ratio("serve.session.completed", "serve.session.wall_s", 1.0),
    ),
    pl("serve.session.p50_ms", "ms", Lower, Value),
    pl("serve.session.p99_ms", "ms", Lower, Value),
    pl(
        "serve.oneshot.traces_per_s",
        "1/s",
        Higher,
        Ratio("serve.oneshot.completed", "serve.oneshot.wall_s", 1.0),
    ),
    pl("serve.oneshot.p50_ms", "ms", Lower, Value),
    pl("serve.oneshot.p99_ms", "ms", Lower, Value),
    pl("serve.accepted", "count", Lower, PerPass),
    pl("serve.completed", "count", Higher, PerPass),
    pl("serve.shed_busy", "count", Lower, PerPass),
    pl("serve.quarantined", "count", Lower, PerPass),
    pl("serve.disconnected", "count", Lower, PerPass),
    pl("serve.reaped_deadline", "count", Lower, PerPass),
    pl("trace.overhead_pct", "%", Lower, Value),
];

/// Named totals a run accumulates; the per-layer metrics are derived from
/// them by [`per_layer`].
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_insert(0.0) += v;
    }

    /// Sets counter `k` to `v`.
    pub fn set(&mut self, k: &'static str, v: f64) {
        self.0.insert(k, v);
    }

    /// Raises counter `k` to at least `v`.
    pub fn max(&mut self, k: &'static str, v: f64) {
        let e = self.0.entry(k).or_insert(v);
        *e = e.max(v);
    }

    /// Counter `k` (0 when never touched).
    #[must_use]
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }

    /// Adds every counter of `other` into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (&k, &v) in &other.0 {
            self.add(k, v);
        }
    }
}

/// Every per-layer metric's value for a traced run of `passes` passes.
#[must_use]
pub fn per_layer(c: &Counters, passes: usize) -> Vec<(&'static PerLayer, f64)> {
    let passes = passes.max(1) as f64;
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.agg {
                Agg::PerPass => c.get(m.name) / passes,
                Agg::Value => c.get(m.name),
                Agg::Ratio(num, den, scale) => {
                    let d = c.get(den);
                    if d == 0.0 {
                        0.0
                    } else {
                        scale * c.get(num) / d
                    }
                }
            };
            (m, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    /// `true` when `name` is a valid metric or workload name: 1–64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES.iter().copied());
        for n in names {
            assert!(valid_name(n), "bad name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                (1..=16).contains(&unit.len())
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn catalogue_agrees_with_benchmark_json() {
        let doc = benchmark_json();
        let list = |key: &str| {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .to_vec()
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(json::Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(json::Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(json::Value::as_str),
                Some(m.better.label())
            );
            assert_eq!(j.get("bound").and_then(json::Value::as_f64), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(json::Value::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(json::Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(json::Value::as_str),
                Some(m.better.label())
            );
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn bounds_stay_within_ten_percent_and_setup_has_the_largest() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.10,
                "{} bound {}",
                m.name,
                m.bound
            );
            assert!(m.bound <= setup.bound, "{} bound above setup_s's", m.name);
        }
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        let mut c = Counters::default();
        c.add("sim.run_s", 2.0);
        c.add("sim.warp_insts", 4e9);
        c.add("sim.gpus", 6.0);
        c.set("sim.stats_digest", 7.0);
        let v: BTreeMap<&str, f64> = per_layer(&c, 3)
            .into_iter()
            .map(|(m, v)| (m.name, v))
            .collect();
        assert_eq!(v["sim.ns_per_winst"], 0.5);
        assert_eq!(v["sim.gpus"], 2.0);
        assert_eq!(v["sim.stats_digest"], 7.0);
        assert_eq!(v["sim.skip_ratio"], 0.0);
        assert_eq!(v.len(), PER_LAYER.len());
    }
}
