//! `scord-bench`: the repository benchmark of the ScoRD reproduction.
//!
//! ```text
//! scord-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!             [--record FILE]
//! scord-bench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run sets the workload up three times (reporting the median as
//! `setup_s`), then runs its fixed passes with tracing off and prints every
//! end-to-end metric. With `--trace 1` it runs the same passes again with
//! timing at every layer boundary and prints the per-layer metrics
//! instead, writing the spans to `.bench_spans/<workload>-seed<N>.jsonl`.
//! The last line of standard output is always one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod compare;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Counters, END_TO_END};
use trace::Tracer;
use workloads::{Measured, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Parsed command line of a run.
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

const USAGE: &str = "usage: scord-bench --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--record FILE]\n       scord-bench compare PARENT.jsonl CHANGE.jsonl";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !o.seconds.is_finite() || o.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--record" => o.record = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(o)
}

/// What a run reports.
struct RunReport {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// One pass's tail latency: the `pct` nearest-rank percentile of each class
/// of operations, the worst class's when there are several — a class small
/// enough to sit above a pooled percentile would otherwise vanish from it.
/// The worst of several is their maximum, so it moves continuously when the
/// worst class changes.
fn tail_ms<'a>(classes: impl IntoIterator<Item = &'a [f64]>, pct: u32) -> f64 {
    classes
        .into_iter()
        .filter_map(|v| stats::nearest_rank(&stats::sorted(v), pct))
        .fold(0.0, f64::max)
}

/// Runs `passes` passes of `w`, tracing when `tr` is on.
fn measure<W: Workload>(w: &mut W, passes: usize, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    for pass in 0..passes {
        let ops = m.op_ms.len();
        let before: BTreeMap<&str, usize> = m.series.iter().map(|(k, v)| (*k, v.len())).collect();
        let t = Instant::now();
        w.pass(tr, &mut m);
        let dt = t.elapsed().as_secs_f64();
        m.ops_per_s.push((m.op_ms.len() - ops) as f64 / dt);
        let pass_tail = if m.series.is_empty() {
            tail_ms([&m.op_ms[ops..]], W::TAIL_PCT)
        } else {
            let classes = m
                .series
                .iter()
                .map(|(k, v)| &v[before.get(k).copied().unwrap_or(0)..]);
            tail_ms(classes, W::TAIL_PCT)
        };
        m.pass_tail.push(pass_tail);
        if pass == 0 {
            // What one regeneration costs: later passes only add allocator
            // fragmentation, which differs from run to run.
            m.peak_rss_mib = peak_rss_mib();
        }
        if tr.on() {
            w.layer_pass(tr, &mut m);
        }
    }
    m
}

fn run_workload<W: Workload>(o: &Opts) -> Result<RunReport, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(o.trace, epoch);
    let mut setup_counters = Counters::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        let mut tr = Tracer::new(o.trace && rep + 1 == SETUP_REPS, epoch);
        let mut c = Counters::default();
        let t = Instant::now();
        state = Some(W::setup(o.seed, &mut tr, &mut c)?);
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.absorb(tr);
        setup_counters = c;
    }
    let mut w = state.expect("at least one set-up");
    let passes = ((o.seconds / W::PASS_S).round() as usize).max(1);

    let plain = measure(&mut w, passes, &mut Tracer::new(false, epoch));
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut failures = plain.failures.clone();
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);

    let metrics = if o.trace {
        let mut traced = measure(&mut w, passes, &mut tracer);
        drop(w);
        let same = traced.digests == plain.digests;
        traced.check(same, || {
            "sim.stats_digest differs between the traced and untraced passes".into()
        });
        attempted += traced.attempted;
        failed += traced.failed;
        failures.extend(traced.failures.iter().cloned());

        let mut c = traced.c;
        c.merge(&setup_counters);
        if let Some(&d) = traced.digests.first() {
            // Masked to 53 bits so the JSON number is exact.
            c.set("sim.stats_digest", (d & ((1 << 53) - 1)) as f64);
        }
        let overhead = (median(&plain.ops_per_s) / median(&traced.ops_per_s) - 1.0) * 100.0;
        c.set("trace.overhead_pct", overhead);

        let path = PathBuf::from(format!(".bench_spans/{}-seed{}.jsonl", o.workload, o.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}; self time by span:",
            tracer.spans().len(),
            path.display()
        );
        for (name, (count, total, own)) in trace::self_times(tracer.spans()) {
            println!(
                "#   {name:<24} {count:>8} spans {:>12.6} s total {:>12.6} s self",
                total as f64 * 1e-9,
                own as f64 * 1e-9
            );
        }
        metrics::per_layer(&c, passes)
            .into_iter()
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    } else {
        drop(w);
        println!(
            "# {passes} pass(es), {} operations; medians over passes, tail_ms of each pass's p{}; \
             setup_s the median of {SETUP_REPS} set-ups",
            plain.op_ms.len(),
            W::TAIL_PCT
        );
        let values = [
            median(&setup_s),
            median(&plain.ops_per_s),
            plain.peak_rss_mib,
            median(&plain.pass_tail),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    Ok(RunReport {
        attempted,
        failed,
        metrics,
    })
}

/// Peak resident set (`VmHWM`) of this process, MiB; 0 where `/proc` is
/// unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn result_json(r: &RunReport) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted.max(1),
        r.failed
    );
    for (i, (name, unit, v)) in r.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, name);
        out.push_str(": {\"value\": ");
        json::write_num(&mut out, *v);
        out.push_str(", \"unit\": ");
        json::write_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn record(o: &Opts, result: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let Some(path) = &o.record else {
        return Ok(());
    };
    let mut line = String::from("{\"workload\": ");
    json::write_str(&mut line, &o.workload);
    line.push_str(&format!(
        ", \"seed\": {}, \"trace\": {}, ",
        o.seed,
        u8::from(o.trace)
    ));
    line.push_str(&result[1..]);
    line.push('\n');
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, parent, change] => match compare::run(parent, change) {
                Ok(code) => ExitCode::from(code as u8),
                Err(e) => {
                    eprintln!("scord-bench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scord-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match o.workload.as_str() {
        "paper-tables" => run_workload::<workloads::paper_tables::PaperTables>(&o),
        "paper-scale" => run_workload::<workloads::paper_scale::PaperScale>(&o),
        "trace-audit" => run_workload::<workloads::trace_audit::TraceAudit>(&o),
        "serve" => run_workload::<workloads::serve::Serve>(&o),
        _ => unreachable!("parse_args checked the name"),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scord-bench: {}: {e}", o.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "# workload {} seed {} trace {}: {} attempted, {} failed",
        o.workload,
        o.seed,
        u8::from(o.trace),
        report.attempted,
        report.failed
    );
    for (name, unit, v) in &report.metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    let result = result_json(&report);
    if let Err(e) = record(&o, &result) {
        eprintln!("scord-bench: recording the run: {e}");
        return ExitCode::from(1);
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunReport {
            attempted: 3,
            failed: 1,
            metrics: vec![("wall_s", "s", 1.25)],
        };
        let v = json::parse(&result_json(&r)).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        let m = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(json::Value::as_str), Some("s"));
    }

    #[test]
    fn fixed_work_tail_percentiles_follow_the_ten_beyond_rule() {
        use workloads::trace_audit::{TraceAudit, FUZZ_TRACES};
        use workloads::{paper_scale::PaperScale, paper_tables::PaperTables};
        assert_eq!(stats::tail_percentile(71), Some(PaperTables::TAIL_PCT));
        assert_eq!(
            stats::tail_percentile(7 + FUZZ_TRACES),
            Some(TraceAudit::TAIL_PCT)
        );
        assert_eq!(stats::tail_percentile(3), None);
        assert_eq!(PaperScale::TAIL_PCT, 100);
    }

    #[test]
    fn serve_tail_percentile_does_not_follow_the_sample_count() {
        use workloads::serve::Serve;
        // A slow and a fast server: 100 and 20,000 requests in a pass. Both
        // are read at the same percentile, not p90 and p99.
        assert_eq!(stats::tail_percentile(100), Some(90));
        assert_eq!(stats::tail_percentile(20_000), Some(99));
        for n in [100u32, 20_000] {
            let lat: Vec<f64> = (1..=n).map(f64::from).collect();
            let tail = tail_ms([lat.as_slice()], Serve::TAIL_PCT);
            assert_eq!(tail / f64::from(n), f64::from(Serve::TAIL_PCT) / 100.0);
        }
        // The worst class sets the tail, whichever it is.
        let (slow, fast) = ([40.0; 200], [1.0; 9000]);
        assert_eq!(tail_ms([&fast[..], &slow[..]], Serve::TAIL_PCT), 40.0);
        assert_eq!(tail_ms([&slow[..], &fast[..]], Serve::TAIL_PCT), 40.0);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = parse_args(&args("--workload serve --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload serve --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve --seconds 0")).is_err());
        assert!(parse_args(&args("--workload serve --bogus 1")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }
}
