//! `serve`: the race-detection service under a closed loop of two client
//! threads — the only workload where the wire codec, the reactor, the
//! shard workers and per-stream detector construction run on the path.
//!
//! Client A sends its traces as streams of one persistent session; client
//! B sends each on a connection of its own (`detect_remote`). Both dialects
//! carry traffic, so a change to either shows. A pass is a fixed
//! duration, not a fixed request count: the dialects' speeds differ by two
//! orders of magnitude at the parent commit, and a fixed count sized for
//! the slow one would shrink to a fraction of a second once it is fixed.
//! Trace lengths are log-uniform over 250–8000 events: each pool's length
//! multiset is fixed (one length per stratum) and `--seed` draws the order
//! and the events.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use scord_core::wire::{self, FrameAssembler, FrameType};
use scord_core::{
    Detector, DetectorConfig, FuzzConfig, RaceKind, ScordDetector, SplitMix64, Trace,
};
use scord_serve::{Client, ClientError, Outcome, ServeConfig, Server, SessionEnd, StatsSnapshot};

use super::{rng, Measured, Workload};
use crate::metrics::Counters;
use crate::stats;
use crate::trace::Tracer;

/// Distinct traces client A cycles through (one session stream each): few
/// enough that even the parent commit's session client goes through all of
/// them in every pass, so each pass sends the same mix of lengths.
pub const SESSION_POOL: usize = 64;
/// Distinct traces client B cycles through (one connection each).
pub const ONESHOT_POOL: usize = 1024;
/// Untimed one-shot requests at set-up.
const WARMUP: usize = 32;
const EVENTS_PER_FRAME: usize = 256;
const MIN_EVENTS: f64 = 250.0;
const MAX_EVENTS: f64 = 8000.0;
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A trace and the result an in-process replay gives for it.
pub struct Request {
    /// The trace.
    pub trace: Trace,
    total: u64,
    races: HashSet<(u32, RaceKind)>,
}

/// The traces each client cycles through.
pub struct Corpus {
    /// Client A's traces (persistent session).
    pub session: Vec<Request>,
    /// Client B's traces (one connection each).
    pub oneshot: Vec<Request>,
}

/// `n` trace lengths, one from each of `n` equal-probability strata of the
/// log-uniform distribution over `MIN_EVENTS..MAX_EVENTS`, shuffled by `r`.
fn lengths(n: usize, r: &mut SplitMix64) -> Vec<u32> {
    let ratio = MAX_EVENTS / MIN_EVENTS;
    let mut v: Vec<u32> = (0..n)
        .map(|k| (MIN_EVENTS * ratio.powf((k as f64 + 0.5) / n as f64)).round() as u32)
        .collect();
    for i in (1..n).rev() {
        v.swap(i, (r.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// `n` requests drawn from `r`, each trace paired with its in-process
/// replay under the server's detector configuration.
fn requests(n: usize, r: &mut SplitMix64, detector: DetectorConfig) -> Vec<Request> {
    lengths(n, r)
        .into_iter()
        .map(|events| {
            let trace = FuzzConfig {
                events,
                ..FuzzConfig::default()
            }
            .generate(r.next_u64());
            let mut det = ScordDetector::new(detector);
            // A fuzz trace always fits the paper geometry; a rejected event
            // would show up as a mismatch against the server.
            let _ = trace.replay(&mut det);
            Request {
                total: det.races().total_count(),
                races: det.races().unique_races().collect(),
                trace,
            }
        })
        .collect()
}

/// The corpus for `seed`.
#[must_use]
pub fn corpus(seed: u64, detector: DetectorConfig) -> Corpus {
    let mut r = rng(seed, 4);
    Corpus {
        session: requests(SESSION_POOL, &mut r, detector),
        oneshot: requests(ONESHOT_POOL, &mut r, detector),
    }
}

/// `Ok` when `outcome` is a complete `Done` matching the replay.
fn verify(outcome: Result<Outcome, ClientError>, req: &Request) -> Result<(), String> {
    match outcome {
        Ok(Outcome::Done(d)) if d.partial => Err("partial Done".into()),
        Ok(Outcome::Done(d)) => {
            let races: HashSet<_> = d.races.iter().copied().collect();
            if d.total == req.total && races == req.races && races.len() == d.races.len() {
                Ok(())
            } else {
                Err(format!(
                    "server found {} unique / {} total races, replay {} / {}",
                    d.races.len(),
                    d.total,
                    req.races.len(),
                    req.total
                ))
            }
        }
        Ok(Outcome::Busy) => Err("shed with Busy".into()),
        Ok(Outcome::ServerError(e)) => Err(format!("server error: {}", e.message)),
        Err(e) => Err(e.to_string()),
    }
}

/// Which wire dialect a client speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    /// Every request a stream of one persistent session.
    Session,
    /// Every request on a connection of its own.
    Oneshot,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientRun {
    lat_ms: Vec<f64>,
    results: Vec<Result<(), String>>,
    wall_s: f64,
    connect_s: f64,
    send_s: f64,
    wait_s: f64,
}

fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
    let mut c = Client::connect(addr)?;
    c.set_read_timeout(READ_TIMEOUT)?;
    Ok(c)
}

/// One closed-loop client: sends the next request of `pool` (cycling)
/// as soon as the previous one completes, until it has sent `max` or
/// `until` has passed. A one-shot request makes `detect_remote`'s calls one
/// by one, so each can be timed.
fn client(
    dialect: Dialect,
    addr: SocketAddr,
    pool: &[Request],
    (max, until): (usize, Instant),
    op: u64,
    tr: &mut Tracer,
) -> ClientRun {
    let mut run = ClientRun::default();
    let start = Instant::now();
    let mut session = None;
    if dialect == Dialect::Session {
        let s = tr.enter("serve.connect", op);
        let c = connect(addr);
        run.connect_s += tr.exit(s);
        match c {
            Ok(c) => session = Some(c),
            Err(e) => {
                run.results.push(Err(e.to_string()));
                return run;
            }
        }
    }
    let mut i = 0;
    while i < max && Instant::now() < until {
        let req = &pool[i % pool.len()];
        let op = op + i as u64;
        let span = tr.enter("serve.request", op);
        let outcome = if let Some(c) = session.as_mut() {
            let id = u32::try_from(i).expect("stream ids fit u32");
            let s = tr.enter("serve.send", op);
            let sent = c.send_stream_trace(id, &req.trace, EVENTS_PER_FRAME);
            run.send_s += tr.exit(s);
            let s = tr.enter("serve.wait", op);
            let outcome = sent.and_then(|()| c.finish_stream(id));
            run.wait_s += tr.exit(s);
            outcome
        } else {
            let s = tr.enter("serve.connect", op);
            let c = connect(addr);
            run.connect_s += tr.exit(s);
            c.and_then(|mut c| {
                let s = tr.enter("serve.send", op);
                let sent = c.send_trace(&req.trace, EVENTS_PER_FRAME);
                run.send_s += tr.exit(s);
                let s = tr.enter("serve.wait", op);
                let outcome = sent.and_then(|()| c.finish());
                run.wait_s += tr.exit(s);
                outcome
            })
        };
        run.lat_ms.push(tr.exit(span) * 1e3);
        let result = verify(outcome, req);
        let failed = result.is_err();
        run.results.push(result);
        i += 1;
        if failed && session.is_some() {
            // A failed stream ends the session; the failure is counted.
            session = None;
            break;
        }
    }
    if let Some(mut c) = session {
        run.results.push(match c.end_session() {
            Ok(SessionEnd::Closed(rest)) if rest.is_empty() => Ok(()),
            other => Err(format!("session did not close cleanly: {other:?}")),
        });
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The workload's inputs and the running server.
pub struct Serve {
    corpus: Corpus,
    server: Server,
}

impl Serve {
    /// Runs both clients concurrently until `until`.
    fn clients(&self, until: Instant, op: u64, tr: &Tracer) -> [(ClientRun, Tracer); 2] {
        let addr = self.server.local_addr();
        let (session, oneshot) = (&self.corpus.session, &self.corpus.oneshot);
        let limit = (usize::MAX, until);
        std::thread::scope(|s| {
            let (mut ta, mut tb) = (tr.fork(), tr.fork());
            let a = s.spawn(move || {
                let run = client(Dialect::Session, addr, session, limit, op, &mut ta);
                (run, ta)
            });
            let b = s.spawn(move || {
                let run = client(
                    Dialect::Oneshot,
                    addr,
                    oneshot,
                    limit,
                    op | 1 << 31,
                    &mut tb,
                );
                (run, tb)
            });
            [
                a.join().expect("session client thread panicked"),
                b.join().expect("one-shot client thread panicked"),
            ]
        })
    }
}

impl Workload for Serve {
    const PASS_S: f64 = 2.0;
    /// The session client completes about 100 requests a pass at the
    /// benchmark's parent commit, fifteen of them beyond p85; a faster
    /// server completes more but is still read at p85. At the parent the
    /// session's stalled requests end at ≈44 or ≈48 ms, and the share at
    /// 48 ms swings from under 1% to 15% between passes, so p90 and above
    /// jump between the two levels from run to run.
    const TAIL_PCT: u32 = 85;

    fn setup(seed: u64, tr: &mut Tracer, _c: &mut Counters) -> Result<Self, String> {
        let cfg = ServeConfig::default();
        let s = tr.enter("serve.corpus", 0);
        let corpus = corpus(seed, DetectorConfig::paper_default(cfg.detector_mem_bytes));
        let _ = tr.exit(s);
        let s = tr.enter("serve.start", 0);
        let server = Server::start(cfg).map_err(|e| format!("starting the server: {e}"))?;
        let _ = tr.exit(s);
        let s = tr.enter("serve.warm_up", 0);
        let far = Instant::now() + Duration::from_secs(3600);
        let addr = server.local_addr();
        let warm = client(
            Dialect::Oneshot,
            addr,
            &corpus.oneshot,
            (WARMUP, far),
            0,
            &mut tr.fork(),
        );
        let _ = tr.exit(s);
        if let Some(Err(e)) = warm.results.into_iter().find(Result::is_err) {
            return Err(format!("warm-up request failed: {e}"));
        }
        Ok(Serve { corpus, server })
    }

    fn pass(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let before = self.server.stats();
        let op = m.op_id() << 32;
        let until = Instant::now() + Duration::from_secs_f64(Self::PASS_S);
        let runs = self.clients(until, op, tr);
        let after = self.server.stats();

        let names = [
            (
                "serve.session",
                "serve.session.completed",
                "serve.session.wall_s",
                "serve.session.p50_ms",
                "serve.session.p99_ms",
            ),
            (
                "serve.oneshot",
                "serve.oneshot.completed",
                "serve.oneshot.wall_s",
                "serve.oneshot.p50_ms",
                "serve.oneshot.p99_ms",
            ),
        ];
        for ((run, t), (dialect, done, wall, p50, p99)) in runs.into_iter().zip(names) {
            tr.absorb(t);
            // One result per request, in order, then the session's close.
            let completed = run.results[..run.lat_ms.len()]
                .iter()
                .filter(|r| r.is_ok())
                .count();
            for r in run.results {
                m.check(r.is_ok(), || format!("{dialect}: {}", r.unwrap_err()));
            }
            m.op_ms.extend_from_slice(&run.lat_ms);
            let c = &mut m.c;
            c.add("serve.connect_s", run.connect_s);
            c.add("serve.send_s", run.send_s);
            c.add("serve.wait_s", run.wait_s);
            c.add(done, completed as f64);
            c.add(wall, run.wall_s);
            let series = m.series.entry(dialect).or_default();
            series.extend(run.lat_ms);
            let sorted = stats::sorted(series);
            m.c.set(p50, stats::nearest_rank(&sorted, 50).unwrap_or(0.0));
            m.c.set(p99, stats::nearest_rank(&sorted, 99).unwrap_or(0.0));
        }
        add_server_stats(&mut m.c, before, after);
    }

    fn layer_pass(&mut self, tr: &mut Tracer, m: &mut Measured) {
        let (mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0usize);
        for req in self.corpus.session.iter().chain(&self.corpus.oneshot) {
            let op = m.op_id();
            let s = tr.enter("wire.encode", op);
            let mut buf = Vec::new();
            for chunk in req.trace.events().chunks(EVENTS_PER_FRAME) {
                wire::encode_frame(FrameType::Events, &wire::encode_events(chunk), &mut buf);
            }
            encode_s += tr.exit(s);
            bytes += buf.len();

            let s = tr.enter("wire.decode", op);
            let mut asm = FrameAssembler::headerless();
            asm.push(&buf);
            let mut decoded = Vec::with_capacity(req.trace.len());
            let ok = loop {
                match asm.next_frame() {
                    Ok(Some(frame)) => match wire::decode_events(&frame.payload) {
                        Ok(evs) => decoded.extend(evs),
                        Err(_) => break false,
                    },
                    Ok(None) => break true,
                    Err(_) => break false,
                }
            };
            decode_s += tr.exit(s);
            m.check(ok && decoded == req.trace.events(), || {
                "wire round trip changed a trace".into()
            });
        }
        let c = &mut m.c;
        c.add("wire.encode_s", encode_s);
        c.add("wire.decode_s", decode_s);
        c.add("wire.s", encode_s + decode_s);
        c.add("wire.bytes", bytes as f64);
    }
}

fn add_server_stats(c: &mut Counters, before: StatsSnapshot, after: StatsSnapshot) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    c.add("serve.accepted", d(after.accepted, before.accepted));
    c.add("serve.completed", d(after.completed, before.completed));
    c.add("serve.shed_busy", d(after.shed_busy, before.shed_busy));
    c.add(
        "serve.quarantined",
        d(after.quarantined, before.quarantined),
    );
    c.add(
        "serve.disconnected",
        d(after.disconnected, before.disconnected),
    );
    c.add(
        "serve.reaped_deadline",
        d(after.reaped_deadline, before.reaped_deadline),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_are_stratified_and_seed_only_shuffles() {
        let a = lengths(1000, &mut SplitMix64::new(1));
        let b = lengths(1000, &mut SplitMix64::new(2));
        assert_ne!(a, b, "different seeds order the lengths differently");
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "every seed sends the same lengths");
        assert!(sa[0] >= 250 && sa[999] <= 8000);
        // Log-uniform: the geometric midpoint splits the sample in half.
        let below = sa
            .iter()
            .filter(|&&l| f64::from(l) < 250.0 * 32f64.sqrt())
            .count();
        assert_eq!(below, 500);
    }

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let det = DetectorConfig::paper_default(ServeConfig::default().detector_mem_bytes);
        let texts = |seed: u64| -> Vec<String> {
            requests(20, &mut rng(seed, 4), det)
                .iter()
                .map(|r| r.trace.to_text())
                .collect()
        };
        let a = texts(1);
        assert_eq!(a.len(), 20);
        assert_eq!(a, texts(1));
        assert_ne!(a, texts(2));
    }
}
