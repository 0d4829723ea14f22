//! `live-telemetry`: LU-2D on the 528-node Delta recorded into a
//! `StreamRecorder` served by a `TelemetryServer`, while one open-loop
//! scraper fetches `/metrics` and tails `/trace` on a fixed cadence. The
//! only workload where the `trace` record path (writes) and scrape path
//! (reads) run, and they run at the same time.

use crate::metrics::{median, median_by, quantile, Checks, Metrics};
use crate::tracer::Tracer;
use crate::{Size, Workload};
use delta_mesh::{presets, FaultPlan, Machine};
use hpcc_kernels::sim::lu2d;
use hpcc_trace::json::{self, Json};
use hpcc_trace::{MetricsSnapshot, NullRecorder, Recorder, StreamRecorder, TelemetryServer};
use std::cell::RefCell;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Telemetry;

/// A recorder with its HTTP server running.
type Service = (Arc<StreamRecorder>, TelemetryServer);

pub struct Inputs {
    machine: Machine,
    /// The service set-up started, taken by the first pass; later passes
    /// start their own, so each recorded run has a fresh recorder.
    service: RefCell<Option<Service>>,
    n: usize,
    /// Scrape cadence, and the offset of the first scrape within it
    /// (drawn from the seed).
    cadence: Duration,
    phase: Duration,
    /// Scrapes an untraced run must see.
    min_scrapes: usize,
}

/// One scrape: `/metrics` then `/trace?since=<cursor>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    /// From when the scrape was due to when both replies were read.
    latency_ms: f64,
    lateness_ms: f64,
    metrics_ms: f64,
    trace_ms: f64,
    metrics_bytes: usize,
    trace_bytes: usize,
    ok: bool,
}

pub struct Sample {
    recorded_s: f64,
    result: String,
    /// Recorder ledger after the run: events, evicted, unaccounted.
    events: u64,
    evicted: u64,
    unaccounted: u64,
    scrapes: Vec<Scrape>,
}

const LU_NB: usize = 32;
/// Scrape period: about 200 scrapes per recorded run at full size, with
/// the scraper idle most of the time, so lateness means a slow server.
const CADENCE_MS: u64 = 50;

/// Blocking `GET`; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))?;
    sock.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    sock.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The `next` cursor of a `/trace` chunk, if the chunk parses.
fn next_cursor(chunk: &str) -> Option<u64> {
    json::parse(chunk)
        .ok()?
        .get("next")
        .and_then(Json::as_f64)
        .map(|v| v as u64)
}

/// One scrape at `due`: both requests, timed and checked.
fn scrape(addr: SocketAddr, cursor: &mut u64, due: Instant) -> Scrape {
    let start = Instant::now();
    let mut s = Scrape {
        lateness_ms: start.saturating_duration_since(due).as_secs_f64() * 1e3,
        ..Scrape::default()
    };
    let metrics = http_get(addr, "/metrics");
    let mid = Instant::now();
    let trace = http_get(addr, &format!("/trace?since={cursor}&max=2048"));
    let end = Instant::now();
    s.metrics_ms = (mid - start).as_secs_f64() * 1e3;
    s.trace_ms = (end - mid).as_secs_f64() * 1e3;
    s.latency_ms = end.saturating_duration_since(due).as_secs_f64() * 1e3;
    if let (Ok((200, m)), Ok((200, t))) = (metrics, trace) {
        s.metrics_bytes = m.len();
        s.trace_bytes = t.len();
        if let Some(next) = next_cursor(&t) {
            s.ok = m.contains("hpcc_recorder_events_total");
            *cursor = next;
        }
    }
    s
}

/// Events the ledger cannot account for: neither aggregated nor in the
/// ring's retained/active/evicted counts. Zero when nothing leaked.
pub fn unaccounted(snap: &MetricsSnapshot) -> u64 {
    let agg = snap
        .events_total
        .abs_diff(snap.spans_total + snap.counters_total + snap.instants_total);
    let ring = snap
        .events_total
        .abs_diff(snap.ring.retained_events + snap.ring.active_events + snap.ring.evicted_events);
    agg + ring
}

/// A fresh recorder served on an ephemeral local port.
fn start_service(tr: &Tracer) -> std::io::Result<Service> {
    tr.call("trace", "TelemetryServer::start", || {
        let rec = Arc::new(StreamRecorder::new());
        TelemetryServer::start(Arc::clone(&rec), "127.0.0.1:0").map(|srv| (rec, srv))
    })
    .0
}

fn unrecorded(inp: &Inputs) -> String {
    let r = lu2d::run_traced(
        &inp.machine,
        inp.n,
        LU_NB,
        &FaultPlan::none(),
        Rc::new(NullRecorder),
    );
    format!("{:?}", r.result)
}

impl Workload for Telemetry {
    const NAME: &'static str = "live-telemetry";
    type Inputs = Inputs;
    type Sample = Sample;

    fn setup(seed: u64, size: Size, tr: &Tracer) -> Inputs {
        let (cfg, n, min_scrapes) = match size {
            Size::Full => (presets::delta_528(), 2_000, 100),
            Size::Tiny => (presets::delta(4, 4), 400, 1),
        };
        let machine = tr
            .call("mesh", "Machine::new(delta)", || Machine::new(cfg))
            .0;
        let service = start_service(tr).ok();
        let cadence = Duration::from_millis(CADENCE_MS);
        let phase = Duration::from_micros(
            des::rng::Rng::new(seed ^ 0x7E1E).next_u64() % (CADENCE_MS * 1000),
        );
        Inputs {
            machine,
            service: RefCell::new(service),
            n,
            cadence,
            phase,
            min_scrapes,
        }
    }

    fn cycle(inp: &Inputs, tr: &Tracer, ck: &mut Checks) -> Sample {
        let service = inp
            .service
            .borrow_mut()
            .take()
            .map_or_else(|| start_service(tr), Ok);
        let (rec, srv) = match service {
            Ok(s) => s,
            Err(e) => {
                ck.check(format!("telemetry server binds 127.0.0.1:0: {e}"), false);
                return Sample {
                    recorded_s: f64::NAN,
                    result: String::new(),
                    events: 0,
                    evicted: 0,
                    unaccounted: 0,
                    scrapes: Vec::new(),
                };
            }
        };
        let addr = srv.addr();
        let done = AtomicBool::new(false);
        let (phase, cadence) = (inp.phase, inp.cadence);
        let (result, recorded_s, scrapes) = std::thread::scope(|scope| {
            // The open-loop scraper: one scrape per tick, each timed from
            // when it was due; a slow reply makes the next ones late.
            let scraper = scope.spawn(|| {
                let first = Instant::now() + phase;
                let (mut cursor, mut out) = (0u64, Vec::new());
                for k in 0u32.. {
                    let due = first + cadence * k;
                    // Parked until due; the end of the run unparks it.
                    while let Some(wait) = due.checked_duration_since(Instant::now()) {
                        if k > 0 && done.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::park_timeout(wait);
                    }
                    if k > 0 && done.load(Ordering::SeqCst) {
                        break;
                    }
                    out.push(scrape(addr, &mut cursor, due));
                }
                out
            });
            let (r, secs) = tr.call("trace", "lu2d::run_traced(StreamRecorder)", || {
                let sink: Rc<dyn Recorder> = Rc::new(Arc::clone(&rec));
                lu2d::run_traced(&inp.machine, inp.n, LU_NB, &FaultPlan::none(), sink)
            });
            done.store(true, Ordering::SeqCst);
            scraper.thread().unpark();
            let scrapes = tr
                .call("trace", "last scrape", || scraper.join())
                .0
                .expect("scraper thread panicked");
            (format!("{:?}", r.result), secs, scrapes)
        });
        tr.call("trace", "TelemetryServer::stop", || srv.stop());
        let snap = tr
            .call("trace", "metrics_snapshot", || {
                rec.flush_ring();
                rec.metrics_snapshot()
            })
            .0;
        let bad = scrapes.iter().filter(|s| !s.ok).count();
        ck.check(
            format!("{bad} of {} scrapes failed or did not parse", scrapes.len()),
            bad == 0,
        );
        let leak = unaccounted(&snap);
        ck.check(
            format!("event ledger balances ({leak} unaccounted)"),
            leak == 0,
        );
        ck.check("the recorder saw events", snap.events_total > 0);
        Sample {
            recorded_s,
            result,
            events: snap.events_total,
            evicted: snap.ring.evicted_events,
            unaccounted: leak,
            scrapes,
        }
    }

    fn finish(inp: &Inputs, samples: &[Sample], tr: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        let base = tr
            .call("mesh", "lu2d::run_traced(NullRecorder)", || unrecorded(inp))
            .0;
        check_runs(samples, &base, ck);
        let lat = pooled(samples, |s| s.latency_ms);
        let n = lat.len();
        ck.check(
            format!("{n} scrapes landed in the run (need {})", inp.min_scrapes),
            n >= inp.min_scrapes,
        );
        m.put(
            "recorder_events_per_s",
            "1/s",
            samples[0].events as f64 / median_by(samples, |s| s.recorded_s),
        );
        m.put("scrape_p50_ms", "ms", quantile_or_nan(&lat, 0.5));
        m.put("scrape_p90_ms", "ms", quantile_or_nan(&lat, 0.9));
        m.put("scrapes", "count", n as f64);
    }

    /// The recorded run and the quantiles of this pass's scrapes; the
    /// quantiles over every scrape of the run are printed by `finish`.
    fn calls(s: &Sample) -> [f64; 3] {
        let lat: Vec<f64> = s.scrapes.iter().map(|x| x.latency_ms / 1e3).collect();
        [
            s.recorded_s,
            quantile_or_nan(&lat, 0.5),
            quantile_or_nan(&lat, 0.9),
        ]
    }

    fn layers(inp: &Inputs, s: &Sample, tr: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        let (base, null_s) = tr.call("mesh", "lu2d::run_traced(NullRecorder)", || unrecorded(inp));
        check_runs(std::slice::from_ref(s), &base, ck);
        m.put("trace.events", "count", s.events as f64);
        m.put("trace.ring.evicted", "count", s.evicted as f64);
        m.put("trace.ledger.unaccounted", "count", s.unaccounted as f64);
        m.put("trace.record_overhead", "ratio", s.recorded_s / null_s);

        let one = std::slice::from_ref(s);
        let col = |f: fn(&Scrape) -> f64| pooled(one, f);
        m.put("trace.scrape.count", "count", s.scrapes.len() as f64);
        m.put(
            "trace.scrape.metrics_ms_p50",
            "ms",
            quantile(&col(|x| x.metrics_ms), 0.5),
        );
        m.put(
            "trace.scrape.trace_ms_p50",
            "ms",
            quantile(&col(|x| x.trace_ms), 0.5),
        );
        m.put(
            "trace.scrape.metrics_bytes",
            "B",
            median(&col(|x| x.metrics_bytes as f64)),
        );
        m.put(
            "trace.scrape.trace_bytes",
            "B",
            median(&col(|x| x.trace_bytes as f64)),
        );
        let late = col(|x| x.lateness_ms);
        m.put(
            "trace.scraper.lateness_ms_max",
            "ms",
            late.iter().copied().fold(0.0, f64::max),
        );
    }
}

/// Recorded results identical to the unrecorded one.
fn check_runs(samples: &[Sample], base: &str, ck: &mut Checks) {
    for s in samples {
        ck.check(
            "recorded lu2d result identical to the unrecorded one",
            s.result == base,
        );
    }
}

/// A quantile, or NaN when no scrape landed (the run's checks fail then).
fn quantile_or_nan(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        quantile(v, q)
    }
}

/// One field of every scrape of every sample.
fn pooled(samples: &[Sample], f: fn(&Scrape) -> f64) -> Vec<f64> {
    samples
        .iter()
        .flat_map(|s| s.scrapes.iter().map(f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_fire_on_tiny_inputs() {
        let tr = Tracer::new(false);
        let inp = Telemetry::setup(6, Size::Tiny, &tr);
        let mut ck = Checks::new();
        let s = Telemetry::cycle(&inp, &tr, &mut ck);
        assert!(ck.all_passed(), "{:?}", ck.failed());
        assert!(!s.scrapes.is_empty() && s.scrapes.iter().all(|x| x.ok));
        let mut ck = Checks::new();
        check_runs(std::slice::from_ref(&s), "a different result", &mut ck);
        assert_eq!(ck.failed().len(), 1);
        let mut snap = StreamRecorder::new().metrics_snapshot();
        snap.events_total += 1;
        assert_eq!(unaccounted(&snap), 2);
        assert_eq!(s.unaccounted, 0);
        assert_eq!(next_cursor("{\"next\": 42, \"traceEvents\": []}"), Some(42));
        assert_eq!(next_cursor("not json"), None);
    }
}
