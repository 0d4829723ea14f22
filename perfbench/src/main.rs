//! The repository benchmark: one command that runs one of four
//! workloads, times every call into the workspace's crates from outside,
//! checks every output, and prints the result as a JSON object on its
//! last line of standard output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the named workload for `--seconds`
//! and reports the end-to-end metrics. With `--trace 1` it first runs
//! one untraced pass of the named workload's calls, then one traced pass
//! of every workload's calls plus the extra per-layer calls, and reports
//! the per-layer metrics, layer coverage, self time per layer and the
//! tracing overhead. See `README.md` beside this crate for the metric
//! mapping.

mod consortium;
mod delta;
mod linpack;
mod metrics;
mod probe;
mod provenance;
mod telemetry;
mod tracer;

use metrics::{median, median_by, Checks, Metrics};
use provenance::Provenance;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::{Tracer, BENCH};

/// Problem sizes: the benchmark's own, or tiny ones for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A run builds a workload's inputs at least `SETUP_MIN_REPS` times, then
/// again until `SETUP_SECONDS` have gone by or `SETUP_MAX_REPS` builds are
/// made; `setup_s` is the median build. A set-up of microseconds gets as
/// many builds as the cap allows, one of tens of milliseconds a few dozen.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 200;
const SETUP_SECONDS: f64 = 1.0;

/// The workspace layers spans are attributed to, plus the benchmark's
/// own glue.
const LAYERS: [&str; 6] = [BENCH, "kernels", "mesh", "netsim", "sched", "trace"];

/// One workload: inputs built from a seed, a pass of timed end-to-end
/// calls, and the extra calls of the traced run.
pub trait Workload {
    const NAME: &'static str;
    type Inputs;
    type Sample;

    /// Generate the inputs and construct everything the calls consume.
    fn setup(seed: u64, size: Size, tr: &Tracer) -> Self::Inputs;

    /// One pass of the end-to-end calls, each timed from outside, with
    /// the checks of their outputs.
    fn cycle(inp: &Self::Inputs, tr: &Tracer, ck: &mut Checks) -> Self::Sample;

    /// Once per untraced run: the checks that need extra reference
    /// calls, and the workload's own figures by name and unit.
    fn finish(
        inp: &Self::Inputs,
        samples: &[Self::Sample],
        tr: &Tracer,
        ck: &mut Checks,
        named: &mut Metrics,
    );

    /// The three end-to-end call times `[a, b, c]` of one pass, in
    /// seconds.
    fn calls(sample: &Self::Sample) -> [f64; 3];

    /// Per-layer metrics from a traced pass, plus extra per-layer calls.
    fn layers(
        inp: &Self::Inputs,
        sample: &Self::Sample,
        tr: &Tracer,
        ck: &mut Checks,
        m: &mut Metrics,
    );
}

/// Each end-to-end call's median time over a run's passes.
pub fn median_calls<W: Workload>(samples: &[W::Sample]) -> [f64; 3] {
    [0, 1, 2].map(|k| median_by(samples, |s| W::calls(s)[k]))
}

/// Workload names, in the order the traced run visits them.
pub const WORKLOADS: [&str; 4] = [
    linpack::Linpack::NAME,
    delta::Delta::NAME,
    consortium::Consortium::NAME,
    telemetry::Telemetry::NAME,
];

/// Evaluate `$body` with `$w` naming the workload type called `$name`.
macro_rules! with_workload {
    ($name:expr, $w:ident => $body:expr) => {
        match $name {
            linpack::Linpack::NAME => {
                type $w = linpack::Linpack;
                $body
            }
            delta::Delta::NAME => {
                type $w = delta::Delta;
                $body
            }
            consortium::Consortium::NAME => {
                type $w = consortium::Consortium;
                $body
            }
            telemetry::Telemetry::NAME => {
                type $w = telemetry::Telemetry;
                $body
            }
            _ => unreachable!("workload names are checked when parsed"),
        }
    };
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Untraced run: build the inputs several times, then repeat the pass of
/// end-to-end calls, with a host-speed probe before the first pass and
/// after each, until `seconds` have gone by (at least once). Reports each
/// call's median over the passes of its time divided by the mean of the
/// probes either side of the pass; the median times themselves are
/// printed, not gated.
fn run_e2e<W: Workload>(
    seed: u64,
    seconds: f64,
    size: Size,
    ck: &mut Checks,
) -> (Metrics, Metrics) {
    let tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut inp = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setup_start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(inp.take()); // free the previous inputs before building the next
        let t = Instant::now();
        inp = Some(W::setup(seed, size, &tr));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inp = inp.expect("SETUP_MIN_REPS > 0");
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut probes = vec![probe::host_probe()];
    loop {
        samples.push(W::cycle(&inp, &tr, ck));
        probes.push(probe::host_probe());
        if start.elapsed() >= budget {
            break;
        }
    }
    let mut named = Metrics::new();
    W::finish(&inp, &samples, &tr, ck, &mut named);
    named.put("samples", "count", samples.len() as f64);
    named.put("setup_builds", "count", setups.len() as f64);
    let [a, b, c] = median_calls::<W>(&samples);
    named.put("call_a_s", "s", a);
    named.put("call_b_s", "s", b);
    named.put("call_c_s", "s", c);
    named.put("probe_s", "s", median(&probes));

    let rel = |k: usize| {
        let per_pass: Vec<f64> = samples
            .iter()
            .zip(probes.windows(2))
            .map(|(s, p)| W::calls(s)[k] / ((p[0] + p[1]) / 2.0))
            .collect();
        median(&per_pass)
    };
    let mut m = Metrics::new();
    m.put("setup_s", "s", median(&setups));
    m.put(
        "peak_rss_mb",
        "MiB",
        metrics::peak_rss_mb().unwrap_or(f64::NAN),
    );
    m.put("call_a_rel", "ratio", rel(0));
    m.put("call_b_rel", "ratio", rel(1));
    m.put("call_c_rel", "ratio", rel(2));
    (m, named)
}

/// The traced pass of one workload: its set-up and calls under spans,
/// then the extra per-layer calls. Returns the traced wall time of the
/// end-to-end calls.
fn traced_portion<W: Workload>(
    seed: u64,
    size: Size,
    tr: &Tracer,
    ck: &mut Checks,
    m: &mut Metrics,
) -> f64 {
    let root = tr.next_index();
    let (cycle_s, _) = tr.call(BENCH, W::NAME, || {
        let inp = W::setup(seed, size, tr);
        let (sample, cycle_s) = tr.call(BENCH, "calls", || W::cycle(&inp, tr, ck));
        W::layers(&inp, &sample, tr, ck, m);
        cycle_s
    });
    let cov = tr.coverage(root);
    m.put(&format!("bench.{}.layer_coverage", W::NAME), "ratio", cov);
    ck.check(
        format!(
            "{}: layer spans cover {:.1}% of the traced wall time (need 90%)",
            W::NAME,
            cov * 100.0
        ),
        cov >= 0.9,
    );
    cycle_s
}

/// One untraced pass of `W`'s calls: the base of the overhead figure.
fn untraced_pass<W: Workload>(seed: u64, size: Size, ck: &mut Checks) -> f64 {
    let tr = Tracer::new(false);
    let inp = W::setup(seed, size, &tr);
    let t = Instant::now();
    W::cycle(&inp, &tr, ck);
    t.elapsed().as_secs_f64()
}

/// Traced run: per-layer metrics of every workload, self time per layer,
/// and the tracing overhead of the named workload. Returns the metrics
/// and the tracer, whose spans the caller writes out.
fn run_traced(workload: &str, seed: u64, size: Size, ck: &mut Checks) -> (Metrics, Tracer) {
    let untraced_s = with_workload!(workload, W => untraced_pass::<W>(seed, size, ck));
    let tr = Tracer::new(true);
    let mut m = Metrics::new();
    let traced = [
        traced_portion::<linpack::Linpack>(seed, size, &tr, ck, &mut m),
        traced_portion::<delta::Delta>(seed, size, &tr, ck, &mut m),
        traced_portion::<consortium::Consortium>(seed, size, &tr, ck, &mut m),
        traced_portion::<telemetry::Telemetry>(seed, size, &tr, ck, &mut m),
    ];
    let i = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .expect("workload names are checked when parsed");
    m.put("bench.trace_overhead_s", "s", traced[i] - untraced_s);
    let self_time = tr.self_time_by_layer();
    for layer in LAYERS {
        m.put(
            &format!("layer.{layer}.self_s"),
            "s",
            self_time.get(layer).copied().unwrap_or(0.0),
        );
    }
    (m, tr)
}

/// Run one workload: the result line's metrics, the workload's own
/// figures (untraced runs), and the spans (traced runs).
fn run(args: &Args, size: Size, ck: &mut Checks) -> (Metrics, Metrics, Option<Tracer>) {
    if args.trace {
        let (m, tr) = run_traced(&args.workload, args.seed, size, ck);
        return (m, Metrics::new(), Some(tr));
    }
    let (m, named) = with_workload!(args.workload.as_str(), W => {
        run_e2e::<W>(args.seed, args.seconds, size, ck)
    });
    (m, named, None)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(ck: &Checks, m: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ck.all_passed(),
        ck.attempted().max(1),
        ck.failed().len(),
        m.to_json()
    )
}

fn write_spans(tr: &Tracer, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tr.chrome_json())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", Provenance::collect().to_json());
    let mut ck = Checks::new();
    let (m, named, tr) = run(&args, Size::Full, &mut ck);
    for f in m.iter().chain(named.iter()) {
        println!(
            "{:<40} {:>22} {}",
            f.name,
            metrics::json_number(f.value),
            f.unit
        );
    }
    println!(
        "{:<40} {:>22} ratio",
        "failed_frac",
        metrics::json_number(ck.failed().len() as f64 / ck.attempted().max(1) as f64)
    );
    if let Some(tr) = tr {
        match write_spans(&tr, &args) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => {
                ck.check(format!("write spans: {e}"), false);
            }
        }
    }
    println!("{}", result_line(&ck, &m));
    if ck.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args(&[
            "--workload",
            "delta-mesh",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("delta-mesh", 3, 10.0, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "delta-mesh"]).is_err());
        assert!(args(&["--workload", "delta-mesh", "--seed", "x"]).is_err());
        assert!(args(&["--workload", "delta-mesh", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "delta-mesh", "--seed", "1", "--seconds", "0"]).is_err());
    }

    /// The names and units BENCHMARK.json declares, as `(name, unit)`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = hpcc_trace::json::parse(&text).expect("BENCHMARK.json parses");
        let list = doc
            .get(section)
            .and_then(|v| v.as_arr())
            .expect("section is a list");
        list.iter()
            .map(|e| {
                let s = |k: &str| {
                    e.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn emitted(m: &Metrics) -> Vec<(String, String)> {
        m.iter()
            .map(|x| (x.name.clone(), x.unit.to_string()))
            .collect()
    }

    /// Every workload at tiny size, untraced and traced, on two seeds:
    /// all checks pass, the metrics are exactly those BENCHMARK.json
    /// declares, and the exact counts repeat for one seed.
    #[test]
    fn tiny_runs_match_the_declared_metrics() {
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        for w in WORKLOADS {
            for seed in [1, 2] {
                let mut ck = Checks::new();
                let a = Args {
                    workload: w.to_string(),
                    seed,
                    seconds: 0.01,
                    trace: false,
                };
                let (m, named, _) = run(&a, Size::Tiny, &mut ck);
                assert!(ck.all_passed(), "{w}: {:?}", ck.failed());
                assert_eq!(emitted(&m), e2e, "{w}: end-to-end metrics");
                for x in named.iter().chain(m.iter()) {
                    assert!(metrics::valid_name(&x.name) && metrics::valid_unit(x.unit));
                }
            }
        }
        let traced = |seed| {
            let mut ck = Checks::new();
            let a = Args {
                workload: "consortium".into(),
                seed,
                seconds: 0.01,
                trace: true,
            };
            let (m, _, tr) = run(&a, Size::Tiny, &mut ck);
            assert!(ck.all_passed(), "{:?}", ck.failed());
            assert!(tr.expect("traced run keeps spans").spans().len() > 10);
            m
        };
        let (m1, m1b, m2) = (traced(1), traced(1), traced(2));
        assert_eq!(emitted(&m1), per_layer, "per-layer metrics");
        assert_eq!(emitted(&m2), per_layer);
        // Scrapes land on a wall-clock cadence; every other count is exact.
        let exact = |x: &&metrics::Metric| x.unit == "count" && x.name != "trace.scrape.count";
        for x in m1.iter().filter(exact) {
            assert_eq!(
                Some(x.value),
                m1b.get(&x.name),
                "{} repeats for one seed",
                x.name
            );
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut ck = Checks::new();
        ck.check("ok", true);
        let mut m = Metrics::new();
        m.put("setup_s", "s", 0.5);
        let line = result_line(&ck, &m);
        let doc = hpcc_trace::json::parse(&line).expect("result line parses");
        let hpcc_trace::json::Json::Obj(fields) = doc else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
