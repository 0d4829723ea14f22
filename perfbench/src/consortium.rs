//! `consortium`: the Concurrent Supercomputer Consortium's users as
//! open-loop arrival streams in simulated time — a steady phase bound by
//! placement and backfill, an overload phase bound by admission and
//! shedding, and a heavy-tailed WAN fan-out through the incremental
//! max-min solver.

use crate::metrics::{Checks, Metrics};
use crate::tracer::{Tracer, BENCH};
use crate::{Size, Workload};
use delta_mesh::sched::service::{self, Outcome, ServiceConfig, ServiceReport, ServiceTrace};
use delta_mesh::service_workload;
use des::rng::Rng;
use des::time::SimTime;
use nren_netsim::{
    fat_tree, workload, Fabric, FlowConfig, FlowOutcome, FlowSim, LinkClass, NetStats, SolverMode,
    TransferSpec,
};

pub struct Consortium;

/// One scheduler phase: its submission stream and service settings.
pub struct Phase {
    trace: ServiceTrace,
    cfg: ServiceConfig,
}

/// Independent input sets drawn from one seed. Every pass runs all of
/// them, so a pass's cost does not hang on one stream's luck.
pub struct Inputs {
    steady: Vec<Phase>,
    overload: Vec<Phase>,
    fabric: Fabric,
    flows: Vec<Vec<TransferSpec>>,
}

/// One pass: each set's wall time and report, per phase.
pub struct Sample {
    steady_s: Vec<f64>,
    steady: Vec<ServiceReport>,
    overload_s: Vec<f64>,
    overload: Vec<ServiceReport>,
    wan_s: Vec<f64>,
    wan: Vec<NetStats>,
}

/// The Delta's 16×33 mesh.
const ROWS: usize = 16;
const COLS: usize = 33;

/// Every submission reaches exactly one terminal state, and the
/// node-time ledger balances. Returns the failed conditions.
pub fn service_faults(n: usize, r: &ServiceReport) -> Vec<String> {
    let mut out = Vec::new();
    let (mut done, mut failed, mut rejected) = (0usize, 0usize, 0u64);
    for o in &r.outcomes {
        match o {
            Outcome::Completed => done += 1,
            Outcome::Failed => failed += 1,
            Outcome::Rejected(_) => rejected += 1,
        }
    }
    if r.submitted != n || r.outcomes.len() != n {
        out.push(format!(
            "{} submitted, {} outcomes, {n} offered",
            r.submitted,
            r.outcomes.len()
        ));
    }
    if done != r.completed || failed != r.failed || rejected != r.rejected_total() {
        out.push(format!(
            "outcomes {done}/{failed}/{rejected} disagree with the report's {}/{}/{}",
            r.completed,
            r.failed,
            r.rejected_total()
        ));
    }
    if !r.node_time.balanced() {
        out.push(format!(
            "node-time ledger does not balance: {:?}",
            r.node_time
        ));
    }
    out
}

fn check_service(ck: &mut Checks, phase: &str, n: usize, r: &ServiceReport) {
    let faults = service_faults(n, r);
    ck.check(
        format!("{phase}: one terminal state per submission, balanced ledger {faults:?}"),
        faults.is_empty(),
    );
}

/// Every flow completed and all were in flight at once.
pub fn wan_faults(flows: usize, outcomes: &[FlowOutcome], stats: &NetStats) -> Vec<String> {
    let mut out = Vec::new();
    let done = outcomes
        .iter()
        .filter(|o| matches!(o, FlowOutcome::Completed(_)))
        .count();
    if done != flows || outcomes.len() != flows {
        out.push(format!("{done} of {flows} flows completed"));
    }
    if stats.solver.peak_flows != flows {
        out.push(format!("peak flows {} != {flows}", stats.solver.peak_flows));
    }
    out
}

/// The solver's exact counts, for repeat checks.
fn wan_counts(s: &NetStats) -> [u64; 6] {
    let w = &s.solver;
    [
        w.events,
        w.resolves,
        w.full_resolves,
        w.entries_touched,
        w.peak_flows as u64,
        w.aggregated_joins,
    ]
}

impl Workload for Consortium {
    const NAME: &'static str = "consortium";
    type Inputs = Inputs;
    type Sample = Sample;

    fn setup(seed: u64, size: Size, tr: &Tracer) -> Inputs {
        let (sets, steady_n, overload_n, cap, flows) = match size {
            Size::Full => (6, 10_000, 6_000, 2_048, 3_000),
            Size::Tiny => (2, 2_000, 2_000, 64, 500),
        };
        let mut rng = Rng::new(seed ^ 0xC0A5);
        let seeds: Vec<[u64; 3]> = (0..sets)
            .map(|_| [rng.next_u64(), rng.next_u64(), rng.next_u64()])
            .collect();
        let steady = tr
            .call("sched", "service_workload(steady)", || {
                seeds
                    .iter()
                    .map(|s| Phase {
                        trace: service_workload(steady_n, 4096, 0.6, ROWS, COLS, s[0]),
                        cfg: ServiceConfig::new(ROWS, COLS),
                    })
                    .collect()
            })
            .0;
        let overload = tr
            .call("sched", "service_workload(overload)", || {
                let mut cfg = ServiceConfig::new(ROWS, COLS);
                cfg.pending_cap = cap;
                cfg.shard_cap = cap;
                cfg.quota_default = 256;
                seeds
                    .iter()
                    .map(|s| Phase {
                        trace: service_workload(overload_n, 1024, 2.0, ROWS, COLS, s[1]),
                        cfg: cfg.clone(),
                    })
                    .collect()
            })
            .0;
        let fabric = tr
            .call("netsim", "fat_tree", || {
                fat_tree(8, LinkClass::Gigabit, LinkClass::Gig100, "f.")
            })
            .0;
        let flows = tr
            .call("netsim", "fan_out_traffic", || {
                seeds
                    .iter()
                    .map(|s| {
                        let mut rng = Rng::new(s[2]);
                        workload::fan_out_traffic(
                            &fabric.hosts,
                            16,
                            &mut rng,
                            flows,
                            1e6,
                            SimTime::ZERO,
                        )
                    })
                    .collect()
            })
            .0;
        Inputs {
            steady,
            overload,
            fabric,
            flows,
        }
    }

    fn cycle(inp: &Inputs, tr: &Tracer, ck: &mut Checks) -> Sample {
        let mut out = Sample {
            steady_s: Vec::new(),
            steady: Vec::new(),
            overload_s: Vec::new(),
            overload: Vec::new(),
            wan_s: Vec::new(),
            wan: Vec::new(),
        };
        let run = |p: &Phase| service::run(&p.trace, &p.cfg);
        for p in &inp.steady {
            let (mut r, secs) = tr.call("sched", "service::run(steady)", || run(p));
            check_service(ck, "steady", p.trace.subs.len(), &r);
            r.outcomes = Vec::new(); // checked; keep memory flat across passes
            out.steady_s.push(secs);
            out.steady.push(r);
        }
        for p in &inp.overload {
            let (mut r, secs) = tr.call("sched", "service::run(overload)", || run(p));
            check_service(ck, "overload", p.trace.subs.len(), &r);
            r.outcomes = Vec::new();
            let cap = p.cfg.pending_cap;
            ck.check(
                format!("overload max_pending {} <= cap {cap}", r.max_pending),
                r.max_pending <= cap,
            );
            out.overload_s.push(secs);
            out.overload.push(r);
        }
        let cfg = FlowConfig {
            solver: SolverMode::Incremental {
                full_fraction: 0.25,
            },
            aggregate_below: 16 << 20,
            verify: false,
        };
        for flows in &inp.flows {
            let specs = tr.call(BENCH, "copy flows", || flows.clone()).0;
            let (res, secs) = tr.call("netsim", "FlowSim::run_with_faults", || {
                FlowSim::with_config(&inp.fabric.net, cfg).run_with_faults(specs, &[])
            });
            out.wan_s.push(secs);
            match res {
                Ok((outcomes, stats)) => {
                    let faults = wan_faults(flows.len(), &outcomes, &stats);
                    ck.check(
                        format!("WAN: every flow completes {faults:?}"),
                        faults.is_empty(),
                    );
                    out.wan.push(stats);
                }
                Err(e) => {
                    ck.check(format!("WAN run failed: {e}"), false);
                }
            }
        }
        out
    }

    fn finish(_: &Inputs, samples: &[Sample], _: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        let counts = |s: &Sample| {
            let ev = |r: &Vec<ServiceReport>| r.iter().map(|x| x.events).collect::<Vec<_>>();
            (
                ev(&s.steady),
                ev(&s.overload),
                s.wan.iter().map(wan_counts).collect::<Vec<_>>(),
            )
        };
        let first = counts(&samples[0]);
        for s in &samples[1..] {
            ck.check("repeated passes give the same counts", counts(s) == first);
        }
        let subs = |r: &[ServiceReport]| r.iter().map(|x| x.submitted).sum::<usize>() as f64;
        let wan_events = samples[0].wan.iter().map(|w| w.solver.events).sum::<u64>() as f64;
        let [steady, overload, wan] = crate::median_calls::<Self>(samples);
        m.put("sched_subs_per_s", "1/s", subs(&samples[0].steady) / steady);
        m.put(
            "sched_overload_subs_per_s",
            "1/s",
            subs(&samples[0].overload) / overload,
        );
        m.put("wan_events_per_s", "1/s", wan_events / wan);
    }

    fn calls(s: &Sample) -> [f64; 3] {
        // Each phase summed over the sets.
        [
            s.steady_s.iter().sum(),
            s.overload_s.iter().sum(),
            s.wan_s.iter().sum(),
        ]
    }

    fn layers(_: &Inputs, s: &Sample, _: &Tracer, _: &mut Checks, m: &mut Metrics) {
        let secs = |d: des::time::Dur| d.as_secs_f64();
        let [steady_s, overload_s, wan_s] = Self::calls(s);
        let events = |r: &[ServiceReport]| r.iter().map(|x| x.events).sum::<u64>() as f64;
        let (st, ov) = (&s.steady, &s.overload);
        m.put("sched.steady.events", "count", events(st));
        m.put(
            "sched.steady.host_us_per_event",
            "us",
            steady_s * 1e6 / events(st).max(1.0),
        );
        let util = st.iter().map(|r| r.utilization).sum::<f64>() / st.len() as f64;
        m.put("sched.steady.utilization", "ratio", util);
        // Simulated waits of the first input set, as the service reports them.
        m.put("sched.steady.wait_mean_s", "sim_s", secs(st[0].mean_wait));
        m.put("sched.steady.wait_p99_s", "sim_s", secs(st[0].p99_wait));
        m.put("sched.steady.wait_max_s", "sim_s", secs(st[0].max_wait));

        m.put("sched.overload.events", "count", events(ov));
        m.put(
            "sched.overload.host_us_per_event",
            "us",
            overload_s * 1e6 / events(ov).max(1.0),
        );
        let total = |f: fn(&ServiceReport) -> u64| ov.iter().map(f).sum::<u64>() as f64;
        m.put(
            "sched.overload.shed",
            "count",
            total(ServiceReport::shed_total),
        );
        m.put(
            "sched.overload.quota_rejects",
            "count",
            total(|r| r.quota_rejects),
        );
        let max_pending = ov.iter().map(|r| r.max_pending).max().unwrap_or(0);
        m.put("sched.overload.max_pending", "count", max_pending as f64);
        m.put("sched.overload.wait_p99_s", "sim_s", secs(ov[0].p99_wait));
        m.put("sched.overload.wait_max_s", "sim_s", secs(ov[0].max_wait));

        let sum = |f: fn(&NetStats) -> u64| s.wan.iter().map(f).sum::<u64>();
        let touched = sum(|w| w.solver.entries_touched);
        let resolves = sum(|w| w.solver.resolves);
        m.put("wan.events", "count", sum(|w| w.solver.events) as f64);
        m.put("wan.resolves", "count", resolves as f64);
        m.put(
            "wan.full_resolves",
            "count",
            sum(|w| w.solver.full_resolves) as f64,
        );
        m.put(
            "wan.mean_dirty",
            "ratio",
            touched as f64 / resolves.max(1) as f64,
        );
        m.put("wan.entries_touched", "count", touched as f64);
        let peak = s.wan.iter().map(|w| w.solver.peak_flows).max().unwrap_or(0);
        m.put("wan.peak_flows", "count", peak as f64);
        m.put(
            "wan.aggregated_joins",
            "count",
            sum(|w| w.solver.aggregated_joins) as f64,
        );
        m.put(
            "wan.host_ns_per_touched_entry",
            "ns",
            wan_s * 1e9 / touched.max(1) as f64,
        );
        let makespan = s
            .wan
            .iter()
            .map(|w| w.makespan.as_secs_f64())
            .fold(0.0, f64::max);
        m.put("wan.makespan_s", "sim_s", makespan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_fire_on_tiny_inputs() {
        let tr = Tracer::new(false);
        let inp = Consortium::setup(4, Size::Tiny, &tr);
        let mut ck = Checks::new();
        let s = Consortium::cycle(&inp, &tr, &mut ck);
        assert!(ck.all_passed(), "{:?}", ck.failed());
        assert!(
            s.overload
                .iter()
                .any(|r| r.shed_total() + r.quota_rejects > 0),
            "tiny overload sheds"
        );

        let p = &inp.steady[0];
        let n = p.trace.subs.len();
        let full = service::run(&p.trace, &p.cfg);
        assert!(service_faults(n, &full).is_empty());
        let mut lost = full.clone();
        lost.outcomes.pop();
        assert!(!service_faults(n, &lost).is_empty());
        let mut relabelled = full.clone();
        relabelled.completed += 1;
        assert!(!service_faults(n, &relabelled).is_empty());
        let mut leaky = full;
        leaky.node_time.idle += 1;
        assert!(!service_faults(n, &leaky).is_empty());

        let flows = inp.flows[0].len();
        assert!(!wan_faults(flows + 1, &[], &s.wan[0]).is_empty());
    }
}
