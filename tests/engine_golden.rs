//! Golden pin of the mesh engine: per-node outputs, the full
//! `RunReport` and the recorded trace of a fixed set of runs, as
//! digests captured from the single-queue dispatch loop the lane
//! runtime replaced. A single-lane run must reproduce them bit for bit:
//! same event order, same timestamps, same trace tracks and ids.
//!
//! Cases:
//! * a timeout-recovering ring exchange under seeded mid-run crashes
//!   and link outages on small Delta meshes;
//! * the halo + transpose-partner workload of `report bench-des` on the
//!   full 16×33 Delta with boot crashes (survivors end as orphans);
//! * the LU-2D timing model under a seeded slowdown/outage plan.
//!
//! On a mismatch the assertion prints the digests of the current run in
//! the form the table below uses.

use delta_mesh::{presets, FaultKind, FaultPlan, Kernel, Machine, MtbfModel, Node, RunReport};
use des::time::{Dur, SimTime};
use hpcc_kernels::sim::lu2d;
use hpcc_trace::{Event, MemRecorder, Recorder};
use std::fmt;
use std::rc::Rc;

/// FNV-1a over 64-bit words and strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest of one run. `elapsed_ns` and `events` repeat two report
/// fields in clear so a mismatch says at a glance whether timing moved.
#[derive(PartialEq)]
struct Golden {
    outputs: u64,
    report: u64,
    trace: u64,
    elapsed_ns: u64,
    events: u64,
}

impl fmt::Debug for Golden {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Golden {{ outputs: {:#018x}, report: {:#018x}, trace: {:#018x}, \
             elapsed_ns: {}, events: {} }}",
            self.outputs, self.report, self.trace, self.elapsed_ns, self.events
        )
    }
}

fn outputs_digest(outs: &[Option<f64>]) -> u64 {
    let mut h = Fnv::new();
    for o in outs {
        match o {
            Some(v) => {
                h.word(1);
                h.word(v.to_bits());
            }
            None => h.word(0),
        }
    }
    h.0
}

fn report_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.machine);
    for w in [
        r.nodes as u64,
        r.elapsed.nanos(),
        r.messages,
        r.bytes,
        r.flops.to_bits(),
        r.events,
        r.compute_fraction.to_bits(),
        r.link_utilization.to_bits(),
        r.unexpected_messages,
        r.faults.node_crashes,
        r.faults.slowdowns,
        r.faults.link_faults,
        r.faults.messages_lost,
        r.faults.timeouts,
        r.faults.retries,
        r.faults.orphaned_tasks,
    ] {
        h.word(w);
    }
    h.0
}

fn trace_digest(rec: &MemRecorder) -> u64 {
    let mut h = Fnv::new();
    rec.with(|tracks, events| {
        h.word(tracks.len() as u64);
        for t in tracks {
            h.str(&t.process);
            h.str(&t.thread);
        }
        h.word(events.len() as u64);
        for e in events {
            match e {
                Event::Span {
                    track,
                    cat,
                    name,
                    start_ns,
                    end_ns,
                } => {
                    h.word(0);
                    h.word(*track as u64);
                    h.str(cat);
                    h.str(name);
                    h.word(*start_ns);
                    h.word(*end_ns);
                }
                Event::Instant {
                    track,
                    cat,
                    name,
                    at_ns,
                } => {
                    h.word(1);
                    h.word(*track as u64);
                    h.str(cat);
                    h.str(name);
                    h.word(*at_ns);
                }
                Event::Counter {
                    track,
                    name,
                    at_ns,
                    value,
                } => {
                    h.word(2);
                    h.word(*track as u64);
                    h.str(name);
                    h.word(*at_ns);
                    h.word(value.to_bits());
                }
            }
        }
    });
    h.0
}

fn golden(outs: &[Option<f64>], report: &RunReport, rec: &MemRecorder) -> Golden {
    Golden {
        outputs: outputs_digest(outs),
        report: report_digest(report),
        trace: trace_digest(rec),
        elapsed_ns: report.elapsed.nanos(),
        events: report.events,
    }
}

/// Run `program` recorded and unrecorded; the two must agree (the
/// recorder is a pure observer) and the recorded run is digested.
fn pin<F, Fut>(m: &Machine, plan: &FaultPlan, program: F) -> (Golden, RunReport)
where
    F: Fn(Node) -> Fut + Clone,
    Fut: std::future::Future<Output = f64> + 'static,
{
    let rec = Rc::new(MemRecorder::new());
    let (outs, report) = m.run_recorded(plan, Rc::clone(&rec) as Rc<dyn Recorder>, program.clone());
    let (plain_outs, plain_report) = m.run_with_faults(plan, program);
    assert_eq!(outputs_digest(&outs), outputs_digest(&plain_outs));
    assert_eq!(
        report, plain_report,
        "recorded run perturbed the simulation"
    );
    (golden(&outs, &report, &rec), report)
}

/// Mid-run crashes and link outages drawn from `seed`, timed to land
/// inside the ~81 µs the ring exchange takes when nothing fails.
fn rich_plan(seed: u64, nodes: usize, links: usize) -> FaultPlan {
    let mut rng = des::rng::Rng::new(seed);
    let mut plan = FaultPlan::none();
    for _ in 0..(rng.next_u64() % 3) {
        let node = (rng.next_u64() as usize) % nodes;
        plan.push(
            SimTime(rng.next_u64() % 5 * 20_000),
            FaultKind::NodeCrash { node },
        );
    }
    for _ in 0..(rng.next_u64() % 2) {
        let link = (rng.next_u64() as usize) % links;
        let at = rng.next_u64() % 4 * 20_000;
        plan.push(
            SimTime(at),
            FaultKind::LinkDown {
                link,
                until: SimTime(at + 500_000),
            },
        );
    }
    plan
}

/// Ring exchange that receives with a deadline and falls back, so
/// crashes and outages end in timeouts rather than orphans.
async fn recovering_step(node: Node, cols: usize) -> f64 {
    let me = node.rank();
    let right = if (me + 1).is_multiple_of(cols) {
        me + 1 - cols
    } else {
        me + 1
    };
    let left = if me.is_multiple_of(cols) {
        me + cols - 1
    } else {
        me - 1
    };
    node.send_f64s(right, 7, &[me as f64]).await;
    match node
        .recv_f64s_timeout(Some(left), Some(7), Dur::from_millis(40))
        .await
    {
        Ok(v) => v[0] + 1.0,
        Err(_) => -1.0,
    }
}

/// Boot crashes plus mid-run slowdowns drawn from `seed`.
fn boot_crash_plan(seed: u64, nodes: usize) -> FaultPlan {
    let mut rng = des::rng::Rng::new(seed);
    let mut plan = FaultPlan::none();
    for _ in 0..1 + rng.next_u64() % 3 {
        let node = (rng.next_u64() as usize) % nodes;
        plan.push(SimTime::ZERO, FaultKind::NodeCrash { node });
    }
    for _ in 0..1 + rng.next_u64() % 3 {
        let node = (rng.next_u64() as usize) % nodes;
        plan.push(
            SimTime(1_000 + rng.next_u64() % 1_000_000),
            FaultKind::NodeSlow {
                node,
                factor: 3.0,
                until: SimTime(5_000_000),
            },
        );
    }
    plan
}

/// The `report bench-des` workload: halo exchange with the four mesh
/// neighbours plus one transpose partner, `steps` times, with exact
/// source/tag receives and no timeouts.
async fn halo_transpose(node: Node, rows: usize, cols: usize, steps: usize) -> f64 {
    let me = node.rank();
    let (r, c) = (me / cols, me % cols);
    let mut nbrs = Vec::new();
    if r > 0 {
        nbrs.push(me - cols);
    }
    if r + 1 < rows {
        nbrs.push(me + cols);
    }
    if c > 0 {
        nbrs.push(me - 1);
    }
    if c + 1 < cols {
        nbrs.push(me + 1);
    }
    let far = ((r + rows / 2) % rows) * cols + (c + cols / 2) % cols;
    let near = ((r + rows - rows / 2) % rows) * cols + (c + cols - cols / 2) % cols;
    let mut acc = 0.0;
    for s in 0..steps {
        node.compute(Kernel::Stencil, 2.0e4).await;
        for &nb in &nbrs {
            node.send_f64s(nb, s as u64, &[me as f64]).await;
        }
        node.send_f64s(far, 1_000 + s as u64, &[(me * 3) as f64])
            .await;
        for &nb in &nbrs {
            acc += node.recv_f64s(Some(nb), Some(s as u64)).await[0];
        }
        acc += node.recv_f64s(Some(near), Some(1_000 + s as u64)).await[0];
    }
    acc
}

/// `((rows, cols, seed), digests)` for the ring exchange. Between them
/// the plans cover no fault at all, boot and mid-run crashes, messages
/// lost to dead nodes, outages routed around (elapsed moves) and
/// outages that force the 40 ms timeout.
#[rustfmt::skip]
const RING_CASES: [((usize, usize, u64), Golden); 9] = [
    ((2, 3, 42), Golden { outputs: 0x96517d44722ee74c, report: 0xa8140d8e7c04e696, trace: 0x671ba9bb756826da, elapsed_ns: 80920, events: 18 }),
    ((1, 2, 1), Golden { outputs: 0x352a910eef23af99, report: 0x3e6c7737f6ab9f0f, trace: 0xf2e02a10b009644d, elapsed_ns: 40047000, events: 4 }),
    ((1, 3, 0), Golden { outputs: 0xd14ff07e0fab43ac, report: 0xf4605a32365f1a07, trace: 0x07de8227159912f4, elapsed_ns: 80920, events: 10 }),
    ((2, 2, 9001), Golden { outputs: 0xe1e61a71c7f9b391, report: 0x66f48623170535e5, trace: 0xf7169857f4749052, elapsed_ns: 81840, events: 13 }),
    ((2, 3, 99), Golden { outputs: 0xc7aabf32de13be55, report: 0xbd43a05b613c00f6, trace: 0x40bdb6be2d56eb85, elapsed_ns: 80920, events: 18 }),
    ((2, 4, 1), Golden { outputs: 0x4aff1412f84b99f4, report: 0xeea844cd3120aa61, trace: 0x8dc2d7c37632d8e6, elapsed_ns: 40047000, events: 24 }),
    ((3, 2, 1992), Golden { outputs: 0x486daa76d16042e5, report: 0xb07b937096d45e8f, trace: 0x1f4f0a5bea90bab0, elapsed_ns: 80620, events: 19 }),
    ((3, 3, 9001), Golden { outputs: 0xe2a969fa65205860, report: 0xc81e854468942966, trace: 0x1e2e4bcbab2f001d, elapsed_ns: 81520, events: 27 }),
    ((3, 4, 1), Golden { outputs: 0x4066e449f8bf1932, report: 0x4005256931b4eb15, trace: 0x3b3565628be1ffff, elapsed_ns: 40047000, events: 44 }),
];

#[test]
fn recovering_ring_matches_golden() {
    let mut timeouts = 0;
    for ((rows, cols, seed), want) in RING_CASES {
        let m = Machine::new(presets::delta(rows, cols));
        let plan = rich_plan(seed, rows * cols, m.config().topology.links());
        let (got, report) = pin(&m, &plan, move |node| recovering_step(node, cols));
        assert_eq!(got, want, "delta({rows}, {cols}) seed {seed}");
        timeouts += report.faults.timeouts;
    }
    assert!(timeouts > 0, "no case exercised the timeout path");
}

#[test]
fn bench_des_workload_matches_golden() {
    let want = Golden {
        outputs: 0x17bbbc9c974d2051,
        report: 0xe5d5845150049305,
        trace: 0x84416db2dc7369f9,
        elapsed_ns: 6746025,
        events: 16031,
    };
    let (rows, cols, steps) = (16, 33, 2);
    let m = Machine::new(presets::delta(rows, cols));
    let plan = boot_crash_plan(1992, rows * cols);
    let (got, report) = pin(&m, &plan, move |node| {
        halo_transpose(node, rows, cols, steps)
    });
    assert_eq!(got, want);
    assert!(report.faults.node_crashes > 0 && report.faults.orphaned_tasks > 0);
}

#[test]
fn lu2d_traced_matches_golden() {
    let want = Golden {
        outputs: 0xcbf29ce484222325,
        report: 0x28546a373d0823a2,
        trace: 0x3166a9a082e4f83d,
        elapsed_ns: 1153041695,
        events: 6167,
    };
    let m = Machine::new(presets::delta(4, 4));
    let model = MtbfModel {
        slow_mtbf: Some(Dur::from_millis(20)),
        slow_factor: 3.0,
        slow_duration: Dur::from_millis(5),
        flap_mtbf: Some(Dur::from_millis(200)),
        flap_duration: Dur::from_millis(2),
        ..MtbfModel::none()
    };
    let plan = FaultPlan::seeded(
        31,
        &model,
        m.config().nodes(),
        m.config().topology.links(),
        Dur::from_millis(60),
    );
    let rec = Rc::new(MemRecorder::new());
    let run = lu2d::run_traced(&m, 768, 32, &plan, Rc::clone(&rec) as Rc<dyn Recorder>);
    // Without checkpoints LU-2D returns no per-node values, so the
    // outputs digest is that of an empty list; report and trace carry
    // the pin.
    let outs: Vec<Option<f64>> = run.ckpt_times_s.iter().map(|&t| Some(t)).collect();
    let got = golden(&outs, &run.result.report, &rec);
    assert_eq!(got, want);
    let faults = run.result.report.faults;
    assert!(faults.slowdowns > 0 && faults.link_faults > 0);
}
