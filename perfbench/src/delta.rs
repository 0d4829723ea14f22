//! `delta-mesh`: two simulator programs that use the `des`/`mesh` layer
//! in different ways, with `kernels` doing no arithmetic.
//!
//! * Program (a), the paper's exhibit T4-4b: LU-2D at order 25,000 on the
//!   528-node Delta, on the legacy single-calendar engine (collective
//!   broadcasts, wormhole contention).
//! * Program (b), the DES-1 halo-plus-transpose program on a 250×400
//!   mesh, through the sharded engine at `nproc` lanes, and through the
//!   legacy engine on the same input.

use crate::metrics::{fingerprint, Checks, Metrics};
use crate::provenance::nproc;
use crate::tracer::{Tracer, BENCH};
use crate::{Size, Workload};
use delta_mesh::{presets, FaultPlan, Kernel, LaneStats, Machine, Node, RunReport};
use des::rng::Rng;
use hpcc_kernels::sim::lu2d;

pub struct Delta;

pub struct Inputs {
    /// Machine and order of program (a).
    delta: Machine,
    lu_n: usize,
    /// Order of the paper-scale run the traced pass makes once, and the
    /// paper's 13.0 GFLOPS with the ±25% band of `tests/exhibit_shapes.rs`
    /// (`None` at test sizes, where the paper figure does not apply).
    paper_n: usize,
    band: Option<(f64, f64)>,
    /// Program (b): mesh, halo steps and each node's seeded payload.
    mesh: Machine,
    rows: usize,
    cols: usize,
    steps: usize,
    payload: Vec<f64>,
    lanes: usize,
}

pub struct Sample {
    lu_s: f64,
    lu: lu2d::Lu2dResult,
    halo_s: f64,
    halo: RunReport,
    lane_stats: LaneStats,
    legacy_s: f64,
    legacy: RunReport,
    /// Fingerprint of the per-node halo outputs.
    halo_bits: u64,
}

const LU_NB: usize = 32;

/// The transpose partner: half the mesh away in both dimensions, and the
/// node whose partner `me` is.
fn far_partner(me: usize, rows: usize, cols: usize) -> (usize, usize) {
    let (r, c) = (me / cols, me % cols);
    let far = ((r + rows / 2) % rows) * cols + (c + cols / 2) % cols;
    let near = ((r + rows - rows / 2) % rows) * cols + (c + cols - cols / 2) % cols;
    (far, near)
}

/// Halo exchange with the four mesh neighbours plus one transpose
/// partner, `steps` times. Receives name their source and tag, so the
/// result does not depend on timing: every engine and lane count must
/// return the same sums.
async fn halo(node: Node, rows: usize, cols: usize, steps: usize, mine: f64) -> f64 {
    let me = node.rank();
    let (r, c) = (me / cols, me % cols);
    let mut nbrs = Vec::with_capacity(4);
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
    let (far, near) = far_partner(me, rows, cols);
    let mut acc = 0.0;
    for s in 0..steps as u64 {
        node.compute(Kernel::Stencil, 2.0e4).await;
        for &nb in &nbrs {
            node.send_f64s(nb, s, &[mine]).await;
        }
        node.send_f64s(far, 1_000 + s, &[3.0 * mine]).await;
        for &nb in &nbrs {
            acc += node.recv_f64s(Some(nb), Some(s)).await[0];
        }
        acc += node.recv_f64s(Some(near), Some(1_000 + s)).await[0];
    }
    acc
}

type HaloFuture = std::pin::Pin<Box<dyn std::future::Future<Output = f64>>>;

/// Program (b) as a node program. Borrows only the payloads, which is
/// what lets the sharded engine share it across lane threads.
fn program(inp: &Inputs) -> impl Fn(Node) -> HaloFuture + Sync + '_ {
    let (payload, rows, cols, steps) = (&inp.payload, inp.rows, inp.cols, inp.steps);
    move |node: Node| {
        let mine = payload[node.rank()];
        Box::pin(halo(node, rows, cols, steps, mine))
    }
}

/// Program (b) on the sharded engine at `inp.lanes` lanes. `inline`
/// runs the lanes round-robin on this thread (`HPCC_LANE_MODE=inline`,
/// set for the call and restored after); otherwise the engine picks its
/// mode as it would for any caller.
fn run_sharded(inp: &Inputs, inline: bool) -> (Vec<Option<f64>>, RunReport, LaneStats) {
    let before = std::env::var_os("HPCC_LANE_MODE");
    if inline {
        std::env::set_var("HPCC_LANE_MODE", "inline");
    }
    let out = inp
        .mesh
        .run_sharded_stats(inp.lanes, &FaultPlan::none(), program(inp));
    if inline {
        match before {
            Some(v) => std::env::set_var("HPCC_LANE_MODE", v),
            None => std::env::remove_var("HPCC_LANE_MODE"),
        }
    }
    out
}

/// The sharded run in the engine's own mode (threads on this host),
/// checked against the single-thread pass `s`; returns its wall time.
fn threaded(inp: &Inputs, s: &Sample, tr: &Tracer, ck: &mut Checks) -> f64 {
    let ((outs, rep, _), secs) = tr.call("mesh", "Machine::run_sharded_stats", || {
        run_sharded(inp, false)
    });
    let bits = output_bits(outs.iter().map(|o| o.as_ref().unwrap_or(&f64::NAN)));
    ck.check(
        "halo outputs identical in the engine's lane mode and inline",
        bits == s.halo_bits && rep.events == s.halo.events,
    );
    secs
}

/// The paper band, or merely a finite positive rate where none applies.
fn paper_in_band(gflops: f64, band: Option<(f64, f64)>) -> bool {
    match band {
        Some((lo, hi)) => (lo..=hi).contains(&gflops),
        None => gflops.is_finite() && gflops > 0.0,
    }
}

/// Fingerprint of per-node outputs, bit for bit; a node that did not
/// finish counts as NaN.
fn output_bits<'a>(outs: impl IntoIterator<Item = &'a f64>) -> u64 {
    fingerprint(outs.into_iter().map(|v| v.to_bits()))
}

/// Maximum over mean of the events each lane processed.
fn lane_imbalance(per_lane: &[u64]) -> f64 {
    let max = per_lane.iter().copied().max().unwrap_or(0) as f64;
    let mean = per_lane.iter().sum::<u64>() as f64 / per_lane.len().max(1) as f64;
    max / mean.max(1.0)
}

impl Workload for Delta {
    const NAME: &'static str = "delta-mesh";
    type Inputs = Inputs;
    type Sample = Sample;

    fn setup(seed: u64, size: Size, tr: &Tracer) -> Inputs {
        let (lu_cfg, lu_n, paper_n, band, rows, cols) = match size {
            Size::Full => (
                presets::delta_528(),
                2_000,
                25_000,
                Some((9.75, 16.25)),
                64,
                64,
            ),
            Size::Tiny => (presets::delta(4, 4), 600, 1_000, None, 8, 10),
        };
        let delta = tr
            .call("mesh", "Machine::new(delta)", || Machine::new(lu_cfg))
            .0;
        let mesh = tr
            .call("mesh", "Machine::new(mesh)", || {
                Machine::new(presets::delta(rows, cols))
            })
            .0;
        let payload = tr
            .call(BENCH, "payloads", || {
                let mut rng = Rng::new(seed ^ 0xDE17A);
                (0..rows * cols).map(|_| rng.range_f64(-1.0, 1.0)).collect()
            })
            .0;
        Inputs {
            delta,
            lu_n,
            paper_n,
            band,
            mesh,
            rows,
            cols,
            steps: 2,
            payload,
            lanes: nproc(),
        }
    }

    fn cycle(inp: &Inputs, tr: &Tracer, ck: &mut Checks) -> Sample {
        let (lu, lu_s) = tr.call("mesh", "lu2d::run", || {
            lu2d::run(&inp.delta, inp.lu_n, LU_NB)
        });
        ck.check(
            format!("lu2d at order {} ran ({} GFLOPS)", inp.lu_n, lu.gflops),
            lu.gflops.is_finite() && lu.gflops > 0.0 && lu.report.events > 0,
        );

        let ((outs, halo, lane_stats), halo_s) =
            tr.call("mesh", "Machine::run_sharded_stats(inline)", || {
                run_sharded(inp, true)
            });
        let halo_bits = output_bits(outs.iter().map(|o| o.as_ref().unwrap_or(&f64::NAN)));
        ck.check("every halo node finished", outs.iter().all(Option::is_some));
        let ((legacy_out, legacy), legacy_s) =
            tr.call("mesh", "Machine::run", || inp.mesh.run(program(inp)));
        ck.check(
            format!(
                "halo outputs identical at 1 lane and at {} lanes (sums {} vs {})",
                lane_stats.lanes,
                legacy_out.iter().sum::<f64>(),
                outs.iter().flatten().sum::<f64>()
            ),
            output_bits(&legacy_out) == halo_bits,
        );
        ck.check(
            "lane events add up to the run's events",
            lane_stats.per_lane_events.iter().sum::<u64>() == halo.events,
        );
        Sample {
            lu_s,
            lu,
            halo_s,
            halo,
            lane_stats,
            legacy_s,
            legacy,
            halo_bits,
        }
    }

    fn finish(inp: &Inputs, samples: &[Sample], tr: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        let first = &samples[0];
        for s in &samples[1..] {
            ck.check(
                "repeated passes give the same counts",
                s.lu.report == first.lu.report
                    && s.halo.events == first.halo.events
                    && s.halo_bits == first.halo_bits,
            );
        }
        let [lu, inline, legacy] = crate::median_calls::<Self>(samples);
        let threads_s = threaded(inp, first, tr, ck);
        let events = first.halo.events as f64;
        m.put("delta_linpack_s", "s", lu);
        m.put("halo_events_per_s_inline", "1/s", events / inline);
        m.put(
            "halo_events_per_s_1lane",
            "1/s",
            first.legacy.events as f64 / legacy,
        );
        // The engine's own lane mode, one sample per run: reported, not gated.
        m.put("halo_events_per_s", "1/s", events / threads_s);
    }

    fn calls(s: &Sample) -> [f64; 3] {
        [s.lu_s, s.halo_s, s.legacy_s]
    }

    fn layers(inp: &Inputs, s: &Sample, tr: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        // Exhibit T4-4b at the paper's order, once.
        let (paper, paper_s) = tr.call("mesh", "lu2d::run(paper order)", || {
            lu2d::run(&inp.delta, inp.paper_n, LU_NB)
        });
        ck.check(
            format!(
                "paper-scale lu2d {:.3} GFLOPS within the paper band {:?}",
                paper.gflops, inp.band
            ),
            paper_in_band(paper.gflops, inp.band),
        );
        m.put("mesh.lu2d.paper_sim_gflops", "sim_GF/s", paper.gflops);
        m.put("mesh.lu2d.paper_host_s", "s", paper_s);
        let rep = &s.lu.report;
        m.put("mesh.lu2d.events", "count", rep.events as f64);
        m.put("mesh.lu2d.messages", "count", rep.messages as f64);
        m.put(
            "mesh.lu2d.host_ns_per_event",
            "ns",
            s.lu_s * 1e9 / rep.events.max(1) as f64,
        );
        m.put("mesh.lu2d.sim_gflops", "sim_GF/s", s.lu.gflops);
        m.put("mesh.lu2d.sim_seconds", "sim_s", s.lu.seconds);

        let ls = &s.lane_stats;
        m.put("mesh.halo.events", "count", s.halo.events as f64);
        m.put("mesh.shard.windows", "count", ls.rounds as f64);
        m.put("mesh.shard.mail_msgs", "count", ls.mail_msgs as f64);
        m.put(
            "mesh.shard.events_per_window",
            "ratio",
            ls.events_per_round(),
        );
        m.put(
            "mesh.shard.lane_imbalance",
            "ratio",
            lane_imbalance(&ls.per_lane_events),
        );
        m.put(
            "mesh.halo.events_per_s_1lane",
            "1/s",
            s.legacy.events as f64 / s.legacy_s,
        );

        // The same lanes on lane threads: the gap to the inline figure is
        // the cost of threads and barriers.
        let threads_s = threaded(inp, s, tr, ck);
        m.put(
            "mesh.halo.events_per_s_threads",
            "1/s",
            s.halo.events as f64 / threads_s,
        );
        m.put(
            "mesh.halo.events_per_s_inline",
            "1/s",
            s.halo.events as f64 / s.halo_s,
        );
        m.put(
            "mesh.halo.sim_elapsed_ms_1lane",
            "sim_ms",
            s.legacy.elapsed.as_secs_f64() * 1e3,
        );
        m.put(
            "mesh.halo.sim_elapsed_ms_nlane",
            "sim_ms",
            s.halo.elapsed.as_secs_f64() * 1e3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partner_maps_are_inverse() {
        for (rows, cols) in [(4, 4), (5, 7), (250, 400)] {
            for me in (0..rows * cols).step_by(7) {
                let (far, _) = far_partner(me, rows, cols);
                assert_eq!(far_partner(far, rows, cols).1, me);
            }
        }
    }

    #[test]
    fn checks_fire_on_tiny_inputs() {
        let tr = Tracer::new(false);
        let mut inp = Delta::setup(3, Size::Tiny, &tr);
        let mut ck = Checks::new();
        let s = Delta::cycle(&inp, &tr, &mut ck);
        assert!(ck.all_passed(), "{:?}", ck.failed());
        let mut m = Metrics::new();
        Delta::layers(&inp, &s, &tr, &mut ck, &mut m);
        assert!(ck.all_passed(), "{:?}", ck.failed());
        // A paper band the tiny machine cannot reach must fail.
        inp.band = Some((9.75, 16.25));
        let mut ck = Checks::new();
        Delta::layers(&inp, &s, &tr, &mut ck, &mut Metrics::new());
        assert_eq!(ck.failed().len(), 1, "{:?}", ck.failed());
        assert!(paper_in_band(13.316, Some((9.75, 16.25))));
        assert!(!paper_in_band(f64::NAN, None));
        assert_eq!(lane_imbalance(&[3, 1]), 1.5);
    }
}
