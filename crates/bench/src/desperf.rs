//! DES engine throughput: wall-clock events/sec of the lane runtime,
//! swept over mesh size × lane count. The `report bench-des` command
//! prints the table and writes `BENCH_des.json`; `--smoke` runs a small
//! sweep. Every sweep asserts in-exhibit that each lane count returns
//! the same per-node outputs as one lane.
//!
//! The workload is a halo exchange with a long-range partner per node:
//! nearest-neighbour traffic keeps every lane busy, and the cross-mesh
//! messages are where lane counts genuinely differ — within a lane the
//! wormhole model walks the whole route to reserve channels (O(hops)
//! per message, and routes on a 250×400 mesh run to hundreds of hops),
//! while cross-lane messages are timed analytically in O(1). Smaller
//! per-lane calendars do the rest.

use delta_mesh::{presets, Kernel, Machine, Node};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured (mesh, lanes) configuration.
pub struct DesRow {
    /// Mesh shape.
    pub rows: usize,
    pub cols: usize,
    /// Event-engine lanes (1 = every node on one lane).
    pub lanes: usize,
    /// Halo steps the workload ran.
    pub steps: usize,
    /// Simulator events dispatched across all lanes.
    pub events: u64,
    /// Wall time, milliseconds.
    pub ms: f64,
    /// events / wall second — the figure of merit.
    pub events_per_sec: f64,
}

/// Rank of the transpose-style long-range partner: half the mesh away
/// in both dimensions, the communication shape of a 2-D FFT or block
/// transpose. Applying it twice returns to the start only when both
/// extents are even, so the inverse is computed explicitly.
fn far_partner(me: usize, rows: usize, cols: usize) -> usize {
    let (r, c) = (me / cols, me % cols);
    ((r + rows / 2) % rows) * cols + (c + cols / 2) % cols
}

fn far_inverse(me: usize, rows: usize, cols: usize) -> usize {
    let (r, c) = (me / cols, me % cols);
    ((r + rows - rows / 2) % rows) * cols + (c + cols - cols / 2) % cols
}

/// Halo exchange plus one long-range (transpose) partner, repeated
/// `steps` times. Results are timing-insensitive (exact source/tag
/// receive filters, no timeouts), so every engine and lane count must
/// agree on the outputs.
async fn workload(node: Node, rows: usize, cols: usize, steps: usize) -> f64 {
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
    let far = far_partner(me, rows, cols);
    let near = far_inverse(me, rows, cols);
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

/// Time `workload` at `lanes` lanes; also returns the per-node outputs
/// of the last rep.
fn measure(rows: usize, cols: usize, lanes: usize, steps: usize) -> (DesRow, Vec<f64>) {
    let m = Machine::new(presets::delta(rows, cols));
    // Best-of-2 damps scheduler noise; a single rep made the biggest
    // configs swing ±15% run to run.
    let reps = 2;
    let mut best = f64::MAX;
    let mut events = 0;
    let mut outs = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let (o, rep) = m.run_sharded(lanes, |node| workload(node, rows, cols, steps));
        best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        events = rep.events;
        outs = o;
    }
    let row = DesRow {
        rows,
        cols,
        lanes,
        steps,
        events,
        ms: best * 1e3,
        events_per_sec: events as f64 / best,
    };
    (row, outs)
}

/// The sweep: mesh sizes from the 528-node Delta to past 100k nodes,
/// lane counts 1..8. `smoke` restricts to the Delta and three lane counts
/// (CI-sized). Panics if any lane count's outputs differ from one
/// lane's — the workload is timing-insensitive, so they must agree.
pub fn snapshot(smoke: bool) -> Vec<DesRow> {
    // (rows, cols, halo steps): fewer steps as the mesh grows, so every
    // configuration finishes in seconds even on one lane.
    let sizes: &[(usize, usize, usize)] = if smoke {
        &[(16, 33, 2)]
    } else {
        &[(16, 33, 8), (64, 64, 4), (128, 128, 2), (250, 400, 2)]
    };
    let lane_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut rows = Vec::new();
    for &(r, c, steps) in sizes {
        let mut one_lane = None;
        for &lanes in lane_counts {
            let (row, outs) = measure(r, c, lanes, steps);
            match &one_lane {
                None => one_lane = Some(outs),
                Some(base) => assert!(
                    *base == outs,
                    "{r}x{c}: outputs at {lanes} lanes differ from one lane"
                ),
            }
            rows.push(row);
        }
    }
    rows
}

/// Human-readable table with per-size speedup over the lanes=1 baseline.
pub fn table(rows: &[DesRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "DES engine throughput (halo + long-range workload)");
    let _ = writeln!(s, "{:-<72}", "");
    let _ = writeln!(
        s,
        "{:>9} {:>9} {:>6} {:>6} {:>10} {:>10} {:>12} {:>8}",
        "mesh", "nodes", "lanes", "steps", "events", "ms", "events/s", "speedup"
    );
    for r in rows {
        let base = rows
            .iter()
            .find(|b| b.rows == r.rows && b.cols == r.cols && b.lanes == 1)
            .map_or(r.events_per_sec, |b| b.events_per_sec);
        let _ = writeln!(
            s,
            "{:>9} {:>9} {:>6} {:>6} {:>10} {:>10.1} {:>12.0} {:>7.2}x",
            format!("{}x{}", r.rows, r.cols),
            r.rows * r.cols,
            r.lanes,
            r.steps,
            r.events,
            r.ms,
            r.events_per_sec,
            r.events_per_sec / base
        );
    }
    s
}

/// The JSON snapshot (hand-rolled — the harness carries no serde).
pub fn json(rows: &[DesRow]) -> String {
    let mut s = String::from("{\n  \"bench\": \"des\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"rows\": {}, \"cols\": {}, \"nodes\": {}, \"lanes\": {}, \
             \"steps\": {}, \"events\": {}, \"ms\": {:.3}, \"events_per_sec\": {:.1}}}",
            r.rows,
            r.cols,
            r.rows * r.cols,
            r.lanes,
            r.steps,
            r.events,
            r.ms,
            r.events_per_sec
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_agrees_across_engines() {
        let (rows, cols, steps) = (4, 4, 2);
        let m = Machine::new(presets::delta(rows, cols));
        let (a, _) = m.run(|node| workload(node, rows, cols, steps));
        let (b, _) = m.run_sharded(2, |node| workload(node, rows, cols, steps));
        assert_eq!(a, b);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = vec![DesRow {
            rows: 4,
            cols: 4,
            lanes: 2,
            steps: 2,
            events: 100,
            ms: 1.5,
            events_per_sec: 66_666.7,
        }];
        let j = json(&rows);
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let t = table(&rows);
        assert!(t.contains("events/s") && t.contains("4x4"));
    }
}
