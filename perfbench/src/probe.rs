//! The host-speed probe: a fixed piece of the benchmark's own work, timed
//! between the passes of a run, that the gated call times are divided by.
//!
//! On a shared host the speed of a single core drifts by tens of percent
//! over seconds as neighbours load the caches and memory. A call timed
//! next to the probe slows with it, so the ratio of the two moves far
//! less between runs than either time. The probe calls none of the
//! workspace's crates, so a change to them leaves it alone and moves the
//! ratio by exactly the change in the call's own time.
//!
//! The probe churns a binary heap of 2^17 keys (1 MiB): branchy,
//! cache-bound work like the simulators' event calendars. A pure
//! arithmetic loop tracked the drift far worse, as did random access to a
//! 16 MiB table.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

const KEYS: usize = 1 << 17;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Wall seconds of one probe: fill the heap, then pop and push `KEYS`
/// times. The keys are the same on every call.
pub fn host_probe() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut heap = BinaryHeap::with_capacity(KEYS);
    for _ in 0..KEYS {
        heap.push(xorshift(&mut x));
    }
    let mut acc = 0u64;
    for _ in 0..KEYS {
        acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        heap.push(xorshift(&mut x));
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_takes_time() {
        assert!(host_probe() > 0.0);
    }
}
