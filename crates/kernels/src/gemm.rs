//! Packed, register-blocked GEMM — the BLIS-style engine behind the
//! host-side BLAS3 paths (dense matmul and the LU trailing update that
//! dominates LINPACK).
//!
//! ## Algorithm
//!
//! The classic five-loop decomposition:
//!
//! ```text
//! for jc in steps of NC over columns of C          (outer, cache-oblivious)
//!   for pc in steps of KC over the inner dimension (fixed accumulation order)
//!     pack B[pc.., jc..] into Bp  — row-major NR-column panels
//!     for ic in steps of MC over rows of C         (parallelised with Rayon)
//!       A is pre-packed into Ap   — column-major MR-row panels
//!       for jr in steps of NR, ir in steps of MR:
//!         microkernel: MR×NR register tile ±= Ap panel · Bp panel
//! ```
//!
//! Packing turns both operand streams into unit-stride loads, and the
//! MR×NR register tile turns ~2 memory operations per FLOP (the naive
//! and cache-blocked kernels) into ~(MR+NR)/(2·MR·NR).
//!
//! ## Microkernel
//!
//! The tile is MR×NR = 12×16, chosen by measurement over 8×16, 8×24 and
//! 12×16. Three tiers share the packed layout, and the fastest one the
//! host supports ([`crate::simd::gemm_tier`]) is picked once per call:
//!
//! * **AVX-512F** — 24 zmm accumulators (12 rows × two 8-wide halves);
//!   per k step two B loads, twelve A broadcasts and 24 FMAs.
//! * **AVX2+FMA** — the same tile swept as four 6×8 sub-tiles of 12 ymm
//!   accumulators each (a 12×16 tile does not fit 16 ymm registers).
//! * **Portable** — the reference body and the only path off x86-64.
//!
//! Both SIMD tiers use explicit `fmadd` intrinsics (Rust never contracts
//! `x += a * b`) and give each element the chain `acc = 0`,
//! `acc = fma(a, b, acc)` in k order, then one `c ± acc`, so they are
//! bit-identical to each other. The portable body rounds product and sum
//! separately and agrees with them within roundoff.
//!
//! ## Determinism
//!
//! The `pc` (inner-dimension) loop is strictly sequential and parallelism
//! is only over disjoint MC-row panels of C, so every element of C is
//! accumulated in the same order regardless of thread count: sequential
//! and parallel runs are bit-identical (the property `lu_factor` /
//! `lu_factor_par` promise).
//!
//! `matmul_naive` remains the correctness oracle; property tests assert
//! equivalence on awkward shapes.

use crate::mat::Mat;
use crate::simd::Tier;
use hpcc_trace::{names, Recorder, WallTrack};
use rayon::prelude::*;
use std::cell::RefCell;

/// Microkernel tile height (rows of C per register tile).
pub const MR: usize = 12;
/// Microkernel tile width (columns of C per register tile).
pub const NR: usize = 16;
/// Rows of A packed per macro-tile (L2-resident block, multiple of MR).
pub const MC: usize = 144;
/// Depth of one packed strip (L1-resident panels).
pub const KC: usize = 256;
/// Columns of B packed per macro-tile (multiple of NR).
pub const NC: usize = 4096;

thread_local! {
    /// Packing buffers reused across calls (no steady-state allocation).
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A strided view of a row-major operand: `rows` rows of logical width
/// starting at column `col` within a backing slice of leading dimension
/// `ld`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f64],
    ld: usize,
    col: usize,
}

impl View<'_> {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.ld + self.col + c]
    }
}

/// Pack `m × kdim` of A (view `a`) into MR-row panels, KC-strip major:
/// strip `pc` starts at `m_pad · pc`, panel `ir` within a strip of depth
/// `kcs` at `ir · kcs`, laid out k-major so the microkernel reads MR
/// contiguous values per k step. Rows beyond `m` are zero-padded.
fn pack_a(a: View<'_>, m: usize, kdim: usize, buf: &mut Vec<f64>) {
    let m_pad = m.div_ceil(MR) * MR;
    buf.clear();
    buf.resize(m_pad * kdim, 0.0);
    let mut pc = 0;
    while pc < kdim {
        let kcs = KC.min(kdim - pc);
        let strip = &mut buf[m_pad * pc..m_pad * pc + m_pad * kcs];
        let mut ir = 0;
        while ir < m {
            let panel = &mut strip[ir * kcs..ir * kcs + MR * kcs];
            let mr_eff = MR.min(m - ir);
            for p in 0..kcs {
                let dst = &mut panel[p * MR..(p + 1) * MR];
                for (r, d) in dst.iter_mut().enumerate().take(mr_eff) {
                    *d = a.at(ir + r, pc + p);
                }
            }
            ir += MR;
        }
        pc += kcs;
    }
}

/// Pack `kcs × nc` of B (rows `pc..pc+kcs`, columns `jc..jc+nc` of view
/// `b`) into NR-column panels: panel `jr` at `jr · kcs`, k-major so the
/// microkernel reads NR contiguous values per k step. Columns beyond the
/// logical width are zero-padded.
fn pack_b(b: View<'_>, pc: usize, kcs: usize, jc: usize, nc: usize, buf: &mut Vec<f64>) {
    let nc_pad = nc.div_ceil(NR) * NR;
    buf.clear();
    buf.resize(nc_pad * kcs, 0.0);
    let mut jr = 0;
    while jr < nc {
        let panel = &mut buf[jr * kcs..jr * kcs + NR * kcs];
        let nr_eff = NR.min(nc - jr);
        for p in 0..kcs {
            let dst = &mut panel[p * NR..(p + 1) * NR];
            for (j, d) in dst.iter_mut().enumerate().take(nr_eff) {
                *d = b.at(pc + p, jc + jr + j);
            }
        }
        jr += NR;
    }
}

/// The portable register-tile loop: accumulate `kcs` rank-1 updates of
/// the MR×NR tile from packed panels, then apply to C with sign `sub`.
/// `c_tile` addresses C(row0, col0) with leading dimension `ldc`; only
/// the `mr_eff × nr_eff` valid corner is written back.
#[allow(clippy::too_many_arguments)]
fn microkernel_body(
    kcs: usize,
    ap: &[f64],
    bp: &[f64],
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kcs) {
        let av: &[f64; MR] = av.try_into().unwrap();
        let bv: &[f64; NR] = bv.try_into().unwrap();
        for (accrow, &a) in acc.iter_mut().zip(av) {
            for (x, &b) in accrow.iter_mut().zip(bv) {
                *x += a * b;
            }
        }
    }
    for (i, accrow) in acc.iter().enumerate().take(mr_eff) {
        let crow = &mut c_tile[i * ldc..i * ldc + nr_eff];
        if sub {
            for (c, &x) in crow.iter_mut().zip(accrow) {
                *c -= x;
            }
        } else {
            for (c, &x) in crow.iter_mut().zip(accrow) {
                *c += x;
            }
        }
    }
}

/// Apply the valid `mr_eff × nr_eff` corner of a spilled tile to C —
/// the edge-tile write-back shared by the SIMD tiers (one `c ± acc` per
/// element, exactly what the full-tile vector path does).
///
/// # Safety
///
/// `c` must be valid for writes at `i·ldc + j` for every `i < mr_eff`,
/// `j < nr_eff`, with `mr_eff ≤ tile.len()` and `nr_eff ≤ W`.
#[cfg(target_arch = "x86_64")]
unsafe fn apply_corner<const W: usize>(
    tile: &[[f64; W]],
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    for (i, row) in tile.iter().enumerate().take(mr_eff) {
        for (j, &x) in row.iter().enumerate().take(nr_eff) {
            let cp = c.add(i * ldc + j);
            *cp = if sub { *cp - x } else { *cp + x };
        }
    }
}

/// AVX-512F tier: the whole 12×16 tile in 24 zmm accumulators.
///
/// # Safety
///
/// The host must support AVX-512F; `ap` must hold `kcs·MR` and `bp`
/// `kcs·NR` readable values, and `c` must be valid for writes over the
/// `mr_eff × nr_eff` corner at leading dimension `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx512(
    kcs: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); 2]; MR];
    for p in 0..kcs {
        let a = ap.add(p * MR);
        let b = bp.add(p * NR);
        let b0 = _mm512_loadu_pd(b);
        let b1 = _mm512_loadu_pd(b.add(8));
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = _mm512_set1_pd(*a.add(i));
            row[0] = _mm512_fmadd_pd(ai, b0, row[0]);
            row[1] = _mm512_fmadd_pd(ai, b1, row[1]);
        }
    }
    if mr_eff == MR && nr_eff == NR {
        for (i, row) in acc.iter().enumerate() {
            for (h, &x) in row.iter().enumerate() {
                let cp = c.add(i * ldc + 8 * h);
                let cv = _mm512_loadu_pd(cp);
                let r = if sub {
                    _mm512_sub_pd(cv, x)
                } else {
                    _mm512_add_pd(cv, x)
                };
                _mm512_storeu_pd(cp, r);
            }
        }
    } else {
        let mut tile = [[0.0f64; NR]; MR];
        for (t, row) in tile.iter_mut().zip(&acc) {
            _mm512_storeu_pd(t.as_mut_ptr(), row[0]);
            _mm512_storeu_pd(t.as_mut_ptr().add(8), row[1]);
        }
        apply_corner(&tile, c, ldc, mr_eff, nr_eff, sub);
    }
}

/// AVX2+FMA tier: the 12×16 tile as four 6×8 sub-tiles, each swept over
/// the full depth in 12 ymm accumulators. Sub-tiles wholly outside the
/// valid corner are skipped.
///
/// # Safety
///
/// As [`microkernel_avx512`], with AVX2 and FMA in place of AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx2(
    kcs: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    for r0 in (0..mr_eff).step_by(6) {
        for c0 in (0..nr_eff).step_by(8) {
            subtile_avx2(
                kcs,
                ap.add(r0),
                bp.add(c0),
                c.add(r0 * ldc + c0),
                ldc,
                (mr_eff - r0).min(6),
                (nr_eff - c0).min(8),
                sub,
            );
        }
    }
}

/// One 6×8 sub-tile of [`microkernel_avx2`]: `ap`/`bp` point at the
/// sub-tile's first row/column inside the MR-/NR-strided packed panels.
///
/// # Safety
///
/// As [`microkernel_avx2`], for the `mr_eff × nr_eff` (≤ 6×8) corner.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn subtile_avx2(
    kcs: usize,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; 6];
    for p in 0..kcs {
        let a = ap.add(p * MR);
        let b = bp.add(p * NR);
        let b0 = _mm256_loadu_pd(b);
        let b1 = _mm256_loadu_pd(b.add(4));
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = _mm256_broadcast_sd(&*a.add(i));
            row[0] = _mm256_fmadd_pd(ai, b0, row[0]);
            row[1] = _mm256_fmadd_pd(ai, b1, row[1]);
        }
    }
    if mr_eff == 6 && nr_eff == 8 {
        for (i, row) in acc.iter().enumerate() {
            for (h, &x) in row.iter().enumerate() {
                let cp = c.add(i * ldc + 4 * h);
                let cv = _mm256_loadu_pd(cp);
                let r = if sub {
                    _mm256_sub_pd(cv, x)
                } else {
                    _mm256_add_pd(cv, x)
                };
                _mm256_storeu_pd(cp, r);
            }
        }
    } else {
        let mut tile = [[0.0f64; 8]; 6];
        for (t, row) in tile.iter_mut().zip(&acc) {
            _mm256_storeu_pd(t.as_mut_ptr(), row[0]);
            _mm256_storeu_pd(t.as_mut_ptr().add(4), row[1]);
        }
        apply_corner(&tile, c, ldc, mr_eff, nr_eff, sub);
    }
}

/// One MR×NR tile through the chosen tier: `C ±= Ap·Bp` over `kcs` k
/// steps, writing only the `mr_eff × nr_eff` corner of `c_tile`.
///
/// # Safety
///
/// The host must support `tier` (see [`Tier::detect`]).
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn microkernel(
    tier: Tier,
    kcs: usize,
    ap: &[f64],
    bp: &[f64],
    c_tile: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    sub: bool,
) {
    // The SIMD tiers index through raw pointers; these bounds are what
    // keeps them inside the slices.
    assert!(ap.len() >= kcs * MR && bp.len() >= kcs * NR);
    assert!((1..=MR).contains(&mr_eff) && (1..=NR).contains(&nr_eff));
    assert!(c_tile.len() >= (mr_eff - 1) * ldc + nr_eff);
    let (a, b, c) = (ap.as_ptr(), bp.as_ptr(), c_tile.as_mut_ptr());
    match tier {
        // SAFETY: the caller guarantees the tier's features; the
        // asserts above bound every pointer the kernel forms.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512f => microkernel_avx512(kcs, a, b, c, ldc, mr_eff, nr_eff, sub),
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2Fma => microkernel_avx2(kcs, a, b, c, ldc, mr_eff, nr_eff, sub),
        _ => microkernel_body(kcs, ap, bp, c_tile, ldc, mr_eff, nr_eff, sub),
    }
}

/// Drive the macro-tile loops over one pre-packed A. `c` holds `m` rows
/// of leading dimension `ldc` with the logical C starting at column
/// `c_col`; `C ±= A·B` with `sub` choosing the sign. Parallelism is over
/// MC-row panels of C only (see module docs: bit-identical to
/// sequential).
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    apacked: &[f64],
    b: View<'_>,
    c: &mut [f64],
    ldc: usize,
    c_col: usize,
    m: usize,
    n: usize,
    kdim: usize,
    sub: bool,
    parallel: bool,
    trace: Option<&WallTrack<'_>>,
) {
    // The wall-clock hook is host-thread-only: tracing forces the
    // sequential sweep (the parallel path would need a Sync recorder).
    debug_assert!(trace.is_none() || !parallel);
    if m == 0 || n == 0 {
        return;
    }
    if kdim == 0 {
        // C ± A·B with an empty inner dimension is a no-op.
        return;
    }
    let m_pad = m.div_ceil(MR) * MR;
    assert_eq!(apacked.len(), m_pad * kdim);
    assert!(ldc >= c_col + n && c.len() >= (m - 1) * ldc + c_col + n);
    // A backing slice may run past the m rows (the blocked TRSM passes
    // the whole trailing matrix); sweep only the rows A was packed for.
    let swept = c.len().min(m * ldc);
    let c = &mut c[..swept];
    let tier = Tier::detect();

    PACK_B.with(|pb| {
        let mut bp_buf = pb.borrow_mut();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < kdim {
                let kcs = KC.min(kdim - pc);
                let t_pack = trace.map(WallTrack::now_ns);
                pack_b(b, pc, kcs, jc, nc, &mut bp_buf);
                if let (Some(t), Some(t0)) = (trace, t_pack) {
                    t.span_from("pack", "pack_b", t0);
                }
                let bp: &[f64] = &bp_buf;
                let a_strip = &apacked[m_pad * pc..m_pad * pc + m_pad * kcs];

                // One task per MC-row panel of C; row chunks are disjoint.
                let panel_rows = MC * ldc;
                let update_panel = |(ci, cchunk): (usize, &mut [f64])| {
                    let ic = ci * MC;
                    let mc_eff = MC.min(m - ic);
                    let mut jr = 0;
                    while jr < nc {
                        let nr_eff = NR.min(nc - jr);
                        let bpanel = &bp[jr * kcs..jr * kcs + NR * kcs];
                        let mut ir = 0;
                        while ir < mc_eff {
                            let mr_eff = MR.min(mc_eff - ir);
                            let apanel = &a_strip[(ic + ir) * kcs..(ic + ir) * kcs + MR * kcs];
                            let tile0 = ir * ldc + c_col + jc + jr;
                            // SAFETY: `tier` came from `Tier::detect`.
                            unsafe {
                                microkernel(
                                    tier,
                                    kcs,
                                    apanel,
                                    bpanel,
                                    &mut cchunk[tile0..],
                                    ldc,
                                    mr_eff,
                                    nr_eff,
                                    sub,
                                );
                            }
                            ir += MR;
                        }
                        jr += NR;
                    }
                };
                // `c` covers exactly the m rows here; chunk it MC rows at a time.
                let t_kern = trace.map(WallTrack::now_ns);
                // Rayon fan-out only pays for itself with real threads
                // and more than one MC-row panel; otherwise fall through
                // to the identical sequential sweep (this is what makes
                // `lu_factor_par` never slower than `lu_factor` on a
                // single-core host — same code path, zero overhead).
                if parallel && m > MC && rayon::current_num_threads() > 1 {
                    c.par_chunks_mut(panel_rows)
                        .enumerate()
                        .for_each(update_panel);
                } else {
                    c.chunks_mut(panel_rows).enumerate().for_each(update_panel);
                }
                if let (Some(t), Some(t0)) = (trace, t_kern) {
                    t.span_from("kernel", "microkernel", t0);
                }
                pc += kcs;
            }
            jc += nc;
        }
    });
}

/// `C = A·B` through the packed engine. Sequential.
pub fn gemm(a: &Mat, b: &Mat) -> Mat {
    gemm_impl(a, b, false, None)
}

/// `C = A·B` through the packed engine, Rayon-parallel over row panels.
/// Bit-identical to [`gemm`].
pub fn gemm_par(a: &Mat, b: &Mat) -> Mat {
    gemm_impl(a, b, true, None)
}

/// [`gemm`] under a [`Recorder`]: pack and microkernel phases land as
/// wall-clock spans on a `host / gemm` track. Sequential (the hook is
/// not `Sync`), and bit-identical to [`gemm`] — the recorder only reads
/// the clock around phases that run either way.
pub fn gemm_recorded(a: &Mat, b: &Mat, rec: &dyn Recorder) -> Mat {
    let wt = WallTrack::new(rec, names::HOST, "gemm");
    gemm_impl(a, b, false, Some(&wt))
}

fn gemm_impl(a: &Mat, b: &Mat, parallel: bool, trace: Option<&WallTrack<'_>>) -> Mat {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    if m == 0 || n == 0 || kdim == 0 {
        return c;
    }
    PACK_A.with(|pa| {
        let mut ap = pa.borrow_mut();
        let t_pack = trace.map(WallTrack::now_ns);
        pack_a(
            View {
                data: a.as_slice(),
                ld: kdim,
                col: 0,
            },
            m,
            kdim,
            &mut ap,
        );
        if let (Some(t), Some(t0)) = (trace, t_pack) {
            t.span_from("pack", "pack_a", t0);
        }
        let ldc = n;
        gemm_packed(
            &ap,
            View {
                data: b.as_slice(),
                ld: n,
                col: 0,
            },
            c.as_mut_slice(),
            ldc,
            0,
            m,
            n,
            kdim,
            false,
            parallel,
            trace,
        );
    });
    c
}

/// The LU trailing-matrix update `C -= A·B` where A and C live in the
/// same backing rows (`ac`): A is the `m × kdim` multiplier block at
/// column `a_col`, C the `m × n` trailing block at column `c_col`, both
/// with leading dimension `ld`. B is `kdim` rows of leading dimension
/// `ldb` with its logical block at column `b_col`.
///
/// A is packed (into a reused thread-local buffer) before C is touched,
/// so the in-place aliasing of the LU layout is safe.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_update(
    ac: &mut [f64],
    ld: usize,
    a_col: usize,
    c_col: usize,
    m: usize,
    n: usize,
    kdim: usize,
    b: &[f64],
    ldb: usize,
    b_col: usize,
    parallel: bool,
) {
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    PACK_A.with(|pa| {
        let mut ap = pa.borrow_mut();
        pack_a(
            View {
                data: ac,
                ld,
                col: a_col,
            },
            m,
            kdim,
            &mut ap,
        );
        gemm_packed(
            &ap,
            View {
                data: b,
                ld: ldb,
                col: b_col,
            },
            ac,
            ld,
            c_col,
            m,
            n,
            kdim,
            true,
            parallel,
            None,
        );
    });
}

/// FLOP count of an (m×k)·(k×n) multiply (same convention as
/// [`crate::matmul::matmul_flops`]).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;
    use des::rng::Rng;

    fn assert_close(a: &Mat, b: &Mat, tol: f64, what: &str) {
        assert!(a.dist(b) < tol, "{what}: dist {}", a.dist(b));
    }

    #[test]
    fn matches_naive_on_square() {
        let mut rng = Rng::new(5);
        for n in [1, 2, 7, 16, 33, 65, 130] {
            let a = Mat::random(n, n, &mut rng);
            let b = Mat::random(n, n, &mut rng);
            let want = matmul_naive(&a, &b);
            assert_close(&gemm(&a, &b), &want, 1e-10, &format!("gemm n={n}"));
            assert_close(&gemm_par(&a, &b), &want, 1e-10, &format!("gemm_par n={n}"));
        }
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        let mut rng = Rng::new(6);
        // Shapes straddling MR/NR/KC boundaries, vectors, and empties.
        for (m, k, n) in [
            (1, 1, 1),
            (MR - 1, 3, NR - 1),
            (MR + 1, KC + 1, NR + 1),
            (2 * MR, 5, 3 * NR),
            (1, 300, 1),
            (1, 8, 257),
            (257, 8, 1),
            (13, 1, 17),
            (MC + 3, 2, NR),
            (3, KC, 2 * NR + 5),
        ] {
            let a = Mat::random(m, k, &mut rng);
            let b = Mat::random(k, n, &mut rng);
            let want = matmul_naive(&a, &b);
            assert_close(&gemm(&a, &b), &want, 1e-9, &format!("m={m} k={k} n={n}"));
            assert_close(
                &gemm_par(&a, &b),
                &want,
                1e-9,
                &format!("par m={m} k={k} n={n}"),
            );
        }
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let a = Mat::zeros(0, 5);
        let b = Mat::zeros(5, 3);
        let c = gemm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 3));
        let a = Mat::zeros(4, 0);
        let b = Mat::zeros(0, 3);
        let c = gemm(&a, &b);
        assert_eq!((c.rows(), c.cols()), (4, 3));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let mut rng = Rng::new(9);
        let a = Mat::random(300, 180, &mut rng);
        let b = Mat::random(180, 220, &mut rng);
        assert_eq!(gemm(&a, &b), gemm_par(&a, &b));
    }

    #[test]
    fn dgemm_update_matches_reference() {
        // Build an LU-shaped layout: rows of `ac` hold [A | C] blocks.
        let mut rng = Rng::new(11);
        let (m, n, kdim) = (37, 29, 12);
        let ld = kdim + n;
        let a = Mat::random(m, kdim, &mut rng);
        let b = Mat::random(kdim, n, &mut rng);
        let c0 = Mat::random(m, n, &mut rng);

        let mut ac = vec![0.0; m * ld];
        for i in 0..m {
            ac[i * ld..i * ld + kdim].copy_from_slice(a.row(i));
            ac[i * ld + kdim..(i + 1) * ld].copy_from_slice(c0.row(i));
        }
        let mut ac_par = ac.clone();

        let ab = matmul_naive(&a, &b);
        dgemm_update(&mut ac, ld, 0, kdim, m, n, kdim, b.as_slice(), n, 0, false);
        dgemm_update(
            &mut ac_par,
            ld,
            0,
            kdim,
            m,
            n,
            kdim,
            b.as_slice(),
            n,
            0,
            true,
        );
        assert_eq!(ac, ac_par, "update must be deterministic across modes");
        for i in 0..m {
            for j in 0..n {
                let want = c0[(i, j)] - ab[(i, j)];
                let got = ac[i * ld + kdim + j];
                assert!((got - want).abs() < 1e-12, "({i},{j}): {got} vs {want}");
            }
        }
        // The A block must be untouched.
        for i in 0..m {
            assert_eq!(&ac[i * ld..i * ld + kdim], a.row(i));
        }
    }

    #[test]
    fn dgemm_update_sweeps_only_m_rows_of_an_oversize_backing_slice() {
        // The blocked TRSM hands the engine the whole trailing matrix:
        // rows past `m` (here past two MC boundaries) must be neither
        // read as A nor written.
        let mut rng = Rng::new(13);
        let (m, n, kdim) = (MR + 3, NR + 5, 7);
        let (rows, ld) = (m + 2 * MC, kdim + n);
        let ac0: Vec<f64> = (0..rows * ld).map(|_| rng.next_f64() - 0.5).collect();
        let b = Mat::random(kdim, n, &mut rng);
        for parallel in [false, true] {
            let mut ac = ac0.clone();
            dgemm_update(
                &mut ac,
                ld,
                0,
                kdim,
                m,
                n,
                kdim,
                b.as_slice(),
                n,
                0,
                parallel,
            );
            for i in 0..m {
                for j in 0..n {
                    let ab: f64 = (0..kdim).map(|p| ac0[i * ld + p] * b[(p, j)]).sum();
                    let want = ac0[i * ld + kdim + j] - ab;
                    let got = ac[i * ld + kdim + j];
                    assert!((got - want).abs() < 1e-12, "({i},{j}): {got} vs {want}");
                }
            }
            assert_eq!(&ac[m * ld..], &ac0[m * ld..], "rows past m untouched");
        }
    }

    #[test]
    fn microkernel_tiers_match_the_fma_chain_on_full_and_edge_tiles() {
        // Both SIMD tiers promise every element the chain `acc = 0`,
        // `acc = fma(a, b, acc)` in k order, then one `c ± acc`: check
        // each against that chain bit for bit (so they are bit-identical
        // to each other), and the portable body within roundoff. Cells
        // outside the valid corner must stay untouched.
        let available = |t: Tier| match t {
            Tier::Avx512f => crate::simd::avx512f_available(),
            Tier::Avx2Fma => crate::simd::avx2_fma_available(),
            Tier::Portable => true,
        };
        let mut rng = Rng::new(29);
        let ldc = NR + 5;
        for kcs in [1, 7, KC] {
            let ap: Vec<f64> = (0..kcs * MR).map(|_| rng.next_f64() - 0.5).collect();
            let bp: Vec<f64> = (0..kcs * NR).map(|_| rng.next_f64() - 0.5).collect();
            let c0: Vec<f64> = (0..MR * ldc).map(|_| rng.next_f64() - 0.5).collect();
            for (mr_eff, nr_eff) in [
                (MR, NR),
                (1, 1),
                (5, NR),
                (7, 9),
                (6, 8),
                (MR, 3),
                (MR - 1, NR - 1),
            ] {
                for sub in [false, true] {
                    let mut want = c0.clone();
                    for i in 0..mr_eff {
                        for j in 0..nr_eff {
                            let mut acc = 0.0f64;
                            for p in 0..kcs {
                                acc = ap[p * MR + i].mul_add(bp[p * NR + j], acc);
                            }
                            let c = &mut want[i * ldc + j];
                            *c = if sub { *c - acc } else { *c + acc };
                        }
                    }
                    for tier in [Tier::Avx512f, Tier::Avx2Fma, Tier::Portable] {
                        if !available(tier) {
                            continue;
                        }
                        let mut got = c0.clone();
                        // SAFETY: the host supports `tier` (checked above).
                        unsafe {
                            microkernel(tier, kcs, &ap, &bp, &mut got, ldc, mr_eff, nr_eff, sub);
                        }
                        let what = format!("{tier:?} kcs={kcs} {mr_eff}x{nr_eff} sub={sub}");
                        for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            let inside = idx / ldc < mr_eff && idx % ldc < nr_eff;
                            if tier == Tier::Portable && inside {
                                assert!((g - w).abs() < 1e-12, "{what} at {idx}: {g} vs {w}");
                            } else {
                                assert_eq!(g.to_bits(), w.to_bits(), "{what} at {idx}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flop_count_matches_matmul() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000.0);
    }

    #[test]
    fn recorded_gemm_is_bit_identical_and_emits_phase_spans() {
        use hpcc_trace::{Event, MemRecorder};
        let mut rng = Rng::new(23);
        let a = Mat::random(70, 40, &mut rng);
        let b = Mat::random(40, 50, &mut rng);
        let plain = gemm(&a, &b);
        let rec = MemRecorder::new();
        let traced = gemm_recorded(&a, &b, &rec);
        assert_eq!(plain, traced);
        let (mut packs, mut kernels) = (0usize, 0usize);
        rec.with(|_, events| {
            for e in events {
                if let Event::Span { cat, .. } = e {
                    match *cat {
                        "pack" => packs += 1,
                        "kernel" => kernels += 1,
                        _ => {}
                    }
                }
            }
        });
        assert!(packs >= 2, "pack_a + at least one pack_b, got {packs}");
        assert!(kernels >= 1, "microkernel sweep span");
        // A disabled recorder emits nothing and still matches.
        assert_eq!(gemm_recorded(&a, &b, &hpcc_trace::NullRecorder), plain);
    }
}
