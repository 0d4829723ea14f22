//! `linpack-host`: real-arithmetic LINPACK on a seeded random system,
//! factored on all cores and on one thread, then CG on the 2-D Poisson
//! matrix. The only workload where `kernels` does real arithmetic.

use crate::metrics::{fingerprint, median_by, Checks, Metrics};
use crate::tracer::{Tracer, BENCH};
use crate::{Size, Workload};
use des::rng::Rng;
use hpcc_kernels::cg::{self, Csr, SpmvPlan};
use hpcc_kernels::lu::{self, DEFAULT_NB};
use hpcc_kernels::mat::Mat;
use hpcc_kernels::{gemm, mat::vecops};
use hpcc_trace::{Event, MemRecorder};

pub struct Linpack;

pub struct Inputs {
    a: Mat,
    b: Vec<f64>,
    poisson: Csr,
    rhs: Vec<f64>,
    /// GEMM operands of the compute roof.
    ga: Mat,
    gb: Mat,
}

/// One pass of the single-thread calls.
pub struct Sample {
    factor_1t_s: f64,
    solve_1t_s: f64,
    /// Fingerprints of the pivots and the solution.
    piv_bits: u64,
    x_bits: u64,
    cg_1t_s: f64,
    cg_iters: usize,
    gemm_1t_s: f64,
    /// Bitwise fingerprint of the one-thread GEMM product.
    gemm_bits: u64,
    /// Panel, TRSM and trailing-update time read from the recorded
    /// factorisation's spans (traced passes only).
    phases_s: Option<[f64; 3]>,
}

/// The all-core calls, made once per run.
struct Parallel {
    factor_s: f64,
    solve_s: f64,
    cg_s: f64,
}

const CG_TOL: f64 = 1e-8;
const CG_MAX_ITERS: usize = 10_000;
/// HPL's acceptance threshold for the scaled residual.
const RESIDUAL_LIMIT: f64 = 16.0;

/// HPL's scaled residual `‖Ax−b‖∞ / (ε·(‖A‖∞·‖x‖∞ + ‖b‖∞)·n)`.
pub fn scaled_residual(a: &Mat, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    let n = a.rows() as f64;
    vecops::norm_inf(&r)
        / (f64::EPSILON * (a.inf_norm() * vecops::norm_inf(x) + vecops::norm_inf(b)) * n)
}

/// Sum of the recorded spans named `panel`, `trsm` and `update`, seconds.
fn phase_seconds(rec: &MemRecorder) -> [f64; 3] {
    let mut out = [0.0; 3];
    rec.with(|_, events| {
        for e in events {
            if let Event::Span {
                name,
                start_ns,
                end_ns,
                ..
            } = e
            {
                let slot = match name.as_str() {
                    "panel" => 0,
                    "trsm" => 1,
                    "update" => 2,
                    _ => continue,
                };
                out[slot] += (end_ns - start_ns) as f64 * 1e-9;
            }
        }
    });
    out
}

fn f64_bits(v: &[f64]) -> u64 {
    fingerprint(v.iter().map(|x| x.to_bits()))
}

fn piv_bits(piv: &[usize]) -> u64 {
    fingerprint(piv.iter().map(|&p| p as u64))
}

fn linpack_gflops(n: usize, secs: f64) -> f64 {
    lu::linpack_flops(n) / secs / 1e9
}

fn cg_solve(inp: &Inputs, tr: &Tracer, ck: &mut Checks, parallel: bool) -> (usize, f64) {
    let mut x = vec![0.0; inp.rhs.len()];
    let name = if parallel {
        "cg(parallel)"
    } else {
        "cg(sequential)"
    };
    let (res, secs) = tr.call("kernels", name, || {
        cg::cg(
            &inp.poisson,
            &inp.rhs,
            &mut x,
            CG_TOL,
            CG_MAX_ITERS,
            parallel,
        )
    });
    ck.check(
        format!(
            "{name} converged to {CG_TOL:e} (residual {:e})",
            res.residual
        ),
        res.converged,
    );
    (res.iterations, secs)
}

/// The all-core calls: LU factor + solve and CG, checked against the
/// single-thread pass `one`.
fn parallel(inp: &Inputs, one: &Sample, tr: &Tracer, ck: &mut Checks) -> Parallel {
    let mut f = tr.call(BENCH, "copy A", || inp.a.clone()).0;
    let (piv, factor_s) = tr.call("kernels", "lu_factor_par", || {
        lu::lu_factor_par(&mut f, DEFAULT_NB)
    });
    let piv = piv.unwrap_or_default();
    ck.check(
        "pivots on all cores identical to one thread",
        piv_bits(&piv) == one.piv_bits,
    );
    let (x, solve_s) = tr.call("kernels", "lu_solve", || lu::lu_solve(&f, &piv, &inp.b));
    ck.check(
        "solution on all cores identical to one thread",
        f64_bits(&x) == one.x_bits,
    );
    let (iters, cg_s) = cg_solve(inp, tr, ck, true);
    ck.check(
        format!(
            "CG iterations: parallel {iters} = sequential {}",
            one.cg_iters
        ),
        iters == one.cg_iters,
    );
    Parallel {
        factor_s,
        solve_s,
        cg_s,
    }
}

impl Workload for Linpack {
    const NAME: &'static str = "linpack-host";
    type Inputs = Inputs;
    type Sample = Sample;

    fn setup(seed: u64, size: Size, tr: &Tracer) -> Inputs {
        let (n, grid, gemm_n) = match size {
            Size::Full => (1024, 128, 1024),
            Size::Tiny => (256, 16, 96),
        };
        let mut rng = Rng::new(seed ^ 0x11A9_ACC0);
        let a = tr
            .call("kernels", "Mat::random", || Mat::random(n, n, &mut rng))
            .0;
        let ga = tr
            .call("kernels", "Mat::random", || {
                Mat::random(gemm_n, gemm_n, &mut rng)
            })
            .0;
        let gb = tr
            .call("kernels", "Mat::random", || {
                Mat::random(gemm_n, gemm_n, &mut rng)
            })
            .0;
        let (b, rhs) = tr
            .call(BENCH, "right-hand sides", || {
                let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                let rhs: Vec<f64> = (0..grid * grid).map(|_| rng.range_f64(0.0, 1.0)).collect();
                (b, rhs)
            })
            .0;
        let poisson = tr
            .call("kernels", "Csr::poisson2d", || Csr::poisson2d(grid))
            .0;
        Inputs {
            a,
            b,
            poisson,
            rhs,
            ga,
            gb,
        }
    }

    fn cycle(inp: &Inputs, tr: &Tracer, ck: &mut Checks) -> Sample {
        let n = inp.a.rows();
        // One thread: factor + solve, then the residual check. The traced
        // run factors through the kernel's own recorder, whose spans give
        // the panel/TRSM/update split.
        let mut g = tr.call(BENCH, "copy A", || inp.a.clone()).0;
        let (piv, factor_1t_s, phases_s) = if tr.is_on() {
            let rec = MemRecorder::new();
            let (p, s) = tr.call("kernels", "lu_factor_recorded", || {
                lu::lu_factor_recorded(&mut g, DEFAULT_NB, &rec)
            });
            (p, s, Some(phase_seconds(&rec)))
        } else {
            let (p, s) = tr.call("kernels", "lu_factor", || lu::lu_factor(&mut g, DEFAULT_NB));
            (p, s, None)
        };
        let piv = piv.unwrap_or_default();
        ck.check("lu_factor finds no zero pivot", piv.len() == n);
        let (x, solve_1t_s) = tr.call("kernels", "lu_solve", || lu::lu_solve(&g, &piv, &inp.b));
        let resid = tr
            .call("kernels", "residual", || {
                scaled_residual(&inp.a, &x, &inp.b)
            })
            .0;
        ck.check(
            format!("LINPACK scaled residual {resid:.3} < {RESIDUAL_LIMIT}"),
            resid < RESIDUAL_LIMIT,
        );
        drop(g);
        let (cg_iters, cg_1t_s) = cg_solve(inp, tr, ck, false);
        let (c, gemm_1t_s) = tr.call("kernels", "gemm", || gemm::gemm(&inp.ga, &inp.gb));
        let gemm_bits = f64_bits(c.as_slice());
        Sample {
            factor_1t_s,
            solve_1t_s,
            piv_bits: piv_bits(&piv),
            x_bits: f64_bits(&x),
            cg_1t_s,
            cg_iters,
            gemm_1t_s,
            gemm_bits,
            phases_s,
        }
    }

    fn finish(inp: &Inputs, samples: &[Sample], tr: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        let first = &samples[0];
        for s in &samples[1..] {
            ck.check(
                "repeated passes give the same pivots, solution and CG iterations",
                s.piv_bits == first.piv_bits
                    && s.x_bits == first.x_bits
                    && s.cg_iters == first.cg_iters
                    && s.gemm_bits == first.gemm_bits,
            );
        }
        let par = parallel(inp, first, tr, ck);
        let n = inp.a.rows();
        let gn = inp.ga.rows();
        m.put(
            "linpack_1t_gflops",
            "GF/s",
            linpack_gflops(n, crate::median_calls::<Self>(samples)[0]),
        );
        m.put("cg_solve_1t_s", "s", median_by(samples, |s| s.cg_1t_s));
        m.put(
            "gemm_1t_gflops",
            "GF/s",
            gemm::gemm_flops(gn, gn, gn) / median_by(samples, |s| s.gemm_1t_s) / 1e9,
        );
        // All cores, one sample per run: reported, not gated.
        m.put(
            "linpack_gflops",
            "GF/s",
            linpack_gflops(n, par.factor_s + par.solve_s),
        );
        m.put("cg_solve_s", "s", par.cg_s);
        m.put("cg_iterations", "count", first.cg_iters as f64);
    }

    fn calls(s: &Sample) -> [f64; 3] {
        [s.factor_1t_s + s.solve_1t_s, s.cg_1t_s, s.gemm_1t_s]
    }

    fn layers(inp: &Inputs, s: &Sample, tr: &Tracer, ck: &mut Checks, m: &mut Metrics) {
        let par = parallel(inp, s, tr, ck);
        let n = inp.a.rows();
        let lu_flops = 2.0 * (n as f64).powi(3) / 3.0;
        m.put("kernels.lu.factor_par_s", "s", par.factor_s);
        m.put("kernels.lu.factor_1t_s", "s", s.factor_1t_s);
        m.put("kernels.lu.solve_s", "s", par.solve_s);
        let [panel, trsm, update] = s.phases_s.expect("traced passes record the LU phases");
        m.put("kernels.lu.panel_s", "s", panel);
        m.put("kernels.lu.trsm_s", "s", trsm);
        m.put("kernels.lu.update_s", "s", update);
        let phases = panel + trsm + update;
        ck.check(
            format!(
                "LU phase spans cover {:.1}% of the one-thread factorisation (need 90%)",
                phases / s.factor_1t_s * 100.0
            ),
            phases >= 0.9 * s.factor_1t_s,
        );

        // The compute roof: GEMM on one thread and on all cores, same run.
        let gn = inp.ga.rows();
        let (cp, gp) = tr.call("kernels", "gemm_par", || gemm::gemm_par(&inp.ga, &inp.gb));
        ck.check(
            "gemm_par identical to gemm",
            f64_bits(cp.as_slice()) == s.gemm_bits,
        );
        let flops = gemm::gemm_flops(gn, gn, gn);
        let gemm_par_gflops = flops / gp / 1e9;
        m.put("kernels.gemm.gflops_1t", "GF/s", flops / s.gemm_1t_s / 1e9);
        m.put("kernels.gemm.gflops_par", "GF/s", gemm_par_gflops);
        m.put(
            "kernels.lu.frac_of_gemm",
            "ratio",
            lu_flops / par.factor_s / 1e9 / gemm_par_gflops,
        );
        m.put(
            "kernels.par.lu_speedup",
            "ratio",
            s.factor_1t_s / par.factor_s,
        );

        // CG: the per-call cost of a parallel SpMV region.
        let iters = s.cg_iters;
        m.put("kernels.cg.iterations", "count", iters as f64);
        let plan = tr
            .call("kernels", "SpmvPlan::new", || SpmvPlan::new(&inp.poisson))
            .0;
        let nn = plan.n();
        let mut y_par = vec![0.0; nn];
        let mut y_seq = vec![0.0; nn];
        let spmv_par_s = tr
            .call("kernels", "SpmvPlan::spmv_par x iterations", || {
                for _ in 0..iters {
                    plan.spmv_par(std::hint::black_box(&inp.rhs), &mut y_par);
                }
            })
            .1;
        let spmv_1t_s = tr
            .call("kernels", "SpmvPlan::spmv x iterations", || {
                for _ in 0..iters {
                    plan.spmv(std::hint::black_box(&inp.rhs), &mut y_seq);
                }
            })
            .1;
        ck.check("spmv_par identical to spmv", y_par == y_seq);
        m.put("kernels.cg.spmv_par_s", "s", spmv_par_s);
        m.put("kernels.cg.spmv_1t_s", "s", spmv_1t_s);
        m.put("kernels.cg.solve_1t_s", "s", s.cg_1t_s);
        m.put("kernels.cg.solve_par_s", "s", par.cg_s);
        m.put(
            "kernels.cg.bytes_per_iter_computed",
            "B",
            cg_bytes_per_iter(&plan),
        );
    }
}

/// Bytes one CG iteration moves, as computed (not measured): the packed
/// SpMV streams its values (8 B) and column indices (4 B), reads `x` and
/// writes `y` once; the vector updates touch 12 vectors' worth of `n`
/// doubles (two dots, two axpys and the direction update).
fn cg_bytes_per_iter(plan: &SpmvPlan) -> f64 {
    let n = plan.n() as f64;
    plan.packed_entries() as f64 * 12.0 + 16.0 * n + 96.0 * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_check_fires_on_a_wrong_solution() {
        let tr = Tracer::new(false);
        let inp = Linpack::setup(7, Size::Tiny, &tr);
        let mut f = inp.a.clone();
        let piv = lu::lu_factor(&mut f, DEFAULT_NB).expect("random matrix is regular");
        let mut x = lu::lu_solve(&f, &piv, &inp.b);
        assert!(scaled_residual(&inp.a, &x, &inp.b) < RESIDUAL_LIMIT);
        x[3] += 1e-6;
        assert!(scaled_residual(&inp.a, &x, &inp.b) >= RESIDUAL_LIMIT);
    }

    #[test]
    fn tiny_pass_checks_everything() {
        let tr = Tracer::new(true);
        let inp = Linpack::setup(5, Size::Tiny, &tr);
        let mut ck = Checks::new();
        let s = Linpack::cycle(&inp, &tr, &mut ck);
        let mut m = Metrics::new();
        Linpack::layers(&inp, &s, &tr, &mut ck, &mut m);
        Linpack::finish(
            &inp,
            std::slice::from_ref(&s),
            &tr,
            &mut ck,
            &mut Metrics::new(),
        );
        assert!(ck.all_passed(), "{:?}", ck.failed());
        assert!(ck.attempted() >= 8);
        assert!(m.get("kernels.cg.iterations").expect("set") > 0.0);
    }
}
