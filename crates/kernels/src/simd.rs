//! Runtime SIMD dispatch shared by the kernel engine paths.
//!
//! Every vectorised kernel in this crate follows one discipline: a
//! portable scalar body that is the semantic reference, one or more
//! `#[target_feature]` variants, and a runtime `is_x86_feature_detected!`
//! dispatch. Each kernel also keeps its portable path reachable
//! (`*_portable` / `*_baseline` entry points, or a tier argument) so the
//! tests can drive every path on one host and assert their agreement —
//! bit-identical for element-wise kernels that never reassociate or
//! fuse, residual-bounded for FMA-fused inner products.
//!
//! The GEMM microkernel has two SIMD tiers on x86-64 (see `Tier`):
//! AVX-512F, where the whole 12×16 register tile lives in 24 zmm
//! accumulators, and AVX2+FMA, which sweeps the same tile as four 6×8
//! sub-tiles of 12 ymm accumulators. Both are written with explicit
//! `fmadd` intrinsics (Rust never contracts `x += a * b` into an FMA)
//! and give every element of C the same chain — `acc = 0`, then
//! `acc = fma(a, b, acc)` in k order, then one `c ± acc` — so the two
//! tiers are bit-identical to each other. The portable body rounds the
//! product and the sum separately and so agrees only within roundoff.

/// True when the AVX2+FMA fast paths may be taken on this host.
///
/// `is_x86_feature_detected!` caches its CPUID probe behind an atomic,
/// so calling this at per-call dispatch points is cheap.
#[inline]
pub fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the AVX-512F GEMM tier may be taken on this host.
#[inline]
pub(crate) fn avx512f_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The GEMM microkernel variants, fastest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    Avx512f,
    Avx2Fma,
    Portable,
}

impl Tier {
    /// The fastest tier this host supports.
    pub(crate) fn detect() -> Tier {
        if avx512f_available() {
            Tier::Avx512f
        } else if avx2_fma_available() {
            Tier::Avx2Fma
        } else {
            Tier::Portable
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Tier::Avx512f => "avx512f",
            Tier::Avx2Fma => "avx2+fma",
            Tier::Portable => "portable",
        }
    }
}

/// Which GEMM microkernel this host runs: `"avx512f"`, `"avx2+fma"` or
/// `"portable"`. Printed next to every measured GF/s so a figure says
/// which kernel produced it.
pub fn gemm_tier() -> &'static str {
    Tier::detect().name()
}
