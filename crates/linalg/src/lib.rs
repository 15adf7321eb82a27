//! # amt-linalg
//!
//! Dense double-precision linear algebra for the HiCMA reproduction:
//! column-major matrices, the BLAS-3 kernels a tile Cholesky needs
//! (GEMM / SYRK / TRSM / POTRF), Householder QR, a truncated column-pivoted
//! QR as the rounding routine of low-rank compression ([`qr_truncate`]),
//! and the paper's `st-2d-sqexp` covariance problem generator (§6.4.1).
//!
//! Everything is implemented from scratch in safe Rust (no BLAS/LAPACK
//! binding, no intrinsics) and validated against the naive implementations
//! it replaced, kept in the test tree as oracles, and against algebraic
//! identities.
//!
//! Kernel speed matters on one of the two substrates. *Virtual* time comes
//! from the cost model, so no simulated result depends on it. On the *real*
//! substrate the kernels are the run: 0.95 of the thread time of the
//! benchmark's `real_tlr` workload, so they decide how small a task can be
//! before communication shows — the regime the paper's effect lives in.
//! Hence every routine walks contiguous column slices (bounds-check-free,
//! vectorized by the compiler), and the rounding does no more than the
//! rank needs: a pivoted QR that stops at the tolerance, with no SVD
//! iteration behind it (DESIGN.md §3.7).

mod blas;
mod gen;
mod matrix;
mod qr;
#[cfg(test)]
mod svd;

pub use blas::{gemm, potrf, syrk_lower, trsm_left_lower, trsm_right_lower_t, Trans};
pub use gen::{sqexp_covariance, Grid2d};
pub use matrix::Matrix;
pub use qr::{qr_thin, qr_truncate};

/// Relative Frobenius-norm residual of a Cholesky factorization:
/// ‖A − L·Lᵀ‖_F / ‖A‖_F.
pub fn cholesky_residual(a: &Matrix, l: &Matrix) -> f64 {
    let mut llt = Matrix::zeros(l.rows(), l.rows());
    gemm(1.0, l, Trans::No, l, Trans::Yes, 0.0, &mut llt);
    let mut diff = 0.0;
    let mut norm = 0.0;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            let d = a.get(i, j) - llt.get(i, j);
            diff += d * d;
            norm += a.get(i, j) * a.get(i, j);
        }
    }
    (diff / norm).sqrt()
}

/// Test matrices: hash-based entries in `[-0.5, 0.5)`, full rank
/// (trigonometric formulas in `i + c·j` collapse to rank 2).
#[cfg(test)]
pub(crate) fn pseudo(i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((j as u64).wrapping_mul(0xc2b2ae3d27d4eb4f));
    ((h >> 11) % 100_000) as f64 / 100_000.0 - 0.5
}
