//! The singular-value oracle of the rounding tests (test-only: the library
//! rounds with `qr_truncate` alone). A plain three-dot one-sided Jacobi in
//! fixed pair order — the routine the first rounding was built on — gives
//! each block's `σ`, against which the truncated pivoted QR's rank, factors
//! and error are checked.

use crate::blas::{dot, gemm, Trans};
use crate::matrix::Matrix;

/// The `min(m, n)` singular values of `a`, descending: the column norms
/// once every pair of columns of the tall orientation is orthogonal.
fn ref_svd_jacobi(a: &Matrix) -> Vec<f64> {
    let mut u = if a.rows() < a.cols() {
        a.transpose()
    } else {
        a.clone()
    };
    let (m, n) = (u.rows(), u.cols());
    for _ in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (app, aqq) = (dot(u.col(p), u.col(p)), dot(u.col(q), u.col(q)));
                let apq = dot(u.col(p), u.col(q));
                if apq.abs() <= 1e-15 * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(1e-300));
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let (up, uq) = (u.get(i, p), u.get(i, q));
                    u.set(i, p, c * up - s * uq);
                    u.set(i, q, s * up + c * uq);
                }
            }
        }
        if off < 1e-14 {
            break;
        }
    }
    let mut sigma: Vec<f64> = (0..n).map(|j| dot(u.col(j), u.col(j)).sqrt()).collect();
    sigma.sort_by(|p, q| q.total_cmp(p));
    sigma
}

fn product(x: &Matrix, y: &Matrix) -> Matrix {
    let mut xy = Matrix::zeros(x.rows(), y.rows());
    gemm(1.0, x, Trans::No, y, Trans::Yes, 0.0, &mut xy);
    xy
}

mod tests {
    use super::*;
    use crate::gen::{sqexp_covariance, Grid2d};
    use crate::pseudo;
    use crate::qr::{qr_thin, qr_truncate};

    /// Off-diagonal tile `(i, 0)` of the benchmark's `real_tlr` problem
    /// (n = 1024, ts = 32): full rank at 1e-8 next to the diagonal.
    fn covariance_tile(i: usize) -> Matrix {
        sqexp_covariance(&Grid2d::new(1024), 32 * i, 0, 32, 32, 0.1, 0.0)
    }

    /// The core `[U W]·Rvᵀ` that `LrTile::add_truncate` rounds on its
    /// tile test's stacks (amt-tlr `add_truncate_with_stacks_wider_than_the_tile`):
    /// graded 32 × 23 factors, `[U W]` and `[V Z]` of 32 × 46.
    fn stacks_core() -> Matrix {
        let graded = |di: usize, dj: usize| {
            Matrix::from_fn(32, 23, |i, j| {
                pseudo(i + di, j + dj) * 0.4f64.powi(j as i32)
            })
        };
        let (u, v, w, z) = (graded(0, 0), graded(40, 3), graded(7, 50), graded(90, 20));
        let su = Matrix::from_vec(32, 46, [u.data(), w.data()].concat());
        let (_, rv) = qr_thin(&Matrix::from_vec(32, 46, [v.data(), z.data()].concat()));
        let mut core = Matrix::zeros(32, 32);
        gemm(1.0, &su, Trans::No, &rv, Trans::Yes, 0.0, &mut core);
        core
    }

    /// The rounding contract against the oracle's `σ` (`s = min(m, n)`):
    /// `1 ≤ k ≤ max(1, min(s, maxrank))`; `k` at least the count of
    /// `σ > √(s−k)·tol` unless the cap stopped it; `Q_k` (the factor with
    /// the longer side's rows) orthonormal to 1e-12; the error at least the
    /// SVD's own tail past `k`, and — when the cap did not stop it — at
    /// most `√(s−k)·tol + 1e-12·‖A‖`.
    fn check_rounding(a: &Matrix, tol: f64, maxrank: usize) -> usize {
        let sigma = ref_svd_jacobi(a);
        let s = sigma.len();
        let norm = sigma.iter().map(|x| x * x).sum::<f64>().sqrt();
        let (x, y) = qr_truncate(a.clone(), tol, maxrank);
        let k = x.cols();
        assert_eq!((x.rows(), y.rows(), y.cols()), (a.rows(), a.cols(), k));
        assert!((1..=s.min(maxrank).max(1)).contains(&k), "rank {k}");
        let bound = ((s - k.min(s)) as f64).sqrt() * tol;
        let revealed = sigma.iter().filter(|&&x| x > bound + 1e-12 * norm).count();
        assert!(
            k >= revealed.min(maxrank).max(1),
            "rank {k}, {revealed} σ > {bound}"
        );

        let q = if a.rows() < a.cols() { &y } else { &x };
        let mut gram = Matrix::zeros(k, k);
        gemm(1.0, q, Trans::Yes, q, Trans::No, 0.0, &mut gram);
        let off = gram.max_diff(&Matrix::identity(k));
        assert!(off <= 1e-12, "QᵀQ off I by {off}");

        let mut diff = product(&x, &y);
        for (d, x) in diff.data_mut().iter_mut().zip(a.data()) {
            *d -= x;
        }
        let err = diff.norm_fro();
        assert!(!err.is_nan());
        let tail = sigma[k.min(s)..].iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            err >= tail - 1e-12 * norm,
            "error {err} below the SVD tail {tail}"
        );
        if k < maxrank || k == s {
            assert!(
                err <= bound + 1e-12 * norm,
                "error {err} above √(s−k)·tol = {bound}"
            );
        }
        k
    }

    #[test]
    fn reconstructs_random_matrix() {
        let a = Matrix::from_fn(8, 5, |i, j| ((3 * i + 2 * j) as f64).sin());
        let (q, y) = qr_truncate(a.clone(), 0.0, 5);
        assert!(product(&q, &y).max_diff(&a) < 1e-12);
        check_rounding(&a, 1e-13, 5);
    }

    #[test]
    fn rounds_full_rank_matrix_tall_and_wide() {
        for (m, n) in [(12, 12), (20, 9), (9, 20), (33, 32), (1, 7), (7, 1)] {
            let a = Matrix::from_fn(m, n, pseudo);
            assert_eq!(check_rounding(&a, 1e-12, usize::MAX), m.min(n));
            assert_eq!(check_rounding(&a, 1e-12, 3), m.min(n).min(3));
            // Total in `maxrank`: 0 still yields a well-formed rank-1 pair.
            assert_eq!(check_rounding(&a, 1e-12, 0), 1);
            // A threshold inside the spectrum cuts there.
            let k = check_rounding(&a, 0.8, usize::MAX);
            assert!(k == 1 || k < m.min(n), "tol 0.8 kept all {k}");
        }
    }

    #[test]
    fn identifies_exact_low_rank() {
        // Rank-2 matrix.
        let x = Matrix::from_fn(10, 2, |i, j| (i + j + 1) as f64);
        let y = Matrix::from_fn(6, 2, |i, j| ((i * j) as f64).cos());
        let a = product(&x, &y);
        assert_eq!(check_rounding(&a, 1e-10 * a.norm_fro(), 6), 2);
        assert_eq!(check_rounding(&a.transpose(), 1e-10 * a.norm_fro(), 6), 2);
    }

    #[test]
    fn known_singular_values_of_diagonal() {
        // A diagonal block is its own pivoted QR: the pivots take the
        // entries largest first, so the rows of R — the columns of
        // P·Rᵀ — are σ·eᵢ, and Q's columns are unit vectors.
        let mut a = Matrix::zeros(4, 3);
        a.set(0, 0, 3.0);
        a.set(1, 1, 5.0);
        a.set(2, 2, 1.0);
        let (q, y) = qr_truncate(a, 0.0, 3);
        for (j, (s, row)) in [(5.0, 1), (3.0, 0), (1.0, 2)].into_iter().enumerate() {
            assert!((y.get(row, j).abs() - s).abs() < 1e-12, "{y:?}");
            assert!((dot(y.col(j), y.col(j)).sqrt() - s).abs() < 1e-12);
            assert!((q.get(row, j).abs() - 1.0).abs() < 1e-12, "{q:?}");
        }
    }

    #[test]
    fn zero_matrix_rank_zero() {
        // Nothing is above any threshold; the forced rank-1 pair is a unit
        // vector and a zero column, their product zero, with no NaN.
        let a = Matrix::zeros(5, 3);
        assert!(ref_svd_jacobi(&a).iter().all(|&s| s == 0.0));
        for a in [a.clone(), a.transpose(), Matrix::zeros(4, 0)] {
            assert_eq!(check_rounding(&a, 1e-10, 8), 1);
            let (x, y) = qr_truncate(a.clone(), 1e-10, 8);
            assert_eq!(
                (x.rows(), x.cols(), y.rows(), y.cols()),
                (a.rows(), 1, a.cols(), 1)
            );
            assert!(x.data().iter().chain(y.data()).all(|v| v.is_finite()));
            assert!(product(&x, &y).data().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn rounds_covariance_tile_to_tolerance() {
        assert_eq!(check_rounding(&covariance_tile(1), 1e-8, 150), 32);
        let far = covariance_tile(16);
        let k = check_rounding(&far, 1e-8, 150);
        assert!((2..32).contains(&k), "rank {k}");
        assert!(check_rounding(&far, 1e-4, 150) < k);
        assert_eq!(check_rounding(&far, 1e-8, 5), 5);
    }

    /// Rank at 1e-8 of `real_tlr`'s covariance tiles 1, 2, 5 and 16 and of
    /// the 32 × 46 stacks' core: the SVD oracle's count of `σ > tol`, and
    /// the truncated pivoted QR's rank. They differ on the stacks only,
    /// where the QR keeps one column fewer: its trailing block's columns
    /// are all within 1e-8 while the SVD's 20th `σ` is above it, which the
    /// `√(s−k)·tol` error bound allows.
    const RANKS: [(&str, usize, usize); 5] = [
        ("tile 1", 32, 32),
        ("tile 2", 32, 32),
        ("tile 5", 32, 32),
        ("tile 16", 14, 14),
        ("stacks", 20, 19),
    ];

    #[test]
    fn ranks_match_the_svd_oracle() {
        // The rank-fidelity gate: a cheaper rounding that keeps more (or
        // fewer) columns than the SVD would shows here first.
        let blocks = [1, 2, 5, 16]
            .map(covariance_tile)
            .into_iter()
            .chain([stacks_core()]);
        for ((what, svd, qr), a) in RANKS.into_iter().zip(blocks) {
            let count = ref_svd_jacobi(&a).iter().filter(|&&s| s > 1e-8).count();
            let k = check_rounding(&a, 1e-8, 150);
            assert_eq!((count, k), (svd, qr), "{what}: (σ > tol, rank)");
        }
    }
}
