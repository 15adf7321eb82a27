//! One-sided Jacobi SVD — small, robust, dependency-free — shaped as the
//! rounding routine its callers need: truncate a block to the requested
//! accuracy and hand back the two low-rank factors.
//!
//! The sweeps run on the transposed triangular factor of a column-pivoted
//! QR, not on the block itself (Drmač & Veselić, "New fast and accurate
//! Jacobi SVD algorithm I", SIAM J. Matrix Anal. Appl. 29(4), 2008): the
//! pivoted `R` already orders the dominant directions, and its transpose's
//! columns are close to orthogonal, so a 32 × 32 covariance tile converges
//! in 6 sweeps where the raw tile takes 8–9 (and the fixed pair order 15).

use crate::blas::{dot, gemm, Trans};
use crate::matrix::Matrix;
use crate::qr::qr_pivoted_r;

/// Round `a` (`m × n`) to rank `k`: returns `(X, Y)`, `X: m × k`, `Y: n × k`,
/// with `A ≈ X·Yᵀ`. `k` counts the singular values above the *absolute*
/// threshold `tol` (what an accuracy-bounded TLR compression uses when the
/// global matrix scale is O(1), as for covariance matrices), capped at
/// `maxrank` and never below 1 so the factors stay well-formed. One factor
/// is `U_k·diag(s_k)`, the other `V_k` (orthonormal columns): `(U_k·s_k, V_k)`
/// for `m ≥ n`, and the same pair of `Aᵀ`, swapped, otherwise.
///
/// With `W` the tall orientation of `a` and `W·P = Q·R` its pivoted QR,
/// the Jacobi sweeps orthogonalize the columns of `X = Rᵀ`: `X·J = U_x·Σ`
/// makes `W = (Q·J)·Σ·(P·U_x)ᵀ`, so `V_k = P·X_k·diag(1/σ_k)` is read off
/// the converged columns, orthonormal to the sweeps' own accuracy whatever
/// `σ_k` is, and `U_k·Σ_k = W·V_k` is one small GEMM. Neither `Q` nor `J`
/// is ever formed.
///
/// For a tall `a`, the pivots, `R` and so the sweeps, `σ` and `V_k` depend
/// on `a` only through `aᵀa` (up to signs and rounding): rounding `Q·a`,
/// `Q` with orthonormal columns, does the same work as rounding `a` and
/// returns `(Q·(a·V_k), V_k)`. `LrTile::add_truncate` relies on this to skip the
/// QR of its left stack.
pub fn svd_truncate(a: &Matrix, tol: f64, maxrank: usize) -> (Matrix, Matrix) {
    let wide = a.rows() < a.cols();
    let (r, perm) = qr_pivoted_r(if wide { a.transpose() } else { a.clone() });
    let mut x = r.transpose();
    let s = jacobi(&mut x);
    let mut order: Vec<usize> = (0..s.len()).collect();
    order.sort_by(|&i, &j| s[j].total_cmp(&s[i]));
    let rank = order.iter().take_while(|&&j| s[j] > tol).count();
    let k = rank.min(maxrank).max(1);

    // Row `i` of X is row `perm[i]` of V.
    let mut v = Matrix::zeros(x.rows(), k);
    for (dst, &src) in order.iter().take(k).enumerate() {
        // Only a forced rank 1 can keep σ = 0; its column of V is zero then.
        let inv = if s[src] > 0.0 { 1.0 / s[src] } else { 0.0 };
        let col = v.col_mut(dst);
        for (&i, &xi) in perm.iter().zip(x.col(src)) {
            col[i] = xi * inv;
        }
    }
    let mut us = Matrix::zeros(a.rows().max(a.cols()), k);
    let ta = if wide { Trans::Yes } else { Trans::No };
    gemm(1.0, a, ta, &v, Trans::No, 0.0, &mut us);
    if wide {
        (v, us)
    } else {
        (us, v)
    }
}

/// Hestenes one-sided Jacobi: rotate pairs of columns of `u` until all are
/// mutually orthogonal, and return their norms — the singular values, in
/// column order.
///
/// Squared column norms are cached: recomputed at the start of each sweep
/// and updated by the rotation formulas in between, so a pair costs one
/// dot product, not three. Before each row of pairs `(p, p+1..n)` the
/// largest remaining column is brought to position `p` (de Rijk), which
/// settles the dominant directions first. The cache only steers (pivot
/// choice, skip test, angle); a sweep that ends the iteration made
/// rotations below 1e-14, so its cache was exact to that order.
fn jacobi(u: &mut Matrix) -> Vec<f64> {
    let (m, n) = (u.rows(), u.cols());
    let mut norm2 = vec![0.0; n];
    for _ in 0..60 {
        sweep_probe();
        for (j, x) in norm2.iter_mut().enumerate() {
            *x = dot(u.col(j), u.col(j));
        }
        let mut off = 0.0f64;
        for p in 0..n.saturating_sub(1) {
            let big = (p + 1..n).fold(p, |b, j| if norm2[j] > norm2[b] { j } else { b });
            let (head, rest) = u.data_mut()[p * m..].split_at_mut(m);
            if big != p {
                head.swap_with_slice(&mut rest[(big - p - 1) * m..(big - p) * m]);
                norm2.swap(p, big);
            }
            for (q, uq) in (p + 1..n).zip(rest.chunks_exact_mut(m)) {
                let apq = dot(head, uq);
                let (app, aqq) = (norm2[p], norm2[q]);
                let scale = (app * aqq).sqrt();
                if apq.abs() <= 1e-15 * scale {
                    continue;
                }
                off = off.max(apq.abs() / scale.max(1e-300));
                rotation_probe();
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for (x, y) in head.iter_mut().zip(uq) {
                    (*x, *y) = (c * *x - s * *y, s * *x + c * *y);
                }
                // Exact in exact arithmetic; cancellation may undershoot zero.
                norm2[p] = (app - t * apq).max(0.0);
                norm2[q] = (aqq + t * apq).max(0.0);
            }
        }
        if off < 1e-14 {
            break;
        }
    }
    (0..n).map(|j| dot(u.col(j), u.col(j)).sqrt()).collect()
}

#[cfg(test)]
thread_local! {
    /// Jacobi sweeps run on this thread; a deterministic convergence proxy.
    pub(crate) static SWEEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
thread_local! {
    /// Jacobi rotations applied on this thread (pairs not skipped).
    pub(crate) static ROTATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn sweep_probe() {
    #[cfg(test)]
    SWEEPS.with(|c| c.set(c.get() + 1));
}

#[inline]
fn rotation_probe() {
    #[cfg(test)]
    ROTATIONS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{sqexp_covariance, Grid2d};
    use crate::pseudo;
    use crate::qr::qr_thin;

    /// The routine this module replaced — plain three-dot Jacobi in fixed
    /// pair order, accumulating `V` — kept as the oracle; also reports its
    /// sweep count.
    fn ref_svd_jacobi(a: &Matrix) -> (Matrix, Vec<f64>, Matrix, u64) {
        let m = a.rows();
        let n = a.cols();
        assert!(m >= n);
        let mut sweeps = 0;
        let mut u = a.clone();
        let mut v = Matrix::identity(n);

        let eps = 1e-15;
        let max_sweeps = 60;
        for _ in 0..max_sweeps {
            sweeps += 1;
            let mut off = 0.0f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries for columns p, q.
                    let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                    for i in 0..m {
                        let up = u.get(i, p);
                        let uq = u.get(i, q);
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    if apq.abs() <= eps * (app * aqq).sqrt() || apq == 0.0 {
                        continue;
                    }
                    off = off.max(apq.abs() / (app * aqq).sqrt().max(1e-300));
                    // Jacobi rotation zeroing the (p,q) Gram entry.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let up = u.get(i, p);
                        let uq = u.get(i, q);
                        u.set(i, p, c * up - s * uq);
                        u.set(i, q, s * up + c * uq);
                    }
                    for i in 0..n {
                        let vp = v.get(i, p);
                        let vq = v.get(i, q);
                        v.set(i, p, c * vp - s * vq);
                        v.set(i, q, s * vp + c * vq);
                    }
                }
            }
            if off < 1e-14 {
                break;
            }
        }

        // Column norms are the singular values; normalize U.
        let mut order: Vec<usize> = (0..n).collect();
        let mut sigma = vec![0.0; n];
        for (j, s) in sigma.iter_mut().enumerate() {
            *s = (0..m)
                .map(|i| u.get(i, j) * u.get(i, j))
                .sum::<f64>()
                .sqrt();
        }
        order.sort_by(|&a, &b| {
            sigma[b]
                .partial_cmp(&sigma[a])
                .expect("finite singular values")
        });

        let mut us = Matrix::zeros(m, n);
        let mut vs = Matrix::zeros(n, n);
        let mut s_sorted = vec![0.0; n];
        for (dst, &src) in order.iter().enumerate() {
            let s = sigma[src];
            s_sorted[dst] = s;
            for i in 0..m {
                us.set(i, dst, if s > 0.0 { u.get(i, src) / s } else { 0.0 });
            }
            for i in 0..n {
                vs.set(i, dst, v.get(i, src));
            }
        }
        (us, s_sorted, vs, sweeps)
    }

    fn product(x: &Matrix, y: &Matrix) -> Matrix {
        let mut xy = Matrix::zeros(x.rows(), y.rows());
        gemm(1.0, x, Trans::No, y, Trans::Yes, 0.0, &mut xy);
        xy
    }

    fn col_norms(x: &Matrix) -> Vec<f64> {
        (0..x.cols())
            .map(|j| dot(x.col(j), x.col(j)).sqrt())
            .collect()
    }

    /// Off-diagonal tile `(i, 0)` of the benchmark's `real_tlr` problem
    /// (n = 1024, ts = 32): full rank at 1e-8 next to the diagonal.
    fn covariance_tile(i: usize) -> Matrix {
        sqexp_covariance(&Grid2d::new(1024), 32 * i, 0, 32, 32, 0.1, 0.0)
    }

    /// Everything the rounding contract promises, against the oracle's
    /// singular values: rank, descending `s`, the structure of both factors,
    /// and an error no larger than the discarded tail.
    fn check_rounding(a: &Matrix, tol: f64, maxrank: usize) -> usize {
        let tall = if a.rows() < a.cols() {
            a.transpose()
        } else {
            a.clone()
        };
        let (_, s_ref, _, _) = ref_svd_jacobi(&tall);
        let scale = s_ref[0].max(1e-300);
        let (x, y) = svd_truncate(a, tol, maxrank);
        let k = x.cols();
        let want = s_ref.iter().take_while(|&&s| s > tol).count();
        assert_eq!(k, want.min(maxrank).min(s_ref.len()).max(1));
        assert_eq!((x.rows(), y.rows(), y.cols()), (a.rows(), a.cols(), k));

        // The scaled factor carries s (descending, equal to the oracle's);
        // its Gram matrix is diag(s²) and the other factor's is I.
        let (us, v) = if a.rows() < a.cols() {
            (&y, &x)
        } else {
            (&x, &y)
        };
        let s = col_norms(us);
        for (j, sj) in s.iter().enumerate() {
            assert!(
                (sj - s_ref[j]).abs() <= 1e-13 * scale,
                "s[{j}] = {sj} vs {}",
                s_ref[j]
            );
            assert!(j == 0 || s[j - 1] >= *sj);
        }
        let mut gram = Matrix::zeros(k, k);
        gemm(1.0, us, Trans::Yes, us, Trans::No, 0.0, &mut gram);
        let s2 = Matrix::from_fn(k, k, |i, j| if i == j { s[i] * s[i] } else { 0.0 });
        assert!(
            gram.max_diff(&s2) <= 1e-13 * scale * scale,
            "UsᵀUs is not diag(s²)"
        );
        if s[k - 1] > 0.0 {
            gemm(1.0, v, Trans::Yes, v, Trans::No, 0.0, &mut gram);
            let slack = 1e-14 * scale / s[k - 1];
            assert!(
                gram.max_diff(&Matrix::identity(k)) <= 1e-13 + slack,
                "VᵀV is not I"
            );
        }

        let mut diff = product(&x, &y);
        for (d, x) in diff.data_mut().iter_mut().zip(a.data()) {
            *d -= x;
        }
        let tail = s_ref[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!(
            diff.norm_fro() <= tail + 1e-13 * scale,
            "error {} above the discarded tail {tail}",
            diff.norm_fro()
        );
        k
    }

    #[test]
    fn reconstructs_random_matrix() {
        let a = Matrix::from_fn(8, 5, |i, j| ((3 * i + 2 * j) as f64).sin());
        let (us, v) = svd_truncate(&a, 0.0, 5);
        assert!(product(&us, &v).max_diff(&a) < 1e-12);
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
        let mut a = Matrix::zeros(4, 3);
        a.set(0, 0, 3.0);
        a.set(1, 1, 5.0);
        a.set(2, 2, 1.0);
        let (us, _) = svd_truncate(&a, 0.0, 3);
        let s = col_norms(&us);
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_rank_zero() {
        // No singular value is above any threshold; the forced rank-1 pair
        // is zero, not NaN from the division by σ.
        let a = Matrix::zeros(5, 3);
        assert!(jacobi(&mut a.clone()).iter().all(|&s| s == 0.0));
        for a in [a.clone(), a.transpose(), Matrix::zeros(4, 0)] {
            let (x, y) = svd_truncate(&a, 1e-10, 8);
            assert_eq!(
                (x.rows(), x.cols(), y.rows(), y.cols()),
                (a.rows(), 1, a.cols(), 1)
            );
            assert!(x.data().iter().chain(y.data()).all(|&v| v == 0.0));
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

    /// Sweeps and rotations `f` runs on this thread.
    fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64) {
        SWEEPS.with(|c| c.set(0));
        ROTATIONS.with(|c| c.set(0));
        f();
        (SWEEPS.with(|c| c.get()), ROTATIONS.with(|c| c.get()))
    }

    /// Rotations on the 32 × 46 stacks below before the pivoted-QR
    /// preconditioning (Jacobi on the core itself), and with it.
    const STACKS_ROTATIONS_RAW: u64 = 3113;
    const STACKS_ROTATIONS: u64 = 1432;
    const _: () = assert!(4 * STACKS_ROTATIONS <= 3 * STACKS_ROTATIONS_RAW);

    #[test]
    fn preconditioning_cuts_sweeps_and_rotations() {
        // Deterministic convergence proxies (no wall clock). The fixed pair
        // order of the oracle needs 15–16 sweeps on a raw covariance tile,
        // de Rijk pivoting alone 8–9.
        let (_, _, _, ref_sweeps) = ref_svd_jacobi(&covariance_tile(1));
        assert!(ref_sweeps >= 13, "oracle took only {ref_sweeps} sweeps");
        for i in [1, 2, 5] {
            let (sweeps, _) = counted(|| svd_truncate(&covariance_tile(i), 1e-8, 150));
            assert!(sweeps <= 6, "tile {i}: {sweeps} sweeps");
        }
        // The core SVD of `LrTile::add_truncate` on its tile test's stacks
        // (amt-tlr `add_truncate_with_stacks_wider_than_the_tile`): graded
        // 32 × 23 factors, [U W] and [V Z] of 32 × 46, core [U W]·Rvᵀ.
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
        let (_, rotations) = counted(|| svd_truncate(&core, 1e-8, 150));
        assert_eq!(rotations, STACKS_ROTATIONS);
    }
}
