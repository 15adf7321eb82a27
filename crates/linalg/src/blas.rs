//! BLAS-3 kernels used by the tile Cholesky: GEMM, SYRK, TRSM, POTRF.
//!
//! Every routine walks contiguous column slices of its column-major
//! operands, so the inner loops are bounds-check-free and vectorize: a
//! product with `op(A) = A` is a column sweep (`C[:,j] += Σ αb·A[:,l]`,
//! four columns of `A` per pass over `C[:,j]`), one with `op(A) = Aᵀ` is a
//! dot product of two columns.

use crate::matrix::Matrix;

/// Transpose selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    No,
    Yes,
}

/// `Σ xᵢ·yᵢ` over four independent accumulators, so one addition does not
/// wait for the previous one.
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let tail: f64 = xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .map(|(a, b)| a * b)
        .sum();
    let mut acc = [0.0f64; 4];
    for (a, b) in xc.zip(yc) {
        for k in 0..4 {
            acc[k] += a[k] * b[k];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `y ← y + α·x`.
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← y + Σ_{l<k} coef(l) · A[r0.., l]` over the first `k` columns of the
/// column-major `a` (`ld` rows per column), four columns per pass over `y`.
fn sweep(y: &mut [f64], a: &[f64], ld: usize, r0: usize, k: usize, coef: impl Fn(usize) -> f64) {
    let n = y.len();
    let col = |l: usize| &a[l * ld + r0..l * ld + r0 + n];
    let mut l = 0;
    while l + 4 <= k {
        let (a0, a1, a2, a3) = (col(l), col(l + 1), col(l + 2), col(l + 3));
        let (c0, c1, c2, c3) = (coef(l), coef(l + 1), coef(l + 2), coef(l + 3));
        for i in 0..n {
            y[i] += c0 * a0[i] + c1 * a1[i] + c2 * a2[i] + c3 * a3[i];
        }
        l += 4;
    }
    for l in l..k {
        axpy(coef(l), col(l), y);
    }
}

/// `C ← β·C`. With `β = 0` the old contents are overwritten, not scaled
/// (BLAS: `C` need not be set on entry, so a NaN in it must not survive).
fn scale(beta: f64, c: &mut Matrix) {
    if beta == 0.0 {
        c.data_mut().fill(0.0);
    } else if beta != 1.0 {
        for v in c.data_mut() {
            *v *= beta;
        }
    }
}

/// `C ← α · op(A) · op(B) + β · C`.
pub fn gemm(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, beta: f64, c: &mut Matrix) {
    let (am, ak) = match ta {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    };
    let (bk, bn) = match tb {
        Trans::No => (b.rows(), b.cols()),
        Trans::Yes => (b.cols(), b.rows()),
    };
    assert_eq!(ak, bk, "gemm inner dimensions");
    assert_eq!(c.rows(), am, "gemm C rows");
    assert_eq!(c.cols(), bn, "gemm C cols");

    if (ta, tb) == (Trans::Yes, Trans::Yes) {
        // Transpose B once so that both dot operands are columns.
        return gemm(alpha, a, ta, &b.transpose(), Trans::No, beta, c);
    }
    scale(beta, c);
    for j in 0..bn {
        let cj = c.col_mut(j);
        match ta {
            Trans::No => sweep(cj, a.data(), am, 0, ak, |l| {
                alpha
                    * match tb {
                        Trans::No => b.get(l, j),
                        Trans::Yes => b.get(j, l),
                    }
            }),
            Trans::Yes => {
                let bj = b.col(j);
                for (i, ci) in cj.iter_mut().enumerate() {
                    *ci += alpha * dot(a.col(i), bj);
                }
            }
        }
    }
}

/// `C ← α · A · Aᵀ + β · C`, updating the full (symmetric) `C`.
pub fn syrk_lower(alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), a.rows());
    let n = a.rows();
    scale(beta, c);
    for j in 0..n {
        sweep(&mut c.col_mut(j)[j..], a.data(), n, j, a.cols(), |l| {
            alpha * a.get(j, l)
        });
    }
    // Mirror to the upper triangle so downstream dense kernels can treat C
    // as a full matrix.
    for j in 0..n {
        for i in (j + 1)..n {
            let v = c.get(i, j);
            c.set(j, i, v);
        }
    }
}

/// Solve `L · X = B` in place (`B ← L⁻¹ B`), `L` lower-triangular: forward
/// substitution down each column of `B`, eliminating with column tails of `L`.
pub fn trsm_left_lower(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    assert_eq!(l.cols(), n);
    assert_eq!(b.rows(), n);
    for j in 0..b.cols() {
        let x = b.col_mut(j);
        for k in 0..n {
            x[k] /= l.get(k, k);
            axpy(-x[k], &l.col(k)[k + 1..], &mut x[k + 1..]);
        }
    }
}

/// Solve `X · Lᵀ = B` in place (`B ← B L⁻ᵀ`), `L` lower-triangular — the
/// Cholesky panel update. Column `j` of `X` is column `j` of `B` less the
/// finished columns before it, over `L[j,j]`.
pub fn trsm_right_lower_t(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    assert_eq!(l.cols(), n);
    assert_eq!(b.cols(), n);
    let m = b.rows();
    for j in 0..n {
        let (done, rest) = b.data_mut().split_at_mut(j * m);
        let xj = &mut rest[..m];
        sweep(xj, done, m, 0, j, |k| -l.get(j, k));
        let d = l.get(j, j);
        for v in xj {
            *v /= d;
        }
    }
}

/// Cholesky factorization `A = L·Lᵀ` (lower), in place on a copy
/// (left-looking: column `j` is `A[j.., j]` less the finished columns).
/// Returns `Err(pivot)` if the matrix is not positive definite.
pub fn potrf(a: &Matrix) -> Result<Matrix, usize> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let (done, rest) = l.data_mut().split_at_mut(j * n);
        let lj = &mut rest[j..n];
        lj.copy_from_slice(&a.col(j)[j..]);
        sweep(lj, done, n, j, j, |k| -done[k * n + j]);
        if lj[0] <= 0.0 {
            return Err(j);
        }
        let d = lj[0].sqrt();
        lj[0] = d;
        for v in &mut lj[1..] {
            *v /= d;
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel this module replaced — element-wise, closure-indexed for
    /// the transposed cases, scaling `C` by `β` even when `β = 0` — kept as
    /// the oracle.
    fn ref_gemm(
        alpha: f64,
        a: &Matrix,
        ta: Trans,
        b: &Matrix,
        tb: Trans,
        beta: f64,
        c: &mut Matrix,
    ) {
        let (am, ak) = match ta {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        };
        let (bk, bn) = match tb {
            Trans::No => (b.rows(), b.cols()),
            Trans::Yes => (b.cols(), b.rows()),
        };
        assert_eq!(ak, bk, "gemm inner dimensions");
        assert_eq!(c.rows(), am, "gemm C rows");
        assert_eq!(c.cols(), bn, "gemm C cols");

        if beta != 1.0 {
            for j in 0..bn {
                for v in c.col_mut(j) {
                    *v *= beta;
                }
            }
        }
        // jik with column access; specialize the common (No, No) case for a
        // cache-friendly saxpy inner loop.
        match (ta, tb) {
            (Trans::No, Trans::No) => {
                for j in 0..bn {
                    for l in 0..ak {
                        let blj = alpha * b.get(l, j);
                        if blj == 0.0 {
                            continue;
                        }
                        let acol = a.col(l);
                        let ccol = c.col_mut(j);
                        for i in 0..am {
                            ccol[i] += blj * acol[i];
                        }
                    }
                }
            }
            _ => {
                let at = |i: usize, l: usize| match ta {
                    Trans::No => a.get(i, l),
                    Trans::Yes => a.get(l, i),
                };
                let bt = |l: usize, j: usize| match tb {
                    Trans::No => b.get(l, j),
                    Trans::Yes => b.get(j, l),
                };
                for j in 0..bn {
                    for i in 0..am {
                        let mut s = 0.0;
                        for l in 0..ak {
                            s += at(i, l) * bt(l, j);
                        }
                        c.add_assign_at(i, j, alpha * s);
                    }
                }
            }
        }
    }

    /// Every remainder of the four-column sweep, the four-lane dot and the
    /// vector width, and the workload's tile size with its neighbours.
    const SHAPES: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 31, 32, 33];

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|l| a.get(i, l) * b.get(l, j)).sum()
        })
    }

    fn test_mat(r: usize, c: usize, seed: f64) -> Matrix {
        Matrix::from_fn(r, c, |i, j| ((i * 31 + j * 17) as f64 + seed).sin())
    }

    fn spd(n: usize) -> Matrix {
        let a = test_mat(n, n, 0.3);
        let mut c = Matrix::zeros(n, n);
        gemm(1.0, &a, Trans::No, &a, Trans::Yes, 0.0, &mut c);
        for i in 0..n {
            c.add_assign_at(i, i, n as f64);
        }
        c
    }

    #[test]
    fn gemm_matches_naive() {
        let a = test_mat(5, 7, 1.0);
        let b = test_mat(7, 4, 2.0);
        let mut c = Matrix::zeros(5, 4);
        gemm(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(c.max_diff(&naive_gemm(&a, &b)) < 1e-13);
    }

    #[test]
    fn gemm_transposes() {
        let a = test_mat(7, 5, 1.0);
        let b = test_mat(4, 7, 2.0);
        let mut c = Matrix::zeros(5, 4);
        gemm(1.0, &a, Trans::Yes, &b, Trans::Yes, 0.0, &mut c);
        let want = naive_gemm(&a.transpose(), &b.transpose());
        assert!(c.max_diff(&want) < 1e-13);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = test_mat(3, 3, 1.0);
        let b = test_mat(3, 3, 2.0);
        let mut c = Matrix::identity(3);
        gemm(2.0, &a, Trans::No, &b, Trans::No, 3.0, &mut c);
        let mut want = naive_gemm(&a, &b);
        want = Matrix::from_fn(3, 3, |i, j| {
            2.0 * want.get(i, j) + 3.0 * if i == j { 1.0 } else { 0.0 }
        });
        assert!(c.max_diff(&want) < 1e-13);
    }

    #[test]
    fn syrk_matches_gemm() {
        for (n, k) in SHAPES.iter().flat_map(|&n| [3, 4, 9].map(|k| (n, k))) {
            let a = test_mat(n, k, 0.5);
            let mut c1 = spd(n);
            let mut c2 = c1.clone();
            syrk_lower(-1.0, &a, 1.0, &mut c1);
            ref_gemm(-1.0, &a, Trans::No, &a, Trans::Yes, 1.0, &mut c2);
            assert!(c1.max_diff(&c2) < 1e-12, "{n} x {k}");
        }
    }

    #[test]
    fn trsm_left_solves() {
        for n in SHAPES {
            let l = potrf(&spd(n)).expect("spd");
            let x = test_mat(n, 4, 3.0);
            let mut b = Matrix::zeros(n, 4);
            ref_gemm(1.0, &l, Trans::No, &x, Trans::No, 0.0, &mut b);
            trsm_left_lower(&l, &mut b);
            assert!(b.max_diff(&x) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn trsm_right_solves() {
        for n in SHAPES {
            let l = potrf(&spd(n)).expect("spd");
            let x = test_mat(3, n, 3.0);
            let mut b = Matrix::zeros(3, n);
            ref_gemm(1.0, &x, Trans::No, &l, Trans::Yes, 0.0, &mut b);
            trsm_right_lower_t(&l, &mut b);
            assert!(b.max_diff(&x) < 1e-10, "n = {n}");
        }
    }

    #[test]
    fn potrf_factorizes_spd() {
        for n in SHAPES.into_iter().chain([12]) {
            let a = spd(n);
            let l = potrf(&a).expect("spd");
            assert!(crate::cholesky_residual(&a, &l) < 1e-14, "n = {n}");
            // Strictly lower result has zero upper triangle.
            for j in 1..n {
                for i in 0..j {
                    assert_eq!(l.get(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::identity(4);
        a.set(2, 2, -1.0);
        assert_eq!(potrf(&a), Err(2));
    }

    #[test]
    fn gemm_matches_reference_on_every_shape_and_transpose() {
        let dims = |t, r, c| if t == Trans::No { (r, c) } else { (c, r) };
        for (m, k) in SHAPES.iter().flat_map(|&m| SHAPES.map(|k| (m, k))) {
            for n in [1, 4, 33] {
                for (ta, tb) in [Trans::No, Trans::Yes]
                    .iter()
                    .flat_map(|&ta| [(ta, Trans::No), (ta, Trans::Yes)])
                {
                    let ((ar, ac), (br, bc)) = (dims(ta, m, k), dims(tb, k, n));
                    let (a, b) = (test_mat(ar, ac, 1.0), test_mat(br, bc, 2.0));
                    for alpha in [0.0, 1.0, -1.0, 2.5] {
                        for beta in [0.0, 1.0, -1.0, 2.5] {
                            let mut got = test_mat(m, n, 3.0);
                            let mut want = got.clone();
                            gemm(alpha, &a, ta, &b, tb, beta, &mut got);
                            ref_gemm(alpha, &a, ta, &b, tb, beta, &mut want);
                            assert!(
                                got.max_diff(&want) < 1e-12,
                                "{m}x{k}x{n} {ta:?} {tb:?} alpha {alpha} beta {beta}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // BLAS semantics: with β = 0, C need not be set on entry.
        let (a, b) = (test_mat(5, 5, 1.0), test_mat(5, 5, 2.0));
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let mut c = Matrix::from_fn(5, 5, |_, _| f64::NAN);
            gemm(1.0, &a, ta, &b, tb, 0.0, &mut c);
            let mut want = Matrix::zeros(5, 5);
            ref_gemm(1.0, &a, ta, &b, tb, 0.0, &mut want);
            assert!(c.max_diff(&want) < 1e-13, "{ta:?} {tb:?}");
        }
        let mut c = Matrix::from_fn(5, 5, |_, _| f64::INFINITY);
        syrk_lower(2.0, &a, 0.0, &mut c);
        let mut want = Matrix::zeros(5, 5);
        ref_gemm(2.0, &a, Trans::No, &a, Trans::Yes, 0.0, &mut want);
        assert!(c.max_diff(&want) < 1e-13);
    }
}
