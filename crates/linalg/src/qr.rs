//! Householder QR: the thin factorization used for low-rank recompression,
//! and the truncated column-pivoted one that rounds a block to a tolerance.

use crate::blas::{axpy, dot};
use crate::matrix::Matrix;

/// Thin QR factorization `A = Q·R` with `Q` of shape `m × min(m,n)` having
/// orthonormal columns and `R` upper-triangular `min(m,n) × n`.
///
/// Reflector `j` is kept in rows `j..m` of column `j` of `Q`'s own buffer
/// (that column is not needed until the reflector has been applied to
/// every later one), scaled so that `H = I − v·vᵀ`, and applied to column
/// tails with one `dot` and one `axpy`.
pub fn qr_thin(a: &Matrix) -> (Matrix, Matrix) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let mut r = a.data().to_vec();
    let mut q = vec![0.0; m * k];
    for j in 0..k {
        let tail = j * m + j..(j + 1) * m;
        let alpha = reflect(&mut r, m, j);
        q[tail.clone()].copy_from_slice(&r[tail]);
        r[j * m + j] = alpha;
    }
    accumulate_q(&mut q, m, k);
    (Matrix::from_vec(m, k, q), upper_triangle(&r, m, n))
}

/// Round `a` (`m × n`) to the rank a truncated column-pivoted QR reveals:
/// returns `(X, Y)`, `X: m × k`, `Y: n × k`, with `A ≈ X·Yᵀ`.
///
/// With `W` the tall orientation of `a` (`aᵀ` when `m < n`) and `W·P = Q·R`
/// its Businger–Golub QR, the steps stop before step `j` once every
/// remaining column tail `‖W[j.., c]‖` is at most the *absolute* threshold
/// `tol` (what an accuracy-bounded TLR compression uses when the global
/// matrix scale is O(1), as for covariance matrices), or at `maxrank`; `k`
/// is never below 1, so the factors stay well-formed. The pair is
/// `(Q_k, P·R_kᵀ)` for `m ≥ n` and `(P·R_kᵀ, Q_k)` otherwise; `Q_k` has
/// orthonormal columns. The error is exactly the trailing block `R₂₂`, so
/// when the tolerance stops the steps, `‖A − X·Yᵀ‖_F ≤ √(min(m,n) − k)·tol`.
///
/// The steps see `W` only through `WᵀW` (the tail norms they pivot on and
/// `R`, its Cholesky factor, up to the sign of each row): rounding `Q·W`,
/// `Q` with orthonormal columns, takes the same pivots and rank and
/// returns `(Q·Q_k, P·R_kᵀ)`. `LrTile::add_truncate` relies on this to
/// skip the QR of its left stack.
pub fn qr_truncate(a: Matrix, tol: f64, maxrank: usize) -> (Matrix, Matrix) {
    let wide = a.rows() < a.cols();
    let w = if wide { a.transpose() } else { a };
    let (m, n) = (w.rows(), w.cols());
    let mut r = w.into_data();
    let (perm, diag) = pivoted_steps(&mut r, m, n, tol, maxrank.max(1));
    let k = diag.len().max(1);

    // Y = P·R_kᵀ: row `perm[c]` of Y is column `c` of R_k, whose entries
    // above the diagonal are still in the panel.
    let mut y = Matrix::zeros(n, k);
    for (c, (col, &row)) in r.chunks_exact(m.max(1)).zip(&perm).enumerate() {
        for (i, &x) in col[..c.min(diag.len())].iter().enumerate() {
            y.set(row, i, x);
        }
        if let Some(&d) = diag.get(c) {
            y.set(row, c, d);
        }
    }
    let mut q = vec![0.0; m * k];
    for j in 0..diag.len() {
        let tail = j * m + j..(j + 1) * m;
        q[tail.clone()].copy_from_slice(&r[tail]);
    }
    accumulate_q(&mut q, m, k);
    let q = Matrix::from_vec(m, k, q);
    if wide {
        (y, q)
    } else {
        (q, y)
    }
}

/// Householder steps with column pivoting on the column-major `m × n`
/// panel `r`, at most `kmax`, stopping before step `j > 0` once no column
/// tail `r[j.., c]` is longer than `tol`: before each step the column with
/// the longest tail is swapped into place (tail norms recomputed each step,
/// exactly). Returns the column order (column `j` of the pivoted panel is
/// column `perm[j]` of the input) and `R`'s diagonal, one entry per step
/// taken. Column `j < steps` holds `R[..j, j]` above reflector `j`, and
/// rows `..steps` of every later column are final rows of `R`.
fn pivoted_steps(
    r: &mut [f64],
    m: usize,
    n: usize,
    tol: f64,
    kmax: usize,
) -> (Vec<usize>, Vec<f64>) {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut diag = Vec::with_capacity(m.min(n).min(kmax));
    for j in 0..m.min(n).min(kmax) {
        let tail2 = |c: usize| {
            let t = &r[c * m + j..(c + 1) * m];
            dot(t, t)
        };
        let (mut big, mut best) = (j, tail2(j));
        for c in j + 1..n {
            let x = tail2(c);
            if x > best {
                (big, best) = (c, x);
            }
        }
        if j > 0 && best.sqrt() <= tol {
            break;
        }
        if big != j {
            let (head, rest) = r.split_at_mut(big * m);
            head[j * m..(j + 1) * m].swap_with_slice(&mut rest[..m]);
            perm.swap(j, big);
        }
        diag.push(reflect(r, m, j));
    }
    (perm, diag)
}

/// One Householder step on the column-major `m`-row panel `r`: overwrites
/// the tail `x = r[j.., j]` with the reflector `v` of `H = I − v·vᵀ` that
/// maps it onto `α·e₀`, applies `H` to the tails of every later column and
/// returns `α`, `R`'s diagonal entry. A zero tail is its own (zero)
/// reflector, with `α = 0`.
fn reflect(r: &mut [f64], m: usize, j: usize) -> f64 {
    let (head, rest) = r.split_at_mut((j + 1) * m);
    let v = &mut head[j * m + j..];
    let norm = dot(v, v).sqrt();
    if norm == 0.0 {
        return 0.0;
    }
    // v = x − α·e₀ with α = −sign(x₀)·‖x‖, so vᵀv = 2·‖x‖·(‖x‖ + |x₀|).
    let alpha = if v[0] >= 0.0 { -norm } else { norm };
    let scale = 1.0 / (norm * (norm + v[0].abs())).sqrt();
    v[0] -= alpha;
    for vi in v.iter_mut() {
        *vi *= scale;
    }
    for col in rest.chunks_exact_mut(m) {
        let tail = &mut col[j..];
        axpy(-dot(v, tail), v, tail);
    }
    alpha
}

/// `Q = H₀·…·H_{k−1}·[I; 0]` in place, for the column-major `m × k` buffer
/// `q` whose column `j` holds reflector `j` in rows `j..m` and zeros above
/// (all zeros: no reflector). Last reflector first: when `H_j` is applied,
/// columns before `j` are still unit vectors it cannot touch, and column
/// `j` itself is `e_j`, so `H_j·e_j = e_j − v₀·v` overwrites `v`.
fn accumulate_q(q: &mut [f64], m: usize, k: usize) {
    for j in (0..k.min(m)).rev() {
        let (head, rest) = q.split_at_mut((j + 1) * m);
        let v = &mut head[j * m + j..];
        let v0 = v[0];
        if v0 != 0.0 {
            for col in rest.chunks_exact_mut(m) {
                let tail = &mut col[j..];
                axpy(-dot(v, tail), v, tail);
            }
            for vi in v.iter_mut() {
                *vi *= -v0;
            }
        }
        v[0] += 1.0;
    }
}

/// `R`: the upper triangle of the first `min(m, n)` rows of the reduced
/// `m × n` panel (below the diagonal it holds the reflectors).
fn upper_triangle(r: &[f64], m: usize, n: usize) -> Matrix {
    let k = m.min(n);
    let mut rk = Matrix::zeros(k, n);
    for (j, col) in r.chunks_exact(m.max(1)).enumerate() {
        let d = k.min(j + 1);
        rk.col_mut(j)[..d].copy_from_slice(&col[..d]);
    }
    rk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, Trans};
    use crate::pseudo;

    /// The routine this module replaced — element-wise `get`/`set`, one
    /// `Vec` per reflector, every column of `Q` visited by every reflector —
    /// kept as the oracle.
    fn ref_qr_thin(a: &Matrix) -> (Matrix, Matrix) {
        let m = a.rows();
        let n = a.cols();
        let k = m.min(n);
        let mut r = a.clone();
        // Householder vectors stored per reflection.
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(k);

        for j in 0..k {
            // Build the Householder vector for column j below the diagonal.
            let mut norm = 0.0;
            for i in j..m {
                norm += r.get(i, j) * r.get(i, j);
            }
            let norm = norm.sqrt();
            let mut v = vec![0.0; m - j];
            if norm == 0.0 {
                vs.push(v);
                continue;
            }
            let a0 = r.get(j, j);
            let alpha = if a0 >= 0.0 { -norm } else { norm };
            v[0] = a0 - alpha;
            for i in (j + 1)..m {
                v[i - j] = r.get(i, j);
            }
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 == 0.0 {
                vs.push(v);
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R[j.., j..].
            for c in j..n {
                let mut dot = 0.0;
                for i in j..m {
                    dot += v[i - j] * r.get(i, c);
                }
                let scale = 2.0 * dot / vnorm2;
                for i in j..m {
                    let val = r.get(i, c) - scale * v[i - j];
                    r.set(i, c, val);
                }
            }
            vs.push(v);
        }

        // Accumulate Q by applying the reflections to the identity (thin).
        let mut q = Matrix::zeros(m, k);
        for j in 0..k {
            q.set(j, j, 1.0);
        }
        for j in (0..k).rev() {
            let v = &vs[j];
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 == 0.0 {
                continue;
            }
            for c in 0..k {
                let mut dot = 0.0;
                for i in j..m {
                    dot += v[i - j] * q.get(i, c);
                }
                let scale = 2.0 * dot / vnorm2;
                for i in j..m {
                    let val = q.get(i, c) - scale * v[i - j];
                    q.set(i, c, val);
                }
            }
        }

        // Zero the strictly-lower part of R and trim to k × n.
        let mut rk = Matrix::zeros(k, n);
        for j in 0..n {
            for i in 0..k.min(j + 1) {
                rk.set(i, j, r.get(i, j));
            }
        }
        (q, rk)
    }

    fn check_qr(a: &Matrix) {
        let (q, r) = qr_thin(a);
        let k = a.rows().min(a.cols());
        assert_eq!(q.rows(), a.rows());
        assert_eq!(q.cols(), k);
        assert_eq!(r.rows(), k);
        assert_eq!(r.cols(), a.cols());
        // Q R == A
        let mut qr = Matrix::zeros(a.rows(), a.cols());
        gemm(1.0, &q, Trans::No, &r, Trans::No, 0.0, &mut qr);
        assert!(qr.max_diff(a) < 1e-12, "QR != A (diff {})", qr.max_diff(a));
        // QᵀQ == I
        let mut qtq = Matrix::zeros(k, k);
        gemm(1.0, &q, Trans::Yes, &q, Trans::No, 0.0, &mut qtq);
        assert!(
            qtq.max_diff(&Matrix::identity(k)) < 1e-12,
            "Q not orthonormal"
        );
        // R upper-triangular
        for j in 0..r.cols() {
            for i in (j + 1)..r.rows() {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn tall_matrix() {
        check_qr(&Matrix::from_fn(8, 3, |i, j| {
            ((i * 7 + j * 3) as f64).cos()
        }));
    }

    #[test]
    fn wide_matrix() {
        check_qr(&Matrix::from_fn(3, 8, |i, j| ((i * 5 + j) as f64).sin()));
        // The workload's shape: two stacked 32-column factors of a 32-row tile.
        check_qr(&Matrix::from_fn(32, 64, pseudo));
    }

    #[test]
    fn matches_reference_on_full_rank_inputs() {
        // Same sign convention, so Q and R agree entry for entry — on a
        // well-conditioned input (the diagonal shift): the error in Q grows
        // with cond(A), and noise sets the reflectors of a deficient one.
        for (m, n) in [
            (1, 1),
            (5, 1),
            (1, 5),
            (8, 3),
            (33, 7),
            (32, 32),
            (32, 64),
            (31, 46),
        ] {
            let a = Matrix::from_fn(m, n, |i, j| pseudo(i, j) + if i == j { 4.0 } else { 0.0 });
            let ((q, r), (q_ref, r_ref)) = (qr_thin(&a), ref_qr_thin(&a));
            assert!(q.max_diff(&q_ref) < 1e-13, "Q {m} x {n}");
            assert!(r.max_diff(&r_ref) < 1e-13, "R {m} x {n}");
        }
    }

    #[test]
    fn square_matrix() {
        check_qr(&Matrix::from_fn(6, 6, |i, j| {
            1.0 / (1.0 + i as f64 + j as f64)
        }));
    }

    #[test]
    fn rank_deficient() {
        // Two identical columns.
        let a = Matrix::from_fn(5, 3, |i, j| if j == 2 { i as f64 } else { (i + j) as f64 });
        check_qr(&a);
        // Rank 3, tall and wide, and a zero column in the middle.
        let x = Matrix::from_fn(32, 3, pseudo);
        let y = Matrix::from_fn(64, 3, |i, j| pseudo(i + 5, j + 11));
        let mut a = Matrix::zeros(32, 64);
        gemm(1.0, &x, Trans::No, &y, Trans::Yes, 0.0, &mut a);
        check_qr(&a);
        check_qr(&a.transpose());
        let holed = Matrix::from_fn(6, 4, |i, j| if j == 1 { 0.0 } else { pseudo(i, j) });
        check_qr(&holed);
    }

    #[test]
    fn pivoted_r_is_qr_thin_of_the_permuted_columns() {
        // The same reflector steps taken in pivot order: run to the end
        // (tol 0), `R` equals `qr_thin`'s of A·P bit for bit and its
        // diagonal does not grow; stopped by a tolerance, the rows it kept
        // are those rows of `qr_thin`'s, and no tail it left is longer.
        let dup = Matrix::from_fn(9, 4, |i, j| pseudo(i, j % 2));
        let holed = Matrix::from_fn(6, 4, |i, j| if j == 1 { 0.0 } else { pseudo(i, j) });
        let mut cases: Vec<Matrix> = [(1, 1), (5, 1), (1, 5), (8, 3), (3, 8), (33, 32), (32, 46)]
            .into_iter()
            .map(|(m, n)| Matrix::from_fn(m, n, pseudo))
            .collect();
        cases.extend([dup, holed, Matrix::zeros(4, 3)]);
        for a in cases {
            for tol in [0.0, 0.3] {
                let (m, n) = (a.rows(), a.cols());
                let mut r = a.data().to_vec();
                let (perm, diag) = pivoted_steps(&mut r, m, n, tol, usize::MAX);
                let mut seen = perm.clone();
                seen.sort_unstable();
                assert!(seen.into_iter().eq(0..n), "perm {perm:?}");
                let steps = diag.len();
                let full = qr_thin(&Matrix::from_fn(m, n, |i, j| a.get(i, perm[j]))).1;
                for c in 0..n {
                    for i in 0..steps.min(c + 1) {
                        let got = if i == c { diag[c] } else { r[c * m + i] };
                        assert_eq!(got, full.get(i, c), "{m} x {n}, tol {tol}: R[{i},{c}]");
                    }
                }
                assert!(steps >= 1);
                for c in steps..n {
                    let tail = &r[c * m + steps..(c + 1) * m];
                    assert!(dot(tail, tail).sqrt() <= tol, "{m} x {n}, tol {tol}");
                }
                for j in 1..steps {
                    let (d, prev) = (diag[j].abs(), diag[j - 1].abs());
                    assert!(d <= prev * (1.0 + 1e-12), "|R[{j},{j}]| = {d} > {prev}");
                }
            }
        }
    }

    #[test]
    fn zero_matrix() {
        check_qr(&Matrix::zeros(4, 2));
        check_qr(&Matrix::zeros(2, 4));
        check_qr(&Matrix::zeros(3, 0));
    }
}
