//! The paper's `st-2d-sqexp` problem generator (§6.4.2): a squared-
//! exponential (Gaussian) covariance matrix over a 2-D point set, the
//! geostatistics kernel HiCMA factorizes.

use crate::matrix::Matrix;

/// A 2-D point grid in the unit square, ordered row-major, with a small
/// deterministic jitter (as spatial-statistics generators use) to avoid
/// degenerate regular spacing.
#[derive(Debug, Clone)]
pub struct Grid2d {
    pub points: Vec<(f64, f64)>,
}

impl Grid2d {
    /// `n` points laid out on a ⌈√n⌉ grid.
    pub fn new(n: usize) -> Self {
        let side = (n as f64).sqrt().ceil() as usize;
        let mut points = Vec::with_capacity(n);
        for idx in 0..n {
            let i = idx / side;
            let j = idx % side;
            // Deterministic jitter from a simple hash.
            let h =
                ((idx as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / (1u64 << 24) as f64;
            let jit = (h - 0.5) * 0.2 / side as f64;
            points.push((
                (i as f64 + 0.5) / side as f64 + jit,
                (j as f64 + 0.5) / side as f64 - jit,
            ));
        }
        Grid2d { points }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Squared-exponential covariance block between point ranges
/// `[r0, r0+rows)` and `[c0, c0+cols)`:
/// `k(x,y) = exp(−‖x−y‖² / (2ℓ²))`, plus `nugget` on the global diagonal
/// (regularization that keeps the matrix positive definite at the small
/// problem sizes used for Numeric verification).
pub fn sqexp_covariance(
    grid: &Grid2d,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    length_scale: f64,
    nugget: f64,
) -> Matrix {
    let inv = 1.0 / (2.0 * length_scale * length_scale);
    Matrix::from_fn(rows, cols, |i, j| {
        let (xa, ya) = grid.points[r0 + i];
        let (xb, yb) = grid.points[c0 + j];
        let d2 = (xa - xb).powi(2) + (ya - yb).powi(2);
        let k = (-d2 * inv).exp();
        if r0 + i == c0 + j {
            k + nugget
        } else {
            k
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::potrf;
    use crate::qr::qr_truncate;

    #[test]
    fn grid_stays_in_unit_square() {
        let g = Grid2d::new(100);
        assert_eq!(g.len(), 100);
        for &(x, y) in &g.points {
            assert!((-0.01..=1.01).contains(&x));
            assert!((-0.01..=1.01).contains(&y));
        }
    }

    #[test]
    fn covariance_is_symmetric_positive_definite() {
        let g = Grid2d::new(64);
        let a = sqexp_covariance(&g, 0, 0, 64, 64, 0.1, 1e-4);
        for i in 0..64 {
            for j in 0..64 {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-15);
            }
        }
        assert!(potrf(&a).is_ok(), "sq-exp covariance must be SPD");
    }

    #[test]
    fn off_diagonal_blocks_are_low_rank() {
        // The heart of HiCMA: well-separated blocks compress heavily.
        let g = Grid2d::new(256);
        let block = sqexp_covariance(&g, 0, 192, 64, 64, 0.1, 0.0);
        // HiCMA truncates at absolute accuracy: the covariance scale is
        // O(1), so tiny far-field singular values drop out.
        let r = qr_truncate(block, 1e-8, 64).0.cols();
        assert!(r < 32, "distant block should be low rank, got {r}");
        assert!(r > 0);
    }

    #[test]
    fn diagonal_block_is_full_rank() {
        let g = Grid2d::new(256);
        let block = sqexp_covariance(&g, 0, 0, 32, 32, 0.1, 1e-4);
        // σ₁ of a 32 × 32 block with entries in (0, 1] is below 32.
        assert_eq!(qr_truncate(block, 32.0 * 1e-12, 32).0.cols(), 32);
    }
}
