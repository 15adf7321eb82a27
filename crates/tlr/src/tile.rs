//! Low-rank tiles: compression, rounded arithmetic, serialization.

use amt_linalg::{gemm, qr_thin, qr_truncate, Matrix, Trans};
use bytes::Bytes;

/// A tile in `U·Vᵀ` form: `u` is `m × k`, `v` is `n × k`.
#[derive(Debug, Clone, PartialEq)]
pub struct LrTile {
    pub u: Matrix,
    pub v: Matrix,
}

impl LrTile {
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    pub fn rows(&self) -> usize {
        self.u.rows()
    }

    pub fn cols(&self) -> usize {
        self.v.rows()
    }

    /// Memory footprint in bytes of the packed `U`/`V` pair.
    pub fn bytes(&self) -> usize {
        (self.u.rows() * self.u.cols() + self.v.rows() * self.v.cols()) * 8
    }

    /// Compress a dense block at absolute accuracy `tol`, rank capped at
    /// `maxrank` (and never below 1 so the factor stays well-formed).
    pub fn compress(a: &Matrix, tol: f64, maxrank: usize) -> LrTile {
        let (u, v) = qr_truncate(a.clone(), tol, maxrank);
        LrTile { u, v }
    }

    /// Reconstruct the dense block.
    pub fn to_dense(&self) -> Matrix {
        let mut d = Matrix::zeros(self.rows(), self.cols());
        gemm(1.0, &self.u, Trans::No, &self.v, Trans::Yes, 0.0, &mut d);
        d
    }

    /// Rounded addition `self + W·Zᵀ`, re-truncated at `tol`/`maxrank`,
    /// with one QR: `[V Z] = Qv·Rv` makes the sum `C·Qvᵀ` with the core
    /// `C = [U W]·Rvᵀ` (`ts × min(ts, k1 + k2)`, never wide), and
    /// `qr_truncate(C) = (Q_k, P·R_kᵀ)` gives `U' = Q_k` (orthonormal
    /// columns) and `V' = Qv·P·R_kᵀ`. The left stack needs no QR: with
    /// `[U W] = Qu·Ru`, `C = Qu·(Ru·Rvᵀ)`, and a column-pivoted QR sees
    /// only `CᵀC`, which `Qu` leaves unchanged, so the pivots, `R` and the
    /// rank are those of `Ru·Rvᵀ` (DESIGN.md §3.7).
    pub fn add_truncate(&self, w: &Matrix, z: &Matrix, tol: f64, maxrank: usize) -> LrTile {
        assert_eq!(w.rows(), self.rows());
        assert_eq!(z.rows(), self.cols());
        assert_eq!(w.cols(), z.cols());
        let cols = self.rank() + w.cols();

        // Stack [U  W] and [V  Z]: column-major, so side by side is end to end.
        let su = Matrix::from_vec(self.rows(), cols, [self.u.data(), w.data()].concat());
        let sv = Matrix::from_vec(self.cols(), cols, [self.v.data(), z.data()].concat());
        let (qv, rv) = qr_thin(&sv);
        let mut core = Matrix::zeros(self.rows(), rv.rows());
        gemm(1.0, &su, Trans::No, &rv, Trans::Yes, 0.0, &mut core);
        let (u, cy) = qr_truncate(core, tol, maxrank);
        let mut v = Matrix::zeros(self.cols(), cy.cols());
        gemm(1.0, &qv, Trans::No, &cy, Trans::No, 0.0, &mut v);
        LrTile { u, v }
    }

    pub fn u_bytes(&self) -> Bytes {
        self.u.to_bytes()
    }

    pub fn v_bytes(&self) -> Bytes {
        self.v.to_bytes()
    }

    /// Recover a factor matrix from bytes given the tile dimension (rank is
    /// implied by the payload length).
    pub fn factor_from_bytes(ts: usize, b: &[u8]) -> Matrix {
        assert_eq!(b.len() % (8 * ts), 0, "torn factor payload");
        let k = b.len() / (8 * ts);
        Matrix::from_bytes(ts, k, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(i: usize, j: usize) -> f64 {
        // Deterministic full-rank-ish entries (hash-based; trigonometric
        // formulas like sin(i + c*j) collapse to rank 2!).
        let h = (i as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((j as u64).wrapping_mul(0xc2b2ae3d27d4eb4f));
        ((h >> 11) % 100_000) as f64 / 100_000.0 - 0.5
    }

    /// The routine `add_truncate` replaced — a thin QR of each stack,
    /// `Ru·Rvᵀ` rounded, multiplied back by `Qu` and `Qv` — kept as the
    /// oracle.
    fn ref_add_truncate(t: &LrTile, w: &Matrix, z: &Matrix, tol: f64, maxrank: usize) -> LrTile {
        let cols = t.rank() + w.cols();
        let su = Matrix::from_vec(t.rows(), cols, [t.u.data(), w.data()].concat());
        let sv = Matrix::from_vec(t.cols(), cols, [t.v.data(), z.data()].concat());
        let (qu, ru) = qr_thin(&su);
        let (qv, rv) = qr_thin(&sv);
        let mut core = Matrix::zeros(ru.rows(), rv.rows());
        gemm(1.0, &ru, Trans::No, &rv, Trans::Yes, 0.0, &mut core);
        let (cq, cy) = qr_truncate(core, tol, maxrank);
        let mut u = Matrix::zeros(t.rows(), cq.cols());
        gemm(1.0, &qu, Trans::No, &cq, Trans::No, 0.0, &mut u);
        let mut v = Matrix::zeros(t.cols(), cy.cols());
        gemm(1.0, &qv, Trans::No, &cy, Trans::No, 0.0, &mut v);
        LrTile { u, v }
    }

    /// `32 × k` factor whose column `j` is scaled by `0.4^j`: sums of such
    /// tiles have a decaying spectrum for the truncation to cut.
    fn graded(k: usize, di: usize, dj: usize) -> Matrix {
        Matrix::from_fn(32, k, |i, j| pseudo(i + di, j + dj) * 0.4f64.powi(j as i32))
    }

    fn low_rank_block(m: usize, n: usize, k: usize) -> Matrix {
        let x = Matrix::from_fn(m, k, pseudo);
        let y = Matrix::from_fn(n, k, |i, j| pseudo(i + 31, j + 7));
        let mut a = Matrix::zeros(m, n);
        gemm(1.0, &x, Trans::No, &y, Trans::Yes, 0.0, &mut a);
        a
    }

    #[test]
    fn compress_recovers_exact_low_rank() {
        let a = low_rank_block(20, 16, 3);
        let t = LrTile::compress(&a, 1e-10, 16);
        assert_eq!(t.rank(), 3);
        assert!(t.to_dense().max_diff(&a) < 1e-9);
    }

    #[test]
    fn compress_respects_maxrank() {
        let a = Matrix::from_fn(12, 12, pseudo);
        let t = LrTile::compress(&a, 1e-15, 4);
        assert_eq!(t.rank(), 4);
        // Total in `maxrank`: the floor of 1 wins over a cap of 0.
        assert_eq!(LrTile::compress(&a, 1e-15, 0).rank(), 1);
        let w = Matrix::from_fn(12, 2, pseudo);
        assert_eq!(t.add_truncate(&w, &w, 1e-15, 0).rank(), 1);
    }

    #[test]
    fn compress_wide_block() {
        let a = low_rank_block(8, 20, 2);
        let t = LrTile::compress(&a, 1e-10, 8);
        assert_eq!(t.rank(), 2);
        assert!(t.to_dense().max_diff(&a) < 1e-9);
    }

    #[test]
    fn add_truncate_matches_dense_sum() {
        let a = low_rank_block(16, 16, 3);
        let t = LrTile::compress(&a, 1e-12, 16);
        let w = Matrix::from_fn(16, 2, |i, j| pseudo(i + 3, j + 9));
        let z = Matrix::from_fn(16, 2, |i, j| pseudo(i + 17, j + 4));
        let sum = t.add_truncate(&w, &z, 1e-12, 16);
        let mut want = a;
        gemm(1.0, &w, Trans::No, &z, Trans::Yes, 1.0, &mut want);
        assert!(
            sum.to_dense().max_diff(&want) < 1e-9,
            "diff {}",
            sum.to_dense().max_diff(&want)
        );
        assert!(sum.rank() <= 5);
    }

    #[test]
    fn add_truncate_with_stacks_wider_than_the_tile() {
        // The regime the benchmark's TLR workload runs (mean rank 23 on
        // 32 × 32 tiles): k1 + k2 = 46 > ts, so the QR of [V Z] is of a
        // wide matrix and the core [U W]·Rvᵀ is ts × ts. Graded columns
        // give the sum a decaying spectrum, so the truncation at 1e-8 has
        // something to cut.
        let t = LrTile {
            u: graded(23, 0, 0),
            v: graded(23, 40, 3),
        };
        let (w, z) = (graded(23, 7, 50), graded(23, 90, 20));
        let sum = t.add_truncate(&w, &z, 1e-8, 150);
        let mut want = t.to_dense();
        gemm(1.0, &w, Trans::No, &z, Trans::Yes, 1.0, &mut want);
        assert!((8..32).contains(&sum.rank()), "rank {}", sum.rank());
        // Each discarded σ is at most tol: ‖error‖_F ≤ √ts · tol.
        let got = sum.to_dense();
        let err = Matrix::from_fn(32, 32, |i, j| got.get(i, j) - want.get(i, j));
        assert!(err.norm_fro() < 32f64.sqrt() * 1e-8, "{}", err.norm_fro());
        // A rank cap below the numerical rank still applies.
        assert_eq!(t.add_truncate(&w, &z, 1e-8, 5).rank(), 5);
    }

    #[test]
    fn add_truncate_matches_the_two_qr_oracle() {
        // k1 + k2 below, equal to and above ts = 32, and a rank cap below
        // the numerical rank: the same rank, the same sum to rounding, and
        // a `U` with orthonormal columns. `U` is the rounding's `Q_k`: the
        // pivoted QR runs on the core's tall orientation, and that `Q_k` is
        // `Qu` times the oracle's, which `Qu` keeps orthonormal.
        for (k1, k2, maxrank) in [(5, 7, 150), (16, 16, 150), (23, 23, 150), (23, 23, 5)] {
            let t = LrTile {
                u: graded(k1, 0, 0),
                v: graded(k1, 40, 3),
            };
            let (w, z) = (graded(k2, 7, 50), graded(k2, 90, 20));
            let got = t.add_truncate(&w, &z, 1e-8, maxrank);
            let want = ref_add_truncate(&t, &w, &z, 1e-8, maxrank);
            let case = format!("{k1} + {k2}, maxrank {maxrank}");
            assert_eq!(got.rank(), want.rank(), "{case}");
            let mut sum = t.to_dense();
            gemm(1.0, &w, Trans::No, &z, Trans::Yes, 1.0, &mut sum);
            let (g, r) = (got.to_dense(), want.to_dense());
            let diff = Matrix::from_fn(32, 32, |i, j| g.get(i, j) - r.get(i, j));
            assert!(
                diff.norm_fro() <= 1e-12 * sum.norm_fro(),
                "{case}: {} apart",
                diff.norm_fro()
            );
            let k = got.rank();
            let mut gram = Matrix::zeros(k, k);
            gemm(1.0, &got.u, Trans::Yes, &got.u, Trans::No, 0.0, &mut gram);
            let off = gram.max_diff(&Matrix::identity(k));
            assert!(off <= 1e-12, "{case}: UᵀU off I by {off}");
        }
    }

    #[test]
    fn add_truncate_caps_rank_growth() {
        let a = low_rank_block(16, 16, 3);
        let mut t = LrTile::compress(&a, 1e-12, 16);
        for round in 0..6 {
            let w = Matrix::from_fn(16, 2, |i, j| ((i + j + round) as f64).sin() * 1e-12);
            let z = Matrix::from_fn(16, 2, |i, j| (i * j) as f64 + 1.0);
            t = t.add_truncate(&w, &z, 1e-8, 16);
        }
        // Tiny updates below tolerance must not inflate the rank.
        assert!(t.rank() <= 4, "rank grew to {}", t.rank());
    }

    #[test]
    fn factor_bytes_roundtrip() {
        let a = low_rank_block(10, 10, 2);
        let t = LrTile::compress(&a, 1e-10, 8);
        let u2 = LrTile::factor_from_bytes(10, &t.u_bytes());
        let v2 = LrTile::factor_from_bytes(10, &t.v_bytes());
        assert_eq!(u2, t.u);
        assert_eq!(v2, t.v);
    }
}
