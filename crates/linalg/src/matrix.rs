//! Column-major dense matrix.

use bytes::Bytes;

/// A dense column-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    #[inline]
    pub fn add_assign_at(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] += v;
    }

    /// Column slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Column-major storage, mutable: lets a kernel split it into the
    /// columns it reads and the column it writes.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The column-major storage, by value: a kernel that reduces its input
    /// in place takes it over without a copy.
    pub(crate) fn into_data(self) -> Vec<f64> {
        self.data
    }

    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for (j, col) in self.data.chunks_exact(self.rows.max(1)).enumerate() {
            for (i, &x) in col.iter().enumerate() {
                t.data[i * self.cols + j] = x;
            }
        }
        t
    }

    /// Copy the `rows × cols` submatrix at `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        let mut data = Vec::with_capacity(rows * cols);
        for j in c0..c0 + cols {
            data.extend_from_slice(&self.col(j)[r0..r0 + rows]);
        }
        Matrix { rows, cols, data }
    }

    /// Write `m` into this matrix at `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, m: &Matrix) {
        assert!(r0 + m.rows <= self.rows && c0 + m.cols <= self.cols);
        for j in 0..m.cols {
            self.col_mut(c0 + j)[r0..r0 + m.rows].copy_from_slice(m.col(j));
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Serialize to little-endian `f64` bytes (runtime payloads).
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.data.len() * 8);
        for x in &self.data {
            out.extend_from_slice(&x.to_le_bytes());
        }
        Bytes::from(out)
    }

    /// Deserialize from [`Matrix::to_bytes`] output.
    pub fn from_bytes(rows: usize, cols: usize, b: &[u8]) -> Matrix {
        assert_eq!(b.len(), rows * cols * 8, "payload size mismatch");
        let data = b
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Entry-wise maximum absolute difference.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn bytes_roundtrip() {
        let m = Matrix::from_fn(4, 3, |i, j| (i as f64).sin() + j as f64);
        let b = m.to_bytes();
        assert_eq!(b.len(), 4 * 3 * 8);
        assert_eq!(Matrix::from_bytes(4, 3, &b), m);
    }

    #[test]
    fn submatrix_and_set() {
        let m = Matrix::from_fn(5, 5, |i, j| (i + 10 * j) as f64);
        let s = m.submatrix(1, 2, 2, 3);
        assert_eq!(s.get(0, 0), m.get(1, 2));
        assert_eq!(s.get(1, 2), m.get(2, 4));
        let mut z = Matrix::zeros(5, 5);
        z.set_submatrix(1, 2, &s);
        assert_eq!(z.get(2, 4), m.get(2, 4));
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn identity_norm() {
        let i = Matrix::identity(9);
        assert!((i.norm_fro() - 3.0).abs() < 1e-15);
    }
}
