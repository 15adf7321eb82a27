//! Dense tile Cholesky — the DPLASMA-style baseline HiCMA builds on
//! (the paper's HiCMA depends on DPLASMA [3]; TLR compression is motivated
//! by how much cheaper it is than this dense factorization).
//!
//! Classic right-looking tile algorithm, one dense tile per dataflow:
//!
//! ```text
//! POTRF(k)          : A[k,k] ← chol(A[k,k])
//! TRSM(i,k)   i>k   : A[i,k] ← A[i,k] · L[k,k]⁻ᵀ
//! SYRK(i,k)   i>k   : A[i,i] ← A[i,i] − A[i,k]·A[i,k]ᵀ
//! GEMM(i,j,k) i>j>k : A[i,j] ← A[i,j] − A[i,k]·A[j,k]ᵀ
//! ```

use std::collections::HashMap;

use amt_core::{
    Cluster, DataDist, DataKey, GraphBuilder, TaskDesc, TaskGraph, TileDist2d, VersionId,
};
use amt_linalg::{
    cholesky_residual, gemm, potrf, sqexp_covariance, syrk_lower, trsm_right_lower_t, Grid2d,
    Matrix, Trans,
};

/// Dense-kernel efficiency (large BLAS-3 tiles run near peak).
const DENSE_EFF: f64 = 0.85;

/// Covariance length scale and diagonal nugget of the Numeric problem.
const LENGTH_SCALE: f64 = 0.1;
const NUGGET: f64 = 1e-2;

/// Builder for dense tile Cholesky task graphs.
pub struct DenseCholesky {
    pub n: usize,
    pub tile_size: usize,
    pub dist: TileDist2d,
    /// Final version per lower tile (i, j), i ≥ j.
    pub out: HashMap<(u64, u64), VersionId>,
    pub total_flops: f64,
    pub tasks: u64,
    /// Real kernels on real tiles ([`DenseCholesky::build_numeric`]).
    numeric: bool,
}

fn key(nt: u64, i: u64, j: u64) -> DataKey {
    i * nt + j
}

impl DenseCholesky {
    fn nt(&self) -> u64 {
        (self.n / self.tile_size) as u64
    }

    /// The `n × n` covariance matrix the factorization starts from,
    /// generated anew on each call (Numeric builds only, `None`
    /// otherwise): the builder makes it a tile at a time and keeps none of
    /// it.
    pub fn dense_a(&self) -> Option<Matrix> {
        let n = self.n;
        self.numeric
            .then(|| sqexp_covariance(&Grid2d::new(n), 0, 0, n, n, LENGTH_SCALE, NUGGET))
    }

    /// Build with real kernels and real covariance data (Numeric mode).
    pub fn build_numeric(n: usize, tile_size: usize, nodes: usize) -> (DenseCholesky, TaskGraph) {
        Self::build(n, tile_size, nodes, true)
    }

    /// Build with declared sizes only (CostOnly mode).
    pub fn build_cost_only(n: usize, tile_size: usize, nodes: usize) -> (DenseCholesky, TaskGraph) {
        Self::build(n, tile_size, nodes, false)
    }

    fn build(n: usize, ts: usize, nodes: usize, numeric: bool) -> (DenseCholesky, TaskGraph) {
        assert_eq!(n % ts, 0, "n must be a multiple of tile_size");
        let nt = (n / ts) as u64;
        let dist = TileDist2d::square_grid(nt, nt, nodes);
        // Each tile is generated on its own, bit-identical to its block of
        // `dense_a()`: an entry is a function of its global row and column.
        let grid = numeric.then(|| Grid2d::new(n));

        let mut g = GraphBuilder::new(nodes);
        let tile_bytes = ts * ts * 8;
        for i in 0..nt {
            for j in 0..=i {
                let owner = dist.owner(i * nt + j);
                let bytes = grid.as_ref().map(|grid| {
                    let (r0, c0) = (i as usize * ts, j as usize * ts);
                    sqexp_covariance(grid, r0, c0, ts, ts, LENGTH_SCALE, NUGGET).to_bytes()
                });
                g.data(key(nt, i, j), tile_bytes, owner, bytes);
            }
        }

        let tsf = ts as f64;
        let fl_potrf = tsf.powi(3) / 3.0;
        let fl_trsm = tsf.powi(3);
        let fl_syrk = tsf.powi(3);
        let fl_gemm = 2.0 * tsf.powi(3);
        // Same recursive-subtiling treatment as the TLR diagonal.
        let speedup = (8.0 * (tsf / 2400.0).powi(2)).clamp(2.0, 48.0);
        let prio = |k: u64, bonus: i64| ((nt - k) as i64) * 4 + bonus;
        let mut total_flops = 0.0;
        let mut tasks = 0u64;

        for k in 0..nt {
            let mut desc = TaskDesc::new("potrf")
                .on_node(dist.owner(k * nt + k))
                .flops(fl_potrf / speedup)
                .efficiency(DENSE_EFF)
                .priority(prio(k, 3))
                .read_key(key(nt, k, k))
                .write(key(nt, k, k), tile_bytes);
            if numeric {
                let ts2 = ts;
                desc = desc.kernel(move |ins| {
                    let a = Matrix::from_bytes(ts2, ts2, &ins[0]);
                    vec![potrf(&a).expect("tile SPD").to_bytes()]
                });
            }
            g.insert(desc);
            total_flops += fl_potrf;
            tasks += 1;

            for i in (k + 1)..nt {
                let mut desc = TaskDesc::new("trsm")
                    .on_node(dist.owner(i * nt + k))
                    .flops(fl_trsm / speedup)
                    .efficiency(DENSE_EFF)
                    .priority(prio(k, 2))
                    .read_key(key(nt, k, k))
                    .read_key(key(nt, i, k))
                    .write(key(nt, i, k), tile_bytes);
                if numeric {
                    let ts2 = ts;
                    desc = desc.kernel(move |ins| {
                        let l = Matrix::from_bytes(ts2, ts2, &ins[0]);
                        // Use only the lower triangle of the factor tile.
                        let l = Matrix::from_fn(
                            ts2,
                            ts2,
                            |r, c| if r >= c { l.get(r, c) } else { 0.0 },
                        );
                        let mut b = Matrix::from_bytes(ts2, ts2, &ins[1]);
                        trsm_right_lower_t(&l, &mut b);
                        vec![b.to_bytes()]
                    });
                }
                g.insert(desc);
                total_flops += fl_trsm;
                tasks += 1;
            }

            for i in (k + 1)..nt {
                let mut desc = TaskDesc::new("syrk")
                    .on_node(dist.owner(i * nt + i))
                    .flops(fl_syrk / speedup)
                    .efficiency(DENSE_EFF)
                    .priority(prio(k, if i == k + 1 { 2 } else { 1 }))
                    .read_key(key(nt, i, k))
                    .read_key(key(nt, i, i))
                    .write(key(nt, i, i), tile_bytes);
                if numeric {
                    let ts2 = ts;
                    desc = desc.kernel(move |ins| {
                        let a = Matrix::from_bytes(ts2, ts2, &ins[0]);
                        let mut c = Matrix::from_bytes(ts2, ts2, &ins[1]);
                        syrk_lower(-1.0, &a, 1.0, &mut c);
                        vec![c.to_bytes()]
                    });
                }
                g.insert(desc);
                total_flops += fl_syrk;
                tasks += 1;

                for j in (k + 1)..i {
                    let mut desc = TaskDesc::new("gemm")
                        .on_node(dist.owner(i * nt + j))
                        .flops(fl_gemm)
                        .efficiency(DENSE_EFF)
                        .priority(prio(k, if j == k + 1 { 1 } else { 0 }))
                        .read_key(key(nt, i, k))
                        .read_key(key(nt, j, k))
                        .read_key(key(nt, i, j))
                        .write(key(nt, i, j), tile_bytes);
                    if numeric {
                        let ts2 = ts;
                        desc = desc.kernel(move |ins| {
                            let a = Matrix::from_bytes(ts2, ts2, &ins[0]);
                            let b = Matrix::from_bytes(ts2, ts2, &ins[1]);
                            let mut c = Matrix::from_bytes(ts2, ts2, &ins[2]);
                            gemm(-1.0, &a, Trans::No, &b, Trans::Yes, 1.0, &mut c);
                            vec![c.to_bytes()]
                        });
                    }
                    g.insert(desc);
                    total_flops += fl_gemm;
                    tasks += 1;
                }
            }
        }

        let mut out = HashMap::new();
        for i in 0..nt {
            for j in 0..=i {
                out.insert((i, j), g.current(key(nt, i, j)).expect("tile version"));
            }
        }
        (
            DenseCholesky {
                n,
                tile_size: ts,
                dist,
                out,
                total_flops,
                tasks,
                numeric,
            },
            g.build(),
        )
    }

    /// Relative residual of a completed Numeric run.
    pub fn residual(&self, cluster: &Cluster) -> f64 {
        let a = self.dense_a().expect("numeric build");
        let nt = self.nt();
        let ts = self.tile_size;
        let mut l = Matrix::zeros(self.n, self.n);
        for i in 0..nt {
            for j in 0..=i {
                let b = cluster.data(self.out[&(i, j)]).expect("tile data");
                let tile = Matrix::from_bytes(ts, ts, &b);
                let block = if i == j {
                    Matrix::from_fn(ts, ts, |r, c| if r >= c { tile.get(r, c) } else { 0.0 })
                } else {
                    tile
                };
                l.set_submatrix(i as usize * ts, j as usize * ts, &block);
            }
        }
        cholesky_residual(&a, &l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_comm::{BackendKind, EngineConfig};
    use amt_core::{Cluster, ClusterConfig, ExecMode};

    #[test]
    fn dense_cholesky_factorizes_distributed() {
        for backend in [BackendKind::Mpi, BackendKind::Lci] {
            let (chol, graph) = DenseCholesky::build_numeric(192, 48, 2);
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 2,
                workers_per_node: 4,
                engine: EngineConfig::for_backend(backend),
                mode: ExecMode::Numeric,
                ..Default::default()
            });
            let report = cluster.execute(graph);
            assert!(report.complete(), "{backend}");
            let res = chol.residual(&cluster);
            assert!(res < 1e-12, "{backend}: dense residual {res:.2e}");
        }
    }

    #[test]
    fn task_counts_match_closed_forms() {
        let nt = 6u64;
        let (chol, graph) = DenseCholesky::build_cost_only(6 * 64, 64, 2);
        let want = nt + nt * (nt - 1) / 2 * 2 + nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(chol.tasks, want);
        assert_eq!(graph.task_count() as u64, want);
        // Dense flops ≈ N³/3.
        let n = (6 * 64) as f64;
        assert!((chol.total_flops - n.powi(3) / 3.0).abs() / chol.total_flops < 0.35);
    }

    #[test]
    fn tlr_moves_far_less_data_and_flops_than_dense() {
        // HiCMA's reason to exist, quantified on this stack.
        let n = 48_000;
        let ts = 3000;
        let (dense, dgraph) = DenseCholesky::build_cost_only(n, ts, 4);
        let (tlr, tgraph) = crate::TlrCholesky::build_cost_only(crate::TlrProblem::new(n, ts), 4);
        assert!(
            tlr.stats.total_flops < dense.total_flops / 10.0,
            "TLR flops {:.2e} vs dense {:.2e}",
            tlr.stats.total_flops,
            dense.total_flops
        );
        // Remote dataflow volume: compare declared version sizes.
        let vol = |g: &amt_core::TaskGraph| -> f64 { g.versions().map(|v| v.size as f64).sum() };
        assert!(vol(&tgraph) < vol(&dgraph) / 5.0);
    }
}
