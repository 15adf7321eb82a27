//! The HiCMA-style TLR Cholesky task graph (two-flow, band size 1).
//!
//! Loop structure (right-looking, step `k`):
//!
//! ```text
//! POTRF(k)        : D[k]           ← chol(D[k])                (dense)
//! TRSM(i,k)  i>k  : V[i,k]         ← L[k]⁻¹ · V[i,k]           (U untouched!)
//! SYRK(i,k)  i>k  : D[i]           ← D[i] − U·(VᵀV)·Uᵀ
//! GEMM(i,j,k) i>j>k: (U,V)[i,j]    ← trunc((U,V)[i,j] − L[i,k]·L[j,k]ᵀ)
//! ```
//!
//! The **two-flow** property: `U[i,k]` and `V[i,k]` are separate runtime
//! dataflows, so a TRSM re-announces only the `V` half of a tile — exactly
//! the communication structure of the paper's HiCMA version [7, 8].

use std::collections::HashMap;

use amt_core::{
    Cluster, DataDist, DataKey, GraphBuilder, GraphSource, TaskDesc, TaskGraph, TileDist2d,
    VersionId,
};
use amt_linalg::{
    cholesky_residual, gemm, potrf, sqexp_covariance, trsm_left_lower, Grid2d, Matrix, Trans,
};

use crate::flops::{efficiency, KernelFlops};
use crate::rankmodel::RankModel;
use crate::tile::LrTile;

/// Problem definition (defaults mirror §6.4.2: maxrank 150, accuracy 1e-8,
/// band size 1, st-2d-sqexp).
#[derive(Debug, Clone)]
pub struct TlrProblem {
    /// Matrix dimension (must be a multiple of `tile_size`).
    pub n: usize,
    pub tile_size: usize,
    /// Truncation accuracy (absolute; the covariance scale is O(1)).
    pub tol: f64,
    pub maxrank: usize,
    /// Covariance length scale.
    pub length_scale: f64,
    /// Diagonal regularization (keeps small Numeric problems SPD).
    pub nugget: f64,
    /// Internal parallelism of the dense diagonal kernels: HiCMA-PaRSEC
    /// subdivides POTRF/large dense updates recursively into subtasks that
    /// run concurrently, so the diagonal chain is not a single-core
    /// critical path. Scales with tile area (more subtiles to run in
    /// parallel); modeled as an effective speedup of the dense POTRF
    /// (virtual time only). `None` = automatic `8·(ts/2400)²`, clamped to
    /// [2, 48].
    pub potrf_parallelism: Option<f64>,
}

impl TlrProblem {
    pub fn new(n: usize, tile_size: usize) -> Self {
        assert_eq!(n % tile_size, 0, "n must be a multiple of tile_size");
        TlrProblem {
            n,
            tile_size,
            tol: 1e-8,
            maxrank: 150,
            length_scale: 0.1,
            nugget: 1e-2,
            potrf_parallelism: None,
        }
    }

    pub fn nt(&self) -> u64 {
        (self.n / self.tile_size) as u64
    }

    /// Effective internal parallelism of the dense diagonal POTRF.
    pub fn potrf_speedup(&self) -> f64 {
        self.potrf_parallelism.unwrap_or_else(|| {
            let r = self.tile_size as f64 / 2400.0;
            (8.0 * r * r).clamp(2.0, 48.0)
        })
    }
}

/// Task-graph statistics gathered during construction.
#[derive(Debug, Default, Clone)]
pub struct CholeskyStats {
    pub potrf: u64,
    pub trsm: u64,
    pub syrk: u64,
    pub gemm: u64,
    pub total_flops: f64,
    pub mean_rank: f64,
    pub lr_tile_bytes_mean: f64,
}

impl CholeskyStats {
    pub fn tasks(&self) -> u64 {
        self.potrf + self.trsm + self.syrk + self.gemm
    }
}

/// Builder for TLR Cholesky task graphs, plus the handles needed to verify
/// a Numeric run.
pub struct TlrCholesky {
    pub problem: TlrProblem,
    pub dist: TileDist2d,
    /// Final factor versions per tile (filled by the builders).
    pub diag_out: Vec<VersionId>,
    pub lr_out: HashMap<(u64, u64), (VersionId, VersionId)>,
    pub stats: CholeskyStats,
    /// Real kernels on real tiles ([`TlrCholesky::build_numeric`]).
    numeric: bool,
}

// Key scheme: tile (i,j) has id i*nt+j; U rides on 2*id, V on 2*id+1;
// diagonal dense tiles use 2*id.
fn ku(nt: u64, i: u64, j: u64) -> DataKey {
    2 * (i * nt + j)
}
fn kv(nt: u64, i: u64, j: u64) -> DataKey {
    2 * (i * nt + j) + 1
}
fn kd(nt: u64, k: u64) -> DataKey {
    2 * (k * nt + k)
}

/// One task of the factorization, in exact insertion order. The cursor
/// form lets the graph be produced incrementally (windowed execution)
/// while staying task-for-task identical to the batch build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Potrf(u64),
    /// `(i, k)`.
    Trsm(u64, u64),
    /// `(i, k)`.
    Syrk(u64, u64),
    /// `(i, j, k)`.
    Gemm(u64, u64, u64),
}

impl Step {
    fn first(nt: u64) -> Option<Step> {
        (nt > 0).then_some(Step::Potrf(0))
    }

    /// Successor in insertion order: per `k`, POTRF; all TRSMs; then per
    /// row `i`, SYRK followed by its GEMMs.
    fn next(self, nt: u64) -> Option<Step> {
        let after_row = |i: u64, k: u64| {
            if i + 1 < nt {
                Some(Step::Syrk(i + 1, k))
            } else {
                Some(Step::Potrf(k + 1))
            }
        };
        match self {
            Step::Potrf(k) => (k + 1 < nt).then_some(Step::Trsm(k + 1, k)),
            Step::Trsm(i, k) => {
                if i + 1 < nt {
                    Some(Step::Trsm(i + 1, k))
                } else {
                    Some(Step::Syrk(k + 1, k))
                }
            }
            Step::Syrk(i, k) => {
                if k + 1 < i {
                    Some(Step::Gemm(i, k + 1, k))
                } else {
                    after_row(i, k)
                }
            }
            Step::Gemm(i, j, k) => {
                if j + 1 < i {
                    Some(Step::Gemm(i, j + 1, k))
                } else {
                    after_row(i, k)
                }
            }
        }
    }
}

impl TlrCholesky {
    /// Problem/distribution shell with empty stats.
    fn shell(problem: TlrProblem, nodes: usize, numeric: bool) -> TlrCholesky {
        let nt = problem.nt();
        let dist = TileDist2d::square_grid(nt, nt, nodes);
        TlrCholesky {
            problem,
            dist,
            diag_out: Vec::new(),
            lr_out: HashMap::new(),
            stats: CholeskyStats::default(),
            numeric,
        }
    }

    /// The `n × n` covariance matrix the factorization starts from,
    /// generated anew on each call (Numeric builds only, `None`
    /// otherwise): the builder makes it a tile at a time and keeps none of
    /// it.
    pub fn dense_a(&self) -> Option<Matrix> {
        let p = &self.problem;
        let (n, ls, nugget) = (p.n, p.length_scale, p.nugget);
        self.numeric
            .then(|| sqexp_covariance(&Grid2d::new(n), 0, 0, n, n, ls, nugget))
    }

    /// Declare all initial tiles (compressing them in Numeric mode) and
    /// fill the rank/bytes statistics. A Numeric tile is generated on its
    /// own, bit-identical to its block of [`TlrCholesky::dense_a`]: every
    /// entry is a function of its global row and column alone.
    fn declare_tiles(&mut self, g: &mut GraphBuilder) {
        let nt = self.problem.nt();
        let ts = self.problem.tile_size;
        let model = RankModel::new(ts, self.problem.maxrank);
        let grid = self.numeric.then(|| Grid2d::new(self.problem.n));
        let (ls, nugget) = (self.problem.length_scale, self.problem.nugget);
        let mut rank_sum = 0.0;
        let mut bytes_sum = 0.0;
        let mut lr_count = 0.0;
        for i in 0..nt {
            for j in 0..=i {
                let owner = self.dist.owner(i * nt + j);
                match &grid {
                    Some(grid) => {
                        let (r0, c0) = (i as usize * ts, j as usize * ts);
                        let block = sqexp_covariance(grid, r0, c0, ts, ts, ls, nugget);
                        if i == j {
                            g.data(kd(nt, i), ts * ts * 8, owner, Some(block.to_bytes()));
                        } else {
                            let t =
                                LrTile::compress(&block, self.problem.tol, self.problem.maxrank);
                            rank_sum += t.rank() as f64;
                            bytes_sum += t.bytes() as f64;
                            lr_count += 1.0;
                            let ub = t.u_bytes();
                            let vb = t.v_bytes();
                            g.data(ku(nt, i, j), ub.len(), owner, Some(ub));
                            g.data(kv(nt, i, j), vb.len(), owner, Some(vb));
                        }
                    }
                    None => {
                        if i == j {
                            g.data(kd(nt, i), model.dense_bytes(), owner, None);
                        } else {
                            let fb = model.factor_bytes(i, j);
                            rank_sum += model.rank(i, j) as f64;
                            bytes_sum += 2.0 * fb as f64;
                            lr_count += 1.0;
                            g.data(ku(nt, i, j), fb, owner, None);
                            g.data(kv(nt, i, j), fb, owner, None);
                        }
                    }
                }
            }
        }
        if lr_count > 0.0 {
            self.stats.mean_rank = rank_sum / lr_count;
            self.stats.lr_tile_bytes_mean = bytes_sum / lr_count;
        }
    }

    /// Build the task graph with real kernels and real compressed tiles
    /// (Numeric mode). Suitable for modest `n`; verification via
    /// [`TlrCholesky::residual`].
    pub fn build_numeric(problem: TlrProblem, nodes: usize) -> (TlrCholesky, TaskGraph) {
        let mut me = Self::shell(problem, nodes, true);
        let mut g = GraphBuilder::new(nodes);
        me.declare_tiles(&mut g);
        me.insert_tasks(&mut g);
        me.collect_outputs(&g);
        (me, g.build())
    }

    /// Build the task graph from the calibrated [`RankModel`] with no
    /// payloads (CostOnly mode) — the paper-scale path.
    pub fn build_cost_only(problem: TlrProblem, nodes: usize) -> (TlrCholesky, TaskGraph) {
        let mut me = Self::shell(problem, nodes, false);
        let mut g = GraphBuilder::new(nodes);
        me.declare_tiles(&mut g);
        me.insert_tasks(&mut g);
        me.collect_outputs(&g);
        (me, g.build())
    }

    fn insert_tasks(&mut self, g: &mut GraphBuilder) {
        let nt = self.problem.nt();
        let mut cursor = Step::first(nt);
        while let Some(step) = cursor {
            self.insert_step(g, step);
            cursor = step.next(nt);
        }
    }

    /// Insert one task of the factorization.
    fn insert_step(&mut self, g: &mut GraphBuilder, step: Step) {
        let nt = self.problem.nt();
        let ts = self.problem.tile_size;
        let tol = self.problem.tol;
        let maxrank = self.problem.maxrank;
        let numeric = self.numeric;
        let flops = KernelFlops::new(ts);
        let model = RankModel::new(ts, maxrank);
        let rank_of = |i: u64, j: u64| model.rank(i, j);
        let prio = |k: u64, bonus: i64| ((nt - k) as i64) * 4 + bonus;

        match step {
            Step::Potrf(k) => {
                let owner = self.dist.owner(k * nt + k);
                let mut desc = TaskDesc::new("potrf")
                    .on_node(owner)
                    .flops(flops.potrf() / self.problem.potrf_speedup())
                    .efficiency(efficiency::POTRF)
                    .priority(prio(k, 3))
                    .read_key(kd(nt, k))
                    .write(kd(nt, k), ts * ts * 8);
                if numeric {
                    let ts2 = ts;
                    desc = desc.kernel(move |ins| {
                        let a = Matrix::from_bytes(ts2, ts2, &ins[0]);
                        let l = potrf(&a).expect("diagonal tile not SPD");
                        vec![l.to_bytes()]
                    });
                }
                self.stats.potrf += 1;
                self.stats.total_flops += flops.potrf();
                g.insert(desc);
            }
            Step::Trsm(i, k) => {
                // TRSM(i,k): touches only V (two-flow).
                let owner = self.dist.owner(i * nt + k);
                let r = rank_of(i, k);
                let mut desc = TaskDesc::new("trsm")
                    .on_node(owner)
                    .flops(flops.trsm(r))
                    .efficiency(efficiency::TRSM)
                    .priority(prio(k, 2))
                    .read_key(kd(nt, k))
                    .read_key(kv(nt, i, k))
                    .write(kv(nt, i, k), ts * r * 8);
                if numeric {
                    let ts2 = ts;
                    desc = desc.kernel(move |ins| {
                        let l = Matrix::from_bytes(ts2, ts2, &ins[0]);
                        let mut v = LrTile::factor_from_bytes(ts2, &ins[1]);
                        trsm_left_lower(&l, &mut v);
                        vec![v.to_bytes()]
                    });
                }
                self.stats.trsm += 1;
                self.stats.total_flops += flops.trsm(r);
                g.insert(desc);
            }
            Step::Syrk(i, k) => {
                // SYRK(i,k): dense diagonal update from the low-rank panel.
                let owner = self.dist.owner(i * nt + i);
                let r = rank_of(i, k);
                let mut desc = TaskDesc::new("syrk")
                    .on_node(owner)
                    .flops(flops.syrk(r))
                    .efficiency(efficiency::SYRK)
                    .priority(prio(k, if i == k + 1 { 2 } else { 1 }))
                    .read_key(ku(nt, i, k))
                    .read_key(kv(nt, i, k))
                    .read_key(kd(nt, i))
                    .write(kd(nt, i), ts * ts * 8);
                if numeric {
                    let ts2 = ts;
                    desc = desc.kernel(move |ins| {
                        let u = LrTile::factor_from_bytes(ts2, &ins[0]);
                        let v = LrTile::factor_from_bytes(ts2, &ins[1]);
                        let mut d = Matrix::from_bytes(ts2, ts2, &ins[2]);
                        let k = u.cols();
                        let mut vtv = Matrix::zeros(k, k);
                        gemm(1.0, &v, Trans::Yes, &v, Trans::No, 0.0, &mut vtv);
                        let mut uvtv = Matrix::zeros(ts2, k);
                        gemm(1.0, &u, Trans::No, &vtv, Trans::No, 0.0, &mut uvtv);
                        gemm(-1.0, &uvtv, Trans::No, &u, Trans::Yes, 1.0, &mut d);
                        vec![d.to_bytes()]
                    });
                }
                self.stats.syrk += 1;
                self.stats.total_flops += flops.syrk(r);
                g.insert(desc);
            }
            Step::Gemm(i, j, k) => {
                let owner = self.dist.owner(i * nt + j);
                let (ra, rb, rc) = (rank_of(i, k), rank_of(j, k), rank_of(i, j));
                let fl = flops.gemm(ra, rb, rc);
                let mut desc = TaskDesc::new("gemm")
                    .on_node(owner)
                    .flops(fl)
                    .efficiency(efficiency::GEMM_LR)
                    .priority(prio(k, if j == k + 1 { 1 } else { 0 }))
                    .read_key(ku(nt, i, k))
                    .read_key(kv(nt, i, k))
                    .read_key(ku(nt, j, k))
                    .read_key(kv(nt, j, k))
                    .read_key(ku(nt, i, j))
                    .read_key(kv(nt, i, j))
                    .write(ku(nt, i, j), ts * rc * 8)
                    .write(kv(nt, i, j), ts * rc * 8);
                if numeric {
                    let ts2 = ts;
                    desc = desc.kernel(move |ins| {
                        let u_ik = LrTile::factor_from_bytes(ts2, &ins[0]);
                        let v_ik = LrTile::factor_from_bytes(ts2, &ins[1]);
                        let u_jk = LrTile::factor_from_bytes(ts2, &ins[2]);
                        let v_jk = LrTile::factor_from_bytes(ts2, &ins[3]);
                        let c = LrTile {
                            u: LrTile::factor_from_bytes(ts2, &ins[4]),
                            v: LrTile::factor_from_bytes(ts2, &ins[5]),
                        };
                        // −L_ik·L_jkᵀ = −U_ik (V_ikᵀ V_jk) U_jkᵀ.
                        let mut small = Matrix::zeros(v_ik.cols(), v_jk.cols());
                        gemm(1.0, &v_ik, Trans::Yes, &v_jk, Trans::No, 0.0, &mut small);
                        let mut w = Matrix::zeros(ts2, v_jk.cols());
                        gemm(-1.0, &u_ik, Trans::No, &small, Trans::No, 0.0, &mut w);
                        let out = c.add_truncate(&w, &u_jk, tol, maxrank);
                        vec![out.u.to_bytes(), out.v.to_bytes()]
                    });
                }
                self.stats.gemm += 1;
                self.stats.total_flops += fl;
                g.insert(desc);
            }
        }
    }

    fn collect_outputs(&mut self, g: &GraphBuilder) {
        let nt = self.problem.nt();
        for k in 0..nt {
            self.diag_out
                .push(g.current(kd(nt, k)).expect("diag version"));
        }
        for i in 0..nt {
            for j in 0..i {
                let u = g.current(ku(nt, i, j)).expect("U version");
                let v = g.current(kv(nt, i, j)).expect("V version");
                self.lr_out.insert((i, j), (u, v));
            }
        }
    }

    /// Assemble the dense lower factor from a completed Numeric run and
    /// return the relative residual ‖A − L·Lᵀ‖_F / ‖A‖_F.
    pub fn residual(&self, cluster: &Cluster) -> f64 {
        let a = self.dense_a().expect("residual needs a Numeric build");
        let nt = self.problem.nt();
        let ts = self.problem.tile_size;
        let n = self.problem.n;
        let mut l = Matrix::zeros(n, n);
        for k in 0..nt {
            let b = cluster
                .data(self.diag_out[k as usize])
                .expect("diag tile data");
            let lt = Matrix::from_bytes(ts, ts, &b);
            // Keep only the lower triangle (POTRF output is lower).
            let block = Matrix::from_fn(ts, ts, |i, j| if i >= j { lt.get(i, j) } else { 0.0 });
            l.set_submatrix(k as usize * ts, k as usize * ts, &block);
        }
        for (&(i, j), &(uv, vv)) in &self.lr_out {
            let ub = cluster.data(uv).expect("U data");
            let vb = cluster.data(vv).expect("V data");
            let tile = LrTile {
                u: LrTile::factor_from_bytes(ts, &ub),
                v: LrTile::factor_from_bytes(ts, &vb),
            };
            l.set_submatrix(i as usize * ts, j as usize * ts, &tile.to_dense());
        }
        cholesky_residual(&a, &l)
    }
}

/// Incremental producer of the TLR Cholesky graph for
/// [`amt_core::Cluster::execute_windowed`]: yields tasks one at a time in
/// exactly the insertion order of the batch builders, so task and version
/// numbering match a full-unroll build of the same problem. The first pull
/// also declares all initial tiles.
pub struct TlrCholeskySource {
    me: TlrCholesky,
    declared: bool,
    cursor: Option<Step>,
}

impl TlrCholeskySource {
    /// CostOnly-mode source (no payloads) — the paper-scale path.
    pub fn cost_only(problem: TlrProblem, nodes: usize) -> TlrCholeskySource {
        let cursor = Step::first(problem.nt());
        TlrCholeskySource {
            me: TlrCholesky::shell(problem, nodes, false),
            declared: false,
            cursor,
        }
    }

    /// Numeric-mode source (real kernels on real compressed tiles).
    pub fn numeric(problem: TlrProblem, nodes: usize) -> TlrCholeskySource {
        let cursor = Step::first(problem.nt());
        TlrCholeskySource {
            me: TlrCholesky::shell(problem, nodes, true),
            declared: false,
            cursor,
        }
    }

    /// Construction statistics for the tasks produced so far.
    pub fn stats(&self) -> &CholeskyStats {
        &self.me.stats
    }
}

impl GraphSource for TlrCholeskySource {
    fn next_task(&mut self, g: &mut GraphBuilder) -> bool {
        let Some(step) = self.cursor else {
            return false;
        };
        if !self.declared {
            self.declared = true;
            self.me.declare_tiles(g);
        }
        self.me.insert_step(g, step);
        self.cursor = step.next(self.me.problem.nt());
        true
    }
}
