//! A real numeric run holds its working set, not every version it ever
//! made: each payload is freed once its last reader has it, and the TLR
//! builder generates A a tile at a time instead of as one `n × n` matrix.
//! Peak live heap over building and running a one-thread TLR Cholesky
//! stays within twice the bytes of the factor it produces (1.36× at this
//! writing; holding every version read 8.91×). One test in a binary of
//! its own, so the process-wide counter counts nothing else.

use std::collections::HashSet;

use amt_bench::alloc_count::{live_bytes, peak_live_bytes, reset_peak_live_bytes, CountingAlloc};
use amt_core::{Cluster, ClusterConfig, ExecMode, VersionId};
use amt_tlr::{TlrCholesky, TlrProblem};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_real_tlr_run_peaks_within_twice_its_factor() {
    let nodes = 4;
    let mut cluster = Cluster::new(ClusterConfig {
        nodes,
        mode: ExecMode::Numeric,
        ..Default::default()
    });
    reset_peak_live_bytes();
    let base = live_bytes();
    let (chol, graph) = TlrCholesky::build_numeric(TlrProblem::new(512, 32), nodes);
    let versions = graph.version_count();
    let report = cluster.execute_real(graph, 1);
    let peak = peak_live_bytes() - base;
    assert!(report.complete());

    let mut finals: HashSet<VersionId> = chol.diag_out.iter().copied().collect();
    finals.extend(chol.lr_out.values().flat_map(|&(u, v)| [u, v]));
    let factor: usize = finals
        .iter()
        .map(|&v| cluster.data(v).expect("final factor tile").len())
        .sum();
    let ratio = peak as f64 / factor as f64;
    assert!(
        ratio <= 2.0,
        "peak {peak} B over build and run is {ratio:.2}× the factor's {factor} B"
    );
    // Every version carries a payload here: the final ones keep theirs,
    // every superseded one is gone.
    for v in (0..versions).map(VersionId) {
        assert_eq!(
            cluster.data(v).is_some(),
            finals.contains(&v),
            "version {}",
            v.0
        );
    }
}
