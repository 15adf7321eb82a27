//! A task graph owns O(chunks) heap blocks, not O(tasks): inserting a
//! task allocates nothing of its own (records, edges and consumer links
//! go into chunk- and graph-owned arenas; the descriptor's edge list is
//! the previous descriptor's, recycled), and the built graph stays
//! small. The shape is the benchmark's `real_stencil` (a 5-point stencil
//! over a 32 × 32 tile grid on 4 nodes, tiles owned at random), at 20
//! sweeps. One test in a binary of its own, so the process-wide counter
//! counts nothing else.

use amt_bench::alloc_count::{live_bytes, AllocSnapshot, CountingAlloc};
use amt_core::{GraphBuilder, TaskDesc};
use amt_simnet::DetRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NODES: usize = 4;
const TILES: i64 = 32;
const SWEEPS: usize = 20;
const BYTES: usize = 16 * 16 * 8;

/// One stencil task, built the way every caller builds one: a fresh
/// descriptor per task, inserted at once.
fn stencil_desc(owners: &[usize], r: i64, c: i64) -> TaskDesc {
    let key = |r: i64, c: i64| (r * TILES + c) as u64;
    let k = key(r, c);
    let mut desc = TaskDesc::new("stencil")
        .on_node(owners[k as usize])
        .flops(1280.0)
        .efficiency(0.15)
        .read_key(k)
        .write(k, BYTES);
    for (nr, nc) in [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)] {
        if (0..TILES).contains(&nr) && (0..TILES).contains(&nc) {
            desc = desc.read_key(key(nr, nc));
        }
    }
    desc
}

#[test]
fn inserting_a_task_allocates_nothing_of_its_own() {
    let mut rng = DetRng::seed_from_u64(3);
    let owners: Vec<usize> = (0..(TILES * TILES) as usize)
        .map(|_| rng.gen_usize(0..NODES))
        .collect();
    let tasks = SWEEPS * (TILES * TILES) as usize;
    assert_eq!(tasks, 20_480);

    let mut g = GraphBuilder::new(NODES);
    for (k, &owner) in owners.iter().enumerate() {
        g.data(k as u64, BYTES, owner, None);
    }
    let snap = AllocSnapshot::now();
    for _ in 0..SWEEPS {
        for r in 0..TILES {
            for c in 0..TILES {
                g.insert(stencil_desc(&owners, r, c));
            }
        }
    }
    let allocs = snap.since().allocs;
    assert!(allocs > 0, "the counting allocator is not installed");
    let graph = g.build();
    assert_eq!(graph.task_count(), tasks);
    let per_task = allocs as f64 / tasks as f64;
    assert!(
        per_task < 0.05,
        "{per_task:.3} allocations per inserted task"
    );

    let held = live_bytes();
    drop(graph);
    let bytes_per_task = (held - live_bytes()) as f64 / tasks as f64;
    assert!(
        bytes_per_task <= 260.0,
        "{bytes_per_task:.1} live graph bytes per task"
    );
}
