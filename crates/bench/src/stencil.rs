//! Five-point stencil task-graph builder — the communication-bound halo
//! exchange pattern shared by the `stencil` example and the tests.
//!
//! The domain is a `tiles × tiles` grid (one task per tile per sweep);
//! each sweep's task reads its own tile plus the four neighbour tiles
//! from the previous sweep, so tile boundaries crossing node boundaries
//! become runtime dataflows.

use amt_core::{DataDist, GraphBuilder, TaskDesc, TaskGraph, TileDist2d};

/// Build `sweeps` iterations of a 5-point stencil over a `tiles × tiles`
/// grid of `tile_elems²` f64 tiles distributed by `dist` (cost-only: no
/// kernels, declared sizes drive the protocol).
pub fn build_stencil(tiles: u64, tile_elems: usize, sweeps: u64, dist: &TileDist2d) -> TaskGraph {
    let nodes = dist.nodes();
    let mut g = GraphBuilder::new(nodes);
    let bytes = tile_elems * tile_elems * 8;
    // 5-point update: ~5 flops per element per sweep.
    let flops = 5.0 * (tile_elems * tile_elems) as f64;

    for r in 0..tiles {
        for c in 0..tiles {
            g.data(dist.key(r, c), bytes, dist.owner(dist.key(r, c)), None);
        }
    }
    for _s in 0..sweeps {
        for r in 0..tiles {
            for c in 0..tiles {
                let key = dist.key(r, c);
                let mut desc = TaskDesc::new("stencil")
                    .on_node(dist.owner(key))
                    .flops(flops)
                    .efficiency(0.15) // stencils are memory-bound
                    .read_key(key)
                    .write(key, bytes);
                for (dr, dc) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                    let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                    if nr >= 0 && nc >= 0 && (nr as u64) < tiles && (nc as u64) < tiles {
                        desc = desc.read_key(dist.key(nr as u64, nc as u64));
                    }
                }
                g.insert(desc);
            }
        }
    }
    g.build()
}
