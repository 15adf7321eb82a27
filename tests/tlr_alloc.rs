//! One rounded TLR addition allocates a pinned number of heap blocks: the
//! two stacks (2), one thin QR of `[V Z]` (its panel, `Q` and `R`: 3),
//! the core `[U W]·Rvᵀ` (1), which the rounding takes by value and clones
//! nothing of, the rounding's column order and `R` diagonal (2), its two
//! factors `Q_k` — the new `U` — and `P·R_kᵀ` (2), and the new `V`,
//! `Qv·P·R_kᵀ` (1). A QR of `[U W]` coming back adds its `Q`, its `R`,
//! its panel and the product with its `Q`, and a copy of the core adds one;
//! either fails the pin. One test in a binary of its own, so the
//! process-wide counter counts nothing else.

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use amtlc::linalg::Matrix;
use amtlc::tlr::LrTile;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap blocks one warmed `add_truncate` allocates on 32 × 46 stacks.
const ADD_TRUNCATE_ALLOCS: u64 = 11;

fn pseudo(i: usize, j: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((j as u64).wrapping_mul(0xc2b2ae3d27d4eb4f));
    ((h >> 11) % 100_000) as f64 / 100_000.0 - 0.5
}

#[test]
fn one_rounded_addition_allocates_a_pinned_count() {
    // The shape of a `real_tlr` GEMM update: rank-23 factors on a 32 × 32
    // tile, graded columns so that the truncation at 1e-8 cuts.
    let graded = |di: usize, dj: usize| {
        Matrix::from_fn(32, 23, |i, j| {
            pseudo(i + di, j + dj) * 0.4f64.powi(j as i32)
        })
    };
    let t = LrTile {
        u: graded(0, 0),
        v: graded(40, 3),
    };
    let (w, z) = (graded(7, 50), graded(90, 20));
    let warm = t.add_truncate(&w, &z, 1e-8, 150);
    let snap = AllocSnapshot::now();
    let sum = t.add_truncate(&w, &z, 1e-8, 150);
    let allocs = snap.since().allocs;
    assert_eq!(sum, warm);
    assert_eq!(allocs, ADD_TRUNCATE_ALLOCS, "allocations per add_truncate");
}
