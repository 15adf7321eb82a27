//! A pooled buffer is allocated once, not once per trip: `BytesMut` owns
//! its `Arc` from the start, `freeze` moves it and `recycle` hands the same
//! one back. One test in a binary of its own, so the process-wide counter
//! counts nothing else.

use amt_bench::alloc_count::{AllocSnapshot, CountingAlloc};
use bytes::{Bytes, BytesMut, SharedBufPool};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn trip(take: impl Fn(usize) -> BytesMut, recycle: impl Fn(Bytes) -> bool) -> u64 {
    let snap = AllocSnapshot::now();
    let mut b = take(48);
    b.extend_from_slice(&[7u8; 48]);
    assert!(recycle(b.freeze()));
    snap.since().allocs
}

#[test]
fn second_trip_through_a_pool_allocates_nothing() {
    let shared = SharedBufPool::new(4);
    let first = trip(|n| shared.take(n), |b| shared.recycle(b));
    assert!(first >= 1, "the counting allocator is not installed");
    assert_eq!(trip(|n| shared.take(n), |b| shared.recycle(b)), 0);
    assert_eq!(shared.reuse_stats(), (1, 1));

    // An immediate `Bytes` never allocates at all.
    let snap = AllocSnapshot::now();
    let rec = Bytes::inline(&[1u8; 34]).expect("fits the handle");
    assert!(!shared.recycle(rec.clone()) && rec.len() == 34);
    assert_eq!(snap.since().allocs, 0);
}
