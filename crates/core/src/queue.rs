//! Priority ready-queues for the per-node scheduler.
//!
//! The seed runtime ordered ready tasks and pending GETs with a
//! `BinaryHeap` keyed on `(priority, Reverse(seq))` — highest priority
//! first, earliest insertion first within a priority. TLR/dense workloads
//! use a *small* set of distinct priorities (the TLR builder emits
//! `4·(nt−k) + bonus`), so heap churn is pure overhead: [`BucketQueue`]
//! replaces it with one FIFO ring per priority plus a cursor over the
//! highest occupied ring, which reproduces the exact heap pop order because
//! sequence numbers are handed out monotonically — FIFO order within a
//! priority *is* ascending-seq order.
//!
//! Arbitrary priorities stay supported: when the priority span exceeds
//! [`MAX_SPAN`] buckets the queue migrates (permanently) to the seed's
//! heap. The seed structure itself survives only in the test module, as
//! the oracle (`RefReadyQueue`) that randomized lockstep tests prove
//! [`BucketQueue`] order-equivalent to.

use std::collections::{BinaryHeap, VecDeque};

/// A queued item with its ordering key. Pop order is `(priority,
/// Reverse(seq))` max-heap order: highest priority, then lowest seq.
pub(crate) struct Entry<T> {
    pub priority: i64,
    pub seq: u64,
    pub item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, std::cmp::Reverse(self.seq))
            .cmp(&(other.priority, std::cmp::Reverse(other.seq)))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Maximum bucket span before a [`BucketQueue`] migrates to its heap
/// fallback. Covers every priority range the in-repo workloads produce
/// (TLR uses ≤ `4·nt + 3` distinct values) with one `VecDeque` slot each.
pub(crate) const MAX_SPAN: usize = 4096;

/// Bucketed priority queue: one FIFO ring per priority level.
///
/// Push and pop are O(1) amortized — pop walks the cursor down over empty
/// rings it already drained, and each ring slot is only ever created once
/// per span extension. **Invariant**: callers push monotonically increasing
/// `seq` values (the scheduler's `next_seq` counter), which makes
/// ring-FIFO order identical to the reference heap's
/// `(priority, Reverse(seq))` order.
pub(crate) struct BucketQueue<T> {
    /// `rings[i]` holds entries of priority `base + i`.
    rings: VecDeque<VecDeque<(u64, T)>>,
    /// Priority of `rings[0]`. Meaningless while `rings` is empty.
    base: i64,
    /// Upper bound on the highest non-empty ring index.
    top: usize,
    len: usize,
    /// Permanent fallback once the priority span exceeds [`MAX_SPAN`].
    heap: Option<BinaryHeap<Entry<T>>>,
}

impl<T> BucketQueue<T> {
    pub fn new() -> Self {
        BucketQueue {
            rings: VecDeque::new(),
            base: 0,
            top: 0,
            len: 0,
            heap: None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Move every queued entry into the heap fallback; all later
    /// operations use the heap. Heap ordering re-derives the exact pop
    /// order from the stored `(priority, seq)` keys.
    fn spill_to_heap(&mut self) {
        let mut heap = BinaryHeap::with_capacity(self.len);
        for (i, ring) in self.rings.iter_mut().enumerate() {
            let priority = self.base + i as i64;
            for (seq, item) in ring.drain(..) {
                heap.push(Entry {
                    priority,
                    seq,
                    item,
                });
            }
        }
        self.rings = VecDeque::new();
        self.heap = Some(heap);
    }

    pub fn push(&mut self, priority: i64, seq: u64, item: T) {
        self.len += 1;
        if let Some(h) = &mut self.heap {
            h.push(Entry {
                priority,
                seq,
                item,
            });
            return;
        }
        if self.rings.is_empty() {
            self.base = priority;
            self.rings.push_back(VecDeque::new());
            self.top = 0;
        }
        if priority < self.base {
            let shift = (self.base - priority) as usize;
            if shift.saturating_add(self.rings.len()) > MAX_SPAN {
                self.spill_to_heap();
                return self.push_spilled(priority, seq, item);
            }
            for _ in 0..shift {
                self.rings.push_front(VecDeque::new());
            }
            self.base = priority;
            self.top += shift;
        }
        let idx = (priority - self.base) as usize;
        if idx >= self.rings.len() {
            if idx + 1 > MAX_SPAN {
                self.spill_to_heap();
                return self.push_spilled(priority, seq, item);
            }
            while self.rings.len() <= idx {
                self.rings.push_back(VecDeque::new());
            }
        }
        self.rings[idx].push_back((seq, item));
        self.top = self.top.max(idx);
    }

    /// Continuation of a push that triggered the heap migration (`len` was
    /// already bumped).
    fn push_spilled(&mut self, priority: i64, seq: u64, item: T) {
        self.heap.as_mut().expect("just spilled").push(Entry {
            priority,
            seq,
            item,
        });
    }

    /// Lower `top` onto the highest non-empty ring. Caller guarantees
    /// `len > 0` and ring mode.
    fn settle_top(&mut self) {
        let mut i = self.top.min(self.rings.len() - 1);
        while self.rings[i].is_empty() {
            debug_assert!(i > 0, "len > 0 but all rings empty");
            i -= 1;
        }
        self.top = i;
    }

    pub fn pop(&mut self) -> Option<Entry<T>> {
        if let Some(h) = &mut self.heap {
            let e = h.pop();
            if e.is_some() {
                self.len -= 1;
            }
            return e;
        }
        if self.len == 0 {
            return None;
        }
        self.settle_top();
        let (seq, item) = self.rings[self.top]
            .pop_front()
            .expect("settled on non-empty");
        self.len -= 1;
        Some(Entry {
            priority: self.base + self.top as i64,
            seq,
            item,
        })
    }

    pub fn peek(&mut self) -> Option<&T> {
        if self.heap.is_none() {
            if self.len == 0 {
                return None;
            }
            self.settle_top();
        }
        match &self.heap {
            Some(h) => h.peek().map(|e| &e.item),
            None => self.rings[self.top].front().map(|(_, item)| item),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_simnet::rng::DetRng;

    /// The seed's `BinaryHeap` ready queue: the oracle the lockstep
    /// tests hold [`BucketQueue`] to.
    struct RefReadyQueue<T> {
        heap: BinaryHeap<Entry<T>>,
    }

    impl<T> RefReadyQueue<T> {
        fn new() -> Self {
            RefReadyQueue {
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, priority: i64, seq: u64, item: T) {
            self.heap.push(Entry {
                priority,
                seq,
                item,
            });
        }

        fn pop(&mut self) -> Option<Entry<T>> {
            self.heap.pop()
        }

        fn peek(&mut self) -> Option<&T> {
            self.heap.peek().map(|e| &e.item)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    /// Drive both queues through an identical randomized workload
    /// (interleaved push/pop, duplicate and negative priorities, seqs from
    /// a monotone counter exactly like `NodeRt::next_seq`) and assert every
    /// pop agrees.
    fn lockstep(seed: u64, ops: usize, priorities: &[i64]) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut bucket = BucketQueue::new();
        let mut reference = RefReadyQueue::new();
        let mut seq = 0u64;
        for _ in 0..ops {
            if rng.gen_bool(0.55) || bucket.is_empty() {
                let p = *rng.choose(priorities);
                bucket.push(p, seq, seq);
                reference.push(p, seq, seq);
                seq += 1;
            } else {
                if rng.gen_bool(0.3) {
                    assert_eq!(bucket.peek(), reference.peek(), "peek diverged");
                }
                let b = bucket.pop().expect("non-empty");
                let r = reference.pop().expect("non-empty");
                assert_eq!(
                    (b.priority, b.seq, b.item),
                    (r.priority, r.seq, r.item),
                    "pop diverged"
                );
            }
            assert_eq!(bucket.len, reference.len());
        }
        // Drain: the full remaining order must agree too.
        while let Some(r) = reference.pop() {
            let b = bucket.pop().expect("same length");
            assert_eq!((b.priority, b.seq, b.item), (r.priority, r.seq, r.item));
        }
        assert!(bucket.is_empty());
    }

    #[test]
    fn lockstep_small_dense_priorities() {
        // The TLR shape: a handful of adjacent levels, heavy duplication.
        lockstep(0x5eed_0001, 4000, &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn lockstep_negative_and_sparse_priorities() {
        lockstep(0x5eed_0002, 4000, &[-37, -2, -1, 0, 3, 800, 801, 2047]);
    }

    #[test]
    fn lockstep_across_heap_migration() {
        // Span far beyond MAX_SPAN: starts bucketed, migrates mid-stream,
        // order must be seamless across the spill.
        let priorities = [-5_000_000, -400, 0, 1, 2, 900_000, 12_345_678];
        lockstep(0x5eed_0003, 4000, &priorities);
    }

    #[test]
    fn lockstep_many_seeds() {
        for s in 0..32u64 {
            lockstep(0xbeef ^ s, 600, &[-3, -1, 0, 0, 2, 5, 9]);
        }
    }

    #[test]
    fn migration_is_permanent_and_lossless() {
        let mut q = BucketQueue::new();
        for i in 0..10 {
            q.push(i, i as u64, i);
        }
        q.push(MAX_SPAN as i64 * 3, 10, 99); // forces the spill
        assert!(q.heap.is_some());
        assert_eq!(q.len, 11);
        let first = q.pop().expect("non-empty");
        assert_eq!((first.priority, first.item), (MAX_SPAN as i64 * 3, 99));
        let mut seen = 0;
        while q.pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 10);
        assert!(q.heap.is_some(), "fallback is permanent");
    }

    #[test]
    fn fifo_within_one_priority() {
        let mut q = BucketQueue::new();
        for s in 0..100u64 {
            q.push(7, s, s);
        }
        for s in 0..100u64 {
            assert_eq!(q.pop().expect("queued").item, s);
        }
    }
}
