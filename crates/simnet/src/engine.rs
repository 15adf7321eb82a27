//! The event loop: a virtual clock plus a deterministic two-level
//! ladder/calendar queue of events.
//!
//! ## Queue structure
//!
//! The seed engine kept every pending event in one `BinaryHeap`, paying a
//! `Box<dyn FnOnce>` allocation and an O(log n) sift per event. This engine
//! splits the pending set three ways, ordered by how hot each path is:
//!
//! * **now queue** — events scheduled for the *current* instant
//!   (`schedule_now`, or `schedule_at(now)`). They bypass the time index
//!   entirely: a plain FIFO push, popped in insertion (= seq) order.
//! * **solo slot** — the single-outstanding-timer fast path. When a
//!   non-cancelable timed event arrives and nothing else timed is pending
//!   (the dominant pattern: progress polls, serialized NIC sends), it
//!   parks closure-and-all in one field; schedule + pop touch no other
//!   structure. A second timed event demotes it into the ladder.
//! * **ladder ring** — a ring of [`NUM_BUCKETS`] buckets, each covering
//!   `2^BUCKET_BITS` ns of virtual time. An event at time `t` lands in
//!   bucket `t >> BUCKET_BITS`; insertion is an O(1) push. A bucket is
//!   sorted lazily — only when the cursor reaches it — and drained in
//!   place through `cur_pos`. An occupancy bitmap (one bit per bucket)
//!   hops the cursor over empty-bucket runs, so sparse timelines don't
//!   pay a per-bucket scan.
//! * **far heap** — events beyond the ring window wait in a small
//!   `BinaryHeap` and migrate into the ring as the window advances.
//!
//! Event bodies live in a **slab** with a free list: a queue node is a
//! 24-byte `Entry` (time, seq, slot), and the closure itself is an
//! [`EventFn`] stored inline in the slot when its captures fit three words.
//! In steady state neither scheduling nor executing an event touches the
//! allocator.
//!
//! ## Determinism
//!
//! Execution order is *exactly* the `(time, seq)` total order of the seed
//! engine — `seq` is a monotonic counter assigned at `schedule_*` time:
//!
//! * Across buckets, lower `t` drains first; within a bucket the lazy sort
//!   orders by `(time, seq)`.
//! * Every now-queue event was scheduled *while* `now` held its time, so
//!   its seq is strictly greater than any same-time entry still sitting in
//!   the ladder (those were scheduled before the clock reached that time).
//!   Hence: drain ladder entries at `now` first, then the now queue, then
//!   advance the clock — which is exactly ascending `(time, seq)`.
//!
//! Cancellation ([`Sim::cancel`]) frees the slot immediately and leaves a
//! *stale* queue entry behind; stale entries are recognised (slot seq
//! mismatch, or slot empty) and skipped during the drain. Sequence numbers
//! are never reused, so a recycled slot can never be confused with the
//! event that previously occupied it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::EventFn;
use crate::time::SimTime;

/// log2 of the ladder bucket width in nanoseconds (4.096 µs buckets).
const BUCKET_BITS: u32 = 12;
/// Number of ladder buckets (a power of two). The near window covers
/// `NUM_BUCKETS << BUCKET_BITS` ns ≈ 4.2 ms of virtual time; events beyond
/// it wait in the far heap. Sized so the ring's resident footprint stays
/// small: the far heap holds only *live* far-future events (a handful —
/// long task completions), while every ring bucket retains capacity and
/// collects cancellation tombstones until the cursor passes it.
const NUM_BUCKETS: usize = 1024;
/// Words in the bucket-occupancy bitmap (one bit per ring slot).
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// Bucket length at which stale-entry compaction kicks in, and the
/// capacity a drained bucket is allowed to keep. Bounds ladder memory at
/// roughly `NUM_BUCKETS * COMPACT_MIN` entries plus the live population.
const COMPACT_MIN: usize = 8;

#[inline]
fn bucket_of(t: SimTime) -> u64 {
    t.as_ns() >> BUCKET_BITS
}

#[inline]
fn ring_idx(bucket: u64) -> usize {
    (bucket as usize) & (NUM_BUCKETS - 1)
}

/// A queue node: the slab slot holding the closure plus the `(time, seq)`
/// pair that fixes its place in the total order.
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

/// Far-heap wrapper ordered by `(time, seq)`; the slot does not participate
/// (`(time, seq)` is already unique).
struct FarEntry(Entry);

impl PartialEq for FarEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.0.time, self.0.seq) == (other.0.time, other.0.seq)
    }
}
impl Eq for FarEntry {}
impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.time, self.0.seq).cmp(&(other.0.time, other.0.seq))
    }
}

/// One slab cell. `seq` identifies the occupying event; queue entries whose
/// seq disagrees (or that find the cell empty) are stale.
struct Slot {
    seq: u64,
    f: Option<EventFn>,
}

/// Handle to a pending event, returned by [`Sim::schedule_at_cancelable`].
#[derive(Clone, Copy, Debug)]
pub struct EventToken {
    slot: u32,
    seq: u64,
}

/// The parked single outstanding timer (see [`Sim::solo`]): not cancelable,
/// so it carries its closure directly instead of a slab slot.
struct SoloEvent {
    time: SimTime,
    seq: u64,
    f: EventFn,
}

/// A now-queue element. FIFO position fixes the order, so non-cancelable
/// events carry their closure inline; only cancelable ones need a slab
/// slot (for the liveness check).
enum NowItem {
    Direct(EventFn),
    Slab(Entry),
}

/// The simulation engine.
///
/// `Sim` owns the virtual clock and the pending-event queue. All simulation
/// activity happens inside events: an event may inspect/mutate components it
/// has captured and schedule further events.
pub struct Sim {
    now: SimTime,
    seq: u64,
    /// Same-instant fast path (see module docs).
    now_q: VecDeque<NowItem>,
    /// Ladder buckets; bucket `b` lives at `ring[b % NUM_BUCKETS]`.
    ring: Vec<Vec<Entry>>,
    /// Absolute bucket id the ring window starts at (the cursor).
    cur_bucket: u64,
    /// Whether the current bucket has been sorted for draining.
    cur_sorted: bool,
    /// Next unconsumed index into the sorted current bucket.
    cur_pos: usize,
    /// Entries in `ring`, stale included, minus the consumed prefix of the
    /// current bucket.
    ring_len: usize,
    /// One bit per ring slot: set iff the bucket's `Vec` is non-empty. Lets
    /// the cursor hop over runs of empty buckets in O(1) instead of
    /// visiting each one (the classic calendar-queue sparse-timeline tax).
    occ: [u64; OCC_WORDS],
    /// Fast path for the ubiquitous single-outstanding-timer pattern
    /// (progress polls, serialized NIC sends): while no *other* timed event
    /// is pending, a non-cancelable event parks here — closure included —
    /// and touches neither the ladder nor the slab. Any later timed insert
    /// demotes it into the ring first, so `solo.is_some()` implies the ring
    /// and far heap are empty.
    solo: Option<SoloEvent>,
    far: BinaryHeap<Reverse<FarEntry>>,
    slab: Vec<Slot>,
    free: Vec<u32>,
    /// Live (scheduled, not cancelled, not executed) events.
    pending: usize,
    /// High-water mark of `pending` — the event-storage footprint driver.
    peak_pending: usize,
    executed: u64,
    clamped: u64,
    inline_events: u64,
    boxed_events: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            now_q: VecDeque::new(),
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            cur_bucket: 0,
            cur_sorted: false,
            cur_pos: 0,
            ring_len: 0,
            occ: [0; OCC_WORDS],
            solo: None,
            far: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            pending: 0,
            peak_pending: 0,
            executed: 0,
            clamped: 0,
            inline_events: 0,
            boxed_events: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (engine-throughput metric).
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (cancelled events excluded).
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.pending
    }

    /// High-water mark of [`events_pending`](Self::events_pending) — the
    /// peak simultaneously materialized event population, which bounds the
    /// engine's retained queue/slab memory.
    #[inline]
    pub fn events_peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Times a release build clamped a past-time `schedule_at` to `now`.
    ///
    /// Past scheduling is a model bug: debug builds panic, release builds
    /// clamp to keep running deterministically — but count here so the slip
    /// is visible in `metrics_report` instead of silent.
    #[inline]
    pub fn schedule_past_clamped(&self) -> u64 {
        self.clamped
    }

    /// Events whose captures fit the [`EventFn`] inline buffer (no
    /// allocation).
    #[inline]
    pub fn events_inline(&self) -> u64 {
        self.inline_events
    }

    /// Events whose captures were too large to inline and were boxed.
    #[inline]
    pub fn events_boxed(&self) -> u64 {
        self.boxed_events
    }

    // ----- scheduling -----

    /// Schedule `body` to run at absolute virtual time `at`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// in release builds the event is clamped to `now` (runs "immediately",
    /// preserving determinism) and counted in
    /// [`schedule_past_clamped`](Self::schedule_past_clamped).
    #[inline]
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, body: F) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        if EventFn::fits_inline::<F>() {
            self.inline_events += 1;
        } else {
            self.boxed_events += 1;
        }
        if at == self.now {
            // Not cancelable: the closure rides the FIFO directly.
            self.seq += 1;
            self.pending += 1;
            self.peak_pending = self.peak_pending.max(self.pending);
            self.now_q.push_back(NowItem::Direct(EventFn::new(body)));
            return;
        }
        if let Some(s) = self.solo.take() {
            self.demote_solo(s);
        }
        if self.ring_len == 0 && self.far.is_empty() {
            // Not cancelable, so the closure parks directly in `solo` —
            // no slab slot, no liveness checks.
            let seq = self.seq;
            self.seq += 1;
            self.pending += 1;
            self.peak_pending = self.peak_pending.max(self.pending);
            self.solo = Some(SoloEvent {
                time: at,
                seq,
                f: EventFn::new(body),
            });
            return;
        }
        self.push_at(at, EventFn::new(body));
    }

    /// Like [`schedule_at`](Self::schedule_at), returning a token that can
    /// later [`cancel`](Self::cancel) the event.
    pub fn schedule_at_cancelable<F: FnOnce(&mut Sim) + 'static>(
        &mut self,
        at: SimTime,
        body: F,
    ) -> EventToken {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        if EventFn::fits_inline::<F>() {
            self.inline_events += 1;
        } else {
            self.boxed_events += 1;
        }
        self.push_at(at, EventFn::new(body))
    }

    /// Schedule `body` to run `delay` after the current virtual time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, body: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, body);
    }

    /// Schedule `body` to run at the current virtual instant, after all
    /// events already scheduled for this instant. Bypasses the time index.
    #[inline]
    pub fn schedule_now(&mut self, body: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now, body);
    }

    /// Schedule an already-wrapped [`EventFn`] at the current instant.
    ///
    /// Lets components that queue event bodies (e.g. waiter lists) hand
    /// them back without re-wrapping.
    pub fn schedule_now_fn(&mut self, f: EventFn) {
        self.seq += 1;
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
        self.now_q.push_back(NowItem::Direct(f));
    }

    /// Cancel a pending event. Returns `true` if the event was still
    /// pending (it will not run); `false` if it already ran or was already
    /// cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        match self.slab.get_mut(token.slot as usize) {
            Some(s) if s.seq == token.seq && s.f.is_some() => {
                s.f = None;
                self.free.push(token.slot);
                self.pending -= 1;
                true
            }
            _ => false,
        }
    }

    fn push_at(&mut self, at: SimTime, f: EventFn) -> EventToken {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(seq, f);
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
        let e = Entry {
            time: at,
            seq,
            slot,
        };
        if at == self.now {
            self.now_q.push_back(NowItem::Slab(e));
        } else {
            // The parked timer, if any, carries a smaller seq and must be
            // orderable against this entry: fold it into the ladder first.
            if let Some(s) = self.solo.take() {
                self.demote_solo(s);
            }
            self.insert_timed(e);
        }
        EventToken { slot, seq }
    }

    /// Move the parked solo event into the ladder (its `pending` count was
    /// taken at schedule time, so only the slab slot is new).
    fn demote_solo(&mut self, s: SoloEvent) {
        let slot = self.alloc(s.seq, s.f);
        self.insert_timed(Entry {
            time: s.time,
            seq: s.seq,
            slot,
        });
    }

    fn alloc(&mut self, seq: u64, f: EventFn) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let s = &mut self.slab[i as usize];
                s.seq = seq;
                s.f = Some(f);
                i
            }
            None => {
                self.slab.push(Slot { seq, f: Some(f) });
                (self.slab.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn is_live(&self, e: &Entry) -> bool {
        let s = &self.slab[e.slot as usize];
        s.seq == e.seq && s.f.is_some()
    }

    /// Take the closure out of a live entry's slot and recycle the slot.
    fn consume(&mut self, e: Entry) -> EventFn {
        let s = &mut self.slab[e.slot as usize];
        debug_assert_eq!(s.seq, e.seq);
        let f = s.f.take().expect("consuming a stale entry");
        self.free.push(e.slot);
        self.pending -= 1;
        f
    }

    fn insert_timed(&mut self, e: Entry) {
        let b = bucket_of(e.time);
        if b < self.cur_bucket {
            // The cursor overtook this bucket — possible only after
            // `run_until` scanned ahead of its deadline. Fold the ring back
            // so the window starts at `b` again.
            self.rebase(b);
        }
        if b >= self.cur_bucket + NUM_BUCKETS as u64 {
            self.far.push(Reverse(FarEntry(e)));
            return;
        }
        let idx = ring_idx(b);
        let v = &mut self.ring[idx];
        if b == self.cur_bucket && self.cur_sorted && v.last().is_some_and(|l| l.time > e.time) {
            // Keep the unconsumed tail of the current bucket sorted. The
            // new seq is the largest, so position on time alone. (Monotone
            // inserts — the common case — take the `push` below instead.)
            let pos = self.cur_pos + v[self.cur_pos..].partition_point(|x| x.time <= e.time);
            v.insert(pos, e);
        } else {
            v.push(e);
        }
        let full = v.len() == v.capacity() && v.len() >= COMPACT_MIN;
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
        self.ring_len += 1;
        // Cancel-heavy components (deferred GETs, retry timers) leave
        // stale tombstones behind; sweep a bucket when it fills so debris
        // can't inflate its capacity. Never the current bucket: its
        // consumed prefix must stay in place for `cur_pos`.
        if full && b != self.cur_bucket {
            self.compact_bucket(idx);
        }
    }

    /// Drop stale (cancelled) entries from bucket `idx` and return the
    /// capacity to a sane level if mostly debris. Order is irrelevant —
    /// the bucket is sorted lazily at drain time.
    fn compact_bucket(&mut self, idx: usize) {
        let slab = &self.slab;
        let v = &mut self.ring[idx];
        let before = v.len();
        v.retain(|e| {
            let s = &slab[e.slot as usize];
            s.seq == e.seq && s.f.is_some()
        });
        self.ring_len -= before - v.len();
        if v.len() * 4 <= v.capacity() {
            v.shrink_to(v.len().max(COMPACT_MIN));
        }
    }

    /// Reset a drained bucket, clamping capacity a burst left behind.
    /// Small capacities are kept so steadily cycling buckets don't pay a
    /// realloc per ring pass.
    fn clear_bucket(&mut self, idx: usize) {
        let v = &mut self.ring[idx];
        v.clear();
        if v.capacity() > 4 * COMPACT_MIN {
            v.shrink_to(COMPACT_MIN);
        }
        self.occ[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Move the window start back to `new_bucket`, re-filing every
    /// unconsumed ring entry (and dropping stale ones).
    fn rebase(&mut self, new_bucket: u64) {
        debug_assert!(new_bucket >= bucket_of(self.now));
        let mut saved: Vec<Entry> = Vec::with_capacity(self.ring_len);
        let cur_idx = ring_idx(self.cur_bucket);
        for (i, v) in self.ring.iter_mut().enumerate() {
            let consumed = if i == cur_idx { self.cur_pos } else { 0 };
            saved.extend(v.drain(..).skip(consumed));
        }
        self.cur_bucket = new_bucket;
        self.cur_sorted = false;
        self.cur_pos = 0;
        self.ring_len = 0;
        self.occ = [0; OCC_WORDS];
        for e in saved {
            if self.is_live(&e) {
                self.insert_timed(e);
            }
        }
    }

    /// Pull far-heap entries that now fall inside the ring window.
    fn migrate_far(&mut self) {
        debug_assert!(!self.cur_sorted);
        let end = self.cur_bucket + NUM_BUCKETS as u64;
        while let Some(Reverse(fe)) = self.far.peek() {
            let b = bucket_of(fe.0.time);
            if b >= end {
                break;
            }
            debug_assert!(b >= self.cur_bucket);
            let Reverse(FarEntry(e)) = self.far.pop().expect("peeked above");
            let idx = ring_idx(b);
            self.ring[idx].push(e);
            self.occ[idx >> 6] |= 1u64 << (idx & 63);
            self.ring_len += 1;
        }
    }

    /// Distance (in buckets, ≥ 1) from `cur_bucket` to the next non-empty
    /// ring slot, scanning the occupancy bitmap circularly. `None` when no
    /// other bucket holds entries. The current bucket's own bit must be
    /// cleared before calling.
    fn occ_next_delta(&self) -> Option<u64> {
        let start = ring_idx(self.cur_bucket);
        let w0 = start >> 6;
        let b0 = (start & 63) as u32;
        // Bits strictly after `start` within its word.
        if b0 < 63 {
            let w = self.occ[w0] & (!0u64 << (b0 + 1));
            if w != 0 {
                return Some((w.trailing_zeros() - b0) as u64);
            }
        }
        for k in 1..=OCC_WORDS {
            let wi = (w0 + k) & (OCC_WORDS - 1);
            let w = self.occ[wi];
            if w != 0 {
                let idx = (wi << 6) + w.trailing_zeros() as usize;
                let delta = (idx + NUM_BUCKETS - start) & (NUM_BUCKETS - 1);
                debug_assert!(delta > 0, "start bit should have been cleared");
                return Some(delta as u64);
            }
        }
        None
    }

    /// First live entry of the current bucket (sorting lazily, purging
    /// stale entries), without advancing past the bucket. Afterwards the
    /// entry, if any, sits at `ring[cur][cur_pos]`.
    fn current_bucket_live(&mut self) -> Option<Entry> {
        let idx = ring_idx(self.cur_bucket);
        if !self.cur_sorted {
            debug_assert_eq!(self.cur_pos, 0);
            self.ring[idx].sort_unstable_by_key(|e| (e.time, e.seq));
            self.cur_sorted = true;
        }
        let mut pos = self.cur_pos;
        let found = loop {
            match self.ring[idx].get(pos) {
                None => break None,
                Some(&e) => {
                    if self.is_live(&e) {
                        break Some(e);
                    }
                    pos += 1;
                }
            }
        };
        self.ring_len -= pos - self.cur_pos;
        self.cur_pos = pos;
        found
    }

    /// Next live timed (non-now-queue, non-solo) entry, advancing the
    /// window as needed. The bitmap hops the cursor straight to the next
    /// non-empty bucket; when the ring is empty it jumps to the earliest
    /// far bucket.
    fn timed_candidate(&mut self) -> Option<Entry> {
        loop {
            if let Some(e) = self.current_bucket_live() {
                return Some(e);
            }
            let idx = ring_idx(self.cur_bucket);
            self.clear_bucket(idx);
            self.cur_pos = 0;
            self.cur_sorted = false;
            if let Some(d) = self.occ_next_delta() {
                // Next occupied ring bucket: always at or before the far
                // heap's minimum (far entries sit beyond the window end).
                self.cur_bucket += d;
            } else if let Some(Reverse(fe)) = self.far.peek() {
                self.cur_bucket = bucket_of(fe.0.time);
            } else {
                return None;
            }
            self.migrate_far();
        }
    }

    /// Remove and return the entry `current_bucket_live` halted on.
    fn take_current(&mut self, e: Entry) -> EventFn {
        self.cur_pos += 1;
        self.ring_len -= 1;
        self.consume(e)
    }

    /// Pop the solo event, folding the cursor forward so the window starts
    /// at the new `now`.
    fn take_solo(&mut self, s: SoloEvent) -> EventFn {
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        self.pending -= 1;
        let b = bucket_of(s.time);
        if b > self.cur_bucket {
            // Only the current bucket can hold residue (its consumed
            // prefix): the ring is otherwise empty while `solo` is set.
            let idx = ring_idx(self.cur_bucket);
            self.clear_bucket(idx);
            self.cur_pos = 0;
            self.cur_sorted = false;
            self.cur_bucket = b;
        }
        s.f
    }

    /// Drop stale (cancelled) slab-backed items from the now-queue front.
    fn purge_now_front(&mut self) {
        while let Some(NowItem::Slab(e)) = self.now_q.front() {
            if self.is_live(e) {
                break;
            }
            self.now_q.pop_front();
        }
    }

    /// Pop the next live event in `(time, seq)` order, advancing `now`.
    fn pop_next(&mut self) -> Option<EventFn> {
        self.purge_now_front();
        if self.now_q.is_empty() {
            if let Some(s) = self.solo.take() {
                return Some(self.take_solo(s));
            }
            let e = self.timed_candidate()?;
            debug_assert!(e.time >= self.now, "event queue went backwards");
            self.now = e.time;
            return Some(self.take_current(e));
        }
        // A live now-queue event exists. Same-instant entries still in the
        // current bucket carry smaller seqs and must run first. (`solo`
        // never competes: its time is strictly in the future.)
        if self.cur_bucket == bucket_of(self.now) {
            if let Some(e) = self.current_bucket_live() {
                if e.time == self.now {
                    return Some(self.take_current(e));
                }
            }
        }
        match self.now_q.pop_front().expect("checked non-empty") {
            NowItem::Direct(f) => {
                self.pending -= 1;
                Some(f)
            }
            NowItem::Slab(e) => Some(self.consume(e)),
        }
    }

    /// Virtual time of the next live event, without executing anything.
    /// (Lazily discards cancelled entries encountered along the way.)
    fn peek_time(&mut self) -> Option<SimTime> {
        self.purge_now_front();
        if !self.now_q.is_empty() {
            return Some(self.now);
        }
        if let Some(s) = &self.solo {
            return Some(s.time);
        }
        self.timed_candidate().map(|e| e.time)
    }

    // ----- execution -----

    /// Execute a single event if one is pending. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        match self.pop_next() {
            Some(f) => {
                self.executed += 1;
                f.invoke(self);
                true
            }
            None => false,
        }
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or virtual time would exceed `deadline`.
    ///
    /// Events scheduled exactly at `deadline` still execute. Returns `true`
    /// if the queue drained, `false` if the deadline stopped the run (the
    /// first too-late event remains queued and the clock does not advance
    /// past `deadline`).
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        loop {
            match self.peek_time() {
                None => return true,
                Some(t) if t > deadline => return false,
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run at most `max_events` events. Returns the number executed.
    pub fn run_events(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared;

    #[test]
    fn empty_sim_is_idle() {
        let mut sim = Sim::new();
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for &t in &[5u64, 1, 3, 2, 4] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::from_us(5));
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for i in 0..10 {
            let log = log.clone();
            sim.schedule_at(SimTime::from_us(7), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let l2 = log.clone();
        sim.schedule_in(SimTime::from_us(1), move |sim| {
            l2.borrow_mut().push(sim.now());
            sim.schedule_in(SimTime::from_us(2), move |sim| {
                l2.borrow_mut().push(sim.now());
            });
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![SimTime::from_us(1), SimTime::from_us(3)]
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new();
        let hits = shared(0u32);
        for t in 1..=10u64 {
            let hits = hits.clone();
            sim.schedule_at(SimTime::from_us(t), move |_| *hits.borrow_mut() += 1);
        }
        let drained = sim.run_until(SimTime::from_us(4));
        assert!(!drained);
        assert_eq!(*hits.borrow(), 4);
        assert_eq!(sim.now(), SimTime::from_us(4));
        assert!(sim.run_until(SimTime::from_us(100)));
        assert_eq!(*hits.borrow(), 10);
    }

    #[test]
    fn schedule_now_runs_after_same_instant_events() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let (a, b) = (log.clone(), log.clone());
        sim.schedule_at(SimTime::ZERO, move |sim| {
            let b = b.clone();
            sim.schedule_now(move |_| b.borrow_mut().push("later"));
        });
        sim.schedule_at(SimTime::ZERO, move |_| a.borrow_mut().push("first"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["first", "later"]);
    }

    #[test]
    fn run_events_bounds_execution() {
        let mut sim = Sim::new();
        for t in 0..5u64 {
            sim.schedule_at(SimTime::from_ns(t), |_| {});
        }
        assert_eq!(sim.run_events(3), 3);
        assert_eq!(sim.events_pending(), 2);
        assert_eq!(sim.run_events(100), 2);
    }

    // ----- ladder-specific coverage -----

    /// Window is ~4.2 ms: events many milliseconds out exercise the far
    /// heap and its migration back into the ring.
    #[test]
    fn far_horizon_events_run_in_order() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for &ms in &[40u64, 2, 25, 9, 16, 33, 1] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ms(ms), move |_| log.borrow_mut().push(ms));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 9, 16, 25, 33, 40]);
        assert_eq!(sim.now(), SimTime::from_ms(40));
    }

    /// Mixed near/far chains: each far event schedules near follow-ups,
    /// interleaving ladder inserts with far migrations.
    #[test]
    fn near_far_interleaving_is_ordered() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        for ms in [10u64, 20, 30] {
            let log = log.clone();
            sim.schedule_at(SimTime::from_ms(ms), move |sim| {
                log.borrow_mut().push(sim.now());
                sim.schedule_in(SimTime::from_ns(100), move |sim| {
                    log.borrow_mut().push(sim.now());
                });
            });
        }
        sim.run();
        let want: Vec<SimTime> = [10u64, 20, 30]
            .iter()
            .flat_map(|&ms| {
                [
                    SimTime::from_ms(ms),
                    SimTime::from_ms(ms) + SimTime::from_ns(100),
                ]
            })
            .collect();
        assert_eq!(*log.borrow(), want);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let (a, b, c) = (log.clone(), log.clone(), log.clone());
        sim.schedule_at(SimTime::from_us(1), move |_| a.borrow_mut().push(1));
        let tok = sim.schedule_at_cancelable(SimTime::from_us(2), move |_| b.borrow_mut().push(2));
        sim.schedule_at(SimTime::from_us(3), move |_| c.borrow_mut().push(3));
        assert_eq!(sim.events_pending(), 3);
        assert!(sim.cancel(tok));
        assert_eq!(sim.events_pending(), 2);
        assert!(!sim.cancel(tok), "double cancel must be a no-op");
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 3]);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn cancel_after_execution_is_a_noop() {
        let mut sim = Sim::new();
        let tok = sim.schedule_at_cancelable(SimTime::from_us(1), |_| {});
        sim.run();
        assert!(!sim.cancel(tok));
    }

    /// A freed slot gets recycled by the next event; the old token must not
    /// be able to cancel the new occupant.
    #[test]
    fn stale_token_cannot_cancel_recycled_slot() {
        let mut sim = Sim::new();
        let log = shared(0u32);
        let old = sim.schedule_at_cancelable(SimTime::from_us(1), |_| {});
        assert!(sim.cancel(old));
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(2), move |_| *l.borrow_mut() += 1);
        assert!(!sim.cancel(old), "stale token hit the recycled slot");
        sim.run();
        assert_eq!(*log.borrow(), 1);
    }

    /// Cancelled events beyond the deadline must not stop `run_until`.
    #[test]
    fn run_until_skips_cancelled_tail() {
        let mut sim = Sim::new();
        sim.schedule_at(SimTime::from_us(1), |_| {});
        let tok = sim.schedule_at_cancelable(SimTime::from_us(10), |_| {});
        sim.cancel(tok);
        assert!(sim.run_until(SimTime::from_us(5)), "queue should drain");
        assert_eq!(sim.events_pending(), 0);
    }

    /// `run_until` may scan the cursor ahead of its deadline; a later
    /// insert behind the cursor must rebase the window, not lose order.
    #[test]
    fn schedule_behind_cursor_after_run_until() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let l = log.clone();
        sim.schedule_at(SimTime::from_ms(10), move |_| l.borrow_mut().push(10u64));
        // Peeks at the 10 ms event (jumping the cursor to its bucket), then
        // stops: nothing is due by 5 ms.
        assert!(!sim.run_until(SimTime::from_ms(5)));
        assert_eq!(sim.now(), SimTime::ZERO);
        let l = log.clone();
        sim.schedule_at(SimTime::from_ms(1), move |_| l.borrow_mut().push(1u64));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 10]);
    }

    #[test]
    fn inline_and_boxed_events_are_counted() {
        let mut sim = Sim::new();
        let log = shared(0u64);
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(1), move |_| *l.borrow_mut() += 1);
        let l = log.clone();
        let big = [1u64; 16];
        sim.schedule_at(SimTime::from_us(2), move |_| *l.borrow_mut() += big[0]);
        sim.run();
        assert_eq!(sim.events_inline(), 1);
        assert_eq!(sim.events_boxed(), 1);
        assert_eq!(*log.borrow(), 2);
    }

    /// Past scheduling panics in debug; in release it clamps and counts.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_scheduling_is_clamped_and_counted() {
        let mut sim = Sim::new();
        let log = shared(Vec::new());
        let l = log.clone();
        sim.schedule_at(SimTime::from_us(5), move |sim| {
            let l2 = l.clone();
            // Into the past: runs "immediately" (at now), after events
            // already queued for this instant.
            sim.schedule_at(SimTime::from_us(1), move |sim| {
                l2.borrow_mut().push(sim.now());
            });
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![SimTime::from_us(5)]);
        assert_eq!(sim.schedule_past_clamped(), 1);
    }

    #[test]
    fn no_clamps_on_well_behaved_schedules() {
        let mut sim = Sim::new();
        sim.schedule_in(SimTime::from_us(1), |_| {});
        sim.run();
        assert_eq!(sim.schedule_past_clamped(), 0);
    }
}
