//! O(1)-average tag matching with exact cost parity to the linear scan.
//!
//! The seed implementation kept posted receives and unexpected messages in
//! plain `VecDeque`s and charged [`MpiCosts::match_per_item`] for every
//! entry a linear scan examined before the first match (or for the whole
//! queue on a miss). That linear *host* work became the simulator's
//! bottleneck at deep queues, but the per-item *virtual* cost is a modelled
//! property we must preserve bit-for-bit.
//!
//! This module replaces the scans with hash-bucketed match tables:
//!
//! * Entries live in a slab; each bucket is a `VecDeque` of slab slots in
//!   arrival order, keyed by `(src, tag)` with a wildcard side-list per
//!   `tag` ([`PostTable`]), or doubly indexed by `(src, tag)` *and* `tag`
//!   ([`UnexpTable`], so both specific and `ANY_SOURCE` receives match in
//!   O(1)).
//! * Every entry carries a global **arrival sequence number**. The linear
//!   scan's "first match in queue order" is exactly "minimum sequence
//!   number among the candidate bucket fronts" — one or two deque-front
//!   peeks, never a scan.
//! * The number of entries the reference scan *would* have examined is the
//!   matched entry's rank among all live entries, answered in O(log n) by
//!   [`SeqRank`], a deterministic treap over live sequence numbers keyed by
//!   `splitmix64(seq)` priorities. Callers multiply that by
//!   `match_per_item`, reproducing the seed's virtual time exactly.
//! * Removal never shifts buckets: cancelled entries are tombstoned and
//!   collected lazily when they surface at a bucket front, which is what
//!   makes request cancellation O(1) (see [`PostTable::cancel`]).
//!
//! The seed matcher survives only in this module's tests, as the
//! `RefPostTable` / `RefUnexpTable` oracles: a randomized lockstep test
//! there proves the hash tables order- and cost-equivalent to it (the
//! `scanned` count virtual time is charged for included).
//!
//! [`MpiCosts::match_per_item`]: crate::MpiCosts

use std::collections::VecDeque;

use amt_netmodel::NodeId;
use amt_simnet::FastMap;

use crate::world::{SrcSel, Tag};

/// Result of a match attempt: the payload of the matched entry (if any) and
/// the number of queue entries the reference linear scan would have
/// examined — the quantity the caller charges virtual time for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOutcome<T> {
    /// Matched payload, `None` on a miss.
    pub found: Option<T>,
    /// Entries the seed's linear scan would have examined: arrival-order
    /// rank of the match (1-based), or the whole live queue on a miss.
    pub scanned: usize,
}

const NIL: u32 = u32::MAX;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Clone, Copy)]
struct TreapNode {
    left: u32,
    right: u32,
    size: u32,
    prio: u64,
    seq: u64,
}

/// Order statistics over the set of *live* arrival sequence numbers: a
/// deterministic treap (priorities are `splitmix64` of the key, so the
/// shape — and therefore host behaviour — is identical on every run and
/// independent of hasher state). Memory is proportional to live entries,
/// not to the sequence-number horizon.
pub struct SeqRank {
    nodes: Vec<TreapNode>,
    free: Vec<u32>,
    root: u32,
}

impl Default for SeqRank {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqRank {
    /// An empty set.
    pub fn new() -> Self {
        SeqRank {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }

    fn size_of(&self, n: u32) -> u32 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].size
        }
    }

    fn pull(&mut self, n: u32) {
        let (l, r) = {
            let nd = &self.nodes[n as usize];
            (nd.left, nd.right)
        };
        self.nodes[n as usize].size = 1 + self.size_of(l) + self.size_of(r);
    }

    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].prio >= self.nodes[b as usize].prio {
            let m = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = m;
            self.pull(a);
            a
        } else {
            let m = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = m;
            self.pull(b);
            b
        }
    }

    /// Splits into (`seq < key`, `seq >= key`).
    fn split(&mut self, n: u32, key: u64) -> (u32, u32) {
        if n == NIL {
            return (NIL, NIL);
        }
        if self.nodes[n as usize].seq < key {
            let (l, r) = self.split(self.nodes[n as usize].right, key);
            self.nodes[n as usize].right = l;
            self.pull(n);
            (n, r)
        } else {
            let (l, r) = self.split(self.nodes[n as usize].left, key);
            self.nodes[n as usize].left = r;
            self.pull(n);
            (l, n)
        }
    }

    /// Inserts a (unique) sequence number.
    pub fn insert(&mut self, seq: u64) {
        let node = TreapNode {
            left: NIL,
            right: NIL,
            size: 1,
            prio: splitmix64(seq),
            seq,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        let (l, r) = self.split(self.root, seq);
        let lm = self.merge(l, idx);
        self.root = self.merge(lm, r);
    }

    /// Removes a present sequence number.
    pub fn remove(&mut self, seq: u64) {
        let (l, rest) = self.split(self.root, seq);
        let (mid, r) = self.split(rest, seq + 1);
        debug_assert!(mid != NIL && self.size_of(mid) == 1, "seq not present");
        self.free.push(mid);
        self.root = self.merge(l, r);
    }

    /// Number of live entries with sequence number strictly below `seq`.
    pub fn rank(&self, seq: u64) -> usize {
        let mut n = self.root;
        let mut acc = 0usize;
        while n != NIL {
            let nd = &self.nodes[n as usize];
            if seq <= nd.seq {
                n = nd.left;
            } else {
                acc += self.size_of(nd.left) as usize + 1;
                n = nd.right;
            }
        }
        acc
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.size_of(self.root) as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }
}

/// Generation-tagged handle to a posted receive, for O(1) cancellation.
/// Stale tokens (already matched or cancelled) are detected and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostToken {
    slot: u32,
    gen: u32,
}

impl PostToken {
    /// Placeholder token that never matches a live entry.
    pub const DANGLING: PostToken = PostToken {
        slot: u32::MAX,
        gen: u32::MAX,
    };
}

struct PostEntry {
    gen: u32,
    live: bool,
    seq: u64,
    req: usize,
    /// Which index holds this entry: `wildcard[tag]` or `specific[(src, tag)]`.
    wild: bool,
}

/// Hash-bucketed posted-receive table.
///
/// Arrivals carry a concrete `(src, tag)`, while posted receives may use
/// `ANY_SOURCE`; each entry therefore lives in exactly one bucket —
/// `specific[(src, tag)]` or the `wildcard[tag]` side-list — and a match
/// considers both bucket fronts, taking the lower sequence number.
#[derive(Default)]
pub struct PostTable {
    entries: Vec<PostEntry>,
    free: Vec<u32>,
    specific: FastMap<(NodeId, Tag), VecDeque<u32>>,
    wildcard: FastMap<Tag, VecDeque<u32>>,
    /// Buffers of buckets a match emptied, for the next new key. Each
    /// rendezvous put posts its data receive under a tag of its own, so an
    /// emptied bucket left in place would stay behind for good.
    spare: Vec<VecDeque<u32>>,
    order: SeqRank,
    next_seq: u64,
    comparisons: u64,
    matches: u64,
}

/// Pops tombstoned slots off a bucket front, freeing them, and returns the
/// first live slot (left in place).
fn post_front_live(
    entries: &[PostEntry],
    free: &mut Vec<u32>,
    q: &mut VecDeque<u32>,
    comparisons: &mut u64,
) -> Option<u32> {
    while let Some(&slot) = q.front() {
        *comparisons += 1;
        if entries[slot as usize].live {
            return Some(slot);
        }
        q.pop_front();
        free.push(slot);
    }
    None
}

impl PostTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn alloc(&mut self, seq: u64, req: usize, wild: bool) -> (u32, u32) {
        if let Some(slot) = self.free.pop() {
            let e = &mut self.entries[slot as usize];
            e.gen = e.gen.wrapping_add(1);
            e.live = true;
            e.seq = seq;
            e.req = req;
            e.wild = wild;
            (slot, e.gen)
        } else {
            self.entries.push(PostEntry {
                gen: 0,
                live: true,
                seq,
                req,
                wild,
            });
            ((self.entries.len() - 1) as u32, 0)
        }
    }

    /// Posts a receive for request `req`; the token cancels it in O(1).
    pub fn post(&mut self, req: usize, src: SrcSel, tag: Tag) -> PostToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let wild = matches!(src, SrcSel::Any);
        let (slot, gen) = self.alloc(seq, req, wild);
        let bucket = || self.spare.pop().unwrap_or_default();
        match src {
            SrcSel::Any => self.wildcard.entry(tag).or_insert_with(bucket),
            SrcSel::Rank(r) => self.specific.entry((r, tag)).or_insert_with(bucket),
        }
        .push_back(slot);
        self.order.insert(seq);
        PostToken { slot, gen }
    }

    /// Matches an arrival against the oldest compatible posted receive,
    /// consuming it. `scanned` reports the reference scan's examined count.
    pub fn match_arrival(&mut self, src: NodeId, tag: Tag) -> MatchOutcome<usize> {
        self.matches += 1;
        self.comparisons += 2; // two bucket lookups
        let spec = match self.specific.get_mut(&(src, tag)) {
            Some(q) => post_front_live(&self.entries, &mut self.free, q, &mut self.comparisons)
                .map(|slot| (self.entries[slot as usize].seq, slot)),
            None => None,
        };
        let wild = match self.wildcard.get_mut(&tag) {
            Some(q) => post_front_live(&self.entries, &mut self.free, q, &mut self.comparisons)
                .map(|slot| (self.entries[slot as usize].seq, slot)),
            None => None,
        };
        let best = match (spec, wild) {
            (Some(s), Some(w)) => Some(if s.0 < w.0 { s } else { w }),
            (s, w) => s.or(w),
        };
        match best {
            Some((seq, slot)) => {
                let wild = self.entries[slot as usize].wild;
                let q = if wild {
                    self.wildcard.get_mut(&tag).expect("bucket exists")
                } else {
                    self.specific.get_mut(&(src, tag)).expect("bucket exists")
                };
                q.pop_front();
                if q.is_empty() {
                    let q = if wild {
                        self.wildcard.remove(&tag)
                    } else {
                        self.specific.remove(&(src, tag))
                    };
                    self.spare.extend(q);
                }
                self.free.push(slot);
                let e = &mut self.entries[slot as usize];
                e.live = false;
                let req = e.req;
                let scanned = self.order.rank(seq) + 1;
                self.order.remove(seq);
                MatchOutcome {
                    found: Some(req),
                    scanned,
                }
            }
            None => MatchOutcome {
                found: None,
                scanned: self.order.len(),
            },
        }
    }

    /// Cancels a posted receive in O(1) (amortized: the slot is tombstoned
    /// and collected when it reaches its bucket front). Returns whether the
    /// token was live.
    pub fn cancel(&mut self, tok: PostToken) -> bool {
        let Some(e) = self.entries.get_mut(tok.slot as usize) else {
            return false;
        };
        if e.gen != tok.gen || !e.live {
            return false;
        }
        e.live = false;
        let seq = e.seq;
        self.order.remove(seq);
        true
    }

    /// Number of live posted receives.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no receives are posted.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total bucket-front examinations performed (the hash matcher's unit
    /// of matching work; the seed's linear scan examined `scanned` entries
    /// per match instead).
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of match attempts performed.
    pub fn match_calls(&self) -> u64 {
        self.matches
    }
}

struct UnexpEntry<T> {
    seq: u64,
    src: NodeId,
    live: bool,
    /// Index references still outstanding (the entry sits in two buckets).
    refs: u8,
    item: Option<T>,
}

/// Hash-bucketed unexpected-message table.
///
/// Arrivals carry a concrete `(src, tag)` but receives may probe with
/// `ANY_SOURCE`, so every entry is indexed twice: under `(src, tag)` and
/// under `tag` alone. A slot is reclaimed once both bucket references have
/// been popped. A match pops the dead fronts of both of the entry's
/// buckets, so an entry matched through one index leaves the other at once
/// when it is at that bucket's front: a rendezvous RTS on a put's own data
/// tag, matched by `(src, tag)` and never by `ANY_SOURCE`, leaves nothing
/// behind.
#[derive(Default)]
pub struct UnexpTable<T> {
    entries: Vec<UnexpEntry<T>>,
    free: Vec<u32>,
    by_src_tag: FastMap<(NodeId, Tag), VecDeque<u32>>,
    by_tag: FastMap<Tag, VecDeque<u32>>,
    /// Buffers of emptied buckets, for the next new key (as in
    /// [`PostTable`]: every put's data tag is a key of its own).
    spare: Vec<VecDeque<u32>>,
    order: SeqRank,
    next_seq: u64,
    comparisons: u64,
    matches: u64,
}

impl<T> UnexpTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        UnexpTable {
            entries: Vec::new(),
            free: Vec::new(),
            by_src_tag: FastMap::default(),
            by_tag: FastMap::default(),
            spare: Vec::new(),
            order: SeqRank::new(),
            next_seq: 0,
            comparisons: 0,
            matches: 0,
        }
    }

    /// Appends an arrival (arrival order = insertion order).
    pub fn push(&mut self, src: NodeId, tag: Tag, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = UnexpEntry {
            seq,
            src,
            live: true,
            refs: 2,
            item: Some(item),
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.entries[slot as usize] = entry;
            slot
        } else {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        };
        let spare = &mut self.spare;
        self.by_src_tag
            .entry((src, tag))
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(slot);
        self.by_tag
            .entry(tag)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(slot);
        self.order.insert(seq);
    }

    /// Pops dead slots off the front of the bucket `src` selects (dropping
    /// one reference each, freeing at zero) and returns the first live
    /// slot, left in place. A bucket left empty leaves its map, and its
    /// buffer goes to `spare`.
    fn front_live(&mut self, src: SrcSel, tag: Tag) -> Option<u32> {
        let q = match src {
            SrcSel::Rank(r) => self.by_src_tag.get_mut(&(r, tag)),
            SrcSel::Any => self.by_tag.get_mut(&tag),
        }?;
        while let Some(&slot) = q.front() {
            self.comparisons += 1;
            let e = &mut self.entries[slot as usize];
            if e.live {
                return Some(slot);
            }
            q.pop_front();
            e.refs -= 1;
            if e.refs == 0 {
                self.free.push(slot);
            }
        }
        let q = match src {
            SrcSel::Rank(r) => self.by_src_tag.remove(&(r, tag)),
            SrcSel::Any => self.by_tag.remove(&tag),
        };
        self.spare.extend(q);
        None
    }

    fn front_for(&mut self, src: SrcSel, tag: Tag) -> Option<u32> {
        self.comparisons += 1; // one bucket lookup
        self.front_live(src, tag)
    }

    /// Takes the oldest entry matching the selector, reporting the
    /// reference scan's examined count.
    pub fn match_take(&mut self, src: SrcSel, tag: Tag) -> MatchOutcome<T> {
        self.matches += 1;
        match self.front_for(src, tag) {
            Some(slot) => {
                let e = &mut self.entries[slot as usize];
                e.live = false;
                let seq = e.seq;
                let other = match src {
                    SrcSel::Rank(_) => SrcSel::Any,
                    SrcSel::Any => SrcSel::Rank(e.src),
                };
                let item = e.item.take().expect("live entry has item");
                // The entry is the selected bucket's front; in the other
                // one it leaves now only if nothing live is ahead of it.
                self.front_live(src, tag);
                self.front_live(other, tag);
                let scanned = self.order.rank(seq) + 1;
                self.order.remove(seq);
                MatchOutcome {
                    found: Some(item),
                    scanned,
                }
            }
            None => MatchOutcome {
                found: None,
                scanned: self.order.len(),
            },
        }
    }

    /// Peeks at the oldest entry matching the selector without consuming
    /// it. Returns the entry and the reference scan's examined count.
    pub fn probe(&mut self, src: SrcSel, tag: Tag) -> (Option<&T>, usize) {
        self.matches += 1;
        match self.front_for(src, tag) {
            Some(slot) => {
                let scanned = self.order.rank(self.entries[slot as usize].seq) + 1;
                (
                    Some(
                        self.entries[slot as usize]
                            .item
                            .as_ref()
                            .expect("live entry has item"),
                    ),
                    scanned,
                )
            }
            None => (None, self.order.len()),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total bucket-front examinations performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of match/probe attempts performed.
    pub fn match_calls(&self) -> u64 {
        self.matches
    }

    /// Slots held by live or dead entries, and buckets in the two indexes:
    /// what the table keeps beyond its free list and spare buffers. A
    /// drained table holds `(0, 0)` unless an entry matched through one
    /// index still waits behind a live one in the other.
    pub fn footprint(&self) -> (usize, usize) {
        (
            self.entries.len() - self.free.len(),
            self.by_src_tag.len() + self.by_tag.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_simnet::DetRng;

    /// The seed's posted-receive matcher, verbatim: a `VecDeque` scanned
    /// linearly in post order. The oracle the hash tables are held to.
    #[derive(Default)]
    struct RefPostTable {
        q: VecDeque<(u64, usize, SrcSel, Tag)>,
        next_uid: u64,
        comparisons: u64,
    }

    /// Token for [`RefPostTable::cancel`] (cancellation is O(n) here — that is
    /// the point of the comparison).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct RefPostToken {
        uid: u64,
    }

    impl RefPostTable {
        /// An empty table.
        fn new() -> Self {
            Self::default()
        }

        /// Posts a receive (appends, like the seed's `posted.push_back`).
        fn post(&mut self, req: usize, src: SrcSel, tag: Tag) -> RefPostToken {
            let uid = self.next_uid;
            self.next_uid += 1;
            self.q.push_back((uid, req, src, tag));
            RefPostToken { uid }
        }

        /// The seed's linear scan over posted receives.
        fn match_arrival(&mut self, src: NodeId, tag: Tag) -> MatchOutcome<usize> {
            let mut found = None;
            let mut scanned = 0usize;
            for (pos, &(_, req, psrc, ptag)) in self.q.iter().enumerate() {
                scanned += 1;
                self.comparisons += 1;
                if ptag == tag && psrc.matches(src) {
                    found = Some((pos, req));
                    break;
                }
            }
            match found {
                Some((pos, req)) => {
                    self.q.remove(pos);
                    MatchOutcome {
                        found: Some(req),
                        scanned,
                    }
                }
                None => MatchOutcome {
                    found: None,
                    scanned,
                },
            }
        }

        /// The seed's cancellation: `retain` over the whole queue.
        fn cancel(&mut self, tok: RefPostToken) -> bool {
            let before = self.q.len();
            self.comparisons += before as u64;
            self.q.retain(|&(uid, _, _, _)| uid != tok.uid);
            self.q.len() != before
        }

        /// Number of posted receives.
        fn len(&self) -> usize {
            self.q.len()
        }

        /// Entries examined by linear scans so far.
        fn comparisons(&self) -> u64 {
            self.comparisons
        }
    }

    /// The seed's unexpected-message queue, verbatim.
    struct RefUnexpTable<T> {
        q: VecDeque<(NodeId, Tag, T)>,
    }

    impl<T> RefUnexpTable<T> {
        /// An empty table.
        fn new() -> Self {
            RefUnexpTable { q: VecDeque::new() }
        }

        /// Appends an arrival.
        fn push(&mut self, src: NodeId, tag: Tag, item: T) {
            self.q.push_back((src, tag, item));
        }

        /// The seed's linear scan-and-remove.
        fn match_take(&mut self, src: SrcSel, tag: Tag) -> MatchOutcome<T> {
            let mut found = None;
            let mut scanned = 0usize;
            for (pos, (usrc, utag, _)) in self.q.iter().enumerate() {
                scanned += 1;
                if *utag == tag && src.matches(*usrc) {
                    found = Some(pos);
                    break;
                }
            }
            match found {
                Some(pos) => {
                    let (_, _, item) = self.q.remove(pos).expect("scanned position");
                    MatchOutcome {
                        found: Some(item),
                        scanned,
                    }
                }
                None => MatchOutcome {
                    found: None,
                    scanned,
                },
            }
        }

        /// The seed's linear probe (no removal).
        fn probe(&self, src: SrcSel, tag: Tag) -> (Option<&T>, usize) {
            let mut scanned = 0usize;
            for (usrc, utag, item) in self.q.iter() {
                scanned += 1;
                if *utag == tag && src.matches(*usrc) {
                    return (Some(item), scanned);
                }
            }
            (None, scanned)
        }

        /// Number of queued arrivals.
        fn len(&self) -> usize {
            self.q.len()
        }

        /// Whether the queue is empty.
        fn is_empty(&self) -> bool {
            self.q.is_empty()
        }
    }

    #[test]
    fn seqrank_tracks_order_statistics() {
        let mut s = SeqRank::new();
        for seq in [5u64, 1, 9, 3, 7] {
            s.insert(seq);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.rank(1), 0);
        assert_eq!(s.rank(5), 2);
        assert_eq!(s.rank(10), 5);
        s.remove(3);
        assert_eq!(s.rank(5), 1);
        assert_eq!(s.len(), 4);
        s.remove(1);
        s.remove(9);
        s.remove(5);
        s.remove(7);
        assert!(s.is_empty());
    }

    #[test]
    fn posted_wildcard_orders_by_arrival_seq() {
        let mut t = PostTable::new();
        let mut r = RefPostTable::new();
        // Interleave wildcard and specific posts on one tag.
        t.post(0, SrcSel::Any, 7);
        r.post(0, SrcSel::Any, 7);
        t.post(1, SrcSel::Rank(2), 7);
        r.post(1, SrcSel::Rank(2), 7);
        t.post(2, SrcSel::Rank(3), 7);
        r.post(2, SrcSel::Rank(3), 7);
        t.post(3, SrcSel::Any, 7);
        r.post(3, SrcSel::Any, 7);
        // Arrival from rank 3: the wildcard posted *earlier* must win.
        let (a, b) = (t.match_arrival(3, 7), r.match_arrival(3, 7));
        assert_eq!(a, b);
        assert_eq!(a.found, Some(0));
        assert_eq!(a.scanned, 1);
        // Next arrival from rank 3: now the specific receive is oldest.
        let (a, b) = (t.match_arrival(3, 7), r.match_arrival(3, 7));
        assert_eq!(a, b);
        assert_eq!(a.found, Some(2));
        assert_eq!(a.scanned, 2, "skipped the rank-2 receive");
        // Arrival nothing matches: full live queue scanned.
        let (a, b) = (t.match_arrival(9, 8), r.match_arrival(9, 8));
        assert_eq!(a, b);
        assert_eq!(
            a,
            MatchOutcome {
                found: None,
                scanned: 2
            }
        );
    }

    #[test]
    fn cancel_is_exact_and_token_checked() {
        let mut t = PostTable::new();
        let tok0 = t.post(0, SrcSel::Rank(1), 4);
        let tok1 = t.post(1, SrcSel::Any, 4);
        assert!(t.cancel(tok0));
        assert!(!t.cancel(tok0), "double cancel detected");
        assert_eq!(t.len(), 1);
        // The arrival skips the tombstone and matches the wildcard.
        let m = t.match_arrival(1, 4);
        assert_eq!(m.found, Some(1));
        assert_eq!(m.scanned, 1, "cancelled entry not counted");
        assert!(!t.cancel(tok1), "already matched");
        assert!(t.is_empty());
    }

    #[test]
    fn unexpected_dual_index_agrees_with_reference() {
        let mut t = UnexpTable::new();
        let mut r = RefUnexpTable::new();
        for (src, tag, item) in [(1, 10, 100), (2, 10, 200), (1, 11, 300), (3, 10, 400)] {
            t.push(src, tag, item);
            r.push(src, tag, item);
        }
        let (pa, sa) = t.probe(SrcSel::Any, 10);
        let (pb, sb) = r.probe(SrcSel::Any, 10);
        assert_eq!((pa.copied(), sa), (pb.copied(), sb));
        assert_eq!((pa.copied(), sa), (Some(100), 1));

        let (a, b) = (
            t.match_take(SrcSel::Rank(2), 10),
            r.match_take(SrcSel::Rank(2), 10),
        );
        assert_eq!(a, b);
        assert_eq!((a.found, a.scanned), (Some(200), 2));

        let (a, b) = (t.match_take(SrcSel::Any, 10), r.match_take(SrcSel::Any, 10));
        assert_eq!(a, b);
        assert_eq!((a.found, a.scanned), (Some(100), 1));

        // Taking via the tag index leaves a tombstone in the (src, tag)
        // index; a later specific take must skip it silently.
        let (a, b) = (
            t.match_take(SrcSel::Rank(1), 11),
            r.match_take(SrcSel::Rank(1), 11),
        );
        assert_eq!(a, b);
        assert_eq!((a.found, a.scanned), (Some(300), 1));

        let (a, b) = (t.match_take(SrcSel::Any, 10), r.match_take(SrcSel::Any, 10));
        assert_eq!(a, b);
        assert_eq!((a.found, a.scanned), (Some(400), 1));
        assert!(t.is_empty() && r.is_empty());
    }

    #[test]
    fn a_take_through_one_index_frees_the_entry_from_the_other() {
        // A put's data RTS: one entry per private tag, matched by
        // `(src, tag)` eight arrivals later, never through `ANY_SOURCE`.
        for n in [100u64, 1000] {
            let mut t = UnexpTable::new();
            let take = |t: &mut UnexpTable<u64>, tag: u64| {
                let out = t.match_take(SrcSel::Rank((tag % 4) as usize), 1000 + tag);
                assert_eq!(out.found, Some(tag));
            };
            for tag in 0..n {
                t.push((tag % 4) as usize, 1000 + tag, tag);
                if tag >= 8 {
                    take(&mut t, tag - 8);
                }
            }
            for tag in n - 8..n {
                take(&mut t, tag);
            }
            assert_eq!(t.footprint(), (0, 0), "{n} tags");
            // Slots and bucket buffers are reused, not grown per tag.
            assert!(t.entries.len() <= 9 && t.spare.len() <= 18, "{n} tags");
        }
        // An entry behind a live one in its other bucket waits there, and
        // leaves with it.
        let mut t = UnexpTable::new();
        t.push(1, 5, 'a');
        t.push(2, 5, 'b');
        assert_eq!(t.match_take(SrcSel::Rank(2), 5).found, Some('b'));
        assert_eq!(t.footprint(), (2, 2));
        assert_eq!(t.match_take(SrcSel::Any, 5).found, Some('a'));
        assert_eq!(t.footprint(), (0, 0));
    }

    #[test]
    fn hash_comparisons_stay_flat_as_queue_grows() {
        // The acceptance criterion in miniature: load N receives on
        // distinct (src, tag) pairs, then match each; hash comparisons per
        // match stay O(1) while the reference scan's grow with N.
        let run = |n: u64| -> (f64, f64) {
            let mut t = PostTable::new();
            let mut r = RefPostTable::new();
            for i in 0..n {
                t.post(i as usize, SrcSel::Rank(i as usize), i);
                r.post(i as usize, SrcSel::Rank(i as usize), i);
            }
            for i in 0..n {
                // Match in reverse post order: worst case for the scan.
                let src = (n - 1 - i) as usize;
                let a = t.match_arrival(src, n - 1 - i);
                let b = r.match_arrival(src, n - 1 - i);
                assert_eq!(a, b);
            }
            (
                t.comparisons() as f64 / n as f64,
                r.comparisons() as f64 / n as f64,
            )
        };
        let (h64, r64) = run(64);
        for n in [1024, 4096] {
            let (h, r) = run(n);
            assert!(h <= h64 * 1.5, "hash matcher not flat: {h64} -> {h} at {n}");
            assert!(r > r64 * 8.0, "reference should grow linearly");
        }
    }

    /// Randomized cases per property (as in `tests/proptests.rs`).
    const CASES: u64 = 32;

    /// The hash-bucketed matchers and the seed's linear-scan reference matchers
    /// must agree *exactly* — same matched entry, same reference-equivalent
    /// `scanned` count (the quantity virtual time is charged for), same cancel
    /// outcomes — under arbitrary interleavings of posts, arrivals, cancels
    /// (including stale double-cancels) and probes, with wildcard receives
    /// mixed in.
    #[test]
    fn hash_and_reference_matchers_are_order_equivalent() {
        for case in 0..CASES * 4 {
            let mut rng = DetRng::seed_from_u64(0x9bad_5eed + case);
            let mut hp = PostTable::new();
            let mut rp = RefPostTable::new();
            let mut hu: UnexpTable<u32> = UnexpTable::new();
            let mut ru: RefUnexpTable<u32> = RefUnexpTable::new();
            let mut toks = Vec::new();
            let mut req = 0usize;
            let mut item = 0u32;
            for op in 0..rng.gen_usize(50..400) {
                let src_sel = |rng: &mut DetRng| {
                    if rng.gen_bool(0.3) {
                        SrcSel::Any
                    } else {
                        SrcSel::Rank(rng.gen_usize(0..4))
                    }
                };
                match rng.gen_usize(0..6) {
                    0 | 1 => {
                        let (src, tag) = (src_sel(&mut rng), rng.gen_range(0..5));
                        toks.push((hp.post(req, src, tag), rp.post(req, src, tag)));
                        req += 1;
                    }
                    2 => {
                        let (src, tag) = (rng.gen_usize(0..4), rng.gen_range(0..5));
                        assert_eq!(
                            hp.match_arrival(src, tag),
                            rp.match_arrival(src, tag),
                            "posted-match diverged (case {case}, op {op})"
                        );
                    }
                    3 => {
                        if !toks.is_empty() {
                            // Possibly stale: the post may already have matched
                            // or been cancelled; both tables must agree anyway.
                            let (ht, rt) = toks[rng.gen_usize(0..toks.len())];
                            assert_eq!(
                                hp.cancel(ht),
                                rp.cancel(rt),
                                "cancel diverged (case {case}, op {op})"
                            );
                        }
                    }
                    4 => {
                        let (src, tag) = (rng.gen_usize(0..4), rng.gen_range(0..5));
                        hu.push(src, tag, item);
                        ru.push(src, tag, item);
                        item += 1;
                    }
                    _ => {
                        let (src, tag) = (src_sel(&mut rng), rng.gen_range(0..5));
                        if rng.gen_bool(0.5) {
                            assert_eq!(
                                hu.match_take(src, tag),
                                ru.match_take(src, tag),
                                "unexpected-match diverged (case {case}, op {op})"
                            );
                        } else {
                            let (a, sa) = hu.probe(src, tag);
                            let a = a.copied();
                            let (b, sb) = ru.probe(src, tag);
                            assert_eq!(
                                (a, sa),
                                (b.copied(), sb),
                                "probe diverged (case {case}, op {op})"
                            );
                        }
                    }
                }
                assert_eq!(hp.len(), rp.len(), "post-table sizes (case {case})");
                assert_eq!(hu.len(), ru.len(), "unexp-table sizes (case {case})");
            }
        }
    }
}
