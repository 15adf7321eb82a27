//! Tag matching in arrival order.
//!
//! Posted receives and unexpected messages each wait in one `VecDeque`,
//! oldest first, as in an MPI library's match lists. A match takes the
//! first compatible entry. Its 1-based position, or the whole queue on a
//! miss, is the `scanned` count the caller charges
//! [`MpiCosts::match_per_item`] for: the host examines exactly the entries
//! the model charges for. On the fig4 traffic the posted queue holds at
//! most 17 receives, and nearly every match examines 16 or fewer
//! (DESIGN.md §3.5.1).
//!
//! [`MpiCosts::match_per_item`]: crate::MpiCosts

use std::collections::VecDeque;

use amt_netmodel::NodeId;

use crate::world::{SrcSel, Tag};

/// Result of a match attempt: the payload of the matched entry (if any) and
/// the number of queue entries examined — the quantity the caller charges
/// virtual time for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOutcome<T> {
    /// Matched payload, `None` on a miss.
    pub found: Option<T>,
    /// Entries examined: the match's 1-based position in arrival order, or
    /// the whole queue on a miss.
    pub scanned: usize,
}

/// Removes the entry at `pos` (a queue's first match, if any) and reports
/// the entries examined to find it.
fn take<E, T>(
    q: &mut VecDeque<E>,
    pos: Option<usize>,
    item: impl FnOnce(E) -> T,
) -> MatchOutcome<T> {
    match pos {
        Some(i) => MatchOutcome {
            found: q.remove(i).map(item),
            scanned: i + 1,
        },
        None => MatchOutcome {
            found: None,
            scanned: q.len(),
        },
    }
}

/// Handle to a posted receive: the entry's unique id. A stale token
/// (already matched or cancelled) cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostToken(u64);

impl PostToken {
    /// Placeholder token that never names a posted entry.
    pub const DANGLING: PostToken = PostToken(u64::MAX);
}

struct Posted {
    id: u64,
    req: usize,
    src: SrcSel,
    tag: Tag,
}

/// Posted receives in post order.
#[derive(Default)]
pub struct PostTable {
    q: VecDeque<Posted>,
    next_id: u64,
    comparisons: u64,
    matches: u64,
}

impl PostTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posts a receive for request `req`; the token cancels it.
    pub fn post(&mut self, req: usize, src: SrcSel, tag: Tag) -> PostToken {
        let id = self.next_id;
        self.next_id += 1;
        self.q.push_back(Posted { id, req, src, tag });
        PostToken(id)
    }

    /// Matches an arrival against the oldest compatible posted receive,
    /// consuming it.
    pub fn match_arrival(&mut self, src: NodeId, tag: Tag) -> MatchOutcome<usize> {
        let pos = self
            .q
            .iter()
            .position(|p| p.tag == tag && p.src.matches(src));
        let out = take(&mut self.q, pos, |p| p.req);
        self.matches += 1;
        self.comparisons += out.scanned as u64;
        out
    }

    /// Cancels a posted receive. Returns whether it was still posted.
    pub fn cancel(&mut self, tok: PostToken) -> bool {
        // Ids rise along the queue: posts append, removals keep the order.
        match self.q.binary_search_by_key(&tok.0, |p| p.id) {
            Ok(i) => self.q.remove(i).is_some(),
            Err(_) => false,
        }
    }

    /// Number of posted receives.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether no receives are posted.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Entries examined by all matches so far: the sum of their `scanned`.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of match attempts performed.
    pub fn match_calls(&self) -> u64 {
        self.matches
    }
}

/// Unexpected messages in arrival order.
#[derive(Default)]
pub struct UnexpTable<T> {
    q: VecDeque<(NodeId, Tag, T)>,
}

impl<T> UnexpTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        UnexpTable { q: VecDeque::new() }
    }

    /// Appends an arrival.
    pub fn push(&mut self, src: NodeId, tag: Tag, item: T) {
        self.q.push_back((src, tag, item));
    }

    fn find(&self, src: SrcSel, tag: Tag) -> Option<usize> {
        self.q
            .iter()
            .position(|&(s, t, _)| t == tag && src.matches(s))
    }

    /// Takes the oldest entry matching the selector.
    pub fn match_take(&mut self, src: SrcSel, tag: Tag) -> MatchOutcome<T> {
        let pos = self.find(src, tag);
        take(&mut self.q, pos, |(_, _, item)| item)
    }

    /// Peeks at the oldest entry matching the selector without consuming
    /// it. Returns the entry and the entries examined.
    pub fn probe(&self, src: SrcSel, tag: Tag) -> (Option<&T>, usize) {
        match self.find(src, tag) {
            Some(i) => (Some(&self.q[i].2), i + 1),
            None => (None, self.q.len()),
        }
    }

    /// Number of queued arrivals.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_simnet::DetRng;
    use std::collections::BTreeMap;

    #[test]
    fn posted_wildcard_orders_by_arrival_seq() {
        let mut t = PostTable::new();
        // Interleave wildcard and specific posts on one tag.
        t.post(0, SrcSel::Any, 7);
        t.post(1, SrcSel::Rank(2), 7);
        t.post(2, SrcSel::Rank(3), 7);
        t.post(3, SrcSel::Any, 7);
        // Arrival from rank 3: the wildcard posted *earlier* must win.
        let a = t.match_arrival(3, 7);
        assert_eq!((a.found, a.scanned), (Some(0), 1));
        // Next arrival from rank 3: now the specific receive is oldest.
        let a = t.match_arrival(3, 7);
        assert_eq!(
            (a.found, a.scanned),
            (Some(2), 2),
            "skipped the rank-2 receive"
        );
        // Arrival nothing matches: the whole queue is examined.
        assert_eq!(
            t.match_arrival(9, 8),
            MatchOutcome {
                found: None,
                scanned: 2
            }
        );
        assert_eq!(t.comparisons(), 5);
        assert_eq!(t.match_calls(), 3);
    }

    #[test]
    fn cancel_is_exact_and_token_checked() {
        let mut t = PostTable::new();
        let tok0 = t.post(0, SrcSel::Rank(1), 4);
        let tok1 = t.post(1, SrcSel::Any, 4);
        assert!(!t.cancel(PostToken::DANGLING));
        assert!(t.cancel(tok0));
        assert!(!t.cancel(tok0), "double cancel detected");
        assert_eq!(t.len(), 1);
        // The arrival matches the wildcard; the cancelled entry is gone.
        let m = t.match_arrival(1, 4);
        assert_eq!(m.found, Some(1));
        assert_eq!(m.scanned, 1, "cancelled entry not counted");
        assert!(!t.cancel(tok1), "already matched");
        assert!(t.is_empty());
    }

    #[test]
    fn unexpected_any_source_and_specific_take_in_arrival_order() {
        let mut t = UnexpTable::new();
        for (src, tag, item) in [(1, 10, 100), (2, 10, 200), (1, 11, 300), (3, 10, 400)] {
            t.push(src, tag, item);
        }
        assert_eq!(t.probe(SrcSel::Any, 10), (Some(&100), 1));
        // A specific receive passes over an older entry from another rank.
        let a = t.match_take(SrcSel::Rank(2), 10);
        assert_eq!((a.found, a.scanned), (Some(200), 2));
        // `ANY_SOURCE` takes the oldest entry with the tag.
        let a = t.match_take(SrcSel::Any, 10);
        assert_eq!((a.found, a.scanned), (Some(100), 1));
        let a = t.match_take(SrcSel::Rank(1), 11);
        assert_eq!((a.found, a.scanned), (Some(300), 1));
        assert_eq!(t.probe(SrcSel::Rank(1), 10), (None, 1));
        let a = t.match_take(SrcSel::Any, 10);
        assert_eq!((a.found, a.scanned), (Some(400), 1));
        assert!(t.is_empty());
    }

    /// Randomized cases per property (as in `tests/proptests.rs`).
    const CASES: u64 = 32;

    /// Checks a match against the live entries it was made among (keyed
    /// by arrival index): a hit is compatible, the oldest compatible entry
    /// and reported at its position; a miss examined every entry.
    fn check_match(
        live: &BTreeMap<usize, (SrcSel, Tag)>,
        compatible: impl Fn(SrcSel, Tag) -> bool,
        found: Option<usize>,
        scanned: usize,
        at: &str,
    ) {
        let oldest = live.iter().find(|(_, &(s, t))| compatible(s, t));
        assert_eq!(
            found,
            oldest.map(|(&k, _)| k),
            "{at}: not the oldest compatible"
        );
        let expect = match found {
            Some(k) => live.range(..k).count() + 1,
            None => live.len(),
        };
        assert_eq!(scanned, expect, "{at}: scanned");
    }

    /// Under arbitrary interleavings of posts, arrivals, cancels (stale
    /// double-cancels included) and probes, with wildcard receives mixed
    /// in, every match takes the oldest live compatible entry and reports
    /// its position as `scanned`, and `comparisons()` is the sum of those.
    #[test]
    fn matches_take_the_oldest_compatible_entry_at_their_position() {
        for case in 0..CASES * 4 {
            let mut rng = DetRng::seed_from_u64(0x9bad_5eed + case);
            let mut posted = PostTable::new();
            let mut unexp: UnexpTable<usize> = UnexpTable::new();
            // Live entries keyed by arrival index (the posted req / the
            // unexpected item): in both, the key rises with arrival.
            let mut live_posted = BTreeMap::new();
            let mut live_unexp = BTreeMap::new();
            let mut toks = Vec::new();
            let (mut req, mut item, mut scanned_sum) = (0usize, 0usize, 0u64);
            for op in 0..rng.gen_usize(50..400) {
                let at = format!("case {case}, op {op}");
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
                        toks.push((posted.post(req, src, tag), req));
                        live_posted.insert(req, (src, tag));
                        req += 1;
                    }
                    2 => {
                        let (src, tag) = (rng.gen_usize(0..4), rng.gen_range(0..5));
                        let out = posted.match_arrival(src, tag);
                        let ok = |s: SrcSel, t| t == tag && s.matches(src);
                        check_match(&live_posted, ok, out.found, out.scanned, &at);
                        if let Some(k) = out.found {
                            live_posted.remove(&k);
                        }
                        scanned_sum += out.scanned as u64;
                    }
                    3 if !toks.is_empty() => {
                        // Possibly stale: the post may already have matched
                        // or been cancelled.
                        let (tok, k) = toks[rng.gen_usize(0..toks.len())];
                        let was_live = live_posted.remove(&k).is_some();
                        assert_eq!(posted.cancel(tok), was_live, "{at}: cancel");
                    }
                    3 => {}
                    4 => {
                        let (src, tag) = (rng.gen_usize(0..4), rng.gen_range(0..5));
                        unexp.push(src, tag, item);
                        live_unexp.insert(item, (SrcSel::Rank(src), tag));
                        item += 1;
                    }
                    _ => {
                        let (src, tag) = (src_sel(&mut rng), rng.gen_range(0..5));
                        let ok = |s: SrcSel, t| match s {
                            SrcSel::Rank(r) => t == tag && src.matches(r),
                            SrcSel::Any => unreachable!("arrivals have a source"),
                        };
                        if rng.gen_bool(0.5) {
                            let out = unexp.match_take(src, tag);
                            check_match(&live_unexp, ok, out.found, out.scanned, &at);
                            if let Some(k) = out.found {
                                live_unexp.remove(&k);
                            }
                        } else {
                            let (found, scanned) = unexp.probe(src, tag);
                            check_match(&live_unexp, ok, found.copied(), scanned, &at);
                        }
                    }
                }
                assert_eq!(posted.len(), live_posted.len(), "{at}: posted depth");
                assert_eq!(unexp.len(), live_unexp.len(), "{at}: unexpected depth");
            }
            assert_eq!(
                posted.comparisons(),
                scanned_sum,
                "case {case}: comparisons"
            );
        }
    }
}
