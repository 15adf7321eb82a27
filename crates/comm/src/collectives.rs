//! Tree-shaped collectives.
//!
//! The scaling wall at high node counts is message *rate*: flat fan-out
//! (one unicast per peer) puts O(N) messages on a single root's wire. This
//! module provides the deterministic k-ary tree topology and the
//! reduction the real path's startup and quiescence run over it:
//!
//! * [`kary_parent`] / [`kary_children`] — the tree shape itself, computed
//!   from dense node ids with *relative-rank rooting*: node `r`'s position
//!   in the tree rooted at `root` is `(r + n - root) % n`, so every root
//!   gets the same balanced shape and no rank is special.
//! * [`TreeReduce`] — a thread-safe reduction state machine (used by the
//!   real path's quiescence detection): every node contributes a value,
//!   partial sums climb the tree, the root ends up with the total.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Parent of `rank` in the k-ary tree over `n` nodes rooted at `root`.
/// `None` for the root itself. Panics on a degenerate tree (`k < 2`,
/// `n == 0`, or out-of-range ranks).
pub fn kary_parent(rank: usize, root: usize, n: usize, k: usize) -> Option<usize> {
    assert!(k >= 2, "multicast tree arity must be at least 2 (got {k})");
    assert!(n > 0 && rank < n && root < n);
    let rel = (rank + n - root) % n;
    if rel == 0 {
        return None;
    }
    let parent_rel = (rel - 1) / k;
    Some((parent_rel + root) % n)
}

/// Children of `rank` in the k-ary tree over `n` nodes rooted at `root`,
/// in ascending relative-rank order (deterministic).
pub fn kary_children(rank: usize, root: usize, n: usize, k: usize) -> Vec<usize> {
    assert!(k >= 2, "multicast tree arity must be at least 2 (got {k})");
    assert!(n > 0 && rank < n && root < n);
    let rel = (rank + n - root) % n;
    let first = rel * k + 1;
    (first..first + k)
        .take_while(|&c| c < n)
        .map(|c| (c + root) % n)
        .collect()
}

/// What a [`TreeReduce`] participant must do after contributing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceStep {
    /// This node's subtree is complete: send `partial` to `parent`.
    Send { parent: usize, partial: u64 },
    /// The root's subtree is complete: the reduction is done.
    Done(u64),
    /// Contributions still outstanding in this node's subtree.
    Wait,
}

/// Thread-safe single-shot sum reduction over the k-ary tree. Every node
/// calls [`TreeReduce::contribute`] exactly once with its own value; each
/// message a node receives from a child feeds [`TreeReduce::arrive`]. The
/// caller moves `Send` steps between nodes (as messages on its transport);
/// when the root's subtree completes, [`TreeReduce::result`] holds the
/// total.
pub struct TreeReduce {
    root: usize,
    n: usize,
    k: usize,
    /// Outstanding inputs per node: one per child, plus the node's own
    /// contribution.
    pending: Vec<AtomicU32>,
    /// Partial sum per node.
    acc: Vec<AtomicU64>,
    result: AtomicU64,
    done: AtomicBool,
}

impl TreeReduce {
    pub fn new(n: usize, root: usize, k: usize) -> Self {
        assert!(k >= 2, "multicast tree arity must be at least 2 (got {k})");
        assert!(n > 0 && root < n);
        let pending = (0..n)
            .map(|r| AtomicU32::new(kary_children(r, root, n, k).len() as u32 + 1))
            .collect();
        TreeReduce {
            root,
            n,
            k,
            pending,
            acc: (0..n).map(|_| AtomicU64::new(0)).collect(),
            result: AtomicU64::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// This node's own contribution.
    pub fn contribute(&self, node: usize, value: u64) -> ReduceStep {
        self.add(node, value)
    }

    /// A child's partial sum arriving at `node`.
    pub fn arrive(&self, node: usize, partial: u64) -> ReduceStep {
        self.add(node, partial)
    }

    fn add(&self, node: usize, value: u64) -> ReduceStep {
        assert!(node < self.n);
        self.acc[node].fetch_add(value, Ordering::SeqCst);
        // The RMW chain on `pending` release-sequences the accumulator
        // adds: the last decrementer observes every prior fetch_add.
        let prev = self.pending[node].fetch_sub(1, Ordering::SeqCst);
        assert!(prev > 0, "node {node} over-contributed to reduction");
        if prev != 1 {
            return ReduceStep::Wait;
        }
        let partial = self.acc[node].load(Ordering::SeqCst);
        if node == self.root {
            self.result.store(partial, Ordering::SeqCst);
            self.done.store(true, Ordering::SeqCst);
            ReduceStep::Done(partial)
        } else {
            let parent =
                kary_parent(node, self.root, self.n, self.k).expect("non-root node has a parent");
            ReduceStep::Send { parent, partial }
        }
    }

    /// The reduced total, once the root's subtree has completed.
    pub fn result(&self) -> Option<u64> {
        self.done
            .load(Ordering::SeqCst)
            .then(|| self.result.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reachable(root: usize, n: usize, k: usize) -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            assert!(!seen[r], "cycle through {r}");
            seen[r] = true;
            stack.extend(kary_children(r, root, n, k));
        }
        seen
    }

    #[test]
    fn kary_tree_spans_and_parents_match() {
        for &(n, root, k) in &[(1, 0, 2), (2, 1, 2), (7, 3, 2), (16, 0, 4), (33, 17, 3)] {
            assert!(reachable(root, n, k).iter().all(|&s| s));
            for r in 0..n {
                match kary_parent(r, root, n, k) {
                    None => assert_eq!(r, root),
                    Some(p) => assert!(kary_children(p, root, n, k).contains(&r)),
                }
            }
        }
    }

    #[test]
    fn kary_tree_conformance_at_scale() {
        // Cluster-scale rank counts (the scale bench runs up to 1024
        // simulated nodes): the tree must still span, stay acyclic, keep
        // parent/child agreement, and respect the arity bound everywhere.
        for &(n, root, k) in &[(128, 0, 2), (128, 77, 4), (1024, 0, 4), (1024, 511, 3)] {
            assert!(reachable(root, n, k).iter().all(|&s| s), "n={n} k={k}");
            for r in 0..n {
                let children = kary_children(r, root, n, k);
                assert!(children.len() <= k, "rank {r} exceeds arity {k}");
                for &c in &children {
                    assert_eq!(kary_parent(c, root, n, k), Some(r), "n={n} k={k} c={c}");
                }
                match kary_parent(r, root, n, k) {
                    None => assert_eq!(r, root),
                    Some(p) => {
                        assert!(p < n);
                        assert!(kary_children(p, root, n, k).contains(&r), "n={n} r={r}");
                    }
                }
            }
        }
    }

    /// Drive a [`TreeReduce`] to fixpoint with every rank contributing
    /// `rank + 1`, returning the root's result.
    fn drive_reduce(n: usize, root: usize, k: usize) -> Option<u64> {
        let red = TreeReduce::new(n, root, k);
        let mut inbox: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut steps: Vec<ReduceStep> = (0..n).map(|r| red.contribute(r, r as u64 + 1)).collect();
        loop {
            let mut progressed = false;
            for s in std::mem::take(&mut steps) {
                if let ReduceStep::Send { parent, partial } = s {
                    inbox[parent].push(partial);
                    progressed = true;
                }
            }
            for (node, mail) in inbox.iter_mut().enumerate() {
                for partial in std::mem::take(mail) {
                    steps.push(red.arrive(node, partial));
                }
            }
            if !progressed && steps.is_empty() {
                break;
            }
        }
        red.result()
    }

    #[test]
    fn tree_reduce_sums_at_scale() {
        // 128- and 1024-rank reductions (non-zero roots included) complete
        // and produce the exact integer sum.
        for &(n, root, k) in &[(128, 0, 2), (128, 99, 4), (1024, 0, 8), (1024, 1023, 3)] {
            assert_eq!(
                drive_reduce(n, root, k),
                Some((1..=n as u64).sum()),
                "n={n} root={root} k={k}"
            );
        }
    }

    #[test]
    fn tree_reduce_sums_in_any_order() {
        let n = 9;
        let red = TreeReduce::new(n, 2, 3);
        let mut inbox: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut steps: Vec<ReduceStep> = (0..n).map(|r| red.contribute(r, r as u64 + 1)).collect();
        // Drive Send steps to fixpoint.
        loop {
            let mut progressed = false;
            for s in std::mem::take(&mut steps) {
                if let ReduceStep::Send { parent, partial } = s {
                    inbox[parent].push(partial);
                    progressed = true;
                }
            }
            for (node, mail) in inbox.iter_mut().enumerate() {
                for partial in std::mem::take(mail) {
                    steps.push(red.arrive(node, partial));
                }
            }
            if !progressed && steps.is_empty() {
                break;
            }
        }
        assert_eq!(red.result(), Some((1..=n as u64).sum()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_unary_tree() {
        kary_children(0, 0, 4, 1);
    }
}
