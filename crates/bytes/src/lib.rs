//! Minimal, dependency-free reimplementation of the subset of the `bytes`
//! crate API that this workspace uses.
//!
//! The container building this repository has no network access to a crates
//! registry, so external crates cannot be resolved. This shim keeps the
//! workspace self-contained while preserving the familiar `bytes` idioms:
//! `Bytes` as a cheaply-clonable immutable buffer, `BytesMut` + `freeze`.
//! It has no cursor traits (`Buf` / `BufMut`): no record is encoded field
//! by field — the simulated runtime and engine hand records over as slab
//! ids, the real substrate as typed values.
//!
//! Semantics match the real crate for the operations implemented here:
//! `Bytes` is a window into its storage (clone is O(1), `slice` narrows
//! the window without copying) and `from_static` borrows the static slice
//! without allocating.
//!
//! ## Three representations in one 40-byte handle
//!
//! * **static** — the window *is* the `&'static [u8]`; no allocation, no
//!   refcount;
//! * **shared** — an `Arc<Vec<u8>>` plus a `start..end` window; clones
//!   bump the refcount;
//! * **inline** — up to [`Bytes::INLINE_CAP`] bytes stored in the handle
//!   itself ([`Bytes::inline`]): no buffer, no refcount, nothing to free
//!   or recycle — LCI's *immediate* protocol (DESIGN.md §3.4), used for
//!   the 4-byte slot ids simulated records travel as and the 16-byte put
//!   callback data. A clone copies the handle.
//!
//! The shared variant needs three words and a tag, which rounds to five
//! words: 40 bytes. Inline storage takes what is left beside the tag and a
//! one-byte `start`/`end` pair, hence the cap of 37. A 56-byte handle
//! (the window kept as two words of its own beside a 38-byte inline
//! variant) was measured and rejected: same speed on the real substrate,
//! but every queued `Bytes` grows and the benchmark of record's
//! `peak_live_bytes` rose 4.6–5.9 % on three of four workloads, over its
//! 5 % bound. `handle_is_five_words` pins the layout.
//!
//! Three additions go beyond the real crate, in service of the zero-copy
//! comm datapath (DESIGN.md §3.5.1):
//!
//! * [`Bytes::inline`] — see above.
//! * [`BufPool`] / [`SharedBufPool`] — a per-node free list of
//!   [`BytesMut`] buffers. A `BytesMut` owns its `Arc<Vec<u8>>` from the
//!   start, so `freeze` allocates nothing and a consumer that fully owns a
//!   `Bytes` at the end of its life hands the *same* `Arc` back with
//!   `recycle`, which reclaims it only when the refcount proves
//!   exclusivity: a pooled buffer's header is allocated once, not once per
//!   trip. No runtime path takes from a pool (records travel as slab ids
//!   or values): `SharedBufPool` serves the benchmark's shared-memory
//!   probe, and `BufPool`, which has no `take`, only callers that recycle
//!   into an engine's pool.
//! * [`Frames`] — an ordered list of `Bytes` representing one wire message
//!   assembled from several submissions (AM aggregation). Delivering the
//!   frame list instead of a concatenated copy removes the per-message
//!   copy + allocation that `concat` paid.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Arc;

/// Storage and window of a [`Bytes`] (crate docs: one handle, three
/// representations).
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    /// `Arc<Vec<u8>>` (not `Arc<[u8]>`) so spare capacity survives `freeze`
    /// and [`Bytes::try_reclaim`] can hand the buffer back for pooling.
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
    Inline {
        start: u8,
        end: u8,
        data: [u8; Bytes::INLINE_CAP],
    },
}

/// Cheaply clonable immutable byte buffer: a view into static, shared or
/// inline storage.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// Most bytes [`Bytes::inline`] can hold (crate docs derive the 37).
    pub const INLINE_CAP: usize = 37;

    /// Creates an empty `Bytes` (no allocation).
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Creates `Bytes` borrowing a static slice. No allocation.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes(Repr::Static(s))
    }

    /// Copies `s` into the handle itself when it fits
    /// ([`Bytes::INLINE_CAP`]); `None` when it is too long. No allocation,
    /// no refcount, never reclaimable.
    pub fn inline(s: &[u8]) -> Option<Bytes> {
        let mut data = [0u8; Bytes::INLINE_CAP];
        data.get_mut(..s.len())?.copy_from_slice(s);
        Some(Bytes(Repr::Inline {
            start: 0,
            end: s.len() as u8,
            data,
        }))
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Static(s) => s.len(),
            Repr::Shared { start, end, .. } => end - start,
            Repr::Inline { start, end, .. } => (end - start) as usize,
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shrinks the view in place to `lo..hi` of itself. Callers have
    /// checked `lo <= hi <= len`, so the inline casts cannot truncate.
    fn narrow(&mut self, lo: usize, hi: usize) {
        match &mut self.0 {
            Repr::Static(s) => *s = &s[lo..hi],
            Repr::Shared { start, end, .. } => {
                *end = *start + hi;
                *start += lo;
            }
            Repr::Inline { start, end, .. } => {
                *end = *start + hi as u8;
                *start += lo as u8;
            }
        }
    }

    /// Returns a sub-view of `self` (like `Bytes::slice` in the real crate).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        let mut view = self.clone();
        view.narrow(range.start, range.end);
        view
    }

    /// Copies the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Recovers the backing buffer (cleared, capacity and `Arc` kept) when
    /// this view is the sole owner of heap storage; otherwise returns the
    /// `Bytes` unchanged. Static and inline views have no buffer to give.
    pub fn try_reclaim(self) -> Result<BytesMut, Bytes> {
        match self.0 {
            Repr::Shared {
                mut buf,
                start,
                end,
            } => match Arc::get_mut(&mut buf) {
                Some(v) => {
                    v.clear();
                    Ok(BytesMut { buf })
                }
                None => Err(Bytes(Repr::Shared { buf, start, end })),
            },
            other => Err(Bytes(other)),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
            Repr::Inline { start, end, data } => &data[*start as usize..*end as usize],
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { buf: Arc::new(v) }.freeze()
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// `b"..."` with non-printable bytes escaped, as the real crate prints.
fn fmt_bytes(bytes: &[u8], f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes {
        if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
            write!(f, "{}", b as char)?;
        } else {
            write!(f, "\\x{b:02x}")?;
        }
    }
    write!(f, "\"")
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_bytes(self, f)
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Growable byte buffer; `freeze` converts it into an immutable `Bytes`.
///
/// The buffer lives in an `Arc` it is the only owner of, so that `freeze`
/// is a move and a recycled buffer ([`Bytes::try_reclaim`]) keeps its
/// header as well as its storage.
#[derive(Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Arc<Vec<u8>>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Arc::new(Vec::with_capacity(cap)),
        }
    }

    /// The buffer itself; a `BytesMut` is its `Arc`'s only owner.
    fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.buf).expect("a BytesMut is its buffer's only owner")
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.as_mut_vec().reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.as_mut_vec().extend_from_slice(s);
    }

    /// Converts into an immutable `Bytes` without copying or allocating
    /// (spare capacity is kept with the storage so pooled buffers survive
    /// round trips).
    pub fn freeze(self) -> Bytes {
        Bytes(Repr::Shared {
            start: 0,
            end: self.buf.len(),
            buf: self.buf,
        })
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_bytes(self, f)
    }
}

/// A single-threaded free list that consumers [`recycle`] spent buffers
/// into. Nothing takes from it: records travel as slab ids or values, and
/// the pool stays only for the callers that still recycle into
/// `CommEngine::buf_pool()` (the threaded [`SharedBufPool`] is the one
/// that hands buffers back out). `recycle` only reclaims storage it can
/// prove exclusive via the refcount; shared buffers — and static or inline
/// views, which have none — are silently dropped, so recycling is always
/// safe and never affects observable values.
///
/// [`recycle`]: BufPool::recycle
pub struct BufPool {
    bufs: RefCell<Vec<BytesMut>>,
    max_bufs: usize,
}

impl BufPool {
    /// A pool keeping at most `max_bufs` free buffers.
    pub fn new(max_bufs: usize) -> Self {
        BufPool {
            bufs: RefCell::new(Vec::new()),
            max_bufs,
        }
    }

    /// Returns a buffer's storage to the pool if `b` is its sole owner.
    /// Reports whether the storage was reclaimed.
    pub fn recycle(&self, b: Bytes) -> bool {
        if let Ok(buf) = b.try_reclaim() {
            let mut bufs = self.bufs.borrow_mut();
            if bufs.len() < self.max_bufs {
                bufs.push(buf);
                return true;
            }
        }
        false
    }

    /// Recycles every frame of `frames`; returns how many were reclaimed.
    pub fn recycle_frames(&self, frames: Frames) -> usize {
        let mut n = 0;
        match frames {
            Frames::Empty => {}
            Frames::One(b) => n += usize::from(self.recycle(b)),
            Frames::Many(v) => {
                for b in v {
                    n += usize::from(self.recycle(b));
                }
            }
        }
        n
    }

    /// Number of free buffers currently pooled.
    pub fn free_len(&self) -> usize {
        self.bufs.borrow().len()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BufPool {{ free: {}, max: {} }}",
            self.free_len(),
            self.max_bufs
        )
    }
}

/// Thread-safe [`BufPool`]: the same recycle-if-sole-owner protocol behind
/// a `Mutex`, for the real-thread execution path where senders and
/// receivers live on different OS threads. Tracks pool hits and misses so
/// runs can report steady-state buffer reuse.
pub struct SharedBufPool {
    bufs: std::sync::Mutex<Vec<BytesMut>>,
    max_bufs: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl SharedBufPool {
    /// A pool keeping at most `max_bufs` free buffers.
    pub fn new(max_bufs: usize) -> Self {
        SharedBufPool {
            bufs: std::sync::Mutex::new(Vec::new()),
            max_bufs,
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Pops a recycled buffer (growing it to `min_capacity` if needed) or
    /// allocates a fresh one.
    pub fn take(&self, min_capacity: usize) -> BytesMut {
        use std::sync::atomic::Ordering::Relaxed;
        match self.bufs.lock().expect("shared buf pool").pop() {
            Some(mut b) => {
                self.hits.fetch_add(1, Relaxed);
                b.reserve(min_capacity);
                b
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                BytesMut::with_capacity(min_capacity)
            }
        }
    }

    /// Returns a buffer's storage to the pool if `b` is its sole owner
    /// (the lock is taken only then). Reports whether the storage was
    /// reclaimed.
    pub fn recycle(&self, b: Bytes) -> bool {
        if let Ok(buf) = b.try_reclaim() {
            let mut bufs = self.bufs.lock().expect("shared buf pool");
            if bufs.len() < self.max_bufs {
                bufs.push(buf);
                return true;
            }
        }
        false
    }

    /// Recycles every frame of `frames`; returns how many were reclaimed.
    pub fn recycle_frames(&self, frames: Frames) -> usize {
        let mut n = 0;
        match frames {
            Frames::Empty => {}
            Frames::One(b) => n += usize::from(self.recycle(b)),
            Frames::Many(v) => {
                for b in v {
                    n += usize::from(self.recycle(b));
                }
            }
        }
        n
    }

    /// Number of free buffers currently pooled.
    pub fn free_len(&self) -> usize {
        self.bufs.lock().expect("shared buf pool").len()
    }

    /// `(takes served from the pool, takes that had to allocate)`.
    pub fn reuse_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }
}

impl std::fmt::Debug for SharedBufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedBufPool {{ free: {}, max: {} }}",
            self.free_len(),
            self.max_bufs
        )
    }
}

/// An ordered list of payload frames making up one wire message.
///
/// Aggregated active messages are submitted as several independent payloads
/// that travel as one fabric message. `Frames` preserves the submission
/// boundaries so the receiver can decode frame-by-frame with **zero**
/// copies; the common one-payload case stays a single `Bytes` with no list
/// allocation, and cost-only messages are `Empty`.
#[derive(Clone, Default, PartialEq, Eq)]
pub enum Frames {
    /// No payload (cost-only message).
    #[default]
    Empty,
    /// Exactly one payload frame — the common, allocation-free case.
    One(Bytes),
    /// Two or more frames, in submission order.
    Many(Vec<Bytes>),
}

impl Frames {
    /// Creates an empty frame list.
    pub fn new() -> Self {
        Frames::Empty
    }

    /// Appends a frame.
    pub fn push(&mut self, b: Bytes) {
        match std::mem::take(self) {
            Frames::Empty => *self = Frames::One(b),
            Frames::One(first) => *self = Frames::Many(vec![first, b]),
            Frames::Many(mut v) => {
                v.push(b);
                *self = Frames::Many(v);
            }
        }
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        match self {
            Frames::Empty => 0,
            Frames::One(_) => 1,
            Frames::Many(v) => v.len(),
        }
    }

    /// Whether there are no frames at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, Frames::Empty)
    }

    /// Total payload length across all frames.
    pub fn total_len(&self) -> usize {
        self.as_slice().iter().map(Bytes::len).sum()
    }

    /// The frames as a slice, in submission order.
    pub fn as_slice(&self) -> &[Bytes] {
        match self {
            Frames::Empty => &[],
            Frames::One(b) => std::slice::from_ref(b),
            Frames::Many(v) => v.as_slice(),
        }
    }

    /// Iterates over the frames in submission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Bytes> {
        self.as_slice().iter()
    }

    /// Takes the frames out, leaving `Empty` behind.
    pub fn take(&mut self) -> Frames {
        std::mem::take(self)
    }

    /// Collapses into a single contiguous `Bytes`: `None` when empty, the
    /// frame itself (no copy) for one frame, and a single-allocation
    /// concatenation otherwise. Use only where a contiguous view is truly
    /// required; frame-aware decoding avoids the copy.
    pub fn into_bytes(self) -> Option<Bytes> {
        match self {
            Frames::Empty => None,
            Frames::One(b) => Some(b),
            Frames::Many(v) => {
                let total: usize = v.iter().map(Bytes::len).sum();
                let mut out = BytesMut::with_capacity(total);
                for f in &v {
                    out.extend_from_slice(f);
                }
                Some(out.freeze())
            }
        }
    }

    /// Copies all frames into one contiguous `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        for f in self.iter() {
            out.extend_from_slice(f);
        }
        out
    }
}

impl From<Bytes> for Frames {
    fn from(b: Bytes) -> Self {
        Frames::One(b)
    }
}

impl From<Option<Bytes>> for Frames {
    fn from(o: Option<Bytes>) -> Self {
        match o {
            Some(b) => Frames::One(b),
            None => Frames::Empty,
        }
    }
}

impl From<Vec<Bytes>> for Frames {
    fn from(mut v: Vec<Bytes>) -> Self {
        match v.len() {
            0 => Frames::Empty,
            1 => Frames::One(v.pop().expect("len checked")),
            _ => Frames::Many(v),
        }
    }
}

impl<'a> IntoIterator for &'a Frames {
    type Item = &'a Bytes;
    type IntoIter = std::slice::Iter<'a, Bytes>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl std::fmt::Debug for Frames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The head of a split at `at` (`slice(0..at)`) views the shared
    /// storage without a copy, beside the rest; a sub-view of a sub-view
    /// composes.
    #[test]
    fn split_to_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.slice(0..2);
        let rest = b.slice(2..5);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&rest[..], &[3, 4, 5]);
        assert_eq!(head.len() + rest.len(), 5);
        assert_eq!(head.as_ptr(), b.as_ptr(), "same storage");
        assert_eq!(rest.as_ptr(), b[2..].as_ptr(), "same storage");
        assert_eq!(&rest.slice(1..3)[..], &[4, 5]);
        assert!(b.slice(5..5).is_empty());
    }

    /// The tail of a split at `at` (`slice(at..len)`) views shared and
    /// static storage without a copy.
    #[test]
    fn split_off_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let tail = b.slice(3..5);
        assert_eq!(&b.slice(0..3)[..], &[1, 2, 3]);
        assert_eq!(&tail[..], &[4, 5]);
        assert_eq!(tail.as_ptr(), b[3..].as_ptr(), "same storage");
        let s = Bytes::from_static(b"hello world");
        let world = s.slice(6..11);
        assert_eq!(&s.slice(0..6)[..], b"hello ");
        assert_eq!(&world[..], b"world");
        assert_eq!(world.as_ptr(), s[6..].as_ptr(), "same storage");
    }

    #[test]
    fn equality_and_clone_are_by_value() {
        let a = Bytes::from(vec![9u8; 16]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, vec![9u8; 16]);
        assert!(Bytes::new().is_empty());
        let s = Bytes::from_static(b"tag");
        assert_eq!(s, Bytes::from(b"tag".to_vec()));
    }

    #[test]
    fn reclaim_requires_exclusivity() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        let a = a.try_reclaim().expect_err("shared: not reclaimable");
        assert_eq!(&a[..], &[1, 2, 3]);
        drop(a);
        let v = b.try_reclaim().expect("sole owner reclaims");
        assert!(v.is_empty() && v.capacity() >= 3);
        assert!(Bytes::from_static(b"abc").try_reclaim().is_err());
    }

    /// The layout the crate docs derive: a wider handle costs every queue
    /// of `Bytes` memory (measured), a narrower one cannot hold a record.
    #[test]
    fn handle_is_five_words() {
        assert_eq!(std::mem::size_of::<Bytes>(), 40);
        assert_eq!(std::mem::size_of::<Option<Bytes>>(), 40);
        assert_eq!(std::mem::size_of::<Frames>(), 40);
    }

    #[test]
    fn inline_holds_up_to_37_bytes_and_is_never_reclaimable() {
        let src: Vec<u8> = (0..38).collect();
        assert!(Bytes::inline(&src).is_none(), "38 bytes do not fit");
        let b = Bytes::inline(&src[..37]).expect("37 bytes fit");
        assert_eq!(b, src[..37]);
        let (b, tail) = (b.slice(2..30), b.slice(30..37));
        assert_eq!((&b[..], &tail[..]), (&src[2..30], &src[30..37]));
        let b = b.try_reclaim().expect_err("inline: no buffer to give");
        assert_eq!(b, src[2..30], "handed back unchanged");
        let s = Bytes::from_static(b"static").slice(2..6);
        let s = s.try_reclaim().expect_err("static: no buffer to give");
        assert_eq!(&s[..], b"atic", "handed back unchanged");
        assert_eq!(Bytes::inline(&[]).expect("empty fits"), Bytes::new());
    }

    /// `take → freeze → recycle → take` hands the same buffer back, header
    /// and storage (`tests/pool_alloc.rs` at the workspace root counts the
    /// second trip's allocations: none); the single-threaded pool reclaims
    /// the same way.
    #[test]
    fn pool_round_trips_storage() {
        fn trip(
            take: impl Fn(usize) -> BytesMut,
            recycle: impl Fn(Bytes) -> bool,
        ) -> (*const u8, usize) {
            let mut m = take(64);
            assert!(m.is_empty(), "recycled buffers come back cleared");
            let at = (m.as_ptr(), m.capacity());
            m.extend_from_slice(b"hello");
            assert!(recycle(m.freeze()));
            at
        }
        let shared = SharedBufPool::new(4);
        let first = trip(|n| shared.take(n), |b| shared.recycle(b));
        let again = trip(|n| shared.take(n), |b| shared.recycle(b));
        assert_eq!(first, again, "same storage came back");
        assert_eq!(shared.reuse_stats(), (1, 1));

        // A shared buffer is dropped, not reclaimed; so is one the full
        // pool has no room for; an inline view has nothing to reclaim.
        let pool = BufPool::new(4);
        let m = BytesMut::with_capacity(8);
        assert!(pool.recycle(m.freeze()));
        assert_eq!(pool.free_len(), 1);
        let pool2 = BufPool::new(1);
        let b = Bytes::from(vec![0u8; 8]);
        let keep = b.clone();
        assert!(!pool2.recycle(b));
        assert!(!pool2.recycle(Bytes::inline(b"rec").expect("fits")));
        assert_eq!(pool2.free_len(), 0);
        assert_eq!(keep.len(), 8);
        assert!(pool2.recycle(keep) && !pool2.recycle(Bytes::from(vec![1u8])));
    }

    #[test]
    fn frames_preserve_submission_order() {
        let mut f = Frames::new();
        assert!(f.is_empty());
        assert_eq!(f.clone().into_bytes(), None);
        f.push(Bytes::from_static(b"ab"));
        assert_eq!(f.frame_count(), 1);
        assert_eq!(&f.clone().into_bytes().expect("one frame")[..], b"ab");
        f.push(Bytes::from(b"cde".to_vec()));
        f.push(Bytes::from_static(b"f"));
        assert_eq!(f.frame_count(), 3);
        assert_eq!(f.total_len(), 6);
        assert_eq!(f.to_vec(), b"abcdef");
        assert_eq!(&f.clone().into_bytes().expect("concat")[..], b"abcdef");
        let frames: Vec<&[u8]> = f.iter().map(|b| &b[..]).collect();
        assert_eq!(frames, vec![&b"ab"[..], b"cde", b"f"]);
        assert_eq!(Frames::from(None), Frames::Empty);
        assert_eq!(
            Frames::from(Some(Bytes::from_static(b"x"))).frame_count(),
            1
        );
    }
}
