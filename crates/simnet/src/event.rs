//! Type-erased event bodies with an inline small-closure representation.
//!
//! The seed engine stored every event as a `Box<dyn FnOnce(&mut Sim)>`,
//! paying one heap allocation per scheduled event. Almost every closure in
//! this workspace captures only a couple of `Rc` handles and an integer, so
//! [`EventFn`] keeps captures of up to [`INLINE_WORDS`] machine words
//! inline (no allocation at all) and falls back to a single boxed closure
//! only for larger captures. The engine stores each body in its slab slot,
//! and the slab keeps its capacity (see `engine.rs`), so the steady-state
//! hot path touches the allocator for neither the event body nor the queue
//! node.

use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop, MaybeUninit};

use crate::engine::Sim;

/// Number of machine words of capture state stored inline.
pub const INLINE_WORDS: usize = 3;

type InlineBuf = [MaybeUninit<usize>; INLINE_WORDS];

/// A type-erased `FnOnce(&mut Sim)` with inline storage for small captures.
///
/// Closures whose captures fit in [`INLINE_WORDS`] words (and are at most
/// word-aligned) are stored inline; larger ones are boxed. Either way the
/// value is exactly `INLINE_WORDS + 2` words and is invoked through one
/// indirect call.
pub struct EventFn {
    buf: InlineBuf,
    /// Invokes and consumes the stored closure; `buf` must not be touched
    /// again afterwards.
    call: unsafe fn(*mut InlineBuf, &mut Sim),
    /// Drops the stored closure without invoking it.
    drop_fn: unsafe fn(*mut InlineBuf),
    /// Events capture `Rc`/`RefCell` simulation components: keep the type
    /// `!Send`/`!Sync` even though the raw storage words would auto-derive
    /// them.
    _not_send: PhantomData<*mut ()>,
}

impl EventFn {
    /// Whether captures of closure type `F` fit the inline representation.
    #[inline]
    pub fn fits_inline<F>() -> bool {
        mem::size_of::<F>() <= mem::size_of::<InlineBuf>()
            && mem::align_of::<F>() <= mem::align_of::<usize>()
    }

    /// Wrap a closure, storing it inline when it fits.
    pub fn new<F: FnOnce(&mut Sim) + 'static>(f: F) -> Self {
        unsafe fn call_inline<F: FnOnce(&mut Sim)>(buf: *mut InlineBuf, sim: &mut Sim) {
            // Move the closure out of the buffer and run it.
            let f = unsafe { (buf as *mut F).read() };
            f(sim);
        }
        unsafe fn drop_inline<F>(buf: *mut InlineBuf) {
            unsafe { std::ptr::drop_in_place(buf as *mut F) };
        }
        unsafe fn call_boxed<F: FnOnce(&mut Sim)>(buf: *mut InlineBuf, sim: &mut Sim) {
            let b = unsafe { (buf as *mut *mut F).read() };
            let f = unsafe { Box::from_raw(b) };
            f(sim);
        }
        unsafe fn drop_boxed<F>(buf: *mut InlineBuf) {
            let b = unsafe { (buf as *mut *mut F).read() };
            drop(unsafe { Box::from_raw(b) });
        }

        let mut buf: InlineBuf = [MaybeUninit::uninit(); INLINE_WORDS];
        if Self::fits_inline::<F>() {
            // Size and alignment were checked, so the write is in-bounds
            // and sufficiently aligned.
            unsafe { (buf.as_mut_ptr() as *mut F).write(f) };
            EventFn {
                buf,
                call: call_inline::<F>,
                drop_fn: drop_inline::<F>,
                _not_send: PhantomData,
            }
        } else {
            let b = Box::into_raw(Box::new(f));
            unsafe { (buf.as_mut_ptr() as *mut *mut F).write(b) };
            EventFn {
                buf,
                call: call_boxed::<F>,
                drop_fn: drop_boxed::<F>,
                _not_send: PhantomData,
            }
        }
    }

    /// Run the stored closure, consuming the event.
    #[inline]
    pub fn invoke(self, sim: &mut Sim) {
        // The call consumes the closure, so suppress the drop glue.
        let mut this = ManuallyDrop::new(self);
        unsafe { (this.call)(&mut this.buf, sim) };
    }
}

impl Drop for EventFn {
    fn drop(&mut self) {
        unsafe { (self.drop_fn)(&mut self.buf) };
    }
}

impl std::fmt::Debug for EventFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("EventFn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared;

    #[test]
    fn small_captures_are_inline() {
        assert!(EventFn::fits_inline::<fn(&mut Sim)>());
        let log = shared(0u64);
        let l = log.clone();
        // One Rc + nothing else: inline.
        let closure = move |_: &mut Sim| *l.borrow_mut() += 1;
        fn assert_fits<F: FnOnce(&mut Sim)>(_: &F) -> bool {
            EventFn::fits_inline::<F>()
        }
        assert!(assert_fits(&closure));
        let ev = EventFn::new(closure);
        let mut sim = Sim::new();
        ev.invoke(&mut sim);
        assert_eq!(*log.borrow(), 1);
    }

    #[test]
    fn large_captures_are_boxed_and_still_run() {
        let log = shared(Vec::new());
        let l = log.clone();
        let big = [7u64; 16];
        let closure = move |_: &mut Sim| l.borrow_mut().push(big[3]);
        fn fits<F: FnOnce(&mut Sim)>(_: &F) -> bool {
            EventFn::fits_inline::<F>()
        }
        assert!(!fits(&closure));
        let ev = EventFn::new(closure);
        let mut sim = Sim::new();
        ev.invoke(&mut sim);
        assert_eq!(*log.borrow(), vec![7]);
    }

    #[test]
    fn unexecuted_events_drop_their_captures() {
        let rc = std::rc::Rc::new(());
        {
            let c1 = rc.clone();
            let _small = EventFn::new(move |_| drop(c1));
            let c2 = rc.clone();
            let big = [0u64; 16];
            let _large = EventFn::new(move |_| {
                let _ = big;
                drop(c2)
            });
            assert_eq!(std::rc::Rc::strong_count(&rc), 3);
        }
        assert_eq!(std::rc::Rc::strong_count(&rc), 1);
    }
}
