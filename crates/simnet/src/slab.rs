//! A slab of records named by `u32` ids.
//!
//! The simulated stack keeps every in-flight record — a fabric chunk, a
//! library wire message, an LCI direct send or receive — in a slab and
//! passes its id around (inside a `Payload::Wire`, a wire record, an
//! event capture) instead of a box. A taken slot goes on a free list and
//! the next insert reuses it, last freed first, so a warmed slab never
//! allocates: its size is the peak number of live records, plus at most
//! an eighth or four slots (it grows by that much, not by doubling).

/// Records in reusable slots, named by the `u32` id [`Slab::insert`]
/// returns. Using an id after [`Slab::take`] freed it panics unless the
/// slot was reused meanwhile: ids carry no generation.
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Store `value`, reusing the most recently freed slot if there is one.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(value);
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("slab ids fit in u32");
                if self.slots.len() == self.slots.capacity() {
                    // Grow by an eighth, not double: a slab keeps its peak
                    // capacity for the whole run, so doubling's slack
                    // (up to half the slots) would stay live with it.
                    self.slots.reserve_exact((self.slots.len() / 8).max(4));
                }
                self.slots.push(Some(value));
                id
            }
        }
    }

    /// Remove and return the record `id`, freeing its slot.
    pub fn take(&mut self, id: u32) -> T {
        let value = self.slots[id as usize].take().expect("slab slot is free");
        self.free.push(id);
        value
    }

    pub fn get(&self, id: u32) -> &T {
        self.slots[id as usize].as_ref().expect("slab slot is free")
    }

    pub fn get_mut(&mut self, id: u32) -> &mut T {
        self.slots[id as usize].as_mut().expect("slab slot is free")
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::Slab;

    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        let mut s = Slab::default();
        let ids: Vec<u32> = (0..4).map(|i| s.insert(i * 10)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(s.take(1), 10);
        assert_eq!(s.take(3), 30);
        assert_eq!(s.len(), 2);
        assert_eq!(s.insert(77), 3, "last freed slot first");
        assert_eq!(s.insert(88), 1);
        assert_eq!(s.insert(99), 4, "no free slot: grow");
        assert_eq!(s.len(), 5);
        *s.get_mut(4) += 1;
        assert_eq!(
            (*s.get(0), *s.get(1), *s.get(3), *s.get(4)),
            (0, 88, 77, 100)
        );
    }

    #[test]
    fn take_after_reuse_returns_the_new_record() {
        let mut s = Slab::default();
        let a = s.insert("first");
        assert_eq!(s.take(a), "first");
        assert!(s.is_empty());
        let b = s.insert("second");
        assert_eq!(a, b, "the freed slot is reused");
        assert_eq!(s.take(b), "second");
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "slab slot is free")]
    fn take_of_a_free_slot_panics() {
        let mut s = Slab::default();
        let a = s.insert(1u8);
        s.take(a);
        s.take(a);
    }
}
