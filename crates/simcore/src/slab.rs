//! A minimal slab allocator for state touched from many events.
//!
//! [`GenSlab`] recycles freed slots and keeps a per-slot generation, so
//! a key held by a scheduled event goes stale when its value is removed:
//! the kernel's boxed closures, the driver's flow completion words, and
//! the engine's in-flight runs and host-flow records live there. It
//! avoids an external dependency.

/// A key into a [`GenSlab`]: slot index plus the generation it was
/// issued under. A key goes stale the moment its slot is removed, so
/// dangling handles read as `None` instead of aliasing a recycled slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GenKey {
    idx: u32,
    gen: u32,
}

impl GenKey {
    /// The slot index. Unlike the key, it is shared by every value the
    /// slot ever holds.
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The key as one word: the argument of a word event
    /// ([`crate::sim::Ctx::call_at`]) that must find its value again.
    pub fn to_bits(self) -> u64 {
        u64::from(self.gen) << 32 | u64::from(self.idx)
    }

    /// The key whose [`GenKey::to_bits`] is `bits`.
    pub fn from_bits(bits: u64) -> GenKey {
        GenKey {
            idx: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

/// A generational slab: a vector of slots with free-list recycling,
/// where removal bumps the slot's generation so stale keys can never
/// observe a later occupant.
///
/// This is what long-lived cross-event handles (e.g. a hedged host
/// flow's record, named by both contestants and the watchdog) use
/// instead of `Rc<RefCell<..>>`: the handle is `Copy`, and the ABA
/// hazard of a recycled slot is caught by the generation check.
///
/// # Examples
///
/// ```
/// use simcore::slab::GenSlab;
///
/// let mut slab = GenSlab::new();
/// let a = slab.insert("alpha");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), Some("alpha"));
/// let b = slab.insert("beta"); // Reuses the slot...
/// assert_eq!(slab.get(a), None); // ...but the old key stays dead.
/// assert_eq!(slab.get(b), Some(&"beta"));
/// ```
#[derive(Debug, Clone)]
pub struct GenSlab<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for GenSlab<T> {
    fn default() -> Self {
        GenSlab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> GenSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a value, returning a generational key for it.
    pub fn insert(&mut self, value: T) -> GenKey {
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                slot.1 = Some(value);
                GenKey {
                    idx: i,
                    gen: slot.0,
                }
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "GenSlab overflow");
                self.slots.push((0, Some(value)));
                GenKey {
                    idx: (self.slots.len() - 1) as u32,
                    gen: 0,
                }
            }
        }
    }

    /// The slot index the next [`GenSlab::insert`] will use (free slots
    /// are recycled LIFO). Lets callers name a value in events published
    /// *before* the insertion happens.
    pub fn vacant_index(&self) -> usize {
        self.free.last().map_or(self.slots.len(), |&i| i as usize)
    }

    /// Removes and returns the value at `key`, if still live. The slot's
    /// generation is bumped so every outstanding copy of `key` dies.
    pub fn remove(&mut self, key: GenKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.0 != key.gen {
            return None;
        }
        let v = slot.1.take();
        if v.is_some() {
            slot.0 = slot.0.wrapping_add(1);
            self.free.push(key.idx);
            self.len -= 1;
        }
        v
    }

    /// Shared access to the value at `key`, if still live.
    pub fn get(&self, key: GenKey) -> Option<&T> {
        let slot = self.slots.get(key.idx as usize)?;
        if slot.0 != key.gen {
            return None;
        }
        slot.1.as_ref()
    }

    /// Exclusive access to the value at `key`, if still live.
    pub fn get_mut(&mut self, key: GenKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.0 != key.gen {
            return None;
        }
        slot.1.as_mut()
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots ever allocated (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_slab_basic_lifecycle() {
        let mut s = GenSlab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        *s.get_mut(b).unwrap() += 1;
        assert_eq!(s.remove(b), Some(21));
        assert_eq!(s.remove(b), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn gen_slab_names_the_slot_the_next_insert_takes() {
        let mut s = GenSlab::new();
        assert_eq!(s.vacant_index(), 0);
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.vacant_index(), 2);
        s.remove(a);
        s.remove(b);
        assert_eq!(s.vacant_index(), b.index(), "LIFO reuse");
        assert_eq!(s.insert(3).index(), b.index());
        assert_eq!(s.vacant_index(), a.index());
    }

    #[test]
    fn gen_keys_round_trip_through_their_bits() {
        let mut s = GenSlab::new();
        let mut keys = Vec::new();
        for round in 0..3 {
            let a = s.insert(round);
            let b = s.insert(round + 10);
            keys.extend([a, b]);
            s.remove(a);
            s.remove(b);
        }
        for k in keys.iter().copied().chain([GenKey {
            idx: u32::MAX,
            gen: u32::MAX,
        }]) {
            assert_eq!(GenKey::from_bits(k.to_bits()), k);
        }
        // Same slot, different generation: different words.
        assert_eq!(keys[0].index(), keys[3].index());
        assert_ne!(keys[0].to_bits(), keys[3].to_bits());
        let live = s.insert(7);
        assert_eq!(s.get(GenKey::from_bits(live.to_bits())), Some(&7));
        assert_eq!(s.get(GenKey::from_bits(keys[0].to_bits())), None);
    }

    #[test]
    fn gen_slab_stale_keys_never_alias() {
        let mut s = GenSlab::new();
        let a = s.insert("old");
        s.remove(a);
        let b = s.insert("new");
        // Same physical slot, different generation.
        assert_eq!(b.index(), a.index());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&"new"));
        assert_eq!(s.capacity(), 1, "slot was recycled, not grown");
    }
}
