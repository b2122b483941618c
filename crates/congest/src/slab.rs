//! Recycled buffer slab with generation-checked handles.
//!
//! The engine delivers into per-node inboxes, but at 100k+ nodes keeping
//! a grow/clear `Vec` *per node* pins O(n) buffers (and their capacity)
//! forever, even though only the nodes that got mail this round need one.
//! The slab keeps a pool of recycled buffers sized to the **concurrent**
//! demand instead: a node acquires a slot on its first delivery of the
//! round and releases it after its receive, so resident memory tracks the
//! per-round dirty set, hot buffers stay cache-warm across rounds, and
//! steady-state rounds allocate nothing.
//!
//! Handles carry a generation counter bumped on every release; a stale
//! handle (use-after-release, an engine bug) fails loudly instead of
//! silently reading another node's mail.

/// Handle to a slab slot, valid until the slot is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabRef {
    idx: u32,
    gen: u32,
}

impl SlabRef {
    /// Sentinel for "no slot held".
    pub const NONE: SlabRef = SlabRef {
        idx: u32::MAX,
        gen: u32::MAX,
    };
}

/// A pool of recycled `Vec<T>` buffers. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    bufs: Vec<Vec<T>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            bufs: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
        }
    }

    /// Check out an empty buffer (recycled when possible).
    pub fn acquire(&mut self) -> SlabRef {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.bufs.push(Vec::new());
                self.gens.push(0);
                (self.bufs.len() - 1) as u32
            }
        };
        self.live += 1;
        self.peak = self.peak.max(self.live);
        SlabRef {
            idx,
            gen: self.gens[idx as usize],
        }
    }

    #[inline]
    fn check(&self, r: SlabRef) -> usize {
        let i = r.idx as usize;
        assert!(
            i < self.bufs.len() && self.gens[i] == r.gen,
            "stale or invalid slab handle {r:?}"
        );
        i
    }

    /// The buffer behind a live handle.
    #[inline]
    pub fn get(&self, r: SlabRef) -> &[T] {
        let i = self.check(r);
        &self.bufs[i]
    }

    /// Mutable access to the buffer behind a live handle.
    #[inline]
    pub fn get_mut(&mut self, r: SlabRef) -> &mut Vec<T> {
        let i = self.check(r);
        &mut self.bufs[i]
    }

    /// Return a slot to the pool. Its contents are cleared (capacity is
    /// kept for recycling) and the handle is invalidated.
    pub fn release(&mut self, r: SlabRef) {
        let i = self.check(r);
        self.bufs[i].clear();
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
    }

    /// Buffers currently checked out.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrently checked-out buffers over the
    /// slab's lifetime — the "peak slab occupancy" memory counter.
    pub fn peak_live(&self) -> usize {
        self.peak
    }

    /// Bytes resident in the recycled buffers (capacity, not length):
    /// the slab's steady-state allocation footprint.
    pub fn resident_bytes(&self) -> usize {
        self.bufs
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<T>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles_capacity() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.acquire();
        s.get_mut(a).extend([1, 2, 3]);
        let cap = s.get_mut(a).capacity();
        assert!(cap >= 3);
        s.release(a);
        assert_eq!(s.live(), 0);
        let b = s.acquire();
        assert!(s.get(b).is_empty(), "recycled buffer arrives cleared");
        assert!(s.get_mut(b).capacity() >= cap, "capacity survives recycle");
        assert_eq!(s.resident_bytes(), cap * 8);
    }

    #[test]
    fn peak_tracks_concurrent_demand() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.acquire();
        let b = s.acquire();
        assert_eq!((s.live(), s.peak_live()), (2, 2));
        s.release(a);
        let c = s.acquire();
        assert_eq!((s.live(), s.peak_live()), (2, 2), "recycle, not growth");
        s.release(b);
        s.release(c);
        assert_eq!((s.live(), s.peak_live()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "stale or invalid slab handle")]
    fn stale_handle_rejected() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.acquire();
        s.release(a);
        let _ = s.acquire(); // same slot, new generation
        let _ = s.get(a);
    }

    #[test]
    #[should_panic(expected = "stale or invalid slab handle")]
    fn none_handle_rejected() {
        let s: Slab<u8> = Slab::new();
        let _ = s.get(SlabRef::NONE);
    }
}
