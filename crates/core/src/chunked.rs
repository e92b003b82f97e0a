//! A chunked, append-only table whose slots are read without a lock.
//!
//! Registries that only ever grow — principal slots, kernel exports,
//! interned constants — index their entries by dense ids. This table
//! keeps them in fixed-size chunks that are allocated on first use and
//! never freed or moved, so reaching a slot is two atomic loads
//! (`OnceLock::get`) while whatever lock hands out the ids serializes
//! the writers. A slot starts as `T::default()`; the owner publishes
//! into it through interior mutability (an `OnceLock` or an atomic).

use std::sync::OnceLock;

/// Up to `capacity` slots of `T` in chunks of `CHUNK`; see the module
/// docs.
pub struct ChunkedTable<T, const CHUNK: usize> {
    chunks: Box<[OnceLock<Box<[T; CHUNK]>>]>,
}

impl<T: Default, const CHUNK: usize> ChunkedTable<T, CHUNK> {
    /// An empty table of `capacity` slots (a multiple of `CHUNK`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity.is_multiple_of(CHUNK), "whole chunks only");
        ChunkedTable {
            chunks: (0..capacity / CHUNK).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The number of slots the table can hold.
    pub fn capacity(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Slot `i`, allocating its chunk on first use. Panics past the
    /// capacity.
    pub fn slot(&self, i: usize) -> &T {
        assert!(i < self.capacity(), "table limit ({})", self.capacity());
        &self.chunks[i / CHUNK].get_or_init(|| Box::new(std::array::from_fn(|_| T::default())))
            [i % CHUNK]
    }

    /// Slot `i`, if its chunk exists (lock-free; `None` past the
    /// capacity too).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        Some(&self.chunks.get(i / CHUNK)?.get()?[i % CHUNK])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_appear_by_chunk_and_stay_put() {
        let t: ChunkedTable<OnceLock<u32>, 4> = ChunkedTable::new(16);
        assert_eq!(t.capacity(), 16);
        assert!(t.get(5).is_none(), "chunk not allocated yet");
        t.slot(5).set(50).unwrap();
        let at = t.get(5).unwrap() as *const _;
        assert_eq!(t.get(5).unwrap().get(), Some(&50));
        assert_eq!(t.get(4).unwrap().get(), None, "same chunk, unset slot");
        t.slot(13).set(130).unwrap();
        assert_eq!(t.get(5).unwrap() as *const _, at, "chunks never move");
        assert!(t.get(16).is_none(), "past the capacity");
    }
}
