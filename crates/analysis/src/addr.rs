//! Hash containers keyed by guest addresses or page numbers, shared by
//! the slicer's demand set and the taint shadow's page table.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A set of guest addresses.
pub(crate) type AddrSet = HashSet<u32, BuildHasherDefault<AddrHasher>>;

/// A map keyed by guest addresses or page numbers.
pub(crate) type AddrMap<V> = HashMap<u32, V, BuildHasherDefault<AddrHasher>>;

/// Hasher for guest addresses: one multiply, rotated so the bucket bits
/// depend on every address bit (Fibonacci hashing).
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b) ^ (self.0 as u32));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(32);
    }
}
