//! Sparse physical memory.
//!
//! Backing store for the simulated SoC: a page-granular sparse map over the
//! full 64-bit physical address space. All multi-byte accesses are
//! little-endian, matching RV64.
//!
//! Functional state lives here; the caches in this crate are *timing and
//! coherence-state* models layered on top (a standard split in
//! architectural simulators — see `DESIGN.md` §5).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

const PAGE_SHIFT: u32 = 12;
/// Page size of the sparse backing store (4 KiB).
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiplicative hasher for small, trusted integer keys: page indices
/// here, L1D line numbers in the sharer directory. Both maps sit on the
/// one-lookup-per-memory-access hot path of the simulator, so SipHash's
/// DoS resistance buys nothing and its latency is pure overhead.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Builds [`IntHasher`]s.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BuildIntHasher;

impl BuildHasher for BuildIntHasher {
    type Hasher = IntHasher;

    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher(0)
    }
}

/// Sparse, page-granular physical memory.
///
/// Reads of never-written locations return zero, mirroring initialised
/// DRAM on the FPGA platform.
///
/// ```
/// use flexstep_mem::phys::PhysMem;
///
/// let mut mem = PhysMem::new();
/// mem.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D);
/// assert_eq!(mem.read_u64(0x1000), 0xDEAD_BEEF_CAFE_F00D);
/// assert_eq!(mem.read_u32(0x1000), 0xCAFE_F00D); // little-endian
/// assert_eq!(mem.read_u8(0x9999_9999), 0); // untouched => zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildIntHasher>,
}

impl PhysMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialised pages (diagnostics / footprint tests).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &**p)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`. Accesses may cross
    /// page boundaries.
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[offset..offset + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + bytes.len() <= PAGE_SIZE {
            self.page_mut(addr)[offset..offset + bytes.len()].copy_from_slice(bytes);
        } else {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a naturally-sized value (1, 2, 4 or 8 bytes), zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read_sized(&self, addr: u64, size: u8) -> u64 {
        match size {
            1 => u64::from(self.read_u8(addr)),
            2 => u64::from(self.read_u16(addr)),
            4 => u64::from(self.read_u32(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes of `value` (1, 2, 4 or 8 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write_sized(&mut self, addr: u64, value: u64, size: u8) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Bulk-loads an image (e.g. a program text or data segment).
    pub fn load(&mut self, base: u64, image: &[u8]) {
        self.write_bytes(base, image);
    }

    /// Bulk-loads 32-bit words (e.g. encoded instructions).
    pub fn load_words(&mut self, base: u64, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.write_u32(base + (i as u64) * 4, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u64(0), 0);
        assert_eq!(mem.read_u8(u64::MAX), 0);
        assert_eq!(mem.page_count(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = PhysMem::new();
        mem.write_u32(0x100, 0x0403_0201);
        assert_eq!(mem.read_u8(0x100), 1);
        assert_eq!(mem.read_u8(0x103), 4);
        assert_eq!(mem.read_u16(0x102), 0x0403);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = PhysMem::new();
        let addr = (PAGE_SIZE as u64) - 4;
        mem.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(mem.page_count(), 2);
    }

    #[test]
    fn sized_accessors() {
        let mut mem = PhysMem::new();
        mem.write_sized(0x10, 0xFFFF_FFFF_FFFF_FFFF, 2);
        assert_eq!(mem.read_sized(0x10, 2), 0xFFFF);
        assert_eq!(mem.read_sized(0x12, 2), 0); // neighbouring bytes untouched
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn sized_accessor_rejects_bad_size() {
        PhysMem::new().read_sized(0, 3);
    }

    #[test]
    fn load_words_places_instructions() {
        let mut mem = PhysMem::new();
        mem.load_words(0x1000, &[0xAAAA_BBBB, 0xCCCC_DDDD]);
        assert_eq!(mem.read_u32(0x1000), 0xAAAA_BBBB);
        assert_eq!(mem.read_u32(0x1004), 0xCCCC_DDDD);
    }

    #[test]
    fn sparse_pages_allocated_lazily() {
        let mut mem = PhysMem::new();
        mem.write_u8(0x0, 1);
        mem.write_u8(0x10_0000, 2);
        assert_eq!(mem.page_count(), 2);
    }
}
