//! Host memory model: the DMA-visible buffer pool TX descriptors point
//! into. Addresses are synthetic but stable, so descriptor `buf_addr`
//! fields round-trip through the contract like real IOVA addresses.

use std::collections::BTreeMap;

/// A registry of DMA-visible buffers.
#[derive(Debug, Clone, Default)]
pub struct HostMem {
    bufs: BTreeMap<u64, Vec<u8>>,
    next_addr: u64,
}

/// Buffers start above 0 so that a zero `buf_addr` (an unset descriptor
/// field) never resolves.
const BASE_ADDR: u64 = 0x1000;
/// Alignment of allocated buffers.
const ALIGN: u64 = 64;

impl HostMem {
    pub fn new() -> Self {
        HostMem {
            bufs: BTreeMap::new(),
            next_addr: BASE_ADDR,
        }
    }

    /// Register a buffer; returns its DMA address.
    pub fn alloc(&mut self, data: &[u8]) -> u64 {
        let addr = self.next_addr;
        self.next_addr += (data.len() as u64).max(1).div_ceil(ALIGN) * ALIGN + ALIGN;
        self.bufs.insert(addr, data.to_vec());
        addr
    }

    /// Read `len` bytes at `addr`. The access must lie within a single
    /// registered buffer (no cross-buffer reads, like an IOMMU). Both
    /// come from descriptors the host wrote: a range that overflows
    /// resolves to nothing.
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let (base, buf) = self.bufs.range(..=addr).next_back()?;
        let off = usize::try_from(addr - base).ok()?;
        buf.get(off..off.checked_add(len)?)
    }

    /// Overwrite `data.len()` bytes at `addr` (a DMA write), under
    /// [`read`](HostMem::read)'s rule: the range must lie within a
    /// single registered buffer. Returns `false`, having written
    /// nothing, when it does not.
    #[must_use = "a write that did not land left stale bytes behind"]
    pub fn write(&mut self, addr: u64, data: &[u8]) -> bool {
        let Some((base, buf)) = self.bufs.range_mut(..=addr).next_back() else {
            return false;
        };
        let Some(dst) = usize::try_from(addr - base)
            .ok()
            .and_then(|off| buf.get_mut(off..off.checked_add(data.len())?))
        else {
            return false;
        };
        dst.copy_from_slice(data);
        true
    }

    /// Capacity of the buffer based exactly at `addr`.
    pub fn buf_capacity(&self, addr: u64) -> Option<usize> {
        self.bufs.get(&addr).map(Vec::len)
    }

    /// Release a buffer. Returns `false` when `addr` is not a buffer base.
    pub fn free(&mut self, addr: u64) -> bool {
        self.bufs.remove(&addr).is_some()
    }

    /// Number of live buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_roundtrip() {
        let mut m = HostMem::new();
        let a = m.alloc(b"hello");
        assert_eq!(m.read(a, 5), Some(&b"hello"[..]));
        assert_eq!(m.read(a + 1, 3), Some(&b"ell"[..]));
    }

    #[test]
    fn reads_do_not_cross_buffers() {
        let mut m = HostMem::new();
        let a = m.alloc(&[1u8; 8]);
        let _b = m.alloc(&[2u8; 8]);
        assert_eq!(m.read(a, 8), Some(&[1u8; 8][..]));
        assert_eq!(m.read(a, 9), None, "read past buffer end must fail");
    }

    #[test]
    fn overflowing_range_never_resolves() {
        let mut m = HostMem::new();
        let a = m.alloc(&[7u8; 8]);
        assert_eq!(m.read(a + 1, usize::MAX), None);
        assert_eq!(m.read(u64::MAX, usize::MAX), None);
    }

    #[test]
    fn writes_land_whole_or_not_at_all() {
        let mut m = HostMem::new();
        let a = m.alloc(&[0u8; 8]);
        let b = m.alloc(&[9u8; 8]);
        assert!(m.write(a + 2, b"abc"));
        assert_eq!(m.read(a, 8), Some(&b"\0\0abc\0\0\0"[..]));
        // Past the end of the buffer, below the first buffer, and at an
        // offset whose range overflows: refused, nothing written.
        assert!(!m.write(a + 6, b"xyz"));
        assert!(!m.write(0, b"x"));
        assert!(!m.write(u64::MAX, b"xy"));
        assert!(
            !m.write(a + 64, b"x"),
            "the gap between buffers is no one's"
        );
        assert_eq!(m.read(a, 8), Some(&b"\0\0abc\0\0\0"[..]));
        assert_eq!(m.read(b, 8), Some(&[9u8; 8][..]));
    }

    #[test]
    fn zero_address_never_resolves() {
        let mut m = HostMem::new();
        m.alloc(b"x");
        assert_eq!(m.read(0, 1), None);
    }

    #[test]
    fn free_releases() {
        let mut m = HostMem::new();
        let a = m.alloc(b"x");
        assert!(m.free(a));
        assert!(!m.free(a));
        assert_eq!(m.read(a, 1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn addresses_unique_and_aligned() {
        let mut m = HostMem::new();
        let a = m.alloc(&[0u8; 100]);
        let b = m.alloc(&[0u8; 1]);
        assert_ne!(a, b);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b > a + 100);
    }
}
