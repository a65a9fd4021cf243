//! Host memory model: the DMA-visible buffer pool TX descriptors point
//! into. Addresses are synthetic but stable, so descriptor `buf_addr`
//! fields round-trip through the contract like real IOVA addresses.

/// A registry of DMA-visible buffers, kept as a slab: a buffer's
/// address encodes its index, so one subtract and one shift resolve any
/// address, whatever the number of buffers.
#[derive(Debug, Clone, Default)]
pub struct HostMem {
    /// Buffer `i` is based at `BASE_ADDR + i * SPAN`. `free` leaves a
    /// `None` whose index is never handed out again, so a freed base
    /// keeps resolving to nothing.
    bufs: Vec<Option<Vec<u8>>>,
}

/// Buffers start above 0 so that a zero `buf_addr` (an unset descriptor
/// field) never resolves.
const BASE_ADDR: u64 = 0x1000;
/// Each buffer owns `SPAN` bytes of address space, a power of two no
/// buffer reaches (4 GiB), so an in-buffer offset is the low
/// `SPAN_SHIFT` bits and fits a `usize` on every supported target.
const SPAN_SHIFT: u32 = 32;
const SPAN: u64 = 1 << SPAN_SHIFT;

/// The slab index `addr` falls in and its offset from that index's base.
#[inline]
fn locate(addr: u64) -> Option<(usize, usize)> {
    let rel = addr.checked_sub(BASE_ADDR)?;
    let index = usize::try_from(rel >> SPAN_SHIFT).ok()?;
    Some((index, (rel & (SPAN - 1)) as usize))
}

/// The slab index `addr` is the base of.
#[inline]
fn based_at(addr: u64) -> Option<usize> {
    locate(addr).and_then(|(i, off)| (off == 0).then_some(i))
}

impl HostMem {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a buffer; returns its DMA address.
    ///
    /// # Panics
    /// Panics if `data` is `SPAN` bytes or more, or if the address space
    /// of indices runs out (2^32 buffers on a 64-bit address).
    pub fn alloc(&mut self, data: &[u8]) -> u64 {
        assert!((data.len() as u64) < SPAN, "DMA buffer of 4 GiB or more");
        let addr = (self.bufs.len() as u64)
            .checked_mul(SPAN)
            .and_then(|off| off.checked_add(BASE_ADDR))
            .expect("host memory address space exhausted");
        self.bufs.push(Some(data.to_vec()));
        addr
    }

    /// Read `len` bytes at `addr`. The access must lie within a single
    /// registered buffer (no cross-buffer reads, like an IOMMU). Both
    /// come from descriptors the host wrote: a range that overflows
    /// resolves to nothing.
    #[inline]
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let (i, off) = locate(addr)?;
        let buf = self.bufs.get(i)?.as_deref()?;
        buf.get(off..off.checked_add(len)?)
    }

    /// Exchange the buffer based exactly at `addr` with `buf`: a driver
    /// hands the device a frame it already wrote and takes back the
    /// buffer the device is done with, copying neither. Returns `false`,
    /// having exchanged nothing, unless `addr` is a buffer base and both
    /// are the same length (the address keeps its capacity).
    #[must_use = "a buffer that was not exchanged never reached the device"]
    #[inline]
    pub fn swap(&mut self, addr: u64, buf: &mut Vec<u8>) -> bool {
        match based_at(addr).and_then(|i| self.bufs.get_mut(i)?.as_mut()) {
            Some(slot) if slot.len() == buf.len() => {
                std::mem::swap(slot, buf);
                true
            }
            _ => false,
        }
    }

    /// Capacity of the buffer based exactly at `addr`.
    pub fn buf_capacity(&self, addr: u64) -> Option<usize> {
        self.bufs.get(based_at(addr)?)?.as_ref().map(Vec::len)
    }

    /// Release a buffer. Returns `false` when `addr` is not a live
    /// buffer base.
    pub fn free(&mut self, addr: u64) -> bool {
        let freed = based_at(addr).and_then(|i| self.bufs.get_mut(i)?.take());
        freed.is_some()
    }

    /// Number of live buffers.
    pub fn len(&self) -> usize {
        self.bufs.iter().flatten().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        assert_eq!(
            m.read(a + 64, 1),
            None,
            "the gap between buffers is no one's"
        );
    }

    #[test]
    fn overflowing_range_never_resolves() {
        let mut m = HostMem::new();
        let a = m.alloc(&[7u8; 8]);
        assert_eq!(m.read(a + 1, usize::MAX), None);
        assert_eq!(m.read(u64::MAX, usize::MAX), None);
    }

    #[test]
    fn zero_address_never_resolves() {
        for mut m in [HostMem::new(), HostMem::default()] {
            let a = m.alloc(b"x");
            assert_ne!(a, 0, "an unset buf_addr is no buffer's base");
            assert_eq!(m.read(0, 1), None);
        }
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

    /// The oracle: buffers in a `BTreeMap`, an address resolved by
    /// walking back to the nearest base at or below it, with no
    /// arithmetic on where bases sit.
    fn model_range(
        model: &BTreeMap<u64, Vec<u8>>,
        addr: u64,
        len: usize,
    ) -> Option<(u64, std::ops::Range<usize>)> {
        let (base, buf) = model.range(..=addr).next_back()?;
        let off = usize::try_from(addr - base).ok()?;
        let end = off.checked_add(len)?;
        (end <= buf.len()).then_some((*base, off..end))
    }

    /// An address aimed at `base` (0 before the first alloc) or at one
    /// of the edges arithmetic resolution adds: the last byte of a span,
    /// the next base, just below the first base, indices past the end of
    /// the table, and the top of the address space.
    fn aim(how: u8, base: u64, off: u64, table: usize) -> u64 {
        match how % 10 {
            0 | 1 => base,
            2..=4 => base + off,
            5 => base + SPAN - 1,
            6 => base + SPAN,
            7 => BASE_ADDR - 1,
            8 => BASE_ADDR + ((table as u64 + off) << SPAN_SHIFT),
            _ => u64::MAX - off,
        }
    }

    proptest! {
        /// Random alloc / free / read / swap / capacity traffic,
        /// aimed at bases live and freed, interiors, the span edges and
        /// past the table, with read lengths that overflow the address:
        /// every answer and, after every step, the whole table must
        /// equal the model's.
        #[test]
        fn random_traffic_agrees_with_a_btree_model(
            ops in proptest::collection::vec(
                (0u8..5, any::<u16>(), any::<u8>(), 0u64..260, 0usize..140, any::<u8>(), any::<bool>()),
                1..200,
            ),
        ) {
            let mut m = HostMem::new();
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            // Every base ever handed out, freed ones included.
            let mut bases: Vec<u64> = Vec::new();
            for (kind, pick, how, off, len, byte, huge) in ops {
                let base = bases.get(pick as usize % bases.len().max(1)).copied().unwrap_or(0);
                let addr = aim(how, base, off, bases.len());
                match kind {
                    0 => {
                        let a = m.alloc(&vec![byte; len]);
                        prop_assert!(bases.last().is_none_or(|last| a > *last), "bases ascend");
                        prop_assert_eq!(a % 64, 0);
                        model.insert(a, vec![byte; len]);
                        bases.push(a);
                    }
                    1 => prop_assert_eq!(m.free(addr), model.remove(&addr).is_some()),
                    2 => {
                        // Half the time a length whose end overflows
                        // from any in-span offset above the drawn `len`.
                        let len = if huge { usize::MAX - len } else { len };
                        let want = model_range(&model, addr, len).map(|(b, r)| &model[&b][r]);
                        prop_assert_eq!(m.read(addr, len), want);
                    }
                    3 => {
                        // Half the time offer the length a swap needs.
                        let fit = model.get(&addr).map_or(len, Vec::len);
                        let mut mine = vec![byte; if pick % 2 == 0 { fit } else { len }];
                        let offered = mine.clone();
                        let slot = model.get_mut(&addr).filter(|b| b.len() == mine.len());
                        prop_assert_eq!(m.swap(addr, &mut mine), slot.is_some());
                        match slot {
                            Some(slot) => {
                                prop_assert_eq!(&mine, &*slot, "the slot's bytes came back");
                                *slot = offered;
                            }
                            None => prop_assert_eq!(&mine, &offered, "a refused swap is a no-op"),
                        }
                    }
                    _ => prop_assert_eq!(m.buf_capacity(addr), model.get(&addr).map(Vec::len)),
                }
                prop_assert_eq!(m.len(), model.len());
                for b in &bases {
                    // A live base reads back whole and not a byte more;
                    // a freed one does not resolve at all.
                    let live = model.get(b);
                    let cap = live.map_or(0, Vec::len);
                    prop_assert_eq!(m.read(*b, cap), live.map(Vec::as_slice));
                    prop_assert_eq!(m.read(*b, cap + 1), None);
                }
            }
        }
    }
}
