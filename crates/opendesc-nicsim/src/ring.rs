//! Descriptor/completion rings: the shared-memory structures host and NIC
//! exchange through (paper §3, channels ① and ④).
//!
//! A ring is a power-of-two array of fixed-size byte slots with a
//! producer index, a consumer index, and a doorbell counter. The same
//! type serves both directions: the host produces TX descriptors the NIC
//! consumes, and the NIC produces RX completions the host consumes.

use std::fmt;

/// Error type for ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// No free slot: producer caught up with consumer.
    Full,
    /// Entry larger than the ring's slot size.
    EntryTooLarge { len: usize, slot: usize },
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Full => write!(f, "ring full"),
            RingError::EntryTooLarge { len, slot } => {
                write!(f, "entry of {len} bytes exceeds slot size {slot}")
            }
        }
    }
}

impl std::error::Error for RingError {}

/// A single-producer single-consumer descriptor ring.
///
/// An entry stays in its slot after it is consumed, until the producer
/// comes round the ring and writes over it: a consumer reads it there
/// by its ring position ([`record`](DescRing::record)) instead of
/// copying it out, and a read after the slot was reused fails closed.
#[derive(Debug, Clone)]
pub struct DescRing {
    /// `capacity × slot_size` bytes, slot `i` at `i * slot_size`.
    slots: Vec<u8>,
    /// Valid byte length of each slot's current entry.
    lens: Vec<u16>,
    /// Writeback sequence tag of each slot's current entry — the
    /// generation word a real NIC embeds in the descriptor so the host
    /// can tell a fresh writeback from a stale or re-DMAed one.
    seqs: Vec<u64>,
    slot_size: usize,
    mask: usize,
    /// Total entries ever produced.
    prod: u64,
    /// Total entries ever consumed.
    cons: u64,
    /// Doorbell value: producer's published index (host MMIO write in a
    /// real device; here just a counter the consumer reads).
    doorbell: u64,
}

impl DescRing {
    /// Create a ring of `capacity` slots (rounded up to a power of two) of
    /// `slot_size` bytes each.
    pub fn new(capacity: usize, slot_size: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        DescRing {
            slots: vec![0u8; cap * slot_size],
            lens: vec![0; cap],
            seqs: vec![0; cap],
            slot_size,
            mask: cap - 1,
            prod: 0,
            cons: 0,
            doorbell: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Entries produced but not yet consumed.
    pub fn len(&self) -> usize {
        (self.prod - self.cons) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.prod == self.cons
    }

    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Free slots available to the producer.
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Write one entry. Does not publish it — call [`ring_doorbell`] to
    /// make produced entries visible, as a driver batches doorbell writes.
    ///
    /// [`ring_doorbell`]: DescRing::ring_doorbell
    pub fn produce(&mut self, entry: &[u8]) -> Result<(), RingError> {
        let seq = self.prod;
        self.produce_tagged(entry, seq).map(drop)
    }

    /// [`produce`](DescRing::produce) with an explicit sequence tag. An
    /// honest device tags each entry with its absolute produce index; a
    /// faulty one may re-use a tag (duplicated writeback) or write one
    /// from a previous ring generation (stale DD bit).
    /// Returns the entry's ring position (see [`record`]).
    ///
    /// [`record`]: DescRing::record
    #[inline]
    pub fn produce_tagged(&mut self, entry: &[u8], seq: u64) -> Result<u64, RingError> {
        let at = self.claim(entry.len(), seq)?;
        self.slots[at..at + entry.len()].copy_from_slice(entry);
        Ok(self.prod - 1)
    }

    /// [`produce`](DescRing::produce) for a producer that serializes its
    /// entry in place: `fill` gets the next slot's first `len` bytes
    /// (whatever the previous lap left there) instead of the ring
    /// copying a staged entry in. Same checks, and the entry is just as
    /// unpublished until the doorbell.
    #[inline]
    pub fn produce_with(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), RingError> {
        let at = self.claim(len, self.prod)?;
        fill(&mut self.slots[at..at + len]);
        Ok(())
    }

    /// Take the next slot for a `len`-byte entry tagged `seq`; returns
    /// the slot's byte offset for the producer to write at.
    #[inline]
    fn claim(&mut self, len: usize, seq: u64) -> Result<usize, RingError> {
        if len > self.slot_size {
            return Err(RingError::EntryTooLarge {
                len,
                slot: self.slot_size,
            });
        }
        if self.is_full() {
            return Err(RingError::Full);
        }
        let idx = (self.prod as usize) & self.mask;
        self.lens[idx] = len as u16;
        self.seqs[idx] = seq;
        self.prod += 1;
        Ok(idx * self.slot_size)
    }

    /// Publish all produced entries (one MMIO write in hardware). Returns
    /// how many new entries became visible.
    pub fn ring_doorbell(&mut self) -> u64 {
        let newly = self.prod - self.doorbell;
        self.doorbell = self.prod;
        newly
    }

    /// Entries published and not yet consumed.
    pub fn published(&self) -> usize {
        (self.doorbell - self.cons) as usize
    }

    /// Consume the next published entry, if any.
    pub fn consume(&mut self) -> Option<&[u8]> {
        let (pos, _) = self.consume_pos()?;
        Some(self.entry(self.slot_of(pos)))
    }

    /// Consume the next published entry without reading it: returns its
    /// ring position and sequence tag, so the host can run its
    /// generation/duplicate checks and read the entry in place
    /// ([`record`](DescRing::record)).
    #[inline]
    pub(crate) fn consume_pos(&mut self) -> Option<(u64, u64)> {
        if self.cons >= self.doorbell {
            return None;
        }
        let pos = self.cons;
        self.cons += 1;
        Some((pos, self.seqs[self.slot_of(pos)]))
    }

    /// The slot index ring position `pos` occupies.
    #[inline]
    pub(crate) fn slot_of(&self, pos: u64) -> usize {
        (pos as usize) & self.mask
    }

    /// The entry produced at ring position `pos`, read where it lies —
    /// `None` if it was never produced or the producer has since written
    /// over its slot, so a late read never returns another entry's
    /// bytes.
    #[inline]
    pub fn record(&self, pos: u64) -> Option<&[u8]> {
        let live = pos < self.prod && self.prod - pos <= self.capacity() as u64;
        live.then(|| self.entry(self.slot_of(pos)))
    }

    /// Re-tag every produced-but-unconsumed entry (published or not)
    /// with a previous-pass generation word — `seq - capacity`, the
    /// same arithmetic the stale-generation fault class uses. A
    /// device-side relayout invalidates old-generation writebacks this
    /// way: records serialized under the outgoing layout cannot be
    /// described by the incoming one, so the device marks them stale
    /// and the host's sequence admission discards them instead of
    /// misparsing them. Returns the number of entries re-tagged.
    pub fn retag_pending_stale(&mut self) -> usize {
        let cap = self.capacity() as u64;
        let mut i = self.cons;
        while i < self.prod {
            let idx = (i as usize) & self.mask;
            self.seqs[idx] = self.seqs[idx].wrapping_sub(cap);
            i += 1;
        }
        (self.prod - self.cons) as usize
    }

    /// Peek at the next published entry without consuming.
    pub fn peek(&self) -> Option<&[u8]> {
        if self.cons >= self.doorbell {
            return None;
        }
        let idx = (self.cons as usize) & self.mask;
        Some(self.entry(idx))
    }

    /// The valid bytes of slot `idx`.
    #[inline]
    fn entry(&self, idx: usize) -> &[u8] {
        let at = idx * self.slot_size;
        &self.slots[at..at + self.lens[idx] as usize]
    }

    /// Total consumed over the ring's lifetime.
    pub fn total_consumed(&self) -> u64 {
        self.cons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn produce_publish_consume_roundtrip() {
        let mut r = DescRing::new(4, 16);
        r.produce(b"abc").unwrap();
        assert_eq!(r.consume(), None, "unpublished entries invisible");
        assert_eq!(r.ring_doorbell(), 1);
        assert_eq!(r.consume(), Some(&b"abc"[..]));
        assert_eq!(r.consume(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(DescRing::new(5, 8).capacity(), 8);
        assert_eq!(DescRing::new(1, 8).capacity(), 2);
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = DescRing::new(2, 8);
        r.produce(b"1").unwrap();
        r.produce(b"2").unwrap();
        assert_eq!(r.produce(b"3"), Err(RingError::Full));
        r.ring_doorbell();
        r.consume().unwrap();
        r.produce(b"3").unwrap(); // slot freed
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut r = DescRing::new(2, 4);
        assert_eq!(
            r.produce(b"12345"),
            Err(RingError::EntryTooLarge { len: 5, slot: 4 })
        );
    }

    #[test]
    fn produce_with_writes_in_place_under_the_same_checks() {
        let mut r = DescRing::new(2, 4);
        r.produce_with(3, |s| s.copy_from_slice(b"abc")).unwrap();
        assert_eq!(r.consume(), None, "unpublished until the doorbell");
        assert_eq!(
            r.produce_with(5, |_| panic!("no slot to fill")),
            Err(RingError::EntryTooLarge { len: 5, slot: 4 })
        );
        r.produce(b"de").unwrap();
        assert_eq!(
            r.produce_with(1, |_| panic!("no slot to fill")),
            Err(RingError::Full)
        );
        assert_eq!(r.ring_doorbell(), 2);
        assert_eq!(r.consume(), Some(&b"abc"[..]));
        assert_eq!(r.consume(), Some(&b"de"[..]));
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut r = DescRing::new(4, 8);
        for round in 0..10u8 {
            for i in 0..4u8 {
                r.produce(&[round, i]).unwrap();
            }
            r.ring_doorbell();
            for i in 0..4u8 {
                assert_eq!(r.consume(), Some(&[round, i][..]));
            }
        }
        assert_eq!(r.prod, 40);
        assert_eq!(r.total_consumed(), 40);
    }

    #[test]
    fn sequence_tags_default_to_produce_index_and_survive_wraparound() {
        let mut r = DescRing::new(4, 8);
        for round in 0..3u64 {
            for i in 0..4u64 {
                r.produce(&[round as u8, i as u8]).unwrap();
            }
            r.ring_doorbell();
            for i in 0..4u64 {
                let (_, seq) = r.consume_pos().unwrap();
                assert_eq!(seq, round * 4 + i);
            }
        }
        // A faulty producer can tag an entry with an old generation.
        r.produce_tagged(b"x", 2).unwrap();
        r.ring_doorbell();
        assert_eq!(r.consume_pos().unwrap().1, 2);
    }

    #[test]
    fn a_consumed_entry_reads_in_place_until_its_slot_is_reused() {
        let mut r = DescRing::new(2, 8);
        assert_eq!(r.record(0), None, "never produced");
        assert_eq!(r.produce_tagged(b"ab", 7), Ok(0));
        r.ring_doorbell();
        assert_eq!(r.consume_pos(), Some((0, 7)));
        assert_eq!(r.produce_tagged(b"c", 8), Ok(1));
        assert_eq!(r.record(0), Some(&b"ab"[..]), "consumed, still in place");
        r.ring_doorbell();
        assert_eq!(r.consume_pos(), Some((1, 8)));
        assert_eq!(r.produce_tagged(b"def", 9), Ok(2));
        assert_eq!(r.record(0), None, "slot 0 now holds position 2");
        assert_eq!(r.record(1), Some(&b"c"[..]));
        assert_eq!(r.record(2), Some(&b"def"[..]));
        assert_eq!(r.record(3), None, "not produced yet");
    }

    #[test]
    fn doorbell_batching_publishes_in_groups() {
        let mut r = DescRing::new(8, 8);
        r.produce(b"a").unwrap();
        r.produce(b"b").unwrap();
        assert_eq!(r.published(), 0);
        assert_eq!(r.ring_doorbell(), 2);
        assert_eq!(r.published(), 2);
        r.produce(b"c").unwrap();
        assert_eq!(r.published(), 2, "third entry not yet published");
        assert_eq!(r.peek(), Some(&b"a"[..]));
    }

    proptest! {
        /// FIFO order holds under arbitrary interleavings of produce,
        /// doorbell, and consume.
        #[test]
        fn fifo_under_random_ops(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut r = DescRing::new(8, 8);
            let mut next_write: u64 = 0;
            let mut next_read: u64 = 0;
            for op in ops {
                match op {
                    0 => {
                        if r.produce(&next_write.to_be_bytes()).is_ok() {
                            next_write += 1;
                        }
                    }
                    1 => { r.ring_doorbell(); }
                    _ => {
                        if let Some(e) = r.consume() {
                            let v = u64::from_be_bytes(e.try_into().unwrap());
                            prop_assert_eq!(v, next_read);
                            next_read += 1;
                        }
                    }
                }
            }
            prop_assert!(next_read <= next_write);
        }
    }
}
