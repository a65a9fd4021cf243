//! ENSO-style streaming interface (paper §2/§5): descriptor rings are
//! replaced by a contiguous byte stream of length-delimited frames.
//!
//! The paper's discussion: ENSO's stream gives raw-payload throughput
//! (6× in their measurements) but "does not enable the exchange of
//! packet metadata with the NIC" — the model collapses when the
//! application needs a hash, and packets cannot be consumed out of
//! order without copying. This module exists to make those trade-offs
//! measurable next to descriptor-based and ASNI-aggregated delivery
//! (bench E11).

/// A contiguous stream buffer the device appends `u16 len | frame`
/// records into and the host consumes with a tail pointer.
#[derive(Debug, Clone)]
pub struct StreamQueue {
    buf: Vec<u8>,
    capacity: usize,
    /// Host consumption offset.
    tail: usize,
    /// Frames appended / dropped-for-space.
    pub appended: u64,
    pub dropped_full: u64,
}

impl StreamQueue {
    /// A stream of `capacity` bytes (device side stops appending when
    /// full until the host advances).
    pub fn new(capacity: usize) -> Self {
        StreamQueue {
            buf: Vec::with_capacity(capacity),
            capacity,
            tail: 0,
            appended: 0,
            dropped_full: 0,
        }
    }

    /// Device side: append one frame. No metadata travels with it —
    /// that is the interface's defining limitation.
    pub fn append(&mut self, frame: &[u8]) -> bool {
        let need = 2 + frame.len();
        if self.buf.len() + need > self.capacity {
            self.dropped_full += 1;
            return false;
        }
        self.buf
            .extend_from_slice(&(frame.len() as u16).to_be_bytes());
        self.buf.extend_from_slice(frame);
        self.appended += 1;
        true
    }

    /// Host side: next frame, zero-copy (borrow into the stream). Frames
    /// MUST be consumed in order — that is the other defining
    /// limitation (out-of-order processing requires copying out).
    /// (Lending-iterator shape, so `Iterator` cannot be implemented.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&[u8]> {
        if self.tail + 2 > self.buf.len() {
            return None;
        }
        let len = u16::from_be_bytes([self.buf[self.tail], self.buf[self.tail + 1]]) as usize;
        let start = self.tail + 2;
        if start + len > self.buf.len() {
            return None;
        }
        self.tail = start + len;
        Some(&self.buf[start..start + len])
    }

    /// Host side: reclaim consumed bytes (the ENSO "advance the ring
    /// head" operation). Amortized; call after a batch.
    pub fn reclaim(&mut self) {
        self.buf.drain(..self.tail);
        self.tail = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_softnic::testpkt;

    fn f(n: u8) -> Vec<u8> {
        testpkt::udp4(
            [10, 0, 0, n],
            [10, 0, 0, 99],
            100 + n as u16,
            9,
            &[n; 16],
            None,
        )
    }

    #[test]
    fn fifo_in_order_consumption() {
        let mut q = StreamQueue::new(4096);
        for i in 0..5 {
            assert!(q.append(&f(i)));
        }
        for i in 0..5 {
            assert_eq!(q.next().unwrap(), &f(i)[..]);
        }
        assert!(q.next().is_none());
        assert_eq!(q.appended, 5);
    }

    #[test]
    fn backpressure_when_full() {
        let entry = 2 + f(0).len();
        let mut q = StreamQueue::new(entry * 2 + 1);
        assert!(q.append(&f(0)));
        assert!(q.append(&f(1)));
        assert!(!q.append(&f(2)), "third frame must not fit");
        assert_eq!(q.dropped_full, 1);
        // Consuming + reclaiming frees space.
        q.next().unwrap();
        q.reclaim();
        assert!(q.append(&f(2)));
    }

    #[test]
    fn reclaim_preserves_unconsumed() {
        let mut q = StreamQueue::new(4096);
        q.append(&f(1));
        q.append(&f(2));
        q.next().unwrap();
        q.reclaim();
        assert_eq!(q.next().unwrap(), &f(2)[..]);
        assert_eq!(q.buf.len(), q.tail);
    }

    #[test]
    fn no_metadata_travels_with_frames() {
        // The structural point: nothing but the frame bytes exists in the
        // stream — the host must recompute everything (cf. LcdDriver).
        let mut q = StreamQueue::new(4096);
        let frame = f(7);
        q.append(&frame);
        let got = q.next().unwrap();
        assert_eq!(got, &frame[..]);
        assert_eq!(q.buf.len(), q.tail, "only len+frame bytes are stored");
    }
}
