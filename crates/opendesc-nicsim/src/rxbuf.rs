//! RX buffer provisioning: the host posts receive buffers ahead of
//! traffic (the TX-direction twin of the RX descriptor ring in Fig. 2's
//! channel model), and the device consumes one per arriving frame.
//!
//! In buffer mode the simulated DMA is real: the frame bytes are written
//! into the posted host-memory buffer and the host reads them back from
//! there, so over/undersized buffers and exhaustion behave like the real
//! thing (frames are dropped with `rx_no_buffer` when the driver falls
//! behind, truncated never — oversize frames drop too).

use crate::nic::SimNic;
use std::collections::VecDeque;

/// Buffer-mode state attached to a [`SimNic`].
#[derive(Debug, Clone, Default)]
pub struct RxBufferPool {
    /// Posted (addr, capacity) pairs, consumed FIFO.
    free: VecDeque<(u64, usize)>,
    /// Filled (addr, len) pairs awaiting host pickup.
    filled: VecDeque<(u64, usize)>,
    pub enabled: bool,
    /// Frames dropped because no buffer was posted.
    pub no_buffer_drops: u64,
    /// Frames dropped because the next buffer was too small.
    pub oversize_drops: u64,
}

impl SimNic {
    /// Enable buffer mode: from now on, every arriving frame needs a
    /// posted buffer, and received frames are read back from host memory.
    pub fn enable_rx_buffers(&mut self) {
        self.rx_pool.enabled = true;
    }

    /// Post `n` receive buffers of `size` bytes each; returns their
    /// addresses (the driver would recycle these).
    pub fn post_rx_buffers(&mut self, n: usize, size: usize) -> Vec<u64> {
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = self.host_mem.alloc(&vec![0u8; size]);
            self.rx_pool.free.push_back((addr, size));
            addrs.push(addr);
        }
        addrs
    }

    /// Device side: claim a buffer for an arriving frame and DMA the
    /// bytes into it. Returns `false` (drop) when no suitable buffer is
    /// posted. Internal to `deliver`.
    pub(crate) fn rx_buffer_write(&mut self, frame: &[u8]) -> bool {
        if !self.rx_pool.enabled {
            return true;
        }
        let Some(&(addr, cap)) = self.rx_pool.free.front() else {
            self.rx_pool.no_buffer_drops += 1;
            return false;
        };
        if frame.len() > cap {
            // Real NICs either truncate+flag or drop; we drop and count.
            self.rx_pool.oversize_drops += 1;
            return false;
        }
        self.rx_pool.free.pop_front();
        if !self.host_mem.write(addr, frame) {
            // The posted buffer is not (or no longer) `cap` bytes of
            // host memory: nothing landed, so nothing is handed up.
            self.rx_pool.oversize_drops += 1;
            return false;
        }
        self.rx_pool.filled.push_back((addr, frame.len()));
        true
    }

    /// Host side: read the next filled buffer back into `out` (cleared
    /// first) and recycle the posted buffer. Used by `receive_into()` in
    /// buffer mode; allocation-free once `out` has capacity.
    pub(crate) fn rx_buffer_read_into(&mut self, out: &mut Vec<u8>) -> bool {
        let Some((addr, len)) = self.rx_pool.filled.pop_front() else {
            return false;
        };
        let Some(bytes) = self.host_mem.read(addr, len) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(bytes);
        // Recycle the buffer at its original capacity.
        let cap = self.host_mem.buf_capacity(addr).unwrap_or(len);
        self.rx_pool.free.push_back((addr, cap));
        true
    }

    /// Buffers currently posted and free.
    pub fn rx_buffers_free(&self) -> usize {
        self.rx_pool.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use opendesc_ir::Assignment;
    use opendesc_softnic::testpkt;

    fn frame(n: usize) -> Vec<u8> {
        testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], 1, 2, &vec![0x42; n], None)
    }

    fn nic() -> SimNic {
        let mut nic = SimNic::new(models::e1000_legacy(), 64).unwrap();
        nic.configure(Assignment::new()).unwrap();
        nic.enable_rx_buffers();
        nic
    }

    #[test]
    fn frames_roundtrip_through_posted_buffers() {
        let mut nic = nic();
        nic.post_rx_buffers(4, 2048);
        assert_eq!(nic.rx_buffers_free(), 4);
        let f = frame(100);
        nic.deliver(&f).unwrap();
        assert_eq!(nic.rx_buffers_free(), 3);
        let (got, _cmpt) = nic.receive().unwrap();
        assert_eq!(got, f, "frame read back from host memory");
        assert_eq!(nic.rx_buffers_free(), 4, "buffer recycled after pickup");
    }

    #[test]
    fn no_posted_buffers_drops_with_stat() {
        let mut nic = nic();
        nic.deliver(&frame(64)).unwrap();
        assert!(nic.receive().is_none());
        assert_eq!(nic.rx_pool.no_buffer_drops, 1);
        assert_eq!(nic.stats.rx_frames, 0);
    }

    #[test]
    fn driver_falling_behind_drops_excess() {
        let mut nic = nic();
        nic.post_rx_buffers(2, 2048);
        for _ in 0..5 {
            nic.deliver(&frame(64)).unwrap();
        }
        assert_eq!(nic.stats.rx_frames, 2);
        assert_eq!(nic.rx_pool.no_buffer_drops, 3);
        // Draining recycles buffers; traffic flows again.
        while nic.receive().is_some() {}
        nic.deliver(&frame(64)).unwrap();
        assert_eq!(nic.stats.rx_frames, 3);
    }

    #[test]
    fn oversize_frames_dropped_not_truncated() {
        let mut nic = nic();
        nic.post_rx_buffers(2, 128);
        nic.deliver(&frame(200)).unwrap(); // 242-byte frame > 128 cap
        assert_eq!(nic.rx_pool.oversize_drops, 1);
        assert_eq!(nic.rx_buffers_free(), 2, "buffer not consumed by a drop");
        nic.deliver(&frame(32)).unwrap();
        let (got, _) = nic.receive().unwrap();
        assert_eq!(got.len(), frame(32).len());
    }

    #[test]
    fn a_posted_buffer_that_is_gone_drops_the_frame_not_stale_bytes() {
        let mut nic = nic();
        let addrs = nic.post_rx_buffers(2, 2048);
        // The host released the first buffer while it was still posted:
        // the DMA write has nowhere to land.
        assert!(nic.host_mem.free(addrs[0]));
        nic.deliver(&frame(64)).unwrap();
        assert_eq!(nic.rx_pool.oversize_drops, 1);
        assert_eq!(
            nic.stats.rx_frames, 0,
            "no completion for a frame that did not land"
        );
        assert!(nic.receive().is_none());
        // The dead buffer left the queue; the next one serves traffic.
        let f = frame(32);
        nic.deliver(&f).unwrap();
        assert_eq!(nic.receive().unwrap().0, f);
    }

    #[test]
    fn non_buffer_mode_unchanged() {
        let mut nic = SimNic::new(models::e1000_legacy(), 16).unwrap();
        nic.configure(Assignment::new()).unwrap();
        nic.deliver(&frame(64)).unwrap();
        assert!(nic.receive().is_some(), "legacy copy mode still works");
    }
}
