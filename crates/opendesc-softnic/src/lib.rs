//! # opendesc-softnic — reference software implementations of semantics
//!
//! Every OpenDesc semantic ships with a reference implementation (paper
//! §2: "we propose each offload feature to come with a reference
//! implementation"). This crate provides them: wire-format views,
//! internet checksums, the Toeplitz RSS hash (verified against the
//! Microsoft test vectors), packet typing, flow tagging, and KVS key
//! extraction — plus the [`SoftNic`] engine that dispatches a semantic id
//! to its implementation. The NIC simulator reuses these same functions
//! as its offload engine, so "hardware" and SoftNIC shims agree by
//! construction.
pub mod calibrate;
pub mod checksum;
pub mod engine;
pub mod fixup;
pub mod testpkt;
pub mod toeplitz;
pub mod wire;

pub use calibrate::{calibrate, CalibrationReport};
pub use engine::{csum_status, kvs_key_hash, ptype, rx_status, ShimMemo, ShimOp, SoftNic};
pub use toeplitz::{rss_frame, rss_ipv4, rss_ipv4_l4, MSFT_RSS_KEY};
