//! # opendesc-nicsim — simulated NICs executing OpenDesc contracts
//!
//! Substitutes for the hardware the paper targets (e1000/ixgbe-class
//! fixed-function NICs, mlx5-class partially programmable NICs, QDMA-class
//! fully programmable NICs). The simulator's completion writeback and
//! TX descriptor parse are driven by the *same contract* the compiler
//! analyzes, in the same form: the enumerated completion paths and
//! descriptor layouts, one resolved per programmed context and read as
//! a table. A context that selects none is served nothing, and a parser
//! no table can express is refused at construction. What the P4 text
//! itself says the bytes must be is `opendesc-reference`'s to check.
//! Includes descriptor rings, a PCIe/DMA cost model,
//! an offload engine delegating to the softnic reference implementations,
//! a deterministic workload generator, and fault injection: one fault
//! plane per queue ([`fault`]) draws every injected fault, at the
//! injection points of the stages a received frame crosses ([`nic`]).
pub mod aggregate;
pub mod dma;
pub mod fault;
pub mod hostmem;
pub mod models;
pub mod multiqueue;
pub mod nic;
pub mod offload;
pub mod pktgen;
pub mod ring;
pub mod stream;
pub mod tx;

pub use aggregate::{AsniAggregator, AsniFrame, AsniIter};
pub use dma::{DmaConfig, DmaMeter};
pub use fault::FaultConfig;
pub use hostmem::HostMem;
pub use models::{
    catalog, e1000_legacy, e1000e, ice, ixgbe, mlx5, qdma, qdma_default, NicModel, QdmaLayout,
};
pub use multiqueue::{CachePadded, SteerPolicy, SteerVerdict, Steerer, RETA_SIZE};
pub use nic::{NicError, NicStats, RxSideband, SimNic};
pub use offload::{DeviceOp, MetaRecord, OffloadEngine, OffloadProgram};
pub use pktgen::{PktGen, ShardFrame, ShardedPktGen, Transport, Workload};
pub use ring::{DescRing, RingError};
pub use stream::StreamQueue;
pub use tx::TxStats;

// Send audit for the sharded RX engine (tentpole requirement): every
// piece of device state a worker thread takes ownership of must cross
// the thread boundary. All of these are plain owned data — no `Rc`, no
// `RefCell`/`Cell`, no raw pointers — and this block turns any future
// regression into a compile error. `Steerer` is additionally `Sync`
// because one instance is *shared by reference* across all workers.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<DescRing>();
    assert_send::<HostMem>();
    assert_send::<SimNic>();
    assert_send::<OffloadEngine>();
    assert_send::<ShardedPktGen>();
    assert_sync::<Steerer>();
    assert_sync::<CachePadded<u64>>();
};
