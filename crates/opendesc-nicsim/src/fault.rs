//! The device's fault plane: every fault the simulator injects is drawn
//! here, from one seeded generator, in a fixed order.
//!
//! A [`FaultConfig`] is a table of chances, one per fault class, plus
//! the length of a hang and the seed. A queue holds it in its
//! `FaultPlane` with the generator and the wedge counter, and each
//! stage of [`SimNic::deliver_steered`](crate::SimNic::deliver_steered)
//! consults the plane at its injection point:
//!
//! | stage        | plane method      | classes, in draw order                          |
//! |--------------|-------------------|-------------------------------------------------|
//! | `admit`      | `admit`           | a wedged queue (no draw), hang, drop            |
//! | `write_back` | `write_back`      | torn (+ cut), corrupt (+ byte, bit, hint bit), truncate (+ length), stale generation |
//! | `publish`    | `lose_doorbell`   | doorbell loss, only once the record is produced |
//! | `replay`     | `duplicate`       | duplicate, only once the record is published    |
//!
//! A class whose chance is zero draws nothing, so a configuration that
//! turns one class on replays the same sequence whatever else the
//! device learns to inject; torn, corrupt and truncate draw only on a
//! non-empty record, and a wedged queue draws nothing at all. Each
//! method counts what it injected in the queue's [`NicStats`], except
//! `duplicate`: the replay is counted once it lands in a free slot.

use crate::nic::{NicError, NicStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Declares the fault classes, in draw-table order: the crate-private
/// [`Fault`] index, each class's chance setter on [`FaultConfig`], and
/// `NAMES`, the setters' names for a configuration error.
macro_rules! classes {
    ($($(#[$doc:meta])* $vis:vis fn $setter:ident => $fault:ident;)*) => {
        /// A fault class: an index into [`FaultConfig`]'s table of chances.
        pub(crate) enum Fault {
            $($fault),*
        }

        const NAMES: [&str; 8] = [$(stringify!($setter)),*];

        impl FaultConfig {
            $($(#[$doc])* $vis fn $setter(mut self, p: f64) -> Self {
                self.chance[Fault::$fault as usize] = p;
                self
            })*
        }
    };
}

classes! {
    /// Chance of dropping a frame before processing.
    pub fn drop_chance => Drop;
    /// Chance of flipping one bit of the completion record (and one of
    /// its steering hint).
    pub fn corrupt_chance => Corrupt;
    /// Chance of a torn writeback: only a random prefix of the record
    /// lands, the tail reads as stale slot bytes (zeros), and the
    /// sideband DMA never completes.
    pub fn torn_chance => Torn;
    /// Chance of a truncated completion: the DMA write is cut short, so
    /// the host sees a record shorter than the layout.
    pub fn truncate_chance => Truncate;
    /// Chance of duplicating a completion: the device re-DMAs the same
    /// record (same sequence tag) into the next slot.
    pub fn duplicate_chance => Duplicate;
    /// Chance of writing a stale generation tag — the DD word of a
    /// previous ring pass — so the entry looks like an old completion
    /// the host already consumed.
    pub fn stale_gen_chance => StaleGen;
    /// Chance of losing the doorbell update: the completion is written
    /// but not published until a later doorbell (or a host ring reset)
    /// makes it visible.
    pub fn doorbell_loss_chance => DoorbellLoss;
    /// Set through [`hang`](FaultConfig::hang), with the hang's length.
    fn hang_chance => Hang;
}

/// Fault injection knobs (in the smoltcp spirit: exercise the unhappy
/// paths deterministically). Every class defaults off: start from
/// [`FaultConfig::builder`], turn classes on one by one, and
/// [`build`](FaultConfig::build), so adding fault classes never changes
/// the behavior of existing configurations.
///
/// Chances outside \[0,1\] are rejected by `build` and by
/// [`SimNic::set_faults`](crate::SimNic::set_faults) — out-of-range
/// values would silently saturate in the rand comparison instead of
/// failing loudly.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// The chance \[0,1\] per frame of each class, indexed by [`Fault`].
    chance: [f64; 8],
    /// How many subsequent deliveries a hang swallows.
    hang_cycles: u32,
    seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            chance: [0.0; 8],
            hang_cycles: 4,
            seed: 0x0DE5C,
        }
    }
}

impl FaultConfig {
    /// Every fault class off.
    pub fn builder() -> FaultConfig {
        FaultConfig::default()
    }

    /// Transient queue hangs: with chance `p` per frame the queue's
    /// writeback engine wedges, and this frame and the next `cycles`
    /// deliveries are swallowed without completions.
    pub fn hang(self, p: f64, cycles: u32) -> Self {
        let mut cfg = self.hang_chance(p);
        cfg.hang_cycles = cycles;
        cfg
    }

    /// Seed of the fault generator.
    pub fn seed(self, seed: u64) -> Self {
        FaultConfig { seed, ..self }
    }

    /// This configuration, once every chance is in \[0,1\] (NaN is
    /// not).
    pub fn build(self) -> Result<FaultConfig, NicError> {
        for (name, p) in NAMES.iter().zip(self.chance) {
            if !(0.0..=1.0).contains(&p) {
                let msg = format!("{name} = {p} is not a probability in [0, 1]");
                return Err(NicError::BadConfig(msg));
            }
        }
        Ok(self)
    }
}

/// One queue's fault state: its configuration, the generator every
/// injected fault draws from, and how many deliveries a wedged
/// writeback engine still swallows.
pub(crate) struct FaultPlane {
    cfg: FaultConfig,
    rng: SmallRng,
    hang_remaining: u32,
}

impl FaultPlane {
    pub(crate) fn new(cfg: FaultConfig) -> FaultPlane {
        FaultPlane {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            hang_remaining: 0,
        }
    }

    /// Take on `cfg`, once it validates: reseed the generator (so runs
    /// are deterministic per configuration) and un-wedge the queue.
    pub(crate) fn configure(&mut self, cfg: FaultConfig) -> Result<(), NicError> {
        self.cfg = cfg.build()?;
        self.rng = SmallRng::seed_from_u64(cfg.seed);
        self.unwedge();
        Ok(())
    }

    /// Un-wedge a hung writeback engine.
    pub(crate) fn unwedge(&mut self) {
        self.hang_remaining = 0;
    }

    /// One roll of the dice for `fault`; a class that is off draws
    /// nothing.
    #[inline]
    fn roll(&mut self, fault: Fault) -> bool {
        let p = self.cfg.chance[fault as usize];
        p > 0.0 && self.rng.random::<f64>() < p
    }

    /// Admission: `false` when the frame is swallowed — by a wedged
    /// engine, by a hang that starts on it, or by a drop.
    #[inline]
    pub(crate) fn admit(&mut self, stats: &mut NicStats) -> bool {
        if self.hang_remaining > 0 {
            self.hang_remaining -= 1;
        } else if self.roll(Fault::Hang) {
            self.hang_remaining = self.cfg.hang_cycles;
        } else if self.roll(Fault::Drop) {
            stats.dropped_faults += 1;
            return false;
        } else {
            return true;
        }
        stats.hang_dropped += 1;
        false
    }

    /// The writeback's damage to a record and its steering hint, in
    /// lockstep: a fault that mangles the completion DMA has no reason
    /// to spare the hint word, and a pristine hint would let
    /// hint-primed plans silently repair the damage. A torn record
    /// keeps its length (the tail reads as the slot's stale bytes,
    /// zeros here), a truncated one is cut short, and both lose the
    /// hint. Returns the sequence tag the record is written with:
    /// `tag`, or on a stale-generation fault the tag of the previous
    /// pass over a ring of `ring` slots, so the entry looks like a
    /// completion the host already consumed.
    #[inline]
    pub(crate) fn write_back(
        &mut self,
        record: &mut Vec<u8>,
        hint: &mut Option<u32>,
        tag: u64,
        ring: usize,
        stats: &mut NicStats,
    ) -> u64 {
        if !record.is_empty() {
            if self.roll(Fault::Torn) {
                let cut = self.rng.random_range(0..record.len());
                record[cut..].fill(0);
                *hint = None;
                stats.torn += 1;
            }
            if self.roll(Fault::Corrupt) {
                let idx = self.rng.random_range(0..record.len());
                record[idx] ^= 1 << self.rng.random_range(0..8);
                if let Some(h) = hint.as_mut() {
                    *h ^= 1 << self.rng.random_range(0..32);
                }
                stats.corrupted += 1;
            }
            if self.roll(Fault::Truncate) {
                let keep = self.rng.random_range(0..record.len());
                record.truncate(keep);
                *hint = None;
                stats.truncated += 1;
            }
        }
        if self.roll(Fault::StaleGen) {
            stats.stale_gen += 1;
            return tag.wrapping_sub(ring as u64);
        }
        tag
    }

    /// Whether the doorbell of a produced completion is lost.
    #[inline]
    pub(crate) fn lose_doorbell(&mut self, stats: &mut NicStats) -> bool {
        let lost = self.roll(Fault::DoorbellLoss);
        stats.doorbell_lost += u64::from(lost);
        lost
    }

    /// Whether the device re-DMAs the completion it just published.
    /// Counted (`duplicated`) by the stage that republishes it, and
    /// only when the replay finds a free slot.
    #[inline]
    pub(crate) fn duplicate(&mut self) -> bool {
        self.roll(Fault::Duplicate)
    }
}
