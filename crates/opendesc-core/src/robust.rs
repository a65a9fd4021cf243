//! Self-healing RX: completion validation, queue health, and the stall
//! watchdog.
//!
//! The paper's premise is that hosts must not blindly trust a device's
//! metadata layout; this module extends that distrust from *layout* to
//! *behavior*. A [`ValidatorSpec`] is derived once per compiled artifact
//! from the same layout knowledge the accessors come from: the expected
//! completion length and cheap structural invariants on hardware fields
//! (a length field must equal the frame length, a checksum status must
//! be a status code, a DD bit must be set). At runtime the driver runs
//! three concentric rings of defense:
//!
//! 1. **ring admission** — every completion's sequence tag goes through
//!    a [`SeqTracker`], discarding duplicated and stale writebacks, and
//!    a length check rejects truncated records before any accessor can
//!    read past the end;
//! 2. **field validation** — per [`ValidationMode`], either the cheap
//!    structural checks (`Structural`, the default) or a full SoftNIC
//!    cross-check of every recomputable hardware field (`Full`);
//! 3. **degraded execution** — on any failure the packet is re-served
//!    through the SoftNIC shims (the program's degraded stream, run
//!    down the distrusted rows by [`vm::run_rows`] with each row's keep
//!    mask), so the application still observes correct (or absent)
//!    values, never garbage.
//!
//! A [`HealthState`] machine aggregates the evidence per queue, and
//! distrust reaches as far as the [`Evidence`] does. `Healthy` trusts
//! the device and runs the cheap path. A *lie* — a well-formed record
//! carrying a wrong value — makes undetected siblings plausible and
//! drops the queue to `Degraded` (all-software execution) at once. An
//! *exact* fault — truncated record, duplicate, stale tag, stall — is
//! detected with certainty and handled completely by the rings above;
//! it costs its own completion and charges a leaky bucket, and only a
//! *rate* of them demotes the queue. From `Degraded` a clean streak
//! promotes to `Recovering` (hardware reads re-enabled but every field
//! verified); a verified-clean streak restores `Healthy`. Separately, a
//! [`Watchdog`] compares frames fed against completions polled and —
//! after a bounded-backoff run of empty polls with work outstanding —
//! requests a ring reset/re-arm, which un-wedges hung queues and
//! republishes lost doorbells.
//!
//! [`vm::run_rows`]: crate::vm::run_rows

use crate::accessor::{AccessorKind, AccessorSet};
use opendesc_ir::bits::width_mask;
use opendesc_ir::{names, SemanticRegistry};
use opendesc_softnic::{csum_status, ptype, rx_status};

/// How deeply the driver checks hardware-provided completion fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Ring admission plus layout-derived structural checks on hardware
    /// fields — O(checked fields) comparisons, no recomputation.
    #[default]
    Structural,
    /// Ring admission plus a SoftNIC cross-check of every recomputable
    /// hardware field on every packet (compare-and-repair).
    Full,
}

/// One structural invariant on a hardware accessor's value, derivable
/// from the field's semantic alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldCheck {
    /// `pkt_len` must equal the delivered frame's length.
    PktLen,
    /// Checksum status must be a status code (GOOD or BAD).
    CsumStatus,
    /// Descriptor-done and end-of-packet bits must both be set.
    RxStatus,
    /// The packet-type bitmap must have the Ethernet bit set (every
    /// delivered frame was received on Ethernet).
    PacketType,
}

impl FieldCheck {
    /// Whether a nonzero value `v` read from a `width`-bit slot of a
    /// `frame_len`-byte frame's completion satisfies the invariant.
    #[inline(always)]
    fn holds(self, v: u128, width: u16, frame_len: usize) -> bool {
        match self {
            FieldCheck::PktLen => v == frame_len as u128 & width_mask(width),
            FieldCheck::CsumStatus => {
                v == csum_status::GOOD as u128 || v == csum_status::BAD as u128
            }
            FieldCheck::RxStatus => {
                let want = (rx_status::DD | rx_status::EOP) as u128 & width_mask(width);
                v & want == want
            }
            FieldCheck::PacketType => v & ptype::ETH as u128 != 0,
        }
    }

    /// A value of a `width`-bit slot that the invariant accepts for a
    /// `frame_len`-byte frame, keeping what bits of `v` it can: how a
    /// test writes an honest record from arbitrary bytes. A slot too
    /// narrow to hold a passing nonzero value gets zero, which always
    /// passes.
    pub fn passing_value(self, v: u128, width: u16, frame_len: usize) -> u128 {
        let ok = match self {
            FieldCheck::PktLen => frame_len as u128,
            FieldCheck::CsumStatus if v & 1 != 0 && width >= 16 => csum_status::GOOD as u128,
            FieldCheck::CsumStatus => csum_status::BAD as u128,
            FieldCheck::RxStatus => v | (rx_status::DD | rx_status::EOP) as u128,
            FieldCheck::PacketType => v | ptype::ETH as u128,
        };
        ok & width_mask(width)
    }
}

/// Layout-derived validation spec: computed once per compiled artifact
/// (inside [`CompiledRx`](crate::cache::CompiledRx)) and shared
/// read-only by every queue running that artifact.
#[derive(Debug, Clone, Default)]
pub struct ValidatorSpec {
    /// Completion length the layout promises; shorter records are
    /// truncated writebacks and must not reach the accessors (which
    /// would panic reading past the end).
    pub expected_len: usize,
    /// `(accessor index, slot width, check)` per checkable hardware
    /// accessor.
    pub checks: Vec<(usize, u16, FieldCheck)>,
}

impl ValidatorSpec {
    /// Derive the spec from a compiled accessor set.
    pub fn derive(set: &AccessorSet, reg: &SemanticRegistry) -> ValidatorSpec {
        let mut checks = Vec::new();
        for (i, a) in set.accessors.iter().enumerate() {
            if a.kind != AccessorKind::Hardware {
                continue;
            }
            let check = match reg.name(a.semantic) {
                names::PKT_LEN => Some(FieldCheck::PktLen),
                names::IP_CHECKSUM | names::L4_CHECKSUM => Some(FieldCheck::CsumStatus),
                names::RX_STATUS => Some(FieldCheck::RxStatus),
                names::PACKET_TYPE => Some(FieldCheck::PacketType),
                _ => None,
            };
            if let Some(c) = check {
                checks.push((i, a.width_bits, c));
            }
        }
        ValidatorSpec {
            expected_len: set.completion_bytes as usize,
            checks,
        }
    }

    /// Evaluate the structural checks against extracted values (`get`
    /// maps accessor index → value, however the caller stores them).
    /// Returns the first failing check, or `None` when all pass, and a
    /// bitmask of the accessor slots whose value was nonzero and passed
    /// its check — fields the validator affirmatively proved
    /// structurally intact. On a structural failure, degraded re-serving
    /// can keep those proven columns instead of recomputing everything.
    ///
    /// An all-zero value always passes: completion slots default to zero
    /// when the device's offload engine produced nothing for them (a
    /// garbage frame that does not parse, a checksum status on a non-IP
    /// frame), so zero is an honest "field not produced" — only a
    /// *wrong nonzero* value is structurally impossible. A device lying
    /// with zeros is the `Full` cross-check's tier to catch. Zero values
    /// are *not* marked proven either: "field not produced" proves
    /// nothing about the rest of the record.
    pub(crate) fn check_values_all(
        &self,
        frame_len: usize,
        get: impl Fn(usize) -> Option<u128>,
    ) -> (Option<FieldCheck>, u128) {
        let mut failed = None;
        let mut proven: u128 = 0;
        for &(i, width, c) in &self.checks {
            let Some(v) = get(i) else { continue };
            if v == 0 {
                continue;
            }
            if c.holds(v, width, frame_len) {
                if i < 128 {
                    proven |= 1u128 << i;
                }
            } else if failed.is_none() {
                failed = Some(c);
            }
        }
        (failed, proven)
    }

    /// The checks of [`check_values_all`](ValidatorSpec::check_values_all)
    /// run by column over a batch of at most 64 packets: `column(i)` is
    /// accessor `i`'s values, one per packet, and `frame_len(p)` packet
    /// `p`'s frame length. Bit `p` of the result is set when packet `p`
    /// fails some check — exactly the packets `check_values_all` reports
    /// a failure for, which is where the caller turns for `proven`. Each
    /// check is matched once and scans its column in a loop of its own.
    pub(crate) fn failing_packets<'a>(
        &self,
        frame_len: impl Fn(usize) -> usize,
        column: impl Fn(usize) -> &'a [Option<u128>],
    ) -> u64 {
        #[inline(always)]
        fn scan(col: &[Option<u128>], ok: impl Fn(usize, u128) -> bool) -> u64 {
            assert!(col.len() <= 64, "one fail bit per packet");
            let mut fail = 0;
            for (p, v) in col.iter().enumerate() {
                let bad = matches!(*v, Some(v) if v != 0 && !ok(p, v));
                fail |= (bad as u64) << p;
            }
            fail
        }
        use FieldCheck::*;
        let mut fail = 0;
        for &(i, width, c) in &self.checks {
            let col = column(i);
            fail |= match c {
                PktLen => scan(col, |p, v| PktLen.holds(v, width, frame_len(p))),
                CsumStatus => scan(col, |_, v| CsumStatus.holds(v, width, 0)),
                RxStatus => scan(col, |_, v| RxStatus.holds(v, width, 0)),
                PacketType => scan(col, |_, v| PacketType.holds(v, width, 0)),
            };
        }
        fail
    }
}

/// Verdict of admitting one completion's sequence tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqVerdict {
    /// The expected next tag: a fresh completion.
    Fresh,
    /// The previous tag again: a duplicated writeback — discard.
    Duplicate,
    /// Any other tag: a stale-generation writeback — discard. The slot
    /// was still consumed, so expectation advances past it.
    Stale,
}

/// Ring-sequence admission: an honest device tags completions with
/// consecutive sequence numbers; replays and stale generations stick
/// out.
///
/// The tracker must stay in sync across *combinations* of faults, not
/// just single ones — a replay of a stale-generation tag must not
/// advance expectation twice (the tracker would run permanently ahead
/// and discard every later completion), so duplicates are recognized by
/// the last admitted tag, whatever it was. A tag a short distance
/// *ahead* means the host missed tags (e.g. validation enabled mid
/// stream); the tracker resyncs forward rather than flagging every
/// subsequent completion.
#[derive(Debug, Default)]
pub struct SeqTracker {
    expect: u64,
    /// Tag of the last admitted completion: the device's replays are
    /// back-to-back in ring order, so a repeat of exactly this tag is a
    /// duplicate regardless of how alien the tag itself was.
    last: Option<u64>,
}

impl SeqTracker {
    /// How far ahead a tag may jump and still be treated as the host
    /// falling behind (resync forward) rather than device garbage.
    const RESYNC_WINDOW: u64 = 1 << 16;

    /// Admit the next consumed completion's tag.
    pub fn admit(&mut self, seq: u64) -> SeqVerdict {
        if seq == self.expect {
            self.expect = self.expect.wrapping_add(1);
            self.last = Some(seq);
            SeqVerdict::Fresh
        } else if self.last == Some(seq) {
            // A re-DMA of the completion just admitted; expectation
            // already accounts for its slot.
            SeqVerdict::Duplicate
        } else {
            let ahead = seq.wrapping_sub(self.expect);
            if ahead < Self::RESYNC_WINDOW {
                // Plausibly the host missed tags; realign.
                self.expect = seq.wrapping_add(1);
            } else {
                // A stale (or otherwise alien) generation occupied the
                // slot that would have carried the expected tag; skip
                // past that one slot.
                self.expect = self.expect.wrapping_add(1);
            }
            self.last = Some(seq);
            SeqVerdict::Stale
        }
    }

    /// The next tag a fresh completion should carry.
    pub fn expected(&self) -> u64 {
        self.expect
    }
}

/// Counters of the host-side validation pipeline (one per queue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Completions admitted and delivered.
    pub accepted: u64,
    /// Completions shorter than the layout, served degraded.
    pub truncated: u64,
    /// Replayed completions discarded by sequence.
    pub duplicates: u64,
    /// Stale-generation completions discarded by sequence.
    pub stale: u64,
    /// Structural check failures (packet re-served degraded).
    pub structural_failures: u64,
    /// Hardware fields repaired by the full cross-check.
    pub repaired_fields: u64,
    /// Packets executed through the all-software degraded path.
    pub degraded_packets: u64,
}

impl ValidationStats {
    /// Faults the validator observed (not counting repairs, which are a
    /// consequence).
    pub fn faults(&self) -> u64 {
        self.truncated + self.duplicates + self.stale + self.structural_failures
    }

    pub fn merge(&mut self, other: &ValidationStats) {
        self.accepted += other.accepted;
        self.truncated += other.truncated;
        self.duplicates += other.duplicates;
        self.stale += other.stale;
        self.structural_failures += other.structural_failures;
        self.repaired_fields += other.repaired_fields;
        self.degraded_packets += other.degraded_packets;
    }

    /// Register every counter under `scope` (e.g. `rx.q0.validation`) —
    /// the telemetry view over the same cells; registering several
    /// queues under one scope folds them like [`merge`].
    ///
    /// [`merge`]: ValidationStats::merge
    pub fn register_into(&self, reg: &mut opendesc_telemetry::MetricRegistry, scope: &str) {
        reg.counter(&format!("{scope}.accepted"), self.accepted);
        reg.counter(&format!("{scope}.truncated"), self.truncated);
        reg.counter(&format!("{scope}.duplicates"), self.duplicates);
        reg.counter(&format!("{scope}.stale"), self.stale);
        reg.counter(
            &format!("{scope}.structural_failures"),
            self.structural_failures,
        );
        reg.counter(&format!("{scope}.repaired_fields"), self.repaired_fields);
        reg.counter(&format!("{scope}.degraded_packets"), self.degraded_packets);
    }

    /// Counter deltas since `base` (per-round reporting over cumulative
    /// driver counters).
    pub fn since(&self, base: &ValidationStats) -> ValidationStats {
        ValidationStats {
            accepted: self.accepted - base.accepted,
            truncated: self.truncated - base.truncated,
            duplicates: self.duplicates - base.duplicates,
            stale: self.stale - base.stale,
            structural_failures: self.structural_failures - base.structural_failures,
            repaired_fields: self.repaired_fields - base.repaired_fields,
            degraded_packets: self.degraded_packets - base.degraded_packets,
        }
    }
}

/// Per-queue health. Ordering is by severity, so the sharded layer's
/// "worst across queues" is `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum QueueHealth {
    /// Device trusted; cheap validation only.
    #[default]
    Healthy,
    /// Rebuilding trust: hardware reads re-enabled but every
    /// recomputable field is verified against the SoftNIC.
    Recovering,
    /// Device distrusted; every packet executes through SoftNIC shims.
    Degraded,
}

/// Thresholds of the health state machine.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Clean packets in `Degraded` before attempting `Recovering`.
    pub degraded_clean: u32,
    /// Verified-clean packets in `Recovering` before `Healthy`.
    pub recovering_clean: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            degraded_clean: 32,
            recovering_clean: 32,
        }
    }
}

/// What one observed fault is evidence *of* — which decides how far the
/// distrust it earns reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// A completion shorter than the layout (served from frame bytes).
    Truncated = 0,
    /// A replayed completion (discarded by sequence).
    Duplicate = 1,
    /// A stale-generation completion (discarded; [`SeqTracker`] resyncs).
    Stale = 2,
    /// A watchdog-declared stall (ring reset and re-armed).
    Stall = 3,
    /// A [`FieldCheck`] failed on a well-formed record.
    FieldCheck = 4,
    /// The full cross-check repaired a hardware field.
    Repaired = 5,
}

impl Evidence {
    /// A *lie* is a well-formed record carrying a wrong value: the
    /// validator caught this one, which makes undetected siblings
    /// plausible, so the whole queue loses trust at once. Every other
    /// kind is *exact*: the admission layer detects it with certainty
    /// and handles it completely, and it says nothing about the
    /// neighbouring completion — only a *rate* of those is grounds for
    /// distrust.
    fn is_lie(self) -> bool {
        matches!(self, Evidence::FieldCheck | Evidence::Repaired)
    }

    /// Trace-operand encoding (`a` of [`TraceKind::HealthCause`]).
    ///
    /// [`TraceKind::HealthCause`]: opendesc_telemetry::TraceKind::HealthCause
    pub fn code(self) -> u64 {
        self as u64
    }
}

/// The per-queue health state machine:
///
/// ```text
///          a lie, or exact           any fault
///          faults at a rate
///   Healthy ──────────▶ Degraded ◀──────────── Recovering
///      ▲                   │                        │
///      │                   │ degraded_clean         │
///      │                   ▼                        │
///      └─── recovering_clean ◀── Recovering ◀───────┘
/// ```
///
/// "Fault" is anything the validator catches (discard, truncation,
/// structural failure, repaired field) or a watchdog-declared stall;
/// "clean" is a packet that passed every check its mode ran. A
/// `Healthy` queue is demoted on the spot by a lie and, through a leaky
/// bucket, by exact faults arriving faster than they drain (see
/// [`Evidence`]); off `Healthy` every fault restarts the climb.
#[derive(Debug, Default)]
pub struct HealthState {
    health: QueueHealth,
    /// Consecutive clean packets in the current (non-`Healthy`) state.
    streak: u32,
    /// Undrained charge of exact faults. Only moves while `Healthy`:
    /// off it, this is what the demoting fault found.
    level: u32,
    cfg: HealthConfig,
    /// State transitions taken (diagnostic).
    pub transitions: u64,
}

impl HealthState {
    /// What a clean completion drains from the bucket: the bucket's
    /// unit.
    const DRAIN: u32 = 1;
    /// What an exact fault adds: eight clean completions forget it, so
    /// faults no denser than one in nine never accumulate. The density
    /// that must be tolerated forever is one in 16; the benchmark's
    /// `rx_faulty` runs at about one in 33 (three classes at 1 %).
    const CHARGE: u32 = 8;
    /// The level at which a `Healthy` queue is demoted: exactly what a
    /// device faulting on every second completion reaches on its eighth
    /// fault (eight charges, seven drains in between) and not before.
    /// A larger charge lengthens the bucket's memory; a smaller one
    /// lets seven faults found in one poll's drain reach the threshold,
    /// their clean neighbours being credited only after the fill. At
    /// one fault in 33 chance carries this pair over the threshold
    /// about six times per million 32-completion polls.
    const THRESHOLD: u32 = 8 * Self::CHARGE - 7 * Self::DRAIN;

    /// Replace the thresholds; state, streak and counters stand.
    pub fn set_config(&mut self, cfg: HealthConfig) {
        self.cfg = cfg;
    }

    pub fn health(&self) -> QueueHealth {
        self.health
    }

    /// The fault-rate bucket's `(level, threshold)`.
    pub fn level(&self) -> (u32, u32) {
        (self.level, Self::THRESHOLD)
    }

    /// Record a fault; `true` when it demoted the queue to `Degraded`.
    /// Off `Healthy` any fault revokes trust (again) until clean
    /// streaks rebuild it; on `Healthy` that takes a lie, or the exact
    /// fault that fills the bucket.
    pub fn on_fault(&mut self, evidence: Evidence) -> bool {
        self.streak = 0;
        match self.health {
            QueueHealth::Degraded => return false,
            QueueHealth::Recovering => {}
            QueueHealth::Healthy => {
                if !evidence.is_lie() {
                    self.level += Self::CHARGE;
                    if self.level < Self::THRESHOLD {
                        return false;
                    }
                }
            }
        }
        self.health = QueueHealth::Degraded;
        self.transitions += 1;
        true
    }

    /// Record `n` consecutive packets that passed every check their
    /// mode ran.
    pub fn on_clean(&mut self, mut n: u32) {
        while n > 0 {
            let (streak, next) = match self.health {
                QueueHealth::Healthy => {
                    self.level = self.level.saturating_sub(n.saturating_mul(Self::DRAIN));
                    return;
                }
                QueueHealth::Degraded => (self.cfg.degraded_clean, QueueHealth::Recovering),
                QueueHealth::Recovering => (self.cfg.recovering_clean, QueueHealth::Healthy),
            };
            let need = streak.saturating_sub(self.streak).max(1);
            if n < need {
                self.streak += n;
                return;
            }
            n -= need;
            self.streak = 0;
            self.health = next;
            self.transitions += 1;
            if next == QueueHealth::Healthy {
                self.level = 0;
            }
        }
    }
}

/// Watchdog thresholds.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Consecutive empty polls (with work outstanding) before the first
    /// reset.
    pub stall_polls: u32,
    /// Bounded backoff: the threshold doubles per consecutive reset, up
    /// to `stall_polls << max_backoff_shift`.
    pub max_backoff_shift: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_polls: 3,
            max_backoff_shift: 6,
        }
    }
}

/// Poll-progress heartbeat per queue: frames fed in vs. completions
/// observed out. A run of empty polls with work outstanding means the
/// queue stalled (hung writeback engine, lost doorbell); after a
/// bounded-backoff threshold the watchdog requests a ring reset/re-arm.
#[derive(Debug, Default)]
pub struct Watchdog {
    cfg: WatchdogConfigInner,
    /// Frames fed toward this queue.
    fed: u64,
    /// Completions observed (including ones later discarded — observing
    /// *anything* proves the queue is alive).
    polled: u64,
    /// Consecutive empty polls with work outstanding.
    idle: u32,
    /// Current backoff exponent (reset on progress).
    backoff_shift: u32,
    /// Resets requested so far.
    pub resets: u64,
}

/// Newtype so `Watchdog::default()` picks up `WatchdogConfig::default`.
#[derive(Debug, Default)]
struct WatchdogConfigInner(WatchdogConfig);

impl Watchdog {
    /// Replace the thresholds; the ledger and the reset count stand.
    pub fn set_config(&mut self, cfg: WatchdogConfig) {
        self.cfg = WatchdogConfigInner(cfg);
    }

    /// A frame was fed toward the queue.
    pub fn note_fed(&mut self, n: u64) {
        self.fed += n;
    }

    /// Completions were observed: the queue is alive and `n` fed frames
    /// are accounted for. Clamped at `fed`: every consumed completion
    /// maps to a fed frame (replays go through [`note_alive`]), so the
    /// only way past `fed` is re-counting work a reset already forgave —
    /// and letting that credit stand would mask the next hidden
    /// completion from [`observe_empty`].
    ///
    /// [`note_alive`]: Watchdog::note_alive
    /// [`observe_empty`]: Watchdog::observe_empty
    pub fn note_progress(&mut self, n: u64) {
        self.polled = (self.polled + n).min(self.fed);
        self.idle = 0;
        self.backoff_shift = 0;
    }

    /// Something was observed that proves the queue alive but consumed
    /// no fed frame (a replayed completion). Resets the stall counters
    /// without touching the outstanding-work ledger — a duplicate must
    /// not mask a genuinely hidden completion.
    pub fn note_alive(&mut self) {
        self.idle = 0;
        self.backoff_shift = 0;
    }

    /// An empty poll happened. Returns `true` when the caller should
    /// reset/re-arm the queue now.
    pub fn observe_empty(&mut self) -> bool {
        if self.fed <= self.polled {
            // Nothing outstanding: emptiness is the expected state.
            self.idle = 0;
            return false;
        }
        self.idle += 1;
        let shift = self.backoff_shift.min(self.cfg.0.max_backoff_shift);
        let threshold = self.cfg.0.stall_polls << shift;
        if self.idle < threshold {
            return false;
        }
        self.idle = 0;
        self.backoff_shift = (self.backoff_shift + 1).min(self.cfg.0.max_backoff_shift);
        self.resets += 1;
        // Whatever the reset cannot republish was genuinely lost on the
        // device (fault drops, hangs); stop counting it as outstanding
        // or every later empty poll would re-trip the watchdog.
        self.polled = self.fed;
        true
    }

    /// Frames fed but not yet observed (saturating: resets forgive).
    pub fn outstanding(&self) -> u64 {
        self.fed.saturating_sub(self.polled)
    }

    /// Write off everything outstanding, exactly as a tripped reset
    /// does, without waiting for the stall threshold. The relayout
    /// protocol's last resort: when a drain-and-flip exhausts its poll
    /// budget the remaining frames are genuinely lost on the device
    /// (hang-swallowed or stranded behind the generation tick), and
    /// counting them as outstanding forever would wedge the new
    /// generation's stall detector.
    pub fn forgive_outstanding(&mut self) {
        self.polled = self.fed;
        self.idle = 0;
        self.backoff_shift = 0;
    }

    /// Frames fed toward the queue so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Completions credited as progress so far.
    pub fn polled(&self) -> u64 {
        self.polled
    }

    /// Register the watchdog's ledger under `scope` (e.g.
    /// `rx.q0.watchdog`).
    pub fn register_into(&self, reg: &mut opendesc_telemetry::MetricRegistry, scope: &str) {
        reg.counter(&format!("{scope}.fed"), self.fed);
        reg.counter(&format!("{scope}.polled"), self.polled);
        reg.counter(&format!("{scope}.resets"), self.resets);
        reg.gauge(&format!("{scope}.outstanding"), self.outstanding() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::intent::Intent;
    use opendesc_nicsim::models;
    use proptest::prelude::*;

    fn health_with(cfg: HealthConfig) -> HealthState {
        let mut h = HealthState::default();
        h.set_config(cfg);
        h
    }

    proptest! {
        /// The column pass flags exactly the packets the per-packet
        /// oracle fails; the datapath calls the oracle itself on those
        /// for `proven`, so its `(failed, proven)` is the oracle's.
        #[test]
        fn column_pass_agrees_with_the_per_packet_oracle(
            checks in proptest::collection::vec((0usize..8, 0usize..4, 0usize..4), 0..=6),
            lens in proptest::collection::vec(60usize..1515, 1..=64),
            cells in proptest::collection::vec(0u8..10, 8 * 64),
        ) {
            let spec = ValidatorSpec {
                expected_len: 0,
                checks: checks
                    .iter()
                    .map(|&(i, w, c)| {
                        let check = [
                            FieldCheck::PktLen,
                            FieldCheck::CsumStatus,
                            FieldCheck::RxStatus,
                            FieldCheck::PacketType,
                        ][c];
                        (i, [8, 16, 32, 128][w], check)
                    })
                    .collect(),
            };
            // Absent, zero, and values that pass some checks and fail
            // others, whatever the slot width.
            let n = lens.len();
            let columns: Vec<Vec<Option<u128>>> = (0..8)
                .map(|i| {
                    (0..n)
                        .map(|p| {
                            let len = lens[p] as u128;
                            match cells[i * 64 + p] {
                                0 => None,
                                1 => Some(0),
                                2 => Some(len),
                                3 => Some(len & 0xFF),
                                4 => Some(len + 1),
                                5 => Some(csum_status::GOOD as u128),
                                6 => Some((rx_status::DD | rx_status::EOP) as u128),
                                7 => Some(ptype::ETH as u128 | 1 << 40),
                                8 => Some(0x1234),
                                _ => Some(u128::MAX),
                            }
                        })
                        .collect()
                })
                .collect();
            let fail = spec.failing_packets(|p| lens[p], |i| &columns[i][..]);
            prop_assert_eq!(fail.checked_shr(n as u32).unwrap_or(0), 0, "bits past the batch");
            for p in 0..n {
                let (failed, _) = spec.check_values_all(lens[p], |i| columns[i][p]);
                prop_assert_eq!(fail >> p & 1 != 0, failed.is_some(), "packet {} of {}", p, n);
            }
        }

        /// A passing value fits its slot and passes its check (zero
        /// always does), and a value that already passes is kept.
        #[test]
        fn passing_values_pass(
            c in 0usize..4,
            width in 1u16..=128,
            v in any::<u128>(),
            len in 0usize..70_000,
        ) {
            let check = [
                FieldCheck::PktLen,
                FieldCheck::CsumStatus,
                FieldCheck::RxStatus,
                FieldCheck::PacketType,
            ][c];
            let ok = check.passing_value(v, width, len);
            prop_assert_eq!(ok & !width_mask(width), 0, "fits the slot");
            prop_assert!(ok == 0 || check.holds(ok, width, len), "{:?} {:#x}", check, ok);
            prop_assert_eq!(check.passing_value(ok, width, len), ok, "a fixed point");
        }
    }

    const EXACT: [Evidence; 4] = [
        Evidence::Truncated,
        Evidence::Duplicate,
        Evidence::Stale,
        Evidence::Stall,
    ];
    const LIES: [Evidence; 2] = [Evidence::FieldCheck, Evidence::Repaired];

    /// A machine after `gaps.len()` exact faults, each followed by its
    /// gap's worth of clean packets.
    fn after_sparse_faults(gaps: &[(usize, u32)]) -> HealthState {
        let mut h = HealthState::default();
        for &(kind, gap) in gaps {
            h.on_fault(EXACT[kind]);
            h.on_clean(gap);
        }
        h
    }

    proptest! {
        /// No slow creep: with at most one exact fault in any window of
        /// 16 completions (15 clean ones between two faults, or more)
        /// the queue never leaves `Healthy`, however long that lasts.
        #[test]
        fn sparse_exact_faults_never_leave_healthy(
            gaps in proptest::collection::vec((0usize..4, 15u32..200), 0..400),
        ) {
            let h = after_sparse_faults(&gaps);
            prop_assert_eq!(h.health(), QueueHealth::Healthy);
            prop_assert_eq!(h.transitions, 0);
            prop_assert_eq!(h.level().0, 0, "every fault fully drained");
        }

        /// A device that faults on every second completion is demoted
        /// by its eighth fault — on it, the constants are chosen so —
        /// whatever came sparsely before and whichever comes first.
        #[test]
        fn alternating_faults_demote_on_the_eighth(
            before in proptest::collection::vec((0usize..4, 15u32..200), 0..20),
            kinds in proptest::collection::vec(0usize..4, 8),
            clean_first in any::<bool>(),
        ) {
            let mut h = after_sparse_faults(&before);
            for (i, &kind) in kinds.iter().enumerate() {
                if clean_first {
                    h.on_clean(1);
                }
                prop_assert_eq!(h.health(), QueueHealth::Healthy, "before fault {}", i + 1);
                prop_assert_eq!(h.on_fault(EXACT[kind]), i == 7, "fault {}", i + 1);
                if !clean_first {
                    h.on_clean(1);
                }
            }
            prop_assert_eq!(h.health(), QueueHealth::Degraded);
            prop_assert_eq!(h.level(), (HealthState::THRESHOLD, HealthState::THRESHOLD));
        }

        /// A lie demotes at once, at any bucket level; and once the
        /// queue is down — by a lie or by a rate — exactly
        /// `degraded_clean + recovering_clean` clean packets, credited
        /// in any grouping, bring it back with an empty bucket: the
        /// bucket cannot hold the queue down after the streaks are
        /// served.
        #[test]
        fn a_lie_demotes_at_once_and_the_streaks_alone_restore(
            before in proptest::collection::vec((0usize..4, 0u32..40), 0..7),
            lie in 0usize..3,
            streaks in (1u32..64, 1u32..64),
            credits in proptest::collection::vec(1u32..20, 0..140),
        ) {
            let cfg = HealthConfig { degraded_clean: streaks.0, recovering_clean: streaks.1 };
            let mut h = health_with(cfg);
            // Up to six exact faults cannot fill the bucket.
            for &(kind, gap) in &before {
                prop_assert!(!h.on_fault(EXACT[kind]));
                h.on_clean(gap);
            }
            prop_assert_eq!(h.health(), QueueHealth::Healthy);
            if lie < 2 {
                prop_assert!(h.on_fault(LIES[lie]));
            } else {
                while !h.on_fault(Evidence::Duplicate) {}
            }
            prop_assert_eq!(h.health(), QueueHealth::Degraded);
            let mut left = streaks.0 + streaks.1;
            for c in credits {
                let c = c.min(left);
                if c == 0 {
                    break;
                }
                prop_assert_ne!(h.health(), QueueHealth::Healthy, "{} early", left);
                h.on_clean(c);
                left -= c;
            }
            h.on_clean(left);
            prop_assert_eq!(h.health(), QueueHealth::Healthy);
            prop_assert_eq!(h.transitions, 3);
            prop_assert_eq!(h.level().0, 0);
        }

        /// One credit of `n` is `n` credits of one, from any state.
        #[test]
        fn a_batch_credit_is_its_packets_credited_one_by_one(
            events in proptest::collection::vec((0usize..10, 1u32..70), 0..60),
            streaks in (0u32..40, 0u32..40),
        ) {
            let cfg = HealthConfig { degraded_clean: streaks.0, recovering_clean: streaks.1 };
            let (mut batched, mut single) =
                (health_with(cfg), health_with(cfg));
            for (what, n) in events {
                match what {
                    0..=3 => prop_assert_eq!(
                        batched.on_fault(EXACT[what]),
                        single.on_fault(EXACT[what])
                    ),
                    4 => prop_assert_eq!(
                        batched.on_fault(LIES[n as usize % 2]),
                        single.on_fault(LIES[n as usize % 2])
                    ),
                    _ => {
                        batched.on_clean(n);
                        (0..n).for_each(|_| single.on_clean(1));
                    }
                }
                prop_assert_eq!(batched.health(), single.health());
                prop_assert_eq!(batched.level(), single.level());
                prop_assert_eq!(batched.transitions, single.transitions);
            }
        }
    }

    #[test]
    fn seq_tracker_admits_fresh_flags_duplicate_and_stale() {
        let mut t = SeqTracker::default();
        assert_eq!(t.admit(0), SeqVerdict::Fresh);
        assert_eq!(t.admit(1), SeqVerdict::Fresh);
        assert_eq!(t.admit(1), SeqVerdict::Duplicate);
        assert_eq!(t.admit(2), SeqVerdict::Fresh);
        // A stale generation consumed the slot the tag-3 completion
        // would have used; after skipping it, the stream re-syncs.
        assert_eq!(t.admit(3u64.wrapping_sub(64)), SeqVerdict::Stale);
        assert_eq!(t.admit(4), SeqVerdict::Fresh);
    }

    #[test]
    fn seq_tracker_survives_replayed_stale_tags_without_desync() {
        // A duplicated *stale* writeback must not advance expectation
        // twice — that would leave the tracker permanently ahead,
        // discarding every honest completion that follows.
        let mut t = SeqTracker::default();
        assert_eq!(t.admit(0), SeqVerdict::Fresh);
        assert_eq!(t.admit(1), SeqVerdict::Fresh);
        let stale = 2u64.wrapping_sub(64);
        assert_eq!(t.admit(stale), SeqVerdict::Stale);
        assert_eq!(t.admit(stale), SeqVerdict::Duplicate, "replay of the stale");
        // The honest stream resumes with zero further loss.
        assert_eq!(t.admit(3), SeqVerdict::Fresh);
        assert_eq!(t.admit(4), SeqVerdict::Fresh);
    }

    #[test]
    fn seq_tracker_resyncs_when_the_host_fell_behind() {
        // Tags slightly ahead (host enabled validation mid-stream) must
        // realign instead of flagging every later completion stale.
        let mut t = SeqTracker::default();
        assert_eq!(t.admit(10), SeqVerdict::Stale);
        assert_eq!(t.admit(11), SeqVerdict::Fresh);
        assert_eq!(t.admit(12), SeqVerdict::Fresh);
    }

    #[test]
    fn health_machine_walks_degraded_recovering_healthy() {
        let mut h = health_with(HealthConfig {
            degraded_clean: 2,
            recovering_clean: 3,
        });
        assert_eq!(h.health(), QueueHealth::Healthy);
        assert!(h.on_fault(Evidence::FieldCheck));
        assert_eq!(h.health(), QueueHealth::Degraded);
        assert!(!h.on_fault(Evidence::FieldCheck), "already there");
        h.on_clean(2);
        assert_eq!(h.health(), QueueHealth::Recovering);
        // Any fault during recovery revokes trust again.
        assert!(h.on_fault(Evidence::Duplicate));
        assert_eq!(h.health(), QueueHealth::Degraded);
        // One credit can carry the queue through both streaks.
        h.on_clean(5);
        assert_eq!(h.health(), QueueHealth::Healthy);
        assert_eq!(h.transitions, 5);
    }

    #[test]
    fn health_severity_orders_for_worst_of() {
        assert!(QueueHealth::Degraded > QueueHealth::Recovering);
        assert!(QueueHealth::Recovering > QueueHealth::Healthy);
    }

    #[test]
    fn watchdog_trips_after_threshold_and_backs_off() {
        let mut w = Watchdog::default();
        w.set_config(WatchdogConfig {
            stall_polls: 2,
            max_backoff_shift: 2,
        });
        // No work outstanding: empty polls never trip.
        for _ in 0..10 {
            assert!(!w.observe_empty());
        }
        w.note_fed(5);
        assert!(!w.observe_empty());
        assert!(w.observe_empty(), "second empty poll hits the threshold");
        assert_eq!(w.resets, 1);
        assert_eq!(w.outstanding(), 0, "reset forgives lost frames");
        // Next stall needs a doubled run of empty polls.
        w.note_fed(1);
        assert!(!w.observe_empty());
        assert!(!w.observe_empty());
        assert!(!w.observe_empty());
        assert!(w.observe_empty());
        assert_eq!(w.resets, 2);
        // Progress resets the backoff.
        w.note_fed(2);
        w.note_progress(2);
        w.note_fed(1);
        assert!(!w.observe_empty());
        assert!(w.observe_empty(), "threshold back at stall_polls");
    }

    #[test]
    fn validator_spec_derives_checks_from_the_layout() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("v")
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::IP_CHECKSUM)
            .want(&mut reg, names::RSS_HASH)
            .build();
        // e1000e csum path provides pkt_len + ip_checksum in hardware.
        let iface = Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap();
        let spec = ValidatorSpec::derive(&iface.accessors, &iface.reg);
        assert_eq!(spec.expected_len, iface.accessors.completion_bytes as usize);
        let kinds: Vec<FieldCheck> = spec.checks.iter().map(|(_, _, c)| *c).collect();
        assert!(kinds.contains(&FieldCheck::PktLen));
        assert!(kinds.contains(&FieldCheck::CsumStatus));

        // A pkt_len that matches passes; one that lies fails.
        let len_idx = spec
            .checks
            .iter()
            .find(|(_, _, c)| *c == FieldCheck::PktLen)
            .unwrap()
            .0;
        let (ok, _) = spec.check_values_all(100, |i| (i == len_idx).then_some(100));
        assert_eq!(ok, None);
        let (bad, _) = spec.check_values_all(100, |i| (i == len_idx).then_some(99));
        assert_eq!(bad, Some(FieldCheck::PktLen));
        // A bad csum status code fails.
        let csum_idx = spec
            .checks
            .iter()
            .find(|(_, _, c)| *c == FieldCheck::CsumStatus)
            .unwrap()
            .0;
        let (bad, _) = spec.check_values_all(100, |i| (i == csum_idx).then_some(0x1234));
        assert_eq!(bad, Some(FieldCheck::CsumStatus));
    }

    #[test]
    fn check_values_all_reports_proven_fields_alongside_the_failure() {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = Intent::builder("v")
            .want(&mut reg, names::PKT_LEN)
            .want(&mut reg, names::IP_CHECKSUM)
            .build();
        let iface = Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap();
        let spec = ValidatorSpec::derive(&iface.accessors, &iface.reg);
        let len_idx = spec
            .checks
            .iter()
            .find(|(_, _, c)| *c == FieldCheck::PktLen)
            .unwrap()
            .0;
        let csum_idx = spec
            .checks
            .iter()
            .find(|(_, _, c)| *c == FieldCheck::CsumStatus)
            .unwrap()
            .0;
        let good_csum = opendesc_softnic::csum_status::GOOD as u128;
        // Both pass → no failure, both slots proven.
        let (fail, proven) = spec.check_values_all(100, |i| {
            if i == len_idx {
                Some(100)
            } else if i == csum_idx {
                Some(good_csum)
            } else {
                None
            }
        });
        assert_eq!(fail, None);
        assert_ne!(proven & (1 << len_idx), 0);
        assert_ne!(proven & (1 << csum_idx), 0);
        // pkt_len lies, csum passes → failure reported, csum still
        // proven, the liar not.
        let (fail, proven) = spec.check_values_all(100, |i| {
            if i == len_idx {
                Some(99)
            } else if i == csum_idx {
                Some(good_csum)
            } else {
                None
            }
        });
        assert_eq!(fail, Some(FieldCheck::PktLen));
        assert_eq!(proven & (1 << len_idx), 0);
        assert_ne!(proven & (1 << csum_idx), 0);
        // Zero values prove nothing and fail nothing.
        let (fail, proven) = spec.check_values_all(100, |_| Some(0));
        assert_eq!((fail, proven), (None, 0));
    }
}
