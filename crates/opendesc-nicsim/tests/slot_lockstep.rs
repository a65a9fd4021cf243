//! A completion-ring slot holds everything the host reads for one
//! completion — record, sequence tag, frame and steering hint — and
//! they stay together under any interleaving of device and host steps.
//!
//! The reference is a model kept here: one queue of
//! `(frame, record, seq, hint)` entries, pushed as the device produces
//! and popped as the host consumes. Each case programs a catalog model
//! on a small ring and runs random steps:
//! - `deliver` / `deliver_steered`, under a fault mix of every class
//!   that reaches the ring (drop, hang, truncation, stale generation,
//!   duplicate, lost doorbell);
//! - `post_completion` of arbitrary record bytes;
//! - `reset_queue` and `reprogram_queue`;
//! - consumes in runs of 1–40, through `receive_slot` (the record read
//!   in its slot) or the copying `receive_into_hinted`.
//!
//! Every consumed entry must equal the model's front entry, and a
//! consumed record must read back from its ring position exactly until
//! the device produces over its slot. `CHAOS_SEED` is mixed into the
//! fault seed, so the CI chaos job explores distinct schedules.

use opendesc_nicsim::{models, FaultConfig, NicError, NicStats, RingError, SimNic};
use opendesc_softnic::testpkt;
use proptest::prelude::*;
use std::collections::VecDeque;

/// CI override: mixed into every fault seed.
fn env_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    frame: Vec<u8>,
    record: Vec<u8>,
    seq: u64,
    hint: Option<u32>,
}

/// The device as a queue of entries: what `SimNic` did before its
/// frames and hints moved into ring slots.
#[derive(Default)]
struct Model {
    queue: VecDeque<Entry>,
    /// Trailing entries produced behind a lost doorbell.
    unpublished: usize,
    /// Next fresh sequence tag.
    wb_seq: u64,
    /// Ring positions produced and consumed so far.
    prod: u64,
    cons: u64,
}

#[derive(Debug, Clone)]
enum Step {
    Deliver { hint: Option<u32>, steered: bool },
    Post { record: Vec<u8>, hint: Option<u32> },
    Reset,
    Reprogram,
    Consume { run: usize, copy: bool },
}

fn arb_hint() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), any::<u32>()).prop_map(|(some, h)| some.then_some(h))
}

fn arb_step() -> impl Strategy<Value = Step> {
    let deliver =
        || (arb_hint(), any::<bool>()).prop_map(|(hint, steered)| Step::Deliver { hint, steered });
    prop_oneof![
        deliver(),
        deliver(),
        (proptest::collection::vec(any::<u8>(), 0..72), arb_hint())
            .prop_map(|(record, hint)| Step::Post { record, hint }),
        Just(Step::Reset),
        Just(Step::Reprogram),
        (1usize..41, any::<bool>()).prop_map(|(run, copy)| Step::Consume { run, copy }),
    ]
}

/// Frame `n` of a case: distinct bytes and lengths per delivery.
fn frame(n: u64) -> Vec<u8> {
    let payload = vec![n as u8; (n % 40) as usize];
    testpkt::udp4([10, 0, 0, 1], [10, 0, 0, 2], n as u16, 9, &payload, None)
}

struct Case {
    nic: SimNic,
    ctx: opendesc_ir::Assignment,
    path: usize,
    model: Model,
    frames: u64,
    /// The host's frame buffer, swapped with each consumed slot's.
    host: Vec<u8>,
    /// Consumed `(position, record)` pairs still inside one ring lap.
    read: VecDeque<(u64, Vec<u8>)>,
}

impl Case {
    fn cap(&self) -> u64 {
        self.nic.cq.capacity() as u64
    }

    fn deliver(&mut self, hint: Option<u32>, steered: bool) -> Result<(), TestCaseError> {
        let f = frame(self.frames);
        self.frames += 1;
        let before: NicStats = self.nic.stats.clone();
        if steered {
            self.nic.deliver_steered(&f, None, hint).unwrap();
        } else {
            self.nic.deliver(&f).unwrap();
        }
        let after = self.nic.stats.clone();
        let grew = |count: fn(&NicStats) -> u64| count(&after) > count(&before);
        if !grew(|s| s.completions) {
            prop_assert!(!grew(|s| s.duplicated), "a replay of nothing");
            return Ok(());
        }
        let cap = self.cap();
        let entry = Entry {
            frame: f,
            record: self.nic.cq.record(self.model.prod).unwrap().to_vec(),
            seq: if grew(|s| s.stale_gen) {
                self.model.wb_seq.wrapping_sub(cap)
            } else {
                self.model.wb_seq
            },
            // A cut record loses its sideband; an honest one carries
            // the steering hint (a plain `deliver` has none).
            hint: if grew(|s| s.truncated) || !steered {
                None
            } else {
                hint
            },
        };
        self.model.wb_seq += 1;
        self.model.prod += 1;
        if grew(|s| s.doorbell_lost) {
            self.model.unpublished += 1;
        } else {
            self.model.unpublished = 0;
        }
        self.model.queue.push_back(entry.clone());
        if grew(|s| s.duplicated) {
            // The replay: the same entry again, in the next slot, and a
            // doorbell that publishes everything.
            let replay = self.nic.cq.record(self.model.prod);
            prop_assert_eq!(replay, Some(&entry.record[..]));
            self.model.queue.push_back(entry);
            self.model.prod += 1;
            self.model.unpublished = 0;
        }
        Ok(())
    }

    fn post(&mut self, record: Vec<u8>, hint: Option<u32>) -> Result<(), TestCaseError> {
        let f = frame(self.frames);
        self.frames += 1;
        match self.nic.post_completion(&f, &record, hint) {
            Ok(()) => {
                self.model.queue.push_back(Entry {
                    frame: f,
                    record,
                    seq: self.model.wb_seq,
                    hint,
                });
                self.model.wb_seq += 1;
                self.model.prod += 1;
                self.model.unpublished = 0;
            }
            Err(NicError::Ring(RingError::Full)) => {
                prop_assert_eq!(self.model.queue.len() as u64, self.cap());
            }
            Err(NicError::Ring(RingError::EntryTooLarge { .. })) => {
                prop_assert!(record.len() > self.nic.cq.slot_size());
            }
            Err(e) => return Err(TestCaseError::fail(format!("post_completion: {e}"))),
        }
        Ok(())
    }

    fn consume(&mut self, run: usize, copy: bool) -> Result<(), TestCaseError> {
        let mut cmpt = Vec::new();
        for _ in 0..run {
            let published = self.model.queue.len() - self.model.unpublished;
            let got = if copy {
                let side = self.nic.receive_into_hinted(&mut self.host, &mut cmpt);
                side.map(|side| (self.model.cons, side))
            } else {
                self.nic.receive_slot(&mut self.host)
            };
            let Some((pos, side)) = got else {
                prop_assert_eq!(published, 0, "a published entry went missing");
                return Ok(());
            };
            prop_assert!(published > 0, "consumed an unpublished entry");
            let want = self.model.queue.pop_front().unwrap();
            prop_assert_eq!(pos, self.model.cons, "ring position");
            let record = self.nic.cq.record(pos).map(<[u8]>::to_vec);
            let got = Entry {
                frame: self.host.clone(),
                record: if copy {
                    cmpt.clone()
                } else {
                    record.clone().unwrap()
                },
                seq: side.seq,
                hint: side.rss_hint,
            };
            prop_assert_eq!(&got, &want, "entry at position {}", pos);
            prop_assert_eq!(record.as_deref(), Some(&want.record[..]), "in its slot");
            self.model.cons += 1;
            self.read.push_back((pos, want.record));
        }
        Ok(())
    }

    /// A consumed record reads back from its position until the device
    /// has produced a ring's worth of entries after it, and never after.
    fn check_reads(&mut self) -> Result<(), TestCaseError> {
        let (prod, cap) = (self.model.prod, self.cap());
        for (pos, record) in &self.read {
            let live = prod - pos <= cap;
            let got = self.nic.cq.record(*pos);
            prop_assert_eq!(got, live.then_some(&record[..]), "position {}", pos);
        }
        self.read.retain(|(pos, _)| prod - pos <= cap);
        Ok(())
    }
}

fn run_case(
    model_ix: usize,
    ring_log: u32,
    chances: [f64; 6],
    seed: u64,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let model = models::catalog().swap_remove(model_ix);
    let mut nic = SimNic::new(model, 1 << ring_log).unwrap();
    let (path, ctx) = (nic.paths.iter())
        .find_map(|p| p.solve_context().ok().map(|ctx| (p.id, ctx)))
        .unwrap();
    nic.configure(ctx.clone()).unwrap();
    let [drop, hang, truncate, stale, duplicate, doorbell] = chances;
    let faults = FaultConfig::builder()
        .drop_chance(drop)
        .hang(hang, 3)
        .truncate_chance(truncate)
        .stale_gen_chance(stale)
        .duplicate_chance(duplicate)
        .doorbell_loss_chance(doorbell)
        .seed(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .build()
        .unwrap();
    nic.set_faults(faults).unwrap();
    let mut case = Case {
        nic,
        ctx,
        path,
        model: Model::default(),
        frames: 0,
        host: Vec::new(),
        read: VecDeque::new(),
    };
    for step in steps {
        match step.clone() {
            Step::Deliver { hint, steered } => case.deliver(hint, steered)?,
            Step::Post { record, hint } => case.post(record, hint)?,
            Step::Reset => {
                case.nic.reset_queue();
                case.model.unpublished = 0;
            }
            Step::Reprogram => {
                let stranded = case.nic.reprogram_queue(&case.ctx, case.path).unwrap();
                prop_assert_eq!(stranded, case.model.queue.len());
                let cap = case.cap();
                for e in &mut case.model.queue {
                    e.seq = e.seq.wrapping_sub(cap);
                }
                case.model.unpublished = 0;
            }
            Step::Consume { run, copy } => case.consume(run, copy)?,
        }
        case.check_reads()?;
    }
    // Whatever is left drains in order once everything is published.
    case.nic.reset_queue();
    case.model.unpublished = 0;
    let left = case.model.queue.len();
    case.consume(left + 1, false)?;
    prop_assert!(case.model.queue.is_empty());
    prop_assert_eq!(case.nic.pending_completions(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slots_stay_in_lockstep_with_a_queue_model(
        model_ix in 0usize..6,
        ring_log in 1u32..5,
        permille in any::<[u8; 6]>(),
        seed in any::<u64>(),
        steps in proptest::collection::vec(arb_step(), 1..120),
    ) {
        // Each class at up to 0.255 per frame; hangs at a third of that.
        let mut chances = permille.map(|p| f64::from(p) / 1000.0);
        chances[1] /= 3.0;
        run_case(model_ix, ring_log, chances, seed, &steps)?;
    }
}
