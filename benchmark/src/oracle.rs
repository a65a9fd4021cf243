//! Correctness oracle for the verification laps.
//!
//! The reference never comes from the code under test's fast path:
//! metadata is recomputed from the delivered frame bytes with
//! `SoftNic::compute_by_name`, and wire frames are compared with the
//! frames the generator produced.

use opendesc_core::{AccessorKind, CompiledInterface};
use opendesc_ir::bits::width_mask;
use opendesc_softnic::checksum::verify_ipv4_checksum;
use opendesc_softnic::wire::ParsedFrame;
use opendesc_softnic::SoftNic;

struct Field {
    name: String,
    kind: AccessorKind,
    width_bits: u16,
}

pub struct Oracle {
    fields: Vec<Field>,
    soft: SoftNic,
    /// A faulty device may cost a value (absent) but never falsify one.
    absent_ok: bool,
    /// Operations checked: frames offered on the verification laps.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the error message.
    pub examples: Vec<String>,
}

impl Oracle {
    pub fn new(iface: &CompiledInterface, absent_ok: bool) -> Oracle {
        let fields = iface
            .accessors
            .accessors
            .iter()
            .map(|a| Field {
                name: iface.reg.name(a.semantic).to_string(),
                kind: a.kind,
                width_bits: a.width_bits,
            })
            .collect();
        Oracle {
            fields,
            soft: SoftNic::new(),
            absent_ok,
            attempted: 0,
            failed: 0,
            examples: Vec::new(),
        }
    }

    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// One delivered packet: every value the reference can compute must
    /// equal it (masked to the slot width for hardware fields).
    pub fn check_packet(&mut self, frame: &[u8], value_at: impl Fn(usize) -> Option<u128>) {
        for i in 0..self.fields.len() {
            let f = &self.fields[i];
            let Some(r) = self.soft.compute_by_name(&f.name, frame) else {
                continue;
            };
            let want = match f.kind {
                AccessorKind::Hardware => r as u128 & width_mask(f.width_bits),
                AccessorKind::Software => r as u128,
            };
            let got = value_at(i);
            if got == Some(want) || (got.is_none() && self.absent_ok) {
                continue;
            }
            let what = format!("{}: delivered {got:?}, reference {want:#x}", f.name);
            self.fail(1, what);
            return;
        }
    }

    /// A count that must match exactly; every unit of difference is one
    /// failed operation.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(
                got.abs_diff(want),
                format!("{what}: {got}, expected {want}"),
            );
        }
    }

    /// A frame the device emitted for `input`: the same bytes, except
    /// that the IPv4 header checksum must be valid whatever the input's
    /// was.
    pub fn check_wire(&mut self, input: &[u8], wire: &[u8]) {
        if !wire_matches(input, wire) {
            self.fail(
                1,
                format!(
                    "wire frame of {} B differs from its {} B input",
                    wire.len(),
                    input.len()
                ),
            );
        }
    }
}

fn wire_matches(input: &[u8], wire: &[u8]) -> bool {
    if input.len() != wire.len() {
        return false;
    }
    let Some(ip) = ParsedFrame::parse(wire).and_then(|p| p.ipv4.map(|ip| (p.eth.l3_offset(), ip)))
    else {
        return input == wire;
    };
    let (l3, view) = ip;
    let csum = l3 + 10;
    verify_ipv4_checksum(view.header())
        && input[..csum] == wire[..csum]
        && input[csum + 2..] == wire[csum + 2..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::bench7;
    use opendesc_core::Compiler;
    use opendesc_ir::SemanticRegistry;
    use opendesc_nicsim::models;
    use opendesc_softnic::testpkt;

    fn oracle(absent_ok: bool) -> (Oracle, Vec<u8>, Vec<Option<u128>>) {
        let mut reg = SemanticRegistry::with_builtins();
        let intent = bench7(&mut reg);
        let iface = Compiler::default()
            .compile_model(&models::e1000e(), &intent, &mut reg)
            .unwrap();
        let frame = testpkt::udp4(
            [10, 0, 0, 1],
            [10, 1, 0, 1],
            10_000,
            11211,
            &testpkt::kvs_get_payload("key:1"),
            Some(0x2001),
        );
        // The right answers, straight from the reference.
        let mut soft = SoftNic::new();
        let values = iface
            .accessors
            .accessors
            .iter()
            .map(|a| {
                soft.compute_by_name(iface.reg.name(a.semantic), &frame)
                    .map(|v| match a.kind {
                        AccessorKind::Hardware => v as u128 & width_mask(a.width_bits),
                        AccessorKind::Software => v as u128,
                    })
            })
            .collect();
        (Oracle::new(&iface, absent_ok), frame, values)
    }

    #[test]
    fn reference_values_pass() {
        let (mut o, frame, values) = oracle(false);
        o.check_packet(&frame, |i| values[i]);
        assert_eq!(o.failed, 0, "{:?}", o.examples);
    }

    #[test]
    fn one_wrong_value_fails() {
        let (mut o, frame, mut values) = oracle(true);
        values[0] = values[0].map(|v| v ^ 1);
        o.check_packet(&frame, |i| values[i]);
        assert_eq!(o.failed, 1);
        assert!(o.examples[0].starts_with("rss_hash"), "{:?}", o.examples);
    }

    #[test]
    fn absent_values_pass_only_behind_a_faulty_device() {
        let (mut strict, frame, mut values) = oracle(false);
        values[2] = None;
        strict.check_packet(&frame, |i| values[i]);
        assert_eq!(strict.failed, 1);
        let (mut lenient, frame, _) = oracle(true);
        lenient.check_packet(&frame, |i| values[i]);
        assert_eq!(lenient.failed, 0);
    }

    #[test]
    fn wire_frames_must_match_modulo_a_valid_ip_checksum() {
        let good = testpkt::udp4([10, 0, 0, 1], [10, 1, 0, 1], 1, 2, b"payload", None);
        let mut zeroed = good.clone();
        zeroed[24] = 0;
        zeroed[25] = 0;
        // Input without a checksum, wire with the right one: a match.
        assert!(wire_matches(&zeroed, &good));
        // Wire with a bad checksum, a flipped payload byte, or a lost
        // byte: not a match.
        assert!(!wire_matches(&good, &zeroed));
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x80;
        assert!(!wire_matches(&good, &flipped));
        assert!(!wire_matches(&good, &good[..good.len() - 1]));

        let (mut o, ..) = oracle(false);
        o.check_wire(&good, &flipped);
        o.expect_eq("delivered", 250, 256);
        assert_eq!(o.failed, 7);
    }
}
