//! Host stub synthesis, runtime form (paper §4, step 4).
//!
//! For the selected path `p*`, every provided semantic gets a
//! *constant-time accessor*: a precomputed `(offset, width, shift, mask)`
//! read against the completion byte stream. Byte-aligned fields use plain
//! big-endian loads; unaligned fields go through the bit-exact slow path.
//! Remaining semantics get SoftNIC shims that recompute the value from
//! the packet bytes at the cost Eq. 1 charged.

use crate::intent::Intent;
use opendesc_ir::bits::{read_bits, read_bytes_be};
use opendesc_ir::path::CompletionPath;
use opendesc_ir::SemanticId;
use std::borrow::Cow;
use std::fmt;

/// How a semantic is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessorKind {
    /// Read from the completion record at a fixed offset.
    Hardware,
    /// Recomputed by the SoftNIC shim from packet bytes.
    Software,
}

/// A constant-time field accessor.
#[derive(Debug, Clone, PartialEq)]
pub struct Accessor {
    pub semantic: SemanticId,
    /// Field name, shared with the intent field it serves.
    pub name: Cow<'static, str>,
    pub kind: AccessorKind,
    /// For hardware accessors: absolute bit offset in the completion.
    pub offset_bits: u32,
    pub width_bits: u16,
    /// Fast-path precomputation: byte-aligned fields of whole-byte width.
    aligned: bool,
}

impl Accessor {
    /// Build a hardware accessor from a layout slot.
    pub fn hardware(
        semantic: SemanticId,
        name: impl Into<Cow<'static, str>>,
        offset_bits: u32,
        width_bits: u16,
    ) -> Self {
        Accessor {
            semantic,
            name: name.into(),
            kind: AccessorKind::Hardware,
            offset_bits,
            width_bits,
            aligned: offset_bits.is_multiple_of(8)
                && width_bits.is_multiple_of(8)
                && width_bits <= 128,
        }
    }

    /// Build a software-shim accessor.
    pub fn software(
        semantic: SemanticId,
        name: impl Into<Cow<'static, str>>,
        width_bits: u16,
    ) -> Self {
        Accessor {
            semantic,
            name: name.into(),
            kind: AccessorKind::Software,
            offset_bits: 0,
            width_bits,
            aligned: false,
        }
    }

    /// Read from a completion record (hardware accessors only).
    ///
    /// # Panics
    /// Panics if the completion is shorter than the accessor's range.
    /// Completion bytes are device input, and a device can truncate
    /// them: the caller checks the record against
    /// [`AccessorSet::completion_bytes`] before reading, as
    /// `OpenDescDriver` does.
    #[inline]
    pub fn read(&self, cmpt: &[u8]) -> u128 {
        debug_assert_eq!(self.kind, AccessorKind::Hardware);
        if self.aligned {
            read_bytes_be(
                cmpt,
                (self.offset_bits / 8) as usize,
                (self.width_bits / 8) as usize,
            )
        } else {
            read_bits(cmpt, self.offset_bits, self.width_bits)
        }
    }
}

impl fmt::Display for Accessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AccessorKind::Hardware => write!(
                f,
                "{}: hw [{}..{}) bits",
                self.name,
                self.offset_bits,
                self.offset_bits + self.width_bits as u32
            ),
            AccessorKind::Software => write!(f, "{}: softnic shim", self.name),
        }
    }
}

/// The full accessor set for one compiled interface.
#[derive(Debug, Clone)]
pub struct AccessorSet {
    pub accessors: Vec<Accessor>,
    /// Completion record size the hardware accessors assume.
    pub completion_bytes: u32,
}

impl AccessorSet {
    /// Synthesize from a selected path and the intent, one accessor per
    /// intent field, named like it: semantics the path provides become
    /// hardware accessors, the rest software shims.
    pub fn synthesize(path: &CompletionPath, intent: &Intent) -> AccessorSet {
        let mut accessors = Vec::with_capacity(intent.len());
        for f in &intent.fields {
            let name = f.name.clone();
            accessors.push(match path.slot_for(f.semantic) {
                Some(slot) => {
                    Accessor::hardware(f.semantic, name, slot.offset_bits, slot.width_bits)
                }
                None => Accessor::software(f.semantic, name, f.width_bits),
            });
        }
        AccessorSet {
            accessors,
            completion_bytes: path.size_bytes(),
        }
    }

    /// The accessor for `sem`.
    pub fn for_semantic(&self, sem: SemanticId) -> Option<&Accessor> {
        self.accessors.iter().find(|a| a.semantic == sem)
    }

    /// Hardware accessors only.
    pub fn hardware(&self) -> impl Iterator<Item = &Accessor> {
        self.accessors
            .iter()
            .filter(|a| a.kind == AccessorKind::Hardware)
    }

    /// Software shims only.
    pub fn software(&self) -> impl Iterator<Item = &Accessor> {
        self.accessors
            .iter()
            .filter(|a| a.kind == AccessorKind::Software)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_ir::{enumerate_paths, extract, names, SemanticRegistry, DEFAULT_MAX_PATHS};
    use opendesc_p4::typecheck::parse_and_check;
    use proptest::prelude::*;

    fn mlx5_mini_path() -> (CompletionPath, SemanticRegistry) {
        let src = r#"
            header mini_t {
                @semantic("rss_hash") bit<32> rss;
                @semantic("pkt_len") bit<16> byte_cnt;
                @semantic("rx_status") bit<8> op_own;
                bit<8> pad0;
            }
            struct ctx_t { bit<1> c; }
            struct m_t { mini_t mini; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply { o.emit(m.mini); }
            }
        "#;
        let (checked, d) = parse_and_check(src);
        assert!(!d.has_errors());
        let mut reg = SemanticRegistry::with_builtins();
        let cfg = extract(&checked, "C", &mut reg).unwrap();
        let mut paths = enumerate_paths(&cfg, DEFAULT_MAX_PATHS).unwrap();
        (paths.remove(0), reg)
    }

    fn intent(reg: &mut SemanticRegistry, sems: &[&str]) -> Intent {
        (sems.iter())
            .fold(Intent::builder("i"), |b, s| b.want(reg, s))
            .build()
    }

    #[test]
    fn synthesize_splits_hw_and_soft() {
        let (path, mut reg) = mlx5_mini_path();
        let rss = reg.id(names::RSS_HASH).unwrap();
        let want = intent(&mut reg, &[names::RSS_HASH, names::VLAN_TCI]);
        let set = AccessorSet::synthesize(&path, &want);
        assert_eq!(set.hardware().count(), 1);
        assert_eq!(set.software().count(), 1);
        assert_eq!(set.completion_bytes, 8);
        assert_eq!(set.for_semantic(rss).unwrap().kind, AccessorKind::Hardware);
    }

    #[test]
    fn hardware_read_matches_layout() {
        let (path, mut reg) = mlx5_mini_path();
        let rss = reg.id(names::RSS_HASH).unwrap();
        let len = reg.id(names::PKT_LEN).unwrap();
        let set =
            AccessorSet::synthesize(&path, &intent(&mut reg, &[names::RSS_HASH, names::PKT_LEN]));
        let cmpt = [0xDE, 0xAD, 0xBE, 0xEF, 0x05, 0xDC, 0x03, 0x00];
        assert_eq!(set.for_semantic(rss).unwrap().read(&cmpt), 0xDEADBEEF);
        assert_eq!(set.for_semantic(len).unwrap().read(&cmpt), 0x05DC);
    }

    proptest! {
        /// Aligned fast path equals the bit-exact slow path for every
        /// offset/width combination.
        #[test]
        fn fast_path_equals_slow_path(
            off_bytes in 0u32..8,
            width_bytes in 1u16..=8,
            data in proptest::collection::vec(any::<u8>(), 16),
        ) {
            let a = Accessor::hardware(SemanticId(0), "f", off_bytes * 8, width_bytes * 8);
            prop_assert!(a.aligned);
            let direct = read_bits(&data, off_bytes * 8, width_bytes * 8);
            prop_assert_eq!(a.read(&data), direct);
        }

        /// Unaligned accessors agree with read_bits.
        #[test]
        fn unaligned_reads_bit_exact(
            off in 0u32..40,
            width in 1u16..=32,
            data in proptest::collection::vec(any::<u8>(), 16),
        ) {
            let a = Accessor::hardware(SemanticId(0), "f", off, width);
            prop_assert_eq!(a.read(&data), read_bits(&data, off, width));
        }
    }
}
