//! Resolved types for checked contracts.
//!
//! The type checker lowers the syntactic AST into these tables. Headers get
//! their field bit-offsets and total widths computed here — those numbers
//! are what the OpenDesc compiler later turns into constant-time accessors.
//! Every name in them is a [`Sym`] of the checked program, and every
//! lookup is by symbol.

use crate::ast::{Sym, Symbols};
use crate::span::Span;
use std::fmt;

/// Index of a header in [`TypeTable::headers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeaderId(pub u32);

/// Index of a struct in [`TypeTable::structs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructId(pub u32);

/// Index of an enum in [`TypeTable::enums`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnumId(pub u32);

/// A fully resolved type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Fixed-width bit string. Width 0 never occurs in checked programs.
    Bit(u16),
    Bool,
    Header(HeaderId),
    Struct(StructId),
    Enum(EnumId),
    /// Builtin extern object such as `cmpt_out`, `desc_in`, `packet_in`,
    /// `packet_out`, or a user-declared extern.
    Extern(ExternKind),
    Void,
}

/// Which extern object a value is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternKind {
    /// `cmpt_out`: completion emitter (has `emit`).
    CmptOut,
    /// `desc_in`: descriptor byte stream (has `extract`).
    DescIn,
    /// `packet_in` (has `extract`).
    PacketIn,
    /// `packet_out` (has `emit`).
    PacketOut,
    /// A user extern declaration; index into [`TypeTable::externs`].
    User(u32),
}

impl ExternKind {
    /// The builtin extern type `name` spells, if it spells one.
    pub fn builtin(name: Sym) -> Option<ExternKind> {
        Some(match name {
            Sym::CMPT_OUT => ExternKind::CmptOut,
            Sym::DESC_IN => ExternKind::DescIn,
            Sym::PACKET_IN => ExternKind::PacketIn,
            Sym::PACKET_OUT => ExternKind::PacketOut,
            _ => return None,
        })
    }
}

impl Ty {
    /// Bit width of value types (`bit<N>`, `bool`, enums); `None` for
    /// aggregates and externs.
    pub fn bit_width(&self, tt: &TypeTable) -> Option<u16> {
        match self {
            Ty::Bit(w) => Some(*w),
            Ty::Bool => Some(1),
            Ty::Enum(id) => Some(tt.enum_(*id).repr_width),
            Ty::Header(id) => Some(tt.header(*id).width_bits as u16),
            _ => None,
        }
    }
}

/// Pretty type name for diagnostics.
pub struct TyDisplay<'a>(pub Ty, pub &'a TypeTable, pub &'a Symbols);

impl fmt::Display for TyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |s: Sym| self.2.name(s);
        match self.0 {
            Ty::Bit(w) => write!(f, "bit<{w}>"),
            Ty::Bool => write!(f, "bool"),
            Ty::Header(id) => write!(f, "header {}", name(self.1.header(id).name)),
            Ty::Struct(id) => write!(f, "struct {}", name(self.1.struct_(id).name)),
            Ty::Enum(id) => write!(f, "enum {}", name(self.1.enum_(id).name)),
            Ty::Extern(ExternKind::CmptOut) => write!(f, "cmpt_out"),
            Ty::Extern(ExternKind::DescIn) => write!(f, "desc_in"),
            Ty::Extern(ExternKind::PacketIn) => write!(f, "packet_in"),
            Ty::Extern(ExternKind::PacketOut) => write!(f, "packet_out"),
            Ty::Extern(ExternKind::User(i)) => {
                write!(f, "extern {}", name(self.1.externs[i as usize].name))
            }
            Ty::Void => write!(f, "void"),
        }
    }
}

/// A checked header field with its computed layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    pub name: Sym,
    /// Bit offset from the start of the header (network bit order: field 0
    /// occupies the most significant bits of byte 0).
    pub offset_bits: u32,
    pub width_bits: u16,
    /// Value of the `@semantic("...")` annotation, if present.
    pub semantic: Option<Sym>,
    /// Value of the `@cost(N)` annotation, if present (software cost hint).
    pub cost: Option<u64>,
    pub span: Span,
}

/// A checked header with computed total width.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderInfo {
    pub name: Sym,
    pub fields: Vec<FieldInfo>,
    /// Total width in bits (multiple of 8 is enforced by the checker).
    pub width_bits: u32,
    pub span: Span,
}

impl HeaderInfo {
    /// Total width in whole bytes.
    pub fn width_bytes(&self) -> u32 {
        self.width_bits.div_ceil(8)
    }

    /// Look up a field by name.
    pub fn field(&self, name: Sym) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A checked struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct StructFieldInfo {
    pub name: Sym,
    pub ty: Ty,
    pub span: Span,
}

/// A checked struct.
#[derive(Debug, Clone, PartialEq)]
pub struct StructInfo {
    pub name: Sym,
    pub fields: Vec<StructFieldInfo>,
    pub span: Span,
}

impl StructInfo {
    /// Look up a field by name.
    pub fn field(&self, name: Sym) -> Option<&StructFieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A checked enum with explicit representation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumInfo {
    pub name: Sym,
    pub repr_width: u16,
    /// Variant names; variant `i` has value `i`.
    pub variants: Vec<Sym>,
    pub span: Span,
}

impl EnumInfo {
    /// Value of a variant, if it exists.
    pub fn variant_value(&self, name: Sym) -> Option<u128> {
        self.variants
            .iter()
            .position(|v| *v == name)
            .map(|i| i as u128)
    }
}

/// A checked user extern.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternInfo {
    pub name: Sym,
    pub methods: Vec<Sym>,
    pub span: Span,
}

/// A named compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstInfo {
    pub name: Sym,
    pub ty: Ty,
    pub value: u128,
    pub span: Span,
}

/// All resolved nominal types of a checked program.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    pub headers: Vec<HeaderInfo>,
    pub structs: Vec<StructInfo>,
    pub enums: Vec<EnumInfo>,
    pub externs: Vec<ExternInfo>,
    pub consts: Vec<ConstInfo>,
    /// Symbol → the type it names, covering headers, structs, enums,
    /// typedefs and the builtin extern type names; indexed by [`Sym`].
    pub(crate) by_sym: Vec<Option<Ty>>,
}

impl TypeTable {
    pub fn header(&self, id: HeaderId) -> &HeaderInfo {
        &self.headers[id.0 as usize]
    }

    pub fn struct_(&self, id: StructId) -> &StructInfo {
        &self.structs[id.0 as usize]
    }

    pub fn enum_(&self, id: EnumId) -> &EnumInfo {
        &self.enums[id.0 as usize]
    }

    /// Resolve a type name (after typedef expansion).
    pub fn lookup(&self, name: Sym) -> Option<Ty> {
        self.by_sym.get(name.0 as usize).copied().flatten()
    }

    /// Find a header id by name.
    pub fn header_id(&self, name: Sym) -> Option<HeaderId> {
        match self.lookup(name)? {
            Ty::Header(id) => Some(id),
            _ => None,
        }
    }

    /// Find a named constant.
    pub fn const_(&self, name: Sym) -> Option<&ConstInfo> {
        self.consts.iter().find(|c| c.name == name)
    }

    /// Render a type for diagnostics, names resolved through `syms`.
    pub fn display<'a>(&'a self, ty: Ty, syms: &'a Symbols) -> TyDisplay<'a> {
        TyDisplay(ty, self, syms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::parse_and_check;

    #[test]
    fn header_width_bytes_rounds_up() {
        let h = HeaderInfo {
            name: Sym(0),
            fields: vec![],
            width_bits: 9,
            span: Span::default(),
        };
        assert_eq!(h.width_bytes(), 2);
    }

    #[test]
    fn enum_variant_values_are_positional() {
        let (p, d) = parse_and_check("enum bit<2> e_t { A, B, C }");
        assert!(!d.has_errors());
        let e = &p.types.enums[0];
        let v = |n: &str| p.sym(n).and_then(|s| e.variant_value(s));
        assert_eq!(v("A"), Some(0));
        assert_eq!(v("C"), Some(2));
        assert_eq!(e.variant_value(e.name), None);
    }

    #[test]
    fn builtin_extern_types_have_fixed_symbols() {
        assert_eq!(ExternKind::builtin(Sym::DESC_IN), Some(ExternKind::DescIn));
        assert_eq!(ExternKind::builtin(Sym::EMIT), None);
    }
}
