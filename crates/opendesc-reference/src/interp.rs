//! Contract interpreters: execute the `CmptDeparser` and `DescParser`
//! described in a contract, statement by statement.
//!
//! The device executes a contract from the layout table the compiler
//! enumerates; these execute the P4 text itself, so the *same* source
//! defines what the device must write — serialize a completion with the
//! deparser interpreter, compare it with the device's bytes, and the
//! two must match ([`crate::device`]).

use crate::value::Value;
use opendesc_ir::bits::{read_bits, write_bits};
use opendesc_p4::ast::{self, BinOp, ExprId, ExprKind, Stmt, StmtKind, Sym, UnOp};
use opendesc_p4::typecheck::CheckedProgram;
use opendesc_p4::types::{ExternKind, Ty};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Interpretation error.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A required argument value was not supplied.
    MissingArg(String),
    /// A path did not resolve against the supplied values.
    BadPath(String),
    /// Descriptor input exhausted during `extract`.
    OutOfInput { needed_bits: u32, have_bits: u32 },
    /// Transition to a state that does not exist.
    NoState(String),
    /// The parser rejected the input (`transition reject`).
    Rejected,
    /// Too many state transitions (loop guard).
    StepLimit,
    /// A construct the interpreter does not model.
    Unsupported(String),
    /// The named parser/control was not found or is a template.
    NotConcrete(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingArg(a) => write!(f, "missing argument `{a}`"),
            InterpError::BadPath(p) => write!(f, "path `{p}` did not resolve"),
            InterpError::OutOfInput {
                needed_bits,
                have_bits,
            } => {
                write!(
                    f,
                    "descriptor too short: need {needed_bits} bits, have {have_bits}"
                )
            }
            InterpError::NoState(s) => write!(f, "transition to unknown state `{s}`"),
            InterpError::Rejected => write!(f, "parser rejected the descriptor"),
            InterpError::StepLimit => write!(f, "state-transition limit exceeded"),
            InterpError::Unsupported(s) => write!(f, "unsupported construct: {s}"),
            InterpError::NotConcrete(n) => {
                write!(f, "`{n}` is not a concrete parser/control in this contract")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of running a completion deparser.
#[derive(Debug, Clone, PartialEq)]
pub struct DeparserRun {
    /// Serialized completion bytes, exactly as the device would DMA them.
    pub output: Vec<u8>,
    /// Dotted sources of the emits executed, in order.
    pub emitted: Vec<String>,
}

/// Execute control `name`'s `apply` with the given parameter values.
///
/// `args` maps parameter names to values; the `cmpt_out` parameter needs
/// no value (the interpreter owns the output stream).
pub fn run_deparser(
    checked: &CheckedProgram,
    name: &str,
    args: &HashMap<String, Value>,
) -> Result<DeparserRun, InterpError> {
    let control = checked
        .program
        .control(name)
        .filter(|c| c.type_params.is_empty() && c.apply.is_some())
        .ok_or_else(|| InterpError::NotConcrete(name.to_string()))?;

    let mut env: BTreeMap<String, Value> = BTreeMap::new();
    let mut cmpt_param = None;
    for p in &control.params {
        let pname = checked.name(p.name.name);
        match checked.param_ty(p) {
            Some(Ty::Extern(ExternKind::CmptOut)) => cmpt_param = Some(p.name.name),
            Some(Ty::Extern(_)) => {}
            Some(ty) => {
                let v = match args.get(pname) {
                    Some(v) => v.clone(),
                    None => Value::zero_of(ty, checked),
                };
                env.insert(pname.to_string(), v);
            }
            None => {}
        }
    }
    let cmpt_param = cmpt_param
        .ok_or_else(|| InterpError::Unsupported("deparser without cmpt_out param".into()))?;

    // Local declarations before apply.
    let mut interp = Interp {
        checked,
        cmpt: Some(cmpt_param),
        out_bits: Vec::new(),
        bit_len: 0,
        emitted: Vec::new(),
        actions: HashMap::new(),
    };
    for local in &control.locals {
        match local {
            ast::ControlLocal::Var(v) => {
                let val = interp.init_value(v, &env)?;
                env.insert(checked.name(v.name.name).to_string(), val);
            }
            ast::ControlLocal::Action(a) => {
                if a.params.is_empty() {
                    interp.actions.insert(a.name.name, &a.body);
                }
            }
            ast::ControlLocal::Const(_) => {} // in TypeTable already
        }
    }

    let apply = control.apply.as_ref().expect("checked above");
    interp.exec_block(&apply.stmts, &mut env)?;
    Ok(DeparserRun {
        output: interp.out_bits,
        emitted: interp.emitted,
    })
}

/// Result of running a descriptor parser.
#[derive(Debug, Clone, PartialEq)]
pub struct ParserRun {
    /// The filled `out`-direction descriptor value.
    pub descriptor: Value,
    /// Bits consumed from the input.
    pub consumed_bits: u32,
    /// Names of states visited, in order.
    pub trace: Vec<String>,
}

/// Execute parser `name` over `input`, with `args` providing values for
/// the `in`-direction parameters (e.g. the queue context). The single
/// `out`-direction parameter is created zeroed and returned filled.
pub fn run_desc_parser(
    checked: &CheckedProgram,
    name: &str,
    input: &[u8],
    args: &HashMap<String, Value>,
) -> Result<ParserRun, InterpError> {
    let parser = checked
        .program
        .parser(name)
        .filter(|p| p.type_params.is_empty() && p.states.is_some())
        .ok_or_else(|| InterpError::NotConcrete(name.to_string()))?;

    let mut env: BTreeMap<String, Value> = BTreeMap::new();
    let mut desc_param = None;
    let mut out_param = None;
    for p in &parser.params {
        let pname = checked.name(p.name.name);
        match checked.param_ty(p) {
            Some(Ty::Extern(ExternKind::DescIn | ExternKind::PacketIn)) => {
                desc_param = Some(p.name.name);
            }
            Some(Ty::Extern(_)) => {}
            Some(ty) => {
                if p.dir == Some(ast::Direction::Out) {
                    out_param = Some(pname);
                    env.insert(pname.to_string(), Value::zero_of(ty, checked));
                } else {
                    let v = match args.get(pname) {
                        Some(v) => v.clone(),
                        None => Value::zero_of(ty, checked),
                    };
                    env.insert(pname.to_string(), v);
                }
            }
            None => {}
        }
    }
    let desc_param = desc_param
        .ok_or_else(|| InterpError::Unsupported("parser without desc_in param".into()))?;
    let out_param = out_param.ok_or_else(|| {
        InterpError::Unsupported("parser without out-direction descriptor".into())
    })?;

    let states = parser.states.as_ref().expect("checked above");
    let by_name: HashMap<Sym, &ast::StateDecl> = states.iter().map(|s| (s.name.name, s)).collect();

    let mut interp = Interp {
        checked,
        cmpt: None,
        out_bits: Vec::new(),
        bit_len: 0,
        emitted: Vec::new(),
        actions: HashMap::new(),
    };
    let mut cursor: u32 = 0;
    let mut trace = Vec::new();
    let mut state_name = Sym::START;
    for _step in 0..1024 {
        let st = by_name
            .get(&state_name)
            .ok_or_else(|| InterpError::NoState(checked.name(state_name).to_string()))?;
        trace.push(checked.name(state_name).to_string());
        for stmt in &st.stmts {
            interp.exec_parser_stmt(stmt, &mut env, desc_param, input, &mut cursor)?;
        }
        let next = match &st.transition {
            None => Sym::ACCEPT,
            Some(ast::Transition::Direct(t)) => t.name,
            Some(ast::Transition::Select { exprs, cases, .. }) => {
                let mut scrutinees = Vec::new();
                for e in exprs {
                    let v = interp.eval(*e, &env)?;
                    scrutinees.push(scalar_of(&v)?);
                }
                let mut target = None;
                'cases: for case in cases {
                    // P4 select cases with N scrutinees and fewer patterns
                    // are malformed; our subset uses 1:1 or default.
                    for (i, m) in case.matches.iter().enumerate() {
                        if let ast::SelectMatch::Expr(e) = m {
                            let want = checked.const_eval(*e).ok_or_else(|| {
                                InterpError::Unsupported("non-constant select match".into())
                            })?;
                            if scrutinees.get(i.min(scrutinees.len() - 1)) != Some(&want) {
                                continue 'cases;
                            }
                        }
                    }
                    target = Some(case.target.name);
                    break;
                }
                target.ok_or(InterpError::Rejected)?
            }
        };
        match next {
            Sym::ACCEPT => {
                let descriptor = env
                    .remove(out_param)
                    .ok_or_else(|| InterpError::BadPath(out_param.to_string()))?;
                return Ok(ParserRun {
                    descriptor,
                    consumed_bits: cursor,
                    trace,
                });
            }
            Sym::REJECT => return Err(InterpError::Rejected),
            other => state_name = other,
        }
    }
    Err(InterpError::StepLimit)
}

fn scalar_of(v: &Value) -> Result<u128, InterpError> {
    match v {
        Value::Bits { value, .. } => Ok(*value),
        _ => Err(InterpError::Unsupported("aggregate used as scalar".into())),
    }
}

struct Interp<'a> {
    checked: &'a CheckedProgram,
    /// A deparser's `cmpt_out` parameter (a parser has none).
    cmpt: Option<Sym>,
    out_bits: Vec<u8>,
    bit_len: u32,
    emitted: Vec<String>,
    actions: HashMap<Sym, &'a ast::Block>,
}

impl<'a> Interp<'a> {
    fn name(&self, sym: Sym) -> &'a str {
        self.checked.name(sym)
    }

    /// `segs` spelled out.
    fn names(&self, segs: &[Sym]) -> Vec<&'a str> {
        segs.iter().map(|s| self.name(*s)).collect()
    }

    fn dotted(&self, segs: &[Sym]) -> String {
        self.names(segs).join(".")
    }

    /// A declared local's initial value: its initializer, else zero.
    fn init_value(
        &self,
        v: &ast::VarDecl,
        env: &BTreeMap<String, Value>,
    ) -> Result<Value, InterpError> {
        Ok(match (v.init, self.checked.ty_of(&v.ty)) {
            (Some(init), _) => self.eval(init, env)?,
            (None, Some(ty)) => Value::zero_of(ty, self.checked),
            (None, None) => Value::bits(0, 0),
        })
    }

    // ------------------------------------------------------------ deparser

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        env: &mut BTreeMap<String, Value>,
    ) -> Result<bool, InterpError> {
        for stmt in stmts {
            if !self.exec_stmt(stmt, env)? {
                return Ok(false); // return encountered
            }
        }
        Ok(true)
    }

    /// Returns `false` if a `return` terminated execution.
    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut BTreeMap<String, Value>,
    ) -> Result<bool, InterpError> {
        match &stmt.kind {
            StmtKind::Return => Ok(false),
            StmtKind::Block(b) => self.exec_block(&b.stmts, env),
            StmtKind::Var(v) => {
                let val = self.init_value(v, env)?;
                env.insert(self.name(v.name.name).to_string(), val);
                Ok(true)
            }
            StmtKind::Assign { lhs, rhs } => {
                let val = self.eval(*rhs, env)?;
                self.assign(*lhs, val, env)?;
                Ok(true)
            }
            StmtKind::If { arms, else_blk } => {
                for arm in arms {
                    if scalar_of(&self.eval(arm.cond, env)?)? != 0 {
                        return self.exec_block(&arm.then_blk.stmts, env);
                    }
                }
                match else_blk {
                    Some(eb) => self.exec_block(&eb.stmts, env),
                    None => Ok(true),
                }
            }
            StmtKind::Switch { scrutinee, cases } => {
                let v = scalar_of(&self.eval(*scrutinee, env)?)?;
                let mut default_block = None;
                for case in cases {
                    for label in &case.labels {
                        match label {
                            ast::SwitchLabel::Default => default_block = Some(&case.block),
                            ast::SwitchLabel::Expr(e) => {
                                if self.checked.const_eval(*e) == Some(v) {
                                    return self.exec_block(&case.block.stmts, env);
                                }
                            }
                        }
                    }
                }
                if let Some(b) = default_block {
                    self.exec_block(&b.stmts, env)
                } else {
                    Ok(true)
                }
            }
            StmtKind::Expr(e) => {
                self.exec_call(*e, env)?;
                Ok(true)
            }
        }
    }

    fn exec_call(
        &mut self,
        e: ExprId,
        env: &mut BTreeMap<String, Value>,
    ) -> Result<(), InterpError> {
        let ExprKind::Call { callee, args } = &self.checked.expr(e).kind else {
            return Ok(());
        };
        let Some(path) = self.checked.program.path(*callee) else {
            return Err(InterpError::Unsupported("computed call target".into()));
        };
        if path.len() == 2 && Some(path[0]) == self.cmpt && path[1] == Sym::EMIT {
            let arg_path = (self.checked.program.path(args[0]))
                .ok_or_else(|| InterpError::Unsupported("computed emit argument".into()))?;
            self.emit_path(&arg_path, env)?;
            return Ok(());
        }
        if let [action] = path[..] {
            if let Some(body) = self.actions.get(&action).copied() {
                self.exec_block(&body.stmts, env)?;
                return Ok(());
            }
        }
        if path.len() == 2 && matches!(path[1], Sym::SET_VALID | Sym::SET_INVALID) {
            let valid = path[1] == Sym::SET_VALID;
            let root = env
                .get_mut(self.name(path[0]))
                .ok_or_else(|| InterpError::BadPath(self.dotted(&path)))?;
            if let Value::Header { valid: v, .. } = root {
                *v = valid;
            }
            return Ok(());
        }
        // Extern calls are no-ops for serialization purposes.
        Ok(())
    }

    fn emit_path(
        &mut self,
        path: &[Sym],
        env: &BTreeMap<String, Value>,
    ) -> Result<(), InterpError> {
        let root = env
            .get(self.name(path[0]))
            .ok_or_else(|| InterpError::MissingArg(self.name(path[0]).to_string()))?;
        // The path may end at a header (emit whole header) or at a header
        // field (emit single scalar).
        if let Some(v) = root.get_path(&self.names(&path[1..])) {
            match v {
                Value::Header { header, fields, .. } => {
                    let info = self.checked.types.header(*header);
                    self.reserve(info.width_bits);
                    for f in &info.fields {
                        let val = fields.get(self.name(f.name)).copied().unwrap_or(0);
                        write_bits(
                            &mut self.out_bits,
                            self.bit_len + f.offset_bits,
                            f.width_bits,
                            val,
                        );
                    }
                    self.bit_len += info.width_bits;
                    self.emitted.push(self.dotted(path));
                    return Ok(());
                }
                Value::Bits { width, value } => {
                    self.reserve(*width as u32);
                    write_bits(&mut self.out_bits, self.bit_len, *width, *value);
                    self.bit_len += *width as u32;
                    self.emitted.push(self.dotted(path));
                    return Ok(());
                }
                Value::Struct(_) => {
                    return Err(InterpError::Unsupported("emit of a struct".into()));
                }
            }
        }
        // Maybe the last segment is a header field.
        if let [_, parent @ .., last] = path {
            if let Some(Value::Header { header, fields, .. }) = root.get_path(&self.names(parent)) {
                let info = self.checked.types.header(*header);
                if let Some(f) = info.field(*last) {
                    let val = fields.get(self.name(f.name)).copied().unwrap_or(0);
                    self.reserve(f.width_bits as u32);
                    write_bits(&mut self.out_bits, self.bit_len, f.width_bits, val);
                    self.bit_len += f.width_bits as u32;
                    self.emitted.push(self.dotted(path));
                    return Ok(());
                }
            }
        }
        Err(InterpError::BadPath(self.dotted(path)))
    }

    fn reserve(&mut self, extra_bits: u32) {
        let need = (self.bit_len + extra_bits).div_ceil(8) as usize;
        if self.out_bits.len() < need {
            self.out_bits.resize(need, 0);
        }
    }

    // -------------------------------------------------------------- parser

    fn exec_parser_stmt(
        &mut self,
        stmt: &Stmt,
        env: &mut BTreeMap<String, Value>,
        desc_param: Sym,
        input: &[u8],
        cursor: &mut u32,
    ) -> Result<(), InterpError> {
        if let StmtKind::Expr(e) = &stmt.kind {
            if let ExprKind::Call { callee, args } = &self.checked.expr(*e).kind {
                if let Some(path) = self.checked.program.path(*callee) {
                    if path[..] == [desc_param, Sym::EXTRACT] {
                        let arg_path = self.checked.program.path(args[0]).ok_or_else(|| {
                            InterpError::Unsupported("computed extract argument".into())
                        })?;
                        return self.extract_into(&arg_path, env, input, cursor);
                    }
                }
            }
        }
        // Everything else behaves as in the deparser (minus emits).
        self.exec_stmt(stmt, env).map(|_| ())
    }

    fn extract_into(
        &mut self,
        path: &[Sym],
        env: &mut BTreeMap<String, Value>,
        input: &[u8],
        cursor: &mut u32,
    ) -> Result<(), InterpError> {
        let bad = || InterpError::BadPath(self.dotted(path));
        let root = env.get_mut(self.name(path[0])).ok_or_else(bad)?;
        let target = root.get_path_mut(&self.names(&path[1..])).ok_or_else(bad)?;
        let Value::Header {
            header,
            valid,
            fields,
        } = target
        else {
            return Err(InterpError::Unsupported("extract into non-header".into()));
        };
        let info = self.checked.types.header(*header);
        let have = (input.len() as u32) * 8;
        if *cursor + info.width_bits > have {
            return Err(InterpError::OutOfInput {
                needed_bits: info.width_bits,
                have_bits: have.saturating_sub(*cursor),
            });
        }
        for f in &info.fields {
            let v = read_bits(input, *cursor + f.offset_bits, f.width_bits);
            fields.insert(self.name(f.name).to_string(), v);
        }
        *valid = true;
        *cursor += info.width_bits;
        Ok(())
    }

    // ---------------------------------------------------------- expressions

    fn eval(&self, id: ExprId, env: &BTreeMap<String, Value>) -> Result<Value, InterpError> {
        let types = &self.checked.types;
        match &self.checked.expr(id).kind {
            ExprKind::Int { value, width } => Ok(Value::Bits {
                width: width.unwrap_or(64),
                value: *value,
            }),
            ExprKind::Bool(b) => Ok(Value::bits(1, *b as u128)),
            ExprKind::Ident(n) => {
                if let Some(v) = env.get(self.name(*n)) {
                    return Ok(v.clone());
                }
                if let Some(c) = types.const_(*n) {
                    let w = c.ty.bit_width(types).unwrap_or(64);
                    return Ok(Value::Bits {
                        width: w,
                        value: c.value,
                    });
                }
                Err(InterpError::BadPath(self.name(*n).to_string()))
            }
            ExprKind::Member { base, member } => {
                let member_name = self.name(member.name);
                // Enum variant constant.
                if let ExprKind::Ident(n) = &self.checked.expr(*base).kind {
                    if let Some(Ty::Enum(id)) = types.lookup(*n) {
                        let info = types.enum_(id);
                        if let Some(v) = info.variant_value(member.name) {
                            return Ok(Value::bits(info.repr_width, v));
                        }
                    }
                }
                let b = self.eval(*base, env)?;
                let bad = || InterpError::BadPath(member_name.to_string());
                match &b {
                    Value::Struct(fields) => fields.get(member_name).cloned().ok_or_else(bad),
                    Value::Header { header, fields, .. } => {
                        let f = types.header(*header).field(member.name).ok_or_else(bad)?;
                        Ok(Value::Bits {
                            width: f.width_bits,
                            value: fields.get(member_name).copied().unwrap_or(0),
                        })
                    }
                    _ => Err(bad()),
                }
            }
            ExprKind::Slice { base, hi, lo } => {
                let b = scalar_of(&self.eval(*base, env)?)?;
                let bound = |e: ExprId| {
                    (self.checked.const_eval(e))
                        .ok_or_else(|| InterpError::Unsupported("dynamic slice bound".into()))
                };
                let (h, l) = (bound(*hi)?, bound(*lo)?);
                let width = (h - l + 1) as u16;
                Ok(Value::bits(width, b >> l))
            }
            ExprKind::Call { callee, args } => {
                // isValid() is the only value-returning method.
                if let ExprKind::Member { base, member } = &self.checked.expr(*callee).kind {
                    if member.name == Sym::IS_VALID && args.is_empty() {
                        let b = self.eval(*base, env)?;
                        if let Value::Header { valid, .. } = b {
                            return Ok(Value::bits(1, valid as u128));
                        }
                    }
                }
                Err(InterpError::Unsupported("value-returning call".into()))
            }
            ExprKind::Unary { op, expr } => {
                let v = self.eval(*expr, env)?;
                let Value::Bits { width, value } = v else {
                    return Err(InterpError::Unsupported("unary on aggregate".into()));
                };
                let out = match op {
                    UnOp::Not => (value == 0) as u128,
                    UnOp::BitNot => !value,
                    UnOp::Neg => value.wrapping_neg(),
                };
                Ok(Value::bits(width, out))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(*lhs, env)?;
                let r = self.eval(*rhs, env)?;
                let (
                    Value::Bits {
                        width: wl,
                        value: a,
                    },
                    Value::Bits {
                        width: wr,
                        value: b,
                    },
                ) = (&l, &r)
                else {
                    return Err(InterpError::Unsupported("binary on aggregate".into()));
                };
                let (a, b) = (*a, *b);
                let w = (*wl).max(*wr);
                use BinOp::*;
                let out = match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => a.checked_div(b).unwrap_or(0),
                    Mod => a.checked_rem(b).unwrap_or(0),
                    BitAnd => a & b,
                    BitOr => a | b,
                    BitXor => a ^ b,
                    Shl => a.checked_shl(b as u32).unwrap_or(0),
                    Shr => a.checked_shr(b as u32).unwrap_or(0),
                    Eq => return Ok(Value::bits(1, (a == b) as u128)),
                    Ne => return Ok(Value::bits(1, (a != b) as u128)),
                    Lt => return Ok(Value::bits(1, (a < b) as u128)),
                    Le => return Ok(Value::bits(1, (a <= b) as u128)),
                    Gt => return Ok(Value::bits(1, (a > b) as u128)),
                    Ge => return Ok(Value::bits(1, (a >= b) as u128)),
                    And => return Ok(Value::bits(1, ((a != 0) && (b != 0)) as u128)),
                    Or => return Ok(Value::bits(1, ((a != 0) || (b != 0)) as u128)),
                    Concat => {
                        return Ok(Value::bits(wl + wr, (a << wr) | b));
                    }
                };
                Ok(Value::bits(w, out))
            }
            ExprKind::Cast { ty, expr } => {
                let v = scalar_of(&self.eval(*expr, env)?)?;
                match &ty.kind {
                    ast::TypeKind::Bit(w) => Ok(Value::bits(*w, v)),
                    ast::TypeKind::Bool => Ok(Value::bits(1, (v != 0) as u128)),
                    _ => Err(InterpError::Unsupported("cast to aggregate".into())),
                }
            }
        }
    }

    fn assign(
        &mut self,
        lhs: ExprId,
        val: Value,
        env: &mut BTreeMap<String, Value>,
    ) -> Result<(), InterpError> {
        let Some(path) = self.checked.program.path(lhs) else {
            return Err(InterpError::Unsupported("assignment to non-path".into()));
        };
        let bad = || InterpError::BadPath(self.dotted(&path));
        if let [var] = path[..] {
            env.insert(self.name(var).to_string(), val);
            return Ok(());
        }
        let root = env.get_mut(self.name(path[0])).ok_or_else(bad)?;
        // Try assigning into a struct member.
        if let Some(slot) = root.get_path_mut(&self.names(&path[1..])) {
            *slot = val;
            return Ok(());
        }
        // Assigning to a header field.
        if let [_, parent @ .., last] = &path[..] {
            if let Some(Value::Header { fields, .. }) = root.get_path_mut(&self.names(parent)) {
                let v = scalar_of(&val)?;
                fields.insert(self.name(*last).to_string(), v);
                return Ok(());
            }
        }
        Err(bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use opendesc_p4::typecheck::parse_and_check;

    const E1000: &str = r#"
        header rss_cmpt_t { @semantic("rss_hash") bit<32> rss; }
        header ip_cmpt_t {
            @semantic("ip_id") bit<16> ip_id;
            @semantic("ip_checksum") bit<16> csum;
        }
        header base_cmpt_t {
            @semantic("pkt_len") bit<16> length;
            @semantic("rx_status") bit<8> status;
            bit<8> errors;
        }
        struct e1000_ctx_t { bit<1> use_rss; }
        struct e1000_meta_t {
            rss_cmpt_t rss;
            ip_cmpt_t ip_fields;
            base_cmpt_t base;
        }
        control CmptDeparser(cmpt_out cmpt, in e1000_ctx_t ctx, in e1000_meta_t pipe_meta) {
            apply {
                if (ctx.use_rss == 1) {
                    cmpt.emit(pipe_meta.rss);
                } else {
                    cmpt.emit(pipe_meta.ip_fields);
                }
                cmpt.emit(pipe_meta.base);
            }
        }
    "#;

    fn e1000_args(checked: &CheckedProgram, use_rss: bool) -> HashMap<String, Value> {
        let t = &checked;
        let mut ctx = Value::struct_of(
            match t.lookup("e1000_ctx_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        *ctx.get_path_mut(&["use_rss"]).unwrap() = Value::bits(1, use_rss as u128);

        let mut meta = Value::struct_of(
            match t.lookup("e1000_meta_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        meta.get_path_mut(&["rss"])
            .unwrap()
            .set_header_field("rss", 0xAABBCCDD);
        let ipf = meta.get_path_mut(&["ip_fields"]).unwrap();
        ipf.set_header_field("ip_id", 0x1234);
        ipf.set_header_field("csum", 0xBEEF);
        let base = meta.get_path_mut(&["base"]).unwrap();
        base.set_header_field("length", 1500);
        base.set_header_field("status", 0x3);

        HashMap::from([("ctx".to_string(), ctx), ("pipe_meta".to_string(), meta)])
    }

    #[test]
    fn deparser_emits_rss_branch() {
        let (checked, d) = parse_and_check(E1000);
        assert!(!d.has_errors());
        let run = run_deparser(&checked, "CmptDeparser", &e1000_args(&checked, true)).unwrap();
        assert_eq!(run.output.len(), 8);
        assert_eq!(&run.output[..4], &[0xAA, 0xBB, 0xCC, 0xDD]);
        // base: length=1500 (0x05DC), status=3, errors=0
        assert_eq!(&run.output[4..], &[0x05, 0xDC, 0x03, 0x00]);
        assert_eq!(run.emitted, vec!["pipe_meta.rss", "pipe_meta.base"]);
    }

    #[test]
    fn deparser_emits_csum_branch() {
        let (checked, _) = parse_and_check(E1000);
        let run = run_deparser(&checked, "CmptDeparser", &e1000_args(&checked, false)).unwrap();
        assert_eq!(run.output.len(), 8);
        assert_eq!(&run.output[..4], &[0x12, 0x34, 0xBE, 0xEF]);
        assert_eq!(run.emitted[0], "pipe_meta.ip_fields");
    }

    #[test]
    fn deparser_missing_args_default_to_zero() {
        let (checked, _) = parse_and_check(E1000);
        let run = run_deparser(&checked, "CmptDeparser", &HashMap::new()).unwrap();
        // use_rss defaults 0 → csum branch, all zeroes.
        assert_eq!(run.output, vec![0u8; 8]);
    }

    #[test]
    fn deparser_switch_selects_case() {
        let src = r#"
            header a_t { bit<8> x; }
            header b_t { bit<16> y; }
            struct ctx_t { bit<2> fmt; }
            struct m_t { a_t a; b_t b; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    switch (ctx.fmt) {
                        0: { o.emit(m.a); }
                        1: { o.emit(m.b); }
                        default: { }
                    }
                }
            }
        "#;
        let (checked, d) = parse_and_check(src);
        assert!(!d.has_errors());
        let t = &checked;
        let mk = |fmt: u128| {
            let mut ctx = Value::struct_of(
                match t.lookup("ctx_t").unwrap() {
                    Ty::Struct(id) => id,
                    _ => panic!(),
                },
                t,
            );
            *ctx.get_path_mut(&["fmt"]).unwrap() = Value::bits(2, fmt);
            let mut m = Value::struct_of(
                match t.lookup("m_t").unwrap() {
                    Ty::Struct(id) => id,
                    _ => panic!(),
                },
                t,
            );
            m.get_path_mut(&["a"]).unwrap().set_header_field("x", 0x7F);
            m.get_path_mut(&["b"])
                .unwrap()
                .set_header_field("y", 0x0102);
            HashMap::from([("ctx".to_string(), ctx), ("m".to_string(), m)])
        };
        assert_eq!(
            run_deparser(&checked, "C", &mk(0)).unwrap().output,
            vec![0x7F]
        );
        assert_eq!(
            run_deparser(&checked, "C", &mk(1)).unwrap().output,
            vec![0x01, 0x02]
        );
        assert!(run_deparser(&checked, "C", &mk(2))
            .unwrap()
            .output
            .is_empty());
    }

    #[test]
    fn deparser_field_emit_and_locals() {
        let src = r#"
            header h_t { bit<8> a; bit<8> b; }
            struct m_t { h_t h; }
            control C(cmpt_out o, in m_t m) {
                apply {
                    bit<8> tmp = 5;
                    tmp = tmp + 1;
                    o.emit(m.h.b);
                    if (tmp == 6) { o.emit(m.h.a); }
                }
            }
        "#;
        let (checked, d) = parse_and_check(src);
        assert!(
            !d.has_errors(),
            "{:?}",
            d.iter().map(|x| x.message.clone()).collect::<Vec<_>>()
        );
        let t = &checked;
        let mut m = Value::struct_of(
            match t.lookup("m_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        m.get_path_mut(&["h"]).unwrap().set_header_field("a", 0xAA);
        m.get_path_mut(&["h"]).unwrap().set_header_field("b", 0xBB);
        let run = run_deparser(&checked, "C", &HashMap::from([("m".to_string(), m)])).unwrap();
        assert_eq!(run.output, vec![0xBB, 0xAA]);
    }

    #[test]
    fn deparser_return_stops_emission() {
        let src = r#"
            header a_t { bit<8> x; }
            struct ctx_t { bit<1> stop; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    if (ctx.stop == 1) { return; }
                    o.emit(m.a);
                }
            }
        "#;
        let (checked, _) = parse_and_check(src);
        let t = &checked;
        let mut ctx = Value::struct_of(
            match t.lookup("ctx_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        *ctx.get_path_mut(&["stop"]).unwrap() = Value::bits(1, 1);
        let run = run_deparser(&checked, "C", &HashMap::from([("ctx".to_string(), ctx)])).unwrap();
        assert!(run.output.is_empty());
    }

    const QDMA_PARSER: &str = r#"
        header base_desc_t { bit<64> addr; bit<16> len; bit<8> flags; bit<8> qid; }
        header ext_desc_t { bit<32> offload_args; }
        struct desc_t { base_desc_t base; ext_desc_t ext; }
        struct h2c_ctx_t { bit<8> desc_size; }
        parser DescParser(desc_in d, in h2c_ctx_t ctx, out desc_t hdr) {
            state start {
                d.extract(hdr.base);
                transition select(ctx.desc_size) {
                    12: accept;
                    16: parse_ext;
                    default: reject;
                }
            }
            state parse_ext {
                d.extract(hdr.ext);
                transition accept;
            }
        }
    "#;

    fn ctx_with_size(checked: &CheckedProgram, size: u128) -> HashMap<String, Value> {
        let t = &checked;
        let mut ctx = Value::struct_of(
            match t.lookup("h2c_ctx_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        *ctx.get_path_mut(&["desc_size"]).unwrap() = Value::bits(8, size);
        HashMap::from([("ctx".to_string(), ctx)])
    }

    #[test]
    fn parser_extracts_base_descriptor() {
        let (checked, d) = parse_and_check(QDMA_PARSER);
        assert!(!d.has_errors());
        let mut input = vec![0u8; 12];
        input[..8].copy_from_slice(&0x1122334455667788u64.to_be_bytes());
        input[8..10].copy_from_slice(&1500u16.to_be_bytes());
        input[10] = 0x5;
        input[11] = 7;
        let run =
            run_desc_parser(&checked, "DescParser", &input, &ctx_with_size(&checked, 12)).unwrap();
        assert_eq!(run.consumed_bits, 96);
        let base = run.descriptor.get_path(&["base"]).unwrap();
        assert_eq!(base.header_field("addr"), Some(0x1122334455667788));
        assert_eq!(base.header_field("len"), Some(1500));
        assert_eq!(base.header_field("qid"), Some(7));
        let ext = run.descriptor.get_path(&["ext"]).unwrap();
        assert!(matches!(ext, Value::Header { valid: false, .. }));
        assert_eq!(run.trace, vec!["start"]);
    }

    #[test]
    fn parser_takes_select_branch_on_context() {
        let (checked, _) = parse_and_check(QDMA_PARSER);
        let mut input = vec![0u8; 16];
        input[12..16].copy_from_slice(&0xCAFEBABEu32.to_be_bytes());
        let run =
            run_desc_parser(&checked, "DescParser", &input, &ctx_with_size(&checked, 16)).unwrap();
        assert_eq!(run.consumed_bits, 128);
        let ext = run.descriptor.get_path(&["ext"]).unwrap();
        assert_eq!(ext.header_field("offload_args"), Some(0xCAFEBABE));
        assert_eq!(run.trace, vec!["start", "parse_ext"]);
    }

    #[test]
    fn parser_rejects_unknown_context() {
        let (checked, _) = parse_and_check(QDMA_PARSER);
        let input = vec![0u8; 16];
        let err = run_desc_parser(&checked, "DescParser", &input, &ctx_with_size(&checked, 99))
            .unwrap_err();
        assert_eq!(err, InterpError::Rejected);
    }

    #[test]
    fn parser_out_of_input_errors() {
        let (checked, _) = parse_and_check(QDMA_PARSER);
        let input = vec![0u8; 4];
        let err = run_desc_parser(&checked, "DescParser", &input, &ctx_with_size(&checked, 12))
            .unwrap_err();
        assert!(matches!(err, InterpError::OutOfInput { .. }), "{err:?}");
    }

    #[test]
    fn parser_loop_hits_step_limit() {
        let src = r#"
            header h_t { bit<8> x; }
            struct d_t { h_t h; }
            parser P(desc_in d, out d_t hdr) {
                state start { transition spin; }
                state spin { transition start; }
            }
        "#;
        let (checked, diags) = parse_and_check(src);
        assert!(!diags.has_errors());
        let err = run_desc_parser(&checked, "P", &[0u8; 4], &HashMap::new()).unwrap_err();
        assert_eq!(err, InterpError::StepLimit);
    }

    #[test]
    fn concat_and_slice_in_deparser() {
        let src = r#"
            header h_t { bit<16> v; }
            struct ctx_t { bit<8> a; bit<8> b; }
            struct m_t { h_t h; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                apply {
                    bit<16> both = ctx.a ++ ctx.b;
                    if (both[15:8] == 0xAB) { o.emit(m.h); }
                }
            }
        "#;
        let (checked, d) = parse_and_check(src);
        assert!(!d.has_errors());
        let t = &checked;
        let mut ctx = Value::struct_of(
            match t.lookup("ctx_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        *ctx.get_path_mut(&["a"]).unwrap() = Value::bits(8, 0xAB);
        *ctx.get_path_mut(&["b"]).unwrap() = Value::bits(8, 0xCD);
        let mut m = Value::struct_of(
            match t.lookup("m_t").unwrap() {
                Ty::Struct(id) => id,
                _ => panic!(),
            },
            t,
        );
        m.get_path_mut(&["h"])
            .unwrap()
            .set_header_field("v", 0xF00D);
        let run = run_deparser(
            &checked,
            "C",
            &HashMap::from([("ctx".to_string(), ctx), ("m".to_string(), m)]),
        )
        .unwrap();
        assert_eq!(run.output, vec![0xF0, 0x0D]);
    }
}
