//! Pretty-printer: AST → canonical P4 source.
//!
//! Round-tripping (`parse ∘ print ∘ parse` = `parse`) is property-tested
//! against every shipped contract; the printer also backs contract
//! normalization (e.g. `opendesc`'s generated QDMA contracts are stored
//! in printed form for diffing).

use crate::ast::*;
use std::fmt::Write;

/// Print a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for d in &p.decls {
        print_decl(p, &mut out, d);
        out.push('\n');
    }
    out
}

fn anns(p: &Program, out: &mut String, annotations: Run, indent: &str) {
    for a in p.annotations(annotations) {
        out.push_str(indent);
        out.push('@');
        out.push_str(p.name(a.name.name));
        if !a.args.is_empty() {
            out.push('(');
            let parts: Vec<String> = p
                .args(a)
                .iter()
                .map(|arg| match arg {
                    AnnArg::Str(s) => format!("{:?}", p.name(*s)),
                    AnnArg::Int(v) => format!("{v}"),
                    AnnArg::Ident(i) => p.name(*i).to_string(),
                })
                .collect();
            out.push_str(&parts.join(", "));
            out.push(')');
        }
        out.push('\n');
    }
}

fn print_decl(p: &Program, out: &mut String, d: &Decl) {
    let n = |s: Sym| p.name(s);
    let ty = |t: &Type| t.kind.display(&p.syms);
    match d {
        Decl::Header(h) => {
            anns(p, out, h.annotations, "");
            let _ = writeln!(out, "header {} {{", n(h.name.name));
            fields(p, out, &h.fields);
            out.push_str("}\n");
        }
        Decl::Struct(s) => {
            anns(p, out, s.annotations, "");
            let _ = writeln!(out, "struct {} {{", n(s.name.name));
            fields(p, out, &s.fields);
            out.push_str("}\n");
        }
        Decl::Typedef(t) => {
            let _ = writeln!(out, "typedef {} {};", ty(&t.ty), n(t.name.name));
        }
        Decl::Const(c) => {
            let _ = writeln!(
                out,
                "const {} {} = {};",
                ty(&c.ty),
                n(c.name.name),
                expr(p, c.value)
            );
        }
        Decl::Enum(e) => {
            anns(p, out, e.annotations, "");
            let repr = e
                .repr
                .as_ref()
                .map(|t| format!("{} ", ty(t)))
                .unwrap_or_default();
            let vars: Vec<&str> = e.variants.iter().map(|v| n(v.name)).collect();
            let _ = writeln!(
                out,
                "enum {repr}{} {{ {} }}",
                n(e.name.name),
                vars.join(", ")
            );
        }
        Decl::Parser(pd) => {
            anns(p, out, pd.annotations, "");
            let _ = write!(
                out,
                "parser {}{}({})",
                n(pd.name.name),
                tparams(p, &pd.type_params),
                params(p, &pd.params)
            );
            match &pd.states {
                None => out.push_str(";\n"),
                Some(states) => {
                    out.push_str(" {\n");
                    for st in states {
                        let _ = writeln!(out, "    state {} {{", n(st.name.name));
                        for s in &st.stmts {
                            stmt(p, out, s, 2);
                        }
                        if let Some(t) = &st.transition {
                            transition(p, out, t);
                        }
                        out.push_str("    }\n");
                    }
                    out.push_str("}\n");
                }
            }
        }
        Decl::Control(c) => {
            anns(p, out, c.annotations, "");
            let _ = write!(
                out,
                "control {}{}({})",
                n(c.name.name),
                tparams(p, &c.type_params),
                params(p, &c.params)
            );
            if c.apply.is_none() && c.locals.is_empty() {
                out.push_str(";\n");
                return;
            }
            out.push_str(" {\n");
            for local in &c.locals {
                match local {
                    ControlLocal::Var(v) => {
                        let _ = writeln!(out, "    {};", var(p, v));
                    }
                    ControlLocal::Const(k) => {
                        let _ = writeln!(
                            out,
                            "    const {} {} = {};",
                            ty(&k.ty),
                            n(k.name.name),
                            expr(p, k.value)
                        );
                    }
                    ControlLocal::Action(a) => {
                        let _ = writeln!(
                            out,
                            "    action {}({}) {{",
                            n(a.name.name),
                            params(p, &a.params)
                        );
                        for s in &a.body.stmts {
                            stmt(p, out, s, 2);
                        }
                        out.push_str("    }\n");
                    }
                }
            }
            if let Some(apply) = &c.apply {
                out.push_str("    apply {\n");
                for s in &apply.stmts {
                    stmt(p, out, s, 2);
                }
                out.push_str("    }\n");
            }
            out.push_str("}\n");
        }
        Decl::Extern(x) => {
            anns(p, out, x.annotations, "");
            if x.methods.is_empty() {
                let _ = writeln!(out, "extern {};", n(x.name.name));
            } else {
                let _ = writeln!(out, "extern {} {{", n(x.name.name));
                for m in &x.methods {
                    let _ = writeln!(
                        out,
                        "    {} {}({});",
                        ty(&m.ret),
                        n(m.name.name),
                        params(p, &m.params)
                    );
                }
                out.push_str("}\n");
            }
        }
    }
}

fn fields(p: &Program, out: &mut String, fs: &[FieldDecl]) {
    for f in fs {
        anns(p, out, f.annotations, "    ");
        let _ = writeln!(
            out,
            "    {} {};",
            f.ty.kind.display(&p.syms),
            p.name(f.name.name)
        );
    }
}

fn tparams(p: &Program, tp: &[Ident]) -> String {
    if tp.is_empty() {
        String::new()
    } else {
        let names: Vec<&str> = tp.iter().map(|t| p.name(t.name)).collect();
        format!("<{}>", names.join(", "))
    }
}

fn params(p: &Program, ps: &[Param]) -> String {
    ps.iter()
        .map(|pa| {
            let dir = pa.dir.map(|d| format!("{d} ")).unwrap_or_default();
            let ty = pa.ty.kind.display(&p.syms);
            format!("{dir}{ty} {}", p.name(pa.name.name))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// `ty name` or `ty name = init`, without the `;`.
fn var(p: &Program, v: &VarDecl) -> String {
    let init = v
        .init
        .map(|e| format!(" = {}", expr(p, e)))
        .unwrap_or_default();
    let ty = v.ty.kind.display(&p.syms);
    format!("{ty} {}{init}", p.name(v.name.name))
}

fn transition(p: &Program, out: &mut String, t: &Transition) {
    match t {
        Transition::Direct(target) => {
            let _ = writeln!(out, "        transition {};", p.name(target.name));
        }
        Transition::Select { exprs, cases, .. } => {
            let es: Vec<String> = exprs.iter().map(|e| expr(p, *e)).collect();
            let _ = writeln!(out, "        transition select({}) {{", es.join(", "));
            for c in cases {
                let ms: Vec<String> = c
                    .matches
                    .iter()
                    .map(|m| match m {
                        SelectMatch::Default => "default".to_string(),
                        SelectMatch::Expr(e) => expr(p, *e),
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "            {}: {};",
                    ms.join(", "),
                    p.name(c.target.name)
                );
            }
            out.push_str("        }\n");
        }
    }
}

fn stmt(p: &Program, out: &mut String, s: &Stmt, depth: usize) {
    let ind = "    ".repeat(depth);
    match &s.kind {
        StmtKind::Expr(e) => {
            let _ = writeln!(out, "{ind}{};", expr(p, *e));
        }
        StmtKind::Assign { lhs, rhs } => {
            let _ = writeln!(out, "{ind}{} = {};", expr(p, *lhs), expr(p, *rhs));
        }
        StmtKind::Var(v) => {
            let _ = writeln!(out, "{ind}{};", var(p, v));
        }
        StmtKind::Return => {
            let _ = writeln!(out, "{ind}return;");
        }
        StmtKind::Block(b) => {
            let _ = writeln!(out, "{ind}{{");
            for inner in &b.stmts {
                stmt(p, out, inner, depth + 1);
            }
            let _ = writeln!(out, "{ind}}}");
        }
        StmtKind::If { arms, else_blk } => {
            for (i, arm) in arms.iter().enumerate() {
                // The chain re-sugars as `else if`.
                let lead = if i == 0 { "" } else { "} else " };
                let _ = writeln!(out, "{ind}{lead}if ({}) {{", expr(p, arm.cond));
                for inner in &arm.then_blk.stmts {
                    stmt(p, out, inner, depth + 1);
                }
            }
            if let Some(eb) = else_blk {
                let _ = writeln!(out, "{ind}}} else {{");
                for inner in &eb.stmts {
                    stmt(p, out, inner, depth + 1);
                }
            }
            let _ = writeln!(out, "{ind}}}");
        }
        StmtKind::Switch { scrutinee, cases } => {
            let _ = writeln!(out, "{ind}switch ({}) {{", expr(p, *scrutinee));
            for c in cases {
                let labels: Vec<String> = c
                    .labels
                    .iter()
                    .map(|l| match l {
                        SwitchLabel::Default => "default".to_string(),
                        SwitchLabel::Expr(e) => expr(p, *e),
                    })
                    .collect();
                let _ = writeln!(out, "{ind}    {}: {{", labels.join(": "));
                for inner in &c.block.stmts {
                    stmt(p, out, inner, depth + 2);
                }
                let _ = writeln!(out, "{ind}    }}");
            }
            let _ = writeln!(out, "{ind}}}");
        }
    }
}

/// Print an expression of `p` (fully parenthesized binaries for
/// unambiguous re-parsing).
pub fn expr(p: &Program, e: ExprId) -> String {
    let x = |e: ExprId| expr(p, e);
    match &p.expr(e).kind {
        ExprKind::Int {
            value,
            width: Some(w),
        } => format!("{w}w{value}"),
        ExprKind::Int { value, width: None } => format!("{value}"),
        ExprKind::Bool(b) => format!("{b}"),
        ExprKind::Ident(n) => p.name(*n).to_string(),
        ExprKind::Member { base, member } => format!("{}.{}", x(*base), p.name(member.name)),
        ExprKind::Slice { base, hi, lo } => {
            format!("{}[{}:{}]", x(*base), x(*hi), x(*lo))
        }
        ExprKind::Call { callee, args } => {
            let a: Vec<String> = args.iter().map(|a| x(*a)).collect();
            format!("{}({})", x(*callee), a.join(", "))
        }
        ExprKind::Unary { op, expr: inner } => format!("{op}({})", x(*inner)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", x(*lhs), x(*rhs))
        }
        ExprKind::Cast { ty, expr: inner } => {
            format!("({}) ({})", ty.kind.display(&p.syms), x(*inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::parse_and_check;

    /// Roundtrip helper: parse, print, re-parse, and compare the checked
    /// type tables (offsets, widths, semantics) and path-relevant AST.
    fn roundtrip(src: &str) {
        let (a, d1) = parse_and_check(src);
        assert!(
            !d1.has_errors(),
            "original fails: {:?}",
            d1.iter().map(|x| x.message.clone()).collect::<Vec<_>>()
        );
        let printed = print_program(&a.program);
        let (b, d2) = parse_and_check(&printed);
        assert!(
            !d2.has_errors(),
            "printed source fails to re-check:\n{printed}\n{:?}",
            d2.iter().map(|x| x.message.clone()).collect::<Vec<_>>()
        );
        // Nominal tables must match modulo source spans and symbol
        // numbering: compare them spelled out.
        let tables = |c: &crate::typecheck::CheckedProgram| -> String {
            let t = &c.types;
            let n = |s: crate::ast::Sym| c.name(s);
            let mut o = String::new();
            for h in &t.headers {
                o += &format!("header {} {}\n", n(h.name), h.width_bits);
                for f in &h.fields {
                    let sem = f.semantic.map(n);
                    o += &format!(
                        "  {} {} {} {sem:?} {:?}\n",
                        n(f.name),
                        f.offset_bits,
                        f.width_bits,
                        f.cost
                    );
                }
            }
            for st in &t.structs {
                o += &format!("struct {}\n", n(st.name));
                for f in &st.fields {
                    o += &format!("  {} {}\n", n(f.name), c.display(f.ty));
                }
            }
            for e in &t.enums {
                let vs: Vec<&str> = e.variants.iter().map(|v| n(*v)).collect();
                o += &format!("enum {} {} {vs:?}\n", n(e.name), e.repr_width);
            }
            for k in &t.consts {
                o += &format!("const {} {}\n", n(k.name), k.value);
            }
            o
        };
        assert_eq!(tables(&a), tables(&b), "tables diverge\n{printed}");
        // Idempotence: printing the re-parsed program is a fixpoint.
        assert_eq!(printed, print_program(&b.program), "printer not idempotent");
    }

    #[test]
    fn roundtrip_headers_structs_enums() {
        roundtrip(
            r#"
            typedef bit<16> tci_t;
            const bit<16> ETH_VLAN = 16w0x8100;
            enum bit<2> fmt_t { FULL, MINI }
            header h_t {
                @semantic("rss_hash") @cost(40) bit<32> rss;
                tci_t vlan;
            }
            struct m_t { h_t h; fmt_t f; bool flag; }
            "#,
        );
    }

    #[test]
    fn roundtrip_control_with_everything() {
        roundtrip(
            r#"
            header a_t { bit<8> x; }
            struct ctx_t { bit<2> fmt; bit<8> n; }
            struct m_t { a_t a; }
            control C(cmpt_out o, in ctx_t ctx, in m_t m) {
                bit<8> tmp = 0;
                action fin() { o.emit(m.a); }
                apply {
                    tmp = tmp + 1;
                    if (ctx.fmt == 1 && tmp != 0) { fin(); }
                    else if (ctx.fmt == 2) { return; }
                    else { o.emit(m.a); }
                    switch (ctx.fmt) {
                        0: { o.emit(m.a); }
                        default: { }
                    }
                    if ((ctx.n & 0xF0) >> 4 == 3) { return; }
                    if (ctx.n[3:1] == 2) { return; }
                }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_parser_with_select() {
        roundtrip(
            r#"
            header b_t { bit<64> addr; }
            header e_t { bit<32> args; }
            struct d_t { b_t b; e_t e; }
            struct c_t { bit<8> size; }
            parser P(desc_in d, in c_t ctx, out d_t hdr) {
                state start {
                    d.extract(hdr.b);
                    transition select(ctx.size) {
                        8: accept;
                        12, 16: more;
                        default: reject;
                    }
                }
                state more {
                    d.extract(hdr.e);
                    transition accept;
                }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_templates_and_externs() {
        roundtrip(
            r#"
            parser DescParser<H2C_CTX_T, DESC_T>(
                desc_in d, in H2C_CTX_T ctx, out DESC_T hdr
            );
            control CmptDeparser<C2H_CTX_T, DESC_T, META_T>(
                cmpt_out o, in DESC_T hdr, in META_T m
            );
            extern crypto { void run(in bit<128> key); }
            "#,
        );
    }

    #[test]
    fn roundtrip_every_catalog_model() {
        // The shipped NIC contracts live in opendesc-nicsim; mirror the
        // two that exercise the trickiest syntax here (full catalog
        // coverage lives in the integration suite).
        roundtrip(include_str_e1000e());
    }

    fn include_str_e1000e() -> &'static str {
        r#"
        enum bit<2> cqe_fmt_t { FULL, MINI_RSS, MINI_CSUM }
        header full_t { @semantic("timestamp") bit<64> ts; bit<64> pad0; }
        header mini_t { @semantic("rss_hash") bit<32> rss; }
        struct ctx_t { cqe_fmt_t cqe_format; }
        struct m_t { full_t full; mini_t mini; }
        control CmptDeparser(cmpt_out cmpt, in ctx_t ctx, in m_t pipe_meta) {
            apply {
                switch (ctx.cqe_format) {
                    0: { cmpt.emit(pipe_meta.full); }
                    1: { cmpt.emit(pipe_meta.mini); }
                    default: { cmpt.emit(pipe_meta.full); }
                }
            }
        }
        "#
    }

    #[test]
    fn expr_printing_parenthesizes() {
        let (p, _) = crate::parser::parse(
            "control C(in ctx_t c) { apply { if (c.a == 1 && c.b != 2 || !c.d) { return; } } }",
        );
        let printed = print_program(&p);
        assert!(
            printed.contains("(((c.a == 1) && (c.b != 2)) || !(c.d))"),
            "{printed}"
        );
    }

    #[test]
    fn else_if_chains_print_as_else_if() {
        let (p, _) = crate::parser::parse(
            "control C(in ctx_t c) { apply { if (c.a == 1) { return; } \
             else if (c.a == 2) { return; } else { return; } } }",
        );
        let want = "    apply {
        if ((c.a == 1)) {
            return;
        } else if ((c.a == 2)) {
            return;
        } else {
            return;
        }
    }
";
        assert!(print_program(&p).contains(want), "{}", print_program(&p));
    }
}
