//! Compiling annotated modules to generating extensions.
//!
//! Pure syntax manipulation, one module at a time:
//!
//! * every variable is resolved to an environment slot (a function
//!   body's frame is its parameters; `let` pushes a slot; a lambda's
//!   frame is its captured variables followed by its parameter),
//! * every lambda is given its captured-slot list, the set of named
//!   functions reachable from its body (needed for §5 placement of
//!   specialisations that close over it), and a site identity for
//!   memoisation,
//! * every symbolic binding time is compiled to a [`BtCode`] bitmask.

use mspec_bta::{AnnDef, AnnExpr, AnnModule, AnnProgram};
use mspec_genext::gexp::{BtCode, GCoerce, GenFn, GenModule, GExp, UNRESOLVED};
use mspec_genext::{GenProgram, SpecError};
use mspec_lang::ast::{Ident, QualName};
use std::sync::Arc;

/// Compiles one annotated module into its generating extension.
pub fn compile_module(ann: &AnnModule) -> GenModule {
    let mut lam_counter = 0u32;
    let fns = ann
        .defs
        .iter()
        .map(|d| compile_def(ann, d, &mut lam_counter))
        .collect();
    GenModule { name: ann.name, imports: ann.imports.clone(), fns }
}

/// Compiles and links a whole annotated program (convenience for tests
/// and whole-program runs; the per-module path is [`compile_module`]).
///
/// # Errors
///
/// Linking errors from [`GenProgram::link`].
pub fn compile_program(ann: &AnnProgram) -> Result<GenProgram, SpecError> {
    GenProgram::link(ann.modules.iter().map(compile_module).collect())
}

fn compile_def(ann: &AnnModule, d: &AnnDef, lam_counter: &mut u32) -> GenFn {
    let mut scope: Vec<Ident> = d.params.clone();
    let body = compile_expr(&d.body, &mut scope, lam_counter);
    GenFn::new(QualName { module: ann.name, name: d.name }, d.params.clone(), d.sig.clone(), body)
}

fn slot_of(scope: &[Ident], x: &Ident) -> u32 {
    scope
        .iter()
        .rposition(|s| s == x)
        .unwrap_or_else(|| panic!("cogen: variable `{x}` not in scope (resolution bug)"))
        as u32
}

fn compile_expr(e: &AnnExpr, scope: &mut Vec<Ident>, lam_counter: &mut u32) -> GExp {
    match e {
        AnnExpr::Nat(n) => GExp::Nat(*n),
        AnnExpr::Bool(b) => GExp::Bool(*b),
        AnnExpr::Nil => GExp::Nil,
        AnnExpr::Var(x) => GExp::Var(slot_of(scope, x)),
        AnnExpr::Prim(op, t, args) => GExp::Prim(
            *op,
            BtCode::compile(t),
            args.iter().map(|a| compile_expr(a, scope, lam_counter)).collect(),
        ),
        AnnExpr::If(t, c, th, el) => GExp::If(
            BtCode::compile(t),
            Box::new(compile_expr(c, scope, lam_counter)),
            Box::new(compile_expr(th, scope, lam_counter)),
            Box::new(compile_expr(el, scope, lam_counter)),
        ),
        AnnExpr::Call { target, inst, args } => GExp::Call {
            target: *target,
            callee: UNRESOLVED,
            inst: inst.iter().map(BtCode::compile).collect(),
            args: args.iter().map(|a| compile_expr(a, scope, lam_counter)).collect(),
        },
        AnnExpr::Lam(x, body) => {
            // Captured variables: free in the body, bound in the
            // enclosing scope, in first-use order.
            let mut free = Vec::new();
            free_vars(body, &mut vec![*x], &mut free);
            let captured_names: Vec<Ident> =
                free.into_iter().filter(|v| scope.contains(v)).collect();
            let captured: Vec<u32> =
                captured_names.iter().map(|v| slot_of(scope, v)).collect();
            let mut fns = Vec::new();
            called_fns(body, &mut fns);
            let lam_id = *lam_counter;
            *lam_counter += 1;
            let mut inner_scope: Vec<Ident> = captured_names;
            inner_scope.push(*x);
            let compiled = compile_expr(body, &mut inner_scope, lam_counter);
            GExp::Lam {
                param: *x,
                body: Arc::new(compiled),
                captured,
                free_fns: Arc::new(fns),
                lam_id,
            }
        }
        AnnExpr::App(t, f, a) => GExp::App(
            BtCode::compile(t),
            Box::new(compile_expr(f, scope, lam_counter)),
            Box::new(compile_expr(a, scope, lam_counter)),
        ),
        AnnExpr::Let(x, rhs, body) => {
            let rhs = compile_expr(rhs, scope, lam_counter);
            scope.push(*x);
            let body = compile_expr(body, scope, lam_counter);
            scope.pop();
            GExp::Let(Box::new(rhs), Box::new(body))
        }
        AnnExpr::Coerce(spec, inner) => GExp::Coerce(
            GCoerce::compile(spec),
            Box::new(compile_expr(inner, scope, lam_counter)),
        ),
    }
}

/// Free variables of an annotated expression, in first-use order.
fn free_vars(e: &AnnExpr, bound: &mut Vec<Ident>, out: &mut Vec<Ident>) {
    match e {
        AnnExpr::Nat(_) | AnnExpr::Bool(_) | AnnExpr::Nil => {}
        AnnExpr::Var(x) => {
            if !bound.contains(x) && !out.contains(x) {
                out.push(*x);
            }
        }
        AnnExpr::Prim(_, _, args) | AnnExpr::Call { args, .. } => {
            for a in args {
                free_vars(a, bound, out);
            }
        }
        AnnExpr::If(_, c, t, f) => {
            free_vars(c, bound, out);
            free_vars(t, bound, out);
            free_vars(f, bound, out);
        }
        AnnExpr::Lam(x, b) => {
            bound.push(*x);
            free_vars(b, bound, out);
            bound.pop();
        }
        AnnExpr::App(_, f, a) => {
            free_vars(f, bound, out);
            free_vars(a, bound, out);
        }
        AnnExpr::Let(x, rhs, b) => {
            free_vars(rhs, bound, out);
            bound.push(*x);
            free_vars(b, bound, out);
            bound.pop();
        }
        AnnExpr::Coerce(_, inner) => free_vars(inner, bound, out),
    }
}

/// Named functions called anywhere inside an annotated expression.
fn called_fns(e: &AnnExpr, out: &mut Vec<QualName>) {
    match e {
        AnnExpr::Nat(_) | AnnExpr::Bool(_) | AnnExpr::Nil | AnnExpr::Var(_) => {}
        AnnExpr::Prim(_, _, args) => {
            for a in args {
                called_fns(a, out);
            }
        }
        AnnExpr::Call { target, args, .. } => {
            if !out.contains(target) {
                out.push(*target);
            }
            for a in args {
                called_fns(a, out);
            }
        }
        AnnExpr::If(_, c, t, f) => {
            called_fns(c, out);
            called_fns(t, out);
            called_fns(f, out);
        }
        AnnExpr::Lam(_, b) => called_fns(b, out),
        AnnExpr::App(_, f, a) => {
            called_fns(f, out);
            called_fns(a, out);
        }
        AnnExpr::Let(_, rhs, b) => {
            called_fns(rhs, out);
            called_fns(b, out);
        }
        AnnExpr::Coerce(_, inner) => called_fns(inner, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspec_bta::analyse::analyse_program;
    use mspec_lang::parser::parse_program;
    use mspec_lang::resolve::resolve;

    fn compile_src(src: &str) -> GenProgram {
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let ann = analyse_program(&rp).unwrap();
        compile_program(&ann).unwrap()
    }

    #[test]
    fn power_compiles_with_slots() {
        let p = compile_src(
            "module P where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
        );
        let f = p.function(&QualName::new("P", "power")).unwrap();
        assert_eq!(f.params.len(), 2);
        // Body is an If whose condition mentions slot 0 (n).
        match &*f.body {
            GExp::If(_, c, t, _) => {
                let mut found = false;
                fn scan(e: &GExp, found: &mut bool) {
                    if let GExp::Var(0) = e {
                        *found = true;
                    }
                    match e {
                        GExp::Prim(_, _, args) | GExp::Call { args, .. } => {
                            args.iter().for_each(|a| scan(a, found))
                        }
                        GExp::If(_, a, b, c) => {
                            scan(a, found);
                            scan(b, found);
                            scan(c, found);
                        }
                        GExp::Coerce(_, i) => scan(i, found),
                        GExp::App(_, f, a) => {
                            scan(f, found);
                            scan(a, found);
                        }
                        GExp::Let(a, b) => {
                            scan(a, found);
                            scan(b, found);
                        }
                        _ => {}
                    }
                }
                scan(c, &mut found);
                assert!(found, "condition should reference slot 0");
                // Then-branch is x (slot 1), possibly under a coercion.
                let mut t: &GExp = t;
                while let GExp::Coerce(_, inner) = t {
                    t = inner;
                }
                assert_eq!(t, &GExp::Var(1));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn lambda_captures_enclosing_variables() {
        let p = compile_src(
            "module M where\napply f v = f @ v\nh y z = apply (\\x -> x + y * z) 1\n",
        );
        let f = p.function(&QualName::new("M", "h")).unwrap();
        let mut lam = None;
        fn find_lam<'a>(e: &'a GExp, out: &mut Option<&'a GExp>) {
            match e {
                GExp::Lam { .. } => *out = Some(e),
                GExp::Prim(_, _, args) | GExp::Call { args, .. } => {
                    args.iter().for_each(|a| find_lam(a, out))
                }
                GExp::If(_, a, b, c) => {
                    find_lam(a, out);
                    find_lam(b, out);
                    find_lam(c, out);
                }
                GExp::Coerce(_, i) => find_lam(i, out),
                GExp::App(_, f, a) => {
                    find_lam(f, out);
                    find_lam(a, out);
                }
                GExp::Let(a, b) => {
                    find_lam(a, out);
                    find_lam(b, out);
                }
                _ => {}
            }
        }
        find_lam(&f.body, &mut lam);
        match lam {
            Some(GExp::Lam { captured, body, .. }) => {
                // y (slot 0) and z (slot 1) captured, in use order.
                assert_eq!(captured, &vec![0, 1]);
                // Inside the lambda, x is the slot after the captures.
                let mut has_param = false;
                fn scan(e: &GExp, slot: u32, found: &mut bool) {
                    match e {
                        GExp::Var(s) if *s == slot => *found = true,
                        GExp::Prim(_, _, args) | GExp::Call { args, .. } => {
                            args.iter().for_each(|a| scan(a, slot, found))
                        }
                        GExp::Coerce(_, i) => scan(i, slot, found),
                        GExp::If(_, a, b, c) => {
                            scan(a, slot, found);
                            scan(b, slot, found);
                            scan(c, slot, found);
                        }
                        GExp::App(_, f, a) => {
                            scan(f, slot, found);
                            scan(a, slot, found);
                        }
                        GExp::Let(a, b) => {
                            scan(a, slot, found);
                            scan(b, slot, found);
                        }
                        GExp::Lam { body, .. } => scan(body, slot, found),
                        _ => {}
                    }
                }
                scan(body, 2, &mut has_param);
                assert!(has_param, "lambda body should use its parameter at slot 2");
            }
            other => panic!("expected a lambda, got {other:?}"),
        }
    }

    #[test]
    fn lambda_free_fns_recorded() {
        let p = compile_src(
            "module M where\n\
             g x = x + 1\n\
             apply f v = f @ v\n\
             h y = apply (\\x -> g x) y\n",
        );
        let f = p.function(&QualName::new("M", "h")).unwrap();
        let mut lam = None;
        fn find<'a>(e: &'a GExp, out: &mut Option<&'a GExp>) {
            match e {
                GExp::Lam { .. } => *out = Some(e),
                GExp::Prim(_, _, args) | GExp::Call { args, .. } => {
                    args.iter().for_each(|a| find(a, out))
                }
                GExp::Coerce(_, i) => find(i, out),
                _ => {}
            }
        }
        find(&f.body, &mut lam);
        match lam {
            Some(GExp::Lam { free_fns, .. }) => {
                assert_eq!(free_fns.as_slice(), &[QualName::new("M", "g")]);
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn lam_ids_are_distinct_within_a_module() {
        let p = compile_src(
            "module M where\napply f v = f @ v\nh y = apply (\\a -> a + 1) (apply (\\b -> b * 2) y)\n",
        );
        let f = p.function(&QualName::new("M", "h")).unwrap();
        let mut ids = Vec::new();
        fn collect(e: &GExp, ids: &mut Vec<u32>) {
            match e {
                GExp::Lam { lam_id, body, .. } => {
                    ids.push(*lam_id);
                    collect(body, ids);
                }
                GExp::Prim(_, _, args) | GExp::Call { args, .. } => {
                    args.iter().for_each(|a| collect(a, ids))
                }
                GExp::Coerce(_, i) => collect(i, ids),
                GExp::If(_, a, b, c) => {
                    collect(a, ids);
                    collect(b, ids);
                    collect(c, ids);
                }
                GExp::App(_, f, a) => {
                    collect(f, ids);
                    collect(a, ids);
                }
                GExp::Let(a, b) => {
                    collect(a, ids);
                    collect(b, ids);
                }
                _ => {}
            }
        }
        collect(&f.body, &mut ids);
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn let_pushes_a_slot() {
        let p = compile_src("module M where\nf x = let y = x + 1 in y * y\n");
        let f = p.function(&QualName::new("M", "f")).unwrap();
        match &*f.body {
            GExp::Let(_, body) => {
                // y is slot 1 inside the let body.
                let mut uses = 0;
                fn scan(e: &GExp, uses: &mut u32) {
                    match e {
                        GExp::Var(1) => *uses += 1,
                        GExp::Prim(_, _, args) => args.iter().for_each(|a| scan(a, uses)),
                        GExp::Coerce(_, i) => scan(i, uses),
                        _ => {}
                    }
                }
                scan(body, &mut uses);
                assert_eq!(uses, 2);
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn genext_size_is_linear_in_source_size() {
        // §6: "the size of the generating extension is linear in the size
        // of the source program".
        let mut sizes = Vec::new();
        for n in [4usize, 8, 16] {
            let defs: String = (0..n)
                .map(|i| format!("f{i} x = if x == 0 then 0 else x * f{i} (x - 1)\n"))
                .collect();
            let src = format!("module M where\n{defs}");
            let rp = resolve(parse_program(&src).unwrap()).unwrap();
            let ann = analyse_program(&rp).unwrap();
            let gm = compile_module(&ann.modules[0]);
            let total: usize = gm.fns.iter().map(|f| f.body.size()).sum();
            sizes.push(total);
        }
        // Doubling the source roughly doubles the genext.
        let r1 = sizes[1] as f64 / sizes[0] as f64;
        let r2 = sizes[2] as f64 / sizes[1] as f64;
        assert!((1.8..=2.2).contains(&r1), "ratio {r1}");
        assert!((1.8..=2.2).contains(&r2), "ratio {r2}");
    }
}
