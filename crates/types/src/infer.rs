//! Algorithm-W-style inference over modules.
//!
//! A module is inferred using only the [`TypeInterface`]s of its imports.
//! Within a module, definitions are grouped into strongly connected
//! components of the local call graph; each SCC is inferred monomorphically
//! (supporting mutual recursion) and generalised afterwards, so earlier
//! definitions are available polymorphically to later ones — the usual
//! Haskell-like behaviour.

use crate::error::TypeError;
use crate::interface::TypeInterface;
use crate::ty::{FnScheme, Subst, TyVar, TyVarGen, Type};
use crate::unify::unify;
use mspec_lang::ast::{Expr, Ident, ModName, Module, PrimOp, QualName};
use mspec_lang::resolve::ResolvedProgram;
use std::collections::BTreeMap;

/// The inferred type schemes of every function in a program.
#[derive(Debug, Clone, Default)]
pub struct ProgramTypes {
    schemes: BTreeMap<QualName, FnScheme>,
}

impl ProgramTypes {
    /// Looks up a function's scheme.
    pub fn scheme(&self, q: &QualName) -> Option<&FnScheme> {
        self.schemes.get(q)
    }

    /// Iterates over all `(function, scheme)` pairs deterministically.
    pub fn iter(&self) -> impl Iterator<Item = (&QualName, &FnScheme)> {
        self.schemes.iter()
    }

    /// Records a function's scheme (used by drivers that infer modules
    /// one at a time, e.g. `mspec_cogen::build_program`).
    pub fn insert(&mut self, q: QualName, scheme: FnScheme) {
        self.schemes.insert(q, scheme);
    }

    /// Number of typed functions.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// `true` if no functions were typed.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }
}

/// Infers types for a whole resolved program, module by module in
/// dependency order.
///
/// # Errors
///
/// Any [`TypeError`] found in any module.
pub fn infer_program(rp: &ResolvedProgram) -> Result<ProgramTypes, TypeError> {
    let mut interfaces: BTreeMap<ModName, TypeInterface> = BTreeMap::new();
    let mut out = ProgramTypes::default();
    for mod_name in rp.graph().topo_order() {
        let module = rp
            .program()
            .module(mod_name.as_str())
            .expect("topo order lists only program modules");
        let iface = infer_module(module, &interfaces)?;
        for (name, scheme) in iface.iter() {
            out.schemes.insert(
                QualName { module: *mod_name, name: *name },
                scheme.clone(),
            );
        }
        interfaces.insert(*mod_name, iface);
    }
    Ok(out)
}

/// Infers the types of one module given the interfaces of its imports.
///
/// This is the separate-analysis entry point: the import *sources* are
/// not consulted, exactly as the paper requires.
///
/// # Errors
///
/// Any [`TypeError`] found in the module.
pub fn infer_module(
    module: &Module,
    imports: &BTreeMap<ModName, TypeInterface>,
) -> Result<TypeInterface, TypeError> {
    let mut done = TypeInterface::new();
    for scc in local_sccs(module) {
        infer_scc(module, &scc, imports, &mut done)?;
    }
    Ok(done)
}

/// [`infer_module`] under a telemetry span (`typecheck`, detail = the
/// module name), counting definitions inferred.
///
/// # Errors
///
/// Any [`TypeError`] found in the module.
pub fn infer_module_traced(
    module: &Module,
    imports: &BTreeMap<ModName, TypeInterface>,
    rec: &mspec_telemetry::Recorder,
) -> Result<TypeInterface, TypeError> {
    let _span = rec.span_with("typecheck", module.name.as_str());
    rec.count("types.defs_inferred", module.defs.len() as u64);
    infer_module(module, imports)
}

/// Strongly connected components of the module-local call graph, in
/// dependency order (callees before callers).
fn local_sccs(module: &Module) -> Vec<Vec<usize>> {
    let n = module.defs.len();
    let index_of: BTreeMap<&Ident, usize> =
        module.defs.iter().enumerate().map(|(i, d)| (&d.name, i)).collect();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, d) in module.defs.iter().enumerate() {
        for q in d.body.called_functions() {
            if q.module == module.name {
                if let Some(&j) = index_of.get(&q.name) {
                    if !edges[i].contains(&j) {
                        edges[i].push(j);
                    }
                }
            }
        }
    }
    tarjan(n, &edges)
}

/// Tarjan's SCC algorithm; returns components in reverse topological
/// order of the condensation, i.e. callees first.
fn tarjan(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct State<'e> {
        edges: &'e [Vec<usize>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: u32,
        out: Vec<Vec<usize>>,
    }
    fn strongconnect(v: usize, st: &mut State<'_>) {
        st.index[v] = Some(st.counter);
        st.low[v] = st.counter;
        st.counter += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &st.edges[v] {
            match st.index[w] {
                None => {
                    strongconnect(w, st);
                    st.low[v] = st.low[v].min(st.low[w]);
                }
                Some(wi) if st.on_stack[w] => {
                    st.low[v] = st.low[v].min(wi);
                }
                _ => {}
            }
        }
        if Some(st.low[v]) == st.index[v] {
            let mut comp = Vec::new();
            loop {
                let w = st.stack.pop().expect("tarjan stack underflow");
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.sort_unstable();
            st.out.push(comp);
        }
    }
    let mut st = State {
        edges,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &mut st);
        }
    }
    st.out
}

/// A monomorphic placeholder signature for a definition in the SCC being
/// inferred.
#[derive(Debug, Clone)]
struct Placeholder {
    params: Vec<Type>,
    ret: Type,
}

struct Inferencer<'a> {
    module: &'a Module,
    imports: &'a BTreeMap<ModName, TypeInterface>,
    done: &'a TypeInterface,
    placeholders: BTreeMap<Ident, Placeholder>,
    gen: TyVarGen,
    subst: Subst,
    context: String,
}

fn infer_scc(
    module: &Module,
    scc: &[usize],
    imports: &BTreeMap<ModName, TypeInterface>,
    done: &mut TypeInterface,
) -> Result<(), TypeError> {
    let mut inf = Inferencer {
        module,
        imports,
        done,
        placeholders: BTreeMap::new(),
        gen: TyVarGen::new(),
        subst: Subst::empty(),
        context: String::new(),
    };
    for &i in scc {
        let d = &module.defs[i];
        let params = d.params.iter().map(|_| inf.gen.fresh_ty()).collect();
        let ret = inf.gen.fresh_ty();
        inf.placeholders.insert(d.name, Placeholder { params, ret });
    }
    for &i in scc {
        let d = &module.defs[i];
        inf.context = format!("{}.{}", module.name, d.name);
        let ph = inf.placeholders[&d.name].clone();
        let mut locals: Vec<(Ident, Type)> = Vec::new();
        for (p, t) in d.params.iter().zip(&ph.params) {
            locals.push((*p, t.clone()));
        }
        let body_ty = inf.infer(&d.body, &mut locals)?;
        inf.unify(&body_ty, &ph.ret)?;
    }
    // Generalise: top-level definitions are closed, so every remaining
    // free variable is quantifiable.
    let mut generalised: Vec<(Ident, FnScheme)> = Vec::new();
    for &i in scc {
        let d = &module.defs[i];
        let ph = &inf.placeholders[&d.name];
        let params: Vec<Type> = ph.params.iter().map(|t| inf.subst.apply(t)).collect();
        let ret = inf.subst.apply(&ph.ret);
        let mut vars: Vec<TyVar> = Vec::new();
        for t in params.iter().chain(std::iter::once(&ret)) {
            for v in t.free_vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        generalised.push((d.name, FnScheme { vars, params, ret }));
    }
    drop(inf);
    for (name, scheme) in generalised {
        done.insert(name, scheme);
    }
    Ok(())
}

impl Inferencer<'_> {
    fn unify(&mut self, a: &Type, b: &Type) -> Result<(), TypeError> {
        let a = self.subst.apply(a);
        let b = self.subst.apply(b);
        let s = unify(&a, &b, &self.context)?;
        self.subst = s.compose(&self.subst);
        Ok(())
    }

    fn instantiate(&mut self, scheme: &FnScheme) -> (Vec<Type>, Type) {
        let sub = Subst::parallel(
            scheme.vars.iter().map(|v| (*v, self.gen.fresh_ty())),
        );
        (
            scheme.params.iter().map(|p| sub.apply(p)).collect(),
            sub.apply(&scheme.ret),
        )
    }

    fn fn_signature(&mut self, q: &QualName) -> Result<(Vec<Type>, Type), TypeError> {
        if q.module == self.module.name {
            if let Some(ph) = self.placeholders.get(&q.name) {
                return Ok((ph.params.clone(), ph.ret.clone()));
            }
            if let Some(s) = self.done.get(&q.name) {
                let s = s.clone();
                return Ok(self.instantiate(&s));
            }
        } else if let Some(iface) = self.imports.get(&q.module) {
            if let Some(s) = iface.get(&q.name) {
                let s = s.clone();
                return Ok(self.instantiate(&s));
            }
        }
        Err(TypeError::UnknownFunction(*q))
    }

    fn infer(&mut self, e: &Expr, locals: &mut Vec<(Ident, Type)>) -> Result<Type, TypeError> {
        match e {
            Expr::Nat(_) => Ok(Type::Nat),
            Expr::Bool(_) => Ok(Type::Bool),
            Expr::Nil => Ok(Type::list(self.gen.fresh_ty())),
            Expr::Var(x) => locals
                .iter()
                .rev()
                .find(|(n, _)| n == x)
                .map(|(_, t)| t.clone())
                .ok_or(TypeError::UnboundVariable {
                    module: self.module.name,
                    name: *x,
                }),
            Expr::Prim(op, args) => self.infer_prim(*op, args, locals),
            Expr::If(c, t, f) => {
                let ct = self.infer(c, locals)?;
                self.unify(&ct, &Type::Bool)?;
                let tt = self.infer(t, locals)?;
                let ft = self.infer(f, locals)?;
                self.unify(&tt, &ft)?;
                Ok(self.subst.apply(&tt))
            }
            Expr::Call(target, args) => {
                let q = target.qualified();
                let (params, ret) = self.fn_signature(&q)?;
                debug_assert_eq!(params.len(), args.len(), "resolution checked arity");
                for (a, p) in args.iter().zip(&params) {
                    let at = self.infer(a, locals)?;
                    self.unify(&at, p)?;
                }
                Ok(self.subst.apply(&ret))
            }
            Expr::Lam(x, body) => {
                let pt = self.gen.fresh_ty();
                locals.push((*x, pt.clone()));
                let bt = self.infer(body, locals)?;
                locals.pop();
                Ok(Type::fun(self.subst.apply(&pt), bt))
            }
            Expr::App(f, a) => {
                let ft = self.infer(f, locals)?;
                let at = self.infer(a, locals)?;
                let rt = self.gen.fresh_ty();
                self.unify(&ft, &Type::fun(at, rt.clone()))?;
                Ok(self.subst.apply(&rt))
            }
            Expr::Let(x, rhs, body) => {
                // `let` is monomorphic here: the specialiser always
                // unfolds lets, and the paper's language has no `let` at
                // all, so Hindley–Milner let-generalisation is not needed.
                let rt = self.infer(rhs, locals)?;
                locals.push((*x, rt));
                let bt = self.infer(body, locals)?;
                locals.pop();
                Ok(bt)
            }
        }
    }

    fn infer_prim(
        &mut self,
        op: PrimOp,
        args: &[Expr],
        locals: &mut Vec<(Ident, Type)>,
    ) -> Result<Type, TypeError> {
        use PrimOp::*;
        let tys: Vec<Type> = args
            .iter()
            .map(|a| self.infer(a, locals))
            .collect::<Result<_, _>>()?;
        match op {
            Add | Sub | Mul | Div => {
                self.unify(&tys[0], &Type::Nat)?;
                self.unify(&tys[1], &Type::Nat)?;
                Ok(Type::Nat)
            }
            Eq | Lt | Leq => {
                self.unify(&tys[0], &Type::Nat)?;
                self.unify(&tys[1], &Type::Nat)?;
                Ok(Type::Bool)
            }
            And | Or => {
                self.unify(&tys[0], &Type::Bool)?;
                self.unify(&tys[1], &Type::Bool)?;
                Ok(Type::Bool)
            }
            Not => {
                self.unify(&tys[0], &Type::Bool)?;
                Ok(Type::Bool)
            }
            Cons => {
                let elem = self.gen.fresh_ty();
                self.unify(&tys[0], &elem)?;
                self.unify(&tys[1], &Type::list(elem.clone()))?;
                Ok(self.subst.apply(&Type::list(elem)))
            }
            Head => {
                let elem = self.gen.fresh_ty();
                self.unify(&tys[0], &Type::list(elem.clone()))?;
                Ok(self.subst.apply(&elem))
            }
            Tail => {
                let elem = self.gen.fresh_ty();
                self.unify(&tys[0], &Type::list(elem.clone()))?;
                Ok(self.subst.apply(&Type::list(elem)))
            }
            Null => {
                let elem = self.gen.fresh_ty();
                self.unify(&tys[0], &Type::list(elem))?;
                Ok(Type::Bool)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspec_lang::parser::parse_program;
    use mspec_lang::resolve::resolve;

    fn types_of(src: &str) -> Result<ProgramTypes, TypeError> {
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        infer_program(&rp)
    }

    fn scheme_str(src: &str, module: &str, name: &str) -> String {
        types_of(src)
            .unwrap()
            .scheme(&QualName::new(module, name))
            .unwrap()
            .to_string()
    }

    #[test]
    fn power_is_nat_nat_nat() {
        assert_eq!(
            scheme_str(
                "module P where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
                "P",
                "power"
            ),
            "Nat -> Nat -> Nat"
        );
    }

    #[test]
    fn map_is_polymorphic() {
        assert_eq!(
            scheme_str(
                "module A where\nmap f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n",
                "A",
                "map"
            ),
            "forall t0 t1. (t0 -> t1) -> [t0] -> [t1]"
        );
    }

    #[test]
    fn identity_lambda_infers() {
        assert_eq!(
            scheme_str("module A where\napply f x = f @ x\n", "A", "apply"),
            "forall t0 t1. (t0 -> t1) -> t0 -> t1"
        );
    }

    #[test]
    fn twice_requires_endofunction() {
        assert_eq!(
            scheme_str("module A where\ntwice f x = f @ (f @ x)\n", "A", "twice"),
            "forall t0. (t0 -> t0) -> t0 -> t0"
        );
    }

    #[test]
    fn polymorphic_reuse_at_two_types() {
        // map used at Nat and at list-of-Nat element types.
        let src = "module A where\n\
                   map f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n\
                   use ys zss = head (map (\\x -> x + 1) ys) : head (map (\\zs -> tail zs) zss)\n";
        assert_eq!(scheme_str(src, "A", "use"), "[Nat] -> [[Nat]] -> [Nat]");
    }

    #[test]
    fn mutual_recursion_in_one_module() {
        let src = "module A where\n\
                   even n = if n == 0 then true else odd (n - 1)\n\
                   odd n = if n == 0 then false else even (n - 1)\n";
        assert_eq!(scheme_str(src, "A", "even"), "Nat -> Bool");
        assert_eq!(scheme_str(src, "A", "odd"), "Nat -> Bool");
    }

    #[test]
    fn cross_module_polymorphism_via_interface() {
        let src = "module Lib where\n\
                   map f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n\
                   module App where\n\
                   import Lib\n\
                   incs ys = map (\\x -> x + 1) ys\n\
                   nots bs = map (\\b -> not b) bs\n";
        assert_eq!(scheme_str(src, "App", "incs"), "[Nat] -> [Nat]");
        assert_eq!(scheme_str(src, "App", "nots"), "[Bool] -> [Bool]");
    }

    #[test]
    fn condition_must_be_boolean() {
        let err = types_of("module A where\nf x = if x then 1 else 2\n").unwrap();
        // x gets unified with Bool — that is fine; the error case:
        let err2 = types_of("module A where\nf x = if 1 then 1 else 2\n");
        assert!(matches!(err2, Err(TypeError::Mismatch { .. })), "{err2:?}");
        let _ = err;
    }

    #[test]
    fn branches_must_agree() {
        let r = types_of("module A where\nf b = if b then 1 else true\n");
        assert!(matches!(r, Err(TypeError::Mismatch { .. })), "{r:?}");
    }

    #[test]
    fn arithmetic_on_bools_fails() {
        let r = types_of("module A where\nf b = b + 1\nmain x = f (x == 0)\n");
        assert!(r.is_err());
    }

    #[test]
    fn occurs_check_on_self_application() {
        let r = types_of("module A where\nf g = g @ g\n");
        assert!(matches!(r, Err(TypeError::Occurs { .. })), "{r:?}");
    }

    #[test]
    fn heterogeneous_list_fails() {
        let r = types_of("module A where\nf = 1 : true : []\n");
        assert!(matches!(r, Err(TypeError::Mismatch { .. })), "{r:?}");
    }

    #[test]
    fn zero_arity_function_scheme() {
        assert_eq!(scheme_str("module A where\nc = 1 : []\n", "A", "c"), "[Nat]");
    }

    #[test]
    fn let_is_monomorphic_but_usable() {
        assert_eq!(
            scheme_str("module A where\nf y = let g = \\x -> x + y in g @ 1 + g @ 2\n", "A", "f"),
            "Nat -> Nat"
        );
    }

    #[test]
    fn paper_section5_program_types() {
        let rp = resolve(mspec_lang::builder::paper_section5_program()).unwrap();
        let tys = infer_program(&rp).unwrap();
        assert_eq!(
            tys.scheme(&QualName::new("Main", "main")).unwrap().to_string(),
            "Nat -> Nat"
        );
        assert_eq!(
            tys.scheme(&QualName::new("Twice", "twice")).unwrap().to_string(),
            "forall t0. (t0 -> t0) -> t0 -> t0"
        );
        assert_eq!(tys.len(), 3);
        assert!(!tys.is_empty());
    }

    #[test]
    fn separate_module_inference_matches_whole_program() {
        let src = "module Lib where\n\
                   compose f g x = f @ (g @ x)\n\
                   module App where\n\
                   import Lib\n\
                   h y = compose (\\a -> a + 1) (\\b -> b * 2) y\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let whole = infer_program(&rp).unwrap();

        // Now do it module by module through interfaces only.
        let lib = rp.program().module("Lib").unwrap();
        let lib_iface = infer_module(lib, &BTreeMap::new()).unwrap();
        let mut imports = BTreeMap::new();
        imports.insert(ModName::new("Lib"), lib_iface);
        let app = rp.program().module("App").unwrap();
        let app_iface = infer_module(app, &imports).unwrap();

        assert_eq!(
            whole.scheme(&QualName::new("App", "h")).unwrap(),
            app_iface.get(&Ident::new("h")).unwrap()
        );
    }

    #[test]
    fn unknown_import_function_reports_cleanly() {
        let module = mspec_lang::parser::parse_module(
            "module App where\nimport Lib\nh y = Lib.missing y\n",
        )
        .unwrap();
        // Resolution would normally reject this; calling infer_module
        // directly with an empty interface exercises the error path.
        let mut imports = BTreeMap::new();
        imports.insert(ModName::new("Lib"), TypeInterface::new());
        let r = infer_module(&module, &imports);
        assert!(matches!(r, Err(TypeError::UnknownFunction(_))), "{r:?}");
    }

    #[test]
    fn instantiation_does_not_alias_scheme_variables() {
        // Regression: a 3-variable scheme instantiated when the local
        // variable counter already overlapped the scheme's canonical
        // variables used to alias two parameters.
        let src = "module M1 where\n\
                   pick3 p0 p1 p2 = p0\n\
                   module M2 where\n\
                   import M1\n\
                   f p0 = p0 + M1.pick3 1 [] true\n";
        assert_eq!(scheme_str(src, "M2", "f"), "Nat -> Nat");
    }

    #[test]
    fn deep_local_dependency_chain_generalises_each_step() {
        let src = "module A where\n\
                   id x = x\n\
                   pair x ys = id x : id ys\n";
        // pair uses id at two different instantiations within one body —
        // works because id is in an earlier SCC and thus polymorphic.
        // Note: `id x : id ys` forces elem/list agreement.
        assert_eq!(scheme_str(src, "A", "pair"), "forall t0. t0 -> [t0] -> [t0]");
    }
}
