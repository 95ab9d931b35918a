//! Partial values and static/dynamic splitting.
//!
//! A [`PVal`] is what flows through a generating extension: fully static
//! data, residual code, or — the interesting cases — static *skeletons*
//! with dynamic leaves (a list with known spine but unknown elements) and
//! static closures whose environments may capture dynamic values.
//!
//! [`split`] decomposes a value into a hashable static skeleton
//! ([`PKey`], the memoisation key of `mk_resid`) and its dynamic leaves;
//! [`rebuild`] replaces those leaves with fresh formal parameters when a
//! residual definition's body is constructed — exactly the paper's
//! treatment of `map (\x -> x + z) ys ⇒ map_g z ys`.

use crate::gexp::GExp;
use mspec_bta::BtMask;
use mspec_lang::ast::{Expr, Ident, ModName, PrimOp, QualName};
use mspec_lang::eval::Value;
use std::rc::Rc;

/// A partial (specialisation-time) value.
///
/// Scalars travel inline; only cons cells, closures and code are
/// reference-counted, so cloning a value is a copy or one refcount bump
/// and a literal or a static primitive result allocates nothing. `'p`
/// is the lifetime of the linked program a closure's code lives in.
#[derive(Debug, Clone)]
pub enum PVal<'p> {
    /// A known natural.
    Nat(u64),
    /// A known boolean.
    Bool(bool),
    /// The known empty list.
    Nil,
    /// A known cons cell, head and tail in one allocation (either part
    /// may contain dynamic leaves).
    Cons(Rc<(PVal<'p>, PVal<'p>)>),
    /// A static closure.
    Clo(Rc<Closure<'p>>),
    /// Residual code.
    Code(Rc<Expr>),
}

/// A static closure: the paper's Similix-style closure extended with the
/// compiled generating function for its body (§4.2: "an extra field ...
/// a function which generates specialisations of the closure's body").
#[derive(Debug)]
pub struct Closure<'p> {
    /// Parameter name (used for readable residual lambdas).
    pub param: Ident,
    /// The compiled body, inside the linked program; its frame is `env`
    /// followed by the parameter.
    pub body: &'p GExp,
    /// Captured values, copied out of the frame they were captured from
    /// (each copy is a scalar or a refcount bump).
    pub env: Vec<PVal<'p>>,
    /// Named functions reachable from the body (for placement).
    pub free_fns: &'p [QualName],
    /// Identity of the lambda site within its module.
    pub lam_id: u32,
    /// Module the lambda occurs in (with `lam_id`, a global identity).
    pub module: ModName,
    /// The binding-time mask of the function the lambda was written in:
    /// the closure body's compiled binding times refer to *that*
    /// function's signature variables, so unfolding the closure later
    /// must happen under this mask, not the current one.
    pub mask: BtMask,
}

impl<'p> PVal<'p> {
    /// A cons cell.
    pub fn cons(head: PVal<'p>, tail: PVal<'p>) -> PVal<'p> {
        PVal::Cons(Rc::new((head, tail)))
    }

    /// Residual code.
    pub fn code(e: Expr) -> PVal<'p> {
        PVal::Code(Rc::new(e))
    }

    /// Converts an interpreter [`Value`] into a partial value.
    ///
    /// Returns `None` for closures: run-time function values cannot be
    /// supplied as specialisation inputs.
    pub fn from_value(v: &Value) -> Option<PVal<'p>> {
        match v {
            Value::Nat(n) => Some(PVal::Nat(*n)),
            Value::Bool(b) => Some(PVal::Bool(*b)),
            Value::Nil => Some(PVal::Nil),
            Value::Cons(h, t) => Some(PVal::cons(PVal::from_value(h)?, PVal::from_value(t)?)),
            Value::Closure(_) => None,
        }
    }

    /// `true` if the value contains no dynamic leaves.
    pub fn is_fully_static(&self) -> bool {
        match self {
            PVal::Nat(_) | PVal::Bool(_) | PVal::Nil => true,
            PVal::Cons(c) => c.0.is_fully_static() && c.1.is_fully_static(),
            PVal::Clo(c) => c.env.iter().all(PVal::is_fully_static),
            PVal::Code(_) => false,
        }
    }

    /// All named functions reachable from the static parts of the value —
    /// the free function names of §5's placement rule (functions inside
    /// dynamic leaves are excluded: they are referenced at the *call
    /// site*, not inside the new definition).
    pub fn free_fns(&self, out: &mut Vec<QualName>) {
        match self {
            PVal::Nat(_) | PVal::Bool(_) | PVal::Nil | PVal::Code(_) => {}
            PVal::Cons(c) => {
                c.0.free_fns(out);
                c.1.free_fns(out);
            }
            PVal::Clo(c) => {
                for f in c.free_fns.iter() {
                    if !out.contains(f) {
                        out.push(*f);
                    }
                }
                for v in &c.env {
                    v.free_fns(out);
                }
            }
        }
    }
}

/// The static skeleton of a value: the memoisation key of `mk_resid`.
/// Dynamic leaves become [`PKey::Hole`]s, so two calls with the same
/// static data (and *any* dynamic data) share one specialisation — the
/// paper's "only the static parts are compared with previously generated
/// specialisations".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PKey {
    /// A known natural.
    Nat(u64),
    /// A known boolean.
    Bool(bool),
    /// The empty list.
    Nil,
    /// A cons cell.
    Cons(Box<PKey>, Box<PKey>),
    /// A closure: lambda-site identity, origin mask, plus the skeletons
    /// of its captured environment.
    Clo {
        /// Module of the lambda site.
        module: ModName,
        /// Lambda-site id within the module.
        lam_id: u32,
        /// Origin binding-time mask (it changes how the body specialises).
        mask: u128,
        /// Skeletons of captured values.
        env: Vec<PKey>,
    },
    /// A dynamic leaf.
    Hole,
}

/// Splits a value into its skeleton and the residual code of its dynamic
/// leaves (in deterministic left-to-right order).
pub fn split(v: &PVal<'_>, leaves: &mut Vec<Expr>) -> PKey {
    split_hashed(v, leaves).0
}

/// Like [`split`], but also returns a structural hash of the skeleton,
/// computed in the same traversal. The memo table probes on this hash
/// first, so the common case (a repeat request) costs one `u64` compare
/// instead of a deep [`PKey`] walk; equal hashes are collision-checked
/// against the full skeleton.
pub fn split_hashed(v: &PVal<'_>, leaves: &mut Vec<Expr>) -> (PKey, u64) {
    let mut h = FNV_OFFSET;
    let key = split_into(v, leaves, &mut h);
    (key, h)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Seed for folding per-argument skeleton hashes into a single memo hash
/// with [`hash_fold`].
pub const SKELETON_SEED: u64 = FNV_OFFSET;

/// Folds one [`split_hashed`] hash into an accumulated argument-list
/// hash.
#[inline]
pub fn hash_fold(acc: u64, h: u64) -> u64 {
    (acc ^ h).wrapping_mul(FNV_PRIME)
}

/// The memo hash of an argument list of `n` all-[`PKey::Hole`] skeletons
/// — the key shape produced when the engine's generalising fallback
/// abandons the static skeleton and lifts every argument to code. Equals
/// what [`split_hashed`] + [`hash_fold`] would compute over `n` `Code`
/// values.
pub fn all_holes_hash(n: usize) -> u64 {
    let mut acc = SKELETON_SEED;
    for _ in 0..n {
        let mut h = FNV_OFFSET;
        mix(&mut h, 6);
        acc = hash_fold(acc, h);
    }
    acc
}

#[inline]
fn mix(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(FNV_PRIME);
}

fn split_into(v: &PVal<'_>, leaves: &mut Vec<Expr>, h: &mut u64) -> PKey {
    match v {
        PVal::Nat(n) => {
            mix(h, 1);
            mix(h, *n);
            PKey::Nat(*n)
        }
        PVal::Bool(b) => {
            mix(h, 2);
            mix(h, u64::from(*b));
            PKey::Bool(*b)
        }
        PVal::Nil => {
            mix(h, 3);
            PKey::Nil
        }
        PVal::Cons(c) => {
            mix(h, 4);
            let hk = split_into(&c.0, leaves, h);
            let tk = split_into(&c.1, leaves, h);
            PKey::Cons(Box::new(hk), Box::new(tk))
        }
        PVal::Clo(c) => {
            mix(h, 5);
            mix(h, u64::from(c.module.sym().id()));
            mix(h, u64::from(c.lam_id));
            mix(h, c.mask.0 as u64);
            mix(h, (c.mask.0 >> 64) as u64);
            let env = c.env.iter().map(|e| split_into(e, leaves, h)).collect();
            PKey::Clo { module: c.module, lam_id: c.lam_id, mask: c.mask.0, env }
        }
        PVal::Code(e) => {
            mix(h, 6);
            leaves.push((**e).clone());
            PKey::Hole
        }
    }
}

/// Rebuilds a value with each dynamic leaf replaced by a reference to the
/// corresponding fresh formal parameter. `names` must have exactly as
/// many entries as [`split`] produced leaves; `next` tracks consumption.
pub fn rebuild<'p>(v: &PVal<'p>, names: &[Ident], next: &mut usize) -> PVal<'p> {
    match v {
        PVal::Nat(_) | PVal::Bool(_) | PVal::Nil => v.clone(),
        PVal::Cons(c) => {
            let h2 = rebuild(&c.0, names, next);
            let t2 = rebuild(&c.1, names, next);
            PVal::cons(h2, t2)
        }
        PVal::Clo(c) => {
            let env = c.env.iter().map(|e| rebuild(e, names, next)).collect();
            PVal::Clo(Rc::new(Closure {
                param: c.param,
                body: c.body,
                env,
                free_fns: c.free_fns,
                lam_id: c.lam_id,
                module: c.module,
                mask: c.mask,
            }))
        }
        PVal::Code(_) => {
            let name = names[*next];
            *next += 1;
            PVal::code(Expr::Var(name))
        }
    }
}

/// Converts a fully static value back to an interpreter [`Value`]
/// (`None` if it contains code or closures).
pub fn to_value(v: &PVal<'_>) -> Option<Value> {
    match v {
        PVal::Nat(n) => Some(Value::Nat(*n)),
        PVal::Bool(b) => Some(Value::Bool(*b)),
        PVal::Nil => Some(Value::Nil),
        PVal::Cons(c) => Some(Value::Cons(Rc::new(to_value(&c.0)?), Rc::new(to_value(&c.1)?))),
        PVal::Clo(_) | PVal::Code(_) => None,
    }
}

/// Builds the literal expression denoting a fully static first-order
/// value (no closures). Used when lifting static data into residual code.
pub fn quote_static(v: &PVal<'_>) -> Option<Expr> {
    match v {
        PVal::Nat(n) => Some(Expr::Nat(*n)),
        PVal::Bool(b) => Some(Expr::Bool(*b)),
        PVal::Nil => Some(Expr::Nil),
        PVal::Cons(c) => Some(Expr::Prim(
            PrimOp::Cons,
            vec![quote_static(&c.0)?, quote_static(&c.1)?],
        )),
        PVal::Code(e) => Some((**e).clone()),
        PVal::Clo(_) => None, // closures need the engine's eta-expansion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static BODY: GExp = GExp::Var(0);

    fn clo<'p>(env: Vec<PVal<'p>>, free_fns: &'p [QualName]) -> PVal<'p> {
        PVal::Clo(Rc::new(Closure {
            param: Ident::new("x"),
            body: &BODY,
            env,
            free_fns,
            lam_id: 7,
            module: ModName::new("B"),
            mask: BtMask::all_static(),
        }))
    }

    #[test]
    fn from_value_converts_data() {
        let v = Value::list(vec![Value::nat(1), Value::bool_(true)]);
        let p = PVal::from_value(&v).unwrap();
        assert!(p.is_fully_static());
        assert_eq!(to_value(&p), Some(v));
    }

    #[test]
    fn split_fully_static_has_no_leaves() {
        let p = PVal::cons(PVal::Nat(1), PVal::Nil);
        let mut leaves = Vec::new();
        let k = split(&p, &mut leaves);
        assert!(leaves.is_empty());
        assert_eq!(k, PKey::Cons(Box::new(PKey::Nat(1)), Box::new(PKey::Nil)));
    }

    #[test]
    fn split_collects_dynamic_leaves_in_order() {
        // cons(code(a), cons(2, code(b)))
        let p = PVal::cons(
            PVal::code(Expr::Var(Ident::new("a"))),
            PVal::cons(PVal::Nat(2), PVal::code(Expr::Var(Ident::new("b")))),
        );
        let mut leaves = Vec::new();
        let k = split(&p, &mut leaves);
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0], Expr::Var(Ident::new("a")));
        assert_eq!(leaves[1], Expr::Var(Ident::new("b")));
        // Skeleton has holes in the right places.
        assert_eq!(
            k,
            PKey::Cons(
                Box::new(PKey::Hole),
                Box::new(PKey::Cons(Box::new(PKey::Nat(2)), Box::new(PKey::Hole)))
            )
        );
    }

    #[test]
    fn all_holes_hash_matches_split_of_code_values() {
        for n in 0..4 {
            let mut leaves = Vec::new();
            let mut acc = SKELETON_SEED;
            for i in 0..n {
                let v = PVal::code(Expr::Var(Ident::new(format!("x{i}"))));
                let (k, h) = split_hashed(&v, &mut leaves);
                assert_eq!(k, PKey::Hole);
                acc = hash_fold(acc, h);
            }
            assert_eq!(acc, all_holes_hash(n), "n = {n}");
        }
    }

    #[test]
    fn closures_key_on_site_and_static_env() {
        let c1 = clo(vec![PVal::Nat(1), PVal::code(Expr::Var(Ident::new("z")))], &[]);
        let c2 = clo(vec![PVal::Nat(1), PVal::code(Expr::Var(Ident::new("w")))], &[]);
        let mut l1 = Vec::new();
        let mut l2 = Vec::new();
        // Same static parts, different dynamic leaves → same key.
        assert_eq!(split(&c1, &mut l1), split(&c2, &mut l2));
        assert_eq!(l1.len(), 1);
        // Different static env → different key.
        let c3 = clo(vec![PVal::Nat(2), PVal::code(Expr::Var(Ident::new("z")))], &[]);
        let mut l3 = Vec::new();
        assert_ne!(split(&c1, &mut l1), split(&c3, &mut l3));
    }

    #[test]
    fn rebuild_replaces_leaves_with_formals() {
        let p = PVal::cons(PVal::code(Expr::Nat(13)), PVal::Nat(5));
        let names = vec![Ident::new("d0")];
        let mut next = 0;
        let rebuilt = rebuild(&p, &names, &mut next);
        assert_eq!(next, 1);
        match rebuilt {
            PVal::Cons(c) => {
                assert!(matches!(&c.0, PVal::Code(e) if matches!(&**e, Expr::Var(n) if n.as_str() == "d0")));
                assert!(matches!(&c.1, PVal::Nat(5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rebuild_reaches_into_closure_envs() {
        let c = clo(vec![PVal::code(Expr::Nat(13))], &[]);
        let names = vec![Ident::new("z0")];
        let mut next = 0;
        let rebuilt = rebuild(&c, &names, &mut next);
        match rebuilt {
            PVal::Clo(c2) => {
                assert!(matches!(&c2.env[0], PVal::Code(e) if matches!(&**e, Expr::Var(n) if n.as_str() == "z0")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn free_fns_sees_through_structure() {
        let fns = [QualName::new("P", "power")];
        let p = PVal::cons(clo(vec![], &fns), PVal::Nil);
        let mut fns = Vec::new();
        p.free_fns(&mut fns);
        assert_eq!(fns, vec![QualName::new("P", "power")]);
        // Functions inside dynamic leaves are NOT collected.
        let dynamic = PVal::code(Expr::Call(
            mspec_lang::CallName::resolved("X", "f"),
            vec![],
        ));
        let mut fns2 = Vec::new();
        dynamic.free_fns(&mut fns2);
        assert!(fns2.is_empty());
    }

    #[test]
    fn quote_static_builds_literals() {
        let p = PVal::cons(PVal::Nat(1), PVal::Nil);
        let e = quote_static(&p).unwrap();
        assert_eq!(
            e,
            Expr::Prim(PrimOp::Cons, vec![Expr::Nat(1), Expr::Nil])
        );
        assert!(quote_static(&clo(vec![], &[])).is_none());
    }

    #[test]
    fn from_value_rejects_closures() {
        use mspec_lang::eval::{ClosureVal, Env};
        let v = Value::Closure(Rc::new(ClosureVal {
            param: Ident::new("x"),
            body: Expr::Var(Ident::new("x")),
            env: Env::empty(),
        }));
        assert!(PVal::from_value(&v).is_none());
    }
}
