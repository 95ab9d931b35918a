//! The compiled generating-extension representation.
//!
//! Compilation (done by the `mspec-cogen` crate) turns an annotated
//! definition into a [`GExp`] tree in which
//!
//! * variables are resolved to environment *slots* (no name lookup at
//!   specialisation time),
//! * every symbolic binding time is a [`BtCode`] — a 128-bit mask plus a
//!   forced flag, so deciding static-vs-dynamic is a single AND against
//!   the call's binding-time mask (the paper's aim that "little
//!   binding-time computation needs to be performed at
//!   specialisation-time"),
//! * lambdas carry their captured slots and free function names
//!   (pre-computed for closure construction and §5 placement).
//!
//! [`GenModule`]s serialise to `.gx` files: the paper's "compiled
//! generating extension of a module", linkable without any source code.
//! Linking numbers every function densely; a function is *resolved* the
//! first time it is looked up — each of its calls is given its callee's
//! index — so an unfold at specialisation time is an array access.

use crate::error::SpecError;
use mspec_bta::{BtMask, BtSignature, BtTerm, CoerceSpec};
use mspec_lang::ast::{Ident, ModName, PrimOp, QualName};
use mspec_lang::modgraph::ModGraph;
use mspec_lang::{FromJson, Json, JsonError, Module, Program, ToJson};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The dense index of a linked function ([`GenProgram::fn_id`]).
pub type FnId = u32;

/// The callee of a [`GExp::Call`] that is not resolved (yet): compiled
/// and decoded calls carry it until their function is linked, and a
/// call to a function no linked module defines keeps it.
pub const UNRESOLVED: FnId = FnId::MAX;

/// A compiled binding-time term: evaluating it against a call's
/// [`BtMask`] costs one AND and one OR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtCode {
    /// The term is the constant `D`.
    pub forced: bool,
    /// Bit `i` set ⇔ signature variable `t_i` occurs in the lub.
    pub bits: u128,
}

impl BtCode {
    /// The constant `S`.
    pub fn s() -> BtCode {
        BtCode { forced: false, bits: 0 }
    }

    /// The constant `D`.
    pub fn d() -> BtCode {
        BtCode { forced: true, bits: 0 }
    }

    /// Compiles a symbolic term.
    pub fn compile(term: &BtTerm) -> BtCode {
        let (forced, bits) = term.bits();
        BtCode { forced, bits }
    }

    /// Compiles a term read from an artefact, where a variable past the
    /// 128-bit mask cannot be trusted away: it reads as `D`.
    fn compile_untrusted(term: &BtTerm) -> BtCode {
        let mut code = BtCode { forced: term.is_d(), bits: 0 };
        for v in term.vars() {
            match 1u128.checked_shl(v) {
                Some(bit) => code.bits |= bit,
                None => code.forced = true,
            }
        }
        code
    }

    /// `true` if the term evaluates to `D` under the mask.
    #[inline]
    pub fn is_dynamic(self, mask: BtMask) -> bool {
        self.forced || (self.bits & mask.0) != 0
    }
}

/// A compiled coercion (the run-time half of [`CoerceSpec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GCoerce {
    /// Lift to code when `from` is `S` and `to` is `D`.
    Base {
        /// Binding time of the value.
        from: BtCode,
        /// Binding time required.
        to: BtCode,
    },
    /// Lift the spine, or walk it coercing elements.
    List {
        /// Spine binding time of the value.
        from: BtCode,
        /// Spine binding time required.
        to: BtCode,
        /// Element coercion.
        elem: Box<GCoerce>,
        /// `true` if `elem` can never act (pre-computed).
        elem_identity: bool,
    },
    /// Eta-expand a static closure when the arrow rises to `D`.
    Fun {
        /// Arrow binding time of the value.
        from: BtCode,
        /// Arrow binding time required.
        to: BtCode,
    },
    /// Statically the identity.
    Id,
}

impl GCoerce {
    /// `true` if applying the coercion under `mask` leaves every value
    /// as it is, so a static spine need not be walked and rebuilt.
    pub(crate) fn is_noop(&self, mask: BtMask) -> bool {
        match self {
            GCoerce::Id => true,
            GCoerce::Base { from, to } | GCoerce::Fun { from, to } => {
                from.is_dynamic(mask) || !to.is_dynamic(mask)
            }
            GCoerce::List { from, to, elem, elem_identity } => {
                from.is_dynamic(mask)
                    || (!to.is_dynamic(mask) && (*elem_identity || elem.is_noop(mask)))
            }
        }
    }

    /// Compiles a coercion spec.
    pub fn compile(spec: &CoerceSpec) -> GCoerce {
        match spec {
            CoerceSpec::Id | CoerceSpec::Var { .. } => GCoerce::Id,
            CoerceSpec::Base { from, to } => {
                GCoerce::Base { from: BtCode::compile(from), to: BtCode::compile(to) }
            }
            CoerceSpec::Fun { from, to } => {
                GCoerce::Fun { from: BtCode::compile(from), to: BtCode::compile(to) }
            }
            CoerceSpec::List { from, to, elem } => {
                let compiled = GCoerce::compile(elem);
                let elem_identity = matches!(compiled, GCoerce::Id);
                GCoerce::List {
                    from: BtCode::compile(from),
                    to: BtCode::compile(to),
                    elem: Box::new(compiled),
                    elem_identity,
                }
            }
        }
    }
}

/// A compiled generating-extension expression.
#[derive(Debug, Clone, PartialEq)]
pub enum GExp {
    /// Literal natural.
    Nat(u64),
    /// Literal boolean.
    Bool(bool),
    /// Empty list.
    Nil,
    /// Environment slot.
    Var(u32),
    /// `mk_op`: perform when the code evaluates `S`, residualise when `D`.
    Prim(PrimOp, BtCode, Vec<GExp>),
    /// `mk_if`.
    If(BtCode, Box<GExp>, Box<GExp>, Box<GExp>),
    /// `mk_resid`/unfold of a named function. `inst` maps each callee
    /// signature variable to a term over the caller's variables.
    Call {
        /// The callee.
        target: QualName,
        /// The callee's [`FnId`] in the program the enclosing function
        /// is linked into; [`UNRESOLVED`] before that. Not serialised.
        callee: FnId,
        /// Signature instantiation, one code per callee variable.
        inst: Vec<BtCode>,
        /// Argument expressions.
        args: Vec<GExp>,
    },
    /// Build a static closure.
    Lam {
        /// Parameter name (for readable residual code).
        param: Ident,
        /// Body, compiled against a frame of `captured.len() + 1` slots.
        body: Arc<GExp>,
        /// Slots of the enclosing frame to capture, in order.
        captured: Vec<u32>,
        /// Named functions reachable from the body (for §5 placement).
        free_fns: Arc<Vec<QualName>>,
        /// Site identity (for memoisation keys).
        lam_id: u32,
    },
    /// `mk_app`: unfold the closure when `S`, residual application when `D`.
    App(BtCode, Box<GExp>, Box<GExp>),
    /// Evaluate, push a slot, continue.
    Let(Box<GExp>, Box<GExp>),
    /// A binding-time coercion.
    Coerce(GCoerce, Box<GExp>),
}

impl GExp {
    /// Number of nodes (size metric for the genext-size experiments).
    pub fn size(&self) -> usize {
        match self {
            GExp::Nat(_) | GExp::Bool(_) | GExp::Nil | GExp::Var(_) => 1,
            GExp::Prim(_, _, args) | GExp::Call { args, .. } => {
                1 + args.iter().map(GExp::size).sum::<usize>()
            }
            GExp::If(_, c, t, e) => 1 + c.size() + t.size() + e.size(),
            GExp::Lam { body, .. } => 1 + body.size(),
            GExp::App(_, f, a) => 1 + f.size() + a.size(),
            GExp::Let(e, b) => 1 + e.size() + b.size(),
            GExp::Coerce(_, e) => 1 + e.size(),
        }
    }
}

/// The generating extension of one named function (the paper's
/// `mk_f` + `mk_f_body` pair, §4.2 Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct GenFn {
    /// The function's qualified name.
    pub name: QualName,
    /// Original parameter names (used to name residual formals).
    pub params: Vec<Ident>,
    /// The binding-time signature (mask width, unfold decision, shapes).
    pub sig: BtSignature,
    /// The compiled body.
    pub body: Arc<GExp>,
    /// The signature's unfold term, compiled: a call under mask `m` is
    /// unfolded iff `!unfold.is_dynamic(m)`. Derived, not serialised.
    pub unfold: BtCode,
}

impl GenFn {
    /// A function's generating extension, its unfold test compiled from
    /// the signature.
    pub fn new(name: QualName, params: Vec<Ident>, sig: BtSignature, body: GExp) -> GenFn {
        let unfold = BtCode::compile_untrusted(&sig.unfold);
        GenFn { name, params, sig, body: Arc::new(body), unfold }
    }
}

/// The generating extension of one module — what the `.gx` file holds.
#[derive(Debug, Clone, PartialEq)]
pub struct GenModule {
    /// The module's name.
    pub name: ModName,
    /// Its direct imports (needed for placement).
    pub imports: Vec<ModName>,
    /// Generating extensions of its definitions.
    pub fns: Vec<GenFn>,
}

impl GenModule {
    /// Serialises to the `.gx` file format (JSON).
    ///
    /// # Errors
    ///
    /// Never fails for well-formed modules; the `Result` is kept for
    /// genext-file API stability.
    pub fn to_json(&self) -> Result<String, JsonError> {
        Ok(self.to_json_compact())
    }

    /// Reads a `.gx` file back.
    ///
    /// # Errors
    ///
    /// Returns an error if `s` is not a valid genext file.
    pub fn from_json(s: &str) -> Result<GenModule, JsonError> {
        GenModule::from_json_str(s)
    }
}

impl ToJson for BtCode {
    fn to_json_value(&self) -> Json {
        if self.forced {
            Json::str("D")
        } else {
            Json::Num(self.bits)
        }
    }
}

impl FromJson for BtCode {
    fn from_json_value(j: &Json) -> Result<BtCode, JsonError> {
        if let Ok(s) = j.as_str() {
            return match s {
                "D" => Ok(BtCode::d()),
                other => Err(JsonError(format!("unknown binding-time code `{other}`"))),
            };
        }
        Ok(BtCode { forced: false, bits: j.as_u128()? })
    }
}

impl ToJson for GCoerce {
    fn to_json_value(&self) -> Json {
        match self {
            GCoerce::Id => Json::str("id"),
            GCoerce::Base { from, to } => {
                Json::obj([("base", Json::Arr(vec![from.to_json_value(), to.to_json_value()]))])
            }
            GCoerce::Fun { from, to } => {
                Json::obj([("fun", Json::Arr(vec![from.to_json_value(), to.to_json_value()]))])
            }
            // `elem_identity` is derived, so it is not stored.
            GCoerce::List { from, to, elem, .. } => Json::obj([(
                "list",
                Json::Arr(vec![from.to_json_value(), to.to_json_value(), elem.to_json_value()]),
            )]),
        }
    }
}

impl FromJson for GCoerce {
    fn from_json_value(j: &Json) -> Result<GCoerce, JsonError> {
        if let Ok(s) = j.as_str() {
            return match s {
                "id" => Ok(GCoerce::Id),
                other => Err(JsonError(format!("unknown coercion `{other}`"))),
            };
        }
        let pair = |v: &Json| -> Result<(BtCode, BtCode), JsonError> {
            let parts = v.as_arr()?;
            if parts.len() != 2 {
                return Err(JsonError("coercion expects [from, to]".into()));
            }
            Ok((BtCode::from_json_value(&parts[0])?, BtCode::from_json_value(&parts[1])?))
        };
        match j.as_obj()? {
            [(k, v)] if k == "base" => {
                let (from, to) = pair(v)?;
                Ok(GCoerce::Base { from, to })
            }
            [(k, v)] if k == "fun" => {
                let (from, to) = pair(v)?;
                Ok(GCoerce::Fun { from, to })
            }
            [(k, v)] if k == "list" => {
                let parts = v.as_arr()?;
                if parts.len() != 3 {
                    return Err(JsonError("`list` coercion expects [from, to, elem]".into()));
                }
                let elem = GCoerce::from_json_value(&parts[2])?;
                let elem_identity = matches!(elem, GCoerce::Id);
                Ok(GCoerce::List {
                    from: BtCode::from_json_value(&parts[0])?,
                    to: BtCode::from_json_value(&parts[1])?,
                    elem: Box::new(elem),
                    elem_identity,
                })
            }
            _ => Err(JsonError("malformed coercion".into())),
        }
    }
}

impl ToJson for GExp {
    fn to_json_value(&self) -> Json {
        match self {
            GExp::Nat(n) => Json::obj([("nat", Json::Num(u128::from(*n)))]),
            GExp::Bool(b) => Json::Bool(*b),
            GExp::Nil => Json::str("nil"),
            GExp::Var(slot) => Json::obj([("var", Json::Num(u128::from(*slot)))]),
            GExp::Prim(op, bt, args) => Json::obj([(
                "prim",
                Json::Arr(vec![op.to_json_value(), bt.to_json_value(), args.to_json_value()]),
            )]),
            GExp::If(bt, c, t, e) => Json::obj([(
                "if",
                Json::Arr(vec![
                    bt.to_json_value(),
                    c.to_json_value(),
                    t.to_json_value(),
                    e.to_json_value(),
                ]),
            )]),
            GExp::Call { target, inst, args, .. } => Json::obj([(
                "call",
                Json::Arr(vec![target.to_json_value(), inst.to_json_value(), args.to_json_value()]),
            )]),
            GExp::Lam { param, body, captured, free_fns, lam_id } => Json::obj([(
                "lam",
                Json::Arr(vec![
                    param.to_json_value(),
                    body.to_json_value(),
                    Json::Arr(captured.iter().map(|s| Json::Num(u128::from(*s))).collect()),
                    free_fns.to_json_value(),
                    Json::Num(u128::from(*lam_id)),
                ]),
            )]),
            GExp::App(bt, f, a) => Json::obj([(
                "app",
                Json::Arr(vec![bt.to_json_value(), f.to_json_value(), a.to_json_value()]),
            )]),
            GExp::Let(e, b) => {
                Json::obj([("let", Json::Arr(vec![e.to_json_value(), b.to_json_value()]))])
            }
            GExp::Coerce(spec, e) => {
                Json::obj([("coerce", Json::Arr(vec![spec.to_json_value(), e.to_json_value()]))])
            }
        }
    }
}

impl FromJson for GExp {
    fn from_json_value(j: &Json) -> Result<GExp, JsonError> {
        if let Ok(b) = j.as_bool() {
            return Ok(GExp::Bool(b));
        }
        if let Ok(s) = j.as_str() {
            return match s {
                "nil" => Ok(GExp::Nil),
                other => Err(JsonError(format!("unknown expression `{other}`"))),
            };
        }
        let arity = |v: &Json, n: usize, what: &str| -> Result<Vec<Json>, JsonError> {
            let parts = v.as_arr()?;
            if parts.len() != n {
                return Err(JsonError(format!("`{what}` expects {n} fields")));
            }
            Ok(parts.to_vec())
        };
        match j.as_obj()? {
            [(k, v)] if k == "nat" => Ok(GExp::Nat(v.as_u64()?)),
            [(k, v)] if k == "var" => Ok(GExp::Var(v.as_u32()?)),
            [(k, v)] if k == "prim" => {
                let p = arity(v, 3, "prim")?;
                Ok(GExp::Prim(
                    PrimOp::from_json_value(&p[0])?,
                    BtCode::from_json_value(&p[1])?,
                    Vec::from_json_value(&p[2])?,
                ))
            }
            [(k, v)] if k == "if" => {
                let p = arity(v, 4, "if")?;
                Ok(GExp::If(
                    BtCode::from_json_value(&p[0])?,
                    Box::new(GExp::from_json_value(&p[1])?),
                    Box::new(GExp::from_json_value(&p[2])?),
                    Box::new(GExp::from_json_value(&p[3])?),
                ))
            }
            [(k, v)] if k == "call" => {
                let p = arity(v, 3, "call")?;
                Ok(GExp::Call {
                    target: QualName::from_json_value(&p[0])?,
                    callee: UNRESOLVED,
                    inst: Vec::from_json_value(&p[1])?,
                    args: Vec::from_json_value(&p[2])?,
                })
            }
            [(k, v)] if k == "lam" => {
                let p = arity(v, 5, "lam")?;
                let mut captured = Vec::new();
                for s in p[2].as_arr()? {
                    captured.push(s.as_u32()?);
                }
                Ok(GExp::Lam {
                    param: Ident::from_json_value(&p[0])?,
                    body: Arc::new(GExp::from_json_value(&p[1])?),
                    captured,
                    free_fns: Arc::new(Vec::from_json_value(&p[3])?),
                    lam_id: p[4].as_u32()?,
                })
            }
            [(k, v)] if k == "app" => {
                let p = arity(v, 3, "app")?;
                Ok(GExp::App(
                    BtCode::from_json_value(&p[0])?,
                    Box::new(GExp::from_json_value(&p[1])?),
                    Box::new(GExp::from_json_value(&p[2])?),
                ))
            }
            [(k, v)] if k == "let" => {
                let p = arity(v, 2, "let")?;
                Ok(GExp::Let(
                    Box::new(GExp::from_json_value(&p[0])?),
                    Box::new(GExp::from_json_value(&p[1])?),
                ))
            }
            [(k, v)] if k == "coerce" => {
                let p = arity(v, 2, "coerce")?;
                Ok(GExp::Coerce(
                    GCoerce::from_json_value(&p[0])?,
                    Box::new(GExp::from_json_value(&p[1])?),
                ))
            }
            _ => Err(JsonError("malformed genext expression".into())),
        }
    }
}

impl ToJson for GenFn {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json_value()),
            ("params", self.params.to_json_value()),
            ("sig", self.sig.to_json_value()),
            ("body", self.body.to_json_value()),
        ])
    }
}

impl FromJson for GenFn {
    fn from_json_value(j: &Json) -> Result<GenFn, JsonError> {
        Ok(GenFn::new(
            QualName::from_json_value(j.get("name")?)?,
            Vec::from_json_value(j.get("params")?)?,
            BtSignature::from_json_value(j.get("sig")?)?,
            GExp::from_json_value(j.get("body")?)?,
        ))
    }
}

impl ToJson for GenModule {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json_value()),
            ("imports", self.imports.to_json_value()),
            ("fns", self.fns.to_json_value()),
        ])
    }
}

impl FromJson for GenModule {
    fn from_json_value(j: &Json) -> Result<GenModule, JsonError> {
        Ok(GenModule {
            name: ModName::from_json_value(j.get("name")?)?,
            imports: Vec::from_json_value(j.get("imports")?)?,
            fns: Vec::from_json_value(j.get("fns")?)?,
        })
    }
}

/// One function handed to the linker: either already decoded, or still
/// the compact JSON slice it occupies inside a seekable `.gx` body
/// (format v2), to be decoded only if the engine ever looks it up.
#[derive(Debug)]
pub enum FnUnit {
    /// Decoded and ready to specialise.
    Ready(Box<GenFn>),
    /// Still encoded; the linker indexes it by name without parsing.
    Encoded {
        /// The function's qualified name (from the `.gx` offset table).
        name: QualName,
        /// The compact JSON encoding of the [`GenFn`].
        encoded: Box<str>,
    },
}

impl FnUnit {
    /// The function's name, available without decoding.
    pub fn name(&self) -> QualName {
        match self {
            FnUnit::Ready(f) => f.name,
            FnUnit::Encoded { name, .. } => *name,
        }
    }
}

/// A module's linker-facing skeleton: name, imports, and functions that
/// may still be encoded. [`GenProgram::link_units`] consumes these;
/// `From<GenModule>` gives the fully-decoded form.
#[derive(Debug)]
pub struct LinkUnit {
    /// The module's name.
    pub name: ModName,
    /// Its direct imports (needed for placement).
    pub imports: Vec<ModName>,
    /// Its functions, decoded or lazily encoded.
    pub fns: Vec<FnUnit>,
}

impl From<GenModule> for LinkUnit {
    fn from(m: GenModule) -> LinkUnit {
        LinkUnit {
            name: m.name,
            imports: m.imports,
            fns: m.fns.into_iter().map(|f| FnUnit::Ready(Box::new(f))).collect(),
        }
    }
}

/// A linked function: its source until first lookup, then the resolved
/// function (`None` if an encoded body failed to decode).
#[derive(Debug)]
struct FnSlot {
    source: Mutex<Option<FnUnit>>,
    linked: OnceLock<Option<GenFn>>,
}

/// Gives every call in `e` its callee's index.
fn resolve_calls(e: &mut GExp, index: &HashMap<QualName, FnId>) {
    match e {
        GExp::Nat(_) | GExp::Bool(_) | GExp::Nil | GExp::Var(_) => {}
        GExp::Prim(_, _, args) => args.iter_mut().for_each(|a| resolve_calls(a, index)),
        GExp::Call { target, callee, args, .. } => {
            *callee = index.get(target).copied().unwrap_or(UNRESOLVED);
            args.iter_mut().for_each(|a| resolve_calls(a, index));
        }
        GExp::If(_, c, t, f) => {
            resolve_calls(c, index);
            resolve_calls(t, index);
            resolve_calls(f, index);
        }
        GExp::Lam { body, .. } => resolve_calls(Arc::make_mut(body), index),
        GExp::App(_, a, b) | GExp::Let(a, b) => {
            resolve_calls(a, index);
            resolve_calls(b, index);
        }
        GExp::Coerce(_, inner) => resolve_calls(inner, index),
    }
}

/// A linked program: generating extensions of all modules, ready to run.
///
/// Linking needs no source code — only `.gx` modules — reproducing the
/// paper's point that library sources stay private. Linking numbers the
/// functions and walks no body: a function is decoded (if it came from a
/// seekable v2 `.gx` file) and resolved on first lookup, so a session
/// pays for the definitions it actually uses;
/// [`GenProgram::lazy_decoded_bytes`] reports how much was decoded.
#[derive(Debug)]
pub struct GenProgram {
    fns: Vec<FnSlot>,
    index: HashMap<QualName, FnId>,
    modules: usize,
    graph: ModGraph,
    lazy_decoded: AtomicU64,
}

impl GenProgram {
    /// Links generating extensions of modules into a runnable program.
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateModule`] for clashing module names, or a
    /// cyclic/missing-import error surfaced as
    /// [`SpecError::TypeConfusion`] (cannot happen for modules produced
    /// by the cogen from a resolved program).
    pub fn link(modules: Vec<GenModule>) -> Result<GenProgram, SpecError> {
        GenProgram::link_units(modules.into_iter().map(LinkUnit::from).collect())
    }

    /// Links modules whose functions may still be encoded (loaded from
    /// seekable `.gx` files). Indexing uses only the names from the
    /// offset table; no function body is parsed here.
    ///
    /// # Errors
    ///
    /// Same contract as [`GenProgram::link`].
    pub fn link_units(units: Vec<LinkUnit>) -> Result<GenProgram, SpecError> {
        let mut index = HashMap::new();
        for u in &units {
            for f in &u.fns {
                let id = FnId::try_from(index.len()).map_err(|_| {
                    SpecError::TypeConfusion("more linked functions than indices".into())
                })?;
                if index.insert(f.name(), id).is_some() {
                    return Err(SpecError::DuplicateModule(u.name));
                }
            }
        }
        // Rebuild the import graph from the module skeletons.
        let skeleton = Program::new(
            units
                .iter()
                .map(|u| Module::new(u.name, u.imports.clone(), vec![]))
                .collect(),
        );
        let graph = ModGraph::new(&skeleton).map_err(|e| SpecError::TypeConfusion(e.to_string()))?;
        let modules = units.len();
        let fns = units
            .into_iter()
            .flat_map(|u| u.fns)
            .map(|f| FnSlot { source: Mutex::new(Some(f)), linked: OnceLock::new() })
            .collect();
        Ok(GenProgram { fns, index, modules, graph, lazy_decoded: AtomicU64::new(0) })
    }

    /// The dense index of a linked function.
    pub fn fn_id(&self, q: &QualName) -> Option<FnId> {
        self.index.get(q).copied()
    }

    /// Looks up a function's generating extension.
    pub fn function(&self, q: &QualName) -> Option<&GenFn> {
        self.function_at(self.fn_id(q)?)
    }

    /// The function with index `id`, decoding it (if it was linked
    /// lazily) and resolving its calls on first use. A lazily-linked
    /// function that fails to decode behaves as absent — this cannot
    /// happen for artefacts that passed the `.gx` checksum, whose offset
    /// table and body were written together.
    pub fn function_at(&self, id: FnId) -> Option<&GenFn> {
        let slot = self.fns.get(id as usize)?;
        slot.linked
            .get_or_init(|| {
                let source = match slot.source.lock() {
                    Ok(mut s) => s.take(),
                    Err(poisoned) => poisoned.into_inner().take(),
                };
                let mut f = match source? {
                    FnUnit::Ready(f) => *f,
                    FnUnit::Encoded { encoded, .. } => {
                        self.lazy_decoded.fetch_add(encoded.len() as u64, Ordering::Relaxed);
                        GenFn::from_json_str(&encoded).ok()?
                    }
                };
                resolve_calls(Arc::make_mut(&mut f.body), &self.index);
                Some(f)
            })
            .as_ref()
    }

    /// Number of linked modules.
    pub fn module_count(&self) -> usize {
        self.modules
    }

    /// The (source) module import graph, used by placement.
    pub fn graph(&self) -> &ModGraph {
        &self.graph
    }

    /// Total number of linked functions.
    pub fn fn_count(&self) -> usize {
        self.fns.len()
    }

    /// Bytes of function payload decoded lazily since linking — the
    /// in-memory counterpart of the `io.gx_bytes_decoded` counter.
    pub fn lazy_decoded_bytes(&self) -> u64 {
        self.lazy_decoded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btcode_evaluates_with_one_and() {
        let t = BtTerm::lub_of([0, 2]);
        let c = BtCode::compile(&t);
        assert!(!c.is_dynamic(BtMask(0)));
        assert!(c.is_dynamic(BtMask(0b100)));
        assert!(c.is_dynamic(BtMask(0b001)));
        assert!(!c.is_dynamic(BtMask(0b010)));
        assert!(BtCode::d().is_dynamic(BtMask(0)));
        assert!(!BtCode::s().is_dynamic(BtMask(u128::MAX)));
    }

    #[test]
    fn gcoerce_compiles_identities() {
        assert_eq!(GCoerce::compile(&CoerceSpec::Id), GCoerce::Id);
        let spec = CoerceSpec::List {
            from: BtTerm::var(0),
            to: BtTerm::var(1),
            elem: Box::new(CoerceSpec::Id),
        };
        match GCoerce::compile(&spec) {
            GCoerce::List { elem_identity, .. } => assert!(elem_identity),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gexp_size_counts_nodes() {
        let e = GExp::Prim(
            PrimOp::Add,
            BtCode::s(),
            vec![GExp::Var(0), GExp::Coerce(GCoerce::Id, Box::new(GExp::Nat(1)))],
        );
        assert_eq!(e.size(), 4);
    }

    fn tiny_module() -> GenModule {
        GenModule {
            name: ModName::new("M"),
            imports: vec![],
            fns: vec![GenFn::new(
                QualName::new("M", "id"),
                vec![Ident::new("x")],
                BtSignature {
                    vars: 1,
                    constraints: vec![],
                    forced_d: vec![],
                    params: vec![mspec_bta::SigShape::Var(BtTerm::var(0))],
                    ret: mspec_bta::SigShape::Var(BtTerm::var(0)),
                    unfold: BtTerm::s(),
                },
                GExp::Var(0),
            )],
        }
    }

    #[test]
    fn genmodule_json_roundtrip() {
        let m = tiny_module();
        let js = m.to_json().unwrap();
        let back = GenModule::from_json(&js).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn link_and_lookup() {
        let p = GenProgram::link(vec![tiny_module()]).unwrap();
        assert!(p.function(&QualName::new("M", "id")).is_some());
        assert!(p.function(&QualName::new("M", "nope")).is_none());
        assert_eq!(p.fn_count(), 1);
        assert_eq!(p.module_count(), 1);
    }

    #[test]
    fn link_units_decodes_lazily_and_counts_bytes() {
        let m = tiny_module();
        let encoded: Box<str> = m.fns[0].to_json_compact().into();
        let encoded_len = encoded.len() as u64;
        let unit = LinkUnit {
            name: m.name,
            imports: vec![],
            fns: vec![FnUnit::Encoded { name: m.fns[0].name, encoded }],
        };
        let p = GenProgram::link_units(vec![unit]).unwrap();
        // Linking alone decodes nothing.
        assert_eq!(p.lazy_decoded_bytes(), 0);
        let q = QualName::new("M", "id");
        let f = p.function(&q).unwrap();
        assert_eq!(f.name, q);
        assert_eq!(p.lazy_decoded_bytes(), encoded_len);
        // A second lookup reuses the decoded function: no double count.
        assert!(p.function(&q).is_some());
        assert_eq!(p.lazy_decoded_bytes(), encoded_len);
    }

    #[test]
    fn link_units_rejects_duplicates_without_decoding() {
        let m = tiny_module();
        let enc: Box<str> = m.fns[0].to_json_compact().into();
        let mk = |enc: Box<str>| LinkUnit {
            name: m.name,
            imports: vec![],
            fns: vec![FnUnit::Encoded { name: m.fns[0].name, encoded: enc }],
        };
        assert!(matches!(
            GenProgram::link_units(vec![mk(enc.clone()), mk(enc)]),
            Err(SpecError::DuplicateModule(_))
        ));
    }

    #[test]
    fn link_rejects_duplicate_functions() {
        let m1 = tiny_module();
        let m2 = tiny_module();
        assert!(matches!(
            GenProgram::link(vec![m1, m2]),
            Err(SpecError::DuplicateModule(_))
        ));
    }
}
