//! Explicit-stack virtual machine over [`crate::bytecode`].
//!
//! The compiled fast path for running (residual) programs. Unlike the
//! tree evaluator ([`crate::eval`], the semantic ground truth), the VM
//! keeps its call stack on the heap: object-language recursion never consumes host
//! stack, so deep residual programs (folds over 50k-element lists, long
//! unfolded call chains) run without `with_big_stack` and without a
//! depth limit.
//!
//! Fuel is metered to the same *total* as the tree evaluator: one unit
//! per AST node of the original expression (see the metering contract in
//! [`crate::bytecode`]), with the exact-spend semantics of a budget of
//! `n` admitting exactly `n` charges. The differential suite
//! (`tests/vm_differential.rs`) checks value, error class and fuel
//! agreement on random programs.
//!
//! Values mirror [`crate::eval::Value`] except for functions: a VM
//! closure is a lambda-table index plus captured slot values, not an
//! expression plus environment, so function values cannot cross the VM
//! boundary in either direction. Every entry point in this repository
//! passes and returns first-order data, so [`Runner::Vm`] is a drop-in
//! default; programs that need to *return* a closure must use
//! [`Runner::Tree`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::{PrimOp, QualName};
use crate::bytecode::{compile, BcError, BcProgram, Const, Instr};
use crate::eval::{EvalError, Evaluator, Value, DEFAULT_FUEL};
use crate::resolve::ResolvedProgram;
use std::fmt;
use std::rc::Rc;

/// A run-time value of the VM.
#[derive(Debug, Clone)]
pub enum VmVal {
    /// A natural number.
    Nat(u64),
    /// A boolean.
    Bool(bool),
    /// The empty list.
    Nil,
    /// A cons cell: head and tail in one allocation, so taking either
    /// apart is one refcount bump.
    Cons(Rc<(VmVal, VmVal)>),
    /// A function value: a lambda-table index and its captured values.
    Clo(Rc<VmClosure>),
}

/// A VM closure: which lambda, over which captured values.
#[derive(Debug)]
pub struct VmClosure {
    /// Lambda-table index.
    pub lambda: u32,
    /// Captured values, in the lambda's capture order.
    pub env: Vec<VmVal>,
}

impl VmVal {
    /// Converts an evaluator value into a VM value. Iterative along the
    /// cons spine, so arbitrarily long lists convert in constant host
    /// stack (nesting inside list *elements* still recurses).
    ///
    /// # Errors
    ///
    /// [`EvalError::TypeMismatch`] for closures — tree-evaluator function
    /// values have no VM representation.
    pub fn from_value(v: &Value) -> Result<VmVal, EvalError> {
        match v {
            Value::Nat(n) => Ok(VmVal::Nat(*n)),
            Value::Bool(b) => Ok(VmVal::Bool(*b)),
            Value::Nil => Ok(VmVal::Nil),
            Value::Cons(..) => {
                let mut spine = Vec::new();
                let mut cur = v;
                while let Value::Cons(h, t) = cur {
                    spine.push(VmVal::from_value(h)?);
                    cur = t;
                }
                let mut acc = VmVal::from_value(cur)?;
                for h in spine.into_iter().rev() {
                    acc = VmVal::Cons(Rc::new((h, acc)));
                }
                Ok(acc)
            }
            Value::Closure(_) => Err(EvalError::TypeMismatch(
                "function values cannot cross the VM boundary".into(),
            )),
        }
    }

    /// Converts a VM value back into an evaluator value (iterative along
    /// the cons spine, like [`VmVal::from_value`]).
    ///
    /// # Errors
    ///
    /// [`EvalError::TypeMismatch`] for closures (see [`VmVal::from_value`]).
    pub fn to_value(&self) -> Result<Value, EvalError> {
        match self {
            VmVal::Nat(n) => Ok(Value::Nat(*n)),
            VmVal::Bool(b) => Ok(Value::Bool(*b)),
            VmVal::Nil => Ok(Value::Nil),
            VmVal::Cons(..) => {
                let mut spine = Vec::new();
                let mut cur = self;
                while let VmVal::Cons(c) = cur {
                    spine.push(c.0.to_value()?);
                    cur = &c.1;
                }
                let mut acc = cur.to_value()?;
                for h in spine.into_iter().rev() {
                    acc = Value::Cons(Rc::new(h), Rc::new(acc));
                }
                Ok(acc)
            }
            VmVal::Clo(_) => Err(EvalError::TypeMismatch(
                "function values cannot cross the VM boundary".into(),
            )),
        }
    }

    fn as_nat(&self, op: PrimOp) -> Result<u64, EvalError> {
        match self {
            VmVal::Nat(n) => Ok(*n),
            other => Err(EvalError::TypeMismatch(format!(
                "{} expects a natural, got {other}",
                op.symbol()
            ))),
        }
    }

    fn as_bool(&self, op: PrimOp) -> Result<bool, EvalError> {
        match self {
            VmVal::Bool(b) => Ok(*b),
            other => Err(EvalError::TypeMismatch(format!(
                "{} expects a boolean, got {other}",
                op.symbol()
            ))),
        }
    }
}

impl Drop for VmVal {
    fn drop(&mut self) {
        // Dropping a long list must not recurse one host frame per cell:
        // move the tail out of each uniquely-owned cell and unlink the
        // spine in a loop. A shared cell just loses one reference and
        // ends the walk.
        let VmVal::Cons(cell) = self else { return };
        let Some(cell) = Rc::get_mut(cell) else { return };
        let mut next = std::mem::replace(&mut cell.1, VmVal::Nil);
        while let VmVal::Cons(cell) = &mut next {
            let Some(cell) = Rc::get_mut(cell) else { break };
            let tail = std::mem::replace(&mut cell.1, VmVal::Nil);
            // The old `next` now ends in Nil, so its own drop is shallow.
            next = tail;
        }
    }
}

impl fmt::Display for VmVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmVal::Nat(n) => write!(f, "{n}"),
            VmVal::Bool(b) => write!(f, "{b}"),
            VmVal::Nil => write!(f, "[]"),
            VmVal::Cons(..) => {
                // Proper lists print like `Value`; improper ones cannot be
                // built by the object language.
                write!(f, "[")?;
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        VmVal::Cons(c) => {
                            if !first {
                                write!(f, ", ")?;
                            }
                            first = false;
                            write!(f, "{}", c.0)?;
                            cur = &c.1;
                        }
                        VmVal::Nil => return write!(f, "]"),
                        other => return write!(f, "| {other}]"),
                    }
                }
            }
            VmVal::Clo(_) => write!(f, "<closure>"),
        }
    }
}

/// One call frame: where its local slots start on the shared slot
/// stack, where to resume in the caller, and which chunk the caller was
/// executing (profile attribution only — control flow never reads it).
#[derive(Debug)]
struct Frame {
    base: usize,
    ret_pc: usize,
    ret_chunk: usize,
}

fn internal(what: &str) -> EvalError {
    EvalError::TypeMismatch(format!("vm internal error: {what}"))
}

/// Maps a bytecode-compilation error onto the evaluator's error type, so
/// both runners share one error surface.
pub fn bc_error(e: BcError) -> EvalError {
    match e {
        BcError::UnknownFunction(q) => EvalError::UnknownFunction(q),
        BcError::UnboundVariable(x) => EvalError::UnboundVariable(x),
        BcError::UnresolvedCall(x) => {
            EvalError::TypeMismatch(format!("unresolved call target `{x}`"))
        }
        BcError::TooLarge(what) => {
            EvalError::TypeMismatch(format!("bytecode limit exceeded: {what}"))
        }
    }
}

/// Cheap, always-on execution counters. Instruction counting shares the
/// fuel check's path (one add); depth peaks are sampled only at frame
/// pushes, so the hot dispatch loop is otherwise untouched. Fuel
/// *metering* is unchanged — a budget of `n` still admits exactly `n`
/// fuel-charging instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Fuel-charging instructions executed.
    pub instructions: u64,
    /// Peak call-frame depth.
    pub max_frames: u64,
    /// Peak operand-stack depth, sampled at frame pushes.
    pub max_stack: u64,
}

/// An explicit-stack interpreter over a compiled program.
#[derive(Debug)]
pub struct Vm<'p> {
    bc: &'p BcProgram,
    fuel: u64,
    stats: VmStats,
    /// Per-chunk fuel-charging instruction counts (chunk `k` = function
    /// `k`, then lambdas — [`BcProgram::chunk_count`]'s scheme). `None`
    /// unless [`Vm::enable_profiling`] was called; attribution happens
    /// only at frame transitions, so the hot dispatch path is untouched.
    profile: Option<Vec<u64>>,
}

impl<'p> Vm<'p> {
    /// Creates a VM with [`DEFAULT_FUEL`].
    pub fn new(bc: &'p BcProgram) -> Vm<'p> {
        Vm { bc, fuel: DEFAULT_FUEL, stats: VmStats::default(), profile: None }
    }

    /// Creates a VM with a custom step budget (a budget of `n` admits
    /// exactly `n` fuel-charging instructions).
    pub fn with_fuel(bc: &'p BcProgram, fuel: u64) -> Vm<'p> {
        Vm { bc, fuel, stats: VmStats::default(), profile: None }
    }

    /// Remaining fuel.
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// Execution counters accumulated so far (across calls).
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Turns on per-chunk profiling: fuel-charging instruction counts
    /// attributed to the chunk executing them, flushed at frame
    /// transitions. This is the measurement feeding profile-guided
    /// fusion ([`crate::fuse::fuse_chunks`]); fuel metering and
    /// [`VmStats`] are unaffected.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(vec![0; self.bc.chunk_count()]);
    }

    /// Per-chunk instruction counts, if profiling was enabled. A run
    /// that ended in an error loses only the segment since its last
    /// frame transition — hot loops transition constantly, so counts
    /// remain representative.
    pub fn profile(&self) -> Option<&[u64]> {
        self.profile.as_deref()
    }

    #[inline]
    fn spend(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        self.stats.instructions += 1;
        Ok(())
    }

    #[inline]
    fn note_depth(&mut self, frames: usize, stack: usize) {
        self.stats.max_frames = self.stats.max_frames.max(frames as u64);
        self.stats.max_stack = self.stats.max_stack.max(stack as u64);
    }

    /// Calls a top-level function with evaluator values at the boundary.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownFunction`] if the function was not compiled,
    /// [`EvalError::TypeMismatch`] on an argument-count mismatch or a
    /// function value at the boundary, plus any error the body raises.
    pub fn call(&mut self, q: &QualName, args: Vec<Value>) -> Result<Value, EvalError> {
        let idx = self.bc.index_of(q).ok_or(EvalError::UnknownFunction(*q))?;
        let f = self
            .bc
            .fns()
            .get(idx as usize)
            .ok_or_else(|| internal("function index out of range"))?;
        if f.arity as usize != args.len() {
            return Err(EvalError::TypeMismatch(format!(
                "{q} expects {} arguments, got {}",
                f.arity,
                args.len()
            )));
        }
        let mut slots = Vec::with_capacity(32);
        for a in &args {
            slots.push(VmVal::from_value(a)?);
        }
        self.run_at(f.entry, idx as usize, slots)?.to_value()
    }

    /// Flushes the instruction delta since `mark` onto `chunk`'s
    /// profile counter (no-op when profiling is off).
    #[inline]
    fn attribute(&mut self, chunk: usize, mark: &mut u64) {
        if let Some(p) = self.profile.as_mut() {
            if let Some(slot) = p.get_mut(chunk) {
                *slot += self.stats.instructions - *mark;
            }
            *mark = self.stats.instructions;
        }
    }

    /// The dispatch loop: executes from `entry` (an address in chunk
    /// `chunk`) with the entry frame's slots until the outermost chunk
    /// returns. All frames share one slot stack — a frame is the window
    /// from its base to the top — so calls, applications and `let`
    /// bindings move values rather than allocate frames.
    fn run_at(
        &mut self,
        entry: u32,
        chunk: usize,
        mut slots: Vec<VmVal>,
    ) -> Result<VmVal, EvalError> {
        let code = self.bc.code();
        let mut stack: Vec<VmVal> = Vec::with_capacity(32);
        let mut frames: Vec<Frame> = vec![Frame { base: 0, ret_pc: 0, ret_chunk: chunk }];
        self.note_depth(frames.len(), stack.len());
        // Base of the current (topmost) frame's slots.
        let mut base = 0;
        let mut pc = entry as usize;
        // Profile attribution state: instructions spent since `mark`
        // belong to `cur_chunk`; flushed at every frame transition.
        let mut cur_chunk = chunk;
        let mut mark = self.stats.instructions;
        loop {
            let instr = *code.get(pc).ok_or_else(|| internal("pc out of bounds"))?;
            match instr {
                Instr::Const(c) => {
                    self.spend()?;
                    stack.push(self.constant(c)?);
                    pc += 1;
                }
                Instr::Load(s) => {
                    self.spend()?;
                    stack.push(slot(&slots, base, s)?.clone());
                    pc += 1;
                }
                Instr::Prim(op) => {
                    self.spend()?;
                    let r = apply_prim(op, &mut stack)?;
                    stack.push(r);
                    pc += 1;
                }
                Instr::JumpIfFalse(t) => {
                    self.spend()?;
                    match stack.pop().ok_or_else(|| internal("stack underflow"))? {
                        VmVal::Bool(true) => pc += 1,
                        VmVal::Bool(false) => pc = t as usize,
                        other => {
                            return Err(EvalError::TypeMismatch(format!(
                                "if condition must be boolean, got {other}"
                            )))
                        }
                    }
                }
                Instr::Jump(t) => pc = t as usize,
                Instr::Call(i) => {
                    self.spend()?;
                    let f = self
                        .bc
                        .fns()
                        .get(i as usize)
                        .ok_or_else(|| internal("function index out of range"))?;
                    let args = stack
                        .len()
                        .checked_sub(f.arity as usize)
                        .ok_or_else(|| internal("stack underflow"))?;
                    base = slots.len();
                    slots.extend(stack.drain(args..));
                    frames.push(Frame { base, ret_pc: pc + 1, ret_chunk: cur_chunk });
                    self.note_depth(frames.len(), stack.len());
                    if self.profile.is_some() {
                        self.attribute(cur_chunk, &mut mark);
                    }
                    cur_chunk = i as usize;
                    pc = f.entry as usize;
                }
                Instr::MakeClosure(l) => {
                    self.spend()?;
                    let lam = self
                        .bc
                        .lambdas()
                        .get(l as usize)
                        .ok_or_else(|| internal("lambda index out of range"))?;
                    let env = lam
                        .captures
                        .iter()
                        .map(|s| slot(&slots, base, *s).cloned())
                        .collect::<Result<Vec<_>, _>>()?;
                    stack.push(VmVal::Clo(Rc::new(VmClosure { lambda: l, env })));
                    pc += 1;
                }
                Instr::Apply => {
                    self.spend()?;
                    let arg = stack.pop().ok_or_else(|| internal("stack underflow"))?;
                    let fv = stack.pop().ok_or_else(|| internal("stack underflow"))?;
                    match &fv {
                        VmVal::Clo(c) => {
                            let lam = self
                                .bc
                                .lambdas()
                                .get(c.lambda as usize)
                                .ok_or_else(|| internal("lambda index out of range"))?;
                            base = slots.len();
                            slots.extend(c.env.iter().cloned());
                            slots.push(arg);
                            frames.push(Frame { base, ret_pc: pc + 1, ret_chunk: cur_chunk });
                            self.note_depth(frames.len(), stack.len());
                            if self.profile.is_some() {
                                self.attribute(cur_chunk, &mut mark);
                            }
                            cur_chunk = self.bc.fn_count() + c.lambda as usize;
                            pc = lam.entry as usize;
                        }
                        other => {
                            return Err(EvalError::TypeMismatch(format!(
                                "applied non-function {other}"
                            )))
                        }
                    }
                }
                Instr::Bind => {
                    self.spend()?;
                    let v = stack.pop().ok_or_else(|| internal("stack underflow"))?;
                    slots.push(v);
                    pc += 1;
                }
                Instr::Unbind => {
                    if slots.len() <= base {
                        return Err(internal("unbind of empty frame"));
                    }
                    slots.pop();
                    pc += 1;
                }
                Instr::Return => {
                    let fr = frames.pop().ok_or_else(|| internal("no frame"))?;
                    slots.truncate(fr.base);
                    if self.profile.is_some() {
                        self.attribute(cur_chunk, &mut mark);
                    }
                    cur_chunk = fr.ret_chunk;
                    let Some(caller) = frames.last() else {
                        return stack.pop().ok_or_else(|| internal("stack underflow"));
                    };
                    base = caller.base;
                    pc = fr.ret_pc;
                }

                // Fused superinstructions ([`crate::fuse`]): each arm
                // spends once per constituent, in constituent order,
                // and evaluates operands in the unfused order, so fuel
                // totals, `VmStats` and budget-breach points are
                // bit-identical to the unfused sequence. What they skip
                // is dispatch and operand-stack traffic — the
                // intermediates never touch `stack`, which is safe for
                // `VmStats::max_stack` because stack depth is sampled
                // only at frame pushes and no fused window contains one.
                Instr::LoadConstPrim(s, c, op) => {
                    self.spend()?; // Load
                    let a = slot(&slots, base, s)?.clone();
                    self.spend()?; // Const
                    let b = self.constant(c)?;
                    self.spend()?; // Prim
                    stack.push(apply_prim2(op, a, b)?);
                    pc += 1;
                }
                Instr::LoadLoadPrim(a, b, op) => {
                    self.spend()?; // Load a
                    self.spend()?; // Load b
                    let va = slot(&slots, base, a)?.clone();
                    let vb = slot(&slots, base, b)?.clone();
                    self.spend()?; // Prim
                    stack.push(apply_prim2(op, va, vb)?);
                    pc += 1;
                }
                Instr::ConstJumpIfFalse(c, t) => {
                    self.spend()?; // Const
                    let k = *self
                        .bc
                        .consts()
                        .get(c as usize)
                        .ok_or_else(|| internal("constant index out of range"))?;
                    self.spend()?; // JumpIfFalse
                    match k {
                        Const::Bool(true) => pc += 1,
                        Const::Bool(false) => pc = t as usize,
                        // `Const`'s Display matches `VmVal`'s for
                        // first-order values, so the message is the
                        // same one the unfused arm produces.
                        other => {
                            return Err(EvalError::TypeMismatch(format!(
                                "if condition must be boolean, got {other}"
                            )))
                        }
                    }
                }
                Instr::PrimReturn(op) => {
                    self.spend()?; // Prim
                    let r = apply_prim(op, &mut stack)?;
                    // Return (fuel: 0)
                    let fr = frames.pop().ok_or_else(|| internal("no frame"))?;
                    slots.truncate(fr.base);
                    if self.profile.is_some() {
                        self.attribute(cur_chunk, &mut mark);
                    }
                    cur_chunk = fr.ret_chunk;
                    let Some(caller) = frames.last() else {
                        return Ok(r);
                    };
                    base = caller.base;
                    stack.push(r);
                    pc = fr.ret_pc;
                }
            }
        }
    }

    /// Constant-pool entry `c` as a value.
    #[inline]
    fn constant(&self, c: u32) -> Result<VmVal, EvalError> {
        match self.bc.consts().get(c as usize) {
            Some(Const::Nat(n)) => Ok(VmVal::Nat(*n)),
            Some(Const::Bool(b)) => Ok(VmVal::Bool(*b)),
            Some(Const::Nil) => Ok(VmVal::Nil),
            None => Err(internal("constant index out of range")),
        }
    }
}

/// Slot `s` of the frame starting at `base`.
#[inline]
fn slot(slots: &[VmVal], base: usize, s: u16) -> Result<&VmVal, EvalError> {
    slots.get(base + s as usize).ok_or_else(|| internal("slot out of range"))
}

/// Pops a primitive's operands off the operand stack by value and
/// applies it.
#[inline]
fn apply_prim(op: PrimOp, stack: &mut Vec<VmVal>) -> Result<VmVal, EvalError> {
    if op.arity() == 1 {
        let a = stack.pop().ok_or_else(|| internal("stack underflow"))?;
        apply_prim1(op, a)
    } else {
        let b = stack.pop().ok_or_else(|| internal("stack underflow"))?;
        let a = stack.pop().ok_or_else(|| internal("stack underflow"))?;
        apply_prim2(op, a, b)
    }
}

/// Unary primitives, semantics identical to [`crate::eval::apply_prim`].
fn apply_prim1(op: PrimOp, a: VmVal) -> Result<VmVal, EvalError> {
    match op {
        PrimOp::Not => Ok(VmVal::Bool(!a.as_bool(op)?)),
        PrimOp::Head => match &a {
            VmVal::Cons(c) => Ok(c.0.clone()),
            VmVal::Nil => Err(EvalError::EmptyList("head")),
            other => Err(EvalError::TypeMismatch(format!(
                "head expects a list, got {other}"
            ))),
        },
        PrimOp::Tail => match &a {
            VmVal::Cons(c) => Ok(c.1.clone()),
            VmVal::Nil => Err(EvalError::EmptyList("tail")),
            other => Err(EvalError::TypeMismatch(format!(
                "tail expects a list, got {other}"
            ))),
        },
        PrimOp::Null => match &a {
            VmVal::Nil => Ok(VmVal::Bool(true)),
            VmVal::Cons(..) => Ok(VmVal::Bool(false)),
            other => Err(EvalError::TypeMismatch(format!(
                "null expects a list, got {other}"
            ))),
        },
        other => Err(internal(&format!("unary dispatch of binary {other:?}"))),
    }
}

/// Binary primitives, semantics identical to [`crate::eval::apply_prim`]
/// (wrapping add/mul, saturating sub, checked div, strict and/or).
fn apply_prim2(op: PrimOp, a: VmVal, b: VmVal) -> Result<VmVal, EvalError> {
    match op {
        PrimOp::Add => Ok(VmVal::Nat(a.as_nat(op)?.wrapping_add(b.as_nat(op)?))),
        PrimOp::Sub => Ok(VmVal::Nat(a.as_nat(op)?.saturating_sub(b.as_nat(op)?))),
        PrimOp::Mul => Ok(VmVal::Nat(a.as_nat(op)?.wrapping_mul(b.as_nat(op)?))),
        PrimOp::Div => match a.as_nat(op)?.checked_div(b.as_nat(op)?) {
            Some(q) => Ok(VmVal::Nat(q)),
            None => Err(EvalError::DivByZero),
        },
        PrimOp::Eq => Ok(VmVal::Bool(a.as_nat(op)? == b.as_nat(op)?)),
        PrimOp::Lt => Ok(VmVal::Bool(a.as_nat(op)? < b.as_nat(op)?)),
        PrimOp::Leq => Ok(VmVal::Bool(a.as_nat(op)? <= b.as_nat(op)?)),
        PrimOp::And => Ok(VmVal::Bool(a.as_bool(op)? && b.as_bool(op)?)),
        PrimOp::Or => Ok(VmVal::Bool(a.as_bool(op)? || b.as_bool(op)?)),
        PrimOp::Cons => Ok(VmVal::Cons(Rc::new((a, b)))),
        other => Err(internal(&format!("binary dispatch of unary {other:?}"))),
    }
}

/// Which execution engine runs a (residual) program.
///
/// The tree evaluator is the semantic ground truth; the VM is the
/// measured fast path and the default. They agree on value, error class
/// and total fuel (checked by `tests/vm_differential.rs`); the only
/// intended divergence is host-resource behaviour — the tree evaluator
/// can raise [`EvalError::DepthExceeded`] on deeply nested programs,
/// the VM never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runner {
    /// The recursive reference interpreter ([`crate::eval`]).
    Tree,
    /// The flat-bytecode VM (this module).
    #[default]
    Vm,
}

/// Which tier-1 optimisation level the VM runs at. `None` executes the
/// bytecode exactly as compiled; `Fuse` applies the peephole
/// superinstruction pass ([`crate::fuse`]) first. Both levels are
/// value-, error- and fuel-identical — the choice is purely a
/// dispatch-cost trade (fusing costs one pass over the code stream,
/// worth it for anything that runs more than once or loops at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmOpt {
    /// Execute the compiled bytecode unmodified.
    #[default]
    None,
    /// Run the superinstruction fusion pass before execution.
    Fuse,
}

impl VmOpt {
    /// Parses an optimisation-level name, as written on the CLI.
    pub fn parse(s: &str) -> Option<VmOpt> {
        match s {
            "none" => Some(VmOpt::None),
            "fuse" => Some(VmOpt::Fuse),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            VmOpt::None => "none",
            VmOpt::Fuse => "fuse",
        }
    }
}

impl fmt::Display for VmOpt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Runner {
    /// Parses a runner name, as written on the CLI.
    pub fn parse(s: &str) -> Option<Runner> {
        match s {
            "tree" => Some(Runner::Tree),
            "vm" => Some(Runner::Vm),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Runner::Tree => "tree",
            Runner::Vm => "vm",
        }
    }

    /// Runs `entry` of a resolved program on `args` under this engine
    /// with the given fuel.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`]; for [`Runner::Vm`] additionally a
    /// [`EvalError::TypeMismatch`] if a function value crosses the
    /// call boundary in either direction.
    pub fn run(
        self,
        rp: &ResolvedProgram,
        entry: &QualName,
        args: Vec<Value>,
        fuel: u64,
    ) -> Result<Value, EvalError> {
        self.run_opt(rp, entry, args, fuel, VmOpt::None)
    }

    /// [`Runner::run`] at an explicit tier-1 optimisation level.
    /// [`Runner::Tree`] ignores the level (tier 0 has no bytecode).
    ///
    /// # Errors
    ///
    /// As [`Runner::run`].
    pub fn run_opt(
        self,
        rp: &ResolvedProgram,
        entry: &QualName,
        args: Vec<Value>,
        fuel: u64,
        opt: VmOpt,
    ) -> Result<Value, EvalError> {
        match self {
            Runner::Tree => Evaluator::with_fuel(rp, fuel).call(entry, args),
            Runner::Vm => {
                let bc = compile(rp).map_err(bc_error)?;
                let bc = match opt {
                    VmOpt::None => bc,
                    VmOpt::Fuse => crate::fuse::fuse(&bc).0,
                };
                Vm::with_fuel(&bc, fuel).call(entry, args)
            }
        }
    }
}

impl fmt::Display for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::resolve::resolve;

    fn run_main(src: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let main = *rp.functions().find(|q| q.name.as_str() == "main").unwrap();
        Runner::Vm.run(&rp, &main, args, DEFAULT_FUEL)
    }

    #[test]
    fn power_computes_exponentials() {
        let src = "module Power where\n\
                   power n x = if n == 1 then x else x * power (n - 1) x\n\
                   main y = power 5 y\n";
        assert_eq!(run_main(src, vec![Value::nat(2)]).unwrap(), Value::nat(32));
        assert_eq!(run_main(src, vec![Value::nat(3)]).unwrap(), Value::nat(243));
    }

    #[test]
    fn stats_track_instructions_and_peaks() {
        let src = "module Power where\n\
                   power n x = if n == 1 then x else x * power (n - 1) x\n\
                   main y = power 5 y\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let bc = compile(&rp).unwrap();
        let mut vm = Vm::new(&bc);
        let main = QualName::new("Power", "main");
        vm.call(&main, vec![Value::nat(2)]).unwrap();
        let stats = vm.stats();
        // Instructions == fuel spent: the counter shares the metering path.
        assert_eq!(stats.instructions, DEFAULT_FUEL - vm.fuel_left());
        // main -> power recurses 4 times beyond the entry frame.
        assert!(stats.max_frames >= 5, "{stats:?}");
        assert!(stats.max_stack >= 1, "{stats:?}");
    }

    #[test]
    fn higher_order_twice() {
        let src = "module M where\n\
                   twice f x = f @ (f @ x)\n\
                   main y = twice (\\x -> x + 3) y\n";
        assert_eq!(run_main(src, vec![Value::nat(10)]).unwrap(), Value::nat(16));
    }

    #[test]
    fn map_over_lists() {
        let src = "module M where\n\
                   map f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n\
                   main z ys = map (\\x -> x + z) ys\n";
        let ys = Value::list(vec![Value::nat(1), Value::nat(2), Value::nat(3)]);
        let got = run_main(src, vec![Value::nat(10), ys]).unwrap();
        assert_eq!(
            got,
            Value::list(vec![Value::nat(11), Value::nat(12), Value::nat(13)])
        );
    }

    #[test]
    fn closures_capture_their_environment() {
        let src = "module M where\n\
                   apply f x = f @ x\n\
                   main y = apply (let k = y * 2 in \\x -> x + k) 1\n";
        assert_eq!(run_main(src, vec![Value::nat(10)]).unwrap(), Value::nat(21));
    }

    #[test]
    fn errors_match_the_tree_evaluator() {
        assert_eq!(
            run_main("module M where\nmain y = 10 / y\n", vec![Value::nat(0)]),
            Err(EvalError::DivByZero)
        );
        assert_eq!(
            run_main("module M where\nmain = head []\n", vec![]),
            Err(EvalError::EmptyList("head"))
        );
    }

    #[test]
    fn divergence_exhausts_fuel_without_host_stack() {
        // 200k fuel of self-recursion on an ordinary test thread: the VM
        // keeps frames on the heap, so no big-stack wrapper is needed.
        let src = "module M where\nloop x = loop x\nmain y = loop y\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let bc = compile(&rp).unwrap();
        let mut vm = Vm::with_fuel(&bc, 200_000);
        assert_eq!(
            vm.call(&QualName::new("M", "main"), vec![Value::nat(1)]),
            Err(EvalError::FuelExhausted)
        );
        assert_eq!(vm.fuel_left(), 0);
    }

    #[test]
    fn deep_fold_runs_in_constant_host_stack() {
        // Sum a 100k-element list with non-tail recursion on an ordinary
        // test thread: 100k nested frames live on the heap, not the host
        // stack, and both value types drop their spines iteratively.
        let src = "module M where\n\
                   sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
                   main ys = sum ys\n";
        let n = 100_000u64;
        let ys = Value::list((0..n).map(Value::nat).collect());
        assert_eq!(run_main(src, vec![ys]).unwrap(), Value::nat(n * (n - 1) / 2));
    }

    #[test]
    fn fuel_total_matches_tree_evaluator() {
        let src = "module Power where\n\
                   power n x = if n == 1 then x else x * power (n - 1) x\n\
                   main y = let z = y + 1 in power 7 z\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let main = QualName::new("Power", "main");

        let mut ev = Evaluator::with_fuel(&rp, DEFAULT_FUEL);
        let tv = ev.call(&main, vec![Value::nat(2)]).unwrap();
        let tree_spent = DEFAULT_FUEL - ev.fuel_left();

        let bc = compile(&rp).unwrap();
        let mut vm = Vm::with_fuel(&bc, DEFAULT_FUEL);
        let vv = vm.call(&main, vec![Value::nat(2)]).unwrap();
        let vm_spent = DEFAULT_FUEL - vm.fuel_left();

        assert_eq!(tv, vv);
        assert_eq!(tree_spent, vm_spent, "metering contract violated");
    }

    #[test]
    fn closure_result_is_a_boundary_error() {
        let err = run_main("module M where\nmain = \\x -> x\n", vec![]).unwrap_err();
        assert!(matches!(err, EvalError::TypeMismatch(_)), "{err}");
    }

    #[test]
    fn runner_parse_roundtrip() {
        assert_eq!(Runner::parse("tree"), Some(Runner::Tree));
        assert_eq!(Runner::parse("vm"), Some(Runner::Vm));
        assert_eq!(Runner::parse("jit"), None);
        assert_eq!(Runner::default(), Runner::Vm);
        assert_eq!(Runner::Tree.to_string(), "tree");
    }

    #[test]
    fn unknown_function_at_the_boundary() {
        let rp = resolve(parse_program("module M where\nmain = 1\n").unwrap()).unwrap();
        let bc = compile(&rp).unwrap();
        assert!(matches!(
            Vm::new(&bc).call(&QualName::new("M", "ghost"), vec![]),
            Err(EvalError::UnknownFunction(_))
        ));
    }
}
