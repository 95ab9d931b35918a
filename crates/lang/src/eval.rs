//! Reference interpreter for the object language.
//!
//! Used throughout the project as the ground truth for semantics: the
//! specialiser is correct iff running the residual program on the dynamic
//! inputs gives the same value as running the source program on all
//! inputs. Evaluation is strict and fuel-limited so property tests can
//! harmlessly generate non-terminating programs.
//!
//! Fuel semantics: a budget of `n` admits *exactly* `n` expression-node
//! entries (the same contract as [`crate::vm`] and `genext`'s
//! `Fuel`), after which evaluation fails with
//! [`EvalError::FuelExhausted`].
//!
//! The interpreter recurses on the host stack — one Rust frame per
//! nested expression — so it additionally enforces a nesting-depth limit
//! ([`DEFAULT_MAX_DEPTH`], configurable via [`Evaluator::with_limits`])
//! and fails with the structured [`EvalError::DepthExceeded`] instead of
//! aborting the process with a stack overflow. The VM runner has no such
//! limit; use it for deeply nested programs.

#![deny(clippy::unwrap_used)]

use crate::ast::{Expr, Ident, PrimOp, QualName};
use crate::resolve::ResolvedProgram;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// A run-time value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A natural number.
    Nat(u64),
    /// A boolean.
    Bool(bool),
    /// The empty list.
    Nil,
    /// A cons cell.
    Cons(Rc<Value>, Rc<Value>),
    /// A function value (a lambda closed over its environment).
    Closure(Rc<ClosureVal>),
}

/// A lambda together with its captured environment.
#[derive(Debug)]
pub struct ClosureVal {
    /// The parameter name.
    pub param: Ident,
    /// The body expression.
    pub body: Expr,
    /// The captured environment.
    pub env: Env,
}

impl Value {
    /// Convenience constructor for naturals.
    pub fn nat(n: u64) -> Value {
        Value::Nat(n)
    }

    /// Convenience constructor for booleans.
    pub fn bool_(b: bool) -> Value {
        Value::Bool(b)
    }

    /// Builds a list value from a vector.
    pub fn list(items: Vec<Value>) -> Value {
        let mut v = Value::Nil;
        for item in items.into_iter().rev() {
            v = Value::Cons(Rc::new(item), Rc::new(v));
        }
        v
    }

    /// Extracts a natural, if this is one.
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Collects a list value into a vector (`None` for non-lists).
    pub fn as_list(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Value::Nil => return Some(out),
                Value::Cons(h, t) => {
                    out.push((**h).clone());
                    cur = t;
                }
                _ => return None,
            }
        }
    }
}

impl Drop for Value {
    fn drop(&mut self) {
        // Dropping a long list must not recurse one host frame per cell:
        // move the rest of the spine out of each uniquely-owned tail and
        // unlink it in a loop. A shared tail just loses one reference
        // and ends the walk.
        let Value::Cons(_, tail) = self else { return };
        let Some(tail) = Rc::get_mut(tail) else { return };
        let mut next = std::mem::replace(tail, Value::Nil);
        while let Value::Cons(_, tail) = &mut next {
            let Some(tail) = Rc::get_mut(tail) else { break };
            let rest = std::mem::replace(tail, Value::Nil);
            // The old `next` now ends in Nil, so its own drop is shallow.
            next = rest;
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Nat(a), Value::Nat(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Nil, Value::Nil) => true,
            (Value::Cons(h1, t1), Value::Cons(h2, t2)) => h1 == h2 && t1 == t2,
            // Closures compare by identity: a specialised program may
            // represent "the same" function differently.
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nat(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Nil => write!(f, "[]"),
            Value::Cons(..) => match self.as_list() {
                Some(items) => {
                    write!(f, "[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, "]")
                }
                None => write!(f, "<improper list>"),
            },
            Value::Closure(_) => write!(f, "<closure>"),
        }
    }
}

/// A persistent environment mapping names to values.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: Ident,
    value: Value,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends the environment with one binding (persistent: the original
    /// is untouched).
    pub fn bind(&self, name: Ident, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode { name, value, next: self.clone() })))
    }

    /// Looks up a name, innermost binding first.
    pub fn lookup(&self, name: &Ident) -> Option<&Value> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &node.name == name {
                return Some(&node.value);
            }
            cur = &node.next;
        }
        None
    }
}

/// Errors raised by evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Division by zero.
    DivByZero,
    /// `head` or `tail` of the empty list.
    EmptyList(&'static str),
    /// A primitive applied to a value of the wrong shape, or an
    /// application of a non-function. Well-typed programs never raise it.
    TypeMismatch(String),
    /// A variable with no binding (resolution prevents this for source
    /// programs).
    UnboundVariable(Ident),
    /// A call to a function the program does not define.
    UnknownFunction(QualName),
    /// The step budget ran out (the program probably diverges).
    FuelExhausted,
    /// Expression nesting exceeded the interpreter's depth limit; the
    /// structured alternative to overflowing the host stack. Deeply
    /// nested programs should run under the VM, which has no limit.
    DepthExceeded,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DivByZero => write!(f, "division by zero"),
            EvalError::EmptyList(op) => write!(f, "`{op}` of empty list"),
            EvalError::TypeMismatch(m) => write!(f, "type mismatch at run time: {m}"),
            EvalError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            EvalError::UnknownFunction(q) => write!(f, "unknown function `{q}`"),
            EvalError::FuelExhausted => write!(f, "evaluation fuel exhausted"),
            EvalError::DepthExceeded => {
                write!(f, "expression nesting exceeded the interpreter depth limit")
            }
        }
    }
}

impl Error for EvalError {}

/// Default fuel for an evaluation: enough for every workload in this
/// repository while still catching accidental divergence quickly.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Default nesting-depth limit: deep enough for every workload in this
/// repository while leaving the [`with_big_stack`] worker (256 MiB)
/// ample headroom even with debug-build frame sizes.
pub const DEFAULT_MAX_DEPTH: usize = 50_000;

/// Runs `f` on a thread with a large stack (256 MiB) and returns its
/// result.
///
/// The interpreter and the specialisation engine are deeply recursive;
/// binaries whose main thread has a small default stack (examples, bench
/// harnesses) should wrap their top-level work in this.
///
/// # Panics
///
/// Propagates any panic from `f` and panics if the worker thread cannot
/// be spawned.
pub fn with_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(f)
        .expect("spawn big-stack worker")
        .join()
        .expect("big-stack worker panicked")
}

/// An interpreter over a resolved program.
#[derive(Debug)]
pub struct Evaluator<'p> {
    program: &'p ResolvedProgram,
    fuel: u64,
    depth: usize,
    max_depth: usize,
    peak_depth: usize,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator with [`DEFAULT_FUEL`] and
    /// [`DEFAULT_MAX_DEPTH`].
    pub fn new(program: &'p ResolvedProgram) -> Evaluator<'p> {
        Evaluator::with_limits(program, DEFAULT_FUEL, DEFAULT_MAX_DEPTH)
    }

    /// Creates an evaluator with a custom step budget.
    pub fn with_fuel(program: &'p ResolvedProgram, fuel: u64) -> Evaluator<'p> {
        Evaluator::with_limits(program, fuel, DEFAULT_MAX_DEPTH)
    }

    /// Creates an evaluator with a custom step budget and depth limit.
    pub fn with_limits(
        program: &'p ResolvedProgram,
        fuel: u64,
        max_depth: usize,
    ) -> Evaluator<'p> {
        Evaluator { program, fuel, depth: 0, max_depth, peak_depth: 0 }
    }

    /// Remaining fuel (useful as a crude cost measure in tests).
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// Peak expression-nesting depth reached so far (across calls) —
    /// the telemetry twin of the depth *limit*.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Calls a top-level function by name.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownFunction`] if the function does not exist,
    /// [`EvalError::TypeMismatch`] if the argument count is wrong, plus
    /// any error the body raises.
    pub fn call_by_name(
        &mut self,
        module: &str,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value, EvalError> {
        self.call(&QualName::new(module, name), args)
    }

    /// Calls a top-level function.
    ///
    /// # Errors
    ///
    /// See [`Evaluator::call_by_name`].
    pub fn call(&mut self, q: &QualName, args: Vec<Value>) -> Result<Value, EvalError> {
        let def = self
            .program
            .def(q)
            .ok_or(EvalError::UnknownFunction(*q))?;
        if def.params.len() != args.len() {
            return Err(EvalError::TypeMismatch(format!(
                "{q} expects {} arguments, got {}",
                def.params.len(),
                args.len()
            )));
        }
        let mut env = Env::empty();
        for (p, a) in def.params.iter().zip(args) {
            env = env.bind(*p, a);
        }
        // Clone the body so the borrow of `self.program` does not pin us.
        let body = def.body.clone();
        self.eval(&body, &env)
    }

    /// Evaluates an expression in an environment.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`].
    pub fn eval(&mut self, e: &Expr, env: &Env) -> Result<Value, EvalError> {
        // Guard the host stack: one Rust frame pair per nesting level.
        if self.depth >= self.max_depth {
            return Err(EvalError::DepthExceeded);
        }
        self.depth += 1;
        if self.depth > self.peak_depth {
            self.peak_depth = self.depth;
        }
        let r = self.eval_inner(e, env);
        self.depth -= 1;
        r
    }

    fn eval_inner(&mut self, e: &Expr, env: &Env) -> Result<Value, EvalError> {
        // Exact-spend fuel: a budget of n admits exactly n node entries.
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        match e {
            Expr::Nat(n) => Ok(Value::Nat(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Nil => Ok(Value::Nil),
            Expr::Var(x) => env
                .lookup(x)
                .cloned()
                .ok_or(EvalError::UnboundVariable(*x)),
            Expr::Prim(op, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                apply_prim(*op, &vals)
            }
            Expr::If(c, t, f) => match self.eval(c, env)? {
                Value::Bool(true) => self.eval(t, env),
                Value::Bool(false) => self.eval(f, env),
                other => Err(EvalError::TypeMismatch(format!(
                    "if condition must be boolean, got {other}"
                ))),
            },
            Expr::Call(target, args) => {
                let q = target.qualified_opt().ok_or_else(|| {
                    EvalError::TypeMismatch(format!("unresolved call target `{target}`"))
                })?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.call(&q, vals)
            }
            Expr::Lam(x, body) => Ok(Value::Closure(Rc::new(ClosureVal {
                param: *x,
                body: (**body).clone(),
                env: env.clone(),
            }))),
            Expr::App(f, a) => {
                let fv = self.eval(f, env)?;
                let av = self.eval(a, env)?;
                match &fv {
                    Value::Closure(c) => {
                        let env2 = c.env.bind(c.param, av);
                        self.eval(&c.body, &env2)
                    }
                    other => Err(EvalError::TypeMismatch(format!(
                        "applied non-function {other}"
                    ))),
                }
            }
            Expr::Let(x, rhs, body) => {
                let v = self.eval(rhs, env)?;
                let env2 = env.bind(*x, v);
                self.eval(body, &env2)
            }
        }
    }
}

/// Applies a primitive to already-evaluated operands.
///
/// # Errors
///
/// [`EvalError::DivByZero`], [`EvalError::EmptyList`] or
/// [`EvalError::TypeMismatch`].
pub fn apply_prim(op: PrimOp, vals: &[Value]) -> Result<Value, EvalError> {
    use PrimOp::*;
    let nat = |v: &Value| {
        v.as_nat().ok_or_else(|| {
            EvalError::TypeMismatch(format!("{} expects a natural, got {v}", op.symbol()))
        })
    };
    let boolean = |v: &Value| {
        v.as_bool().ok_or_else(|| {
            EvalError::TypeMismatch(format!("{} expects a boolean, got {v}", op.symbol()))
        })
    };
    match op {
        Add => Ok(Value::Nat(nat(&vals[0])?.wrapping_add(nat(&vals[1])?))),
        Sub => Ok(Value::Nat(nat(&vals[0])?.saturating_sub(nat(&vals[1])?))),
        Mul => Ok(Value::Nat(nat(&vals[0])?.wrapping_mul(nat(&vals[1])?))),
        Div => {
            let n0 = nat(&vals[0])?;
            match n0.checked_div(nat(&vals[1])?) {
                Some(q) => Ok(Value::Nat(q)),
                None => Err(EvalError::DivByZero),
            }
        }
        Eq => Ok(Value::Bool(nat(&vals[0])? == nat(&vals[1])?)),
        Lt => Ok(Value::Bool(nat(&vals[0])? < nat(&vals[1])?)),
        Leq => Ok(Value::Bool(nat(&vals[0])? <= nat(&vals[1])?)),
        And => Ok(Value::Bool(boolean(&vals[0])? && boolean(&vals[1])?)),
        Or => Ok(Value::Bool(boolean(&vals[0])? || boolean(&vals[1])?)),
        Not => Ok(Value::Bool(!boolean(&vals[0])?)),
        Cons => Ok(Value::Cons(Rc::new(vals[0].clone()), Rc::new(vals[1].clone()))),
        Head => match &vals[0] {
            Value::Cons(h, _) => Ok((**h).clone()),
            Value::Nil => Err(EvalError::EmptyList("head")),
            other => Err(EvalError::TypeMismatch(format!("head expects a list, got {other}"))),
        },
        Tail => match &vals[0] {
            Value::Cons(_, t) => Ok((**t).clone()),
            Value::Nil => Err(EvalError::EmptyList("tail")),
            other => Err(EvalError::TypeMismatch(format!("tail expects a list, got {other}"))),
        },
        Null => match &vals[0] {
            Value::Nil => Ok(Value::Bool(true)),
            Value::Cons(..) => Ok(Value::Bool(false)),
            other => Err(EvalError::TypeMismatch(format!("null expects a list, got {other}"))),
        },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::resolve::resolve;

    fn eval_main(src: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let mut ev = Evaluator::new(&rp);
        let main = *rp
            .functions()
            .find(|q| q.name.as_str() == "main")
            .expect("program has a main");
        ev.call(&main, args)
    }

    #[test]
    fn dropping_a_long_list_does_not_recurse_per_cell() {
        // A recursive drop needs a host frame per cell, far more than
        // this thread's 64 KiB stack holds.
        std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(|| drop(Value::list((0..100_000).map(Value::nat).collect())))
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn power_computes_exponentials() {
        let src = "module Power where\n\
                   power n x = if n == 1 then x else x * power (n - 1) x\n\
                   main y = power 5 y\n";
        assert_eq!(eval_main(src, vec![Value::nat(2)]).unwrap(), Value::nat(32));
        assert_eq!(eval_main(src, vec![Value::nat(3)]).unwrap(), Value::nat(243));
    }

    #[test]
    fn higher_order_twice() {
        let src = "module M where\n\
                   twice f x = f @ (f @ x)\n\
                   main y = twice (\\x -> x + 3) y\n";
        assert_eq!(eval_main(src, vec![Value::nat(10)]).unwrap(), Value::nat(16));
    }

    #[test]
    fn map_over_lists() {
        let src = "module M where\n\
                   map f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n\
                   main z ys = map (\\x -> x + z) ys\n";
        let ys = Value::list(vec![Value::nat(1), Value::nat(2), Value::nat(3)]);
        let got = eval_main(src, vec![Value::nat(10), ys]).unwrap();
        assert_eq!(got, Value::list(vec![Value::nat(11), Value::nat(12), Value::nat(13)]));
    }

    #[test]
    fn cross_module_calls() {
        let src = "module A where\n\
                   inc x = x + 1\n\
                   module B where\n\
                   import A\n\
                   main y = inc (inc y)\n";
        assert_eq!(eval_main(src, vec![Value::nat(5)]).unwrap(), Value::nat(7));
    }

    #[test]
    fn let_bindings() {
        let src = "module M where\nmain y = let z = y * y in z + z\n";
        assert_eq!(eval_main(src, vec![Value::nat(3)]).unwrap(), Value::nat(18));
    }

    #[test]
    fn booleans_and_logic() {
        let src = "module M where\nmain a b = if a < b && not (a == 0) then 1 else 2\n";
        assert_eq!(
            eval_main(src, vec![Value::nat(1), Value::nat(5)]).unwrap(),
            Value::nat(1)
        );
        assert_eq!(
            eval_main(src, vec![Value::nat(0), Value::nat(5)]).unwrap(),
            Value::nat(2)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = "module M where\nmain y = 10 / y\n";
        assert_eq!(eval_main(src, vec![Value::nat(0)]), Err(EvalError::DivByZero));
        assert_eq!(eval_main(src, vec![Value::nat(2)]), Ok(Value::nat(5)));
    }

    #[test]
    fn head_of_empty_list_is_an_error() {
        let src = "module M where\nmain = head []\n";
        assert_eq!(eval_main(src, vec![]), Err(EvalError::EmptyList("head")));
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let src = "module M where\nmain a b = a - b\n";
        assert_eq!(
            eval_main(src, vec![Value::nat(3), Value::nat(10)]).unwrap(),
            Value::nat(0)
        );
    }

    #[test]
    fn divergence_exhausts_fuel() {
        // The evaluator recurses one Rust frame per object-language call,
        // so exhausting 2k fuel on a self-loop needs more stack than the
        // 2 MiB a debug-mode test thread gets.
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let src = "module M where\nloop x = loop x\nmain y = loop y\n";
                let rp = resolve(parse_program(src).unwrap()).unwrap();
                let mut ev = Evaluator::with_fuel(&rp, 2_000);
                let main = QualName::new("M", "main");
                assert_eq!(ev.call(&main, vec![Value::nat(1)]), Err(EvalError::FuelExhausted));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn fuel_budget_admits_exactly_n_steps() {
        // `main y = y + 1` enters 4 nodes: the body Prim, Var, Nat, plus
        // the implicit entry (none — call() does not charge). So 4 fuel
        // suffices... measure instead of hand-counting: run once with
        // ample fuel, then check the measured budget is exact on both
        // sides of the boundary.
        let src = "module M where\nmain y = y * y + 1\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let main = QualName::new("M", "main");
        let mut ev = Evaluator::new(&rp);
        ev.call(&main, vec![Value::nat(3)]).unwrap();
        let spent = DEFAULT_FUEL - ev.fuel_left();
        let mut exact = Evaluator::with_fuel(&rp, spent);
        assert_eq!(exact.call(&main, vec![Value::nat(3)]), Ok(Value::nat(10)));
        assert_eq!(exact.fuel_left(), 0);
        let mut short = Evaluator::with_fuel(&rp, spent - 1);
        assert_eq!(
            short.call(&main, vec![Value::nat(3)]),
            Err(EvalError::FuelExhausted)
        );
    }

    #[test]
    fn deep_nesting_is_a_structured_error() {
        // A fold over a deep list nests one host frame pair per element;
        // with a small depth limit the evaluator reports DepthExceeded
        // instead of overflowing the host stack.
        // Reaching depth 5000 itself needs more host stack than a
        // debug-mode test thread has, so run on a big-stack worker — the
        // point is the *structured* error instead of a process abort.
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let src = "module M where\n\
                           sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
                           main ys = sum ys\n";
                let rp = resolve(parse_program(src).unwrap()).unwrap();
                let main = QualName::new("M", "main");
                let deep = Value::list((0..50_000u64).map(Value::nat).collect());
                let mut ev = Evaluator::with_limits(&rp, DEFAULT_FUEL, 5_000);
                assert_eq!(ev.call(&main, vec![deep]), Err(EvalError::DepthExceeded));
                // A shallow list under the same limit still evaluates.
                let shallow = Value::list((0..10u64).map(Value::nat).collect());
                let mut ev = Evaluator::with_limits(&rp, DEFAULT_FUEL, 5_000);
                assert_eq!(ev.call(&main, vec![shallow]), Ok(Value::nat(45)));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn depth_resets_between_calls() {
        let src = "module M where\n\
                   count n = if n == 0 then 0 else 1 + count (n - 1)\n\
                   main n = count n\n";
        let rp = resolve(parse_program(src).unwrap()).unwrap();
        let main = QualName::new("M", "main");
        let mut ev = Evaluator::with_limits(&rp, DEFAULT_FUEL, 1_000);
        assert_eq!(ev.call(&main, vec![Value::nat(50)]), Ok(Value::nat(50)));
        // The guard unwinds fully, so a second call starts at depth 0.
        assert_eq!(ev.call(&main, vec![Value::nat(50)]), Ok(Value::nat(50)));
    }

    #[test]
    fn closures_capture_their_environment() {
        let src = "module M where\n\
                   apply f x = f @ x\n\
                   main y = apply (let k = y * 2 in \\x -> x + k) 1\n";
        assert_eq!(eval_main(src, vec![Value::nat(10)]).unwrap(), Value::nat(21));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::nat(3).to_string(), "3");
        assert_eq!(Value::bool_(true).to_string(), "true");
        assert_eq!(
            Value::list(vec![Value::nat(1), Value::nat(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(Value::Nil.to_string(), "[]");
    }

    #[test]
    fn value_as_list_roundtrip() {
        let items = vec![Value::nat(1), Value::nat(2), Value::nat(3)];
        assert_eq!(Value::list(items.clone()).as_list().unwrap(), items);
        assert_eq!(Value::Nil.as_list().unwrap(), Vec::<Value>::new());
        assert!(Value::nat(1).as_list().is_none());
    }

    #[test]
    fn env_lookup_innermost_wins() {
        let env = Env::empty()
            .bind("x".into(), Value::nat(1))
            .bind("x".into(), Value::nat(2));
        assert_eq!(env.lookup(&"x".into()), Some(&Value::Nat(2)));
        assert_eq!(env.lookup(&"y".into()), None);
    }

    #[test]
    fn zero_arity_functions_evaluate() {
        let src = "module M where\nc = 41\nmain = c + 1\n";
        assert_eq!(eval_main(src, vec![]).unwrap(), Value::nat(42));
    }

    #[test]
    fn unknown_function_error() {
        let rp = resolve(parse_program("module M where\nmain = 1\n").unwrap()).unwrap();
        let mut ev = Evaluator::new(&rp);
        assert!(matches!(
            ev.call(&QualName::new("M", "ghost"), vec![]),
            Err(EvalError::UnknownFunction(_))
        ));
    }
}
