//! Allocation counts of the two interpreters.
//!
//! Neither the generating-extension engine nor the residual VM should
//! touch the allocator for a step that builds no data: a literal, a
//! variable lookup, a static primitive, an unfolded call, a VM call
//! frame or a `let`. Allocation counts are deterministic, so these
//! tests pin that property with exact bounds where a timing test could
//! only be noisy.
//!
//! The counting allocator counts per thread and only while a thread has
//! switched counting on, so the harness's own threads and the set-up
//! around each call under test are not counted.

use mspec_core::{EngineOptions, Pipeline, SpecArg, Strategy};
use mspec_genext::Engine;
use mspec_lang::bytecode::compile;
use mspec_lang::eval::Value;
use mspec_lang::parser::parse_program;
use mspec_lang::resolve::resolve;
use mspec_lang::vm::Vm;
use mspec_lang::QualName;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations (`alloc`,
/// `alloc_zeroed` and `realloc`) made by threads inside [`counted`].
struct Counting;

thread_local! {
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` on this thread and returns its result with the number of
/// allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

const POWER: &str =
    "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

/// Unfolding `power` 600 times builds one residual multiplication per
/// unfold and nothing else: literals, static primitives, variable
/// lookups and the unfolds themselves allocate nothing, and the finished
/// definition moves into the sink without a copy. The bound is a fifth
/// of what boxing every value and argument list costs (0.79); copying
/// each definition into the sink cost 0.22. The engine unfolds on its
/// own stacks, so this runs on the test harness's thread.
#[test]
fn power_unfolding_allocates_a_third_of_a_boxed_engine() {
    let pipeline = Pipeline::from_source(POWER).unwrap();
    let options = EngineOptions { strategy: Strategy::BreadthFirst, ..EngineOptions::default() };
    let mut engine = Engine::new(pipeline.genext(), options);
    let entry = QualName::new("Power", "power");
    let args = vec![SpecArg::Static(Value::nat(600)), SpecArg::Dynamic];
    let (residual, allocs) = counted(|| engine.specialise(&entry, args));
    residual.unwrap();
    let steps = engine.stats().steps;
    let per_step = allocs as f64 / steps as f64;
    assert!(
        per_step <= 0.16,
        "{allocs} allocations over {steps} steps = {per_step:.3} per step"
    );
}

fn vm_call(src: &str, entry: &str, args: Vec<Value>) -> (Value, u64) {
    let rp = resolve(parse_program(src).unwrap()).unwrap();
    let bc = compile(&rp).unwrap();
    let mut vm = Vm::new(&bc);
    let q = QualName::new("M", entry);
    let (v, allocs) = counted(|| vm.call(&q, args));
    (v.unwrap(), allocs)
}

/// A 10,000-iteration counting loop builds no data: its frames share
/// one slot stack, so only the stacks' growth allocates, not each call.
#[test]
fn counting_loop_allocates_only_stack_growth() {
    let src = "module M where\n\
               count n acc = if n == 0 then acc else count (n - 1) (acc + 1)\n";
    let (v, allocs) = vm_call(src, "count", vec![Value::nat(10_000), Value::nat(0)]);
    assert_eq!(v, Value::nat(10_000));
    assert!(allocs <= 64, "{allocs} allocations");
}

/// Summing a 10,000-element list allocates one cell per element, at the
/// boundary conversion, plus stack growth: reading the list is one
/// refcount bump per `head` or `tail`, and a call allocates nothing.
#[test]
fn list_sum_allocates_one_cell_per_element() {
    let src = "module M where\n\
               sum xs = if null xs then 0 else head xs + sum (tail xs)\n";
    let n = 10_000u64;
    let list = Value::list((0..n).map(Value::nat).collect());
    let (v, allocs) = vm_call(src, "sum", vec![list]);
    assert_eq!(v, Value::nat(n * (n - 1) / 2));
    assert!(allocs <= 10_064, "{allocs} allocations");
}
