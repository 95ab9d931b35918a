//! The classic partial-evaluation showcase: specialising a naive string
//! matcher with respect to a static pattern yields a hard-coded matcher
//! (the Consel–Danvy "KMP by partial evaluation" exercise, run through
//! the module-sensitive pipeline).
//!
//! Strings are lists of naturals (character codes). The matcher lives in
//! a library module; the pattern is the static input.
//!
//! Run with: `cargo run -p mspec-core --example matcher`

use mspec_core::{Pipeline, PipelineError, SpecArg};
use mspec_lang::eval::{with_big_stack, Value};

const MATCHER: &str = "module Match where\n\
    prefix p t = if null p then true else if null t then false else if head p == head t then prefix (tail p) (tail t) else false\n\
    find p t = if null t then false else if prefix p t then true else find p (tail t)\n\
    module App where\n\
    import Match\n\
    search t = find (1 : 2 : 1 : []) t\n";

fn string(cs: &[u64]) -> Value {
    Value::list(cs.iter().copied().map(Value::nat).collect())
}

fn main() {
    with_big_stack(|| run().unwrap());
}

fn run() -> Result<(), PipelineError> {
    let pipeline = Pipeline::from_source(MATCHER)?;

    // The pattern [1,2,1] is baked into App.search; the text is dynamic.
    let spec = pipeline.specialise("App", "search", vec![SpecArg::Dynamic])?;
    println!("== matcher specialised to the pattern [1,2,1] ==");
    println!("{}", spec.source());

    for (text, expect) in [
        (&[3u64, 1, 2, 1, 4][..], true),
        (&[1, 2, 2, 1][..], false),
        (&[1, 2, 1][..], true),
        (&[][..], false),
    ] {
        let got = spec.run(vec![string(text)])?;
        println!("search {text:?} = {got} (expected {expect})");
        assert_eq!(got, Value::bool_(expect));
    }

    // Residual quality: steps per query, specialised vs unspecialised.
    let (_, fast_steps) = spec.run_compiled(vec![string(&[3, 1, 2, 1, 4])])?;
    println!("\nVM steps per query (pattern [1,2,1], text len 5): {fast_steps}");
    Ok(())
}
