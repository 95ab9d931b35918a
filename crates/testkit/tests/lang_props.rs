//! Language-level properties over randomly generated programs:
//! pretty-print/parse round trips. (Agreement between the tree
//! evaluator and the VM is `tests/vm_differential.rs`.)

use mspec_lang::parser::parse_program;
use mspec_lang::pretty::pretty_program;
use mspec_lang::resolve::resolve;
use mspec_testkit::random::{random_program, GenConfig};
use mspec_testkit::TestRng;

fn roundtrip(seed: u64) {
    let g = random_program(&GenConfig { seed, ..GenConfig::default() });
    let printed = pretty_program(&g.program);
    let reparsed = parse_program(&printed)
        .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{printed}"));
    // Resolution normalises zero-arity calls, so compare resolved forms.
    let a = resolve(g.program.clone()).unwrap();
    let b = resolve(reparsed).unwrap();
    assert_eq!(a.program(), b.program(), "seed {seed}\n{printed}");
}

#[test]
fn pretty_parse_roundtrip() {
    let mut rng = TestRng::seed_from_u64(0xA11CE);
    for _ in 0..64 {
        roundtrip(rng.gen_range(0..10_000u64));
    }
}

#[test]
fn deterministic_sweeps() {
    for seed in 0..50 {
        roundtrip(seed);
    }
}
