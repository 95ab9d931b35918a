//! Seeded input generation. Everything a run feeds the program is built
//! here, before timing starts, from the `--seed` argument alone: the
//! same seed gives byte-identical sources and request streams.

use mspec_genext::{SpecArg, Strategy};
use mspec_lang::ast::{Module, Program, QualName};
use mspec_lang::eval::Value;
use mspec_lang::parser::parse_program;
use mspec_lang::pretty::pretty_program;
use mspec_testkit::random::{random_value, GTy};
use mspec_testkit::{
    layered_program, library_program, random_program, GenConfig, LayeredShape, LibraryShape,
    TestRng,
};
use std::sync::Arc;

/// The paper's power function (`examples/programs/power.mspec`).
pub const POWER: &str = include_str!("../programs/power.mspec");
/// Polymorphic list functions and their client (`lists.mspec`).
pub const LISTS: &str = include_str!("../programs/lists.mspec");
/// The Futamura interpreter (`interp.mspec`).
pub const INTERP: &str = include_str!("../programs/interp.mspec");

/// A uniform float in `[0, 1)`.
pub fn unit(rng: &mut TestRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut TestRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// A value in the daemon's wire syntax (`parse_value`): naturals,
/// booleans and `[a;b;c]` lists.
pub fn wire_value(v: &Value) -> String {
    match v.as_list() {
        Some(items) if !matches!(v, Value::Nat(_) | Value::Bool(_)) => {
            let parts: Vec<String> = items.iter().map(wire_value).collect();
            format!("[{}]", parts.join(";"))
        }
        _ => format!("{v}"),
    }
}

/// A division in the daemon's wire syntax (`parse_division`).
pub fn wire_division(args: &[SpecArg]) -> String {
    let parts: Vec<String> = args
        .iter()
        .map(|a| match a {
            SpecArg::Static(v) => format!("S:{}", wire_value(v)),
            SpecArg::Dynamic => "D".to_string(),
            SpecArg::StaticSpine(n) => format!("P:{n}"),
        })
        .collect();
    parts.join(",")
}

/// The source program's full argument list: static values from the
/// division, dynamic ones from `dynamic` in order.
pub fn merge_args(division: &[SpecArg], dynamic: &[Value]) -> Vec<Value> {
    let mut dyn_iter = dynamic.iter();
    division
        .iter()
        .map(|a| match a {
            SpecArg::Static(v) => v.clone(),
            _ => dyn_iter.next().cloned().unwrap_or(Value::Nil),
        })
        .collect()
}

/// An interpreter program (`Interp.run`'s first argument): a random,
/// roughly balanced binary expression tree with `ops` operator nodes,
/// prefix-encoded as
/// `0 c` constant, `1` the variable, `2 l r` sum, `3 l r` product.
pub fn interp_tree(rng: &mut TestRng, ops: usize) -> Value {
    fn go(rng: &mut TestRng, ops: usize, out: &mut Vec<Value>) {
        if ops == 0 {
            if rng.gen_bool(0.6) {
                out.push(Value::nat(1));
            } else {
                out.push(Value::nat(0));
                out.push(Value::nat(rng.gen_range(0..10u64)));
            }
            return;
        }
        out.push(Value::nat(if rng.gen_bool(0.5) { 2 } else { 3 }));
        // Splits stay within the middle half, so trees of one size have
        // similar depth (and similar specialisation cost).
        let rest = ops - 1;
        let left = rng.gen_range(rest / 4..=rest - rest / 4);
        go(rng, left, out);
        go(rng, ops - 1 - left, out);
    }
    let mut out = Vec::new();
    go(rng, ops, &mut out);
    Value::list(out)
}

/// A list of `len` small naturals.
pub fn nat_list(rng: &mut TestRng, len: usize) -> Value {
    Value::list(
        (0..len)
            .map(|_| Value::nat(rng.gen_range(0..50u64)))
            .collect(),
    )
}

/// A random well-typed total program (testkit's generator) as source
/// text plus its functions that take no function-typed parameter.
pub struct RandomProgram {
    /// Source text, one or more modules.
    pub source: String,
    /// Callable functions with their parameter types.
    pub functions: Vec<(QualName, Vec<GTy>)>,
}

/// Generates a random program from `seed` (or, when every function of
/// that program takes a function-typed parameter, from the next seed
/// that yields a callable one).
pub fn random_source(seed: u64, modules: usize, defs: usize) -> RandomProgram {
    let mut seed = seed;
    loop {
        let g = random_program(&GenConfig {
            modules,
            defs_per_module: defs,
            max_depth: 4,
            seed,
        });
        let functions: Vec<(QualName, Vec<GTy>)> = g
            .functions
            .into_iter()
            .filter(|(_, ps)| ps.iter().all(|t| *t != GTy::FunNat))
            .collect();
        if !functions.is_empty() {
            return RandomProgram {
                source: pretty_program(&g.program),
                functions,
            };
        }
        seed = seed.wrapping_add(1);
    }
}

/// A random division of `params` (each static with probability ½)
/// plus `runs` sets of dynamic inputs.
pub fn random_division(
    rng: &mut TestRng,
    params: &[GTy],
    runs: usize,
) -> (Vec<SpecArg>, Vec<Vec<Value>>) {
    let mut division = Vec::new();
    let mut dyn_tys = Vec::new();
    for t in params {
        let v = random_value(*t, rng).unwrap_or(Value::nat(0));
        if rng.gen_bool(0.5) {
            division.push(SpecArg::Static(v));
        } else {
            division.push(SpecArg::Dynamic);
            dyn_tys.push(*t);
        }
    }
    let inputs = (0..runs)
        .map(|_| {
            dyn_tys
                .iter()
                .map(|t| random_value(*t, rng).unwrap_or(Value::nat(0)))
                .collect()
        })
        .collect();
    (division, inputs)
}

/// A library source tree: one module per file.
pub struct SourceTree {
    /// `(module name, source text)`, one per `Name.mspec` file.
    pub files: Vec<(String, String)>,
    /// Functions of shape `f n x` (power-like: `n` static unfolds, `x`
    /// dynamic) that link-spec and `dir` requests specialise.
    pub targets: Vec<QualName>,
}

impl SourceTree {
    /// The whole tree as one multi-module source text (the oracle's
    /// whole-program input).
    pub fn whole(&self) -> String {
        self.files
            .iter()
            .map(|(_, t)| t.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Writes every module to `dir/Name.mspec`.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, text) in &self.files {
            std::fs::write(dir.join(format!("{name}.mspec")), text)?;
        }
        Ok(())
    }
}

fn module_text(m: &Module) -> String {
    pretty_program(&Program::new(vec![m.clone()]))
}

/// The separate-compilation library: testkit's cross-module chain
/// library (`Lib*`, `Main`) and layered library (`L*w*`, its `Main`
/// renamed `Layered`), `random_modules` seeded random modules (`M*`)
/// and the example programs — a few dozen modules of which any one
/// request touches only a handful of functions.
pub fn library_tree(
    seed: u64,
    chain: LibraryShape,
    layered: LayeredShape,
    random_modules: usize,
) -> SourceTree {
    let mut modules: Vec<Module> = Vec::new();
    let mut targets = Vec::new();
    let (lib, _) = library_program(&chain);
    for m in lib.modules {
        if m.name.as_str() != "Main" {
            targets.extend(
                m.defs
                    .iter()
                    .map(|d| QualName::new(m.name.as_str(), d.name.as_str())),
            );
        }
        modules.push(m);
    }
    let (lay, _) = layered_program(&layered);
    for mut m in lay.modules {
        if m.name.as_str() == "Main" {
            m.name = mspec_lang::ModName::new("Layered");
        } else {
            targets.extend(
                m.defs
                    .iter()
                    .map(|d| QualName::new(m.name.as_str(), d.name.as_str())),
            );
        }
        modules.push(m);
    }
    let rnd = random_program(&GenConfig {
        modules: random_modules,
        defs_per_module: 4,
        max_depth: 4,
        seed,
    });
    modules.extend(rnd.program.modules);
    let mut files: Vec<(String, String)> = modules
        .iter()
        .map(|m| (m.name.as_str().to_string(), module_text(m)))
        .collect();
    for src in [POWER, LISTS, INTERP] {
        let p = parse_program(src).expect("example programs parse");
        for m in &p.modules {
            files.push((m.name.as_str().to_string(), module_text(m)));
        }
    }
    targets.push(QualName::new("Power", "power"));
    SourceTree { files, targets }
}

/// The paper's `Power` module plus testkit's chain library (its `Main`
/// left out): the source text and every power-like function `f n x` in
/// it, `Power.power` first.
pub fn power_library(shape: &LibraryShape) -> (String, Vec<QualName>) {
    let (lib, _) = library_program(shape);
    let modules: Vec<Module> = lib
        .modules
        .into_iter()
        .filter(|m| m.name.as_str() != "Main")
        .collect();
    let mut targets = vec![QualName::new("Power", "power")];
    for m in &modules {
        targets.extend(
            m.defs
                .iter()
                .map(|d| QualName::new(m.name.as_str(), d.name.as_str())),
        );
    }
    let source = format!("{POWER}\n{}", pretty_program(&Program::new(modules)));
    (source, targets)
}

/// Picks a Zipf-distributed rank in `0..cdf.len()`.
pub fn zipf(rng: &mut TestRng, cdf: &[f64]) -> usize {
    let u = unit(rng) * cdf.last().copied().unwrap_or(1.0);
    cdf.partition_point(|c| *c <= u).min(cdf.len() - 1)
}

/// Cumulative Zipf weights `1/(r+1)^s` over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            acc
        })
        .collect()
}

/// A program a daemon request names: inline source or the server-side
/// artefact directory.
#[derive(Debug, Clone)]
pub enum ProgRef {
    /// Inline source text (`program` field).
    Inline(Arc<str>),
    /// The artefact directory built in set-up (`dir` field).
    Dir,
}

/// One daemon request key: everything the daemon's memo key is made of,
/// plus the dynamic values a `run` request on it carries.
#[derive(Debug, Clone)]
pub struct ServeKey {
    /// The program.
    pub prog: ProgRef,
    /// `Module.function`.
    pub entry: String,
    /// Division, wire syntax.
    pub args: String,
    /// Engine strategy.
    pub strategy: Strategy,
    /// Dynamic values for `run` requests, wire syntax.
    pub values: String,
    /// What kind of key this is (for reports).
    pub kind: &'static str,
}

/// Parses a wire division back (the oracle's view of a key).
pub fn parse_division(s: &str) -> Vec<SpecArg> {
    mspec_serve::proto::parse_division(s).expect("generated divisions parse")
}

/// Parses wire values back.
pub fn parse_values(s: &str) -> Vec<Value> {
    mspec_serve::proto::parse_values(s).expect("generated values parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_syntax_round_trips() {
        let v = Value::list(vec![Value::nat(2), Value::nat(1), Value::list(vec![])]);
        let s = wire_value(&v);
        assert_eq!(s, "[2;1;[]]");
        let division = vec![SpecArg::Static(v.clone()), SpecArg::Dynamic];
        let w = wire_division(&division);
        assert_eq!(w, "S:[2;1;[]],D");
        let back = parse_division(&w);
        assert!(matches!(&back[0], SpecArg::Static(b) if *b == v));
        assert_eq!(
            parse_values("3,[1;2]"),
            vec![
                Value::nat(3),
                Value::list(vec![Value::nat(1), Value::nat(2)])
            ]
        );
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let shape = LibraryShape {
            modules: 3,
            fns_per_module: 2,
            used_fns: 2,
            exponent: 3,
            cross_module: true,
        };
        let lay = LayeredShape {
            levels: 2,
            width: 2,
            fns_per_module: 2,
            exponent: 3,
        };
        let a = library_tree(5, shape, lay, 2);
        let b = library_tree(5, shape, lay, 2);
        let c = library_tree(6, shape, lay, 2);
        assert_eq!(a.files, b.files);
        assert_ne!(a.whole(), c.whole());
        let mut r1 = TestRng::seed_from_u64(9);
        let mut r2 = TestRng::seed_from_u64(9);
        assert_eq!(interp_tree(&mut r1, 12), interp_tree(&mut r2, 12));
        let cdf = zipf_cdf(100, 1.0);
        let d1: Vec<usize> = (0..50).map(|_| zipf(&mut r1, &cdf)).collect();
        let d2: Vec<usize> = (0..50).map(|_| zipf(&mut r2, &cdf)).collect();
        assert_eq!(d1, d2);
        assert!(d1.iter().all(|r| *r < 100));
    }

    #[test]
    fn library_tree_parses_module_by_module() {
        let shape = LibraryShape {
            modules: 2,
            fns_per_module: 2,
            used_fns: 1,
            exponent: 3,
            cross_module: true,
        };
        let lay = LayeredShape {
            levels: 2,
            width: 2,
            fns_per_module: 2,
            exponent: 3,
        };
        let t = library_tree(1, shape, lay, 2);
        for (name, text) in &t.files {
            let m = mspec_lang::parser::parse_module(text).expect("module parses");
            assert_eq!(m.name.as_str(), name);
        }
        assert!(parse_program(&t.whole()).is_ok());
    }
}
