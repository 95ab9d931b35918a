//! Deterministic synthetic libraries for the scaling experiments.
//!
//! §4 motivates the approach with "general purpose libraries often define
//! very many functions, only a few of which are used in any particular
//! application". [`library_program`] builds exactly that situation with
//! controllable size: `modules × fns_per_module` power-like library
//! functions, of which a `Main` module uses `used_fns` with a static
//! exponent — so specialisation cost can be measured as the library
//! grows while the used set stays fixed.

use mspec_lang::ast::{Def, Module, Program, QualName};
use mspec_lang::builder as b;
use mspec_lang::ModName;

/// Shape of a synthetic library workload.
#[derive(Debug, Clone, Copy)]
pub struct LibraryShape {
    /// Number of library modules.
    pub modules: usize,
    /// Functions per library module.
    pub fns_per_module: usize,
    /// How many library functions `Main.main` actually uses.
    pub used_fns: usize,
    /// The static exponent each used function is specialised to.
    pub exponent: u64,
    /// If `true`, each library module's functions call into the previous
    /// module (cross-module chains); otherwise modules are independent.
    pub cross_module: bool,
}

impl Default for LibraryShape {
    fn default() -> LibraryShape {
        LibraryShape {
            modules: 4,
            fns_per_module: 8,
            used_fns: 3,
            exponent: 5,
            cross_module: true,
        }
    }
}

/// Builds the synthetic program. Returns the program and the entry
/// (`Main.main`, one dynamic parameter).
pub fn library_program(shape: &LibraryShape) -> (Program, QualName) {
    assert!(shape.modules >= 1 && shape.fns_per_module >= 1);
    assert!(shape.used_fns >= 1);
    let mut modules = Vec::new();
    for m in 0..shape.modules {
        let mut defs: Vec<Def> = Vec::new();
        for i in 0..shape.fns_per_module {
            let name = fn_name(m, i);
            // A power-like recursive function with a distinctive base
            // case; in cross-module mode the base case calls into the
            // previous module.
            let base = if shape.cross_module && m > 0 {
                b::qcall(
                    mod_name(m - 1).as_str(),
                    &fn_name(m - 1, i % shape.fns_per_module),
                    [b::nat(1), b::add(b::var("x"), b::nat((m * 31 + i) as u64))],
                )
            } else {
                b::add(b::var("x"), b::nat((m * 31 + i) as u64))
            };
            defs.push(b::def(
                &name,
                ["n", "x"],
                b::if_(
                    b::leq(b::var("n"), b::nat(1)),
                    base,
                    b::mul(b::var("x"), b::call(&name, [b::sub(b::var("n"), b::nat(1)), b::var("x")])),
                ),
            ));
        }
        let imports = if shape.cross_module && m > 0 {
            vec![mod_name(m - 1)]
        } else {
            vec![]
        };
        modules.push(Module::new(mod_name(m), imports, defs));
    }

    // Main uses `used_fns` functions spread across the library (stride
    // chosen to touch different modules), with the static exponent.
    let total = shape.modules * shape.fns_per_module;
    let used = shape.used_fns.min(total);
    let stride = (total / used).max(1);
    let mut body = b::nat(0);
    for k in 0..used {
        let idx = (k * stride) % total;
        let (m, i) = (idx / shape.fns_per_module, idx % shape.fns_per_module);
        body = b::add(
            body,
            b::qcall(mod_name(m).as_str(), &fn_name(m, i), [b::nat(shape.exponent), b::var("y")]),
        );
    }
    let main = Module::new(
        "Main",
        (0..shape.modules).map(mod_name).collect(),
        vec![b::def("main", ["y"], body)],
    );
    modules.push(main);
    (Program::new(modules), QualName::new("Main", "main"))
}

fn mod_name(m: usize) -> ModName {
    ModName::new(format!("Lib{m}"))
}

fn fn_name(m: usize, i: usize) -> String {
    format!("f{m}x{i}")
}

/// Shape of a layered synthetic program: `levels × width` modules where
/// every module at level `l > 0` imports every module at level `l - 1`.
///
/// Unlike [`LibraryShape`]'s chain (width 1), this graph is wide: the
/// `width` modules of a level are mutually independent.
#[derive(Debug, Clone, Copy)]
pub struct LayeredShape {
    /// Number of levels in the module graph (excluding `Main`).
    pub levels: usize,
    /// Modules per level.
    pub width: usize,
    /// Functions per module.
    pub fns_per_module: usize,
    /// Static exponent used by `Main`.
    pub exponent: u64,
}

impl Default for LayeredShape {
    fn default() -> LayeredShape {
        LayeredShape { levels: 4, width: 4, fns_per_module: 8, exponent: 5 }
    }
}

/// Builds the layered program. Returns the program and the entry
/// (`Main.main`, one dynamic parameter). `Main` imports every module of
/// the top level, so the graph has `levels + 1` levels in total.
pub fn layered_program(shape: &LayeredShape) -> (Program, QualName) {
    assert!(shape.levels >= 1 && shape.width >= 1 && shape.fns_per_module >= 1);
    let mut modules = Vec::new();
    for l in 0..shape.levels {
        for w in 0..shape.width {
            let mut defs: Vec<Def> = Vec::new();
            for i in 0..shape.fns_per_module {
                let name = layer_fn_name(l, i);
                // Power-like recursion whose base case fans into the
                // previous level (rotated by module position so imports
                // are genuinely used).
                let base = if l > 0 {
                    b::qcall(
                        layer_mod_name(l - 1, (w + i) % shape.width).as_str(),
                        &layer_fn_name(l - 1, i),
                        [b::nat(1), b::add(b::var("x"), b::nat((l * 17 + w * 5 + i) as u64))],
                    )
                } else {
                    b::add(b::var("x"), b::nat((w * 5 + i) as u64))
                };
                defs.push(b::def(
                    &name,
                    ["n", "x"],
                    b::if_(
                        b::leq(b::var("n"), b::nat(1)),
                        base,
                        b::mul(
                            b::var("x"),
                            b::call(&name, [b::sub(b::var("n"), b::nat(1)), b::var("x")]),
                        ),
                    ),
                ));
            }
            let imports = if l > 0 {
                (0..shape.width).map(|p| layer_mod_name(l - 1, p)).collect()
            } else {
                vec![]
            };
            modules.push(Module::new(layer_mod_name(l, w), imports, defs));
        }
    }
    // Main calls one function from each top-level module.
    let top = shape.levels - 1;
    let mut body = b::nat(0);
    for w in 0..shape.width {
        body = b::add(
            body,
            b::qcall(
                layer_mod_name(top, w).as_str(),
                &layer_fn_name(top, w % shape.fns_per_module),
                [b::nat(shape.exponent), b::var("y")],
            ),
        );
    }
    let main = Module::new(
        "Main",
        (0..shape.width).map(|w| layer_mod_name(top, w)).collect(),
        vec![b::def("main", ["y"], body)],
    );
    modules.push(main);
    (Program::new(modules), QualName::new("Main", "main"))
}

fn layer_mod_name(l: usize, w: usize) -> ModName {
    ModName::new(format!("L{l}w{w}"))
}

fn layer_fn_name(l: usize, i: usize) -> String {
    format!("g{l}x{i}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspec_lang::eval::{Evaluator, Value};
    use mspec_lang::resolve::resolve;

    #[test]
    fn library_resolves_and_runs() {
        let (p, entry) = library_program(&LibraryShape::default());
        let rp = resolve(p).unwrap();
        let mut ev = Evaluator::new(&rp);
        let v = ev.call(&entry, vec![Value::nat(2)]).unwrap();
        assert!(v.as_nat().is_some());
    }

    #[test]
    fn size_scales_with_shape() {
        let small = library_program(&LibraryShape {
            modules: 2,
            fns_per_module: 4,
            ..LibraryShape::default()
        })
        .0;
        let large = library_program(&LibraryShape {
            modules: 8,
            fns_per_module: 4,
            ..LibraryShape::default()
        })
        .0;
        assert!(large.size() > (3 * small.size()));
        assert_eq!(small.modules.len(), 3);
        assert_eq!(large.modules.len(), 9);
    }

    #[test]
    fn used_set_is_respected() {
        let (p, _) = library_program(&LibraryShape {
            used_fns: 2,
            ..LibraryShape::default()
        });
        let main = p.module("Main").unwrap();
        let calls = main.defs[0].body.called_functions();
        assert_eq!(calls.len(), 2);
    }

    #[test]
    fn independent_mode_has_no_lib_imports() {
        let (p, _) = library_program(&LibraryShape {
            cross_module: false,
            ..LibraryShape::default()
        });
        for m in &p.modules {
            if m.name.as_str() != "Main" {
                assert!(m.imports.is_empty());
            }
        }
    }

    #[test]
    fn deterministic_output() {
        let a = library_program(&LibraryShape::default()).0;
        let b = library_program(&LibraryShape::default()).0;
        assert_eq!(a, b);
    }

    #[test]
    fn layered_program_resolves_and_runs() {
        let (p, entry) = layered_program(&LayeredShape::default());
        let shape = LayeredShape::default();
        assert_eq!(p.modules.len(), shape.levels * shape.width + 1);
        let rp = resolve(p).unwrap();
        let mut ev = Evaluator::new(&rp);
        let v = ev.call(&entry, vec![Value::nat(2)]).unwrap();
        assert!(v.as_nat().is_some());
    }

    #[test]
    fn layered_program_has_full_width_levels() {
        let shape = LayeredShape { levels: 3, width: 5, fns_per_module: 2, exponent: 3 };
        let (p, _) = layered_program(&shape);
        let rp = resolve(p).unwrap();
        // Every level-l module imports all of level l-1; Main imports
        // the top level.
        for m in rp.program().modules.iter() {
            if m.name.as_str() == "Main" || m.name.as_str().starts_with("L0") {
                continue;
            }
            assert_eq!(m.imports.len(), shape.width, "{}", m.name);
        }
    }
}
