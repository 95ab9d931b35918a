//! Residual-module emission.
//!
//! The paper (§5) emits residual definitions *as soon as they are
//! constructed* to keep memory consumption minimal, and, because a
//! module's imports are only known after all of its bodies exist, uses
//! two passes: bodies into temporary files first, then headers and
//! imports, then the bodies are copied after them. [`FileSink`]
//! reproduces that scheme literally; [`MemorySink`] is the in-memory
//! equivalent used when the caller wants the residual program as a value.
//!
//! [`assemble`] gives each generated module its imports (the engine
//! collects them while it measures each definition; [`imports_of`]
//! computes them from the code for other producers), checks the
//! generated import graph is acyclic, and never materialises empty
//! modules (they are simply never created, as in the paper).

use crate::error::SpecError;
use mspec_lang::ast::{Def, ModName, Module, Program, QualName};
use mspec_lang::modgraph::ModGraph;
use mspec_lang::pretty::pretty_def;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Receives residual definitions as soon as they are constructed.
pub trait ModuleSink {
    /// Emits one residual definition into a residual module.
    ///
    /// # Errors
    ///
    /// Implementations may fail on I/O.
    fn emit(&mut self, module: ModName, def: Def) -> Result<(), SpecError>;
}

/// Collects residual definitions in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    modules: BTreeMap<ModName, Vec<Def>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The collected modules.
    pub fn modules(&self) -> &BTreeMap<ModName, Vec<Def>> {
        &self.modules
    }

    /// Consumes the sink.
    pub fn into_modules(self) -> BTreeMap<ModName, Vec<Def>> {
        self.modules
    }
}

impl ModuleSink for MemorySink {
    fn emit(&mut self, module: ModName, def: Def) -> Result<(), SpecError> {
        self.modules.entry(module).or_default().push(def);
        Ok(())
    }
}

/// Streams residual definitions to per-module temporary body files; a
/// final pass writes each module file as header + imports + body (the
/// paper's two-pass emission).
#[derive(Debug)]
pub struct FileSink {
    dir: PathBuf,
    bodies: BTreeMap<ModName, fs::File>,
}

impl FileSink {
    /// Creates a sink writing into `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn new(dir: impl AsRef<Path>) -> Result<FileSink, SpecError> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(FileSink { dir: dir.as_ref().to_path_buf(), bodies: BTreeMap::new() })
    }

    fn body_path(&self, module: &ModName) -> PathBuf {
        self.dir.join(format!("{module}.body.tmp"))
    }

    /// Final path of a module's emitted source.
    pub fn module_path(&self, module: &ModName) -> PathBuf {
        self.dir.join(format!("{module}.mspec"))
    }

    /// Second pass: writes `Module.mspec` files — header, imports, then
    /// the streamed bodies — and removes the temporaries.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn finish(
        mut self,
        imports: &BTreeMap<ModName, BTreeSet<ModName>>,
    ) -> Result<Vec<PathBuf>, SpecError> {
        // Close body handles before re-reading.
        let modules: Vec<ModName> = self.bodies.keys().cloned().collect();
        self.bodies.clear();
        let mut out = Vec::new();
        for m in modules {
            let body = fs::read_to_string(self.body_path(&m))?;
            let mut text = format!("module {m} where\n");
            if let Some(imps) = imports.get(&m) {
                for i in imps {
                    text.push_str(&format!("import {i}\n"));
                }
            }
            text.push('\n');
            text.push_str(&body);
            let path = self.module_path(&m);
            fs::write(&path, text)?;
            fs::remove_file(self.body_path(&m))?;
            out.push(path);
        }
        Ok(out)
    }
}

impl ModuleSink for FileSink {
    fn emit(&mut self, module: ModName, def: Def) -> Result<(), SpecError> {
        if !self.bodies.contains_key(&module) {
            let f = fs::File::create(self.body_path(&module))?;
            self.bodies.insert(module, f);
        }
        let f = self.bodies.get_mut(&module).expect("just inserted");
        writeln!(f, "{}", pretty_def(&def, Some(&module)))?;
        Ok(())
    }
}

/// A sink that discards everything (for measuring pure specialisation
/// cost in benchmarks).
#[derive(Debug, Default)]
pub struct NullSink;

impl ModuleSink for NullSink {
    fn emit(&mut self, _module: ModName, _def: Def) -> Result<(), SpecError> {
        Ok(())
    }
}

/// The result of a specialisation run: a real, runnable program.
#[derive(Debug, Clone)]
pub struct ResidualProgram {
    /// The residual modules (with computed imports).
    pub program: Program,
    /// The residual entry function.
    pub entry: QualName,
    /// The imports each residual module ended up with (also inside
    /// `program`; kept separately for [`FileSink::finish`]).
    pub imports: BTreeMap<ModName, BTreeSet<ModName>>,
}

/// Each module's imports, computed from its code: the modules of the
/// functions its definitions call.
pub fn imports_of(modules: &BTreeMap<ModName, Vec<Def>>) -> BTreeMap<ModName, BTreeSet<ModName>> {
    let mut imports = BTreeMap::new();
    for (name, defs) in modules {
        let mut set = BTreeSet::new();
        for d in defs {
            for q in d.body.called_functions() {
                if q.module != *name {
                    set.insert(q.module);
                }
            }
        }
        imports.insert(*name, set);
    }
    imports
}

/// Assembles residual modules under their imports (a module `imports`
/// does not list imports nothing) and checks acyclicity.
///
/// # Errors
///
/// [`SpecError::CyclicResidualImports`] if the generated modules import
/// each other cyclically.
pub fn assemble(
    modules: BTreeMap<ModName, Vec<Def>>,
    mut imports: BTreeMap<ModName, BTreeSet<ModName>>,
    entry: QualName,
) -> Result<ResidualProgram, SpecError> {
    imports.retain(|name, _| modules.contains_key(name));
    for name in modules.keys() {
        imports.entry(*name).or_default();
    }
    let program = Program::new(
        modules
            .into_iter()
            .map(|(name, defs)| {
                let imps = imports[&name].iter().cloned().collect();
                Module::new(name, imps, defs)
            })
            .collect(),
    );
    match ModGraph::new(&program) {
        Ok(_) => Ok(ResidualProgram { program, entry, imports }),
        Err(mspec_lang::LangError::CyclicImports { witness }) => {
            Err(SpecError::CyclicResidualImports { witness })
        }
        Err(other) => Err(SpecError::TypeConfusion(format!(
            "residual module assembly failed: {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspec_lang::builder::*;

    fn def_calling(name: &str, target_mod: &str, target: &str) -> Def {
        def(name, ["x"], qcall(target_mod, target, [var("x")]))
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut s = MemorySink::new();
        s.emit(ModName::new("A"), def("f_1", ["x"], var("x"))).unwrap();
        s.emit(ModName::new("A"), def("f_2", ["x"], var("x"))).unwrap();
        assert_eq!(s.modules()[&ModName::new("A")].len(), 2);
    }

    #[test]
    fn assemble_computes_imports_and_orders() {
        let mut mods = BTreeMap::new();
        mods.insert(ModName::new("Main"), vec![def_calling("main_1", "Power", "power_1")]);
        mods.insert(ModName::new("Power"), vec![def("power_1", ["x"], var("x"))]);
        let imports = imports_of(&mods);
        let rp = assemble(mods, imports, QualName::new("Main", "main_1")).unwrap();
        assert_eq!(
            rp.imports[&ModName::new("Main")],
            [ModName::new("Power")].into()
        );
        assert!(rp.imports[&ModName::new("Power")].is_empty());
        // And it is a resolvable program.
        assert!(mspec_lang::resolve::resolve(rp.program.clone()).is_ok());
    }

    #[test]
    fn assemble_rejects_cycles() {
        let mut mods = BTreeMap::new();
        mods.insert(ModName::new("A"), vec![def_calling("f", "B", "g")]);
        mods.insert(ModName::new("B"), vec![def_calling("g", "A", "f")]);
        let imports = imports_of(&mods);
        let err = assemble(mods, imports, QualName::new("A", "f")).unwrap_err();
        assert!(matches!(err, SpecError::CyclicResidualImports { .. }));
    }

    #[test]
    fn no_empty_modules_in_assembly() {
        // Emptiness avoidance is by construction: only emitted modules
        // exist. An assembled program has exactly the emitted modules.
        let mut mods = BTreeMap::new();
        mods.insert(ModName::new("OnlyOne"), vec![def("f", [], nat(1))]);
        let rp = assemble(mods, BTreeMap::new(), QualName::new("OnlyOne", "f")).unwrap();
        assert_eq!(rp.program.modules.len(), 1);
    }

    #[test]
    fn file_sink_two_pass_emission() {
        let dir = std::env::temp_dir().join(format!("mspec-sink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut sink = FileSink::new(&dir).unwrap();
        let m = ModName::new("Power");
        sink.emit(m, def("power_1", ["x"], mul(var("x"), var("x")))).unwrap();
        sink.emit(m, def("power_2", ["x"], qcall("Power", "power_1", [var("x")]))).unwrap();
        // Body temp file exists during pass one.
        assert!(dir.join("Power.body.tmp").exists());
        let mut imports = BTreeMap::new();
        imports.insert(m, BTreeSet::new());
        let files = sink.finish(&imports).unwrap();
        assert_eq!(files.len(), 1);
        // Temp removed, final file parses as a module.
        assert!(!dir.join("Power.body.tmp").exists());
        let text = fs::read_to_string(&files[0]).unwrap();
        let module = mspec_lang::parser::parse_module(&text).unwrap();
        assert_eq!(module.defs.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_sink_writes_import_lines() {
        let dir = std::env::temp_dir().join(format!("mspec-sink-imp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut sink = FileSink::new(&dir).unwrap();
        let m = ModName::new("Main");
        sink.emit(m, def_calling("main_1", "Power", "power_1")).unwrap();
        let mut imports = BTreeMap::new();
        imports.insert(m, [ModName::new("Power")].into());
        let files = sink.finish(&imports).unwrap();
        let text = fs::read_to_string(&files[0]).unwrap();
        assert!(text.contains("import Power"), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.emit(ModName::new("X"), def("f", [], nat(1))).unwrap();
    }
}
