//! Builds: every way a program becomes generating extensions.
//!
//! The paper turns each module, in import order, into its generating
//! extension in three steps (§4): Hindley–Milner typing, a binding-time
//! analysis whose types mirror the HM types, then cogen. Each step needs
//! only the interfaces of the module's imports. Two builds run that
//! sequence:
//!
//! * [`build_program`] builds a resolved program in memory and links the
//!   result. It is the one front end of the library's `Pipeline`, the
//!   `mspec` CLI and the daemon's inline programs.
//! * [`build`] builds a source tree incrementally, in the style of `make`
//!   ("when a module is added to a software system, it can be analysed
//!   and tailored for specialisation once and for all", §9). It is the
//!   one writer of artefact directories:
//!   * a *source tree* is a directory of `Module.mspec` files (one
//!     module per file, file name = module name), or one source file
//!     holding several modules,
//!   * modules are processed in dependency order, writing `Module.bti`,
//!     `Module.gx` and a readable `GenModule.txt` into an artefact
//!     directory,
//!   * every module is typechecked, but a module is **rebuilt only when
//!     stale**: its source is not older than its `.bti` (file times are
//!     coarse, so a rewrite in the same tick as the last build counts as
//!     newer), or an import's interface changed (mere rebuilds that leave
//!     the `.bti` byte-identical do not dirty downstream modules).
//!
//! [`link_dir`] loads every `.gx` in an artefact directory into a
//! runnable [`GenProgram`] — no source needed.

use crate::compile::compile_module;
use crate::files::{
    bti_fingerprint, cogen_with, gx_header_checksum, load_gx_unit, load_import, CogenError,
};
use mspec_bta::analyse::analyse_module_with_traced;
use mspec_bta::{AnnModule, AnnProgram, BtInterface, BtaError};
use mspec_genext::{GenModule, GenProgram};
use mspec_lang::ast::{Ident, ModName, Module, Program, QualName};
use mspec_lang::parser::{parse_module, parse_program};
use mspec_lang::resolve::{resolve, ResolvedProgram};
use mspec_telemetry::{ModuleOutcome, Recorder};
use mspec_types::{infer_module_traced, ProgramTypes, TypeInterface};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// The outcome of a build, module by module in topological order: the
/// canonical telemetry report at this crate's error type.
///
/// From [`build_program`], a module is [`ModuleOutcome::Built`],
/// [`ModuleOutcome::Failed`] or [`ModuleOutcome::Skipped`] (an import
/// did not build). From [`build`], a module is `Built` when its
/// artefacts were (re)written and [`ModuleOutcome::UpToDate`] when left
/// alone; errors abort that build, so `Failed` and `Skipped` never
/// appear there.
pub type BuildReport = mspec_telemetry::BuildReport<CogenError>;

/// Builds a resolved program in memory: typechecks, binding-time
/// analyses and cogens each module in topological order against the
/// interfaces of its imports, then links the generating extensions.
/// `force_residual` names functions that must never be unfolded (the
/// paper's §5 hand annotation).
///
/// Builds are *fault-isolated*: a module whose stages fail, or panic,
/// does not stop the build. The panic is caught
/// ([`std::panic::catch_unwind`]), every module not depending on the
/// failed one still builds, and a module whose import did not build is
/// skipped, naming the culprit.
///
/// Telemetry: one `build` span (detail: the module count) holding a
/// `build-module` span per module, with `typecheck`, `bta` and `cogen`
/// inside it, then a `link` span; a `build.modules_built` counter.
///
/// # Errors
///
/// The [`BuildReport`] of every module when any module failed, panicked
/// or was skipped. An override naming no function fails the override's
/// module before anything builds.
pub fn build_program(
    resolved: &ResolvedProgram,
    force_residual: &BTreeSet<QualName>,
    rec: &Recorder,
) -> Result<(ProgramTypes, AnnProgram, GenProgram), BuildReport> {
    let mut report = BuildReport::default();
    for q in force_residual {
        if resolved.def(q).is_none() {
            let e = BtaError::UnknownOverride { module: q.module, name: q.name };
            report.push(q.module, ModuleOutcome::Failed(e.into()));
        }
    }
    if !report.is_clean() {
        return Err(report);
    }

    let build_span = if rec.is_enabled() {
        rec.span_with("build", &format!("{} modules", resolved.program().modules.len()))
    } else {
        rec.span("build")
    };
    let mut types = ProgramTypes::default();
    let mut type_ifaces: BTreeMap<ModName, TypeInterface> = BTreeMap::new();
    let mut bt_ifaces: BTreeMap<ModName, BtInterface> = BTreeMap::new();
    let mut ann_modules: Vec<AnnModule> = Vec::new();
    let mut gen_modules: Vec<GenModule> = Vec::new();
    for name in resolved.graph().topo_order() {
        // Imports come first in topological order, so an import without
        // interfaces by now did not build: skip, naming it.
        let imports = resolved.graph().direct_imports(name);
        if let Some(culprit) = imports.iter().find(|m| !type_ifaces.contains_key(m)) {
            report.push(*name, ModuleOutcome::Skipped { import: *culprit });
            continue;
        }
        let module = resolved
            .program()
            .module(name.as_str())
            .expect("topo order lists only program modules");
        let built =
            isolated(|| build_module(module, &type_ifaces, &bt_ifaces, force_residual, rec));
        let (ty, ann, gen) = match built {
            Ok(built) => built,
            Err(e) => {
                report.push(*name, ModuleOutcome::Failed(e));
                continue;
            }
        };
        for (f, scheme) in ty.iter() {
            types.insert(QualName { module: *name, name: *f }, scheme.clone());
        }
        type_ifaces.insert(*name, ty);
        bt_ifaces.insert(*name, ann.interface.clone());
        ann_modules.push(ann);
        gen_modules.push(gen);
        report.push(*name, ModuleOutcome::Built);
    }
    if !report.is_clean() {
        return Err(report);
    }

    let gen = {
        let _link = rec.span("link");
        // Resolution already rejected duplicate definitions, unknown
        // imports and import cycles, the only ways linking can fail.
        GenProgram::link(gen_modules).expect("a resolved program links")
    };
    drop(build_span);
    rec.count("build.modules_built", report.rebuilt() as u64);
    Ok((types, AnnProgram { modules: ann_modules }, gen))
}

/// Runs one module's stages, turning a panic into
/// [`CogenError::Panicked`], so one bad module cannot take down the
/// build or the process.
fn isolated<T>(stages: impl FnOnce() -> Result<T, CogenError>) -> Result<T, CogenError> {
    catch_unwind(AssertUnwindSafe(stages)).unwrap_or_else(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(CogenError::Panicked(msg))
    })
}

/// Typecheck, BTA and cogen for one module against the interfaces of
/// the modules built before it.
fn build_module(
    module: &Module,
    type_ifaces: &BTreeMap<ModName, TypeInterface>,
    bt_ifaces: &BTreeMap<ModName, BtInterface>,
    force_residual: &BTreeSet<QualName>,
    rec: &Recorder,
) -> Result<(TypeInterface, AnnModule, GenModule), CogenError> {
    let name = module.name;
    let _span = rec.span_with("build-module", name.as_str());
    // Debug-build fault hook for the fault-injection suite: a panic
    // injected inside a module's stages must be isolated
    // (`tests/fault_injection.rs`).
    #[cfg(debug_assertions)]
    if std::env::var("MSPEC_FAULT_PANIC_MODULE").as_deref() == Ok(name.as_str()) {
        panic!("injected fault in {name}");
    }
    let forced: BTreeSet<Ident> =
        force_residual.iter().filter(|q| q.module == name).map(|q| q.name).collect();
    let ty = infer_module_traced(module, type_ifaces, rec)?;
    let ann = analyse_module_with_traced(module, bt_ifaces, &forced, rec)?;
    let gen = {
        let _cogen = rec.span_with("cogen", name.as_str());
        compile_module(&ann)
    };
    Ok((ty, ann, gen))
}

/// Options controlling a build.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Functions to force residual, per module.
    pub force_residual: BTreeMap<ModName, BTreeSet<Ident>>,
    /// Rebuild everything regardless of timestamps.
    pub force: bool,
}

/// Builds (incrementally) all modules of `src` into `out_dir`. `src` is
/// a source tree or one source file holding any number of modules; the
/// artefacts are the same either way.
///
/// # Errors
///
/// I/O errors, parse/resolution errors (the whole tree is resolved to
/// validate cross-module references and compute the build order), a
/// type error in any module, and any analysis error from rebuilt
/// modules.
pub fn build(
    src: impl AsRef<Path>,
    out_dir: impl AsRef<Path>,
    options: &BuildOptions,
) -> Result<BuildReport, CogenError> {
    build_traced(src, out_dir, options, &Recorder::disabled())
}

/// [`build`] with telemetry: one `cogen-build` span for the run, a
/// `typecheck` span per module, a `cogen-module` span per rebuilt
/// module, and `io.*` counters for artefact bytes written.
///
/// # Errors
///
/// As [`build`].
pub fn build_traced(
    src: impl AsRef<Path>,
    out_dir: impl AsRef<Path>,
    options: &BuildOptions,
    rec: &Recorder,
) -> Result<BuildReport, CogenError> {
    let src = src.as_ref();
    let out_dir = out_dir.as_ref();
    let _build_span = rec.span("cogen-build");
    fs::create_dir_all(out_dir)?;
    let modules = load_sources(src)?;

    // Resolve the whole tree once: validates references and gives the
    // dependency order. (Typing and analysis still run per module,
    // against the interfaces of its imports only.)
    let program = Program::new(modules.iter().map(|(m, _)| m.clone()).collect());
    let resolved = resolve(program)?;

    let path_of: BTreeMap<&ModName, &PathBuf> =
        modules.iter().map(|(m, p)| (&m.name, p)).collect();

    let mut report =
        BuildReport { out_dir: Some(out_dir.to_path_buf()), ..BuildReport::default() };

    let mut types: BTreeMap<ModName, TypeInterface> = BTreeMap::new();
    let mut ifaces = Interfaces::default();
    let mut iface_changed: BTreeSet<ModName> = BTreeSet::new();
    for name in resolved.graph().topo_order() {
        let module = resolved.program().module(name.as_str()).unwrap();
        // Up-to-date modules are typechecked too: their importers are
        // checked against their type interfaces, which no artefact holds.
        types.insert(*name, infer_module_traced(module, &types, rec)?);
        let imports_changed = module.imports.iter().any(|i| iface_changed.contains(i));
        let (outcome, changed) =
            build_one(module, path_of[&name], out_dir, options, imports_changed, &mut ifaces, rec)?;
        if changed {
            iface_changed.insert(*name);
        }
        report.push(*name, outcome);
    }
    rec.count("cogen.modules_rebuilt", report.rebuilt() as u64);
    Ok(report)
}

/// The modules of a build's source, each with the file it came from: a
/// multi-module source file, or a source tree's `Module.mspec` files.
fn load_sources(src: &Path) -> Result<Vec<(Module, PathBuf)>, CogenError> {
    if src.is_file() {
        let program = parse_program(&fs::read_to_string(src)?)?;
        return Ok(program.modules.into_iter().map(|m| (m, src.to_path_buf())).collect());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(src)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "mspec"))
        .collect();
    entries.sort();
    let mut modules = Vec::with_capacity(entries.len());
    for path in entries {
        let module = parse_module(&fs::read_to_string(&path)?)?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if module.name.as_str() != stem {
            return Err(CogenError::Format(format!(
                "file {} declares module {}, expected {stem}",
                path.display(),
                module.name
            )));
        }
        modules.push((module, path));
    }
    Ok(modules)
}

/// The interfaces of one build, by module: each one written by the
/// build, or decoded from the artefact directory on first use, so an
/// up-to-date import is decoded once per build rather than once per
/// importer.
#[derive(Default)]
struct Interfaces(BTreeMap<ModName, (BtInterface, u64)>);

impl Interfaces {
    /// `module`'s interface and fingerprint.
    fn get(&mut self, module: ModName, out_dir: &Path) -> Result<(BtInterface, u64), CogenError> {
        if let Some(known) = self.0.get(&module) {
            return Ok(known.clone());
        }
        let loaded = load_import(out_dir, module)?;
        Ok(self.0.entry(module).or_insert(loaded).clone())
    }
}

/// One module's incremental step: the staleness check, then (when
/// stale) cogen plus the old/new `.bti` fingerprint comparison that
/// decides whether downstream modules must rebuild. Returns the outcome
/// and whether the interface changed. Runs in dependency order, so
/// every import's step has completed.
fn build_one(
    module: &Module,
    src_path: &Path,
    out_dir: &Path,
    options: &BuildOptions,
    imports_changed: bool,
    ifaces: &mut Interfaces,
    rec: &Recorder,
) -> Result<(ModuleOutcome<CogenError>, bool), CogenError> {
    let name = module.name;
    let bti = out_dir.join(format!("{name}.bti"));
    let gx = out_dir.join(format!("{name}.gx"));

    // An artefact that does not verify is as stale as a missing one,
    // and an unreadable old interface counts as a changed one.
    let old_fp = bti_fingerprint(&bti).ok();
    let stale = options.force
        || old_fp.is_none()
        || gx_header_checksum(&gx).is_err()
        || newer(src_path, &bti)?
        || imports_changed;

    if !stale {
        return Ok((ModuleOutcome::UpToDate, false));
    }
    let _span = if rec.is_enabled() {
        rec.span_with("cogen-module", name.as_str())
    } else {
        rec.span("cogen-module")
    };
    let forced = options.force_residual.get(&name).cloned().unwrap_or_default();
    let (out, iface, fp) = cogen_with(module, out_dir, &forced, |imp| ifaces.get(imp, out_dir))?;
    if rec.is_enabled() {
        rec.count("io.bti_bytes_written", file_len(&out.bti));
        rec.count("io.gx_bytes_written", file_len(&out.gx));
    }
    ifaces.0.insert(name, (iface, fp));
    Ok((ModuleOutcome::Built, old_fp != Some(fp)))
}

/// On-disk size of an artefact, for the `io.*_bytes_written` counters
/// (0 if it vanished — telemetry never fails a build).
fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Links every `.gx` file in an artefact directory into a runnable
/// program. The source tree is not consulted.
///
/// Each `.gx` records the fingerprints of the `.bti` interfaces it was
/// generated against; those are revalidated here against the `.bti`
/// files currently on disk, so a genext built before an import's
/// interface changed is rejected as [`CogenError::StaleInterface`]
/// instead of being linked into an inconsistent program.
///
/// # Errors
///
/// I/O errors, corrupt genext files, stale or missing interfaces, or
/// linking errors.
pub fn link_dir(out_dir: impl AsRef<Path>) -> Result<GenProgram, CogenError> {
    link_dir_traced(out_dir, &Recorder::disabled())
}

/// [`link_dir`] with telemetry: a `link-dir` span, `io.gx_bytes_read` /
/// `io.bti_bytes_read` counters, an `io.gx_bytes_decoded` counter for
/// the payload bytes eagerly JSON-parsed (just the offset table for
/// seekable v2 files — function bodies decode lazily on first lookup),
/// and an `io.checksum_ns` histogram over per-artefact validation
/// (decode + FNV revalidation) times.
///
/// # Errors
///
/// As [`link_dir`].
pub fn link_dir_traced(
    out_dir: impl AsRef<Path>,
    rec: &Recorder,
) -> Result<GenProgram, CogenError> {
    let out_dir = out_dir.as_ref();
    let _span = rec.span("link-dir");
    let mut gx_files: Vec<PathBuf> = fs::read_dir(out_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "gx"))
        .collect();
    gx_files.sort();
    let mut current_fp: BTreeMap<ModName, u64> = BTreeMap::new();
    let mut units = Vec::with_capacity(gx_files.len());
    for path in &gx_files {
        let t0 = Instant::now();
        let gxu = load_gx_unit(path)?;
        if rec.is_enabled() {
            rec.observe("io.checksum_ns", t0.elapsed().as_nanos() as u64);
            rec.count("io.gx_bytes_read", file_len(path));
            rec.count("io.gx_bytes_decoded", gxu.eager_decoded);
        }
        for (import, recorded) in gxu.ifaces {
            let fp = match current_fp.get(&import) {
                Some(fp) => *fp,
                None => {
                    let bti = out_dir.join(format!("{import}.bti"));
                    if !bti.exists() {
                        return Err(CogenError::MissingInterface(import));
                    }
                    let t1 = Instant::now();
                    let fp = bti_fingerprint(&bti)?;
                    if rec.is_enabled() {
                        rec.observe("io.checksum_ns", t1.elapsed().as_nanos() as u64);
                        rec.count("io.bti_bytes_read", file_len(&bti));
                    }
                    current_fp.insert(import, fp);
                    fp
                }
            };
            if fp != recorded {
                return Err(CogenError::StaleInterface { module: gxu.unit.name, import });
            }
        }
        units.push(gxu.unit);
    }
    rec.count("link.modules_linked", units.len() as u64);
    Ok(GenProgram::link_units(units)?)
}

/// Whether `a` may have changed since `b` was written. Equal times
/// count: a file-time tick is coarse enough for a source rewritten right
/// after a build to carry its artefact's time.
fn newer(a: &Path, b: &Path) -> Result<bool, CogenError> {
    Ok(mtime(a)? >= mtime(b)?)
}

fn mtime(p: &Path) -> Result<SystemTime, CogenError> {
    Ok(fs::metadata(p)?.modified()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::cogen_module;
    use filetime_shim::set_mtime_back;

    /// Tiny helper to push a file's mtime into the past so that "source
    /// newer than artefact" comparisons are deterministic without
    /// sleeping.
    mod filetime_shim {
        use std::fs;
        use std::path::Path;
        use std::time::{Duration, SystemTime};

        pub fn set_mtime_back(path: &Path, secs: u64) {
            let f = fs::OpenOptions::new().write(true).open(path).unwrap();
            let t = SystemTime::now() - Duration::from_secs(secs);
            f.set_modified(t).unwrap();
        }
    }

    /// Rewrites a module's source right after a build, often within the
    /// file-time tick of the build's own writes.
    fn rewrite(src: &Path, module: &str, text: &str) {
        fs::write(src.join(format!("{module}.mspec")), text).unwrap();
    }

    fn setup(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("mspec-build-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let src = base.join("src");
        let out = base.join("out");
        fs::create_dir_all(&src).unwrap();
        fs::write(
            src.join("Power.mspec"),
            "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
        )
        .unwrap();
        fs::write(
            src.join("Main.mspec"),
            "module Main where\nimport Power\nmain y = power 3 y\n",
        )
        .unwrap();
        (src, out)
    }

    #[test]
    fn first_build_rebuilds_everything_then_nothing() {
        let (src, out) = setup("fresh");
        let r1 = build(&src, &out, &BuildOptions::default()).unwrap();
        assert_eq!(r1.rebuilt(), 2);
        // Artefacts exist.
        assert!(out.join("Power.bti").exists());
        assert!(out.join("Power.gx").exists());
        assert!(out.join("Main.gx").exists());
        // Make artefacts strictly newer than sources.
        set_mtime_back(&src.join("Power.mspec"), 60);
        set_mtime_back(&src.join("Main.mspec"), 60);
        let r2 = build(&src, &out, &BuildOptions::default()).unwrap();
        assert_eq!(r2.rebuilt(), 0);
        assert_eq!(r2.up_to_date(), 2);
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// A source carrying exactly its `.bti`'s time, as after a rewrite
    /// in the same file-time tick as the build that wrote the `.bti`, is
    /// rebuilt rather than reported up to date.
    #[test]
    fn a_rewrite_in_the_same_tick_is_rebuilt() {
        let (src, out) = setup("same-tick");
        build(&src, &out, &BuildOptions::default()).unwrap();
        let power = src.join("Power.mspec");
        let body = "module Power where\npower n x = if n == 1 then x else power (n - 1) x * x\n";
        rewrite(&src, "Power", body);
        let bti_time = fs::metadata(out.join("Power.bti")).unwrap().modified().unwrap();
        fs::OpenOptions::new().write(true).open(&power).unwrap().set_modified(bti_time).unwrap();
        let r = build(&src, &out, &BuildOptions::default()).unwrap();
        assert!(matches!(r.outcome("Power"), Some(ModuleOutcome::Built)));
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    #[test]
    fn touching_a_leaf_rebuilds_only_it_when_interface_is_stable() {
        let (src, out) = setup("leaf");
        build(&src, &out, &BuildOptions::default()).unwrap();
        set_mtime_back(&src.join("Power.mspec"), 60);
        set_mtime_back(&src.join("Main.mspec"), 60);
        // Rewrite Power with the same interface (body tweak only).
        rewrite(
            &src,
            "Power",
            "module Power where\npower n x = if n == 1 then x else power (n - 1) x * x\n",
        );
        let r = build(&src, &out, &BuildOptions::default()).unwrap();
        // Power rebuilt; Main untouched because Power's .bti is identical.
        assert!(matches!(r.outcome("Power"), Some(ModuleOutcome::Built)));
        assert!(matches!(r.outcome("Main"), Some(ModuleOutcome::UpToDate)));
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    #[test]
    fn interface_changes_propagate_downstream() {
        let (src, out) = setup("prop");
        build(&src, &out, &BuildOptions::default()).unwrap();
        set_mtime_back(&src.join("Power.mspec"), 60);
        set_mtime_back(&src.join("Main.mspec"), 60);
        // Change Power so its binding-time interface changes (new
        // dynamic-conditional structure).
        rewrite(
            &src,
            "Power",
            "module Power where\npower n x = if x == 0 then 0 else if n == 1 then x else x * power (n - 1) x\n",
        );
        let r = build(&src, &out, &BuildOptions::default()).unwrap();
        assert_eq!(r.rebuilt(), 2, "{:?}", r.outcomes);
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// Writes garbage over Power's `.bti`, makes Power's source newer or
    /// older than it, and rebuilds: Power and its importer must rebuild.
    fn rebuild_over_corrupt_interface(tag: &str, source_newer: bool) {
        let (src, out) = setup(tag);
        build(&src, &out, &BuildOptions::default()).unwrap();
        fs::write(out.join("Power.bti"), "garbage").unwrap();
        if source_newer {
            let text = fs::read_to_string(src.join("Power.mspec")).unwrap();
            rewrite(&src, "Power", &text);
        } else {
            set_mtime_back(&src.join("Power.mspec"), 60);
            set_mtime_back(&src.join("Main.mspec"), 60);
        }
        let r = build(&src, &out, &BuildOptions::default()).unwrap();
        assert!(matches!(r.outcome("Power"), Some(ModuleOutcome::Built)), "{:?}", r.outcomes);
        assert!(matches!(r.outcome("Main"), Some(ModuleOutcome::Built)), "{:?}", r.outcomes);
        link_dir(&out).unwrap();
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// An unreadable old fingerprint counts as a changed interface.
    #[test]
    fn corrupt_interface_of_a_stale_module_is_rebuilt() {
        rebuild_over_corrupt_interface("corrupt-new", true);
    }

    /// A `.bti` that does not verify makes its module stale even when
    /// the source is older: otherwise only the next link would fail.
    #[test]
    fn corrupt_interface_of_an_up_to_date_module_is_rebuilt() {
        rebuild_over_corrupt_interface("corrupt-old", false);
    }

    /// A `.gx` whose header does not verify makes its module stale.
    #[test]
    fn corrupt_genext_header_is_rebuilt() {
        let (src, out) = setup("corrupt-gx");
        build(&src, &out, &BuildOptions::default()).unwrap();
        set_mtime_back(&src.join("Power.mspec"), 60);
        set_mtime_back(&src.join("Main.mspec"), 60);
        fs::write(out.join("Power.gx"), "garbage").unwrap();
        let r = build(&src, &out, &BuildOptions::default()).unwrap();
        assert!(matches!(r.outcome("Power"), Some(ModuleOutcome::Built)), "{:?}", r.outcomes);
        link_dir(&out).unwrap();
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    #[test]
    fn built_tree_links_and_specialises_without_source() {
        let (src, out) = setup("link");
        build(&src, &out, &BuildOptions::default()).unwrap();
        // Source gone.
        fs::remove_dir_all(&src).unwrap();
        let linked = link_dir(&out).unwrap();
        let mut engine =
            mspec_genext::Engine::new(&linked, mspec_genext::EngineOptions::default());
        let residual = engine
            .specialise(
                &mspec_lang::QualName::new("Main", "main"),
                vec![mspec_genext::SpecArg::Dynamic],
            )
            .unwrap();
        let rp = resolve(residual.program.clone()).unwrap();
        let mut ev = mspec_lang::eval::Evaluator::new(&rp);
        assert_eq!(
            ev.call(&residual.entry, vec![mspec_lang::eval::Value::nat(2)]).unwrap(),
            mspec_lang::eval::Value::nat(8)
        );
        let _ = fs::remove_dir_all(out.parent().unwrap());
    }

    #[test]
    fn misnamed_file_is_rejected() {
        let base = std::env::temp_dir().join(format!("mspec-build-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let src = base.join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(src.join("Wrong.mspec"), "module Power where\np x = x\n").unwrap();
        let err = build(&src, base.join("out"), &BuildOptions::default()).unwrap_err();
        assert!(matches!(err, CogenError::Format(_)), "{err}");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn stale_interface_is_rejected_at_link_time() {
        let (src, out) = setup("stale");
        build(&src, &out, &BuildOptions::default()).unwrap();
        // Regenerate Power's artefacts behind the build system's back
        // with a different interface (extra export), leaving Main.gx
        // recorded against the old Power.bti fingerprint.
        let rp = resolve(
            parse_module("module Power where\npower n x = x\nextra y = y\n")
                .map(|m| Program::new(vec![m]))
                .unwrap(),
        )
        .unwrap();
        let power2 = rp.program().modules[0].clone();
        cogen_module(&power2, &out, &BTreeSet::new()).unwrap();
        let err = link_dir(&out).unwrap_err();
        match err {
            CogenError::StaleInterface { module, import } => {
                assert_eq!(module.as_str(), "Main");
                assert_eq!(import.as_str(), "Power");
            }
            other => panic!("expected StaleInterface, got {other}"),
        }
        // A (forced) rebuild repairs the tree and linking succeeds again.
        fs::write(src.join("Power.mspec"), "module Power where\npower n x = x\nextra y = y\n")
            .unwrap();
        build(&src, &out, &BuildOptions { force: true, ..Default::default() }).unwrap();
        assert!(link_dir(&out).is_ok());
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    #[test]
    fn traced_build_and_link_record_spans_and_io_counters() {
        let (src, out) = setup("traced");
        let rec = Recorder::enabled();
        build_traced(&src, &out, &BuildOptions::default(), &rec).unwrap();
        link_dir_traced(&out, &rec).unwrap();
        let snap = rec.snapshot();
        let names: Vec<&str> = snap
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                mspec_telemetry::EventKind::SpanBegin { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"cogen-build"), "{names:?}");
        assert!(names.contains(&"cogen-module"), "{names:?}");
        assert!(names.contains(&"link-dir"), "{names:?}");
        let counter = |n: &str| snap.counters.iter().find(|(c, _)| c == n).map(|(_, v)| *v);
        assert!(counter("io.gx_bytes_written").unwrap_or(0) > 0);
        assert!(counter("io.gx_bytes_read").unwrap_or(0) > 0);
        assert_eq!(counter("cogen.modules_rebuilt"), Some(2));
        assert!(snap.hists.iter().any(|(n, _)| n == "io.checksum_ns"));
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    #[test]
    fn force_rebuilds_everything() {
        let (src, out) = setup("force");
        build(&src, &out, &BuildOptions::default()).unwrap();
        set_mtime_back(&src.join("Power.mspec"), 60);
        set_mtime_back(&src.join("Main.mspec"), 60);
        let r = build(&src, &out, &BuildOptions { force: true, ..Default::default() }).unwrap();
        assert_eq!(r.rebuilt(), 2);
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// A wider tree: a diamond plus an independent leaf.
    fn setup_wide(tag: &str) -> (PathBuf, PathBuf) {
        let (src, out) = setup(tag);
        fs::write(
            src.join("Sq.mspec"),
            "module Sq where\nimport Power\nsq x = power 2 x\n",
        )
        .unwrap();
        fs::write(
            src.join("Top.mspec"),
            "module Top where\nimport Sq\nimport Power\ntop x = sq x + power 3 x\n",
        )
        .unwrap();
        fs::write(src.join("Lone.mspec"), "module Lone where\nid x = x\n").unwrap();
        (src, out)
    }

    /// An unchanged tree is all up to date, and an interface change
    /// propagates to every importer's subtree and nowhere else.
    #[test]
    fn wide_tree_build_is_incremental() {
        let (src, out) = setup_wide("wide-incr");
        let opts = BuildOptions::default();
        build(&src, &out, &opts).unwrap();
        for f in ["Power", "Main", "Sq", "Top", "Lone"] {
            set_mtime_back(&src.join(format!("{f}.mspec")), 60);
        }
        let r = build(&src, &out, &opts).unwrap();
        assert_eq!(r.rebuilt(), 0);
        assert_eq!(r.up_to_date(), 5);
        // Change Power's interface: everything downstream rebuilds.
        rewrite(
            &src,
            "Power",
            "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\ncube x = power 3 x\n",
        );
        let r = build(&src, &out, &opts).unwrap();
        assert!(matches!(r.outcome("Power"), Some(ModuleOutcome::Built)));
        assert!(matches!(r.outcome("Main"), Some(ModuleOutcome::Built)));
        assert!(matches!(r.outcome("Sq"), Some(ModuleOutcome::Built)));
        assert!(matches!(r.outcome("Top"), Some(ModuleOutcome::Built)));
        assert!(matches!(r.outcome("Lone"), Some(ModuleOutcome::UpToDate)));
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// A type error in a module aborts the artefact build with
    /// [`CogenError::Type`], before its artefacts (or any importer's)
    /// are written.
    #[test]
    fn ill_typed_module_fails_the_artefact_build() {
        let (src, out) = setup("ill-typed");
        fs::write(src.join("Power.mspec"), "module Power where\npower n x = x + (n < 1)\n")
            .unwrap();
        let err = build(&src, &out, &BuildOptions::default()).unwrap_err();
        let CogenError::Type(e) = &err else { panic!("expected a type error, got {err}") };
        assert!(e.to_string().contains("Power.power"), "{e}");
        assert!(!out.join("Power.gx").exists() && !out.join("Main.gx").exists());
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// An up-to-date import is typechecked too: its importer is checked
    /// against its type interface, which no artefact records.
    #[test]
    fn importers_are_typechecked_against_up_to_date_imports() {
        let (src, out) = setup("typed-import");
        build(&src, &out, &BuildOptions::default()).unwrap();
        set_mtime_back(&src.join("Power.mspec"), 60);
        rewrite(&src, "Main", "module Main where\nimport Power\nmain y = power true y\n");
        let err = build(&src, &out, &BuildOptions::default()).unwrap_err();
        assert!(matches!(err, CogenError::Type(_)), "{err}");
        assert!(err.to_string().contains("Main.main"), "{err}");
        let _ = fs::remove_dir_all(src.parent().unwrap());
    }

    /// A 4-module diamond: `d1 x = (2(x+1)) + ((x+1)+3)`.
    const DIAMOND: &str = "module A where\n\
        a1 x = x + 1\n\
        module B where\n\
        import A\n\
        b1 x = a1 x * 2\n\
        module C where\n\
        import A\n\
        c1 x = a1 x + 3\n\
        module D where\n\
        import B\n\
        import C\n\
        d1 x = b1 x + c1 x\n";

    fn build_source(
        src: &str,
        forced: &BTreeSet<QualName>,
    ) -> Result<(ProgramTypes, AnnProgram, GenProgram), BuildReport> {
        let rp = resolve(mspec_lang::parser::parse_program(src).unwrap()).unwrap();
        build_program(&rp, forced, &Recorder::disabled())
    }

    /// Modules build in topological order: imports first, otherwise in
    /// the order the whole-program stages use.
    #[test]
    fn front_end_builds_in_topological_order() {
        let src = "module A where\na1 x = x + 1\n\
            module B where\nimport A\nb1 x = a1 x * 2\n\
            module C where\nc1 x = x\n";
        let (_, ann, _) = build_source(src, &BTreeSet::new()).unwrap();
        let order: Vec<&str> = ann.modules.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(order, ["A", "B", "C"]);
    }

    /// Module by module, the front end computes what the whole-program
    /// stages compute: the same types, annotations and residuals.
    #[test]
    fn front_end_matches_whole_program_stages() {
        let rp = resolve(mspec_lang::parser::parse_program(DIAMOND).unwrap()).unwrap();
        let forced: BTreeSet<QualName> = [QualName::new("A", "a1")].into();
        let (types, ann, gen) = build_program(&rp, &forced, &Recorder::disabled()).unwrap();
        let whole_types = mspec_types::infer_program(&rp).unwrap();
        assert!(types.iter().eq(whole_types.iter()));
        let whole_ann = mspec_bta::analyse::analyse_program_with(&rp, &forced).unwrap();
        assert_eq!(ann, whole_ann);
        let whole_gen = crate::compile::compile_program(&whole_ann).unwrap();
        let residual = |g: &GenProgram| {
            let mut engine = mspec_genext::Engine::new(g, mspec_genext::EngineOptions::default());
            let r = engine
                .specialise(&QualName::new("D", "d1"), vec![mspec_genext::SpecArg::Dynamic])
                .unwrap();
            mspec_lang::pretty::pretty_program(&r.program)
        };
        assert_eq!(residual(&gen), residual(&whole_gen));
    }

    /// B has a type error (boolean + nat); C is independent and must
    /// still build; D imports B and must be skipped, naming B.
    #[test]
    fn failing_module_reports_aggregate_and_skips_dependents() {
        let src = "module A where\n\
            a1 x = x + 1\n\
            module B where\n\
            import A\n\
            b1 x = a1 x + (1 < 2)\n\
            module C where\n\
            import A\n\
            c1 x = a1 x + 3\n\
            module D where\n\
            import B\n\
            import C\n\
            d1 x = b1 x + c1 x\n";
        let report = build_source(src, &BTreeSet::new()).unwrap_err();
        let failed = report.failed();
        assert_eq!(failed.len(), 1, "{report}");
        assert_eq!(failed[0].0.as_str(), "B");
        assert!(matches!(failed[0].1, CogenError::Type(_)));
        assert_eq!(report.skipped(), vec![(ModName::new("D"), ModName::new("B"))]);
        let built = report.built();
        let built: Vec<&str> = built.iter().map(|m| m.as_str()).collect();
        assert_eq!(built, ["A", "C"], "siblings of a failed module still build");
        let text = report.to_string();
        assert!(text.contains("1 failed, 1 skipped, 2 built"), "{text}");
        assert!(text.contains("B: type mismatch in B.b1"), "{text}");
    }

    /// A panic in a module's stages becomes that module's error.
    #[test]
    fn panicking_module_is_captured_not_fatal() {
        let module = "B";
        let formatted: Result<u32, CogenError> = isolated(|| panic!("injected fault in {module}"));
        assert_eq!(formatted, Err(CogenError::Panicked("injected fault in B".into())));
        let literal: Result<u32, CogenError> = isolated(|| panic!("static payload"));
        assert_eq!(literal, Err(CogenError::Panicked("static payload".into())));
        assert_eq!(isolated(|| Ok::<u32, CogenError>(7)), Ok(7));
    }

    /// An override naming no function fails its module before anything
    /// builds.
    #[test]
    fn unknown_override_fails_before_anything_builds() {
        let forced: BTreeSet<QualName> = [QualName::new("D", "ghost")].into();
        let report = build_source(DIAMOND, &forced).unwrap_err();
        let failed = report.failed();
        assert_eq!(failed.len(), 1, "{report}");
        assert!(matches!(failed[0].1, CogenError::Bta(BtaError::UnknownOverride { .. })));
        assert!(report.built().is_empty(), "{report}");
    }
}
