//! The canonical per-module build report of both builds in
//! `cogen::build`: the in-memory front end `build_program`, where a module
//! builds, fails or is skipped, and the incremental artefact build,
//! where a module can also be up to date on disk. `mspec-cogen`
//! re-exports an alias of [`BuildReport`] at its error type.

use mspec_lang::ModName;
use std::fmt;
use std::path::PathBuf;

/// What happened to one module during a build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleOutcome<E> {
    /// Built fresh (or the on-disk artefact was rebuilt).
    Built,
    /// On-disk artefacts were current; nothing was rewritten.
    UpToDate,
    /// The module's own stages failed.
    Failed(E),
    /// Never attempted because `import` did not build.
    Skipped { import: ModName },
}

/// Aggregated outcome of a multi-module build, in completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport<E> {
    pub outcomes: Vec<(ModName, ModuleOutcome<E>)>,
    /// The artefact directory, for builds that write one.
    pub out_dir: Option<PathBuf>,
}

// Derived `Default` would demand `E: Default`.
impl<E> Default for BuildReport<E> {
    fn default() -> Self {
        BuildReport { outcomes: Vec::new(), out_dir: None }
    }
}

impl<E> BuildReport<E> {
    pub fn push(&mut self, module: ModName, outcome: ModuleOutcome<E>) {
        self.outcomes.push((module, outcome));
    }

    /// Modules built fresh, in completion order.
    pub fn built(&self) -> Vec<ModName> {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ModuleOutcome::Built))
            .map(|(m, _)| *m)
            .collect()
    }

    /// Count of modules built fresh (cogen: artefacts rewritten).
    pub fn rebuilt(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| matches!(o, ModuleOutcome::Built)).count()
    }

    /// Count of modules whose artefacts were already current.
    pub fn up_to_date(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| matches!(o, ModuleOutcome::UpToDate)).count()
    }

    /// Failed modules with their causes, in completion order.
    pub fn failed(&self) -> Vec<(ModName, &E)> {
        self.outcomes
            .iter()
            .filter_map(|(m, o)| match o {
                ModuleOutcome::Failed(e) => Some((*m, e)),
                _ => None,
            })
            .collect()
    }

    /// `(module, failed import)` pairs for modules never attempted.
    pub fn skipped(&self) -> Vec<(ModName, ModName)> {
        self.outcomes
            .iter()
            .filter_map(|(m, o)| match o {
                ModuleOutcome::Skipped { import } => Some((*m, *import)),
                _ => None,
            })
            .collect()
    }

    /// The outcome recorded for `module`, if any.
    pub fn outcome(&self, module: &str) -> Option<&ModuleOutcome<E>> {
        self.outcomes.iter().find(|(m, _)| m.as_str() == module).map(|(_, o)| o)
    }

    /// `true` iff every module built (fresh or up to date).
    pub fn is_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|(_, o)| matches!(o, ModuleOutcome::Built | ModuleOutcome::UpToDate))
    }
}

impl<E: fmt::Display> fmt::Display for BuildReport<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failed = self.failed();
        let skipped = self.skipped();
        write!(
            f,
            "staged build: {} failed, {} skipped, {} built",
            failed.len(),
            skipped.len(),
            self.rebuilt() + self.up_to_date()
        )?;
        for (m, e) in &failed {
            write!(f, "; {m}: {e}")?;
        }
        for (m, dep) in &skipped {
            write!(f, "; {m}: skipped (import {dep} did not build)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_display() {
        let mut r: BuildReport<String> = BuildReport::default();
        r.push(ModName::new("A"), ModuleOutcome::Built);
        r.push(ModName::new("B"), ModuleOutcome::Failed("type error".to_string()));
        r.push(ModName::new("C"), ModuleOutcome::UpToDate);
        r.push(ModName::new("D"), ModuleOutcome::Skipped { import: ModName::new("B") });
        assert_eq!(r.rebuilt(), 1);
        assert_eq!(r.up_to_date(), 1);
        assert_eq!(r.built().len(), 1);
        assert_eq!(r.failed().len(), 1);
        assert_eq!(r.skipped(), vec![(ModName::new("D"), ModName::new("B"))]);
        assert!(!r.is_clean());
        let text = r.to_string();
        assert!(text.contains("1 failed, 1 skipped, 2 built"), "{text}");
        assert!(text.contains("B: type error"), "{text}");
        assert!(text.contains("D: skipped (import B did not build)"), "{text}");
    }

    #[test]
    fn clean_report() {
        let mut r: BuildReport<String> = BuildReport::default();
        r.push(ModName::new("A"), ModuleOutcome::Built);
        assert!(r.is_clean());
        assert_eq!(r.outcome("A"), Some(&ModuleOutcome::Built));
        assert_eq!(r.outcome("Z"), None);
    }
}
