//! The unified error type of the pipeline.

use mspec_cogen::BuildReport;
use mspec_genext::SpecError;
use mspec_lang::eval::EvalError;
use mspec_lang::LangError;
use std::error::Error;
use std::fmt;

/// Any error from any pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Lexing, parsing, resolution or module-graph failure.
    Lang(LangError),
    /// Specialisation failure.
    Spec(SpecError),
    /// Running a (source or residual) program failed.
    Eval(EvalError),
    /// The front end ([`mspec_cogen::build_program`]) failed: a module's
    /// typecheck, binding-time analysis or cogen failed or panicked, or
    /// an override named no function. The report lists every failure,
    /// every module skipped because an import failed, and everything
    /// that did build.
    Build(Box<BuildReport>),
    /// A named entry function does not exist.
    NoSuchFunction {
        /// Module searched.
        module: String,
        /// Function name.
        name: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lang(e) => write!(f, "{e}"),
            PipelineError::Spec(e) => write!(f, "{e}"),
            PipelineError::Eval(e) => write!(f, "{e}"),
            PipelineError::Build(report) => write!(f, "{report}"),
            PipelineError::NoSuchFunction { module, name } => {
                write!(f, "no function `{name}` in module {module}")
            }
        }
    }
}

impl Error for PipelineError {}

impl From<LangError> for PipelineError {
    fn from(e: LangError) -> Self {
        PipelineError::Lang(e)
    }
}

impl From<SpecError> for PipelineError {
    fn from(e: SpecError) -> Self {
        PipelineError::Spec(e)
    }
}

impl From<EvalError> for PipelineError {
    fn from(e: EvalError) -> Self {
        PipelineError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PipelineError = SpecError::BudgetExhausted {
            resource: mspec_genext::BudgetResource::Steps,
            witness: mspec_lang::QualName::new("M", "loop"),
            skeleton_hash: 0,
            chain: vec![],
        }
        .into();
        assert!(e.to_string().contains("fuel"));
        let e2 = PipelineError::NoSuchFunction { module: "M".into(), name: "f".into() };
        assert!(e2.to_string().contains("M"));
        fn takes<E: Error>(_: E) {}
        takes(e2);
    }
}
