//! Specialisation-time errors.

use crate::budget::BudgetResource;
use mspec_lang::{ModName, QualName};
use std::error::Error;
use std::fmt;

/// An error raised while running a generating extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A call to a function with no generating extension (module not
    /// linked in).
    UnknownFunction(QualName),
    /// A static operation was applied to a value of the wrong shape.
    /// Well-typed, well-annotated programs never raise this.
    TypeConfusion(String),
    /// A static division by zero — the specialised computation itself
    /// is erroneous, as running the source program would show.
    DivByZero,
    /// A static `head`/`tail` of the empty list.
    EmptyList(&'static str),
    /// A [`crate::budget::SpecBudget`] resource ran out under
    /// [`crate::budget::OnExhaustion::Error`]. For step fuel this only
    /// happens when the source program itself diverges on the static
    /// inputs (the paper's conservative unfolding strategy); for the
    /// specialisation cap it is almost always unbounded polyvariance:
    /// static data growing without bound under dynamic control.
    BudgetExhausted {
        /// Which resource ran out.
        resource: BudgetResource,
        /// The function whose call hit the limit.
        witness: QualName,
        /// Structural hash of the offending call's static skeleton
        /// (`0` for breaches detected mid-unfold, before splitting).
        skeleton_hash: u64,
        /// The chain of specialisation/unfold requests that led to the
        /// breach, outermost first, truncated to the innermost frames.
        chain: Vec<QualName>,
    },
    /// The session's [`crate::CancelToken`] fired mid-run: an external
    /// controller (a wall-clock deadline, a disconnecting client)
    /// asked the engine to stop. The session is abandoned at a
    /// step boundary; `steps` records the partial progress made, so
    /// callers can report how far the run got before cancellation.
    Cancelled {
        /// The function being specialised/unfolded when the token fired
        /// (the innermost request-chain frame).
        witness: QualName,
        /// Evaluation steps completed before cancellation.
        steps: u64,
    },
    /// The entry function given to `specialise` does not exist.
    UnknownEntry(QualName),
    /// An entry argument count that does not match the entry function.
    EntryArity {
        /// The entry function.
        entry: QualName,
        /// Its parameter count.
        expected: usize,
        /// Arguments supplied.
        found: usize,
    },
    /// The generated residual modules import each other cyclically
    /// (cannot happen for first-order programs; reported defensively).
    CyclicResidualImports {
        /// One module on the cycle.
        witness: ModName,
    },
    /// Two linked modules share a name.
    DuplicateModule(ModName),
    /// Writing residual modules to disk failed.
    Io(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownFunction(q) => {
                write!(f, "no generating extension linked for `{q}`")
            }
            SpecError::TypeConfusion(m) => write!(f, "specialisation type confusion: {m}"),
            SpecError::DivByZero => write!(f, "static division by zero during specialisation"),
            SpecError::EmptyList(op) => {
                write!(f, "static `{op}` of empty list during specialisation")
            }
            SpecError::BudgetExhausted { resource, witness, skeleton_hash, chain } => {
                match resource {
                    BudgetResource::Steps => write!(
                        f,
                        "specialisation fuel exhausted at `{witness}` (the source \
                         program diverges on these inputs)"
                    )?,
                    BudgetResource::Specialisations => write!(
                        f,
                        "specialisation count budget exhausted (last request for \
                         `{witness}`): unbounded polyvariance — a static argument \
                         grows without bound under dynamic control; generalise it \
                         to dynamic"
                    )?,
                    BudgetResource::Pending => write!(
                        f,
                        "pending/suspension depth budget exhausted at `{witness}`: \
                         too many specialisations requested before any completed"
                    )?,
                    BudgetResource::ResidualNodes => write!(
                        f,
                        "residual program size budget exhausted at `{witness}`: \
                         the residual program is blowing up"
                    )?,
                    BudgetResource::UnfoldDepth => write!(
                        f,
                        "unfold depth budget exhausted at `{witness}`: too many nested \
                         unfolds, or too long a static list, for the residual to stay \
                         shallow enough to print and run"
                    )?,
                }
                write!(f, " [skeleton {skeleton_hash:016x}]")?;
                if !chain.is_empty() {
                    write!(f, "; request chain:")?;
                    for q in chain {
                        write!(f, " -> {q}")?;
                    }
                }
                Ok(())
            }
            SpecError::Cancelled { witness, steps } => write!(
                f,
                "specialisation cancelled at `{witness}` after {steps} steps \
                 (deadline or external cancellation)"
            ),
            SpecError::UnknownEntry(q) => write!(f, "unknown entry function `{q}`"),
            SpecError::EntryArity { entry, expected, found } => write!(
                f,
                "entry `{entry}` takes {expected} arguments but the division covers {found}"
            ),
            SpecError::CyclicResidualImports { witness } => {
                write!(f, "residual modules import cyclically (involving {witness})")
            }
            SpecError::DuplicateModule(m) => write!(f, "two linked modules named {m}"),
            SpecError::Io(m) => write!(f, "residual emission I/O error: {m}"),
        }
    }
}

impl Error for SpecError {}

impl From<std::io::Error> for SpecError {
    fn from(e: std::io::Error) -> SpecError {
        SpecError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(SpecError::UnknownFunction(QualName::new("A", "f"))
            .to_string()
            .contains("A.f"));
        let fuel = SpecError::BudgetExhausted {
            resource: BudgetResource::Steps,
            witness: QualName::new("M", "loop"),
            skeleton_hash: 0xdead_beef,
            chain: vec![QualName::new("M", "main"), QualName::new("M", "loop")],
        };
        let text = fuel.to_string();
        assert!(text.contains("diverges"), "{text}");
        assert!(text.contains("fuel"), "{text}");
        assert!(text.contains("M.loop"), "{text}");
        assert!(text.contains("-> M.main"), "{text}");
        assert!(text.contains("00000000deadbeef"), "{text}");
        let poly = SpecError::BudgetExhausted {
            resource: BudgetResource::Specialisations,
            witness: QualName::new("M", "upto"),
            skeleton_hash: 1,
            chain: vec![],
        };
        assert!(poly.to_string().contains("polyvariance"), "{poly}");
        let e = SpecError::EntryArity {
            entry: QualName::new("M", "main"),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("takes 2"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SpecError = io.into();
        assert!(matches!(e, SpecError::Io(_)));
    }
}
