//! Resource governance for specialisation sessions.
//!
//! A generating extension runs at *deployment* time, without the source
//! program (§2): a diverging specialisation — static recursion that
//! never bottoms out, or unbounded polyvariance growing fresh skeletons
//! forever — must surface as a bounded, structured outcome, never a hang
//! or memory exhaustion. [`SpecBudget`] bounds the four resources a
//! session can consume, and [`OnExhaustion`] chooses what happens when
//! one runs out:
//!
//! * [`OnExhaustion::Error`] — abort with
//!   [`crate::SpecError::BudgetExhausted`], carrying the offending
//!   function, its skeleton hash, and the chain of specialisation
//!   requests that led there (so the diverging cycle is visible).
//! * [`OnExhaustion::Generalise`] — demote the offending call to a
//!   fully-dynamic residual call: the static skeleton is abandoned
//!   (every argument lifted to code), so at most one *generalised*
//!   variant per source function is ever created and specialisation
//!   terminates with a correct, merely less specialised program. This is
//!   the classic generalisation move of offline partial evaluation,
//!   applied on demand rather than by reannotation.
//!
//! All recursion in the object language flows through named function
//! calls (the HM type discipline rules out self-application), so
//! checking the budget at every `mk_resid`/unfold decision point is
//! enough to catch any divergence; evaluation between calls is
//! structural and terminates on its own.

/// Resource limits for one specialisation session.
///
/// Every limit is a hard cap; which one fires first depends on the
/// workload (step fuel for unfolding loops, the specialisation cap for
/// unbounded polyvariance, the pending cap for explosive fan-out, the
/// residual-size cap for code blow-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecBudget {
    /// Evaluation-step fuel. Each [`crate::gexp::GExp`] node evaluated
    /// spends one unit.
    pub steps: u64,
    /// Upper bound on memo-table entries, i.e. residual definitions
    /// requested. Unbounded *polyvariance* — ever-growing static data
    /// under dynamic control, e.g. `range a b` with static `a` and
    /// dynamic `b` — diverges in every offline specialiser with this
    /// unfolding strategy (the paper's termination argument covers
    /// unfolding, not polyvariant residualisation).
    pub max_specialisations: usize,
    /// Upper bound on the pending list (breadth-first) and on the
    /// suspension depth of simultaneously open bodies (depth-first).
    pub max_pending: usize,
    /// Upper bound on total residual AST nodes emitted across all
    /// definitions (code-explosion guard).
    pub max_residual_nodes: usize,
}

impl Default for SpecBudget {
    fn default() -> SpecBudget {
        SpecBudget {
            steps: 200_000_000,
            max_specialisations: 100_000,
            max_pending: 100_000,
            max_residual_nodes: 50_000_000,
        }
    }
}

impl SpecBudget {
    /// A budget with the given step fuel and default caps elsewhere.
    pub fn with_steps(steps: u64) -> SpecBudget {
        SpecBudget { steps, ..SpecBudget::default() }
    }
}

/// What the engine does when a [`SpecBudget`] resource runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnExhaustion {
    /// Abort the session with [`crate::SpecError::BudgetExhausted`].
    #[default]
    Error,
    /// Demote the offending call (and every subsequent one) to a
    /// fully-dynamic residual call, guaranteeing termination with a
    /// correct, less specialised program.
    Generalise,
}

/// Which [`SpecBudget`] resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetResource {
    /// [`SpecBudget::steps`].
    Steps,
    /// [`SpecBudget::max_specialisations`].
    Specialisations,
    /// [`SpecBudget::max_pending`].
    Pending,
    /// [`SpecBudget::max_residual_nodes`].
    ResidualNodes,
}

impl std::fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetResource::Steps => "step fuel",
            BudgetResource::Specialisations => "specialisation count",
            BudgetResource::Pending => "pending/suspension depth",
            BudgetResource::ResidualNodes => "residual program size",
        })
    }
}

/// A shared cancellation flag, with an optional wall-clock deadline: the
/// handle an external controller (a disconnecting client, the daemon's
/// per-request deadline) uses to stop a running specialisation session.
///
/// The engine polls the token on its step-fuel path (every
/// [`CancelToken::CHECK_MASK`]` + 1` steps, so the cost is one atomic
/// load, plus one clock read for a token with a deadline, amortised over
/// ~1k evaluation steps) and aborts with [`crate::SpecError::Cancelled`]
/// carrying the partial-progress step count. Cancellation is
/// level-triggered and permanent: once fired or past its deadline, the
/// token stays fired, so a session handed an already-cancelled token
/// stops at its first check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: std::sync::Arc<std::sync::atomic::AtomicBool>,
    deadline: Option<std::time::Instant>,
}

impl CancelToken {
    /// The engine checks the token when `steps & CHECK_MASK == 0`.
    pub const CHECK_MASK: u64 = 0x3FF;

    /// A fresh, unfired token without a deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh token that fires by itself once `deadline` has passed.
    pub fn with_deadline(deadline: std::time::Instant) -> CancelToken {
        CancelToken { deadline: Some(deadline), ..CancelToken::default() }
    }

    /// Fires the token. Every engine polling this handle stops at its
    /// next check point.
    pub fn cancel(&self) {
        self.fired.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether the token has fired or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(std::sync::atomic::Ordering::Acquire)
            || self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// A step-fuel meter that reports exhaustion exactly once per unit: a
/// budget of `n` admits exactly `n` spends. (The previous accounting
/// combined `checked_sub` with a separate `== 0` check, so a budget of
/// `n` admitted only `n - 1` steps and "just hit zero" was conflated
/// with "already exhausted".)
#[derive(Debug, Clone, Copy)]
pub struct Fuel(u64);

impl Fuel {
    /// A meter holding `n` units.
    pub fn new(n: u64) -> Fuel {
        Fuel(n)
    }

    /// Spends one unit; `false` iff the meter was already empty.
    #[inline]
    pub fn spend(&mut self) -> bool {
        if self.0 == 0 {
            return false;
        }
        self.0 -= 1;
        true
    }

    /// Whether the meter is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Units remaining.
    pub fn remaining(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_admits_exactly_n_spends() {
        let mut f = Fuel::new(3);
        assert!(f.spend());
        assert!(f.spend());
        assert!(f.spend());
        assert!(!f.spend(), "fourth spend of a 3-unit meter must fail");
        assert!(!f.spend(), "and keep failing");
        assert!(f.is_empty());
    }

    #[test]
    fn zero_fuel_is_exhausted_immediately() {
        let mut f = Fuel::new(0);
        assert!(f.is_empty());
        assert!(!f.spend());
    }

    #[test]
    fn cancel_token_is_shared_and_permanent() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        t2.cancel(); // idempotent
        assert!(t2.is_cancelled());
    }

    #[test]
    fn cancel_token_fires_at_its_deadline() {
        let now = std::time::Instant::now();
        let due = CancelToken::with_deadline(now);
        assert!(due.is_cancelled(), "a deadline that has passed fires the token");
        let later = CancelToken::with_deadline(now + std::time::Duration::from_secs(3600));
        assert!(!later.is_cancelled());
        later.clone().cancel();
        assert!(later.is_cancelled(), "cancel() still fires a token with a deadline");
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn default_budget_is_generous() {
        let b = SpecBudget::default();
        assert!(b.steps >= 100_000_000);
        assert!(b.max_specialisations >= 10_000);
        assert!(b.max_pending >= 10_000);
        assert!(b.max_residual_nodes >= 1_000_000);
    }

    #[test]
    fn resources_display_distinctly() {
        let all = [
            BudgetResource::Steps,
            BudgetResource::Specialisations,
            BudgetResource::Pending,
            BudgetResource::ResidualNodes,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for r in all {
            assert!(seen.insert(r.to_string()));
        }
    }
}
