use std::collections::HashMap;

use crate::ast::{Atom, BoolVar, Formula, LinExpr, RealVar, Rel};
use crate::budget::Budget;
use crate::cnf::{strip_expr, Encoder};
use crate::sat::{Lit, SatStats, SatVerdict, SearchConfig, Theory, TheoryResult, TheoryView};
use crate::simplex::{
    BoundConstraint, BoundKind, DeltaRat, NumericMode, Simplex, SimplexHalt, SimplexResult,
    SimplexStats,
};
use crate::Rat;

/// A satisfying assignment.
#[derive(Debug, Clone)]
pub struct Model {
    bools: HashMap<usize, bool>,
    reals: HashMap<usize, Rat>,
}

impl Model {
    /// Value of a Boolean variable (false when never constrained).
    pub fn bool(&self, b: BoolVar) -> bool {
        self.bools.get(&b.index()).copied().unwrap_or(false)
    }

    /// Value of a real variable as `f64` (0 when never constrained).
    pub fn real(&self, x: RealVar) -> f64 {
        self.real_exact(x).to_f64()
    }

    /// Exact rational value of a real variable.
    pub fn real_exact(&self, x: RealVar) -> Rat {
        self.reals.get(&x.index()).copied().unwrap_or(Rat::ZERO)
    }

    /// Evaluates a linear expression under this model.
    pub fn eval(&self, e: &LinExpr) -> Rat {
        e.eval(&|v| self.real_exact(v))
    }
}

/// Outcome of a `check` call (kept for API clarity; `check` returns an
/// `Option<Model>`).
#[derive(Debug, Clone)]
pub enum SatResult {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

/// Why a budget-aware solve stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltCause {
    /// The CDCL conflict budget ([`Budget::max_conflicts`]) ran out.
    Conflicts,
    /// The simplex pivot budget ([`Budget::max_pivots`]) ran out.
    Pivots,
    /// The OMT probe budget ([`Budget::max_probes`]) ran out.
    Probes,
    /// `i128` rational arithmetic overflowed; the tableau is poisoned
    /// until a [`Solver::pop`] restores a pre-overflow checkpoint.
    Overflow,
}

impl From<SimplexHalt> for HaltCause {
    fn from(halt: SimplexHalt) -> HaltCause {
        match halt {
            SimplexHalt::Overflow => HaltCause::Overflow,
            SimplexHalt::Budget => HaltCause::Pivots,
        }
    }
}

/// Outcome of [`Solver::check_full`]: a `check` that distinguishes
/// budget exhaustion and numeric degradation from unsatisfiability.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Satisfiable with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Undecided: the search halted early for the given cause. The
    /// solver remains usable (after [`HaltCause::Overflow`], once the
    /// enclosing frame is popped).
    Halted(HaltCause),
}

/// Outcome of [`Solver::maximize_budgeted`] — the anytime OMT contract:
/// exhaustion degrades to the best verified model instead of hanging.
#[derive(Debug, Clone)]
pub enum OmtOutcome {
    /// The binary search converged below `tol`.
    Optimal {
        /// Objective value of the returned model.
        value: f64,
        /// The optimal model.
        model: Model,
    },
    /// A budget ran out (or the tableau degraded) mid-search: the best
    /// model proven feasible *before* the halt, marked with the cause.
    Degraded {
        /// Objective value of the best-so-far model.
        value: f64,
        /// The best model found before the halt.
        model: Model,
        /// Why the search stopped early.
        cause: HaltCause,
    },
    /// The assertions are unsatisfiable (no budget involved).
    Unsat,
    /// The search halted before proving any model feasible.
    Halted(HaltCause),
}

/// The panic legacy (budget-unaware) entry points raise when a halt
/// surfaces under them; the overflow message is the long-standing
/// contract of the pre-budget API.
fn halted_panic(cause: HaltCause) -> ! {
    match cause {
        HaltCause::Overflow => panic!("rational arithmetic overflow"),
        other => panic!(
            "solver halted ({other:?}) under a budget-unaware entry point; \
             use check_full/maximize_budgeted with Solver::set_budget"
        ),
    }
}

/// Checkpoint for [`Solver::pop`].
#[derive(Debug, Clone)]
struct SolverFrame {
    n_reals: usize,
    n_bools: usize,
    simplex: Simplex,
}

/// The lazy DPLL(T) SMT solver for QF_LRA + Booleans.
///
/// Asserted formulas are Tseitin-encoded; the CDCL core enumerates Boolean
/// skeleton models; the simplex theory solver validates the implied
/// conjunction of linear bounds, contributing blocking clauses built from
/// its infeasibility explanations until the loop converges.
///
/// The solver is incremental end to end:
///
/// - [`Solver::check_under`] decides the assertions under *assumption*
///   literals without asserting them, retaining everything the CDCL core
///   learns for later calls;
/// - the simplex tableau persists between checks, warm-starting each
///   theory validation from the previous feasible basis;
/// - [`Solver::push`]/[`Solver::pop`] checkpoint the whole stack
///   (clauses, variables, atom registry, tableau, heuristics), and `pop`
///   restores it *exactly* — a popped solver continues byte-for-byte
///   like a fresh one that never saw the popped assertions, which is what
///   lets the attack scheduler reuse one solver across windows while
///   keeping schedules identical to the fresh-solver path;
/// - [`Solver::maximize`] runs its whole objective binary search inside
///   this one solver, guarding each probe with a fresh assumption
///   literal instead of cloning.
#[derive(Debug, Default, Clone)]
pub struct Solver {
    enc: Encoder,
    n_reals: usize,
    n_bools: usize,
    simplex: Simplex,
    frames: Vec<SolverFrame>,
    /// OMT probe cap from the active [`Budget`] (`None` = unlimited).
    probe_limit: Option<u64>,
    /// Statistics: theory conflicts encountered across `check` calls.
    pub theory_conflicts: u64,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            enc: Encoder::new(),
            ..Solver::default()
        }
    }

    /// Allocates a real-valued theory variable.
    pub fn new_real(&mut self) -> RealVar {
        let v = RealVar(self.n_reals);
        self.n_reals += 1;
        v
    }

    /// Allocates a propositional variable.
    pub fn new_bool(&mut self) -> BoolVar {
        let v = BoolVar(self.n_bools);
        self.n_bools += 1;
        v
    }

    /// Asserts a formula.
    pub fn assert_formula(&mut self, f: Formula) {
        self.enc.assert_formula(&f);
    }

    /// Cumulative CDCL effort counters (decisions, propagations,
    /// conflicts, learned clauses, restarts and GC'd clauses).
    /// Like [`Solver::theory_conflicts`] they measure work done and
    /// survive [`Solver::pop`].
    pub fn sat_stats(&self) -> SatStats {
        self.enc.sat.stats
    }

    /// Learnt clauses currently stored in the CDCL core (gauge).
    pub fn live_learnts(&self) -> usize {
        self.enc.sat.live_learnts()
    }

    /// Cumulative simplex pivot counters (total pivots, float-first
    /// pivots, exact fallbacks). Like [`Solver::sat_stats`] they measure
    /// work done and survive [`Solver::pop`].
    pub fn simplex_stats(&self) -> SimplexStats {
        self.simplex.stats()
    }

    /// Selects the simplex numeric pipeline (see
    /// [`crate::simplex::NumericMode`]): the certified float fast path
    /// (default) or the forced-exact reference path. Both produce
    /// bit-for-bit identical verdicts and models; the knob exists so the
    /// reference path stays runnable end to end. Survives
    /// [`Solver::push`]/[`Solver::pop`].
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        self.simplex.set_numeric_mode(mode);
    }

    /// The currently selected simplex numeric pipeline.
    pub fn numeric_mode(&self) -> NumericMode {
        self.simplex.numeric_mode()
    }

    /// Installs `budget` for subsequent solves. Limits are counted in
    /// deterministic effort units *from this point*: each cap is applied
    /// as an absolute ceiling of `current cumulative counter + max`, so
    /// calling `set_budget` per window gives every window the same
    /// allowance regardless of how much earlier windows consumed.
    /// Exhaustion surfaces through [`Solver::check_full`] /
    /// [`Solver::maximize_budgeted`] as [`CheckOutcome::Halted`] /
    /// [`OmtOutcome::Degraded`]; the budget-unaware entry points panic
    /// instead. [`Budget::UNLIMITED`] lifts all limits.
    pub fn set_budget(&mut self, budget: Budget) {
        let conflicts = self.enc.sat.stats.conflicts;
        self.enc
            .sat
            .set_conflict_limit(budget.max_conflicts.map(|m| conflicts.saturating_add(m)));
        let pivots = self.simplex.stats().pivots;
        self.simplex
            .set_pivot_limit(budget.max_pivots.map(|m| pivots.saturating_add(m)));
        self.probe_limit = budget.max_probes;
    }

    /// Lifts all resource limits (same as `set_budget(Budget::UNLIMITED)`).
    pub fn clear_budget(&mut self) {
        self.set_budget(Budget::UNLIMITED);
    }

    /// Selects the CDCL search configuration (see
    /// [`crate::sat::SearchConfig`]): initial phase polarity, phase reset
    /// on restart, restart cadence scale and VSIDS decay. Portfolio
    /// callers diversify racing solvers with
    /// [`SearchConfig::diversified`]. Set this before asserting formulas
    /// — `default_phase` applies to variables as they are created.
    pub fn set_search_config(&mut self, config: SearchConfig) {
        self.enc.sat.set_search_config(config);
    }

    /// Checkpoints the assertion stack: formulas asserted and variables
    /// created after `push` are removed again by the matching
    /// [`Solver::pop`], which also restores the SAT heuristics and the
    /// simplex basis to their checkpointed state.
    pub fn push(&mut self) {
        self.enc.push();
        self.frames.push(SolverFrame {
            n_reals: self.n_reals,
            n_bools: self.n_bools,
            simplex: self.simplex.clone(),
        });
    }

    /// Restores the state of the matching [`Solver::push`]. Statistics
    /// counters are kept (they measure effort, not state).
    ///
    /// # Panics
    ///
    /// Panics when no matching `push` exists.
    pub fn pop(&mut self) {
        let f = self.frames.pop().expect("pop without matching push");
        self.n_reals = f.n_reals;
        self.n_bools = f.n_bools;
        // The checkpointed tableau replaces the live one, but the pivot
        // counters measure effort (not state) and the numeric mode and
        // pivot budget are user knobs — all survive the restore.
        let stats = self.simplex.stats();
        let mode = self.simplex.numeric_mode();
        let pivot_limit = self.simplex.pivot_limit();
        self.simplex = f.simplex;
        self.simplex.set_stats(stats);
        self.simplex.set_numeric_mode(mode);
        self.simplex.set_pivot_limit(pivot_limit);
        self.enc.pop();
    }

    /// Decides the asserted conjunction. Returns a model when satisfiable.
    pub fn check(&mut self) -> Option<Model> {
        self.check_under(&[])
    }

    /// Decides the asserted conjunction under `assumptions` (SAT-level
    /// literals, typically guards created by [`Solver::maximize`])
    /// without asserting them.
    ///
    /// The CDCL core consults the simplex *during* the search (DPLL(T)
    /// with early theory propagation) rather than only on complete
    /// Boolean assignments: at decision checkpoints the partial bound
    /// set is validated — an infeasible subset becomes an in-place
    /// conflict instead of a solve-from-scratch blocking clause — and
    /// bound literals implied by the asserted interval of their linear
    /// form are pushed into the Boolean trail through binary lemma
    /// clauses. All lemmas are theory-valid and persist for later calls
    /// (as reducible learnts — the clause-DB GC may age them out).
    ///
    /// # Panics
    ///
    /// Panics when the solve halts early — an active [`Budget`] runs
    /// out, or rational arithmetic overflows. Budget-aware callers use
    /// [`Solver::check_full`] instead.
    pub fn check_under(&mut self, assumptions: &[Lit]) -> Option<Model> {
        match self.check_full(assumptions) {
            CheckOutcome::Sat(m) => Some(m),
            CheckOutcome::Unsat => None,
            CheckOutcome::Halted(cause) => halted_panic(cause),
        }
    }

    /// [`Solver::check_under`] with halts reified instead of panicking:
    /// budget exhaustion and rational overflow come back as
    /// [`CheckOutcome::Halted`], leaving the solver usable (the CDCL
    /// core backtracks to level zero; an overflow-poisoned tableau needs
    /// the enclosing [`Solver::pop`] to restore a clean checkpoint).
    pub fn check_full(&mut self, assumptions: &[Lit]) -> CheckOutcome {
        let mut theory = SimplexTheory {
            atoms: &self.enc.atoms,
            simplex: &mut self.simplex,
            conflicts: 0,
            model: None,
            halt: None,
            bounds: Vec::new(),
            atom_cols: Vec::new(),
            last_assigned: usize::MAX,
        };
        let verdict = self.enc.sat.solve_with(assumptions, Some(&mut theory));
        self.theory_conflicts += theory.conflicts;
        let halt = theory.halt;
        let assignment = match verdict {
            SatVerdict::Sat(assignment) => assignment,
            SatVerdict::Unsat => return CheckOutcome::Unsat,
            // Unknown without a theory halt means the CDCL conflict
            // budget ran out.
            SatVerdict::Unknown => {
                return CheckOutcome::Halted(halt.unwrap_or(HaltCause::Conflicts))
            }
        };
        let reals = theory
            .model
            .take()
            .expect("complete theory consult stores the model")
            .into_iter()
            .filter(|(v, _)| *v < self.n_reals)
            .collect();
        let mut bools = HashMap::new();
        for b in 0..self.n_bools {
            if let Some(v) = self.enc.bool_value(BoolVar(b), &assignment) {
                bools.insert(b, v);
            }
        }
        CheckOutcome::Sat(Model { bools, reals })
    }

    /// Maximizes a linear objective subject to the asserted formulas, by
    /// iterative strengthening (binary search on the objective bound) —
    /// the OMT loop SHATTER runs per attack window (paper Eq. 17).
    ///
    /// `lo`/`hi` bracket the objective; `tol` is the termination gap.
    /// Returns the best model found and its objective value, or `None`
    /// when the constraints are unsatisfiable.
    ///
    /// The whole search runs inside this one solver: each probe asserts
    /// `guard → objective ≥ mid` for a fresh guard literal and solves
    /// under the assumption `guard`, so clauses learned by one probe
    /// carry to the next and the simplex warm-starts from the previous
    /// feasible basis. Successful probes assert their guard permanently
    /// (monotone strengthening); failed guards are permanently disabled.
    ///
    /// # Bracket contract
    ///
    /// The bracket is a *search range*, not a constraint. When the first
    /// feasible model's objective already reaches or exceeds `hi` — a
    /// stale caller-supplied bracket — the search space is empty and the
    /// base model is returned as-is; the returned objective may then
    /// exceed `hi`. (Formerly this case silently clamped `hi` upward,
    /// hiding the collapsed bracket; same result, now a documented
    /// contract with a regression test.)
    ///
    /// On return the strengthening assertions remain: callers that need
    /// the original assertion set afterwards should bracket the call in
    /// [`Solver::push`]/[`Solver::pop`].
    ///
    /// # Panics
    ///
    /// Panics when the search halts before any model is proven feasible
    /// (active [`Budget`] exhausted on the base check, or rational
    /// overflow). Budget-aware callers use
    /// [`Solver::maximize_budgeted`], which degrades to the best
    /// verified model instead.
    pub fn maximize(
        &mut self,
        objective: &LinExpr,
        lo: f64,
        hi: f64,
        tol: f64,
    ) -> Option<(f64, Model)> {
        match self.maximize_budgeted(objective, lo, hi, tol) {
            OmtOutcome::Optimal { value, model } | OmtOutcome::Degraded { value, model, .. } => {
                Some((value, model))
            }
            OmtOutcome::Unsat => None,
            OmtOutcome::Halted(cause) => halted_panic(cause),
        }
    }

    /// [`Solver::maximize`] with the anytime contract made explicit.
    /// Runs the same guarded binary search, but counts each probe
    /// against [`Budget::max_probes`] and reifies halts: when any limit
    /// runs out (or the tableau overflows) mid-search, the best model
    /// *proven feasible so far* is returned as [`OmtOutcome::Degraded`]
    /// with the cause, rather than the search hanging or panicking. A
    /// halt before the first feasible model is [`OmtOutcome::Halted`].
    pub fn maximize_budgeted(
        &mut self,
        objective: &LinExpr,
        lo: f64,
        hi: f64,
        tol: f64,
    ) -> OmtOutcome {
        let base_model = match self.check_full(&[]) {
            CheckOutcome::Sat(m) => m,
            CheckOutcome::Unsat => return OmtOutcome::Unsat,
            CheckOutcome::Halted(cause) => return OmtOutcome::Halted(cause),
        };
        let mut best_val = base_model.eval(objective).to_f64();
        let mut best_model = base_model;
        let mut lo = best_val.max(lo);
        let mut hi = hi;
        let mut probes = 0u64;
        let mut halt = None;
        while hi - lo > tol {
            if let Some(limit) = self.probe_limit {
                if probes >= limit {
                    halt = Some(HaltCause::Probes);
                    break;
                }
            }
            probes += 1;
            let mid = lo + (hi - lo) / 2.0;
            // Fresh guard: guard -> objective >= mid.
            let guard = Lit::pos(self.enc.sat.new_var());
            let bound_lit = self.enc.encode(&objective.ge(Rat::from_f64_approx(mid)));
            self.enc.sat.add_clause(&[guard.negated(), bound_lit]);
            match self.check_full(&[guard]) {
                CheckOutcome::Sat(m) => {
                    let v = m.eval(objective).to_f64();
                    if v > best_val {
                        best_val = v;
                        best_model = m;
                    }
                    lo = best_val.max(mid);
                    // Keep the proven bound: later probes only go higher.
                    self.enc.sat.add_clause(&[guard]);
                }
                CheckOutcome::Unsat => {
                    hi = mid;
                    self.enc.sat.add_clause(&[guard.negated()]);
                }
                CheckOutcome::Halted(cause) => {
                    // Anytime degradation: the probe's answer is unknown,
                    // so disable its guard and stop with best-so-far.
                    self.enc.sat.add_clause(&[guard.negated()]);
                    halt = Some(cause);
                    break;
                }
            }
        }
        match halt {
            Some(cause) => OmtOutcome::Degraded {
                value: best_val,
                model: best_model,
                cause,
            },
            None => OmtOutcome::Optimal {
                value: best_val,
                model: best_model,
            },
        }
    }
}

/// The DPLL(T) bridge handed to [`crate::sat::SatSolver::solve_with`]:
/// owns the warm-started simplex for the duration of one check and maps
/// between atom SAT variables and simplex bounds.
struct SimplexTheory<'a> {
    /// Registered atoms `(sat_var, atom)` in registration order.
    atoms: &'a [(usize, Atom)],
    simplex: &'a mut Simplex,
    /// Theory conflicts found during this check.
    conflicts: u64,
    /// Feasible rational assignment from the last *complete* consult.
    model: Option<HashMap<usize, Rat>>,
    /// Why the simplex halted this check, when it did ([`TheoryResult::Halt`]).
    halt: Option<HaltCause>,
    /// Reused bound buffer (no per-consult allocation).
    bounds: Vec<BoundConstraint>,
    /// Per atom (same order as `atoms`): its simplex column and its
    /// positive-polarity upper bound, resolved lazily once per check —
    /// the implied-bound scan then reads the column bounds directly
    /// instead of re-building (clone + sort + hash) the linear form on
    /// every consult.
    atom_cols: Vec<(usize, DeltaRat)>,
    /// Assigned-atom count at the previous consult: a cheap partial
    /// fingerprint — if unchanged, the bound set is almost surely the
    /// same and the (sound-to-skip) partial re-check is elided.
    last_assigned: usize,
}

impl Theory for SimplexTheory<'_> {
    fn consult(&mut self, view: TheoryView<'_>, complete: bool) -> TheoryResult {
        // Fingerprint first, allocation after: skipped consults must not
        // pay the bound-construction cost (atom_to_bound clones each
        // atom's linear form).
        let assigned = self
            .atoms
            .iter()
            .filter(|&&(sat_var, _)| view.value(sat_var).is_some())
            .count();
        if !complete && assigned == self.last_assigned {
            return TheoryResult::Ok;
        }
        self.last_assigned = assigned;
        self.bounds.clear();
        for &(sat_var, ref atom) in self.atoms {
            if let Some(positive) = view.value(sat_var) {
                self.bounds.push(atom_to_bound(atom, positive, sat_var));
            }
        }
        let conflict_ids = if complete {
            match self.simplex.try_check_assignment(&self.bounds) {
                Ok(SimplexResult::Feasible(reals)) => {
                    self.model = Some(reals);
                    return TheoryResult::Ok;
                }
                Ok(SimplexResult::Infeasible(ids)) => Some(ids),
                Err(halt) => {
                    self.halt = Some(halt.into());
                    return TheoryResult::Halt;
                }
            }
        } else {
            match self.simplex.try_assert_and_solve(&self.bounds) {
                Ok(ids) => ids,
                Err(halt) => {
                    self.halt = Some(halt.into());
                    return TheoryResult::Halt;
                }
            }
        };
        if let Some(ids) = conflict_ids {
            self.conflicts += 1;
            let asserted: Vec<Lit> = ids
                .iter()
                .map(|&v| view.asserted_lit(v).expect("conflict ids are asserted"))
                .collect();
            return TheoryResult::Conflict(asserted);
        }
        // Feasible partial set: propagate bound literals already decided
        // by the asserted interval of their linear form. Any feasible
        // point keeps each form within [l, u], so an unassigned atom
        // `expr ≤ c` is true whenever u ≤ c (premise: the atom asserting
        // u) and false whenever l > c (premise: the atom asserting l).
        let mut implied: Vec<(Lit, Vec<Lit>)> = Vec::new();
        for (i, &(sat_var, _)) in self.atoms.iter().enumerate() {
            if view.value(sat_var).is_some() {
                continue;
            }
            while self.atom_cols.len() <= i {
                let (next_var, ref next_atom) = self.atoms[self.atom_cols.len()];
                let b = atom_to_bound(next_atom, true, next_var);
                let col = self.simplex.column_index(&b.expr);
                self.atom_cols.push((col, b.bound));
            }
            let (col, atom_bound) = self.atom_cols[i];
            let (lower, upper) = self.simplex.asserted_bounds_at(col);
            if let Some((u, uid)) = upper {
                if u <= atom_bound {
                    let premise = view.asserted_lit(uid).expect("bound ids are asserted");
                    implied.push((Lit::pos(sat_var), vec![premise]));
                    continue;
                }
            }
            if let Some((l, lid)) = lower {
                if l > atom_bound {
                    let premise = view.asserted_lit(lid).expect("bound ids are asserted");
                    implied.push((Lit::neg(sat_var), vec![premise]));
                }
            }
        }
        if implied.is_empty() {
            TheoryResult::Ok
        } else {
            TheoryResult::Implied(implied)
        }
    }
}

/// Converts an asserted theory literal into a simplex bound.
///
/// Atom is `expr ⋈ 0` with `⋈ ∈ {≤, <}` (equalities were split by the
/// encoder). With constant `k` folded out: `Σcx ⋈ −k`.
fn atom_to_bound(atom: &Atom, positive: bool, id: usize) -> BoundConstraint {
    let (expr, k) = strip_expr(&atom.expr);
    let rhs = -k;
    let (kind, bound) = match (atom.op, positive) {
        // Σcx <= rhs
        (Rel::Le, true) => (BoundKind::Upper, DeltaRat::standard(rhs)),
        // ¬(Σcx <= rhs)  =>  Σcx > rhs
        (Rel::Le, false) => (BoundKind::Lower, DeltaRat::plus_eps(rhs)),
        // Σcx < rhs
        (Rel::Lt, true) => (BoundKind::Upper, DeltaRat::minus_eps(rhs)),
        // ¬(Σcx < rhs)  =>  Σcx >= rhs
        (Rel::Lt, false) => (BoundKind::Lower, DeltaRat::standard(rhs)),
        (Rel::Eq, _) => unreachable!("Eq atoms split during encoding"),
    };
    BoundConstraint {
        expr,
        bound,
        kind,
        id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula;

    #[test]
    fn pure_boolean_sat() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        s.assert_formula(Formula::or([Formula::Bool(a), Formula::Bool(b)]));
        s.assert_formula(Formula::not(Formula::Bool(a)));
        let m = s.check().expect("sat");
        assert!(!m.bool(a));
        assert!(m.bool(b));
    }

    #[test]
    fn linear_system_solved() {
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).eq(10));
        s.assert_formula(LinExpr::var(x).minus(&LinExpr::var(y)).eq(4));
        let m = s.check().expect("sat");
        assert!((m.real(x) - 7.0).abs() < 1e-9);
        assert!((m.real(y) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn theory_conflict_forces_boolean_backtrack() {
        let mut s = Solver::new();
        let x = s.new_real();
        let p = s.new_bool();
        // p -> x >= 5;  !p -> x >= 7;  x <= 6. Must pick p.
        s.assert_formula(Formula::implies(Formula::Bool(p), LinExpr::var(x).ge(5)));
        s.assert_formula(Formula::implies(
            Formula::not(Formula::Bool(p)),
            LinExpr::var(x).ge(7),
        ));
        s.assert_formula(LinExpr::var(x).le(6));
        let m = s.check().expect("sat");
        assert!(m.bool(p));
        assert!(m.real(x) >= 5.0 - 1e-9 && m.real(x) <= 6.0 + 1e-9);
    }

    #[test]
    fn unsat_conjunction() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(5));
        s.assert_formula(LinExpr::var(x).le(4));
        assert!(s.check().is_none());
    }

    #[test]
    fn disjunction_of_regions() {
        let mut s = Solver::new();
        let x = s.new_real();
        // (x <= -10 or x >= 10) and -5 <= x <= 15  => x in [10, 15].
        s.assert_formula(Formula::or([
            LinExpr::var(x).le(-10),
            LinExpr::var(x).ge(10),
        ]));
        s.assert_formula(LinExpr::var(x).ge(-5));
        s.assert_formula(LinExpr::var(x).le(15));
        let m = s.check().expect("sat");
        assert!(m.real(x) >= 10.0 - 1e-9 && m.real(x) <= 15.0 + 1e-9);
    }

    #[test]
    fn strict_inequalities() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).gt(0));
        s.assert_formula(LinExpr::var(x).lt(1));
        let m = s.check().expect("sat");
        let v = m.real(x);
        assert!(v > 0.0 && v < 1.0, "witness {v}");
    }

    #[test]
    fn strict_contradiction_unsat() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).gt(3));
        s.assert_formula(LinExpr::var(x).le(3));
        assert!(s.check().is_none());
    }

    #[test]
    fn negated_equality_splits() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(Formula::not(LinExpr::var(x).eq(5)));
        s.assert_formula(LinExpr::var(x).ge(5));
        s.assert_formula(LinExpr::var(x).le(6));
        let m = s.check().expect("sat");
        assert!(m.real(x) > 5.0 && m.real(x) <= 6.0 + 1e-9);
    }

    #[test]
    fn maximize_simple_lp() {
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).le(4));
        s.assert_formula(LinExpr::var(y).le(3));
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(y).ge(0));
        let obj = LinExpr::var(x).plus(&LinExpr::var(y));
        let (v, m) = s.maximize(&obj, 0.0, 100.0, 1e-3).expect("sat");
        assert!((v - 7.0).abs() < 0.01, "max {v}");
        assert!((m.real(x) - 4.0).abs() < 0.01);
    }

    #[test]
    fn maximize_with_boolean_choice() {
        // Choosing p gives reward 10, else 3; p forces cost x >= 8 <= budget.
        let mut s = Solver::new();
        let p = s.new_bool();
        let x = s.new_real();
        let reward = s.new_real();
        s.assert_formula(Formula::implies(
            Formula::Bool(p),
            Formula::and([LinExpr::var(reward).eq(10), LinExpr::var(x).ge(8)]),
        ));
        s.assert_formula(Formula::implies(
            Formula::not(Formula::Bool(p)),
            Formula::and([LinExpr::var(reward).eq(3), LinExpr::var(x).eq(0)]),
        ));
        s.assert_formula(LinExpr::var(x).le(9));
        let (v, m) = s
            .maximize(&LinExpr::var(reward), 0.0, 20.0, 1e-3)
            .expect("sat");
        assert!((v - 10.0).abs() < 0.01);
        assert!(m.bool(p));
    }

    #[test]
    fn maximize_infeasible_returns_none() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(1));
        s.assert_formula(LinExpr::var(x).le(0));
        assert!(s.maximize(&LinExpr::var(x), 0.0, 10.0, 1e-3).is_none());
    }

    #[test]
    fn maximize_stale_hi_returns_base_model() {
        // The caller's bracket tops out below the feasible region: the
        // contract is to return the base model untouched — the reported
        // objective exceeds `hi` rather than being silently clamped.
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(10));
        s.assert_formula(LinExpr::var(x).le(12));
        let (v, m) = s.maximize(&LinExpr::var(x), 0.0, 5.0, 1e-3).expect("sat");
        assert!(v >= 10.0 - 1e-9, "base objective {v}");
        assert!(v > 5.0, "objective must be allowed to exceed the stale hi");
        assert!(m.real(x) >= 10.0 - 1e-9);
    }

    #[test]
    fn conflict_budget_halts_and_lifting_it_resumes() {
        let mut s = Solver::new();
        let a = s.new_bool();
        let b = s.new_bool();
        s.assert_formula(Formula::or([Formula::Bool(a), Formula::Bool(b)]));
        s.set_budget(Budget {
            max_conflicts: Some(0),
            ..Budget::UNLIMITED
        });
        assert!(matches!(
            s.check_full(&[]),
            CheckOutcome::Halted(HaltCause::Conflicts)
        ));
        s.clear_budget();
        assert!(matches!(s.check_full(&[]), CheckOutcome::Sat(_)));
    }

    #[test]
    fn pivot_budget_halts_check_full_without_poisoning() {
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).eq(10));
        s.assert_formula(LinExpr::var(x).minus(&LinExpr::var(y)).eq(4));
        s.set_budget(Budget {
            max_pivots: Some(0),
            ..Budget::UNLIMITED
        });
        assert!(matches!(
            s.check_full(&[]),
            CheckOutcome::Halted(HaltCause::Pivots)
        ));
        // A pivot-budget halt lands between pivots: no poison, and the
        // same solver finishes once the budget is lifted.
        s.clear_budget();
        let m = match s.check_full(&[]) {
            CheckOutcome::Sat(m) => m,
            other => panic!("expected sat after lifting the budget, got {other:?}"),
        };
        assert!((m.real(x) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn probe_budget_degrades_to_base_model() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(4));
        s.set_budget(Budget {
            max_probes: Some(0),
            ..Budget::UNLIMITED
        });
        match s.maximize_budgeted(&LinExpr::var(x), 0.0, 100.0, 1e-3) {
            OmtOutcome::Degraded { value, cause, .. } => {
                assert_eq!(cause, HaltCause::Probes);
                assert!(value <= 4.0 + 1e-9, "best-so-far stays feasible: {value}");
            }
            other => panic!("expected degraded best-so-far, got {other:?}"),
        }
        s.clear_budget();
        let (v, _) = s.maximize(&LinExpr::var(x), 0.0, 100.0, 1e-3).expect("sat");
        assert!((v - 4.0).abs() < 0.01);
    }

    #[test]
    fn maximize_twice_under_push_pop() {
        // After a push/maximize/pop round-trip the solver must answer a
        // different objective exactly like a fresh solver would.
        let mut s = Solver::new();
        let x = s.new_real();
        let y = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(4));
        s.assert_formula(LinExpr::var(y).ge(0));
        s.assert_formula(LinExpr::var(y).le(3));

        s.push();
        let (vx, _) = s.maximize(&LinExpr::var(x), 0.0, 100.0, 1e-3).expect("sat");
        s.pop();
        s.push();
        let (vy, _) = s.maximize(&LinExpr::var(y), 0.0, 100.0, 1e-3).expect("sat");
        s.pop();
        assert!((vx - 4.0).abs() < 0.01, "x max {vx}");
        assert!((vy - 3.0).abs() < 0.01, "y max {vy}");
        // And the un-popped assertions still admit both corners.
        let m = s.check().expect("sat");
        assert!(m.real(x) <= 4.0 + 1e-9 && m.real(y) <= 3.0 + 1e-9);
    }

    #[test]
    fn push_pop_restores_assertions_and_variables() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(10));
        s.push();
        let y = s.new_real();
        let p = s.new_bool();
        s.assert_formula(Formula::implies(Formula::Bool(p), LinExpr::var(y).ge(100)));
        s.assert_formula(Formula::Bool(p));
        s.assert_formula(LinExpr::var(x).ge(7));
        let m = s.check().expect("sat under pushed assertions");
        assert!(m.real(x) >= 7.0 - 1e-9);
        assert!(m.real(y) >= 100.0 - 1e-9);
        s.pop();
        // Pushed lower bound is gone; x can sit at 0 again.
        s.assert_formula(LinExpr::var(x).le(3));
        let m = s.check().expect("sat after pop");
        assert!(m.real(x) <= 3.0 + 1e-9);
    }

    #[test]
    fn check_under_guard_literals() {
        let mut s = Solver::new();
        let x = s.new_real();
        s.assert_formula(LinExpr::var(x).ge(0));
        s.assert_formula(LinExpr::var(x).le(10));
        let g = Lit::pos(s.enc.sat.new_var());
        let bound = s.enc.encode(&LinExpr::var(x).ge(8));
        s.enc.sat.add_clause(&[g.negated(), bound]);
        let m = s.check_under(&[g]).expect("sat under guard");
        assert!(m.real(x) >= 8.0 - 1e-9);
        // Without the guard the bound is not enforced.
        let m = s.check().expect("sat");
        assert!(m.real(x) >= -1e-9);
    }

    #[test]
    fn numeric_modes_agree_and_mode_survives_pop() {
        // The float fast path must reproduce the exact path bit for bit:
        // same models, same pivot counts; and the mode knob plus the
        // effort counters survive a push/pop round-trip.
        let mut fast = Solver::new();
        let mut exact = Solver::new();
        exact.set_numeric_mode(NumericMode::ExactOnly);
        for s in [&mut fast, &mut exact] {
            let x = s.new_real();
            let y = s.new_real();
            s.assert_formula(LinExpr::var(x).plus(&LinExpr::var(y)).ge(5));
            s.assert_formula(LinExpr::var(x).le(3));
            s.assert_formula(LinExpr::var(y).le(3));
        }
        let mf = fast.check().expect("sat");
        let me = exact.check().expect("sat");
        assert_eq!(mf.real_exact(RealVar(0)), me.real_exact(RealVar(0)));
        assert_eq!(mf.real_exact(RealVar(1)), me.real_exact(RealVar(1)));
        let (sf, se) = (fast.simplex_stats(), exact.simplex_stats());
        assert_eq!(sf.pivots, se.pivots, "modes must pivot identically");
        assert!(sf.pivots > 0, "instance must exercise pivoting");
        assert_eq!(sf.float_pivots, sf.pivots);
        assert_eq!(se.float_pivots, 0);

        let before = exact.simplex_stats();
        exact.push();
        let x = RealVar(0);
        exact.assert_formula(LinExpr::var(x).ge(1));
        exact.check().expect("sat");
        exact.pop();
        assert_eq!(exact.numeric_mode(), NumericMode::ExactOnly);
        assert!(exact.simplex_stats().pivots >= before.pivots);
    }

    #[test]
    fn hull_membership_style_constraints() {
        // Triangle (0,0)-(4,0)-(2,4) as half-planes over (a, b); point
        // inside must exist with b maximized at 4.
        let mut s = Solver::new();
        let a = s.new_real();
        let b = s.new_real();
        // y >= 0: -b <= 0
        s.assert_formula(LinExpr::var(b).ge(0));
        // right edge: from (4,0) to (2,4): 2x + y <= 8
        s.assert_formula(LinExpr::term(2, a).plus(&LinExpr::var(b)).le(8));
        // left edge: from (2,4) to (0,0): -2x + y <= 0
        s.assert_formula(LinExpr::term(-2, a).plus(&LinExpr::var(b)).le(0));
        let (v, m) = s.maximize(&LinExpr::var(b), 0.0, 10.0, 1e-4).expect("sat");
        assert!((v - 4.0).abs() < 0.01, "max y = {v}");
        assert!((m.real(a) - 2.0).abs() < 0.1);
    }
}
