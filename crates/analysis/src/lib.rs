//! # cycledger-analysis
//!
//! Closed-form analysis mirroring the paper's evaluation:
//!
//! * [`hypergeometric`] — exact hypergeometric tails, KL-divergence bounds and
//!   Monte-Carlo cross-checks behind Fig. 5 and Eq. 3/4.
//! * [`failure`] — per-round failure probabilities of CycLedger and the Table I
//!   comparison protocols, partial-set bounds, union bounds (§V-B, §V-C).
//! * [`complexity`] — Table II per-phase/per-role complexity predictions and the
//!   Table I storage/complexity rows, used by the benches to label and check the
//!   measured scaling shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complexity;
pub mod failure;
pub mod hypergeometric;

pub use complexity::{
    table1_complexity, table1_storage, table2_prediction, Prediction, RoleClass, SystemSize,
};
pub use failure::{
    compare_protocols, cycledger_round_failure, cycledger_round_failure_exact,
    partial_set_failure_probability, quarter_resilient_round_failure, rapidchain_round_failure,
    union_bound, FailureComparison,
};
pub use hypergeometric::{
    committee_failure_probability, hypergeometric_pmf, hypergeometric_tail, kl_bound,
    kl_divergence, ln_choose, ln_factorial, monte_carlo_failure, simplified_bound,
};
