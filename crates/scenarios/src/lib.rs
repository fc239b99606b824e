//! # cycledger-scenarios
//!
//! The declarative scenario subsystem: every paper claim as a named,
//! reproducible, CI-gated artifact.
//!
//! A [`Scenario`] bundles a full simulation setup — protocol parameters,
//! adversary mix, latency profile, workload shape, targeted fault
//! injections — with machine-checkable [`Invariant`]s (safety digests match
//! across worker counts, no honest node punished, censored cross-shard
//! transactions eventually apply, recovery fires for every injected leader
//! fault, the analysis crate's failure bound holds, …). The built-in
//! [`registry`] covers each adversarial behaviour of §III-C plus
//! mixed-adversary and scaling sweeps; TOML files add or override scenarios
//! without recompiling ([`toml_cfg`]).
//!
//! The [`runner`] executes a scenario across its whole worker matrix
//! (checking the engine's determinism contract as it goes), evaluates the
//! invariants, and the `scenario-runner` binary turns the results into
//! canonical JSON reports diffed against the committed golden files under
//! `scenarios/golden/`.
//!
//! * [`spec`] — the `Scenario` data model and fault-injection targets.
//! * [`invariant`] — the invariant vocabulary and its checkers.
//! * [`registry`] — the built-in scenario matrix.
//! * [`runner`] — single-scenario execution and the parallel matrix runner.
//! * [`report`] — canonical JSON report rendering.
//! * [`toml_cfg`] — the TOML schema (load + save, dependency-free).
//!
//! [`Scenario`]: spec::Scenario
//! [`Invariant`]: invariant::Invariant

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariant;
pub mod outcome;
pub mod registry;
pub mod report;
pub mod runner;
pub mod spec;
pub mod toml_cfg;

pub use invariant::{Invariant, InvariantResult};
pub use outcome::ScenarioOutcome;
pub use registry::builtin_scenarios;
pub use runner::{run_matrix, run_scenario, ScenarioRun};
pub use spec::{FaultInjection, FaultTarget, Scenario};
