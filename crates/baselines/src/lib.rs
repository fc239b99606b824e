//! # cycledger-baselines
//!
//! Comparison models for the protocols in Table I:
//!
//! * [`profiles`] — per-protocol rows (resiliency, complexity, storage, failure
//!   probability, decentralization assumption, dishonest-leader efficiency,
//!   incentives, connection burden).
//! * [`leader_model`] — throughput under dishonest leaders with and without
//!   CycLedger's recovery procedure (the motivation experiment of §I).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod leader_model;
pub mod profiles;

pub use leader_model::{
    cross_shard_completion_fraction, expected_throughput_fraction, recovery_comparison_series,
};
pub use profiles::{
    build_table1, cycledger_channels, profile, ComparisonParams, Protocol, ProtocolProfile,
};
