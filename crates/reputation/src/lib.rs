//! # cycledger-reputation
//!
//! CycLedger's incentive layer:
//!
//! * [`score`] — cosine-similarity scoring of member votes against the committee
//!   decision (Eq. 1, §IV-E).
//! * [`mapping`] — the reward-mapping function `g(x)` (Eq. 2, Fig. 4),
//!   proportional fee distribution, and the cube-root leader punishment (§VII-B).
//! * [`engine`] — the network-wide reputation table, score accumulation, leader
//!   selection by reputation, and fixed-point encoding for blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod mapping;
pub mod score;

pub use engine::ReputationTable;
pub use mapping::{distribute_rewards, leader_punishment, reward_mapping, reward_mapping_series};
pub use score::{cosine_score, score_all};
