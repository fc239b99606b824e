//! # cycledger-consensus
//!
//! The intra-committee consensus machinery of CycLedger:
//!
//! * [`messages`] — signed PROPOSE / ECHO / CONFIRM messages of Algorithm 3.
//! * [`envelope`] — typed committee-traffic envelopes ([`CommitteeMessage`]):
//!   votes, Algorithm 3, list forwards and recovery accusations all travel
//!   through the discrete-event network as one envelope type.
//! * [`alg3`] — per-node state machines for Algorithm 3, including equivocation
//!   detection from conflicting leader-signed proposals.
//! * [`quorum`] — transferable quorum certificates ("SigList") and their
//!   verification against a committee key directory.
//! * [`sigcache`] — per-instance memoization of signature verification, so the
//!   simulator pays each distinct `(key, message, signature)` check once
//!   instead of once per receiving member.
//! * [`transition`] — the single side-effect-free decision core (thresholds,
//!   tallies, impeachment rules) shared by the production drivers and the
//!   `cycledger-checker` model checker.
//! * [`votes`] — `TXList` voting, `V List` assembly, and the `TXdecSET` tally
//!   (Algorithm 5).
//! * [`witness`] — leader-misbehaviour witnesses (equivocation, semi-commitment
//!   mismatch) that feed the recovery procedure (Algorithm 6, Claims 3 & 4).
//!
//! Everything here is transport-agnostic; the `cycledger-protocol` crate drives
//! these state machines over the simulated network.

#![warn(missing_docs)]

pub mod alg3;
pub mod envelope;
pub mod messages;
pub mod quorum;
pub mod sigcache;
pub mod transition;
pub mod votes;
pub mod witness;

pub use alg3::{LeaderState, MemberAction, MemberState};
pub use envelope::CommitteeMessage;
pub use messages::{Alg3Message, Confirm, ConsensusId, Echo, Propose};
pub use quorum::{verify_certs_batch, CommitteeKeys, QuorumCertificate, QuorumError};
pub use sigcache::SigCache;
pub use votes::{Tally, Vote, VoteList, VoteVector};
pub use witness::{
    member_list_signing_bytes, semi_commitment, CommitmentMismatchEvidence, EquivocationEvidence,
    Witness,
};
