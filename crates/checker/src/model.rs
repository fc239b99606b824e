//! The abstract model: a small-committee instance of the driven consensus
//! and recovery, explored exhaustively.
//!
//! ## What is modelled
//!
//! One committee of **n = 4** (leader + 3 member slots) running **2 rounds**
//! of the message-driven intra-committee pipeline: `TXList` announcement and
//! vote collection under an inclusive deadline (§IV-C step 4's quorum-timeout
//! fallback), Algorithm 3 (PROPOSE / ECHO / CONFIRM with equivocation
//! detection), and the recovery procedure (Algorithm 6) with a post-eviction
//! consensus retry — the same shape as
//! `cycledger-protocol`'s `intra-consensus` + `intra-recovery` round steps.
//!
//! Every *decision* the model takes goes through
//! [`cycledger_consensus::transition`] — the same side-effect-free functions
//! the production drivers call — so the model cannot drift from production on
//! thresholds, tallies or impeachment rules. What the model adds is the
//! *schedule*: every interleaving of message deliveries, message drops and
//! timer firings is enumerated by BFS.
//!
//! ## Abstraction granularity
//!
//! A message is a unit with a status in
//! {not created, pending, delivered, dropped}; an enabled transition delivers
//! or drops one pending message, or fires the phase timer. Echo messages are
//! atomic broadcasts (delivered to every member or to none) — a coarsening
//! that preserves the safety-relevant structure: equivocation is still caught
//! via relayed echoes, and quorum counts still depend on which echoes arrive.
//! Because the state records *sets* of delivered messages rather than
//! sequences, BFS over canonicalized states collapses permutations of
//! independent deliveries automatically; completed phases collapse further
//! into their summary (votes received, tally, certificate), so the state
//! space stays in the tens of thousands.
//!
//! ## Symmetry reduction
//!
//! Member slots with identical behaviour and identical digest assignment are
//! interchangeable; each state is canonicalized to the lexicographically
//! smallest encoding over the scenario's permutation group before hashing.
//!
//! ## What n = 4 / t = 1 does and does not prove
//!
//! n = 4 is the smallest committee where `⌊n/2⌋+1 = 3` leaves a strict
//! minority of 1 faulty node; every quorum needs *all three* member slots, so
//! boundary behaviour (exactly-half tallies, quorum = committee) is maximally
//! exercised. Exhaustiveness at this bound refutes *small-model* safety bugs
//! (wrong threshold comparisons, off-by-one deadline handling, missing
//! evidence checks); it does not prove the protocol for larger n — that is
//! what the refinement layer over fuzzed production executions is for.

use cycledger_consensus::transition::{
    confirm_quorum, echo_quorum, expected_votes_missing, impeachment_passes, majority_threshold,
    member_approves_impeachment, quorum_timed_out, signed_accusation_admissible,
    timeout_accusation_admissible, tx_accepted,
};

use std::collections::{HashMap, VecDeque};

/// Committee size `n` of the model.
pub const COMMITTEE_SIZE: usize = 4;
/// Non-leader member slots (`n - 1`).
pub const SLOTS: usize = 3;
/// Rounds the model chains.
pub const ROUNDS: u8 = 2;

/// Fault configuration of a model run — at most one faulty node (`t = 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Everyone follows the protocol.
    AllHonest,
    /// The leader never announces or proposes anything.
    SilentLeader,
    /// The leader signs digest B for slots 0 and 2 and digest A for slot 1
    /// (the production `idx % 2 == 1` split of `LeaderFault::Equivocate`).
    EquivocatingLeader,
    /// Member slot 2 is crash-stopped from the start: nothing it would send
    /// is ever created and nothing addressed to it is delivered.
    CrashedMember,
    /// Everyone follows the protocol, but member slot 0 is malicious and
    /// raises a fabricated timeout accusation (`observed_by_committee =
    /// false`) against the live leader after consensus completes.
    FalseAccusation,
}

/// All scenarios the exhaustive run covers.
pub const ALL_SCENARIOS: [Scenario; 5] = [
    Scenario::AllHonest,
    Scenario::SilentLeader,
    Scenario::EquivocatingLeader,
    Scenario::CrashedMember,
    Scenario::FalseAccusation,
];

/// A deliberately broken transition rule, used by the checker's self-test:
/// exploring with one of these MUST produce a violation, proving the
/// assertions have teeth before the clean run's zero-violation result is
/// trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrokenRule {
    /// Accept a transaction at exactly half the committee (`yes * 2 >= n`
    /// instead of the strict `yes * 2 > n`) — a commit on `t + 1` votes.
    CommitAtHalf,
    /// Backfill members missing at the vote deadline as `Yes` voters instead
    /// of all-`Unknown` rows — the quorum-timeout fallback manufacturing
    /// votes.
    BackfillYes,
    /// Remove the evidence-verification gates from recovery: members approve
    /// an accusation blindly and the referee committee's re-verification
    /// (Claim 4) is skipped, so a vote majority alone evicts. Under the
    /// `FalseAccusation` scenario this lets a fabricated accusation evict a
    /// correct leader — the violation the clean rules must make impossible.
    SkipRefereeCheck,
}

/// Message lifecycle.
const ABSENT: u8 = 0;
const PENDING: u8 = 1;
const DELIVERED: u8 = 2;
const DROPPED: u8 = 3;

/// Digest ids for Algorithm 3 payloads.
const DIGEST_A: u8 = 0;
const DIGEST_B: u8 = 1;

/// Where in the round the instance is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Phase {
    /// `TXList` announced; votes collected under the 4Δ deadline.
    VoteCollect,
    /// Algorithm 3 over the tally.
    Alg3,
    /// Recovery: accusation broadcast and impeachment vote.
    Recovery,
    /// Both rounds finished.
    Done,
}

/// One explored state of the model.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    round: u8,
    phase: Phase,
    /// True while running the post-eviction consensus retry of this round.
    retry: bool,
    /// The current leader carries the scenario's leader fault.
    leader_faulty: bool,
    /// Vote collection messages (slot-indexed).
    announce: [u8; SLOTS],
    vote: [u8; SLOTS],
    timer_fired: bool,
    /// True once this round pass actually closed a vote collection (false
    /// while collecting, and for silent-leader passes that never announce).
    collected: bool,
    /// Vote-collection summary (set when the phase completes).
    votes_received: u8,
    votes_missing: u8,
    quorum_timeout: bool,
    yes: u8,
    accepted: bool,
    /// Algorithm 3 messages (slot-indexed).
    propose: [u8; SLOTS],
    echo: [u8; SLOTS],
    confirm: [u8; SLOTS],
    detected: [bool; SLOTS],
    /// Certificates issued, as a digest bitmask (bit 0 = A, bit 1 = B).
    certs: u8,
    cert_signers: u8,
    witness: bool,
    /// Recovery: approving impeachment votes in flight (slot-indexed; the
    /// prosecutor's own approval is counted locally, never as a message).
    impeach: [u8; SLOTS],
    evidence_valid: bool,
    evicted_this_round: bool,
    /// Per-round commit flag (bit per round).
    committed: u8,
}

/// A safety violation, with the interleaving that reached it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which assertion failed.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
    /// The action sequence from the initial state to the violating state.
    pub trace: Vec<String>,
}

/// Result of exhaustively exploring one scenario.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions taken (including ones leading to already-visited states).
    pub transitions: usize,
    /// Safety violations found (empty on a correct transition relation).
    pub violations: Vec<Violation>,
    /// Terminal (`Done`) states reached.
    pub terminal_states: usize,
    /// Of the terminal states, how many committed in both rounds.
    pub full_commit_terminals: usize,
}

struct Ctx {
    scenario: Scenario,
    broken: Option<BrokenRule>,
}

impl Ctx {
    fn crashed(&self, slot: usize) -> bool {
        self.scenario == Scenario::CrashedMember && slot == 2
    }

    fn slot_honest(&self, slot: usize) -> bool {
        !(self.crashed(slot) || (self.scenario == Scenario::FalseAccusation && slot == 0))
    }

    /// Digest the (equivocating) leader signs for a slot in the main pass.
    fn slot_digest(&self, st: &State, slot: usize) -> u8 {
        if st.leader_faulty && self.scenario == Scenario::EquivocatingLeader && slot != 1 {
            DIGEST_B
        } else {
            DIGEST_A
        }
    }

    /// Slot permutations that preserve the scenario (identity included).
    /// Slots are interchangeable when they share behaviour *and* digest
    /// assignment; canonicalization takes the minimum encoding over these.
    fn permutations(&self) -> Vec<[usize; SLOTS]> {
        match self.scenario {
            // All three member slots are behaviourally identical.
            Scenario::AllHonest | Scenario::SilentLeader => vec![
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ],
            // Slots 0 and 2 receive digest B; slot 1 receives A.
            Scenario::EquivocatingLeader => vec![[0, 1, 2], [2, 1, 0]],
            // Slot 2 is crashed; slots 0 and 1 are interchangeable.
            Scenario::CrashedMember => vec![[0, 1, 2], [1, 0, 2]],
            // Slot 0 is the malicious accuser; slots 1 and 2 interchangeable.
            Scenario::FalseAccusation => vec![[0, 1, 2], [0, 2, 1]],
        }
    }
}

impl State {
    fn initial(ctx: &Ctx) -> State {
        let mut st = State {
            round: 0,
            phase: Phase::VoteCollect,
            retry: false,
            leader_faulty: matches!(
                ctx.scenario,
                Scenario::SilentLeader | Scenario::EquivocatingLeader
            ),
            announce: [ABSENT; SLOTS],
            vote: [ABSENT; SLOTS],
            timer_fired: false,
            collected: false,
            votes_received: 0,
            votes_missing: 0,
            quorum_timeout: false,
            yes: 0,
            accepted: false,
            propose: [ABSENT; SLOTS],
            echo: [ABSENT; SLOTS],
            confirm: [ABSENT; SLOTS],
            detected: [false; SLOTS],
            certs: 0,
            cert_signers: 0,
            witness: false,
            impeach: [ABSENT; SLOTS],
            evidence_valid: false,
            evicted_this_round: false,
            committed: 0,
        };
        st.enter_round(ctx);
        st
    }

    /// Resets the per-round machinery for the current `round`/`retry` pass.
    fn enter_round(&mut self, ctx: &Ctx) {
        self.announce = [ABSENT; SLOTS];
        self.vote = [ABSENT; SLOTS];
        self.timer_fired = false;
        self.collected = false;
        self.votes_received = 0;
        self.votes_missing = 0;
        self.quorum_timeout = false;
        self.yes = 0;
        self.accepted = false;
        self.propose = [ABSENT; SLOTS];
        self.echo = [ABSENT; SLOTS];
        self.confirm = [ABSENT; SLOTS];
        self.detected = [false; SLOTS];
        self.certs = 0;
        self.cert_signers = 0;
        self.witness = false;
        self.impeach = [ABSENT; SLOTS];
        self.evidence_valid = false;
        if self.leader_faulty && ctx.scenario == Scenario::SilentLeader {
            // No TXList is ever announced: production returns the all-rejected
            // outcome immediately and routes the committee to recovery.
            self.phase = Phase::Recovery;
            self.start_recovery(ctx);
        } else {
            self.phase = Phase::VoteCollect;
            for slot in 0..SLOTS {
                self.announce[slot] = if ctx.crashed(slot) { DROPPED } else { PENDING };
            }
        }
    }

    /// Fixed-size canonical encoding under a slot permutation.
    fn encode(&self, perm: &[usize; SLOTS]) -> [u8; 12 + 7 * SLOTS] {
        let mut out = [0u8; 12 + 7 * SLOTS];
        out[0] = self.round;
        out[1] = self.phase as u8;
        out[2] = u8::from(self.retry);
        out[3] = u8::from(self.leader_faulty);
        out[4] = u8::from(self.timer_fired);
        out[5] =
            self.votes_received | (self.votes_missing << 3) | (u8::from(self.quorum_timeout) << 6);
        out[6] = self.yes | (u8::from(self.accepted) << 3);
        out[7] = self.certs;
        out[8] = self.cert_signers | (u8::from(self.witness) << 4);
        out[9] = u8::from(self.evidence_valid) | (u8::from(self.evicted_this_round) << 1);
        out[10] = self.committed;
        out[11] = u8::from(self.collected);
        let mut i = 12;
        for &slot in perm {
            out[i] = self.announce[slot];
            out[i + 1] = self.vote[slot];
            out[i + 2] = self.propose[slot];
            out[i + 3] = self.echo[slot];
            out[i + 4] = self.confirm[slot];
            out[i + 5] = u8::from(self.detected[slot]);
            out[i + 6] = self.impeach[slot];
            i += 7;
        }
        out
    }

    fn canonical(&self, ctx: &Ctx) -> [u8; 12 + 7 * SLOTS] {
        ctx.permutations()
            .iter()
            .map(|perm| self.encode(perm))
            .min()
            .expect("permutation group is never empty")
    }

    // ---- vote collection ------------------------------------------------

    fn vote_phase_complete(&self) -> bool {
        self.timer_fired || self.vote.iter().all(|&v| v == DELIVERED)
    }

    /// Closes the vote-collection window: backfills missing voters and
    /// tallies, all through the shared transition core (unless a broken rule
    /// is injected for the self-test).
    fn finish_vote_collection(&mut self, ctx: &Ctx) {
        // Late/pending messages are past the deadline: lost.
        for slot in 0..SLOTS {
            if self.announce[slot] == PENDING {
                self.announce[slot] = DROPPED;
            }
            if self.vote[slot] == PENDING {
                self.vote[slot] = DROPPED;
            }
        }
        let member_votes = self.vote.iter().filter(|&&v| v == DELIVERED).count();
        // The leader records its own vote locally (production
        // `collect_votes_under_deadline` contract).
        let received = 1 + member_votes;
        self.collected = true;
        self.votes_received = received as u8;
        self.votes_missing = expected_votes_missing(COMMITTEE_SIZE, received) as u8;
        self.quorum_timeout = quorum_timed_out(self.votes_missing as usize);
        // The single modelled transaction is valid; every delivered voter
        // (and the leader) votes Yes. Missing voters backfill as all-Unknown
        // rows — unless the BackfillYes self-test rule manufactures votes.
        self.yes = if ctx.broken == Some(BrokenRule::BackfillYes) {
            COMMITTEE_SIZE as u8
        } else {
            received as u8
        };
        self.accepted = if ctx.broken == Some(BrokenRule::CommitAtHalf) {
            (self.yes as usize) * 2 >= COMMITTEE_SIZE
        } else {
            tx_accepted(self.yes as usize, COMMITTEE_SIZE)
        };
        // Enter Algorithm 3 over the tally.
        self.phase = Phase::Alg3;
        for slot in 0..SLOTS {
            self.propose[slot] = if ctx.crashed(slot) { DROPPED } else { PENDING };
        }
    }

    // ---- Algorithm 3 ----------------------------------------------------

    /// Digests among delivered echoes (bitmask).
    fn delivered_echo_digests(&self, ctx: &Ctx) -> u8 {
        let mut mask = 0u8;
        for slot in 0..SLOTS {
            if self.echo[slot] == DELIVERED {
                mask |= 1 << ctx.slot_digest(self, slot);
            }
        }
        mask
    }

    /// Eagerly creates every message the protocol now obliges a node to send
    /// and issues certificates, until nothing changes. Mirrors the
    /// `MemberState` / `LeaderState` reaction rules.
    fn derive_alg3(&mut self, ctx: &Ctx) {
        loop {
            let mut changed = false;
            let echo_mask = self.delivered_echo_digests(ctx);
            for slot in 0..SLOTS {
                if ctx.crashed(slot) {
                    continue;
                }
                let my_digest = ctx.slot_digest(self, slot);
                // Equivocation detection: a slot that knows one leader-signed
                // digest (its PROPOSE, or an adopted echo) and sees a
                // conflicting leader-signed digest halts and reports.
                if !self.detected[slot] {
                    let knows = if self.propose[slot] == DELIVERED {
                        1 << my_digest
                    } else {
                        echo_mask // adopted from relayed echoes
                    };
                    let seen = knows | echo_mask;
                    if seen.count_ones() > 1 {
                        self.detected[slot] = true;
                        self.witness = true;
                        changed = true;
                    }
                }
                // A member echoes when the leader's PROPOSE reaches it
                // (detection halts future sends, not the echo already built
                // at accept time — production echoes before any conflict can
                // be observed, so the model creates the echo unconditionally
                // on propose delivery).
                if self.propose[slot] == DELIVERED && self.echo[slot] == ABSENT {
                    self.echo[slot] = PENDING;
                    changed = true;
                }
                // A member confirms once it holds the payload (PROPOSE
                // delivered), is not halted, and has an echo quorum for its
                // digest: its own echo plus every delivered echo of the same
                // digest.
                if self.propose[slot] == DELIVERED
                    && !self.detected[slot]
                    && self.confirm[slot] == ABSENT
                {
                    let echoes_for_mine = 1
                        + (0..SLOTS)
                            .filter(|&s| {
                                s != slot
                                    && self.echo[s] == DELIVERED
                                    && ctx.slot_digest(self, s) == my_digest
                            })
                            .count();
                    if echo_quorum(echoes_for_mine, COMMITTEE_SIZE) {
                        self.confirm[slot] = PENDING;
                        changed = true;
                    }
                }
            }
            // The leader counts delivered CONFIRMs per digest and issues a
            // certificate the first time a digest crosses the quorum. (The
            // production leader only certs its own digest; counting per digest
            // is a superset that lets a broken threshold surface *conflicting*
            // certificates.)
            for digest in [DIGEST_A, DIGEST_B] {
                if self.certs & (1 << digest) != 0 {
                    continue;
                }
                let confirms = (0..SLOTS)
                    .filter(|&s| self.confirm[s] == DELIVERED && ctx.slot_digest(self, s) == digest)
                    .count();
                if confirm_quorum(confirms, COMMITTEE_SIZE) {
                    self.certs |= 1 << digest;
                    self.cert_signers = confirms as u8;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn alg3_complete(&self) -> bool {
        self.propose.iter().all(|&m| m != PENDING)
            && self.echo.iter().all(|&m| m != PENDING)
            && self.confirm.iter().all(|&m| m != PENDING)
    }

    /// Closes the Algorithm 3 instance: commit on a certificate, or route to
    /// recovery exactly when production's intra-recovery step would.
    fn finish_alg3(&mut self, ctx: &Ctx) -> Result<(), (&'static str, String)> {
        let has_cert = self.certs != 0;
        if has_cert && self.accepted {
            let bit = 1 << self.round;
            if self.committed & bit != 0 {
                return Err((
                    "double-commit",
                    format!("round {} committed twice", self.round),
                ));
            }
            self.committed |= bit;
        }
        // Recovery runs when production's intra-recovery step would route
        // there — plus, in the `FalseAccusation` scenario, the malicious
        // member raises its fabricated accusation even after a successful
        // consensus (production's false-accuse behaviour does not wait for a
        // genuine failure).
        let needs_recovery =
            !self.retry && (!has_cert || self.witness || ctx.scenario == Scenario::FalseAccusation);
        if needs_recovery {
            self.phase = Phase::Recovery;
            self.start_recovery(ctx);
        } else {
            self.finish_round(ctx);
        }
        Ok(())
    }

    // ---- recovery -------------------------------------------------------

    /// Who prosecutes: the lowest non-crashed slot (malicious slot 0 raises
    /// the fabricated accusation in `FalseAccusation`; otherwise the first
    /// honest partial-set member, as in `RoundContext::pick_prosecutor`).
    fn prosecutor(&self, ctx: &Ctx) -> usize {
        (0..SLOTS)
            .find(|&s| !ctx.crashed(s))
            .expect("at most one slot is crashed")
    }

    fn start_recovery(&mut self, ctx: &Ctx) {
        // Evidence validity through the shared admissibility rules. The
        // accused is always the current leader here (the model has no
        // leaderless accusations); witnesses distilled from Algorithm 3
        // traffic genuinely verify.
        self.evidence_valid = if self.witness {
            signed_accusation_admissible(true, true)
        } else {
            let fabricated =
                ctx.scenario == Scenario::FalseAccusation && !self.leader_faulty_observable(ctx);
            timeout_accusation_admissible(true, !fabricated)
        };
        let prosecutor = self.prosecutor(ctx);
        for slot in 0..SLOTS {
            if slot == prosecutor || ctx.crashed(slot) {
                continue;
            }
            // Only approving votes matter to the count; members that reject
            // (honest members shown invalid evidence) send no approval. The
            // SkipRefereeCheck self-test rule removes the member-side
            // verification along with the referee's.
            let approves = ctx.broken == Some(BrokenRule::SkipRefereeCheck)
                || member_approves_impeachment(ctx.slot_honest(slot), self.evidence_valid);
            if approves {
                self.impeach[slot] = PENDING;
            }
        }
    }

    /// True when the committee really observed a leader omission this pass
    /// (no certificate): an honest timeout accusation. The `FalseAccusation`
    /// accuser fabricates one even when consensus succeeded.
    fn leader_faulty_observable(&self, _ctx: &Ctx) -> bool {
        self.certs == 0
    }

    fn recovery_complete(&self) -> bool {
        self.impeach.iter().all(|&m| m != PENDING)
    }

    fn finish_recovery(&mut self, ctx: &Ctx) -> Result<(), (&'static str, String)> {
        let approvals = 1 // the prosecutor approves its own accusation
            + self.impeach.iter().filter(|&&m| m == DELIVERED).count();
        let passes = impeachment_passes(approvals, COMMITTEE_SIZE);
        let evict = if ctx.broken == Some(BrokenRule::SkipRefereeCheck) {
            passes
        } else {
            // Claim 4: the referee committee re-verifies the evidence itself,
            // so a vote majority alone can never evict.
            passes && self.evidence_valid
        };
        if evict {
            if !self.evidence_valid {
                return Err((
                    "eviction-without-evidence",
                    "leader evicted on an impeachment with invalid evidence".to_string(),
                ));
            }
            self.evicted_this_round = true;
            // The new leader is promoted from the partial set and is honest;
            // the demoted leader only misbehaved in its leader role, so the
            // retry pass is behaviourally all-honest.
            self.leader_faulty = false;
            self.retry = true;
            self.enter_round(ctx);
            // `enter_round` reset the per-pass evidence flag; the eviction's
            // admissible evidence is a fact about the round, kept alongside
            // `evicted_this_round` for the state invariant.
            self.evidence_valid = true;
        } else {
            self.finish_round(ctx);
        }
        Ok(())
    }

    // ---- round chaining -------------------------------------------------

    fn finish_round(&mut self, ctx: &Ctx) {
        if self.round + 1 < ROUNDS {
            self.round += 1;
            self.retry = false;
            self.evicted_this_round = false;
            // An evicted leader stays evicted: the next round runs under the
            // honest replacement. Otherwise the scenario fault persists.
            if !self.leader_faulty {
                // stays honest (either never faulty or already evicted)
            }
            self.enter_round(ctx);
        } else {
            self.phase = Phase::Done;
        }
    }

    // ---- invariants -----------------------------------------------------

    /// Safety assertions checked on every reachable state.
    fn check(&self) -> Result<(), (&'static str, String)> {
        // No two conflicting quorum certificates for one instance.
        if self.certs.count_ones() > 1 {
            return Err((
                "conflicting-certificates",
                format!("certificates issued for digest mask {:#04b}", self.certs),
            ));
        }
        // A certificate carries a committee majority of distinct signers.
        if self.certs != 0 && (self.cert_signers as usize) < majority_threshold(COMMITTEE_SIZE) {
            return Err((
                "cert-below-quorum",
                format!("certificate with {} signers", self.cert_signers),
            ));
        }
        // Vote-accounting invariants apply once this pass closed a vote
        // collection (a silent-leader pass never opens one).
        if self.collected {
            // The quorum-timeout fallback never manufactures a vote: Yes
            // votes cannot exceed the votes actually received.
            if self.yes > self.votes_received {
                return Err((
                    "manufactured-votes",
                    format!(
                        "{} yes votes from {} received",
                        self.yes, self.votes_received
                    ),
                ));
            }
            // The missing count reconciles with the shared arithmetic.
            if self.votes_missing as usize
                != expected_votes_missing(COMMITTEE_SIZE, self.votes_received as usize)
            {
                return Err((
                    "missing-count-skew",
                    format!(
                        "votes_missing {} but received {}",
                        self.votes_missing, self.votes_received
                    ),
                ));
            }
            // The committed decision must be exactly the shared tally rule.
            if self.accepted != tx_accepted(self.yes as usize, COMMITTEE_SIZE) {
                return Err((
                    "tally-divergence",
                    format!(
                        "accepted={} with {} yes votes of {}",
                        self.accepted, self.yes, COMMITTEE_SIZE
                    ),
                ));
            }
        }
        // An eviction implies admissible evidence (checked again here as a
        // state invariant, not only at the eviction transition).
        if self.evicted_this_round && !self.evidence_valid {
            return Err((
                "eviction-without-evidence",
                "evicted leader without admissible evidence".to_string(),
            ));
        }
        Ok(())
    }
}

/// One enabled action.
#[derive(Clone, Copy, Debug)]
enum Action {
    Deliver(MsgKind, usize),
    Drop(MsgKind, usize),
    FireTimer,
    /// A phase hit its completion condition; collapse it to its summary.
    Complete,
}

#[derive(Clone, Copy, Debug)]
enum MsgKind {
    Announce,
    Vote,
    Propose,
    Echo,
    Confirm,
    Impeach,
}

impl Action {
    fn label(&self) -> String {
        match self {
            Action::Deliver(k, s) => format!("deliver {k:?}[{s}]"),
            Action::Drop(k, s) => format!("drop {k:?}[{s}]"),
            Action::FireTimer => "fire vote deadline".to_string(),
            Action::Complete => "phase completes".to_string(),
        }
    }
}

fn enabled_actions(st: &State) -> Vec<Action> {
    let mut actions = Vec::new();
    match st.phase {
        Phase::VoteCollect => {
            if st.vote_phase_complete() {
                return vec![Action::Complete];
            }
            for slot in 0..SLOTS {
                if st.announce[slot] == PENDING {
                    actions.push(Action::Deliver(MsgKind::Announce, slot));
                    actions.push(Action::Drop(MsgKind::Announce, slot));
                }
                if st.vote[slot] == PENDING {
                    actions.push(Action::Deliver(MsgKind::Vote, slot));
                    actions.push(Action::Drop(MsgKind::Vote, slot));
                }
            }
            // The deadline can fire before, between, or after any delivery —
            // including immediately. A message delivered "at" the deadline is
            // a delivery ordered before the timer (the inclusive
            // `message_beats_timer` tie-break); firing the timer first models
            // the strictly-later arrival.
            actions.push(Action::FireTimer);
        }
        Phase::Alg3 => {
            if st.alg3_complete() {
                return vec![Action::Complete];
            }
            for slot in 0..SLOTS {
                for (kind, arr) in [
                    (MsgKind::Propose, &st.propose),
                    (MsgKind::Echo, &st.echo),
                    (MsgKind::Confirm, &st.confirm),
                ] {
                    if arr[slot] == PENDING {
                        actions.push(Action::Deliver(kind, slot));
                        actions.push(Action::Drop(kind, slot));
                    }
                }
            }
        }
        Phase::Recovery => {
            if st.recovery_complete() {
                return vec![Action::Complete];
            }
            for slot in 0..SLOTS {
                if st.impeach[slot] == PENDING {
                    actions.push(Action::Deliver(MsgKind::Impeach, slot));
                    actions.push(Action::Drop(MsgKind::Impeach, slot));
                }
            }
        }
        Phase::Done => {}
    }
    actions
}

fn apply(st: &State, action: Action, ctx: &Ctx) -> Result<State, (&'static str, String, State)> {
    let mut next = st.clone();
    let result = match action {
        Action::Deliver(kind, slot) | Action::Drop(kind, slot) => {
            let status = if matches!(action, Action::Deliver(..)) {
                DELIVERED
            } else {
                DROPPED
            };
            match kind {
                MsgKind::Announce => {
                    next.announce[slot] = status;
                    if status == DELIVERED {
                        // The member votes as soon as the TXList reaches it.
                        next.vote[slot] = PENDING;
                    }
                }
                MsgKind::Vote => next.vote[slot] = status,
                MsgKind::Propose => next.propose[slot] = status,
                MsgKind::Echo => next.echo[slot] = status,
                MsgKind::Confirm => next.confirm[slot] = status,
                MsgKind::Impeach => next.impeach[slot] = status,
            }
            if next.phase == Phase::Alg3 {
                next.derive_alg3(ctx);
            }
            Ok(())
        }
        Action::FireTimer => {
            next.timer_fired = true;
            Ok(())
        }
        Action::Complete => match next.phase {
            Phase::VoteCollect => {
                next.finish_vote_collection(ctx);
                next.derive_alg3(ctx);
                Ok(())
            }
            Phase::Alg3 => next.finish_alg3(ctx),
            Phase::Recovery => next.finish_recovery(ctx),
            Phase::Done => Ok(()),
        },
    };
    match result {
        Ok(()) => Ok(next),
        Err((kind, detail)) => Err((kind, detail, next)),
    }
}

/// Exhaustively explores one scenario by BFS over canonicalized states.
///
/// `broken` injects a deliberately wrong transition rule (self-test); pass
/// `None` for the real transition relation.
pub fn explore(scenario: Scenario, broken: Option<BrokenRule>) -> ExploreStats {
    let ctx = Ctx { scenario, broken };
    let mut stats = ExploreStats::default();

    // Canonical encoding → index; parents[(index)] = (parent index, action label).
    let mut index: HashMap<[u8; 12 + 7 * SLOTS], usize> = HashMap::new();
    let mut parents: Vec<(usize, String)> = Vec::new();
    let mut states: Vec<State> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let build_trace = |parents: &Vec<(usize, String)>, mut at: usize| -> Vec<String> {
        let mut trace = Vec::new();
        while at != usize::MAX {
            let (parent, label) = &parents[at];
            if !label.is_empty() {
                trace.push(label.clone());
            }
            at = *parent;
        }
        trace.reverse();
        trace
    };

    let initial = State::initial(&ctx);
    let canon = initial.canonical(&ctx);
    index.insert(canon, 0);
    parents.push((usize::MAX, String::new()));
    states.push(initial.clone());
    queue.push_back(0);
    if let Err((kind, detail)) = initial.check() {
        stats.violations.push(Violation {
            kind,
            detail,
            trace: vec!["initial state".to_string()],
        });
    }

    while let Some(at) = queue.pop_front() {
        let st = states[at].clone();
        if st.phase == Phase::Done {
            stats.terminal_states += 1;
            if st.committed == (1 << ROUNDS) - 1 {
                stats.full_commit_terminals += 1;
            }
            continue;
        }
        for action in enabled_actions(&st) {
            stats.transitions += 1;
            let (next, violation) = match apply(&st, action, &ctx) {
                Ok(next) => (next, None),
                Err((kind, detail, next)) => (next, Some((kind, detail))),
            };
            let canon = next.canonical(&ctx);
            let next_index = match index.get(&canon) {
                Some(&i) => i,
                None => {
                    let i = states.len();
                    index.insert(canon, i);
                    parents.push((at, action.label()));
                    states.push(next.clone());
                    queue.push_back(i);
                    i
                }
            };
            if let Some((kind, detail)) = violation {
                stats.violations.push(Violation {
                    kind,
                    detail,
                    trace: build_trace(&parents, next_index),
                });
                continue;
            }
            if let Err((kind, detail)) = next.check() {
                stats.violations.push(Violation {
                    kind,
                    detail,
                    trace: build_trace(&parents, next_index),
                });
            }
        }
    }
    stats.states = states.len();
    stats
}

/// Explores every scenario with the real transition relation, aggregating
/// counts; any violation is a genuine model-level safety bug.
pub fn explore_all() -> ExploreStats {
    let mut total = ExploreStats::default();
    for scenario in ALL_SCENARIOS {
        let stats = explore(scenario, None);
        total.states += stats.states;
        total.transitions += stats.transitions;
        total.terminal_states += stats.terminal_states;
        total.full_commit_terminals += stats.full_commit_terminals;
        total.violations.extend(stats.violations);
    }
    total
}
