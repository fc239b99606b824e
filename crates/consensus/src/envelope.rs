//! Typed committee-traffic envelopes.
//!
//! Every committee interaction — `TXList` announcements, vote replies, the
//! whole Algorithm 3 exchange, certified-list forwarding, recovery
//! accusations and impeachment votes, state sync — travels through the
//! discrete-event network as a [`CommitteeMessage`] envelope, so partitions,
//! targeted delay, loss and reordering can actually perturb consensus.

use crate::messages::Alg3Message;
use crate::votes::VoteVector;
use cycledger_net::topology::NodeId;

/// Every kind of committee traffic the message-driven phases exchange.
///
/// Envelopes carry the data that influences receiver control flow; wire
/// sizes are charged separately at send time.
#[derive(Clone, Debug)]
// Alg3 traffic dominates every committee exchange (one PROPOSE/ECHO/CONFIRM
// per member per instance); boxing it to shrink the rare small variants
// would put an allocation on the hottest send path.
#[allow(clippy::large_enum_variant)]
pub enum CommitteeMessage {
    /// Leader → members: the round's `TXList` announcement (the transaction
    /// payload itself is shared simulation state; `count` pins the length
    /// every member votes over).
    TxList {
        /// Committee / shard index.
        committee: u32,
        /// Number of offered transactions.
        count: u32,
    },
    /// Member → leader: the member's vote vector over the announced list.
    Votes(VoteVector),
    /// Embedded Algorithm 3 traffic (PROPOSE / ECHO / CONFIRM).
    Alg3(Alg3Message),
    /// Leader → referee members: the certified `TXdecSET` forward.
    CertForward {
        /// Committee / shard index.
        committee: u32,
        /// Number of decided transactions.
        decided: u32,
    },
    /// Input-committee key member → destination leader / partial set: a
    /// certified cross-shard `TXList_{i,j}`.
    ListForward {
        /// Input shard.
        input: u32,
        /// Output shard.
        output: u32,
        /// Number of forwarded transactions.
        count: u32,
    },
    /// Destination leader → input leader: the certified vote result.
    ListReply {
        /// Input shard.
        input: u32,
        /// Output shard.
        output: u32,
        /// Number of accepted transactions.
        accepted: u32,
    },
    /// Recovery prosecutor → committee: an accusation against the leader.
    Accusation {
        /// Committee the accusation concerns.
        committee: u32,
        /// The accused leader.
        accused: NodeId,
    },
    /// Committee member → prosecutor: the impeachment vote.
    ImpeachVote {
        /// Committee the vote concerns.
        committee: u32,
        /// Whether the member approves the impeachment.
        approve: bool,
    },
    /// Syncing member → peer: request for a chunk of the shard's chain,
    /// starting at `from_round` and capped at `max_blocks` headers.
    SyncRequest {
        /// First round wanted (0 = from genesis).
        from_round: u64,
        /// Chunk size cap the requester will accept.
        max_blocks: u32,
        /// Request ordinal, echoed in the reply so the requester can discard
        /// stale chunks that arrive after it rotated to another peer.
        request_id: u64,
    },
    /// Peer → syncing member: one chunk of header summaries. The block
    /// payloads are shared simulation state; what the requester must verify
    /// over the wire is the header linkage, carried here.
    SyncChunk {
        /// Round of the first header in the chunk.
        from_round: u64,
        /// `(round, prev_hash, header_hash)` per block, in round order.
        headers: Vec<SyncHeader>,
        /// Echo of the request ordinal this chunk answers.
        request_id: u64,
    },
    /// Syncing member → peers: catch-up complete; the verified tip.
    SyncDone {
        /// Height the member synced to.
        height: u64,
        /// Hash of the tip header the member verified.
        tip: [u8; 32],
    },
}

/// One block-header summary inside a [`CommitteeMessage::SyncChunk`]: just
/// enough for the requester to verify the hash linkage against the
/// quorum-certified tip it learned from the committee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncHeader {
    /// Block round (also its height in the chain).
    pub round: u64,
    /// Hash of the previous block's header.
    pub prev_hash: [u8; 32],
    /// Hash of this block's header.
    pub hash: [u8; 32],
}
