//! [`RoundArena`]: per-round scratch state that survives across rounds.
//!
//! Block assembly stages every candidate transaction in one vector, and the
//! referee re-validates the block against the shard UTXO sets through an
//! overlay instead of cloning every set. The arena owns both buffers: the
//! engine drains them during the round and [`RoundArena::begin_round`]
//! recycles them (clear contents, keep capacity) for the next one. Parallel
//! tasks keep no scratch here — each builds and returns its own.

use cycledger_ledger::transaction::Transaction;
use cycledger_ledger::utxo::UtxoOverlay;

/// Reusable per-round scratch buffers, owned by the simulation and threaded
/// through [`crate::round::RoundInput`] into the engine.
#[derive(Debug, Default)]
pub struct RoundArena {
    /// Candidate transactions staged for block assembly.
    pub candidates: Vec<Transaction>,
    /// The referee's re-validation overlay over the shard UTXO sets —
    /// replaces a per-round clone of every `UtxoSet`.
    pub overlay: UtxoOverlay,
}

impl RoundArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all scratch for a new round: contents cleared, capacity kept.
    pub fn begin_round(&mut self) {
        self.candidates.clear();
        self.overlay.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_contents_and_keeps_capacity() {
        let mut arena = RoundArena::new();
        arena.candidates.reserve(64);
        let cap = arena.candidates.capacity();
        arena.begin_round();
        assert!(arena.candidates.is_empty());
        assert!(
            arena.candidates.capacity() >= cap,
            "reset keeps capacity for reuse"
        );
    }
}
