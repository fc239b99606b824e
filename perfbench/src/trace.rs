//! Tracing for the per-layer run: a [`RoundObserver`] that records one span
//! per engine phase, children of a round span recorded around
//! `Simulation::run_round_observed`. Spans stay in memory and are written
//! out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use alloccount::AllocSnapshot;
use cycledger_protocol::engine::{RoundContext, RoundObserver};

/// The engine's phases, in pipeline order, as `RoundObserver` names them.
pub const PHASES: [&str; 8] = [
    "committee-configuration",
    "semi-commitment-exchange",
    "intra-consensus",
    "intra-recovery",
    "inter-consensus",
    "reputation-update",
    "selection",
    "block-generation",
];

/// Name of the span around a whole round.
pub const ROUND: &str = "round";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Episode the round belongs to.
    pub episode: u64,
    /// The round's number; shared by the round span and its phase spans.
    pub round: u64,
    /// Whether the round is measured (every round but an episode's first).
    pub measured: bool,
    /// [`ROUND`] or one of [`PHASES`].
    pub name: &'static str,
    /// Start, in µs since the tracer was created.
    pub start_us: f64,
    /// End, in µs since the tracer was created.
    pub end_us: f64,
    /// Heap allocations made inside the span, by every thread.
    pub allocs: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Records phase spans as an observer and round spans through
/// [`Tracer::round`].
pub struct Tracer {
    origin: Instant,
    /// Episode of the rounds being recorded.
    pub episode: u64,
    /// Whether the rounds being recorded are measured.
    pub measured: bool,
    open: Option<(Instant, AllocSnapshot)>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            episode: 0,
            measured: false,
            open: None,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn push(&mut self, name: &'static str, round: u64, start: Instant, allocs: AllocSnapshot) {
        let end = Instant::now();
        self.spans.push(Span {
            episode: self.episode,
            round,
            measured: self.measured,
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            allocs: alloccount::snapshot().since(&allocs).allocations,
        });
    }

    /// Runs `round_fn`, which runs one round with this tracer attached and
    /// returns the round's number, inside a round span.
    pub fn round(&mut self, round_fn: impl FnOnce(&mut Tracer) -> u64) {
        let start = Instant::now();
        let allocs = alloccount::snapshot();
        let round = round_fn(self);
        self.push(ROUND, round, start, allocs);
    }

    /// Per measured round: each phase's time and allocations, and the
    /// round time outside any phase, as `(name, value)` pairs named after
    /// the per-layer metrics.
    pub fn per_round(&self) -> Vec<(String, f64)> {
        let measured: Vec<&Span> = self.spans.iter().filter(|s| s.measured).collect();
        let rounds = measured.iter().filter(|s| s.name == ROUND).count().max(1) as f64;
        let total = |name: &str, f: fn(&Span) -> f64| -> f64 {
            measured
                .iter()
                .filter(|s| s.name == name)
                .map(|s| f(s))
                .sum()
        };
        let mut out = Vec::new();
        let mut in_phases = 0.0;
        for phase in PHASES {
            let ms = total(phase, Span::ms);
            in_phases += ms;
            out.push((format!("phase.{phase}.ms"), ms / rounds));
            out.push((
                format!("phase.{phase}.allocs"),
                total(phase, |s| s.allocs as f64) / rounds,
            ));
        }
        out.push((
            "round.outside.ms".to_string(),
            (total(ROUND, Span::ms) - in_phases) / rounds,
        ));
        out
    }

    /// The spans as a JSON document; phase spans name the round span as
    /// their parent.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.name == ROUND { "null" } else { "\"round\"" };
            let _ = writeln!(
                out,
                "  {{\"episode\": {}, \"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"measured\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \"allocs\": {}}}{}",
                s.episode,
                s.round,
                s.name,
                s.measured,
                s.start_us,
                s.end_us,
                s.allocs,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl RoundObserver for Tracer {
    fn on_phase_start(&mut self, _phase: &'static str, _ctx: &RoundContext<'_>) {
        self.open = Some((Instant::now(), alloccount::snapshot()));
    }

    fn on_phase_end(&mut self, phase: &'static str, ctx: &RoundContext<'_>) {
        let (start, allocs) = self.open.take().expect("phase end follows its start");
        self.push(phase, ctx.round, start, allocs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, measured: bool) -> Span {
        Span {
            episode: 0,
            round: 1,
            measured,
            name,
            start_us,
            end_us,
            allocs: 10,
        }
    }

    #[test]
    fn outside_time_is_round_minus_phases() {
        let tracer = Tracer {
            spans: vec![
                span("inter-consensus", 0.0, 3000.0, true),
                span("selection", 3000.0, 4000.0, true),
                span(ROUND, 0.0, 5000.0, true),
                // Unmeasured rounds are left out.
                span(ROUND, 5000.0, 9000.0, false),
            ],
            ..Tracer::default()
        };
        let metrics: std::collections::BTreeMap<String, f64> =
            tracer.per_round().into_iter().collect();
        assert_eq!(metrics["phase.inter-consensus.ms"], 3.0);
        assert_eq!(metrics["phase.selection.ms"], 1.0);
        assert_eq!(metrics["phase.selection.allocs"], 10.0);
        assert_eq!(metrics["phase.intra-recovery.ms"], 0.0);
        assert_eq!(metrics["round.outside.ms"], 1.0);
    }
}
