//! Execution traces: the simulator's equivalent of probing the digital
//! outputs with an oscilloscope (§5).
//!
//! Every architecturally visible event — timing points, triggered or
//! cancelled operations, measurement starts/results, timeline slips —
//! is recorded with its classical-cycle timestamp, letting tests assert
//! cycle-exact behaviour (e.g. the Fig. 3 timing) and letting the
//! latency harness measure feedback paths exactly as the paper did.

use eqasm_core::{ExecFlag, Qubit};

/// The kind of a trace event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceKind {
    /// A new timing point was created in the reserve phase.
    TimingPoint {
        /// The point's trigger timestamp, in quantum cycles.
        point: u64,
    },
    /// A device operation reached the trigger stage. `executed` is the
    /// fast-conditional-execution verdict: `false` means the operation
    /// was cancelled by its execution flag (§3.5).
    OpTriggered {
        /// Target qubit.
        qubit: Qubit,
        /// The configured operation name.
        name: String,
        /// The execution flag the operation was gated on.
        condition: ExecFlag,
        /// Whether the operation was released to the analog-digital
        /// interface.
        executed: bool,
    },
    /// Both halves of a two-qubit operation arrived and the gate was
    /// applied.
    TwoQubitApplied {
        /// Source qubit of the pair.
        src: Qubit,
        /// Target qubit of the pair.
        tgt: Qubit,
        /// The configured operation name.
        name: String,
    },
    /// A measurement window opened on a qubit.
    MeasurementStarted {
        /// The measured qubit.
        qubit: Qubit,
    },
    /// The measurement discrimination unit produced a result.
    MeasurementResult {
        /// The measured qubit.
        qubit: Qubit,
        /// The physical (pre-assignment-error) outcome.
        raw: bool,
        /// The reported outcome written back to the architecture.
        reported: bool,
    },
    /// The result writeback reached the execution flags and `Qi`
    /// (after result synchronisation latency).
    ResultWriteback {
        /// The qubit whose registers were updated.
        qubit: Qubit,
        /// The written value.
        value: bool,
    },
    /// The reserve phase fell behind and the timeline slipped forward.
    TimelineSlip {
        /// The requested timestamp (quantum cycles).
        requested: u64,
        /// The actually used timestamp.
        actual: u64,
    },
    /// An operation overlapped a still-busy qubit (scheduling bug in the
    /// program; real pulses would distort).
    BusyOverlap {
        /// The overlapping qubit.
        qubit: Qubit,
    },
    /// The machine halted.
    Halted,
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Classical-cycle timestamp.
    pub cc: u64,
    /// Event payload.
    pub kind: TraceKind,
}

/// An ordered collection of trace events with query helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates a trace; when `enabled` is false all records are dropped.
    pub fn new(enabled: bool) -> Self {
        Trace {
            events: Vec::new(),
            enabled,
        }
    }

    /// Whether events are being recorded. Callers check this before
    /// building a payload that costs an allocation.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event.
    pub fn record(&mut self, cc: u64, kind: TraceKind) {
        if self.enabled {
            self.events.push(TraceEvent { cc, kind });
        }
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All *executed* operation triggers, in time order, as
    /// `(cc, qubit, name)`.
    pub fn executed_ops(&self) -> Vec<(u64, Qubit, &str)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::OpTriggered {
                    qubit,
                    name,
                    executed: true,
                    ..
                } => Some((e.cc, *qubit, name.as_str())),
                _ => None,
            })
            .collect()
    }

    /// All operation triggers on one qubit (executed and cancelled).
    pub fn ops_on(&self, qubit: Qubit) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| matches!(&e.kind, TraceKind::OpTriggered { qubit: q, .. } if *q == qubit))
            .collect()
    }

    /// All measurement results in time order as
    /// `(cc, qubit, raw, reported)`.
    pub fn measurement_results(&self) -> Vec<(u64, Qubit, bool, bool)> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceKind::MeasurementResult {
                    qubit,
                    raw,
                    reported,
                } => Some((e.cc, *qubit, *raw, *reported)),
                _ => None,
            })
            .collect()
    }

    /// The first event matching a predicate.
    pub fn find<P: Fn(&TraceKind) -> bool>(&self, pred: P) -> Option<&TraceEvent> {
        self.events.iter().find(|e| pred(&e.kind))
    }

    /// Count of timeline slips.
    pub fn slips(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::TimelineSlip { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.record(1, TraceKind::Halted);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn query_helpers() {
        let mut t = Trace::new(true);
        t.record(
            10,
            TraceKind::OpTriggered {
                qubit: Qubit::new(0),
                name: "X".into(),
                condition: ExecFlag::Always,
                executed: true,
            },
        );
        t.record(
            12,
            TraceKind::OpTriggered {
                qubit: Qubit::new(2),
                name: "C_X".into(),
                condition: ExecFlag::LastIsOne,
                executed: false,
            },
        );
        t.record(
            20,
            TraceKind::MeasurementResult {
                qubit: Qubit::new(0),
                raw: true,
                reported: false,
            },
        );
        t.record(
            25,
            TraceKind::TimelineSlip {
                requested: 3,
                actual: 6,
            },
        );
        assert_eq!(t.executed_ops(), vec![(10, Qubit::new(0), "X")]);
        assert_eq!(t.ops_on(Qubit::new(2)).len(), 1);
        assert_eq!(
            t.measurement_results(),
            vec![(20, Qubit::new(0), true, false)]
        );
        assert_eq!(t.slips(), 1);
        assert!(t
            .find(|k| matches!(k, TraceKind::MeasurementResult { .. }))
            .is_some());
    }
}
