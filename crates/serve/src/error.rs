//! Typed serving errors.
//!
//! Admission control, load shedding and fault recovery surface as values,
//! never panics: a closed-loop client can match on the variant to decide
//! whether to retry (queue full, degraded), give up (deadline, quarantined)
//! or stop (shutting down).

use std::fmt;
use std::time::Duration;

use npcgra_sim::SimError;

use crate::overload::{BrownoutLevel, Priority};

/// Why the server rejected (or failed) a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the bounded queue is at capacity; retry later.
    QueueFull {
        /// The configured capacity the queue was at.
        capacity: usize,
    },
    /// The request's deadline passed before a worker started its batch.
    /// Pipeline jobs also surface this when a stage boundary finds the
    /// job's remaining deadline budget (split across stages proportionally
    /// to predicted cycles) already spent — shed there instead of burning
    /// downstream stages — and at submit for zero/expired deadlines.
    DeadlineExceeded,
    /// The server is shutting down and no longer accepts (or can run) work.
    ShuttingDown,
    /// The referenced model was never registered.
    UnknownModel,
    /// The input tensor does not match the model's IFM shape.
    ShapeMismatch {
        /// Shape the model expects, `(channels, height, width)`.
        expected: (usize, usize, usize),
        /// Shape the request carried.
        got: (usize, usize, usize),
    },
    /// The simulator rejected the layer (mapping or hardware-rule failure).
    Sim(SimError),
    /// An ABFT output checksum failed: the shard produced silently wrong
    /// words (see [`npcgra_sim::integrity`]). Retryable — transient faults
    /// draw independently per execution, so a re-run usually heals it.
    Integrity(SimError),
    /// The liveness layer preempted this request's batch: the watchdog
    /// cancelled a stuck (gray-failed) run via its
    /// [`CancelToken`](npcgra_sim::CancelToken), or the run exceeded its
    /// cycle budget. Retryable — the shard is rebuilt and the batch
    /// re-executes (faults draw independently per run ordinal).
    Preempted(SimError),
    /// The worker shard died before replying.
    WorkerLost,
    /// A worker shard panicked while executing this request's batch; the
    /// supervisor caught the panic and restarted the shard.
    WorkerPanic {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// [`Ticket::wait_timeout`](crate::Ticket::wait_timeout): no reply
    /// arrived within the wait bound. The request may still complete later.
    ReplyTimeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// The request kept failing after the batch-retry policy bisected its
    /// batch down to this request alone and exhausted the retry cap: it is
    /// the poison, quarantined so batch-mates could complete.
    Quarantined {
        /// Execution attempts spent before giving up.
        attempts: u32,
        /// The failure observed on the final attempt.
        cause: Box<ServeError>,
    },
    /// Degraded mode: a [`Server`](crate::Server) with no healthy worker
    /// shard left, or a [`Pipeline`](crate::Pipeline) with a dead stage,
    /// sheds load at admission.
    Degraded {
        /// Healthy worker shards at rejection time.
        healthy: usize,
        /// Worker shards the server was configured with.
        workers: usize,
    },
    /// Shed by the overload-control layer: either the brownout ladder
    /// rejected this class at admission (standing queue delay above the
    /// CoDel target), or a queued lower-priority request was evicted to
    /// make room for a higher-priority arrival.
    Overloaded {
        /// The brownout rung in force when the request was shed.
        level: BrownoutLevel,
        /// The shed request's priority class.
        class: Priority,
    },
    /// The crash-durability admission journal could not be recovered at
    /// startup (bad magic, or I/O failure while reading or compacting).
    /// Only [`Server::start_with_journal`](crate::Server::start_with_journal)
    /// surfaces this; a running server degrades to counting
    /// `journal_errors` rather than failing requests.
    Journal {
        /// What the journal layer reported.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => write!(f, "queue full (capacity {capacity}); request shed"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::UnknownModel => write!(f, "unknown model id"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "input shape {got:?} does not match model IFM shape {expected:?}")
            }
            ServeError::Sim(e) => write!(f, "simulation failed: {e}"),
            ServeError::Integrity(e) => write!(f, "output integrity check failed: {e}"),
            ServeError::Preempted(e) => write!(f, "batch preempted by the liveness watchdog: {e}"),
            ServeError::WorkerLost => write!(f, "worker shard lost before reply"),
            ServeError::WorkerPanic { message } => write!(f, "worker shard panicked: {message}"),
            ServeError::ReplyTimeout { waited } => {
                write!(f, "no reply within {:.3} s", waited.as_secs_f64())
            }
            ServeError::Quarantined { attempts, cause } => {
                write!(f, "request quarantined after {attempts} attempts: {cause}")
            }
            ServeError::Degraded { healthy, workers } => {
                write!(f, "degraded: only {healthy}/{workers} worker shards healthy; request shed")
            }
            ServeError::Overloaded { level, class } => {
                write!(f, "overloaded (brownout {level}): {class} request shed at admission")
            }
            ServeError::Journal { message } => write!(f, "admission journal failed: {message}"),
        }
    }
}

impl ServeError {
    /// Display this error tagged with the request id it resolved — the
    /// trace key that matches a shed/preempted/late request to its
    /// client-side record (tickets expose the id via
    /// [`Ticket::request_id`](crate::Ticket::request_id), successes via
    /// [`Response::request_id`](crate::Response::request_id)). Id `0`
    /// means "rejected before an id was assigned" (synchronous admission
    /// rejections have no ticket to trace).
    #[must_use]
    pub fn for_request(&self, request_id: u64) -> ForRequest<'_> {
        ForRequest { request_id, error: self }
    }
}

/// [`ServeError::for_request`]'s display adapter: `request <id>: <error>`.
#[derive(Debug, Clone, Copy)]
pub struct ForRequest<'a> {
    request_id: u64,
    error: &'a ServeError,
}

impl fmt::Display for ForRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.request_id == 0 {
            write!(f, "request <unassigned>: {}", self.error)
        } else {
            write!(f, "request {}: {}", self.request_id, self.error)
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) | ServeError::Integrity(e) | ServeError::Preempted(e) => Some(e),
            ServeError::Quarantined { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        use npcgra_sim::SimCause;
        match e.cause {
            SimCause::IntegrityViolation(_) => ServeError::Integrity(e),
            SimCause::Cancelled | SimCause::CycleBudgetExceeded { .. } => ServeError::Preempted(e),
            _ => ServeError::Sim(e),
        }
    }
}

/// What a failure entitles the recovery machinery to do — the single
/// error→retryability table shared by the batch-retry policy, the shard
/// supervisor's rebuild path, and the pipeline's stage fault domains, so
/// those paths cannot silently diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// Final by construction (admission sheds, shutdown, bad requests,
    /// exhausted retries): never re-executed.
    Final,
    /// Transient-fault-shaped (simulation faults, ABFT integrity trips):
    /// re-execute on the same shard — faults draw independently per run.
    Retry,
    /// The shard itself is suspect (liveness preemption, caught panic): the
    /// executing machine must be rebuilt (or failed over to a spare) before
    /// the work re-executes — a wedged simulator's state is unrecoverable.
    RebuildAndRetry,
}

impl RetryClass {
    /// Classify `e`. The match is exhaustive by variant (no wildcard arm),
    /// so adding a [`ServeError`] variant forces a decision here — and the
    /// exhaustive-match test below forces that decision to be deliberate.
    #[must_use]
    pub fn of(e: &ServeError) -> RetryClass {
        match e {
            ServeError::Sim(_) | ServeError::Integrity(_) => RetryClass::Retry,
            ServeError::Preempted(_) | ServeError::WorkerPanic { .. } => RetryClass::RebuildAndRetry,
            ServeError::QueueFull { .. }
            | ServeError::DeadlineExceeded
            | ServeError::ShuttingDown
            | ServeError::UnknownModel
            | ServeError::ShapeMismatch { .. }
            | ServeError::WorkerLost
            | ServeError::ReplyTimeout { .. }
            | ServeError::Quarantined { .. }
            | ServeError::Degraded { .. }
            | ServeError::Overloaded { .. }
            | ServeError::Journal { .. } => RetryClass::Final,
        }
    }
}

impl ServeError {
    /// Whether the batch-retry policy may re-execute a request that failed
    /// with this error (transient-fault-shaped failures), as opposed to
    /// rejections that are final by construction. Shorthand for
    /// `RetryClass::of(self) != RetryClass::Final`.
    #[must_use]
    pub fn retryable(&self) -> bool {
        RetryClass::of(self) != RetryClass::Final
    }

    /// Whether this failure is a liveness preemption (watchdog cancel or
    /// cycle-budget exhaustion) — the supervisor rebuilds the shard's
    /// machine on these, a wedged simulator's state being unrecoverable.
    #[must_use]
    pub fn is_preemption(&self) -> bool {
        matches!(self, ServeError::Preempted(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        assert!(ServeError::QueueFull { capacity: 8 }.to_string().contains("capacity 8"));
        let e = ServeError::ShapeMismatch {
            expected: (3, 8, 8),
            got: (3, 4, 4),
        };
        assert!(e.to_string().contains("(3, 8, 8)"));
        assert!(e.to_string().contains("(3, 4, 4)"));
        let q = ServeError::Quarantined {
            attempts: 3,
            cause: Box::new(ServeError::WorkerPanic { message: "chaos".into() }),
        };
        assert!(q.to_string().contains("3 attempts"));
        assert!(q.to_string().contains("chaos"));
        let d = ServeError::Degraded { healthy: 1, workers: 4 };
        assert!(d.to_string().contains("1/4"));
    }

    #[test]
    fn for_request_tags_the_display_with_the_trace_key() {
        let e = ServeError::DeadlineExceeded;
        assert_eq!(
            e.for_request(42).to_string(),
            "request 42: deadline exceeded before execution"
        );
        assert!(
            e.for_request(0).to_string().starts_with("request <unassigned>:"),
            "id 0 means the request was rejected before an id existed"
        );
    }

    #[test]
    fn only_transient_failures_are_retryable() {
        assert!(ServeError::WorkerPanic { message: "p".into() }.retryable());
        assert!(!ServeError::DeadlineExceeded.retryable());
        assert!(!ServeError::ShuttingDown.retryable());
        assert!(!ServeError::Degraded { healthy: 0, workers: 2 }.retryable());
        let shed = ServeError::Overloaded {
            level: BrownoutLevel::ShedBestEffort,
            class: Priority::BestEffort,
        };
        assert!(!shed.retryable(), "an admission shed is final, not retryable");
        assert!(shed.to_string().contains("shed-best-effort"));
        assert!(shed.to_string().contains("best-effort"));
    }

    #[test]
    fn integrity_violations_route_to_their_own_retryable_variant() {
        use npcgra_sim::{CheckKind, SimCause, SimError, Violation};
        let violation = SimError {
            block: "pw".into(),
            tile: 2,
            cycle: 0,
            cause: SimCause::IntegrityViolation(Violation {
                kind: CheckKind::RowChecksum,
                lane: 1,
                expected: 7,
                actual: 9,
            }),
        };
        let e: ServeError = violation.into();
        assert!(matches!(e, ServeError::Integrity(_)));
        assert!(e.retryable());
        assert!(e.to_string().contains("integrity"));
        let plain = SimError {
            block: "pw".into(),
            tile: 0,
            cycle: 0,
            cause: SimCause::GrfIndex(5),
        };
        assert!(matches!(ServeError::from(plain), ServeError::Sim(_)));
    }

    /// Every variant's class, asserted one by one over an exhaustive (no
    /// wildcard) constructor list: a new [`ServeError`] variant breaks the
    /// `RetryClass::of` match at compile time, and a changed classification
    /// breaks this test — either way the decision is deliberate.
    #[test]
    fn retry_class_table_is_exhaustive_and_deliberate() {
        use npcgra_sim::{SimCause, SimError};
        let sim = |cause: SimCause| SimError {
            block: "pw".into(),
            tile: 0,
            cycle: 0,
            cause,
        };
        let every: Vec<(ServeError, RetryClass)> = vec![
            (ServeError::QueueFull { capacity: 4 }, RetryClass::Final),
            (ServeError::DeadlineExceeded, RetryClass::Final),
            (ServeError::ShuttingDown, RetryClass::Final),
            (ServeError::UnknownModel, RetryClass::Final),
            (
                ServeError::ShapeMismatch {
                    expected: (1, 2, 3),
                    got: (3, 2, 1),
                },
                RetryClass::Final,
            ),
            (ServeError::Sim(sim(SimCause::GrfIndex(1))), RetryClass::Retry),
            (
                ServeError::Integrity(sim(SimCause::IntegrityViolation(npcgra_sim::Violation {
                    kind: npcgra_sim::CheckKind::ChannelSum,
                    lane: 0,
                    expected: 1,
                    actual: 2,
                }))),
                RetryClass::Retry,
            ),
            (ServeError::Preempted(sim(SimCause::Cancelled)), RetryClass::RebuildAndRetry),
            (ServeError::WorkerLost, RetryClass::Final),
            (ServeError::WorkerPanic { message: "p".into() }, RetryClass::RebuildAndRetry),
            (
                ServeError::ReplyTimeout {
                    waited: Duration::from_millis(1),
                },
                RetryClass::Final,
            ),
            (
                ServeError::Quarantined {
                    attempts: 2,
                    cause: Box::new(ServeError::DeadlineExceeded),
                },
                RetryClass::Final,
            ),
            (ServeError::Degraded { healthy: 0, workers: 2 }, RetryClass::Final),
            (
                ServeError::Overloaded {
                    level: BrownoutLevel::ShedBestEffort,
                    class: Priority::BestEffort,
                },
                RetryClass::Final,
            ),
            (
                ServeError::Journal {
                    message: "bad magic".into(),
                },
                RetryClass::Final,
            ),
        ];
        for (e, want) in &every {
            assert_eq!(RetryClass::of(e), *want, "{e}");
            assert_eq!(e.retryable(), *want != RetryClass::Final, "{e}");
            // Only rebuild-class failures justify tearing a machine down.
            assert_eq!(
                RetryClass::of(e) == RetryClass::RebuildAndRetry,
                e.is_preemption() || matches!(e, ServeError::WorkerPanic { .. }),
                "{e}"
            );
            // The coverage guard: consume each variant through a wildcard-free
            // match so this list must grow with the enum.
            match e {
                ServeError::QueueFull { .. }
                | ServeError::DeadlineExceeded
                | ServeError::ShuttingDown
                | ServeError::UnknownModel
                | ServeError::ShapeMismatch { .. }
                | ServeError::Sim(_)
                | ServeError::Integrity(_)
                | ServeError::Preempted(_)
                | ServeError::WorkerLost
                | ServeError::WorkerPanic { .. }
                | ServeError::ReplyTimeout { .. }
                | ServeError::Quarantined { .. }
                | ServeError::Degraded { .. }
                | ServeError::Overloaded { .. }
                | ServeError::Journal { .. } => {}
            }
        }
        assert_eq!(every.len(), 15, "one row per ServeError variant");
    }

    #[test]
    fn preemptions_route_to_their_own_retryable_variant() {
        use npcgra_sim::{SimCause, SimError};
        let cancelled = SimError {
            block: "dw".into(),
            tile: 1,
            cycle: 42,
            cause: SimCause::Cancelled,
        };
        let e: ServeError = cancelled.into();
        assert!(e.is_preemption());
        assert!(e.retryable(), "a preempted batch re-executes on a rebuilt shard");
        assert!(e.to_string().contains("preempted"));
        let blown = SimError {
            block: "dw".into(),
            tile: 0,
            cycle: 9,
            cause: SimCause::CycleBudgetExceeded { budget: 512 },
        };
        let e: ServeError = blown.into();
        assert!(e.is_preemption());
        assert!(e.to_string().contains("512"));
        assert!(!ServeError::DeadlineExceeded.is_preemption());
    }
}
