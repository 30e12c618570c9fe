//! Runtime job state shared by the discrete-event simulator and the RTSJ
//! execution engine.
//!
//! A *job* is one activation of a periodic task, one occurrence of an
//! aperiodic event, or one capacity slice of a server. Both engines track the
//! same minimal state — remaining work, release, completion — so the metrics
//! crate can compute response times identically for executions and
//! simulations.

use crate::ids::{EventId, JobId, TaskId};
use crate::time::{Instant, Span};

/// What a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobSource {
    /// The `k`-th activation of a periodic task.
    Periodic {
        /// The releasing task.
        task: TaskId,
        /// Activation index (0-based).
        activation: u64,
    },
    /// The handler work of an aperiodic event occurrence.
    Aperiodic {
        /// The triggering event occurrence.
        event: EventId,
    },
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Released but has not received any processor time yet.
    Pending,
    /// Has received some processor time and still has remaining work.
    Started {
        /// First instant the job received processor time.
        started_at: Instant,
    },
    /// Finished all its work.
    Completed {
        /// First instant the job received processor time.
        started_at: Instant,
        /// Instant at which the last unit of work completed.
        finished_at: Instant,
    },
    /// Was forcibly stopped before completion (budget enforcement).
    Interrupted {
        /// First instant the job received processor time.
        started_at: Instant,
        /// Instant of the interruption.
        interrupted_at: Instant,
    },
    /// Never received processor time within the observation horizon.
    Unserved,
}

/// Runtime state of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique job identifier within a run.
    pub id: JobId,
    /// Origin of the job.
    pub source: JobSource,
    /// Absolute release instant.
    pub release: Instant,
    /// Absolute deadline, when one applies.
    pub deadline: Option<Instant>,
    /// Total work the job needs.
    pub total_work: Span,
    /// Work still to be done.
    pub remaining: Span,
    /// Current lifecycle state.
    pub state: JobState,
}

impl Job {
    /// Creates a freshly released job.
    pub fn new(id: JobId, source: JobSource, release: Instant, work: Span) -> Self {
        Job {
            id,
            source,
            release,
            deadline: None,
            total_work: work,
            remaining: work,
            state: JobState::Pending,
        }
    }

    /// Attaches an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when all work has been performed.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, JobState::Completed { .. })
    }

    /// True when the job can still be scheduled.
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, JobState::Pending | JobState::Started { .. })
            && !self.remaining.is_zero()
    }

    /// Records that the job executed for `amount` starting at `now`.
    ///
    /// Returns `true` when this execution completed the job.
    ///
    /// # Panics
    /// Panics if `amount` exceeds the remaining work — engines must never
    /// over-run a job — or if the job is not runnable.
    pub fn execute(&mut self, now: Instant, amount: Span) -> bool {
        assert!(
            self.is_runnable(),
            "executing a non-runnable job {:?}",
            self.state
        );
        assert!(
            amount <= self.remaining,
            "executing {amount} exceeds remaining work {rem}",
            rem = self.remaining
        );
        let started_at = match self.state {
            JobState::Pending => now,
            JobState::Started { started_at } => started_at,
            _ => unreachable!(),
        };
        self.remaining = self.remaining.minus(amount);
        let end = now + amount;
        if self.remaining.is_zero() {
            self.state = JobState::Completed {
                started_at,
                finished_at: end,
            };
            true
        } else {
            self.state = JobState::Started { started_at };
            false
        }
    }

    /// Marks the job as interrupted at `now` (budget enforcement).
    pub fn interrupt(&mut self, now: Instant) {
        let started_at = match self.state {
            JobState::Pending => now,
            JobState::Started { started_at } => started_at,
            JobState::Interrupted { started_at, .. } => started_at,
            JobState::Completed { started_at, .. } => started_at,
            JobState::Unserved => now,
        };
        self.state = JobState::Interrupted {
            started_at,
            interrupted_at: now,
        };
    }

    /// Marks a never-started job as unserved (horizon reached).
    pub fn mark_unserved(&mut self) {
        if matches!(self.state, JobState::Pending) {
            self.state = JobState::Unserved;
        }
    }

    /// Response time (completion − release) for completed jobs.
    pub fn response_time(&self) -> Option<Span> {
        match self.state {
            JobState::Completed { finished_at, .. } => Some(finished_at - self.release),
            _ => None,
        }
    }

    /// True when the job completed after its deadline (if it has one).
    pub fn missed_deadline(&self) -> bool {
        match (self.state, self.deadline) {
            (JobState::Completed { finished_at, .. }, Some(d)) => finished_at > d,
            (JobState::Interrupted { .. } | JobState::Unserved, Some(_)) => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(work: u64) -> Job {
        Job::new(
            JobId::new(0),
            JobSource::Aperiodic {
                event: EventId::new(0),
            },
            Instant::from_units(2),
            Span::from_units(work),
        )
    }

    #[test]
    fn execute_until_completion_tracks_response_time() {
        let mut j = job(3);
        assert!(j.is_runnable());
        assert!(!j.execute(Instant::from_units(4), Span::from_units(1)));
        assert!(matches!(j.state, JobState::Started { .. }));
        assert!(j.execute(Instant::from_units(7), Span::from_units(2)));
        assert!(j.is_complete());
        assert!(!j.is_runnable());
        // Released at 2, finished at 9 -> response time 7.
        assert_eq!(j.response_time(), Some(Span::from_units(7)));
    }

    #[test]
    #[should_panic(expected = "exceeds remaining work")]
    fn execute_cannot_overrun() {
        let mut j = job(1);
        j.execute(Instant::from_units(2), Span::from_units(2));
    }

    #[test]
    fn interrupt_and_unserved_states() {
        let mut j = job(3);
        j.execute(Instant::from_units(2), Span::from_units(1));
        j.interrupt(Instant::from_units(3));
        assert!(matches!(j.state, JobState::Interrupted { .. }));
        assert_eq!(j.response_time(), None);

        let mut j2 = job(3);
        j2.mark_unserved();
        assert!(matches!(j2.state, JobState::Unserved));
        // mark_unserved only applies to pending jobs.
        let mut j3 = job(1);
        j3.execute(Instant::from_units(2), Span::from_units(1));
        j3.mark_unserved();
        assert!(j3.is_complete());
    }

    #[test]
    fn deadline_miss_detection() {
        let mut j = job(2).with_deadline(Instant::from_units(5));
        j.execute(Instant::from_units(4), Span::from_units(2));
        assert!(j.missed_deadline(), "finished at 6 > deadline 5");
        let mut ok = job(2).with_deadline(Instant::from_units(10));
        ok.execute(Instant::from_units(4), Span::from_units(2));
        assert!(!ok.missed_deadline());
        let mut unserved = job(2).with_deadline(Instant::from_units(10));
        unserved.mark_unserved();
        assert!(unserved.missed_deadline());
    }

    #[test]
    fn periodic_source_identifies_activation() {
        let j = Job::new(
            JobId::new(3),
            JobSource::Periodic {
                task: TaskId::new(1),
                activation: 4,
            },
            Instant::from_units(24),
            Span::from_units(2),
        );
        match j.source {
            JobSource::Periodic { task, activation } => {
                assert_eq!(task, TaskId::new(1));
                assert_eq!(activation, 4);
            }
            _ => panic!("wrong source"),
        }
    }
}
