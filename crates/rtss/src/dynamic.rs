//! The D-OVER scheduling policy of the RTSS simulator.
//!
//! The paper lists three scheduling policies implemented by RTSS
//! ("Preemptive Fixed Priority, EDF and D-OVER", §5). Fixed priorities and
//! EDF, both with servers, are the [`rt_model::SchedulingPolicy`] choices of
//! [`crate::simulate`]; this module provides the third. It schedules the
//! jobs of periodic tasks plus deadline-tagged aperiodic jobs, with no
//! server.
//!
//! D-OVER (Koren & Shasha) is an overload-handling variant of EDF: under
//! overload it abandons jobs to protect the others. The simulator implements
//! the firm-deadline core of the algorithm — a job that can no longer meet
//! its deadline is abandoned immediately and counted as lost, and under
//! overload the job with the lowest value density is sacrificed first — which
//! is the behaviour the policy menu needs; the full competitive-ratio
//! machinery of the original algorithm is out of scope (the paper never
//! evaluates D-OVER).

use rt_model::{
    AperiodicFate, AperiodicOutcome, ExecUnit, Instant, PeriodicJobRecord, Span, SystemSpec, Trace,
};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct DynJob {
    unit: ExecUnit,
    /// For periodic jobs: (task index, activation).
    periodic: Option<(usize, u64)>,
    /// For aperiodic jobs: index into `spec.aperiodics`.
    aperiodic: Option<usize>,
    release: Instant,
    deadline: Instant,
    remaining: Span,
    total: Span,
    started: Option<Instant>,
    /// Value used by D-OVER when choosing a victim (value density = value /
    /// total cost; by default the value equals the cost, i.e. density 1).
    value: f64,
}

impl DynJob {
    fn value_density(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.value / self.total.as_units()
    }
}

/// Simulates the system under D-OVER: EDF over the periodic jobs and the
/// aperiodic events, abandoning jobs that can no longer meet their deadline
/// and shedding the lowest value density first under overload. Events
/// without a relative deadline get an implicit deadline equal to the
/// horizon.
///
/// # Panics
/// Panics when the specification fails validation.
pub fn simulate_dover(spec: &SystemSpec) -> Trace {
    spec.validate()
        // rt-lint: allow(panic, reason = "documented '# Panics' contract: the convenience entry point fails loudly on invalid specs")
        .expect("simulate_dover() requires a valid system specification");
    let horizon = spec.horizon;
    let mut trace = Trace::new(horizon);

    // Future releases: periodic activations and aperiodic arrivals, sorted.
    let mut future: VecDeque<DynJob> = build_release_list(spec);
    let mut ready: Vec<DynJob> = Vec::new();
    let mut now = Instant::ZERO;

    while now < horizon {
        // Admit everything released at or before now.
        while future.front().is_some_and(|j| j.release <= now) {
            if let Some(job) = future.pop_front() {
                ready.push(job);
            }
        }
        // Abandon jobs that can no longer complete by their deadline; under
        // overload, shed the lowest value-density work first so that the
        // remaining jobs stay feasible.
        abandon_hopeless(&mut ready, now, &mut trace, spec);
        shed_overload(&mut ready, now, &mut trace, spec);
        let next_release = future.front().map_or(horizon, |j| j.release).min(horizon);
        if ready.is_empty() {
            trace.push_segment(ExecUnit::Idle, now, next_release);
            now = next_release;
            continue;
        }
        // EDF selection: earliest absolute deadline, ties by release then unit.
        ready.sort_by_key(|j| (j.deadline, j.release, j.unit));
        let job = &mut ready[0];
        // Every job that could not finish by its deadline was abandoned
        // above, so only the next release cuts the slice short.
        let slice = job.remaining.min(next_release.since(now));
        if job.started.is_none() {
            job.started = Some(now);
        }
        trace.push_segment(job.unit, now, now + slice);
        job.remaining = job.remaining.minus(slice);
        now += slice;
        if ready[0].remaining.is_zero() {
            let job = ready.remove(0);
            record_completion(job, now, &mut trace, spec);
        }
    }

    // Everything still pending is unserved / incomplete.
    for job in ready
        .into_iter()
        .chain(future.into_iter().filter(|j| j.release < horizon))
    {
        record_incomplete(job, &mut trace, spec);
    }
    trace.outcomes.sort_by_key(|o| (o.release, o.event));
    trace
}

fn build_release_list(spec: &SystemSpec) -> VecDeque<DynJob> {
    let mut jobs: Vec<DynJob> = Vec::new();
    for (task_index, task) in spec.periodic_tasks.iter().enumerate() {
        let mut k = 0u64;
        loop {
            let release = task.release_of(k);
            if release >= spec.horizon {
                break;
            }
            jobs.push(DynJob {
                unit: ExecUnit::Task(task.id),
                periodic: Some((task_index, k)),
                aperiodic: None,
                release,
                deadline: task.deadline_of(k),
                remaining: task.cost,
                total: task.cost,
                started: None,
                value: task.cost.as_units(),
            });
            k += 1;
        }
    }
    for (i, event) in spec.aperiodics.iter().enumerate() {
        if event.release >= spec.horizon {
            continue;
        }
        let deadline = event.absolute_deadline().unwrap_or(spec.horizon);
        jobs.push(DynJob {
            unit: ExecUnit::Handler(event.id),
            periodic: None,
            aperiodic: Some(i),
            release: event.release,
            deadline,
            remaining: event.actual_cost,
            total: event.actual_cost,
            started: None,
            // The D-OVER victim ordering uses the event's value tag (ticks),
            // converted to time units so the default tag (cost in ticks)
            // keeps the historical density of 1.
            value: event.value as f64 / rt_model::TICKS_PER_UNIT as f64,
        });
    }
    jobs.sort_by_key(|j| (j.release, j.deadline));
    jobs.into()
}

fn abandon_hopeless(ready: &mut Vec<DynJob>, now: Instant, trace: &mut Trace, spec: &SystemSpec) {
    let mut i = 0;
    while i < ready.len() {
        let job = &ready[i];
        let latest_completion = job.deadline;
        if now + job.remaining > latest_completion {
            let job = ready.remove(i);
            record_incomplete(job, trace, spec);
        } else {
            i += 1;
        }
    }
}

/// Sheds the lowest value-density jobs while the total remaining demand of
/// the ready set cannot fit before the latest deadline among them.
fn shed_overload(ready: &mut Vec<DynJob>, now: Instant, trace: &mut Trace, spec: &SystemSpec) {
    loop {
        if ready.is_empty() {
            return;
        }
        // Check EDF feasibility of the ready set at `now` (ignoring future
        // releases): process deadlines in order and verify cumulative demand.
        let mut sorted: Vec<&DynJob> = ready.iter().collect();
        sorted.sort_by_key(|j| j.deadline);
        let mut demand = Span::ZERO;
        let mut overloaded = false;
        for job in &sorted {
            demand += job.remaining;
            if now + demand > job.deadline {
                overloaded = true;
                break;
            }
        }
        if !overloaded {
            return;
        }
        // Sacrifice the lowest value-density job.
        let victim_index = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.value_density()
                    .partial_cmp(&b.value_density())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            // rt-lint: allow(panic, reason = "the victim search runs over a ready set checked non-empty by the overload branch")
            .expect("non-empty ready set has a victim");
        let victim = ready.remove(victim_index);
        record_incomplete(victim, trace, spec);
    }
}

fn record_completion(job: DynJob, now: Instant, trace: &mut Trace, spec: &SystemSpec) {
    if let Some((task_index, activation)) = job.periodic {
        trace.push_periodic_job(PeriodicJobRecord {
            task: spec.periodic_tasks[task_index].id,
            activation,
            release: job.release,
            deadline: job.deadline,
            completed: Some(now),
        });
    }
    if let Some(i) = job.aperiodic {
        let event = &spec.aperiodics[i];
        trace.push_outcome(
            AperiodicOutcome::new(
                event.id,
                event.release,
                event.declared_cost,
                AperiodicFate::Served {
                    started: job.started.unwrap_or(now),
                    completed: now,
                },
            )
            .with_value(event.value)
            .with_deadline(event.absolute_deadline()),
        );
    }
}

fn record_incomplete(job: DynJob, trace: &mut Trace, spec: &SystemSpec) {
    if let Some((task_index, activation)) = job.periodic {
        trace.push_periodic_job(PeriodicJobRecord {
            task: spec.periodic_tasks[task_index].id,
            activation,
            release: job.release,
            deadline: job.deadline,
            completed: None,
        });
    }
    if let Some(i) = job.aperiodic {
        let event = &spec.aperiodics[i];
        trace.push_outcome(
            AperiodicOutcome::new(
                event.id,
                event.release,
                event.declared_cost,
                AperiodicFate::Unserved,
            )
            .with_value(event.value)
            .with_deadline(event.absolute_deadline()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use rt_model::{Priority, SchedulingPolicy, Span, SystemSpec};

    fn periodic_pair(costs: (u64, u64), periods: (u64, u64), horizon: u64) -> SystemSpec {
        let mut b = SystemSpec::builder("dyn");
        b.periodic(
            "tau1",
            Span::from_units(costs.0),
            Span::from_units(periods.0),
            Priority::new(20),
        );
        b.periodic(
            "tau2",
            Span::from_units(costs.1),
            Span::from_units(periods.1),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(horizon));
        b.scheduling(SchedulingPolicy::Edf);
        b.build().unwrap()
    }

    #[test]
    fn edf_schedules_a_feasible_set_without_misses() {
        // U = 2/5 + 4/10 = 0.8: feasible under EDF.
        let spec = periodic_pair((2, 4), (5, 10), 30);
        let trace = simulate(&spec);
        assert!(trace.all_periodic_deadlines_met());
        assert!(trace.check_invariants().is_ok());
    }

    #[test]
    fn edf_handles_full_utilization() {
        // U = 1.0 is still feasible under EDF (not under RM for these periods).
        let spec = periodic_pair((3, 4), (6, 8), 48);
        let trace = simulate(&spec);
        assert!(trace.all_periodic_deadlines_met());
        assert_eq!(trace.idle_time(), Span::ZERO);
    }

    #[test]
    fn edf_prefers_earlier_deadlines() {
        let mut b = SystemSpec::builder("edf-order");
        b.periodic(
            "long",
            Span::from_units(4),
            Span::from_units(20),
            Priority::new(10),
        );
        b.periodic(
            "short",
            Span::from_units(1),
            Span::from_units(4),
            Priority::new(5),
        );
        b.horizon(Instant::from_units(20));
        b.scheduling(SchedulingPolicy::Edf);
        let spec = b.build().unwrap();
        let trace = simulate(&spec);
        // The short-period task runs first at time 0 despite its lower fixed
        // priority, because its absolute deadline (4) is earlier than 20.
        let first = trace.segments.first().unwrap();
        assert_eq!(first.unit, ExecUnit::Task(spec.periodic_tasks[1].id));
        assert!(trace.all_periodic_deadlines_met());
    }

    #[test]
    fn overloaded_edf_misses_deadlines_but_dover_sheds_load() {
        // U = 3/4 + 3/6 = 1.25: overloaded.
        let spec = periodic_pair((3, 3), (4, 6), 48);
        let edf = simulate(&spec);
        assert!(
            !edf.all_periodic_deadlines_met(),
            "EDF must thrash under overload"
        );
        let dover = simulate_dover(&spec);
        // D-OVER abandons some jobs (recorded as incomplete)…
        assert!(dover.periodic_deadline_misses() > 0);
        // …but every job it completes, it completes on time.
        for job in &dover.periodic_jobs {
            if let Some(c) = job.completed {
                assert!(c <= job.deadline, "D-OVER must not finish a job late");
            }
        }
    }

    #[test]
    fn aperiodic_jobs_with_deadlines_are_scheduled_by_edf() {
        let mut b = SystemSpec::builder("edf-aperiodic");
        b.periodic(
            "tau",
            Span::from_units(2),
            Span::from_units(10),
            Priority::new(10),
        );
        b.push_aperiodic(
            rt_model::AperiodicEvent::new(
                rt_model::EventId::new(0),
                rt_model::HandlerId::new(0),
                Instant::from_units(1),
                Span::from_units(3),
            )
            .with_relative_deadline(Span::from_units(5)),
        );
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        let trace = simulate_dover(&spec);
        let outcome = &trace.outcomes[0];
        assert!(outcome.is_served());
        // Deadline at 6 beats the periodic deadline at 10, so it runs as soon
        // as it is released: served 1..4, response 3.
        assert_eq!(outcome.response_time(), Some(Span::from_units(3)));
    }

    #[test]
    fn dover_abandons_jobs_that_can_no_longer_make_it() {
        let mut b = SystemSpec::builder("dover-abandon");
        b.periodic(
            "hog",
            Span::from_units(8),
            Span::from_units(10),
            Priority::new(10),
        );
        b.push_aperiodic(
            rt_model::AperiodicEvent::new(
                rt_model::EventId::new(0),
                rt_model::HandlerId::new(0),
                Instant::from_units(0),
                Span::from_units(4),
            )
            .with_relative_deadline(Span::from_units(5)),
        );
        b.horizon(Instant::from_units(20));
        let spec = b.build().unwrap();
        let trace = simulate_dover(&spec);
        // The ready set at time 0 (hog: 8 by 10, aperiodic: 4 by 5) is
        // overloaded; the lower value-density job is sacrificed.
        assert!(
            trace.outcomes.iter().any(|o| !o.is_served()) || trace.periodic_deadline_misses() > 0
        );
        for job in &trace.periodic_jobs {
            if let Some(c) = job.completed {
                assert!(c <= job.deadline);
            }
        }
    }

    #[test]
    fn empty_horizon_produces_empty_trace() {
        let mut b = SystemSpec::builder("tiny");
        b.periodic(
            "tau",
            Span::from_units(1),
            Span::from_units(5),
            Priority::new(10),
        );
        b.horizon(Instant::from_units(1));
        let spec = b.build().unwrap();
        let trace = simulate_dover(&spec);
        assert!(trace.check_invariants().is_ok());
    }
}
