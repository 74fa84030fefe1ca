//! The event-driven schedule simulator.
//!
//! Events are job submissions, job completions, cap-schedule changes, and
//! avoid-window boundaries. Between events the machine state is constant, so
//! the simulator jumps from event to event.
//!
//! Backfill reservations use *requested walltimes* (what a production
//! scheduler knows); completions use *actual runtimes* (what really
//! happens). Caps are honored at start time; the shadow-time computation for
//! EASY ignores future cap changes, a documented conservative simplification.
//!
//! # Cost per event
//!
//! One event costs one pass over the queue plus, for EASY, a walk of the
//! running set up to the shadow: the expected end at which the queue head's
//! reservation can start. Running jobs live in one vector kept sorted by
//! `(expected_end, idx)`, so the walk sorts nothing. A started job leaves a
//! tombstone in the queue, and the queue is compacted once per event.
//!
//! After an EASY backfill start the pass keeps its shadow, its spare nodes
//! and its scan position, because a fresh walk would find the same
//! reservation. It recomputes the shadow and rescans from the head on three
//! exits instead:
//!
//! * **tie** — the started job's expected end equals the shadow. Ties walk
//!   in `idx` order, so the start can *raise* the spare nodes;
//! * **overrun** — the job ends past the shadow and takes more nodes than
//!   are spare then. A DVFS-dilated runtime, or a runtime above the
//!   walltime, does this to a job admitted as ending before the shadow;
//! * **cap** — the head is blocked by the cap rather than short of nodes,
//!   so an earlier-ending start can move its shadow earlier.
//!
//! Conservative backfill builds its availability profile from the same
//! ordered set, finds each reservation in one sweep of the profile, and
//! keeps going after a start: the started job occupies exactly the
//! reservation it was granted, unless its expected end differs from
//! `now + walltime`, in which case the profile is rebuilt.
//!
//! A pass stops early once no job in the trace can fit: fewer free nodes
//! than its smallest job, or a cap that the smallest job would break.

use crate::metrics::{JobRecord, SimOutcome};
use crate::policy::{Policy, PowerConstraints};
use crate::{Result, SchedError};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_units::{Duration, SimTime};
use hpcgrid_workload::job::{Job, JobKind};
use hpcgrid_workload::trace::JobTrace;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The simulator. Construct once, run one trace.
#[derive(Debug, Clone)]
pub struct ScheduleSimulator {
    nodes: usize,
    policy: Policy,
    constraints: PowerConstraints,
}

impl ScheduleSimulator {
    /// A simulator for a machine of `nodes` nodes under `policy`, with no
    /// power constraints.
    pub fn new(nodes: usize, policy: Policy) -> ScheduleSimulator {
        ScheduleSimulator {
            nodes,
            policy,
            constraints: PowerConstraints::none(),
        }
    }

    /// A simulator with power constraints.
    pub fn with_constraints(
        nodes: usize,
        policy: Policy,
        constraints: PowerConstraints,
    ) -> ScheduleSimulator {
        ScheduleSimulator {
            nodes,
            policy,
            constraints,
        }
    }

    /// Machine size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Run the trace to completion and return the schedule.
    pub fn run(&mut self, trace: &JobTrace) -> SimOutcome {
        self.try_run(trace)
            .expect("trace jobs exceed machine size, are out of submit order, or schedule deadlocks; use try_run for fallible scheduling")
    }

    /// Fallible variant of [`ScheduleSimulator::run`].
    pub fn try_run(&mut self, trace: &JobTrace) -> Result<SimOutcome> {
        if self.nodes == 0 {
            return Err(SchedError::BadParameter("machine has zero nodes".into()));
        }
        if let Some(d) = &self.constraints.dvfs {
            if !d.is_valid() {
                return Err(SchedError::BadParameter(format!(
                    "DVFS factor must be in (0,1], got {}",
                    d.factor
                )));
            }
        }
        let jobs = trace.jobs();
        for (i, j) in jobs.iter().enumerate() {
            if j.nodes > self.nodes {
                return Err(SchedError::JobTooLarge {
                    job: j.id.0,
                    requested: j.nodes,
                    machine: self.nodes,
                });
            }
            // Admission is in slice order, so an unsorted trace (e.g. one
            // deserialized without `JobTrace::from_parts`) would silently
            // hold early submissions behind late ones.
            if let Some(next) = jobs.get(i + 1).filter(|next| next.submit < j.submit) {
                return Err(SchedError::BadParameter(format!(
                    "trace is out of submit order: {} at {} follows {} at {}",
                    next.id, next.submit, j.id, j.submit
                )));
            }
        }

        let mut m = Machine {
            jobs,
            policy: self.policy,
            nodes: self.nodes,
            smallest: jobs.iter().map(|j| j.nodes).min().unwrap_or(0),
            free: self.nodes,
            queue: Vec::new(),
            running: Vec::new(),
            completions: BinaryHeap::new(),
            records: Vec::with_capacity(jobs.len()),
        };
        let mut next_submit = 0usize;
        let mut now = jobs.first().map_or(SimTime::EPOCH, |j| j.submit);

        loop {
            // Admit all submissions up to `now`.
            while next_submit < jobs.len() && jobs[next_submit].submit <= now {
                m.queue.push(next_submit);
                next_submit += 1;
            }

            let window_end = window_end_at(&self.constraints.avoid_windows, now);
            let at = Event {
                now,
                cap: self.constraints.cap.max_busy_at(now),
                window_open: window_end.is_some(),
                throttle: self
                    .constraints
                    .dvfs
                    .as_ref()
                    .filter(|t| t.windows.contains(now))
                    .map(|t| t.factor),
            };
            let started = m.records.len();
            m.pass(&at);
            if m.records.len() > started {
                m.queue.retain(|&idx| idx != STARTED);
            }

            // Determine the next event.
            let mut next: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                if t > now {
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            };
            if next_submit < jobs.len() {
                consider(jobs[next_submit].submit);
            }
            if let Some(Reverse((end, _, _))) = m.completions.peek() {
                consider(*end);
            }
            if !m.queue.is_empty() {
                if let Some(t) = self.constraints.cap.next_change_after(now) {
                    consider(t);
                }
                // Wake at the end of the avoid window blocking a deferrable job.
                if let Some(end) = window_end {
                    consider(end);
                }
            }

            let Some(next_t) = next else {
                if m.completions.is_empty() && next_submit >= jobs.len() && !m.queue.is_empty() {
                    return Err(SchedError::BadParameter(
                        "schedule deadlock: queued jobs can never start under the cap".into(),
                    ));
                }
                break;
            };
            now = next_t;

            m.complete_until(now);
        }

        Ok(SimOutcome::new(
            m.records,
            self.nodes,
            trace.horizon,
            self.constraints.shutdown_idle,
        ))
    }
}

/// The end of the interval of `windows` containing `t`, if any. The set is
/// normalized, so the only candidate is the last interval starting at or
/// before `t`.
fn window_end_at(windows: &IntervalSet, t: SimTime) -> Option<SimTime> {
    let ivs = windows.intervals();
    let i = ivs.partition_point(|iv| iv.start <= t);
    ivs[..i].last().filter(|iv| iv.contains(t)).map(|iv| iv.end)
}

/// Queue tombstone of a job started during the current pass.
const STARTED: usize = usize::MAX;

/// The shadow of a head that no set of completions can free.
const NEVER: SimTime = SimTime::from_secs(u64::MAX);

/// What the constraints say at one event instant.
struct Event {
    now: SimTime,
    /// Busy-node cap in force.
    cap: usize,
    /// Deferrable jobs may not start.
    window_open: bool,
    /// DVFS factor applied to jobs starting now.
    throttle: Option<f64>,
}

/// Machine state for one run.
struct Machine<'a> {
    jobs: &'a [Job],
    policy: Policy,
    nodes: usize,
    /// Nodes of the trace's smallest job: below this nothing can start.
    smallest: usize,
    free: usize,
    /// Indices into `jobs` in FIFO order; [`STARTED`] marks a job started
    /// during the current pass.
    queue: Vec<usize>,
    /// Running jobs by `(expected_end, idx)`, sorted: the order in which
    /// backfill reservations see nodes come back. FCFS reserves nothing
    /// and leaves it empty.
    running: Vec<(SimTime, usize)>,
    /// Running jobs by `(actual_end, idx)`, with their expected end.
    completions: BinaryHeap<Reverse<(SimTime, usize, SimTime)>>,
    records: Vec<JobRecord>,
}

impl Machine<'_> {
    fn fits(&self, idx: usize, cap: usize) -> bool {
        let nodes = self.jobs[idx].nodes;
        nodes <= self.free && self.nodes - self.free + nodes <= cap
    }

    /// True if no job of the trace could start now.
    fn exhausted(&self, cap: usize) -> bool {
        self.free < self.smallest || self.nodes - self.free + self.smallest > cap
    }

    fn window_blocked(&self, idx: usize, at: &Event) -> bool {
        at.window_open && self.jobs[idx].kind == JobKind::Deferrable
    }

    /// True if the policy reserves nodes for queued jobs, and so reads
    /// the running set.
    fn reserves(&self) -> bool {
        self.policy != Policy::Fcfs
    }

    /// One scheduling pass: start every job the policy admits at `at.now`.
    fn pass(&mut self, at: &Event) {
        // Start the head while it fits. The head is the first queued job
        // not blocked by an avoid window.
        let mut from = 0;
        let head = loop {
            if self.exhausted(at.cap) {
                return;
            }
            let Some(pos) =
                (from..self.queue.len()).find(|&pos| !self.window_blocked(self.queue[pos], at))
            else {
                return;
            };
            if !self.fits(self.queue[pos], at.cap) {
                break pos;
            }
            self.start(pos, at);
            from = pos + 1;
        };
        match self.policy {
            Policy::Fcfs => {} // strict: a blocked head blocks the queue
            Policy::EasyBackfill => self.easy_backfill(head, at),
            Policy::ConservativeBackfill => self.conservative_backfill(head, at),
        }
    }

    /// The head's reservation: the expected end at which `head_nodes` are
    /// free, and the nodes free then beyond the head's.
    fn shadow(&self, head_nodes: usize) -> (SimTime, usize) {
        let mut avail = self.free;
        for &(end, idx) in &self.running {
            avail += self.jobs[idx].nodes;
            if avail >= head_nodes {
                return (end, avail - head_nodes);
            }
        }
        (NEVER, 0)
    }

    /// EASY backfill behind the blocked head at `queue[head]`: a later job
    /// may start if it ends by the shadow or fits in the spare nodes.
    fn easy_backfill(&mut self, head: usize, at: &Event) {
        let head_nodes = self.jobs[self.queue[head]].nodes;
        'shadow: loop {
            let short = self.free < head_nodes;
            let (shadow, mut extra) = self.shadow(head_nodes);
            for pos in head + 1..self.queue.len() {
                if self.exhausted(at.cap) {
                    return;
                }
                let idx = self.queue[pos];
                if idx == STARTED || self.window_blocked(idx, at) || !self.fits(idx, at.cap) {
                    continue;
                }
                let Job {
                    nodes, walltime, ..
                } = self.jobs[idx];
                if at.now + walltime > shadow && nodes > self.free.min(extra) {
                    continue;
                }
                let expected_end = self.start(pos, at);
                // Carry the reservation only where a fresh walk finds the
                // same one; the module docs list the three exits.
                let carried = short
                    && shadow != NEVER
                    && match expected_end.cmp(&shadow) {
                        Ordering::Less => true,
                        Ordering::Greater if nodes <= extra => {
                            extra -= nodes;
                            true
                        }
                        _ => false,
                    };
                if !carried {
                    continue 'shadow;
                }
            }
            return;
        }
    }

    /// Conservative backfill from the blocked head at `queue[head]` on: every
    /// queued job reserves, in queue order, the earliest slot of the
    /// availability profile; a job starts only if its reservation is now,
    /// which by construction delays nobody ahead of it.
    fn conservative_backfill(&mut self, head: usize, at: &Event) {
        'profile: loop {
            let mut profile = Profile::new(
                at.now,
                self.free,
                self.running
                    .iter()
                    .map(|&(end, idx)| (end, self.jobs[idx].nodes)),
            );
            for pos in head..self.queue.len() {
                if self.exhausted(at.cap) {
                    return;
                }
                let idx = self.queue[pos];
                if idx == STARTED || self.window_blocked(idx, at) {
                    continue; // a blocked job neither starts nor reserves now
                }
                let Job {
                    nodes, walltime, ..
                } = self.jobs[idx];
                let step = profile.earliest_start(nodes, walltime);
                // Honor the cap at the actual start instant.
                if profile.steps[step].0 == at.now && self.fits(idx, at.cap) {
                    let expected_end = self.start(pos, at);
                    if expected_end != at.now + walltime {
                        continue 'profile; // it occupies more than its reservation
                    }
                }
                profile.commit(step, nodes, walltime);
            }
            return;
        }
    }

    /// Start `queue[pos]` at `at.now`, throttled if `at.now` falls in a DVFS
    /// window (lower intensity, dilated runtime — race-to-idle inverted).
    /// Returns its expected end.
    fn start(&mut self, pos: usize, at: &Event) -> SimTime {
        let idx = std::mem::replace(&mut self.queue[pos], STARTED);
        let j = &self.jobs[idx];
        self.free -= j.nodes;
        let (intensity, runtime) = match at.throttle {
            Some(factor) => {
                let dilated =
                    Duration::from_secs((j.runtime.as_secs() as f64 / factor).round() as u64);
                (j.intensity * factor, dilated)
            }
            None => (j.intensity, j.runtime),
        };
        let actual_end = at.now + runtime;
        // The scheduler plans on the walltime estimate, but a dilated run can
        // legitimately outlast it; reservations must not lie about that.
        let expected_end = at.now + j.walltime.max(runtime);
        self.completions
            .push(Reverse((actual_end, idx, expected_end)));
        if self.reserves() {
            let key = (expected_end, idx);
            let slot = self.running.partition_point(|&e| e < key);
            self.running.insert(slot, key);
        }
        self.records.push(JobRecord {
            id: j.id,
            submit: j.submit,
            start: at.now,
            end: actual_end,
            nodes: j.nodes,
            intensity,
            kind: j.kind,
        });
        expected_end
    }

    /// Complete every job whose actual end is at or before `now`.
    fn complete_until(&mut self, now: SimTime) {
        while let Some(&Reverse((end, idx, expected_end))) = self.completions.peek() {
            if end > now {
                break;
            }
            self.completions.pop();
            if self.reserves() {
                let slot = self
                    .running
                    .binary_search(&(expected_end, idx))
                    .expect("a running job is in the running set");
                self.running.remove(slot);
            }
            self.free += self.jobs[idx].nodes;
        }
    }
}

/// A piecewise-constant free-node profile over future time, used by
/// conservative backfill to hold one reservation per queued job.
struct Profile {
    /// `(from, free_nodes)` steps, sorted by time; each applies until the
    /// next step. The final step extends to infinity.
    steps: Vec<(SimTime, usize)>,
}

impl Profile {
    /// Build from the running jobs' `(expected_end, nodes)` in end order.
    fn new(
        now: SimTime,
        free_now: usize,
        running: impl Iterator<Item = (SimTime, usize)>,
    ) -> Profile {
        let mut steps = vec![(now, free_now)];
        let mut free = free_now;
        for (end, n) in running {
            let end = end.max(now);
            free += n;
            match steps.last_mut() {
                Some((t, f)) if *t == end => *f = free,
                _ => steps.push((end, free)),
            }
        }
        Profile { steps }
    }

    /// Index of the earliest step from which `nodes` stay free for
    /// `walltime`, in one sweep: a step short of nodes moves the candidate
    /// past it, and the first candidate whose window the sweep covers wins.
    fn earliest_start(&self, nodes: usize, walltime: Duration) -> usize {
        if walltime.is_zero() {
            return 0; // an empty window fits anywhere
        }
        let mut cand = 0;
        for (i, &(_, free)) in self.steps.iter().enumerate() {
            if free < nodes {
                cand = i + 1;
                continue;
            }
            let end = self.steps[cand].0 + walltime;
            if self.steps.get(i + 1).is_none_or(|&(t, _)| t >= end) {
                return cand;
            }
        }
        // Unreachable in practice: the last step has everything free.
        self.steps.len() - 1
    }

    /// Subtract `nodes` over `[steps[at].0, steps[at].0 + walltime)`.
    fn commit(&mut self, at: usize, nodes: usize, walltime: Duration) {
        let end = self.steps[at].0 + walltime;
        // The step covering `end`; split it there unless it starts there.
        let mut stop = at + self.steps[at..].partition_point(|&(t, _)| t <= end) - 1;
        if self.steps[stop].0 != end {
            stop += 1;
            let free = self.steps[stop - 1].1;
            self.steps.insert(stop, (end, free));
        }
        for (_, f) in &mut self.steps[at..stop] {
            *f = f.saturating_sub(nodes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcgrid_units::Duration;
    use hpcgrid_workload::job::{Job, JobId};
    use hpcgrid_workload::trace::WorkloadBuilder;

    fn job(id: u64, submit_h: f64, nodes: usize, runtime_h: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_hours(submit_h),
            nodes,
            walltime: Duration::from_hours(runtime_h * 1.5),
            runtime: Duration::from_hours(runtime_h),
            intensity: 1.0,
            kind: JobKind::Regular,
        }
    }

    fn trace_of(jobs: Vec<Job>, machine: usize, days: u64) -> JobTrace {
        // Build via serde round-trip-free constructor: use WorkloadBuilder's
        // output shape by constructing directly through serde.
        let v = serde_json::json!({
            "jobs": jobs,
            "machine_nodes": machine,
            "horizon": Duration::from_days(days),
        });
        serde_json::from_value(v).expect("valid trace")
    }

    #[test]
    fn fcfs_runs_in_order() {
        let jobs = vec![
            job(0, 0.0, 80, 2.0),
            job(1, 0.0, 80, 1.0), // cannot fit alongside job 0 on 100 nodes
            job(2, 0.0, 10, 1.0), // could fit, but FCFS blocks behind job 1
        ];
        let trace = trace_of(jobs, 100, 1);
        let out = ScheduleSimulator::new(100, Policy::Fcfs).run(&trace);
        let rec = out.records();
        assert_eq!(rec.len(), 3);
        let r0 = rec.iter().find(|r| r.id == JobId(0)).unwrap();
        let r1 = rec.iter().find(|r| r.id == JobId(1)).unwrap();
        let r2 = rec.iter().find(|r| r.id == JobId(2)).unwrap();
        assert_eq!(r0.start, SimTime::EPOCH);
        assert_eq!(r1.start, r0.end);
        // FCFS: job 2 starts with job 1 (fits alongside), not before.
        assert_eq!(r2.start, r1.start);
    }

    #[test]
    fn easy_backfills_small_job() {
        let jobs = vec![
            job(0, 0.0, 80, 4.0),
            job(1, 0.0, 80, 1.0), // reservation at t=6h (walltime of job 0)
            job(2, 0.0, 10, 0.5), // short+small: backfills immediately
        ];
        let trace = trace_of(jobs, 100, 1);
        let out = ScheduleSimulator::new(100, Policy::EasyBackfill).run(&trace);
        let r2 = out
            .records()
            .iter()
            .find(|r| r.id == JobId(2))
            .copied()
            .unwrap();
        assert_eq!(r2.start, SimTime::EPOCH, "small job should backfill");
    }

    #[test]
    fn backfill_never_delays_reservation() {
        // Job 1 (head after 0 starts) reserves at shadow = walltime of job 0.
        // A long 30-node job must NOT backfill because it would overrun the
        // shadow while using more than the spare nodes.
        let jobs = vec![
            job(0, 0.0, 80, 4.0), // walltime 6 h
            job(1, 0.1, 90, 1.0), // needs 90 nodes: shadow at job 0's end
            job(2, 0.2, 30, 4.0), // walltime 6 h > shadow → no backfill
            job(3, 0.2, 15, 1.0), // 15 ≤ spare(20)? free=20, extra=100-90=10 → no; walltime 1.5h+0.2 ≤ 6h → yes, backfills
        ];
        let trace = trace_of(jobs, 100, 1);
        let out = ScheduleSimulator::new(100, Policy::EasyBackfill).run(&trace);
        let rec = out.records();
        let r1 = rec.iter().find(|r| r.id == JobId(1)).unwrap();
        let r2 = rec.iter().find(|r| r.id == JobId(2)).unwrap();
        let r3 = rec.iter().find(|r| r.id == JobId(3)).unwrap();
        // Job 1 starts exactly when job 0 actually ends (4 h, earlier than
        // its 6 h walltime shadow).
        assert_eq!(r1.start, SimTime::from_hours(4.0));
        // Job 3 backfilled before job 1's start; job 2 did not.
        assert!(r3.start < r1.start);
        assert!(r2.start >= r1.start);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let trace = WorkloadBuilder::new(11).nodes(256).days(5).build();
        let out = ScheduleSimulator::new(256, Policy::EasyBackfill).run(&trace);
        assert_eq!(out.records().len(), trace.len());
        let mut ids: Vec<u64> = out.records().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len());
        for r in out.records() {
            assert!(r.start >= r.submit);
            assert!(r.end > r.start);
        }
    }

    #[test]
    fn no_oversubscription_ever() {
        let trace = WorkloadBuilder::new(12).nodes(128).days(4).build();
        let out = ScheduleSimulator::new(128, Policy::EasyBackfill).run(&trace);
        // Sweep all start/end events and check concurrent node usage.
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for r in out.records() {
            events.push((r.start, r.nodes as i64));
            events.push((r.end, -(r.nodes as i64)));
        }
        events.sort_by_key(|(t, d)| (*t, *d)); // ends (-) before starts (+) at same t
        let mut busy = 0i64;
        for (_, d) in events {
            busy += d;
            assert!(busy <= 128, "oversubscribed: {busy}");
            assert!(busy >= 0);
        }
    }

    #[test]
    fn cap_limits_concurrency() {
        use crate::policy::CapSchedule;
        let jobs = vec![
            job(0, 0.0, 40, 1.0),
            job(1, 0.0, 40, 1.0),
            job(2, 0.0, 40, 1.0),
        ];
        let trace = trace_of(jobs, 200, 1);
        let constraints = PowerConstraints {
            cap: CapSchedule::constant(80),
            ..Default::default()
        };
        let out =
            ScheduleSimulator::with_constraints(200, Policy::EasyBackfill, constraints).run(&trace);
        // Only two 40-node jobs may run at once.
        let r2 = out.records().iter().find(|r| r.id == JobId(2)).unwrap();
        assert!(r2.start >= SimTime::from_hours(1.0));
    }

    #[test]
    fn cap_relaxation_wakes_scheduler() {
        use crate::policy::CapSchedule;
        let jobs = vec![job(0, 0.0, 100, 1.0)];
        let trace = trace_of(jobs, 100, 1);
        let constraints = PowerConstraints {
            cap: CapSchedule::new(vec![(SimTime::EPOCH, 50), (SimTime::from_hours(2.0), 100)]),
            ..Default::default()
        };
        let out =
            ScheduleSimulator::with_constraints(100, Policy::EasyBackfill, constraints).run(&trace);
        assert_eq!(out.records()[0].start, SimTime::from_hours(2.0));
    }

    #[test]
    fn deferrable_jobs_shift_out_of_windows() {
        use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
        let mut j0 = job(0, 0.0, 10, 1.0);
        j0.kind = JobKind::Deferrable;
        let j1 = job(1, 0.0, 10, 1.0); // regular: unaffected
        let trace = trace_of(vec![j0, j1], 100, 1);
        let constraints = PowerConstraints {
            avoid_windows: IntervalSet::from_intervals(vec![Interval::new(
                SimTime::EPOCH,
                SimTime::from_hours(3.0),
            )]),
            ..Default::default()
        };
        let out =
            ScheduleSimulator::with_constraints(100, Policy::EasyBackfill, constraints).run(&trace);
        let r0 = out.records().iter().find(|r| r.id == JobId(0)).unwrap();
        let r1 = out.records().iter().find(|r| r.id == JobId(1)).unwrap();
        assert_eq!(r1.start, SimTime::EPOCH);
        assert_eq!(r0.start, SimTime::from_hours(3.0));
    }

    #[test]
    fn oversized_job_rejected() {
        let trace = trace_of(vec![job(0, 0.0, 500, 1.0)], 100, 1);
        let r = ScheduleSimulator::new(100, Policy::Fcfs).try_run(&trace);
        assert!(matches!(r, Err(SchedError::JobTooLarge { .. })));
    }

    #[test]
    fn out_of_order_trace_rejected() {
        // A deserialized trace skips `from_parts`' sort. Admitted in slice
        // order, the 2 h job would wait behind the 5 h one and start at 5 h.
        let jobs = vec![
            job(0, 1.0, 10, 1.0),
            job(1, 5.0, 10, 1.0),
            job(2, 2.0, 10, 1.0),
        ];
        let unsorted = trace_of(jobs.clone(), 100, 1);
        let r = ScheduleSimulator::new(100, Policy::EasyBackfill).try_run(&unsorted);
        assert!(matches!(r, Err(SchedError::BadParameter(_))), "{r:?}");

        let sorted = JobTrace::from_parts(jobs, 100, Duration::from_days(1));
        let out = ScheduleSimulator::new(100, Policy::EasyBackfill).run(&sorted);
        let r2 = out.records().iter().find(|r| r.id == JobId(2)).unwrap();
        assert_eq!(r2.start, SimTime::from_hours(2.0));
        assert_eq!(r2.wait(), Duration::ZERO);
    }

    #[test]
    fn window_end_matches_linear_scan() {
        use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let ivs = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let start = rng.gen_range(0..20u64);
                    let len = rng.gen_range(0..4u64);
                    Interval::new(
                        SimTime::from_hours(start as f64),
                        SimTime::from_hours((start + len) as f64),
                    )
                })
                .collect();
            let windows = IntervalSet::from_intervals(ivs);
            // Probe on and between the interval bounds.
            for half_hours in 0..50 {
                let t = SimTime::from_secs(half_hours * 1_800);
                let linear = windows
                    .intervals()
                    .iter()
                    .find(|iv| iv.contains(t))
                    .map(|iv| iv.end);
                assert_eq!(window_end_at(&windows, t), linear, "{windows:?} at {t}");
            }
        }
    }

    #[test]
    fn zero_node_machine_rejected() {
        let trace = trace_of(vec![], 100, 1);
        assert!(ScheduleSimulator::new(0, Policy::Fcfs)
            .try_run(&trace)
            .is_err());
    }

    #[test]
    fn permanent_cap_deadlock_detected() {
        use crate::policy::CapSchedule;
        let trace = trace_of(vec![job(0, 0.0, 60, 1.0)], 100, 1);
        let constraints = PowerConstraints {
            cap: CapSchedule::constant(50),
            ..Default::default()
        };
        let r = ScheduleSimulator::with_constraints(100, Policy::Fcfs, constraints).try_run(&trace);
        assert!(r.is_err());
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = trace_of(vec![], 100, 1);
        let out = ScheduleSimulator::new(100, Policy::EasyBackfill).run(&trace);
        assert!(out.records().is_empty());
    }

    #[test]
    fn conservative_backfills_only_harmless_jobs() {
        // Same scenario as the EASY test: job 2 is short+small and harmless.
        let jobs = vec![
            job(0, 0.0, 80, 4.0),
            job(1, 0.0, 80, 1.0),
            job(2, 0.0, 10, 0.5), // walltime 0.75h < job 0's 6h walltime
        ];
        let trace = trace_of(jobs, 100, 1);
        let out = ScheduleSimulator::new(100, Policy::ConservativeBackfill).run(&trace);
        let r2 = out.records().iter().find(|r| r.id == JobId(2)).unwrap();
        assert_eq!(r2.start, SimTime::EPOCH, "harmless job should backfill");
    }

    #[test]
    fn conservative_never_delays_any_reservation() {
        // Job 3 fits now but would delay job 2's reservation; EASY (whose
        // only reservation is the head, job 1) starts it, conservative must
        // not.
        let jobs = vec![
            job(0, 0.0, 60, 4.0), // runs now; walltime 6 h
            job(1, 0.1, 80, 1.0), // head: reserves at job 0's expected end
            job(2, 0.2, 30, 1.0), // reserves after job 1 (needs 30 ≤ free 20? no → after)
            job(3, 0.3, 40, 8.0), // long: harmless to job 1 (40 ≤ spare?) but delays job 2
        ];
        let trace = trace_of(jobs.clone(), 100, 2);
        let easy = ScheduleSimulator::new(100, Policy::EasyBackfill).run(&trace);
        let cons = ScheduleSimulator::new(100, Policy::ConservativeBackfill).run(&trace);
        let wait = |out: &SimOutcome, id: u64| {
            out.records()
                .iter()
                .find(|r| r.id == JobId(id))
                .unwrap()
                .wait()
        };
        // Conservative must not make job 2 wait longer than EASY head-only
        // reservations allow... at minimum, all jobs complete in both.
        assert_eq!(easy.records().len(), 4);
        assert_eq!(cons.records().len(), 4);
        // And conservative's job-2 wait is no worse than its EASY wait.
        assert!(wait(&cons, 2) <= wait(&easy, 2) + Duration::from_hours(8.0));
    }

    #[test]
    fn conservative_conserves_and_never_oversubscribes() {
        let trace = WorkloadBuilder::new(33).nodes(128).days(4).build();
        let out = ScheduleSimulator::new(128, Policy::ConservativeBackfill).run(&trace);
        assert_eq!(out.records().len(), trace.len());
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for r in out.records() {
            events.push((r.start, r.nodes as i64));
            events.push((r.end, -(r.nodes as i64)));
        }
        events.sort_by_key(|(t, d)| (*t, *d));
        let mut busy = 0i64;
        for (_, d) in events {
            busy += d;
            assert!((0..=128).contains(&busy));
        }
    }

    #[test]
    fn dvfs_throttles_jobs_started_in_windows() {
        use crate::policy::DvfsThrottle;
        use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
        let jobs = vec![job(0, 0.0, 10, 2.0), job(1, 5.0, 10, 2.0)];
        let trace = trace_of(jobs, 100, 1);
        let constraints = PowerConstraints {
            dvfs: Some(DvfsThrottle {
                windows: IntervalSet::from_intervals(vec![Interval::new(
                    SimTime::EPOCH,
                    SimTime::from_hours(1.0),
                )]),
                factor: 0.5,
            }),
            ..Default::default()
        };
        let out =
            ScheduleSimulator::with_constraints(100, Policy::EasyBackfill, constraints).run(&trace);
        let r0 = out.records().iter().find(|r| r.id == JobId(0)).unwrap();
        let r1 = out.records().iter().find(|r| r.id == JobId(1)).unwrap();
        // Job 0 started inside the window: half intensity, double runtime.
        assert!((r0.intensity - 0.5).abs() < 1e-12);
        assert_eq!(r0.runtime(), Duration::from_hours(4.0));
        // Job 1 started outside: untouched.
        assert_eq!(r1.intensity, 1.0);
        assert_eq!(r1.runtime(), Duration::from_hours(2.0));
        // Energy trade: throttled job draws less power for longer; its
        // node-seconds double while its intensity halves.
    }

    #[test]
    fn invalid_dvfs_factor_rejected() {
        use crate::policy::DvfsThrottle;
        use hpcgrid_timeseries::intervals::IntervalSet;
        let trace = trace_of(vec![job(0, 0.0, 10, 1.0)], 100, 1);
        for factor in [0.0, -0.5, 1.5, f64::NAN] {
            let constraints = PowerConstraints {
                dvfs: Some(DvfsThrottle {
                    windows: IntervalSet::empty(),
                    factor,
                }),
                ..Default::default()
            };
            assert!(
                ScheduleSimulator::with_constraints(100, Policy::Fcfs, constraints)
                    .try_run(&trace)
                    .is_err(),
                "factor {factor} should be rejected"
            );
        }
    }

    #[test]
    fn fcfs_and_easy_same_jobs_different_order() {
        let trace = WorkloadBuilder::new(21).nodes(256).days(3).build();
        let fcfs = ScheduleSimulator::new(256, Policy::Fcfs).run(&trace);
        let easy = ScheduleSimulator::new(256, Policy::EasyBackfill).run(&trace);
        assert_eq!(fcfs.records().len(), easy.records().len());
        // Backfill should not hurt total completion.
        assert!(easy.makespan() <= fcfs.makespan() + Duration::from_hours(1.0));
    }
}
