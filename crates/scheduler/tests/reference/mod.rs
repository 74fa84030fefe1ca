//! The reference schedule simulator: a direct, quadratic implementation of
//! FCFS, EASY and conservative backfill over public types only.
//!
//! Every scheduling pass starts at most one job and is repeated until none
//! starts. Each EASY pass collects and sorts the running jobs' expected ends,
//! and each conservative pass rebuilds the availability profile and scans it
//! once per candidate start. This is slow but obviously faithful to the
//! policy definitions, which makes it the oracle `ScheduleSimulator` must
//! match record for record.

use hpcgrid_scheduler::metrics::JobRecord;
use hpcgrid_scheduler::policy::{CapSchedule, DvfsThrottle, Policy, PowerConstraints};
use hpcgrid_scheduler::SchedError;
use hpcgrid_units::{Duration, SimTime};
use hpcgrid_workload::job::{Job, JobKind};
use hpcgrid_workload::trace::JobTrace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
struct Running {
    expected_end: SimTime,
    nodes: usize,
}

/// Schedule `trace` on `nodes` nodes; the records in start order.
pub fn reference_run(
    nodes: usize,
    policy: Policy,
    constraints: &PowerConstraints,
    trace: &JobTrace,
) -> Result<Vec<JobRecord>, SchedError> {
    let sim = Reference {
        nodes,
        policy,
        constraints,
    };
    sim.run(trace)
}

struct Reference<'a> {
    nodes: usize,
    policy: Policy,
    constraints: &'a PowerConstraints,
}

/// The first cap change strictly after `t` (linear scan).
fn next_cap_change(cap: &CapSchedule, t: SimTime) -> Option<SimTime> {
    cap.entries()
        .iter()
        .map(|(from, _)| *from)
        .find(|from| *from > t)
}

impl Reference<'_> {
    fn run(&self, trace: &JobTrace) -> Result<Vec<JobRecord>, SchedError> {
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
        for j in jobs {
            if j.nodes > self.nodes {
                return Err(SchedError::JobTooLarge {
                    job: j.id.0,
                    requested: j.nodes,
                    machine: self.nodes,
                });
            }
        }

        let mut records: Vec<JobRecord> = Vec::with_capacity(jobs.len());
        let mut queue: Vec<usize> = Vec::new();
        let mut running: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        let mut running_info: Vec<Option<Running>> = vec![None; jobs.len()];
        let mut free = self.nodes;
        let mut next_submit = 0usize;
        let mut now = jobs.first().map_or(SimTime::EPOCH, |j| j.submit);

        loop {
            while next_submit < jobs.len() && jobs[next_submit].submit <= now {
                queue.push(next_submit);
                next_submit += 1;
            }

            while self.schedule_pass(
                jobs,
                &mut queue,
                &mut running,
                &mut running_info,
                &mut free,
                &mut records,
                now,
            ) {}

            let mut next: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                if t > now {
                    next = Some(next.map_or(t, |n| n.min(t)));
                }
            };
            if next_submit < jobs.len() {
                consider(jobs[next_submit].submit);
            }
            if let Some(Reverse((end, _))) = running.peek() {
                consider(*end);
            }
            if !queue.is_empty() {
                if let Some(t) = next_cap_change(&self.constraints.cap, now) {
                    consider(t);
                }
                for iv in self.constraints.avoid_windows.intervals() {
                    if iv.contains(now) {
                        consider(iv.end);
                    }
                }
            }

            let Some(next_t) = next else {
                if running.is_empty() && next_submit >= jobs.len() && !queue.is_empty() {
                    return Err(SchedError::BadParameter(
                        "schedule deadlock: queued jobs can never start under the cap".into(),
                    ));
                }
                break;
            };
            now = next_t;

            while let Some(Reverse((end, idx))) = running.peek().copied() {
                if end > now {
                    break;
                }
                running.pop();
                let info = running_info[idx].take().expect("running job has info");
                free += info.nodes;
            }
        }
        Ok(records)
    }

    #[allow(clippy::too_many_arguments)]
    fn schedule_pass(
        &self,
        jobs: &[Job],
        queue: &mut Vec<usize>,
        running: &mut BinaryHeap<Reverse<(SimTime, usize)>>,
        running_info: &mut [Option<Running>],
        free: &mut usize,
        records: &mut Vec<JobRecord>,
        now: SimTime,
    ) -> bool {
        let cap = self.constraints.cap.max_busy_at(now);
        let busy = self.nodes - *free;
        let fits = |idx: usize, free: usize, busy: usize| -> bool {
            let j = &jobs[idx];
            j.nodes <= free && busy + j.nodes <= cap
        };
        let window_blocked = |idx: usize| -> bool {
            jobs[idx].kind == JobKind::Deferrable && self.constraints.avoid_windows.contains(now)
        };
        let throttle = self.constraints.dvfs.as_ref();

        let Some(head_pos) = queue.iter().position(|&idx| !window_blocked(idx)) else {
            return false;
        };
        let head_idx = queue[head_pos];
        if fits(head_idx, *free, busy) {
            start_job(
                jobs,
                head_idx,
                head_pos,
                queue,
                running,
                running_info,
                free,
                records,
                now,
                throttle,
            );
            return true;
        }

        match self.policy {
            Policy::Fcfs => false,
            Policy::ConservativeBackfill => {
                let mut profile = Profile::from_running(now, *free, running_info.iter().flatten());
                for pos in 0..queue.len() {
                    let idx = queue[pos];
                    if window_blocked(idx) {
                        continue;
                    }
                    let j = &jobs[idx];
                    let start = profile.earliest_start(j.nodes, j.walltime);
                    if start == now && fits(idx, *free, busy) {
                        start_job(
                            jobs,
                            idx,
                            pos,
                            queue,
                            running,
                            running_info,
                            free,
                            records,
                            now,
                            throttle,
                        );
                        return true;
                    }
                    profile.commit(start, j.nodes, j.walltime);
                }
                false
            }
            Policy::EasyBackfill => {
                let head_nodes = jobs[head_idx].nodes;
                let mut ends: Vec<(SimTime, usize)> = running_info
                    .iter()
                    .flatten()
                    .map(|r| (r.expected_end, r.nodes))
                    .collect();
                ends.sort_by_key(|(t, _)| *t);
                let mut avail = *free;
                let mut shadow = SimTime::from_secs(u64::MAX);
                let mut extra = 0usize;
                for (end, n) in ends {
                    avail += n;
                    if avail >= head_nodes {
                        shadow = end;
                        extra = avail - head_nodes;
                        break;
                    }
                }
                let spare_now = (*free).min(extra);
                for pos in 0..queue.len() {
                    if pos == head_pos {
                        continue;
                    }
                    let idx = queue[pos];
                    if window_blocked(idx) || !fits(idx, *free, busy) {
                        continue;
                    }
                    let j = &jobs[idx];
                    if now + j.walltime <= shadow || j.nodes <= spare_now {
                        start_job(
                            jobs,
                            idx,
                            pos,
                            queue,
                            running,
                            running_info,
                            free,
                            records,
                            now,
                            throttle,
                        );
                        return true;
                    }
                }
                false
            }
        }
    }
}

/// Free nodes over future time as `(from, free)` steps.
struct Profile {
    steps: Vec<(SimTime, usize)>,
}

impl Profile {
    fn from_running<'a>(
        now: SimTime,
        free_now: usize,
        running: impl Iterator<Item = &'a Running>,
    ) -> Profile {
        let mut ends: Vec<(SimTime, usize)> = running
            .map(|r| (r.expected_end.max(now), r.nodes))
            .collect();
        ends.sort_by_key(|(t, _)| *t);
        let mut steps = vec![(now, free_now)];
        let mut free = free_now;
        for (end, n) in ends {
            free += n;
            match steps.last_mut() {
                Some((t, f)) if *t == end => *f = free,
                _ => steps.push((end, free)),
            }
        }
        Profile { steps }
    }

    fn step_index(&self, t: SimTime) -> usize {
        match self.steps.binary_search_by(|(from, _)| from.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    fn earliest_start(&self, nodes: usize, walltime: Duration) -> SimTime {
        'outer: for &(cand, _) in &self.steps {
            let end = cand + walltime;
            let first = self.step_index(cand);
            for (t, f) in &self.steps[first..] {
                if *t >= end {
                    break;
                }
                if *f < nodes {
                    continue 'outer;
                }
            }
            return cand;
        }
        self.steps.last().expect("profile has at least one step").0
    }

    fn commit(&mut self, start: SimTime, nodes: usize, walltime: Duration) {
        let end = start + walltime;
        for boundary in [start, end] {
            let i = self.step_index(boundary);
            if self.steps[i].0 != boundary {
                let free = self.steps[i].1;
                self.steps.insert(i + 1, (boundary, free));
            }
        }
        for (t, f) in self.steps.iter_mut() {
            if *t >= start && *t < end {
                *f = f.saturating_sub(nodes);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn start_job(
    jobs: &[Job],
    idx: usize,
    queue_pos: usize,
    queue: &mut Vec<usize>,
    running: &mut BinaryHeap<Reverse<(SimTime, usize)>>,
    running_info: &mut [Option<Running>],
    free: &mut usize,
    records: &mut Vec<JobRecord>,
    now: SimTime,
    throttle: Option<&DvfsThrottle>,
) {
    let j = &jobs[idx];
    queue.remove(queue_pos);
    *free -= j.nodes;
    let (intensity, runtime) = match throttle {
        Some(t) if t.windows.contains(now) => {
            let dilated =
                Duration::from_secs((j.runtime.as_secs() as f64 / t.factor).round() as u64);
            (j.intensity * t.factor, dilated)
        }
        _ => (j.intensity, j.runtime),
    };
    let actual_end = now + runtime;
    let expected_end = now + j.walltime.max(runtime);
    running.push(Reverse((actual_end, idx)));
    running_info[idx] = Some(Running {
        expected_end,
        nodes: j.nodes,
    });
    records.push(JobRecord {
        id: j.id,
        submit: j.submit,
        start: now,
        end: actual_end,
        nodes: j.nodes,
        intensity,
        kind: j.kind,
    });
}
