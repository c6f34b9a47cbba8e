//! Set-up and the measured phase: one driver thread submits to a
//! `JobService` whose pool has the remaining hardware threads.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use fila_avoidance::Algorithm;
use fila_runtime::telemetry::{EventKind, TraceEvent};
use fila_runtime::{
    AvoidanceMode, ExecutionReport, JobHandle, JobVerdict, PropagationTrigger, SharedPool,
};
use fila_service::{JobService, JobTicket, RejectReason, ServiceConfig, ServiceStats};

use crate::cpu::{self, Calibrator};
use crate::workload::Plan;

/// Least time between two calibration samples in a measured phase.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

/// Least idle time before the next arrival that an open-loop driver fills
/// with a calibration burst: over twice a burst on a slow host, so the
/// burst ends before the arrival is due.
const CALIBRATE_GAP: Duration = Duration::from_millis(8);

/// What one job reported, reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// How the job ended.
    pub verdict: JobVerdict,
    /// Protocol the job ran under.
    pub algorithm: Option<Algorithm>,
    /// Whether certification fell back.
    pub fell_back: bool,
    /// Total data messages.
    pub data: u64,
    /// Total dummy messages.
    pub dummies: u64,
    /// Hash of the per-edge data and dummy counts.
    pub edges: u64,
}

impl Observed {
    /// Reduces an execution report (pool or simulator) to its comparable
    /// part.
    pub fn new(
        verdict: JobVerdict,
        algorithm: Option<Algorithm>,
        fell_back: bool,
        report: &ExecutionReport,
    ) -> Self {
        let mut h = DefaultHasher::new();
        report.per_edge_data.hash(&mut h);
        report.per_edge_dummies.hash(&mut h);
        Observed {
            verdict,
            algorithm,
            fell_back,
            data: report.data_messages,
            dummies: report.dummy_messages,
            edges: h.finish(),
        }
    }
}

/// An admitted job.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// The settled job (`None` only while it runs).
    pub observed: Option<Observed>,
    /// Planning time the ticket reported.
    pub plan: Duration,
    /// Certification time the ticket reported.
    pub certify: Duration,
    /// Plan provenance from the ticket (`None` for unplanned jobs).
    pub cache_hit: Option<bool>,
    /// Pool time from taking the job to its verdict (`report.wall`).
    pub wall: Duration,
    /// From the job's origin to the return of `submit`; the settle time
    /// is this plus [`Admitted::wall`].
    pub head: Duration,
}

impl Admitted {
    /// From the scheduled arrival (open loop) or the submit call (closed
    /// loop) to the verdict.  The pool starts its clock just before
    /// `submit` returns, so this overstates by the few microseconds the
    /// pool spends building the job's tasks.
    pub fn settle(&self) -> Duration {
        self.head + self.wall
    }
}

/// One measured submission.
#[derive(Debug, Clone)]
pub struct Record {
    /// When the driver called `submit`, from the start of the phase.
    pub called: Duration,
    /// `submit` call latency.
    pub submit: Duration,
    /// How late the driver made the call (open loop; zero otherwise).
    pub late: Duration,
    /// Admitted, or the rejection.
    pub outcome: Result<Admitted, RejectReason>,
}

/// The measured phase of one run.
#[derive(Debug)]
pub struct Phase {
    /// One record per measured job, in job order.
    pub records: Vec<Record>,
    /// Wall time from the start of the phase to the last verdict.
    pub wall: Duration,
    /// Process CPU time over the phase (every thread).
    pub cpu: Duration,
    /// The driver thread's share of [`Phase::cpu`].
    pub driver_cpu: Duration,
    /// Service counters at the start of the phase.
    pub stats_before: ServiceStats,
    /// Service counters at the end of the phase.
    pub stats: ServiceStats,
}

/// Pool workers: every hardware thread but the driver's, at least one.
pub fn pool_workers() -> usize {
    cpu::hardware_threads().saturating_sub(1).max(1)
}

/// Starts the service and runs the plan's set-up submissions to their
/// verdicts.
pub fn set_up(plan: &Plan) -> JobService {
    let service = cpu::on_pool_cpus(|| JobService::new(plan.config(pool_workers())));
    let tickets: Vec<JobTicket> = plan
        .warmup
        .iter()
        .filter_map(|job| service.submit(plan.spec(job)).ok())
        .collect();
    for ticket in &tickets {
        ticket.wait();
    }
    service
}

/// A submitted job the driver can poll.
pub trait Pending {
    /// Whether the job has its verdict.
    fn is_settled(&self) -> bool;
}

impl Pending for JobTicket {
    fn is_settled(&self) -> bool {
        JobTicket::is_settled(self)
    }
}

impl Pending for JobHandle {
    fn is_settled(&self) -> bool {
        JobHandle::is_settled(self)
    }
}

/// Offers the plan's jobs under its arrival discipline and returns the
/// wall time from the first offer to the last verdict.  `submit(state, i,
/// start, origin)` submits job `i` (`origin` is its scheduled arrival in
/// the open loop, now in a closed one) and returns the pending job, or
/// `None` when there is nothing to wait for; `settle(state, i, pending)`
/// is called once per pending job, in submission order, when the window
/// is full, when it has settled (open loop) or at the end; `idle(state,
/// due)` is called in the open loop before the driver sleeps until the
/// next arrival is due.
pub fn drive<S, P: Pending>(
    plan: &Plan,
    state: &mut S,
    mut submit: impl FnMut(&mut S, usize, Instant, Instant) -> Option<P>,
    mut settle: impl FnMut(&mut S, usize, P),
    mut idle: impl FnMut(&mut S, Instant),
) -> Duration {
    let window = plan.arrivals.window(pool_workers());
    let mut pending: VecDeque<(usize, P)> = VecDeque::new();
    let start = Instant::now();
    for (i, job) in plan.jobs.iter().enumerate() {
        let origin = match window {
            None => {
                // Open loop: collect what settled, then sleep to the arrival.
                while pending.front().is_some_and(|(_, p)| p.is_settled()) {
                    let (j, p) = pending.pop_front().expect("front exists");
                    settle(state, j, p);
                }
                let due = start + job.arrival;
                idle(state, due);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            Some(limit) => {
                while pending.len() >= limit {
                    let (j, p) = pending.pop_front().expect("window is non-empty");
                    settle(state, j, p);
                }
                Instant::now()
            }
        };
        if let Some(p) = submit(state, i, start, origin) {
            pending.push_back((i, p));
        }
    }
    while let Some((j, p)) = pending.pop_front() {
        settle(state, j, p);
    }
    start.elapsed()
}

/// What the measured phase's driver keeps between calls.
struct Measuring<'c> {
    records: Vec<Record>,
    calibrator: &'c mut Calibrator,
    /// When the last in-phase calibration burst ended.
    calibrated: Instant,
    /// Wall and driver CPU time the in-phase bursts took.
    paused: (Duration, Duration),
}

/// Runs the measured phase of `plan` on a set-up service, taking a
/// calibration sample at most every [`CALIBRATE_EVERY`]: in a closed loop
/// once a settled job has freed the window (both sides; the samples' wall
/// and CPU time are left out of the phase's), in the open loop while the
/// driver waits at least [`CALIBRATE_GAP`] for the next arrival (the
/// driver's side only, as the pool may be busy; the burst's CPU time is
/// left out of the phase's, its wall time was idle anyway).
pub fn measure(plan: &Plan, service: &JobService, calibrator: &mut Calibrator) -> Phase {
    let stats_before = service.stats();
    let closed = plan.arrivals.window(pool_workers()).is_some();
    let mut state = Measuring {
        records: Vec::with_capacity(plan.jobs.len()),
        calibrator,
        calibrated: Instant::now(),
        paused: (Duration::ZERO, Duration::ZERO),
    };
    let (cpu_start, driver_start) = (cpu::process_cpu(), cpu::thread_cpu());
    let wall = drive(
        plan,
        &mut state,
        |Measuring { records, .. }, i, start, origin| {
            let spec = plan.spec(&plan.jobs[i]);
            let called = Instant::now();
            let result = service.submit(spec);
            let returned = Instant::now();
            let (outcome, ticket) = match result {
                Ok(ticket) => (
                    Ok(Admitted {
                        observed: None,
                        plan: ticket.plan_time,
                        certify: ticket.certify_time,
                        cache_hit: ticket.cache_hit,
                        wall: Duration::ZERO,
                        head: returned - origin,
                    }),
                    Some(ticket),
                ),
                Err(reason) => (Err(reason), None),
            };
            records.push(Record {
                called: called - start,
                submit: returned - called,
                late: called.saturating_duration_since(origin),
                outcome,
            });
            ticket
        },
        |state, i, ticket: JobTicket| {
            let outcome = ticket.wait();
            if let Ok(admitted) = &mut state.records[i].outcome {
                admitted.wall = outcome.report.wall;
                admitted.observed = Some(Observed::new(
                    outcome.verdict,
                    outcome.algorithm,
                    outcome.fell_back,
                    &outcome.report,
                ));
            }
            if closed && state.calibrated.elapsed() >= CALIBRATE_EVERY {
                let (wall, cpu) = state.calibrator.sample(1);
                state.paused.0 += wall;
                state.paused.1 += cpu;
                state.calibrated = Instant::now();
            }
        },
        |state, due| {
            if state.calibrated.elapsed() >= CALIBRATE_EVERY
                && due.saturating_duration_since(Instant::now()) >= CALIBRATE_GAP
            {
                state.paused.1 += state.calibrator.sample_driver();
                state.calibrated = Instant::now();
            }
        },
    );
    let cpu = cpu::process_cpu() - cpu_start;
    let driver_cpu = cpu::thread_cpu() - driver_start;
    Phase {
        records: state.records,
        wall: wall - state.paused.0,
        cpu: cpu - state.paused.1,
        driver_cpu: driver_cpu - state.paused.1,
        stats_before,
        stats: service.stats(),
    }
}

/// Flight-recorder totals of a pool replay.
#[derive(Debug, Default)]
pub struct PoolTrace {
    /// Summed firing-span time.
    pub firing_ns: u64,
    /// Firing spans (task execution slices that made progress).
    pub firings: u64,
    /// Messages the firing spans delivered.
    pub delivered: u64,
    /// Summed park-span time.
    pub park_ns: u64,
    /// Park spans.
    pub parks: u64,
    /// Steals.
    pub steals: u64,
    /// Stalls on an empty input channel.
    pub blocked_input: u64,
    /// Stalls on a full output channel.
    pub blocked_space: u64,
    /// Firing-span time per pool job serial.
    pub job_firing_ns: Vec<u64>,
}

impl PoolTrace {
    fn add(&mut self, events: &[TraceEvent]) {
        for e in events {
            match e.kind {
                EventKind::Firing => {
                    self.firing_ns += e.duration_ns();
                    self.firings += 1;
                    self.delivered += e.arg;
                    let job = usize::try_from(e.job).expect("pool serials fit usize");
                    if self.job_firing_ns.len() <= job {
                        self.job_firing_ns.resize(job + 1, 0);
                    }
                    self.job_firing_ns[job] += e.duration_ns();
                }
                EventKind::Park => {
                    self.park_ns += e.duration_ns();
                    self.parks += 1;
                }
                EventKind::Steal => self.steals += 1,
                EventKind::BlockedInput => self.blocked_input += 1,
                EventKind::BlockedSpace => self.blocked_space += 1,
                _ => {}
            }
        }
    }
}

/// One job of a pool replay.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// Whether the job ran under a plan.
    pub planned: bool,
    /// Messages the job delivered (data and dummies).
    pub messages: u64,
}

/// A replay of the admitted jobs straight on a `SharedPool`.
#[derive(Debug)]
pub struct PoolReplay {
    /// The jobs, in submission order: the pool's serial number of a job
    /// is its index here.
    pub jobs: Vec<Replayed>,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Process CPU time of the replay.
    pub cpu: Duration,
    /// Recorder totals (traced replays only).
    pub trace: PoolTrace,
    /// Worker threads of the pool.
    pub workers: usize,
}

/// Replays the admitted jobs of a measured phase on a pool of the same
/// size, with the same arrivals, each job under the plan the service
/// admitted it with (`modes[i]`, `None` for rejected jobs).  Admission is
/// left out, so the replay isolates the pool and the runtime below it.
/// With `traced` the pool's flight recorder is on and the driver drains
/// it while it waits for each verdict; the pool has no settle hooks, so
/// every event passes through the driver.
pub fn pool_replay(plan: &Plan, modes: &[Option<AvoidanceMode>], traced: bool) -> PoolReplay {
    let workers = pool_workers();
    let defaults = ServiceConfig::default();
    let pool =
        cpu::on_pool_cpus(|| SharedPool::with_telemetry(workers, defaults.batch, None, traced));
    let tele = pool.telemetry_handle();
    // (messages per job, by job index; recorder totals)
    let mut state = (vec![0u64; plan.jobs.len()], PoolTrace::default());

    let cpu_start = cpu::process_cpu();
    let wall = drive(
        plan,
        &mut state,
        |_, i, _, _| {
            let job = &plan.jobs[i];
            let mode = modes[i].clone()?;
            Some(pool.submit_full(
                &plan.spec(job).topology(),
                mode,
                PropagationTrigger::default(),
                job.inputs,
                None,
            ))
        },
        |(messages, trace), i, handle: JobHandle| {
            if let Some(tele) = &tele {
                trace.add(&tele.drain_new());
                while !handle.is_settled() {
                    std::thread::sleep(Duration::from_micros(200));
                    trace.add(&tele.drain_new());
                }
            }
            messages[i] = handle.wait().total_messages();
        },
        |_, _| {},
    );
    let cpu = cpu::process_cpu() - cpu_start;
    let (messages, mut trace) = state;
    if let Some(tele) = &tele {
        trace.add(&tele.drain_new());
    }
    PoolReplay {
        jobs: modes
            .iter()
            .zip(messages)
            .filter_map(|(mode, messages)| {
                mode.as_ref().map(|mode| Replayed {
                    planned: matches!(mode, AvoidanceMode::Plan(_)),
                    messages,
                })
            })
            .collect(),
        wall,
        cpu,
        trace,
        workers,
    }
}
