//! Metrics: the end-to-end set of an untraced run, the per-layer set and
//! attribution table of a traced run, and the exact-counts block.

use std::fmt::Write as _;
use std::time::Duration;

use fila_runtime::JobVerdict;

use crate::driver::{Admitted, Phase, PoolReplay, Record};
use crate::oracle::Verdict;
use crate::probes::{Ladder, Replay};
use crate::stats::{median, ms, ratio, tail, us};
use crate::workload::{Arrivals, Plan};

/// One named metric; `None` where it does not apply to the workload.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value, or `None` when absent.
    pub value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

fn admitted(records: &[Record]) -> impl Iterator<Item = &Admitted> {
    records.iter().filter_map(|r| r.outcome.as_ref().ok())
}

/// Inputs of the jobs that completed: the source sequence numbers carried
/// to completion.
fn completed_inputs(plan: &Plan, records: &[Record]) -> u64 {
    plan.jobs
        .iter()
        .zip(records)
        .filter(|(_, r)| {
            r.outcome.as_ref().is_ok_and(|a| {
                a.observed
                    .as_ref()
                    .is_some_and(|o| o.verdict == JobVerdict::Completed)
            })
        })
        .map(|(job, _)| job.inputs)
        .sum()
}

/// Process CPU time per attempted job, in microseconds.
fn cpu_us_per_job(phase: &Phase) -> f64 {
    phase.cpu.as_secs_f64() * 1e6 / phase.records.len() as f64
}

/// Host calibration of one run (see [`crate::cpu::Calibrator`]).
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// Scale of the set-up times.
    pub setup: f64,
    /// Scale of `submit` latencies, which run on the driver's CPU.
    pub submit: f64,
    /// Scale of the measured phase's other times and rates.
    pub phase: f64,
}

impl Scales {
    /// No scaling: the figures as measured.
    pub const NONE: Scales = Scales {
        setup: 1.0,
        submit: 1.0,
        phase: 1.0,
    };
}

/// The end-to-end metrics of an untraced run.  Times are multiplied and
/// rates divided by the run's host calibration.
pub fn end_to_end(
    plan: &Plan,
    phase: &Phase,
    setups: &[Duration],
    verdict: &Verdict,
    scales: Scales,
) -> Vec<Metric> {
    let scale = scales.phase;
    let records = &phase.records;
    let attempted = records.len() as f64;
    let wall = phase.wall.as_secs_f64() * scale;
    let inputs = completed_inputs(plan, records) as f64;
    let scaled = |v: Vec<f64>| v.into_iter().map(|x| x * scale).collect::<Vec<_>>();
    let submit = |ok: bool| {
        ms(records
            .iter()
            .filter(|r| r.outcome.is_ok() == ok)
            .map(|r| r.submit))
        .into_iter()
        .map(|x| x * scales.submit)
        .collect::<Vec<_>>()
    };
    let (admit, reject) = (submit(true), submit(false));
    let settle = scaled(ms(admitted(records).map(Admitted::settle)));
    let setup: Vec<f64> = setups
        .iter()
        .map(|d| d.as_secs_f64() * scales.setup)
        .collect();
    let cpu_ns = phase.cpu.as_nanos() as f64 * scale;
    let closed = plan.arrivals != Arrivals::Open;
    vec![
        metric("setup_s", "s", median(&setup)),
        metric(
            "ok_share",
            "share",
            Some((attempted - verdict.failed as f64) / attempted),
        ),
        metric("jobs_per_s", "1/s", closed.then(|| attempted / wall)),
        metric("inputs_per_s", "1/s", ratio(inputs, wall)),
        metric("admit_p50_ms", "ms", median(&admit)),
        metric("admit_p99_ms", "ms", tail(&admit, 0.99)),
        metric("reject_p50_ms", "ms", median(&reject)),
        metric("settle_p50_ms", "ms", median(&settle)),
        metric("settle_p99_ms", "ms", tail(&settle, 0.99)),
        metric("cpu_us_per_job", "us", Some(cpu_ns / 1e3 / attempted)),
        metric("cpu_ns_per_input", "ns", ratio(cpu_ns, inputs)),
    ]
}

/// Counts that repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Admitted submissions.
    pub admitted: u64,
    /// Rejected submissions.
    pub rejected: u64,
    /// Admissions whose certification fell back.
    pub fell_back: u64,
    /// Data messages of admitted jobs.
    pub data: u64,
    /// Dummy messages of admitted jobs.
    pub dummies: u64,
}

impl Counts {
    /// Counts of a measured phase.
    pub fn of(records: &[Record]) -> Counts {
        let mut c = Counts::default();
        for record in records {
            match &record.outcome {
                Ok(a) => {
                    c.admitted += 1;
                    if let Some(o) = &a.observed {
                        c.fell_back += u64::from(o.fell_back);
                        c.data += o.data;
                        c.dummies += o.dummies;
                    }
                }
                Err(_) => c.rejected += 1,
            }
        }
        c
    }
}

/// Layer self-times per attempted job against the service phase's process
/// CPU per job.  Admission layers come from the driver's spans around
/// `submit`; the pool and the runtime below it from the CPU of the
/// untraced pool replay, which runs the same admitted jobs with no
/// admission in front.
#[derive(Debug)]
pub struct Attribution {
    /// `(layer, microseconds per job)` rows.
    pub rows: Vec<(&'static str, f64)>,
    /// Process CPU per job in the service phase.
    pub cpu_us: f64,
}

impl Attribution {
    /// Share of CPU per job the layer self-times leave unexplained.
    pub fn gap_share(&self) -> f64 {
        1.0 - self.rows.iter().map(|r| r.1).sum::<f64>() / self.cpu_us
    }

    /// The table, one line per row.
    pub fn render(&self, workload: &str) -> String {
        let mut s =
            format!("attribution {workload}: layer self-time per job vs process CPU per job\n");
        let mut sum = 0.0;
        for (layer, value) in &self.rows {
            sum += value;
            let _ = writeln!(
                s,
                "  {layer:<36} {value:>10.2} us  {:>6.1} %",
                100.0 * value / self.cpu_us
            );
        }
        let _ = writeln!(
            s,
            "  {:<36} {sum:>10.2} us  {:>6.1} %",
            "sum of layer self-times",
            100.0 * sum / self.cpu_us
        );
        let _ = writeln!(s, "  {:<36} {:>10.2} us", "process cpu", self.cpu_us);
        let _ = write!(
            s,
            "  {:<36} {:>10.2} us  {:>6.1} %",
            "gap",
            self.cpu_us - sum,
            100.0 * self.gap_share()
        );
        s
    }
}

/// The per-layer metrics of a traced run, and its attribution table.
/// `phase` is the run's service phase; `bare` and `traced` replay its
/// admitted jobs on a pool with the flight recorder off and on.
pub fn per_layer(
    plan: &Plan,
    phase: &Phase,
    bare: &PoolReplay,
    traced: &PoolReplay,
    verdict: &Verdict,
    replay: &Replay,
    ladder: &Ladder,
) -> (Vec<Metric>, Attribution) {
    let records = &phase.records;
    let jobs = records.len() as f64;
    let (before, after) = (&phase.stats_before, &phase.stats);
    let pool = &traced.trace;
    let pool_ns = traced.wall.as_nanos() as f64 * traced.workers as f64;

    let fresh: Vec<&Admitted> = admitted(records)
        .filter(|a| a.cache_hit == Some(false))
        .collect();
    let plan_us = us(fresh.iter().map(|a| a.plan));
    let certify_us = us(fresh.iter().map(|a| a.certify));
    let overhead = |r: &Record| {
        r.outcome
            .as_ref()
            .ok()
            .map(|a| r.submit.saturating_sub(a.plan + a.certify))
    };
    let overhead_us = us(records.iter().filter_map(overhead));
    let planned = admitted(records).filter(|a| a.cache_hit.is_some()).count() as f64;
    let fell_back = admitted(records)
        .filter(|a| a.observed.as_ref().is_some_and(|o| o.fell_back))
        .count() as f64;
    let cert_hits = (after.cert_cache_hits - before.cert_cache_hits) as f64;
    let cert_misses = (after.cert_cache_misses - before.cert_cache_misses) as f64;
    let deadlock_ms = ms(admitted(records)
        .filter(|a| {
            a.observed
                .as_ref()
                .is_some_and(|o| o.verdict == JobVerdict::Deadlocked)
        })
        .map(|a| a.wall));

    // Messages per input and dummy share, from the service phase's exact
    // counts.
    let (mut msgs, mut dummies, mut inputs) = (0u64, 0u64, 0u64);
    for (job, record) in plan.jobs.iter().zip(records) {
        if let Some(o) = record
            .outcome
            .as_ref()
            .ok()
            .and_then(|a| a.observed.as_ref())
        {
            msgs += o.data + o.dummies;
            dummies += o.dummies;
            inputs += job.inputs;
        }
    }
    // Firing time per message, split by whether the job ran under a plan.
    let mut by_kind = [(0u64, 0u64); 2]; // [unplanned, planned] → (firing ns, messages)
    for (serial, job) in traced.jobs.iter().enumerate() {
        let slot = &mut by_kind[usize::from(job.planned)];
        slot.0 += pool.job_firing_ns.get(serial).copied().unwrap_or(0);
        slot.1 += job.messages;
    }
    let kmsgs = pool.delivered as f64 / 1e3;
    let late_ms = ms(records.iter().map(|r| r.late));

    // `fold` from +0.0: an empty `sum` of floats is -0.0.
    let sum_us = |d: Vec<f64>| d.iter().fold(0.0, |a, b| a + b) / jobs;
    let attribution = Attribution {
        rows: vec![
            (
                "avoidance: plan + certify",
                sum_us(us(admitted(records).map(|a| a.plan + a.certify))),
            ),
            (
                "avoidance: rejected submits",
                sum_us(us(records
                    .iter()
                    .filter(|r| r.outcome.is_err())
                    .map(|r| r.submit))),
            ),
            ("service: submit overhead", sum_us(overhead_us.clone())),
            (
                "pool and runtime (untraced replay cpu)",
                bare.cpu.as_secs_f64() * 1e6 / jobs,
            ),
        ],
        cpu_us: cpu_us_per_job(phase),
    };

    let metrics = vec![
        metric(
            "graph.fingerprint_us.p50",
            "us",
            median(&us(replay.fingerprint.iter().copied())),
        ),
        metric(
            "spdag.recognize_us.p50",
            "us",
            median(&us(replay.recognize.iter().copied())),
        ),
        metric("avoidance.plan_us.p50", "us", median(&plan_us)),
        metric("avoidance.plan_us.p99", "us", tail(&plan_us, 0.99)),
        metric("avoidance.certify_us.p50", "us", median(&certify_us)),
        metric("avoidance.certify_us.p99", "us", tail(&certify_us, 0.99)),
        metric(
            "avoidance.reject_plan_us.p50",
            "us",
            median(&us(replay.reject_plan.iter().copied())),
        ),
        metric(
            "avoidance.cert_lookup_us.p50",
            "us",
            median(&us(replay.cert_lookup.iter().copied())),
        ),
        metric(
            "avoidance.cert_hit_ratio",
            "share",
            ratio(cert_hits, cert_hits + cert_misses),
        ),
        metric(
            "avoidance.fallback_share",
            "share",
            ratio(fell_back, planned),
        ),
        metric("service.overhead_us.p50", "us", median(&overhead_us)),
        metric(
            "service.saturated",
            "count",
            Some((after.rejected_saturated - before.rejected_saturated) as f64),
        ),
        metric(
            "pool.exec_ms.p50",
            "ms",
            median(&ms(admitted(records).map(|a| a.wall))),
        ),
        metric(
            "pool.busy_share",
            "share",
            ratio(pool.firing_ns as f64, pool_ns),
        ),
        metric(
            "pool.park_share",
            "share",
            ratio(pool.park_ns as f64, pool_ns),
        ),
        metric(
            "pool.parks_per_job",
            "count",
            ratio(pool.parks as f64, traced.jobs.len() as f64),
        ),
        metric(
            "pool.steals_per_job",
            "count",
            ratio(pool.steals as f64, traced.jobs.len() as f64),
        ),
        metric("pool.deadlock_verdict_ms.p50", "ms", median(&deadlock_ms)),
        metric(
            "pool.msgs_per_firing",
            "count",
            ratio(pool.delivered as f64, pool.firings as f64),
        ),
        metric(
            "pool.blocked_input_per_kmsg",
            "count",
            ratio(pool.blocked_input as f64, kmsgs),
        ),
        metric(
            "pool.blocked_space_per_kmsg",
            "count",
            ratio(pool.blocked_space as f64, kmsgs),
        ),
        metric("spsc.push_pop_ns", "ns", Some(ladder.push_pop_ns)),
        metric(
            "container.dummy_run_ns",
            "ns",
            Some(ladder.container_dummy_run_ns),
        ),
        metric("wrapper.on_accept_ns", "ns", Some(ladder.on_accept_ns)),
        metric(
            "wrapper.dummy_run_ns",
            "ns",
            Some(ladder.wrapper_dummy_run_ns),
        ),
        metric(
            "runtime.ns_per_msg.data",
            "ns",
            ratio(by_kind[0].0 as f64, by_kind[0].1 as f64),
        ),
        metric(
            "runtime.ns_per_msg.dummy",
            "ns",
            ratio(by_kind[1].0 as f64, by_kind[1].1 as f64),
        ),
        metric(
            "runtime.dummy_share",
            "share",
            ratio(dummies as f64, msgs as f64),
        ),
        metric(
            "runtime.msgs_per_input",
            "count",
            ratio(msgs as f64, inputs as f64),
        ),
        metric(
            "sim.inputs_per_s",
            "1/s",
            ratio(verdict.sim_inputs as f64, verdict.sim_time.as_secs_f64()),
        ),
        metric(
            "driver.late_ms.p99",
            "ms",
            (plan.arrivals == Arrivals::Open)
                .then(|| tail(&late_ms, 0.99))
                .flatten(),
        ),
        metric(
            "trace.overhead_share",
            "share",
            Some(traced.cpu.as_secs_f64() / bare.cpu.as_secs_f64() - 1.0),
        ),
        metric(
            "attribution.gap_share",
            "share",
            Some(attribution.gap_share()),
        ),
    ];
    (metrics, attribution)
}
