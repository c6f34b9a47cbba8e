//! Probes that call one layer directly, through its public functions.
//!
//! They run only in the traced run, after its measured phase: the layer
//! ladder (`spsc`, `container`, `wrapper`) on a fixed input, and replays of
//! the admission layers (`graph`, `spdag`, `avoidance`) on the measured
//! jobs' own graphs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fila_avoidance::{Algorithm, PlanCache, Planner, Rounding};
use fila_graph::fingerprint::fingerprint;
use fila_runtime::container::Run;
use fila_runtime::spsc::{ring, MsgCap};
use fila_runtime::{AvoidanceMode, Batch, DummyWrapper, Message};
use fila_workloads::generators::{random_ladder, LadderConfig};

use crate::driver::Record;
use crate::stats::median;
use crate::workload::Plan;

/// Operations per timed probe repetition.
const LADDER_OPS: u64 = 1 << 20;
/// Timed repetitions per ladder probe; the median is reported.
const LADDER_REPS: usize = 7;
/// Most jobs a replay probe visits.
const REPLAY_JOBS: usize = 2000;

/// Nanoseconds per operation of the fastest-settling layer paths.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// One `spsc` push plus one pop of a scalar message.
    pub push_pop_ns: f64,
    /// One `Batch` dummy run of 64: append, inspect, consume.
    pub container_dummy_run_ns: f64,
    /// One `DummyWrapper::on_accept` call on a three-output node.
    pub on_accept_ns: f64,
    /// One `DummyWrapper::on_accept_dummy_run` call for a run of 64.
    pub wrapper_dummy_run_ns: f64,
}

/// Median ns per op of `LADDER_REPS` timed repetitions of `ops` calls.
fn per_op(ops: u64, mut body: impl FnMut(u64)) -> f64 {
    body(ops / 8); // warm caches and branch predictors
    let samples: Vec<f64> = (0..LADDER_REPS)
        .map(|_| {
            let started = Instant::now();
            body(ops);
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples).expect("at least one repetition")
}

/// Runs the layer-ladder probes.
pub fn ladder() -> Ladder {
    let (mut tx, mut rx) = ring::<Message>(MsgCap::new(64));
    let push_pop_ns = per_op(LADDER_OPS, |n| {
        for seq in 0..n {
            tx.push(Message::Data { seq, payload: seq })
                .expect("the ring is empty before each push");
            black_box(rx.pop());
        }
    });

    let mut batch = Batch::new();
    let mut first = 0u64;
    let container_dummy_run_ns = per_op(LADDER_OPS / 16, |n| {
        for _ in 0..n {
            let taken = batch.push_dummy_run(64, first, 64);
            if let Some(Run::Dummies { len, .. }) = black_box(batch.front_run()) {
                batch.consume_dummies(len);
            }
            first += taken;
        }
    });

    // The source of a fixed CS4 ladder under its Non-Propagation plan: a
    // fork whose outputs carry finite dummy intervals.
    let graph = random_ladder(&LadderConfig {
        rungs: 4,
        capacity_range: (2, 6),
        reverse_probability: 0.3,
        seed: 0x1ADD,
    });
    let plan = Planner::new(&graph)
        .algorithm(Algorithm::NonPropagation)
        .plan()
        .expect("a CS4 ladder plans");
    let source = graph.single_source().expect("a ladder has one source");
    let mode = AvoidanceMode::plan(plan);
    let mut wrapper = DummyWrapper::new(&graph, source, &mode);
    let on_accept_ns = per_op(LADDER_OPS, |n| {
        for seq in 0..n {
            // Data on one output in three, like a period-3 fork filter.
            black_box(wrapper.on_accept(false, |out| (seq + out as u64) % 3 == 0));
        }
    });
    let wrapper_dummy_run_ns = per_op(LADDER_OPS / 16, |n| {
        for _ in 0..n {
            wrapper.on_accept_dummy_run(64, |out, run| {
                black_box((out, run));
            });
        }
    });
    Ladder {
        push_pop_ns,
        container_dummy_run_ns,
        on_accept_ns,
        wrapper_dummy_run_ns,
    }
}

/// Per-call times of the admission layers, replayed on measured jobs.
#[derive(Debug, Default)]
pub struct Replay {
    /// `fila_graph::fingerprint` per submitted graph.
    pub fingerprint: Vec<Duration>,
    /// `fila_spdag::recognize` per submitted graph.
    pub recognize: Vec<Duration>,
    /// `PlanCache::certify` on a graph the service rejected.
    pub reject_plan: Vec<Duration>,
    /// `PlanCache::certify` answered from a warm verdict cache.
    pub cert_lookup: Vec<Duration>,
}

/// Replays the admission layers on up to [`REPLAY_JOBS`] measured jobs
/// (the first ones), with the service's rounding and cycle budget.
pub fn replay(plan: &Plan, records: &[Record], cycle_bound: usize) -> Replay {
    let mut out = Replay::default();
    let cache = PlanCache::new(REPLAY_JOBS);
    let timed = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed()
    };
    for (job, record) in plan.jobs.iter().zip(records).take(REPLAY_JOBS) {
        let graph = plan.graph(job);
        let template = &plan.templates[job.template];
        out.fingerprint.push(timed(&mut || {
            black_box(fingerprint(&graph));
        }));
        out.recognize.push(timed(&mut || {
            let _ = black_box(fila_spdag::recognize(&graph));
        }));
        let Some(algorithm) = template.avoidance else {
            continue;
        };
        let mut certify = || {
            let _ = black_box(cache.certify(
                &graph,
                algorithm,
                Rounding::Ceil,
                cycle_bound,
                &template.periods,
            ));
        };
        if record.outcome.is_err() {
            out.reject_plan.push(timed(&mut certify));
        } else {
            certify(); // the miss that fills the verdict cache
            out.cert_lookup.push(timed(&mut certify));
        }
    }
    out
}
