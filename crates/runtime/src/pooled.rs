//! The one-run front-end of the pooled work-stealing engine.
//!
//! `PooledExecutor` runs one topology to its verdict on `N` workers
//! (default [`std::thread::available_parallelism`], never more than the
//! graph has nodes).  Workers are decoupled from operators the way
//! shared-memory streaming engines do it: every compute node is a
//! cooperatively scheduled task, and a worker pool drives all of them.
//!
//! The executor is a thin builder over [`SharedPool`]: [`PooledExecutor::run`]
//! starts a pool sized to the run, submits the topology as its only job,
//! waits for the job's verdict and tears the pool down.  Scheduling (run
//! queues, work stealing, channel-event wakeups over the lock-free SPSC
//! rings of [`crate::spsc`], parking) and the exact deadlock verdict — the
//! job's tasks went quiescent with unfinished nodes, never a timeout — are
//! the shared pool's (see [`crate::shared_pool`]).
//!
//! The per-node semantics (acceptance rule, dummy wrappers, per-channel
//! independent delivery) are identical to [`crate::Simulator`]'s, and a
//! property test (`tests/engine_equivalence.rs`) pins the two engines to the
//! same completion/deadlock verdicts and per-edge message counts.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

use fila_avoidance::AvoidancePlan;

use crate::container::Batching;
use crate::report::ExecutionReport;
use crate::shared_pool::{self, JobVerdict, SharedPool};
use crate::topology::Topology;
use crate::wrapper::{AvoidanceMode, PropagationTrigger};

/// Pooled work-stealing execution engine.
#[derive(Debug, Clone)]
pub struct PooledExecutor<'t> {
    topology: &'t Topology,
    mode: AvoidanceMode,
    trigger: PropagationTrigger,
    workers: Option<NonZeroUsize>,
    batch: u32,
    batching: Batching,
}

impl<'t> PooledExecutor<'t> {
    /// Creates an executor with deadlock avoidance disabled, one worker per
    /// available hardware thread, a firing batch of 64 per task wake, and
    /// message batching on (the [`Batching`] default).
    pub fn new(topology: &'t Topology) -> Self {
        PooledExecutor {
            topology,
            mode: AvoidanceMode::Disabled,
            trigger: PropagationTrigger::default(),
            workers: None,
            batch: 64,
            batching: Batching::default(),
        }
    }

    /// Enables deadlock avoidance following `plan`.
    pub fn with_plan(mut self, plan: &AvoidancePlan) -> Self {
        self.mode = AvoidanceMode::plan(plan.clone());
        self
    }

    /// Enables deadlock avoidance following an already-shared plan without
    /// copying the interval table.
    pub fn with_shared_plan(mut self, plan: Arc<AvoidancePlan>) -> Self {
        self.mode = AvoidanceMode::Plan(plan);
        self
    }

    /// Sets the avoidance mode explicitly.
    pub fn avoidance(mut self, mode: AvoidanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the Propagation-protocol trigger (see
    /// [`PropagationTrigger`]); the default is the paper's literal trigger.
    pub fn propagation_trigger(mut self, trigger: PropagationTrigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Sets the worker-pool size explicitly; passing `0` restores the
    /// default ([`std::thread::available_parallelism`]).  The pool never
    /// spawns more workers than the graph has nodes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = NonZeroUsize::new(workers);
        self
    }

    /// Sets how many firings a woken task may drain before it yields its
    /// worker (clamped to ≥ 1).  Larger batches amortise scheduling costs;
    /// smaller ones interleave nodes more finely.
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Selects how messages are grouped into containers on the rings (see
    /// [`Batching`]; the default batches 64 messages per container).
    /// [`Batching::Messages`]`(1)` ships one message per ring slot; by
    /// confluence every mode produces identical reports.
    pub fn batching(mut self, batching: Batching) -> Self {
        self.batching = batching;
        self
    }

    /// Runs the application, offering `inputs` sequence numbers at every
    /// source node, and returns the execution report.  The deadlock verdict
    /// is exact (the job's tasks went quiescent with unfinished nodes),
    /// never inferred from a timeout.
    ///
    /// # Panics
    ///
    /// If a node behaviour panics, like [`crate::Simulator::run`] does.
    pub fn run(&self, inputs: u64) -> ExecutionReport {
        let started = Instant::now();
        // No more workers than nodes, and one for an empty graph (whose
        // job settles at launch).
        let workers = self
            .workers
            .map_or_else(shared_pool::available_workers, NonZeroUsize::get)
            .min(self.topology.graph().node_count())
            .max(1);
        let pool = SharedPool::with_options(workers, self.batch, None, false, self.batching);
        let job = pool.submit_full(self.topology, self.mode.clone(), self.trigger, inputs, None);
        let mut report = job.wait();
        if job.verdict() == Some(JobVerdict::Failed) {
            panic!(
                "a node behaviour panicked (node {:?}); the run failed",
                job.failed_node()
            );
        }
        report.wall = started.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{Broadcast, ModuloFilter, Predicate};
    use crate::Simulator;
    use fila_avoidance::{Algorithm, Planner};
    use fila_graph::{Graph, GraphBuilder};

    fn fig2(buffer: u64) -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", buffer).unwrap();
        b.edge_with_capacity("B", "C", buffer).unwrap();
        b.edge_with_capacity("A", "C", buffer).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pipeline_completes_pooled() {
        let mut b = GraphBuilder::new();
        b.chain(&["src", "mid", "dst"]).unwrap();
        let g = b.build().unwrap();
        let topo = Topology::from_graph(&g);
        for workers in [1, 2, 4] {
            let report = PooledExecutor::new(&topo).workers(workers).run(200);
            assert!(report.completed, "workers={workers}: {report:?}");
            assert_eq!(report.data_messages, 400);
            assert_eq!(report.sink_firings, 200);
        }
    }

    #[test]
    fn fig2_deadlock_verdict_is_exact() {
        // No quiet period, no timeout: the pool parks and reports deadlock
        // with the blocked nodes, exactly like the simulator.
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        for workers in [1, 3] {
            let report = PooledExecutor::new(&topo).workers(workers).run(500);
            assert!(report.deadlocked, "workers={workers}: {report:?}");
            assert!(!report.completed);
            assert!(!report.blocked.is_empty());
        }
    }

    #[test]
    fn fig2_completes_pooled_with_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let topo = Topology::from_graph(&g)
                .with(a, || Predicate::new(2, |_seq, out| out == 0));
            let report = PooledExecutor::new(&topo)
                .with_plan(&plan)
                .workers(2)
                .run(500);
            assert!(report.completed, "{algorithm}: {report:?}");
            assert!(report.dummy_messages > 0);
        }
    }

    #[test]
    fn pooled_matches_simulator_exactly() {
        let g = fig2(4);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |seq, out| out == 0 || seq % 4 == 0));
        let sim = Simulator::new(&topo).with_plan(&plan).run(400);
        let pooled = PooledExecutor::new(&topo).with_plan(&plan).workers(2).run(400);
        assert!(sim.completed && pooled.completed);
        assert_eq!(sim.per_edge_data, pooled.per_edge_data);
        assert_eq!(sim.per_edge_dummies, pooled.per_edge_dummies);
        assert_eq!(sim.sink_firings, pooled.sink_firings);
    }

    #[test]
    fn capacity_one_channels_work() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("s", "m", 1).unwrap();
        b.edge_with_capacity("m", "t", 1).unwrap();
        let g = b.build().unwrap();
        let m = g.node_by_name("m").unwrap();
        let topo = Topology::from_graph(&g).with(m, || ModuloFilter::new(1, 2, 0));
        let report = PooledExecutor::new(&topo).workers(2).run(100);
        assert!(report.completed, "{report:?}");
        assert_eq!(report.sink_firings, 50);
    }

    #[test]
    fn split_join_deadlocks_and_plan_rescues_it() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("split", "left", 4).unwrap();
        b.edge_with_capacity("split", "right", 4).unwrap();
        b.edge_with_capacity("left", "join", 4).unwrap();
        b.edge_with_capacity("right", "join", 4).unwrap();
        let g = b.build().unwrap();
        let split = g.node_by_name("split").unwrap();
        let left = g.node_by_name("left").unwrap();
        let right = g.node_by_name("right").unwrap();
        let topo = Topology::from_graph(&g)
            .with(split, || Broadcast::new(2))
            .with(left, || ModuloFilter::new(1, 5, 0))
            .with(right, || ModuloFilter::new(1, 50, 3));
        let without = PooledExecutor::new(&topo).workers(2).run(2000);
        assert!(without.deadlocked, "{without:?}");
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let with_plan = PooledExecutor::new(&topo).with_plan(&plan).workers(2).run(2000);
        assert!(with_plan.completed, "{with_plan:?}");
    }

    #[test]
    fn deep_pipeline_scales_past_thread_per_node_sizes() {
        // 4096 nodes on a handful of workers: far beyond what one OS thread
        // per node is meant for, trivially handled by the pool.
        let names: Vec<String> = (0..4096).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = GraphBuilder::new().default_capacity(4);
        b.chain(&refs).unwrap();
        let g = b.build().unwrap();
        let topo = Topology::from_graph(&g);
        let report = PooledExecutor::new(&topo).workers(4).run(8);
        assert!(report.completed, "{report:?}");
        assert_eq!(report.sink_firings, 8);
        assert_eq!(report.data_messages, 8 * 4095);
    }

    #[test]
    fn tiny_batch_still_completes() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = PooledExecutor::new(&topo)
            .with_plan(&plan)
            .workers(3)
            .batch(1)
            .run(300);
        assert!(report.completed, "{report:?}");
    }

    #[test]
    fn zero_inputs_complete_immediately() {
        let g = fig2(2);
        let topo = Topology::from_graph(&g);
        let report = PooledExecutor::new(&topo).run(0);
        assert!(report.completed);
        assert_eq!(report.data_messages, 0);
        let empty = Topology::from_graph(&Graph::new());
        let report = PooledExecutor::new(&empty).run(7);
        assert!(report.completed && !report.deadlocked);
        assert_eq!(report.inputs_offered, 7);
    }

    #[test]
    fn more_workers_than_nodes_complete_exactly() {
        // The worker count is clamped to the node count: 8 requested
        // workers on a 3-node pipeline still run to the exact counts.
        let mut b = GraphBuilder::new();
        b.chain(&["s", "m", "t"]).unwrap();
        let g = b.build().unwrap();
        let m = g.node_by_name("m").unwrap();
        let topo = Topology::from_graph(&g).with(m, || ModuloFilter::new(1, 3, 0));
        let report = PooledExecutor::new(&topo).workers(8).run(300);
        assert!(report.completed, "{report:?}");
        assert_eq!(report.per_edge_data, vec![300, 100]);
        assert_eq!(report.sink_firings, 100);
        assert_eq!(report.per_node_firings, vec![300, 300, 100]);
    }

    #[test]
    fn behaviour_panic_propagates_instead_of_hanging() {
        // A panicking behaviour must fail the run like the simulator does —
        // not leave the surviving workers parked forever.
        let mut b = GraphBuilder::new();
        b.chain(&["s", "m", "t"]).unwrap();
        let g = b.build().unwrap();
        let m = g.node_by_name("m").unwrap();
        let topo = Topology::from_graph(&g).with(m, || {
            Predicate::new(1, |seq, _out| {
                assert!(seq < 5, "behaviour blew up at seq {seq}");
                true
            })
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PooledExecutor::new(&topo).workers(2).run(100)
        }));
        assert!(result.is_err(), "the panic must propagate out of run()");
    }

    #[test]
    fn wall_time_is_recorded() {
        let mut b = GraphBuilder::new();
        b.chain(&["s", "t"]).unwrap();
        let g = b.build().unwrap();
        let topo = Topology::from_graph(&g);
        let report = PooledExecutor::new(&topo).workers(1).run(64);
        assert!(report.completed);
        assert!(report.wall_time() > std::time::Duration::ZERO);
        assert!(report.messages_per_sec().expect("wall time recorded") > 0.0);
    }
}
