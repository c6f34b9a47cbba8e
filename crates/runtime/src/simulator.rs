//! A deterministic, single-threaded executor with exact deadlock detection.
//!
//! The simulator advances one node at a time.  Two schedulers are available:
//!
//! * [`Scheduler::Worklist`] (the default) — an event-driven ready queue
//!   seeded with the source nodes.  Firing a node re-enqueues only the nodes
//!   its action could have unblocked: the consumers of channels it made
//!   non-empty and the producers of channels it made non-full.  Per-step
//!   cost is therefore proportional to the fired node's degree, and deadlock
//!   is detected exactly as "ready queue empty but not every node finished"
//!   — no sweep over the whole graph is ever needed.
//! * [`Scheduler::Scan`] — the original reference scheduler, which
//!   repeatedly round-robins over *every* node looking for one that can make
//!   progress and declares deadlock after a full unproductive pass.  It is
//!   `O(V)` per step and kept as the executable specification the worklist
//!   scheduler is property-tested against.
//!
//! Both schedulers run the same per-node `step` function, so they execute
//! the same Kahn-style deterministic semantics and produce identical message
//! counts, completion, and deadlock verdicts (the equivalence is enforced by
//! a property test over generated topologies).  When no node can progress
//! and not every node has reached end-of-stream, the run is *deadlocked* —
//! exactly the condition the paper's avoidance machinery is designed to
//! prevent — and the report records which node is blocked on which channel.
//!
//! Determinism makes the simulator the reference engine for the tests and
//! benchmarks; the pooled engine ([`crate::PooledExecutor`],
//! [`crate::SharedPool`]) exercises the same wrapper logic under real
//! concurrency.

use std::collections::VecDeque;
use std::sync::Arc;

use fila_avoidance::AvoidancePlan;
use fila_graph::fingerprint::labeled_fingerprint;
use fila_graph::{EdgeId, Graph, NodeId};

use crate::checkpoint::{
    self, CheckpointOutcome, JobSnapshot, NodeSnapshot, RestoreError, SNAPSHOT_VERSION,
};
use crate::message::{Message, Payload};
use crate::node::{FireDecision, FireInput};
use crate::report::{BlockedInfo, BlockedReason, ExecutionReport};
use crate::topology::Topology;
use crate::wrapper::{AvoidanceMode, DummyWrapper, PropagationTrigger};

/// Which scheduling strategy [`Simulator`] uses to pick the next node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Event-driven worklist: `O(degree)` per step (the default).
    #[default]
    Worklist,
    /// Full round-robin scan: `O(V)` per step; the reference semantics.
    Scan,
}

/// Deterministic single-threaded execution engine.
#[derive(Debug, Clone)]
pub struct Simulator<'t> {
    topology: &'t Topology,
    mode: AvoidanceMode,
    trigger: PropagationTrigger,
    scheduler: Scheduler,
    max_steps: u64,
}

impl<'t> Simulator<'t> {
    /// Creates a simulator with deadlock avoidance disabled.
    pub fn new(topology: &'t Topology) -> Self {
        Simulator {
            topology,
            mode: AvoidanceMode::Disabled,
            trigger: PropagationTrigger::default(),
            scheduler: Scheduler::default(),
            max_steps: u64::MAX,
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

    /// Selects the scheduling strategy (the default is the event-driven
    /// worklist; [`Scheduler::Scan`] is the reference implementation).
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Bounds the number of scheduler steps (a safety valve for exploratory
    /// runs; the default is effectively unbounded).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs the application, offering `inputs` sequence numbers at every
    /// source node, and returns the execution report.
    pub fn run(&self, inputs: u64) -> ExecutionReport {
        let started = std::time::Instant::now();
        let run = Run::new(self.topology, &self.mode, self.trigger, inputs);
        let mut report = match self.scheduler {
            Scheduler::Worklist => run.execute_worklist(self.max_steps),
            Scheduler::Scan => run.execute_scan(self.max_steps),
        };
        report.wall = started.elapsed();
        report
    }

    /// Runs like [`Simulator::run`], but kills the run as soon as `kill_at`
    /// scheduler steps have executed and returns a [`JobSnapshot`] of the
    /// exact point of death (all channel contents, node progress and
    /// wrapper state); if the run settles first, the finished report is
    /// returned instead.  Since the simulator stops *between* steps, any
    /// cut is consistent — no barrier is needed.  Always uses the worklist
    /// scheduler (the kill step indexes its step sequence).
    pub fn run_with_checkpoint(&self, inputs: u64, kill_at: u64) -> CheckpointOutcome {
        let started = std::time::Instant::now();
        let run = Run::new(self.topology, &self.mode, self.trigger, inputs);
        match run.worklist_until(self.max_steps, false, kill_at) {
            WorklistEnd::Report(mut report) => {
                report.wall = started.elapsed();
                CheckpointOutcome::Finished(report)
            }
            WorklistEnd::Killed(run) => CheckpointOutcome::Killed(Box::new(run.capture(
                labeled_fingerprint(self.topology.graph()),
                checkpoint::plan_digest(&self.mode),
                checkpoint::trigger_code(self.trigger),
            ))),
        }
    }

    /// Resumes a killed run from its snapshot and drives it to a verdict.
    ///
    /// The snapshot must have been taken under *this* simulator's exact
    /// topology, avoidance plan and trigger
    /// ([`JobSnapshot::validate_for`]); anything else is a [`RestoreError`],
    /// never a silent re-plan.  The returned report is **cumulative**: a
    /// resumed run that completes reports exactly the counts the
    /// uninterrupted run would have (and
    /// [`ExecutionReport::resumed_from`] records the snapshot's progress
    /// marker).  Always uses the worklist scheduler.
    pub fn resume(&self, snapshot: &JobSnapshot) -> Result<ExecutionReport, RestoreError> {
        let started = std::time::Instant::now();
        snapshot.validate_for(self.topology, &self.mode, self.trigger)?;
        let mut run = Run::new(self.topology, &self.mode, self.trigger, snapshot.inputs);
        for (channel, contents) in run.channels.iter_mut().zip(&snapshot.channels) {
            *channel = contents.iter().copied().collect();
        }
        run.report.steps = snapshot.steps;
        run.report.sink_firings = snapshot.sink_firings;
        run.report.per_edge_data = snapshot.per_edge_data.clone();
        run.report.per_edge_dummies = snapshot.per_edge_dummies.clone();
        run.report.data_messages = snapshot.per_edge_data.iter().sum();
        run.report.dummy_messages = snapshot.per_edge_dummies.iter().sum();
        run.report.resumed_from = Some(snapshot.steps);
        for (state, ns) in run.nodes.iter_mut().zip(&snapshot.nodes) {
            state.next_source_seq = ns.next_source_seq;
            state.eos_queued = ns.eos_queued;
            state.done = ns.done;
            state.firings = ns.firings;
            state.sink_firings = ns.sink_firings;
            state.wrapper.restore_gaps(&ns.gaps);
            state.pending = ns
                .staged
                .iter()
                .map(|&(e, m)| (EdgeId::from_raw(e), m))
                .collect();
        }
        // Seed every unfinished node: unlike a fresh run, restored interior
        // nodes may already hold consumable channel contents.
        let mut report = match run.worklist_until(self.max_steps, true, u64::MAX) {
            WorklistEnd::Report(report) => report,
            WorklistEnd::Killed(_) => unreachable!("kill step is never set for resumed runs"),
        };
        report.wall = started.elapsed();
        Ok(report)
    }
}

struct NodeState {
    behavior: Box<dyn crate::node::NodeBehavior>,
    wrapper: DummyWrapper,
    pending: VecDeque<(EdgeId, Message)>,
    is_source: bool,
    next_source_seq: u64,
    eos_queued: bool,
    done: bool,
    /// Behaviour firings (source emissions + data acceptances), mirroring
    /// the pooled engines' per-task counter so snapshots carry the same
    /// per-node progress regardless of which engine captured them.
    firings: u64,
    sink_firings: u64,
}

/// How a worklist execution ended: with a verdict, or killed mid-run with
/// the whole [`Run`] handed back for checkpointing.
enum WorklistEnd<'t> {
    Report(ExecutionReport),
    Killed(Box<Run<'t>>),
}

struct Run<'t> {
    topology: &'t Topology,
    inputs: u64,
    channels: Vec<VecDeque<Message>>,
    capacities: Vec<usize>,
    nodes: Vec<NodeState>,
    report: ExecutionReport,
    /// Reusable per-firing scratch: consumed payloads per input channel.
    data_in: Vec<Option<Payload>>,
    /// Reusable scratch for [`Run::flush_pending`]'s full-channel set.
    blocked_scratch: Vec<EdgeId>,
    /// Channels that became non-empty during the current step (their
    /// consumers may have been unblocked).
    filled: Vec<EdgeId>,
    /// Channels that went from full to non-full during the current step
    /// (their producers may have been unblocked).
    drained: Vec<EdgeId>,
}

impl<'t> Run<'t> {
    fn new(
        topology: &'t Topology,
        mode: &AvoidanceMode,
        trigger: PropagationTrigger,
        inputs: u64,
    ) -> Self {
        let g = topology.graph();
        let channels = vec![VecDeque::new(); g.edge_count()];
        let capacities = g
            .edge_ids()
            .map(|e| g.capacity(e) as usize)
            .collect::<Vec<_>>();
        let nodes = g
            .node_ids()
            .zip(topology.build_behaviors())
            .map(|(n, behavior)| NodeState {
                behavior,
                wrapper: DummyWrapper::with_trigger(g, n, mode, trigger),
                pending: VecDeque::new(),
                is_source: g.in_degree(n) == 0,
                next_source_seq: 0,
                eos_queued: false,
                done: false,
                firings: 0,
                sink_firings: 0,
            })
            .collect();
        let report = ExecutionReport {
            inputs_offered: inputs,
            per_edge_data: vec![0; g.edge_count()],
            per_edge_dummies: vec![0; g.edge_count()],
            ..Default::default()
        };
        Run {
            topology,
            inputs,
            channels,
            capacities,
            nodes,
            report,
            data_in: Vec::new(),
            blocked_scratch: Vec::new(),
            filled: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// The application graph, free of the borrow on `self` (the topology
    /// reference outlives the run, so graph-shape queries can be interleaved
    /// with mutable access to channels and node states without copying edge
    /// lists).
    fn graph(&self) -> &'t Graph {
        self.topology.graph()
    }

    /// Event-driven scheduler: a ready queue (plus an in-queue bitset)
    /// seeded with the sources.  Invariant: any node that may be able to
    /// make progress is in the queue, so an empty queue with unfinished
    /// nodes is exactly a deadlock.
    fn execute_worklist(self, max_steps: u64) -> ExecutionReport {
        match self.worklist_until(max_steps, false, u64::MAX) {
            WorklistEnd::Report(report) => report,
            WorklistEnd::Killed(_) => unreachable!("kill step is never set for plain runs"),
        }
    }

    /// The worklist scheduler body, parameterised for checkpoint/restore:
    /// `seed_all` seeds every unfinished node instead of only the sources
    /// (restored runs may hold consumable channel contents anywhere), and
    /// the run is killed — handing back the whole `Run` for state capture —
    /// once `kill_at` steps have executed (`u64::MAX` = never).
    fn worklist_until(mut self, max_steps: u64, seed_all: bool, kill_at: u64) -> WorklistEnd<'t> {
        let g = self.graph();
        let node_count = g.node_count();
        let mut queue: VecDeque<NodeId> = VecDeque::with_capacity(node_count);
        let mut in_queue = vec![false; node_count];
        // A fresh run's channels all start empty, so only the sources can
        // make the first move; everything else is woken by channel events.
        for (idx, state) in self.nodes.iter().enumerate() {
            if (state.is_source || seed_all) && !state.done {
                queue.push_back(NodeId::from_raw(idx as u32));
                in_queue[idx] = true;
            }
        }
        while let Some(node) = queue.pop_front() {
            in_queue[node.index()] = false;
            if self.report.steps >= kill_at {
                return WorklistEnd::Killed(Box::new(self));
            }
            if self.report.steps >= max_steps {
                return WorklistEnd::Report(self.finish(false, false));
            }
            if !self.step(node) {
                // A node that could not progress recorded no channel events
                // and is woken again only by one.
                debug_assert!(self.filled.is_empty() && self.drained.is_empty());
                continue;
            }
            self.report.steps += 1;
            // The fired node may be able to progress again immediately …
            if !self.nodes[node.index()].done && !in_queue[node.index()] {
                in_queue[node.index()] = true;
                queue.push_back(node);
            }
            // … and so may the consumers of channels it filled and the
            // producers of channels it drained.
            while let Some(e) = self.filled.pop() {
                let consumer = g.head(e);
                if !in_queue[consumer.index()] && !self.nodes[consumer.index()].done {
                    in_queue[consumer.index()] = true;
                    queue.push_back(consumer);
                }
            }
            while let Some(e) = self.drained.pop() {
                let producer = g.tail(e);
                if !in_queue[producer.index()] && !self.nodes[producer.index()].done {
                    in_queue[producer.index()] = true;
                    queue.push_back(producer);
                }
            }
        }
        if self.nodes.iter().all(|s| s.done) {
            WorklistEnd::Report(self.finish(true, false))
        } else {
            WorklistEnd::Report(self.finish(false, true))
        }
    }

    /// Captures the run's entire state as a [`JobSnapshot`] (channels
    /// verbatim: the simulator stops between steps, where any cut is
    /// consistent).
    fn capture(&self, labeled_topology: u64, plan_digest: Option<u64>, trigger: u8) -> JobSnapshot {
        JobSnapshot {
            version: SNAPSHOT_VERSION,
            labeled_topology,
            fingerprint: None,
            filter_signature: None,
            plan_digest,
            trigger,
            inputs: self.inputs,
            steps: self.report.steps,
            sink_firings: self.report.sink_firings,
            per_edge_data: self.report.per_edge_data.clone(),
            per_edge_dummies: self.report.per_edge_dummies.clone(),
            channels: self
                .channels
                .iter()
                .map(|c| c.iter().copied().collect())
                .collect(),
            nodes: self
                .nodes
                .iter()
                .map(|state| NodeSnapshot {
                    gaps: state.wrapper.gaps().to_vec(),
                    next_source_seq: state.next_source_seq,
                    eos_queued: state.eos_queued,
                    done: state.done,
                    firings: state.firings,
                    sink_firings: state.sink_firings,
                    staged: state
                        .pending
                        .iter()
                        .map(|&(e, m)| (e.index() as u32, m))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Reference scheduler: round-robin over every node, declaring deadlock
    /// after a full pass without progress.  `O(V)` per step; kept as the
    /// executable specification for [`Run::execute_worklist`].
    fn execute_scan(mut self, max_steps: u64) -> ExecutionReport {
        let node_ids: Vec<NodeId> = self.graph().node_ids().collect();
        loop {
            let mut progressed = false;
            for &n in &node_ids {
                if self.report.steps >= max_steps {
                    return self.finish(false, false);
                }
                if self.step(n) {
                    progressed = true;
                    self.report.steps += 1;
                }
                // The scan scheduler polls rather than reacting to events.
                self.filled.clear();
                self.drained.clear();
            }
            if self.nodes.iter().all(|s| s.done) {
                return self.finish(true, false);
            }
            if !progressed {
                return self.finish(false, true);
            }
        }
    }

    fn finish(mut self, completed: bool, stalled: bool) -> ExecutionReport {
        self.report.completed = completed;
        self.report.per_node_firings = self.nodes.iter().map(|s| s.firings).collect();
        if !completed && stalled {
            let g = self.graph();
            let mut blocked = Vec::new();
            for (idx, state) in self.nodes.iter().enumerate() {
                if state.done {
                    continue;
                }
                let node = NodeId::from_raw(idx as u32);
                if let Some(&(edge, _)) = state.pending.front() {
                    blocked.push(BlockedInfo {
                        node,
                        reason: BlockedReason::WaitingForSpace(edge),
                    });
                } else if let Some(&edge) = g
                    .in_edges(node)
                    .iter()
                    .find(|&&e| self.channels[e.index()].is_empty())
                {
                    blocked.push(BlockedInfo {
                        node,
                        reason: BlockedReason::WaitingForInput(edge),
                    });
                }
            }
            // A stalled run is a deadlock; hitting the step bound instead
            // leaves the report inconclusive.
            self.report.deadlocked = true;
            self.report.blocked = blocked;
        }
        self.report
    }

    /// Attempts to make progress on one node; returns whether it did.
    ///
    /// Channels made non-empty or non-full along the way are recorded in
    /// `self.filled` / `self.drained` for the worklist scheduler.
    fn step(&mut self, node: NodeId) -> bool {
        // Phase 1: flush pending outputs (a node blocked on a full channel
        // cannot do anything else, mirroring a blocking send).
        if self.flush_pending(node) {
            return true;
        }
        if !self.nodes[node.index()].pending.is_empty() {
            return false;
        }
        if self.nodes[node.index()].done {
            return false;
        }
        let g = self.graph();
        if self.nodes[node.index()].is_source {
            return self.step_source(node);
        }

        // Interior / sink node: can it accept the next sequence number?
        let in_edges = g.in_edges(node);
        if in_edges
            .iter()
            .any(|&e| self.channels[e.index()].is_empty())
        {
            return false;
        }
        let accept_seq = in_edges
            .iter()
            .map(|&e| self.channels[e.index()].front().expect("non-empty").seq())
            .min()
            .expect("nodes reaching here have inputs");

        if accept_seq == u64::MAX {
            // End of stream on every input.
            for &e in g.out_edges(node) {
                self.nodes[node.index()].pending.push_back((e, Message::Eos));
            }
            self.nodes[node.index()].eos_queued = true;
            self.flush_pending(node);
            self.mark_done_if_drained(node);
            return true;
        }

        // Consume every head carrying this sequence number into the
        // reusable `data_in` scratch buffer.
        self.data_in.clear();
        self.data_in.resize(in_edges.len(), None);
        let mut consumed_dummy = false;
        for (idx, &e) in in_edges.iter().enumerate() {
            let channel = &mut self.channels[e.index()];
            if channel.front().expect("non-empty").seq() != accept_seq {
                continue;
            }
            let was_full = channel.len() >= self.capacities[e.index()];
            match channel.pop_front().expect("non-empty") {
                Message::Data { payload, .. } => self.data_in[idx] = Some(payload),
                Message::Dummy { .. } => consumed_dummy = true,
                Message::Eos => unreachable!("EOS has maximal sequence number"),
            }
            if was_full {
                self.drained.push(e);
            }
        }

        if self.data_in.iter().any(Option::is_some) {
            if g.out_degree(node) == 0 {
                self.report.sink_firings += 1;
                self.nodes[node.index()].sink_firings += 1;
            }
            self.nodes[node.index()].firings += 1;
            let decision = self.nodes[node.index()].behavior.fire(&FireInput {
                seq: accept_seq,
                data_in: &self.data_in,
            });
            self.queue_outputs(node, accept_seq, &decision, consumed_dummy);
        } else {
            // Only dummies were consumed: the behaviour is not invoked and
            // no data is emitted, so skip building a FireDecision entirely.
            self.queue_dummies_only(node, accept_seq, consumed_dummy);
        }
        self.flush_pending(node);
        self.mark_done_if_drained(node);
        true
    }

    fn step_source(&mut self, node: NodeId) -> bool {
        let g = self.graph();
        if self.nodes[node.index()].next_source_seq < self.inputs {
            let state = &mut self.nodes[node.index()];
            let seq = state.next_source_seq;
            state.next_source_seq += 1;
            state.firings += 1;
            let decision = state.behavior.fire(&FireInput { seq, data_in: &[] });
            self.queue_outputs(node, seq, &decision, false);
            self.flush_pending(node);
            return true;
        }
        if !self.nodes[node.index()].eos_queued {
            self.nodes[node.index()].eos_queued = true;
            for &e in g.out_edges(node) {
                self.nodes[node.index()].pending.push_back((e, Message::Eos));
            }
            self.flush_pending(node);
            self.mark_done_if_drained(node);
            return true;
        }
        self.mark_done_if_drained(node);
        false
    }

    /// Queues the data and dummy messages produced for one sequence number.
    fn queue_outputs(
        &mut self,
        node: NodeId,
        seq: u64,
        decision: &FireDecision,
        consumed_dummy: bool,
    ) {
        let out_edges = self.graph().out_edges(node);
        debug_assert_eq!(decision.emit.len(), out_edges.len());
        let state = &mut self.nodes[node.index()];
        let dummies = state
            .wrapper
            .on_accept(consumed_dummy, |i| decision.emit[i].is_some());
        for (idx, &e) in out_edges.iter().enumerate() {
            if let Some(payload) = decision.emit[idx] {
                state.pending.push_back((e, Message::Data { seq, payload }));
            }
            if dummies[idx] {
                // Under the heartbeat trigger a dummy may accompany a data
                // message with the same sequence number; consumers tolerate
                // this (the dummy simply carries no new information).
                state.pending.push_back((e, Message::Dummy { seq }));
            }
        }
    }

    /// Queues the dummies for a sequence number consumed without any data
    /// (the all-`None` analogue of [`Run::queue_outputs`] that does not
    /// build a [`FireDecision`]).
    fn queue_dummies_only(&mut self, node: NodeId, seq: u64, consumed_dummy: bool) {
        let out_edges = self.graph().out_edges(node);
        let state = &mut self.nodes[node.index()];
        let dummies = state.wrapper.on_accept(consumed_dummy, |_| false);
        for (idx, &e) in out_edges.iter().enumerate() {
            if dummies[idx] {
                state.pending.push_back((e, Message::Dummy { seq }));
            }
        }
    }

    /// Delivers as many pending outputs as channel capacities allow.
    ///
    /// Delivery is FIFO *per channel* but channels do not block one another:
    /// a full channel must not delay a dummy message destined for a
    /// different, empty channel (the deadlock-avoidance guarantee relies on
    /// the dummy getting out), so each output channel behaves like an
    /// independent blocking port.
    fn flush_pending(&mut self, node: NodeId) -> bool {
        let mut delivered = false;
        let mut blocked_edges = std::mem::take(&mut self.blocked_scratch);
        blocked_edges.clear();
        let mut i = 0;
        while i < self.nodes[node.index()].pending.len() {
            let (edge, message) = self.nodes[node.index()].pending[i];
            if blocked_edges.contains(&edge) {
                i += 1;
                continue;
            }
            let channel = &mut self.channels[edge.index()];
            if channel.len() >= self.capacities[edge.index()] {
                blocked_edges.push(edge);
                i += 1;
                continue;
            }
            if channel.is_empty() {
                self.filled.push(edge);
            }
            channel.push_back(message);
            self.nodes[node.index()].pending.remove(i);
            delivered = true;
            match message {
                Message::Data { .. } => {
                    self.report.data_messages += 1;
                    self.report.per_edge_data[edge.index()] += 1;
                }
                Message::Dummy { .. } => {
                    self.report.dummy_messages += 1;
                    self.report.per_edge_dummies[edge.index()] += 1;
                }
                Message::Eos => {}
            }
        }
        self.blocked_scratch = blocked_edges;
        if delivered {
            self.mark_done_if_drained(node);
        }
        delivered
    }

    fn mark_done_if_drained(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.index()];
        if state.eos_queued && state.pending.is_empty() {
            state.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{Broadcast, ModuloFilter, Predicate};
    use fila_avoidance::{Algorithm, Planner};
    use fila_graph::{Graph, GraphBuilder};

    fn fig2(buffer: u64) -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", buffer).unwrap();
        b.edge_with_capacity("B", "C", buffer).unwrap();
        b.edge_with_capacity("A", "C", buffer).unwrap();
        b.build().unwrap()
    }

    fn pipeline() -> Graph {
        let mut b = GraphBuilder::new();
        b.chain(&["src", "mid", "dst"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pipeline_without_filtering_completes() {
        let g = pipeline();
        let topo = Topology::from_graph(&g);
        let report = Simulator::new(&topo).run(100);
        assert!(report.completed);
        assert!(!report.deadlocked);
        assert_eq!(report.data_messages, 200);
        assert_eq!(report.dummy_messages, 0);
        assert_eq!(report.sink_firings, 100);
    }

    #[test]
    fn fig2_deadlocks_without_avoidance() {
        // A filters everything it sends to C; with finite buffers the
        // application deadlocks exactly as in Fig. 2 — under both schedulers.
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let topo = Topology::from_graph(&g)
            // A sends data to B always, to C never (out_edges(A) = [A->B, A->C]).
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        for scheduler in [Scheduler::Worklist, Scheduler::Scan] {
            let report = Simulator::new(&topo).scheduler(scheduler).run(1000);
            assert!(report.deadlocked, "{scheduler:?}: {report:?}");
            assert!(!report.completed);
            assert!(!report.blocked.is_empty());
        }
    }

    #[test]
    fn fig2_completes_with_propagation_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(1000);
        assert!(report.completed, "avoidance must prevent deadlock: {report:?}");
        assert!(!report.deadlocked);
        assert!(report.dummy_messages > 0, "dummies must actually flow");
    }

    #[test]
    fn fig2_completes_with_nonpropagation_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(1000);
        assert!(report.completed, "{report:?}");
        assert!(report.dummy_messages > 0);
    }

    #[test]
    fn periodic_filtering_with_plan_is_safe_at_tiny_buffers() {
        let g = fig2(1);
        let a = g.node_by_name("A").unwrap();
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let topo = Topology::from_graph(&g)
                .with(a, || Predicate::new(2, |seq, out| out == 0 || seq % 7 == 0));
            let report = Simulator::new(&topo).with_plan(&plan).run(500);
            assert!(report.completed, "{algorithm}: {report:?}");
        }
    }

    #[test]
    fn split_join_with_heavy_filtering_completes_with_plan() {
        // Fig. 1 style split/join where one recogniser keeps only a sliver
        // of the traffic: the classic filtering deadlock.
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
        // Without a plan the application deadlocks.
        let without = Simulator::new(&topo).run(2000);
        assert!(without.deadlocked, "{without:?}");
        // The filtering happens at the recognisers (interior nodes of the
        // cycle), which the Non-Propagation protocol handles.
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let with_plan = Simulator::new(&topo).with_plan(&plan).run(2000);
        assert!(with_plan.completed, "{with_plan:?}");
    }

    #[test]
    fn interior_filtering_defeats_the_literal_propagation_trigger() {
        // Reproduction finding (see the wrapper module docs): when the
        // filtering happens at an interior node of the empty path, the
        // literal "only after filtering" trigger never creates a dummy and
        // the deadlock persists; the heartbeat trigger prevents it.
        use crate::wrapper::PropagationTrigger;
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("split", "left", 4).unwrap();
        b.edge_with_capacity("split", "right", 4).unwrap();
        b.edge_with_capacity("left", "join", 4).unwrap();
        b.edge_with_capacity("right", "join", 4).unwrap();
        let g = b.build().unwrap();
        let split = g.node_by_name("split").unwrap();
        let right = g.node_by_name("right").unwrap();
        let topo = Topology::from_graph(&g)
            .with(split, || Broadcast::new(2))
            .with(right, || ModuloFilter::new(1, 64, 1));
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let literal = Simulator::new(&topo)
            .with_plan(&plan)
            .propagation_trigger(PropagationTrigger::OnFilterOnly)
            .run(2000);
        assert!(literal.deadlocked, "{literal:?}");
        // The Non-Propagation protocol handles interior filtering by
        // construction.
        let np_plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let np = Simulator::new(&topo).with_plan(&np_plan).run(2000);
        assert!(np.completed, "{np:?}");
    }

    #[test]
    fn dummy_traffic_is_bounded_by_data_traffic_shape() {
        // Propagation should send noticeably fewer dummies than the number
        // of filtered inputs when buffers are large.
        let g = fig2(16);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(1000);
        assert!(report.completed);
        // Interval on A->C is 32 (two hops of 16), so at most ~1000/32 + 1
        // dummies on that channel.
        let ac = g.edge_by_names("A", "C").unwrap();
        assert!(report.per_edge_dummies[ac.index()] <= 1000 / 32 + 2);
    }

    #[test]
    fn max_steps_yields_inconclusive_report() {
        let g = pipeline();
        let topo = Topology::from_graph(&g);
        for scheduler in [Scheduler::Worklist, Scheduler::Scan] {
            let report = Simulator::new(&topo)
                .scheduler(scheduler)
                .max_steps(5)
                .run(1_000_000);
            assert!(report.inconclusive(), "{scheduler:?}");
        }
    }

    #[test]
    fn zero_inputs_complete_immediately() {
        let g = fig2(2);
        let topo = Topology::from_graph(&g);
        let report = Simulator::new(&topo).run(0);
        assert!(report.completed);
        assert_eq!(report.data_messages, 0);
    }

    #[test]
    fn per_edge_counters_sum_to_totals() {
        let g = fig2(4);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |seq, out| out == 0 || seq % 3 == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(300);
        assert!(report.completed);
        assert_eq!(
            report.per_edge_data.iter().sum::<u64>(),
            report.data_messages
        );
        assert_eq!(
            report.per_edge_dummies.iter().sum::<u64>(),
            report.dummy_messages
        );
    }

    #[test]
    fn worklist_and_scan_agree_on_fig2_with_plans() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let topo = Topology::from_graph(&g)
                .with(a, || Predicate::new(2, |seq, out| out == 0 || seq % 5 == 0));
            let wl = Simulator::new(&topo).with_plan(&plan).run(500);
            let scan = Simulator::new(&topo)
                .with_plan(&plan)
                .scheduler(Scheduler::Scan)
                .run(500);
            assert_eq!(wl.completed, scan.completed, "{algorithm}");
            assert_eq!(wl.deadlocked, scan.deadlocked, "{algorithm}");
            assert_eq!(wl.per_edge_data, scan.per_edge_data, "{algorithm}");
            assert_eq!(wl.per_edge_dummies, scan.per_edge_dummies, "{algorithm}");
            assert_eq!(wl.sink_firings, scan.sink_firings, "{algorithm}");
        }
    }

    #[test]
    fn worklist_matches_scan_on_a_deep_pipeline() {
        // On an N-node pipeline the worklist only ever visits nodes that a
        // channel event marked as possibly runnable, while the scan pays an
        // O(N) sweep to find each runnable node; both must deliver exactly
        // the same messages.
        let names: Vec<String> = (0..64).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = GraphBuilder::new();
        b.chain(&refs).unwrap();
        let g = b.build().unwrap();
        let topo = Topology::from_graph(&g);
        let wl = Simulator::new(&topo).run(10);
        let scan = Simulator::new(&topo).scheduler(Scheduler::Scan).run(10);
        assert!(wl.completed && scan.completed);
        assert_eq!(wl.per_edge_data, scan.per_edge_data);
        assert_eq!(wl.sink_firings, scan.sink_firings);
    }

    #[test]
    fn shared_plan_runs_like_owned_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let shared = std::sync::Arc::new(plan.clone());
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let owned = Simulator::new(&topo).with_plan(&plan).run(400);
        let arced = Simulator::new(&topo).with_shared_plan(shared).run(400);
        assert_eq!(owned.completed, arced.completed);
        assert_eq!(owned.per_edge_data, arced.per_edge_data);
        assert_eq!(owned.per_edge_dummies, arced.per_edge_dummies);
    }
}
