//! The per-node task core of the pooled execution engine.
//!
//! A [`Task`] is everything one compute node needs to run cooperatively on a
//! worker pool: its behaviour, its dummy wrapper, the owned endpoints of its
//! input and output rings, the two-slot output staging queues, and the
//! per-node progress counters.  [`run_task`] is the pool's one acceptance
//! loop; it follows [`crate::Simulator`]'s per-node semantics exactly (same
//! acceptance rule, same per-channel independent delivery), so the pool is
//! confluent to the same terminal state as the simulator.
//!
//! [`crate::SharedPool`] schedules these tasks (how they are queued, woken
//! and how verdicts are detected); everything a task does while it holds a
//! worker lives here.
//!
//! ## Run loop
//!
//! Rings carry [`Batch`] containers, and [`run_task`] drains **whole runs**
//! between scheduler interactions: one acceptance scan per run, bulk
//! consumption of RLE dummy runs with the wrapper's run arithmetic, one
//! producer-wake check per input per run, and one ring push per staged
//! container.
//!
//! Batching never changes semantics: capacity is accounted in *messages*
//! (see [`crate::spsc::MsgCap`]), staging is allowed only while everything
//! already staged is deliverable — preserving a one-message-per-firing
//! engine's exactly one-firing overshoot on a full channel — and the
//! Kahn-network confluence of the model does the rest: verdicts, per-edge
//! counts and checkpoint barriers are identical across batching limits.
//!
//! ## Barrier alignment
//!
//! While a barrier snapshot with barrier `k` is pending, the same loop runs
//! with `k` as a stop: a source stops producing at `min(inputs, k)`, and
//! the interior bulk paths split runs at `k`.  One rule,
//! [`Task::aligned`], decides when a task contributes: the next sequence
//! number it would consume or produce is `≥ k`, and no output it accepted
//! before `k` is still staged.  An interior task whose input scan reaches
//! `k` with pre-barrier output staged ends its run; `run_task` flushes,
//! and the next scan contributes with empty staging.

use std::sync::Mutex;

use fila_graph::NodeId;

use crate::checkpoint::{JobSnapshot, NodeSnapshot, RestoreError};
use crate::container::{Batch, Batching, Run};
use crate::message::{Message, Payload};
use crate::node::{FireInput, NodeBehavior};
use crate::report::{BlockedInfo, BlockedReason, ExecutionReport};
use crate::spsc::{self, MsgCap};
use crate::topology::Topology;
use crate::wrapper::{AvoidanceMode, DummyWrapper, PropagationTrigger, RunDummies};

/// The two-slot output staging area of one port.
///
/// `first` is the older container; `second` exists only when a message could
/// not extend `first` (container at its limit, or a message out of order
/// for it).
#[derive(Default)]
pub(crate) struct Stage {
    pub(crate) first: Option<Batch>,
    pub(crate) second: Option<Batch>,
}

impl Stage {
    /// Staged messages (not containers).
    pub(crate) fn len(&self) -> usize {
        self.first.as_ref().map_or(0, Batch::len) + self.second.as_ref().map_or(0, Batch::len)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none() && self.second.is_none()
    }

    /// Appends one message to the newest staged container, opening a second
    /// container when the newest cannot take it.  The run loops bound
    /// staging by `limit` *before* accepting, so the overflow chain never
    /// exceeds two containers.
    pub(crate) fn stage(&mut self, limit: usize, m: Message) {
        let m = if let Some(c) = &mut self.second {
            match c.try_push(limit, m) {
                Ok(()) => return,
                Err(_) => unreachable!("staging past the bounded overflow container"),
            }
        } else if let Some(c) = &mut self.first {
            match c.try_push(limit, m) {
                Ok(()) => return,
                Err(m) => m,
            }
        } else {
            self.first = Some(Batch::from_message(m));
            return;
        };
        self.second = Some(Batch::from_message(m));
    }

    /// Sequence number of the oldest staged message, if any.
    fn front_seq(&self) -> Option<u64> {
        [&self.first, &self.second]
            .into_iter()
            .flatten()
            .find(|c| !c.is_empty())
            .map(|c| c.front().seq())
    }

    /// Visits every staged message front to back (checkpoint flattening).
    pub(crate) fn for_each(&self, f: &mut dyn FnMut(Message)) {
        if let Some(c) = &self.first {
            c.for_each(f);
        }
        if let Some(c) = &self.second {
            c.for_each(f);
        }
    }
}

/// One input channel of a task.
pub(crate) struct InPort {
    pub(crate) rx: spsc::Consumer<Batch>,
    pub(crate) edge: u32,
    /// Node index of the channel's producer (the task to wake when a pop
    /// makes the channel non-full).
    pub(crate) producer: u32,
    /// Batched-run scratch: set when the current run consumed from this
    /// port, so the producer waiting flag is checked once per run instead of
    /// once per message (always false between runs).
    touched: bool,
}

/// One output channel of a task, with its staging queue and the
/// producer-side delivery counters (each edge has exactly one producer, so
/// the counters need no atomics).
pub(crate) struct OutPort {
    pub(crate) tx: spsc::Producer<Batch>,
    pub(crate) edge: u32,
    /// Node index of the channel's consumer (the task to wake when a push
    /// makes the channel non-empty).
    pub(crate) consumer: u32,
    pub(crate) queue: Stage,
    /// Messages a staged container may hold: the batching limit clamped to
    /// the edge capacity, so a full container always fits its ring.
    pub(crate) limit: usize,
    pub(crate) data: u64,
    pub(crate) dummies: u64,
}

/// The per-node task state: everything [`crate::Simulator`] keeps per node,
/// plus the owned channel endpoints.
pub(crate) struct Task {
    pub(crate) is_source: bool,
    pub(crate) done: bool,
    pub(crate) eos_queued: bool,
    pub(crate) next_source_seq: u64,
    /// Messages currently staged across all output port queues.
    pub(crate) staged: usize,
    pub(crate) behavior: Box<dyn NodeBehavior>,
    pub(crate) wrapper: DummyWrapper,
    pub(crate) ins: Vec<InPort>,
    pub(crate) outs: Vec<OutPort>,
    /// Reusable per-firing scratch, aligned with `ins`.
    pub(crate) data_in: Vec<Option<Payload>>,
    /// Reusable per-firing decision scratch, aligned with `outs` (filled by
    /// [`NodeBehavior::fire_into`], read by the staging loop).
    pub(crate) emit: Vec<Option<Payload>>,
    pub(crate) firings: u64,
    pub(crate) sink_firings: u64,
    /// Epoch of the last barrier snapshot this task contributed to (0 =
    /// never); guarded by the task mutex like the rest of the state.
    pub(crate) snap_epoch: u64,
}

impl Task {
    /// Diagnoses what this (blocked, not-done) task is waiting on: a full
    /// output channel wins over an empty input (undelivered staged messages
    /// block everything else), mirroring the deadlock report's per-node
    /// diagnosis.  `None` if neither applies (e.g. the task is done).
    pub(crate) fn blocked_on(&self) -> Option<BlockedReason> {
        if let Some(port) = self.outs.iter().find(|p| !p.queue.is_empty()) {
            return Some(BlockedReason::WaitingForSpace(edge_id(port.edge)));
        }
        self.ins
            .iter()
            .find(|p| p.rx.is_empty())
            .map(|port| BlockedReason::WaitingForInput(edge_id(port.edge)))
    }

    /// Total messages this task has delivered onto its output rings (EOS
    /// markers excluded) — the basis of per-slice telemetry attribution.
    pub(crate) fn delivered(&self) -> u64 {
        self.outs.iter().map(|p| p.data + p.dummies).sum()
    }

    /// Writes this task's out-port delivery counters into the per-edge
    /// tables (each edge has exactly one producer).
    pub(crate) fn record_counters(&self, per_edge_data: &mut [u64], per_edge_dummies: &mut [u64]) {
        for port in &self.outs {
            per_edge_data[port.edge as usize] = port.data;
            per_edge_dummies[port.edge as usize] = port.dummies;
        }
    }

    /// This task's progress as a [`NodeSnapshot`], staged containers
    /// flattened to the per-message `FILASNAP` wire form so batched
    /// snapshots restore anywhere.
    pub(crate) fn snapshot(&self) -> NodeSnapshot {
        let mut staged = Vec::new();
        for port in &self.outs {
            port.queue.for_each(&mut |m| staged.push((port.edge, m)));
        }
        NodeSnapshot {
            gaps: self.wrapper.gaps().to_vec(),
            next_source_seq: self.next_source_seq,
            eos_queued: self.eos_queued,
            done: self.done,
            firings: self.firings,
            sink_firings: self.sink_firings,
            staged,
        }
    }

    /// Restores a freshly built task to `node`, its state in `snapshot`:
    /// progress counters, wrapper gaps, its out-edges' delivery counters
    /// and channel contents, and its staged outputs re-packed into
    /// containers.  A blob that does not fit the task is a typed error,
    /// never a panic.
    pub(crate) fn restore(
        &mut self,
        node: &NodeSnapshot,
        snapshot: &JobSnapshot,
    ) -> Result<(), RestoreError> {
        self.next_source_seq = node.next_source_seq;
        self.eos_queued = node.eos_queued;
        self.done = node.done;
        self.firings = node.firings;
        self.sink_firings = node.sink_firings;
        self.wrapper.restore_gaps(&node.gaps);
        for port in &mut self.outs {
            port.data = snapshot.per_edge_data[port.edge as usize];
            port.dummies = snapshot.per_edge_dummies[port.edge as usize];
            for &message in &snapshot.channels[port.edge as usize] {
                // `validate_for` bounds channel lengths by ring capacity,
                // but a hostile/corrupted blob must degrade to a typed
                // error, never a panic on the restore path.  One unit
                // container per wire message always fits: the ring has
                // one slot per modelled message of capacity.
                if port.tx.push(Batch::from_message(message)).is_err() {
                    return Err(RestoreError::Corrupted(
                        "restored channel overflows ring capacity".into(),
                    ));
                }
            }
        }
        for &(edge, message) in &node.staged {
            let Some(port) = self.outs.iter_mut().find(|p| p.edge == edge) else {
                return Err(RestoreError::Corrupted(
                    "staged message on an edge the node does not produce".into(),
                ));
            };
            // Re-pack the wire-form staged list (per-port, in order) into
            // containers.  No limit here: a batched capture may have
            // staged more messages than this engine's per-push limit, and
            // delivery re-splits by ring space anyway.
            let use_second = port.queue.second.is_some();
            let slot = if use_second {
                &mut port.queue.second
            } else {
                &mut port.queue.first
            };
            let rejected = match slot {
                Some(batch) => batch.try_push(usize::MAX, message).is_err(),
                None => {
                    *slot = Some(Batch::from_message(message));
                    false
                }
            };
            if rejected {
                // Out of sequence order within the open container: the
                // capture engines never produce this mid-port, so at most
                // one fresh container absorbs it (data-then-dummy
                // boundaries); anything further is a corrupted blob.
                if use_second {
                    return Err(RestoreError::Corrupted(
                        "staged messages out of sequence order".into(),
                    ));
                }
                port.queue.second = Some(Batch::from_message(message));
            }
            self.staged += 1;
        }
        Ok(())
    }

    /// The barrier-alignment rule, the one place it is written: the task
    /// may contribute to a snapshot with barrier `barrier` once the next
    /// sequence number it would consume or produce is `≥ barrier` **and**
    /// no output it accepted before the barrier is still staged.
    ///
    /// The next sequence number is the source cursor for a source, the
    /// maximal EOS number for a task that queued its EOS markers, and for
    /// an interior task the acceptance number `accept_seq` its input scan
    /// found (`None` outside a scan: not aligned).  Staged pre-barrier
    /// outputs must be delivered — and counted at the consumer's own
    /// alignment — before the task's counters are frozen, or a restore
    /// would deliver them a second time to a consumer that already
    /// processed them.
    pub(crate) fn aligned(&self, barrier: u64, accept_seq: Option<u64>) -> bool {
        let next = if self.done || self.eos_queued {
            u64::MAX
        } else if self.is_source {
            self.next_source_seq
        } else {
            match accept_seq {
                Some(seq) => seq,
                None => return false,
            }
        };
        next >= barrier
            && self
                .outs
                .iter()
                .all(|port| port.queue.front_seq().map_or(true, |seq| seq >= barrier))
    }
}

/// A pending barrier snapshot, as seen from inside [`run_task`].
///
/// The [`crate::SharedPool`] implements this for its per-job snapshot
/// collection state (see `shared_pool`): `pending()` returns the epoch of
/// the snapshot being collected (0 = none — the fast path is one atomic
/// load per firing), `barrier()` the barrier sequence number `k`, and
/// `contribute` captures the task's state into the collection buffer.  The
/// caller always holds the task mutex when invoking `contribute`.
pub(crate) trait SnapSink {
    fn pending(&self) -> u64;
    fn barrier(&self) -> u64;
    fn contribute(&self, task: &mut Task);
}

/// The pending snapshot `task` has not contributed to yet, as
/// `(epoch, barrier)`.
fn uncontributed(task: &Task, snap: &dyn SnapSink) -> Option<(u64, u64)> {
    let epoch = snap.pending();
    (epoch != 0 && task.snap_epoch != epoch).then(|| (epoch, snap.barrier()))
}

/// Contributes `task` to a pending snapshot if it is *already aligned*
/// without consuming anything further (see [`Task::aligned`]).  Interior
/// tasks still consuming input align at acceptance time instead, inside
/// [`interior_run`]'s scan.
fn contribute_if_aligned(task: &mut Task, snap: &dyn SnapSink) {
    if let Some((epoch, barrier)) = uncontributed(task, snap) {
        if task.aligned(barrier, None) {
            task.snap_epoch = epoch;
            snap.contribute(task);
        }
    }
}

/// What a task run ended with.
pub(crate) enum Outcome {
    /// The node reached end-of-stream and drained its outputs.
    Done,
    /// The batch limit was hit while the task could still progress.
    Yielded,
    /// The task cannot progress until a channel event wakes it (its waiting
    /// flags are registered).
    Blocked,
}

/// Builds one [`Task`] per node of `topology`: an SPSC ring per edge with
/// the endpoints moved into the unique producing / consuming task, a fresh
/// behaviour instance per node, and the per-node dummy-wrapper state for
/// `mode`/`trigger`.  `batching` sets the per-container message limit
/// (clamped per edge to the channel capacity).
pub(crate) fn build_tasks(
    topology: &Topology,
    mode: &AvoidanceMode,
    trigger: PropagationTrigger,
    batching: Batching,
) -> Vec<Task> {
    let g = topology.graph();
    let edge_count = g.edge_count();
    let limit = batching.limit();
    let mut producers: Vec<Option<spsc::Producer<Batch>>> = Vec::with_capacity(edge_count);
    let mut consumers: Vec<Option<spsc::Consumer<Batch>>> = Vec::with_capacity(edge_count);
    for e in g.edge_ids() {
        // Channel capacity is modelled in messages; `MsgCap` keeps the unit
        // explicit at every ring construction site.
        let (tx, rx) = spsc::ring(MsgCap::new(g.capacity(e) as usize));
        producers.push(Some(tx));
        consumers.push(Some(rx));
    }
    g.node_ids()
        .zip(topology.build_behaviors())
        .map(|(n, behavior)| {
            let ins = g
                .in_edges(n)
                .iter()
                .map(|&e| InPort {
                    rx: consumers[e.index()].take().expect("one consumer per edge"),
                    edge: e.index() as u32,
                    producer: g.tail(e).index() as u32,
                    touched: false,
                })
                .collect::<Vec<_>>();
            let outs = g
                .out_edges(n)
                .iter()
                .map(|&e| OutPort {
                    tx: producers[e.index()].take().expect("one producer per edge"),
                    edge: e.index() as u32,
                    consumer: g.head(e).index() as u32,
                    queue: Stage::default(),
                    limit: limit.min(g.capacity(e) as usize),
                    data: 0,
                    dummies: 0,
                })
                .collect::<Vec<_>>();
            let data_in = vec![None; ins.len()];
            let emit = vec![None; outs.len()];
            Task {
                is_source: ins.is_empty(),
                done: false,
                eos_queued: false,
                next_source_seq: 0,
                staged: 0,
                behavior,
                wrapper: DummyWrapper::with_trigger(g, n, mode, trigger),
                ins,
                outs,
                data_in,
                emit,
                firings: 0,
                sink_firings: 0,
                snap_epoch: 0,
            }
        })
        .collect()
}

/// Runs one task for up to `batch` accepted sequence numbers.  `wake`
/// receives the node index of every peer task a channel event of this run
/// made runnable.  `snap` is checked before every run and at acceptance
/// time inside the run loops, so a task never crosses a pending snapshot
/// barrier without contributing its aligned state first.
///
/// The loop flushes, then drains runs while staging stays within both the
/// container limit and the deliverable space of every output (plus one
/// overshooting acceptance, the shape of a blocking send), so blocking
/// behaviour — and with it every deadlock verdict — matches the
/// simulator's.
pub(crate) fn run_task(
    task: &mut Task,
    inputs: u64,
    batch: u32,
    wake: &mut dyn FnMut(u32),
    snap: &dyn SnapSink,
) -> Outcome {
    let mut accepted: u32 = 0;
    loop {
        // Deliver leftover staged output *before* the alignment check: a
        // task contributes only once its pre-barrier outputs have shipped.
        flush(task, wake);
        mark_done_if_drained(task);
        contribute_if_aligned(task, snap);
        if task.done {
            return Outcome::Done;
        }
        if task.staged > 0 {
            // Some channel is full; `flush` registered the waiting flags.
            return Outcome::Blocked;
        }
        if accepted >= batch {
            return Outcome::Yielded;
        }
        let progressed = if task.is_source {
            source_run(task, inputs, &mut accepted, batch, snap)
        } else {
            let progressed = interior_run(task, &mut accepted, batch, snap);
            // One producer-wake check per consumed input for the whole run
            // (the Dekker begin-wait/retry protocol makes the deferral
            // lose no wakeups: a producer parking meanwhile re-reads the
            // indices our consumption already published).
            for port in &mut task.ins {
                if port.touched {
                    port.touched = false;
                    if port.rx.take_producer_waiting() {
                        wake(port.producer);
                    }
                }
            }
            progressed
        };
        if !progressed {
            debug_assert!(!task.is_source, "sources always progress when runnable");
            return Outcome::Blocked;
        }
    }
}

/// True while every output port can take another acceptance: its staged
/// queue is under the container limit and everything already staged is
/// deliverable right now.  The *first* acceptance after a flush always
/// passes (the queue is empty), so a full channel still receives exactly
/// one overshooting acceptance — the blocking shape of a one-message send.
fn outputs_have_room(task: &Task) -> bool {
    task.outs.iter().all(|port| {
        let len = port.queue.len();
        len < port.limit && len <= port.tx.space_msgs()
    })
}

/// Drains acceptances for a non-source task until the budget, the staging
/// room or an input runs out.  Returns false (with a waiting flag
/// registered) only when no acceptance happened at all.
fn interior_run(task: &mut Task, accepted: &mut u32, batch: u32, snap: &dyn SnapSink) -> bool {
    let mut progressed = false;
    'run: while *accepted < batch && outputs_have_room(task) {
        // Acceptance scan: one pass over the input heads.
        let mut accept_seq = u64::MAX;
        for port in &mut task.ins {
            let head = match port.rx.front_msg() {
                Some(m) => m,
                None if progressed => break 'run,
                None => match port.rx.front_msg_or_register() {
                    Some(m) => m,
                    None => return false,
                },
            };
            accept_seq = accept_seq.min(head.seq());
        }
        // Acceptance-time barrier alignment: a snapshot epoch can be
        // published *mid-run* (after `run_task`'s check), and a head with
        // seq ≥ barrier proves the publication happened-before its arrival
        // — so it must not be consumed until this task's pre-barrier state
        // is contributed.  Outputs this run accepted before the barrier are
        // still staged then: end the run, and after `run_task`'s flush the
        // next scan contributes with empty staging.
        let mut barrier = u64::MAX;
        if let Some((epoch, b)) = uncontributed(task, snap) {
            if accept_seq < b {
                barrier = b;
            } else if task.aligned(b, Some(accept_seq)) {
                task.snap_epoch = epoch;
                snap.contribute(task);
            } else {
                debug_assert!(progressed, "staged output implies an acceptance this run");
                break 'run;
            }
        }
        if accept_seq == u64::MAX {
            // End of stream on every input.
            for port in &mut task.outs {
                port.queue.stage(port.limit, Message::Eos);
                task.staged += 1;
            }
            task.eos_queued = true;
            progressed = true;
            break 'run;
        }

        // Bulk path: a single input whose head starts a dummy run is
        // accepted a run at a time — gap counters move by run arithmetic
        // and forwarded dummies are staged as one RLE segment.
        if task.ins.len() == 1 {
            if let Some(Run::Dummies { first, len }) = task.ins[0]
                .rx
                .front_mut()
                .expect("head checked non-empty")
                .front_run()
            {
                debug_assert_eq!(first, accept_seq);
                // A pending, uncontributed barrier splits the run: consume
                // only the pre-barrier prefix, so the next scan lands on
                // the barrier sequence and contributes before crossing.
                let mut n = len
                    .min(u64::from(batch - *accepted))
                    .min(barrier - first);
                for out in &task.outs {
                    let qlen = out.queue.len() as u64;
                    n = n
                        .min(out.limit as u64 - qlen)
                        .min((out.tx.space_msgs() as u64).saturating_sub(qlen) + 1);
                }
                debug_assert!(n >= 1, "room was checked before the scan");
                let port = &mut task.ins[0];
                let container = port.rx.front_mut().expect("head checked non-empty");
                container.consume_dummies(n);
                let exhausted = container.is_empty();
                port.rx.release_msgs(n as usize);
                if exhausted {
                    port.rx.advance_exhausted();
                }
                port.touched = true;
                let Task {
                    wrapper,
                    outs,
                    staged,
                    ..
                } = task;
                wrapper.on_accept_dummy_run(n, |i, run| {
                    let out = &mut outs[i];
                    match run {
                        RunDummies::None => {}
                        RunDummies::All => {
                            stage_dummy_run(out, first, n);
                            *staged += n as usize;
                        }
                        RunDummies::Periodic { first: p0, period } => {
                            let mut p = p0;
                            while p < n {
                                out.queue.stage(out.limit, Message::Dummy { seq: first + p });
                                *staged += 1;
                                p += period;
                            }
                        }
                    }
                });
                *accepted += n as u32;
                progressed = true;
                continue 'run;
            }
        }

        // Bulk path: a single-input node whose head starts a *data* run and
        // which stages on at most one output — a pipeline stage or a sink —
        // fires a tight burst: ring atomics (capacity release, the producer
        // wake check) and the room refresh are paid once per burst, and the
        // per-message work reduces to segment-cursor moves, the behaviour
        // call and the staging push.
        if task.ins.len() == 1 && task.outs.len() <= 1 {
            let burst = data_burst(task, accepted, batch, barrier);
            if burst > 0 {
                progressed = true;
                continue 'run;
            }
        }

        // Per-sequence path (multi-input alignment or a data head).
        task.data_in.fill(None);
        let mut consumed_dummy = false;
        for (idx, port) in task.ins.iter_mut().enumerate() {
            let head = port.rx.front_msg().expect("all heads checked non-empty");
            if head.seq() != accept_seq {
                continue;
            }
            port.rx.pop_msg();
            port.touched = true;
            match head {
                Message::Data { payload, .. } => task.data_in[idx] = Some(payload),
                Message::Dummy { .. } => consumed_dummy = true,
                Message::Eos => unreachable!("EOS has maximal sequence number"),
            }
        }
        if task.data_in.iter().any(Option::is_some) {
            if task.outs.is_empty() {
                task.sink_firings += 1;
            }
            task.firings += 1;
            let Task {
                behavior,
                data_in,
                emit,
                ..
            } = task;
            behavior.fire_into(
                &FireInput {
                    seq: accept_seq,
                    data_in,
                },
                emit,
            );
            queue_outputs(task, accept_seq, true, consumed_dummy);
        } else {
            queue_outputs(task, accept_seq, false, consumed_dummy);
        }
        *accepted += 1;
        progressed = true;
    }
    progressed
}

/// Fires the data prefix of a single-input, at-most-one-output task's head
/// container as one burst; returns the number of messages consumed (0 when
/// the head is not data — the caller falls back to the general paths).
///
/// The caller has verified the acceptance preconditions for the *first*
/// message (head non-empty, `outputs_have_room`, budget, pre-barrier);
/// every later iteration re-checks them with burst-local state: the output
/// room against a once-read `space_msgs` snapshot (stale is smaller is
/// conservative — the burst just ends early and the outer loop re-checks),
/// the barrier against each message's own sequence number.
fn data_burst(
    task: &mut Task,
    accepted: &mut u32,
    batch: u32,
    barrier: u64,
) -> usize {
    let Task {
        ins,
        outs,
        behavior,
        wrapper,
        data_in,
        emit,
        staged,
        firings,
        sink_firings,
        ..
    } = task;
    let port = &mut ins[0];
    let space = outs.first().map_or(usize::MAX, |o| o.tx.space_msgs());
    let mut took = 0usize;
    let exhausted = {
        let container = port.rx.front_mut().expect("head checked non-empty");
        while *accepted < batch {
            if let [out] = &outs[..] {
                let len = out.queue.len();
                if !(len < out.limit && len <= space) {
                    break;
                }
            }
            let Some(Run::Data { seq, payload }) = container.front_run() else {
                break;
            };
            if seq >= barrier {
                // An uncontributed pending barrier splits the burst; the
                // next acceptance scan lands on `seq` and contributes.
                break;
            }
            container.consume_data();
            data_in[0] = Some(payload);
            *firings += 1;
            if outs.is_empty() {
                *sink_firings += 1;
            }
            behavior.fire_into(&FireInput { seq, data_in }, emit);
            stage_decision(wrapper, outs, staged, emit, seq, true, false);
            *accepted += 1;
            took += 1;
        }
        container.is_empty()
    };
    if took > 0 {
        port.rx.release_msgs(took);
        if exhausted {
            port.rx.advance_exhausted();
        }
        port.touched = true;
    }
    took
}

/// Stages a run of `n` forwarded dummies at `first..first + n` on one port
/// as a single RLE segment (the caller bounded `n` by the queue room).
fn stage_dummy_run(out: &mut OutPort, first: u64, n: u64) {
    let slot = if out.queue.second.is_some() {
        &mut out.queue.second
    } else {
        &mut out.queue.first
    };
    let container = slot.get_or_insert_with(Batch::new);
    let took = container.push_dummy_run(out.limit, first, n);
    debug_assert_eq!(took, n, "bulk dummy staging was bounded by queue room");
}

/// Drains source firings until the budget or the staging room runs out,
/// stopping at the barrier of a pending snapshot the source has not
/// contributed to (it contributes there, once its staging drained); stages
/// the EOS markers (once, with empty staging queues, like the simulator)
/// when the input supply is exhausted.
fn source_run(
    task: &mut Task,
    inputs: u64,
    accepted: &mut u32,
    batch: u32,
    snap: &dyn SnapSink,
) -> bool {
    let end = uncontributed(task, snap).map_or(inputs, |(_, barrier)| barrier.min(inputs));
    let mut progressed = false;
    while *accepted < batch && task.next_source_seq < end && outputs_have_room(task) {
        let seq = task.next_source_seq;
        task.next_source_seq += 1;
        task.firings += 1;
        task.behavior
            .fire_into(&FireInput { seq, data_in: &[] }, &mut task.emit);
        queue_outputs(task, seq, true, false);
        *accepted += 1;
        progressed = true;
    }
    if task.next_source_seq >= inputs && !task.eos_queued && task.staged == 0 && *accepted < batch
    {
        task.eos_queued = true;
        for port in &mut task.outs {
            port.queue.stage(port.limit, Message::Eos);
            task.staged += 1;
        }
        progressed = true;
    }
    progressed
}

/// Delivers as many staged containers as ring capacities allow; FIFO per
/// channel, channels independent.  Registers the producer waiting flag
/// (with the mandatory retry) on every channel that stays full, and wakes
/// the consumer of every channel this delivery made non-empty.  The
/// delivery counters advance by the *messages* that shipped (a container
/// can deliver partially, split at the remaining message capacity).
fn flush(task: &mut Task, wake: &mut dyn FnMut(u32)) {
    if task.staged == 0 {
        return;
    }
    for port in &mut task.outs {
        loop {
            if port.queue.first.is_none() {
                port.queue.first = port.queue.second.take();
                if port.queue.first.is_none() {
                    break;
                }
            }
            let (d0, u0) = port.queue.first.as_ref().map_or((0, 0), |c| c.counts());
            let n = port.tx.deliver_or_register(&mut port.queue.first);
            if n == 0 {
                // Port still full; the registration stays active and the
                // consumer's next pop wakes this task.
                break;
            }
            task.staged -= n;
            let (d1, u1) = port.queue.first.as_ref().map_or((0, 0), |c| c.counts());
            port.data += d0 - d1;
            port.dummies += u0 - u1;
            if port.tx.take_consumer_waiting() {
                wake(port.consumer);
            }
            if port.queue.first.is_some() {
                // Partial delivery: the remainder stays staged, registered.
                break;
            }
        }
    }
}

fn mark_done_if_drained(task: &mut Task) {
    if task.eos_queued && task.staged == 0 {
        task.done = true;
    }
}

/// Stages the data and dummy messages produced for one accepted sequence
/// number (`fired` is false when the node consumed only dummies and emits
/// no data; when true the decision sits in the task's `emit` scratch).
fn queue_outputs(task: &mut Task, seq: u64, fired: bool, consumed_dummy: bool) {
    let Task {
        wrapper,
        outs,
        staged,
        emit,
        ..
    } = task;
    stage_decision(wrapper, outs, staged, emit, seq, fired, consumed_dummy);
}

/// [`queue_outputs`] on split borrows, for callers already holding other
/// task fields (the batched data-burst loop).
fn stage_decision(
    wrapper: &mut DummyWrapper,
    outs: &mut [OutPort],
    staged: &mut usize,
    emit: &[Option<Payload>],
    seq: u64,
    fired: bool,
    consumed_dummy: bool,
) {
    let dummies = wrapper.on_accept(consumed_dummy, |i| fired && emit[i].is_some());
    for (idx, port) in outs.iter_mut().enumerate() {
        if fired {
            if let Some(payload) = emit[idx] {
                port.queue.stage(port.limit, Message::Data { seq, payload });
                *staged += 1;
            }
        }
        if dummies[idx] {
            // Under the heartbeat trigger a dummy may accompany a data
            // message carrying the same sequence number.
            port.queue.stage(port.limit, Message::Dummy { seq });
            *staged += 1;
        }
    }
}

/// Assembles the [`ExecutionReport`] of a finished (or deadlocked) task set:
/// per-edge delivery counters, firing totals and — for deadlocks — the
/// blocked-node diagnoses.
pub(crate) fn assemble_report(
    tasks: &[Mutex<Task>],
    edge_count: usize,
    inputs: u64,
    deadlocked: bool,
) -> ExecutionReport {
    let mut report = ExecutionReport {
        completed: !deadlocked,
        deadlocked,
        inputs_offered: inputs,
        per_edge_data: vec![0; edge_count],
        per_edge_dummies: vec![0; edge_count],
        per_node_firings: vec![0; tasks.len()],
        ..Default::default()
    };
    for (idx, task) in tasks.iter().enumerate() {
        // Tolerate poisoning: a panicked behaviour may have left its task
        // mutex poisoned, but the counters are still meaningful.
        let task = task
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        report.steps += task.firings;
        report.per_node_firings[idx] = task.firings;
        report.sink_firings += task.sink_firings;
        task.record_counters(&mut report.per_edge_data, &mut report.per_edge_dummies);
        if deadlocked && !task.done {
            if let Some(reason) = task.blocked_on() {
                report.blocked.push(BlockedInfo {
                    node: NodeId::from_raw(idx as u32),
                    reason,
                });
            }
        }
    }
    report.data_messages = report.per_edge_data.iter().sum();
    report.dummy_messages = report.per_edge_dummies.iter().sum();
    report
}

fn edge_id(raw: u32) -> fila_graph::EdgeId {
    fila_graph::EdgeId::from_raw(raw)
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use fila_graph::GraphBuilder;

    use super::*;

    const INPUTS: u64 = 16;

    /// `src → mid → dst`, capacity 64, one `Task` per node in that order.
    fn pipeline_tasks() -> Vec<Task> {
        let mut b = GraphBuilder::new().default_capacity(64);
        b.chain(&["src", "mid", "dst"]).unwrap();
        let g = b.build().unwrap();
        build_tasks(
            &Topology::from_graph(&g),
            &AvoidanceMode::Disabled,
            PropagationTrigger::default(),
            Batching::Messages(64),
        )
    }

    /// What a task looked like when it contributed.
    struct Contribution {
        is_source: bool,
        barrier: u64,
        cursor: u64,
        firings: u64,
        staged: Vec<Message>,
    }

    /// A single-threaded scripted snapshot: on its `publish_at`-th
    /// `pending()` call it publishes epoch 1 — with the barrier at the
    /// cursor of `src` when one is held, else at the preset barrier — and
    /// then runs `src` on for 4 firings, so post-barrier messages reach the
    /// consumer mid-run.
    struct ScriptedSnap {
        publish_at: u32,
        calls: Cell<u32>,
        epoch: Cell<u64>,
        barrier: Cell<u64>,
        src: Option<RefCell<Task>>,
        contributions: RefCell<Vec<Contribution>>,
    }

    impl ScriptedSnap {
        fn new(publish_at: u32, barrier: u64, src: Option<Task>) -> Self {
            ScriptedSnap {
                publish_at,
                calls: Cell::new(0),
                epoch: Cell::new(0),
                barrier: Cell::new(barrier),
                src: src.map(RefCell::new),
                contributions: RefCell::new(Vec::new()),
            }
        }
    }

    impl SnapSink for ScriptedSnap {
        fn pending(&self) -> u64 {
            self.calls.set(self.calls.get() + 1);
            if self.epoch.get() == 0 && self.calls.get() == self.publish_at {
                self.epoch.set(1);
                if let Some(src) = &self.src {
                    let mut src = src.borrow_mut();
                    self.barrier.set(src.next_source_seq);
                    run_task(&mut src, INPUTS, 4, &mut |_| {}, self);
                }
            }
            self.epoch.get()
        }

        fn barrier(&self) -> u64 {
            self.barrier.get()
        }

        fn contribute(&self, task: &mut Task) {
            let mut staged = Vec::new();
            for port in &task.outs {
                port.queue.for_each(&mut |m| staged.push(m));
            }
            self.contributions.borrow_mut().push(Contribution {
                is_source: task.is_source,
                barrier: self.barrier.get(),
                cursor: task.next_source_seq,
                firings: task.firings,
                staged,
            });
        }
    }

    #[test]
    fn interior_task_contributes_with_no_pre_barrier_output_staged() {
        // The epoch is published at each of `mid`'s first three `pending()`
        // checks; in each case the run has pre-barrier messages in flight
        // when the post-barrier head arrives.
        for publish_at in 1..=3 {
            let mut tasks = pipeline_tasks();
            let _dst = tasks.pop().unwrap();
            let mut mid = tasks.pop().unwrap();
            let mut src = tasks.pop().unwrap();
            let idle = ScriptedSnap::new(u32::MAX, 0, None);
            run_task(&mut src, INPUTS, 4, &mut |_| {}, &idle);
            assert_eq!(src.next_source_seq, 4);

            let snap = ScriptedSnap::new(publish_at, 0, Some(src));
            run_task(&mut mid, INPUTS, 64, &mut |_| {}, &snap);
            let contributions = snap.contributions.borrow();
            assert_eq!(
                contributions.len(),
                2,
                "publish_at {publish_at}: src and mid"
            );
            for c in contributions.iter() {
                assert_eq!(c.barrier, 4);
                assert!(
                    c.staged.iter().all(|m| m.seq() >= c.barrier),
                    "publish_at {publish_at}: contributed with pre-barrier output staged: {:?}",
                    c.staged
                );
            }
            assert_eq!(mid.snap_epoch, 1);
            // Everything `mid` accepted before the barrier was delivered.
            assert_eq!(mid.outs[0].data, 4 + 4);
        }
    }

    #[test]
    fn source_stops_at_the_barrier_and_contributes_with_empty_staging() {
        let mut tasks = pipeline_tasks();
        let _dst = tasks.pop().unwrap();
        let _mid = tasks.pop().unwrap();
        let mut src = tasks.pop().unwrap();
        // The epoch arrives while the cursor (0) is short of the barrier.
        let snap = ScriptedSnap::new(1, 6, None);
        run_task(&mut src, INPUTS, 64, &mut |_| {}, &snap);
        let contributions = snap.contributions.borrow();
        assert_eq!(contributions.len(), 1);
        let c = &contributions[0];
        assert!(c.is_source);
        assert_eq!((c.cursor, c.firings), (6, 6));
        assert!(c.staged.is_empty(), "{:?}", c.staged);
        // The run went on past the barrier once the source contributed.
        assert_eq!(src.next_source_seq, INPUTS);
    }
}
