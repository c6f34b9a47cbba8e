//! # fila-runtime
//!
//! A streaming runtime for the filtering dataflow model of Buhler et al.
//! (PPoPP 2012): compute nodes connected by finite-buffer FIFO channels,
//! where each input carries a monotonically increasing sequence number and a
//! node may *filter* (send no output for) any input on any subset of its
//! output channels.
//!
//! With finite buffers such applications can deadlock even though the graph
//! is acyclic (Fig. 2 of the paper).  This crate implements the two
//! deadlock-avoidance protocols the paper's compile-time analysis
//! parameterises — the **Propagation** and **Non-Propagation** dummy-message
//! algorithms — as wrappers around the user's node behaviours, plus two
//! execution engines:
//!
//! * [`Simulator`] — a deterministic, single-threaded discrete-event
//!   executor with *exact* deadlock detection (it knows precisely when no
//!   node can make progress), used by the tests and benchmarks as the
//!   reference semantics;
//! * the pooled work-stealing engine — a [`SharedPool`] of workers drives
//!   every node as a cooperatively scheduled task over lock-free SPSC rings
//!   ([`spsc`]) carrying batched containers ([`Batch`]).  The pool is
//!   long-lived and multi-tenant: the node-tasks of many independent jobs
//!   coexist on it, with exact per-job completion/deadlock verdicts decided
//!   by per-job quiescence.  [`PooledExecutor`] is its one-run front-end: a
//!   pool sized to the run, one job, the job's report.
//!
//! The pairing lets every experiment be run both exactly and under real
//! concurrency: the simulator is the reference the pool is checked against
//! (a property test pins the pool to the simulator's verdicts and per-edge
//! counts).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod container;
pub mod faults;
pub mod filters;
pub mod message;
pub mod node;
pub mod pooled;
pub mod report;
pub mod shared_pool;
pub mod simulator;
pub mod spsc;
mod task;
pub mod telemetry;
pub mod topology;
pub mod wrapper;

pub use checkpoint::{
    CheckpointOutcome, JobSnapshot, NodeSnapshot, RestoreError, SnapshotError, SpliceDivergence,
    SwapToken,
};
pub use container::{Batch, Batching, Run};
pub use faults::{CrashSite, FaultArm, FaultPlan, SnapshotDamage};
pub use filters::{Bernoulli, Broadcast, Collector, ModuloFilter, RouteRoundRobin};
pub use message::{Message, Payload};
pub use node::{FireDecision, FireInput, NodeBehavior};
pub use pooled::PooledExecutor;
pub use report::{BlockedInfo, BlockedReason, ExecutionReport};
pub use shared_pool::{FilterObservation, JobHandle, JobVerdict, SettleHook, SharedPool};
pub use simulator::{Scheduler, Simulator};
pub use telemetry::{chrome_trace, EventKind, JobTimeline, TelemetryHandle, TraceEvent};
pub use topology::{BehaviorFactory, Topology};
pub use wrapper::{AvoidanceMode, DummyWrapper, PropagationTrigger, RunDummies};
