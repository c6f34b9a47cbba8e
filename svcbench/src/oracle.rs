//! The correctness oracle: every outcome is checked against the reference
//! `Simulator`, replayed under the plan the certification chain selects.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fila_avoidance::{Algorithm, AvoidancePlan, Planner, Rounding};
use fila_runtime::{AvoidanceMode, JobVerdict, Simulator};
use fila_service::RejectReason;
use fila_workloads::jobs::JobKind;

use crate::driver::{Observed, Record};
use crate::workload::Plan;

/// What the oracle found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Records that did not match the reference.
    pub failed: usize,
    /// One line per mismatch, for the first few.
    pub reasons: Vec<String>,
    /// Simulator time spent on the distinct (graph, inputs) replays.
    pub sim_time: Duration,
    /// Inputs those replays offered.
    pub sim_inputs: u64,
}

/// The certified plan the service should have selected for one graph
/// (`None` for jobs submitted without a plan), or why there is none.
type Certified = Result<Option<(Arc<AvoidancePlan>, Algorithm, bool)>, String>;

/// Replays the distinct (graph, inputs) pairs of `records` on the
/// simulator and compares every record with its reference.  Rejections
/// must be `Unplannable` rejections of unplannable templates.  The
/// service's cycle budget is `cycle_bound`.
pub struct Oracle<'p> {
    plan: &'p Plan,
    cycle_bound: usize,
    certified: HashMap<(usize, u64), Certified>,
    reference: HashMap<(usize, u64, u64), Observed>,
    sim_time: Duration,
    sim_inputs: u64,
}

impl<'p> Oracle<'p> {
    /// An oracle for the jobs of `plan`.
    pub fn new(plan: &'p Plan, cycle_bound: usize) -> Self {
        Oracle {
            plan,
            cycle_bound,
            certified: HashMap::new(),
            reference: HashMap::new(),
            sim_time: Duration::ZERO,
            sim_inputs: 0,
        }
    }

    /// Checks the records of one measured phase (record `i` is job `i`).
    pub fn check(&mut self, records: &[Record]) -> Verdict {
        let mut verdict = Verdict::default();
        for (i, record) in records.iter().enumerate() {
            if let Err(why) = self.check_one(i, record) {
                verdict.failed += 1;
                if verdict.reasons.len() < 8 {
                    verdict.reasons.push(format!("job {i}: {why}"));
                }
            }
        }
        verdict.sim_time = self.sim_time;
        verdict.sim_inputs = self.sim_inputs;
        verdict
    }

    fn check_one(&mut self, index: usize, record: &Record) -> Result<(), String> {
        let job = self.plan.jobs[index];
        let kind = self.plan.templates[job.template].kind;
        let admitted = match &record.outcome {
            Err(RejectReason::Unplannable(_)) if kind == JobKind::Unplannable => return Ok(()),
            Err(reason) => return Err(format!("{kind:?} rejected: {reason}")),
            Ok(_) if kind == JobKind::Unplannable => {
                return Err("unplannable template admitted".into())
            }
            Ok(admitted) => admitted,
        };
        let observed = admitted.observed.as_ref().ok_or("job never settled")?;
        let expected = self.reference(index)?;
        let class = if kind == JobKind::Deadlocker {
            JobVerdict::Deadlocked
        } else {
            JobVerdict::Completed
        };
        if expected.verdict != class {
            return Err(format!("{kind:?} reference verdict {:?}", expected.verdict));
        }
        if *observed != expected {
            return Err(format!("observed {observed:?}, reference {expected:?}"));
        }
        Ok(())
    }

    /// The avoidance mode the service ran each checked job under: `None`
    /// for rejected jobs and for jobs the oracle has not certified.
    pub fn modes(&self, records: &[Record]) -> Vec<Option<AvoidanceMode>> {
        self.plan
            .jobs
            .iter()
            .zip(records)
            .map(|(job, record)| {
                record.outcome.as_ref().ok()?;
                match self.certified.get(&(job.template, job.perturb))? {
                    Ok(Some((plan, _, _))) => Some(AvoidanceMode::Plan(Arc::clone(plan))),
                    Ok(None) => Some(AvoidanceMode::Disabled),
                    Err(_) => None,
                }
            })
            .collect()
    }

    /// The reference outcome of job `index`, replayed once per distinct
    /// (template, perturbation, inputs).
    fn reference(&mut self, index: usize) -> Result<Observed, String> {
        let job = self.plan.jobs[index];
        let key = (job.template, job.perturb, job.inputs);
        if let Some(observed) = self.reference.get(&key) {
            return Ok(observed.clone());
        }
        let spec = self.plan.spec(&job);
        let template = &self.plan.templates[job.template];
        let cycle_bound = self.cycle_bound;
        let certified = self
            .certified
            .entry((job.template, job.perturb))
            .or_insert_with(|| {
                template.avoidance.map_or(Ok(None), |algorithm| {
                    Planner::new(&spec.graph)
                        .algorithm(algorithm)
                        .rounding(Rounding::Ceil)
                        .cycle_bound(cycle_bound)
                        .certify(&template.periods)
                        .map(|c| Some((c.plan, c.used, c.fell_back)))
                        .map_err(|e| format!("admitted, but the planner cannot certify: {e}"))
                })
            })
            .clone()?;
        let topology = spec.topology();
        let simulator = match &certified {
            Some((plan, _, _)) => Simulator::new(&topology).with_shared_plan(Arc::clone(plan)),
            None => Simulator::new(&topology),
        };
        let started = Instant::now();
        let report = simulator.run(job.inputs);
        self.sim_time += started.elapsed();
        self.sim_inputs += job.inputs;
        let verdict = if report.completed {
            JobVerdict::Completed
        } else if report.deadlocked {
            JobVerdict::Deadlocked
        } else {
            return Err("reference run neither completed nor deadlocked".into());
        };
        let observed = Observed::new(
            verdict,
            certified.as_ref().map(|c| c.1),
            certified.as_ref().is_some_and(|c| c.2),
            &report,
        );
        self.reference.insert(key, observed.clone());
        Ok(observed)
    }
}
