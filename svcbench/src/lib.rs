//! `svcbench`: the end-to-end and per-layer benchmark of the fila job
//! service.  See `README.md` in this directory for the workloads, the
//! metrics and how they relate.

pub mod cpu;
pub mod driver;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fila_service::ServiceConfig;

use crate::cpu::Calibrator;
use crate::driver::{measure, pool_replay, pool_workers, set_up, Phase};
use crate::oracle::Oracle;
use crate::report::{Counts, Metric};
use crate::workload::{generate, Plan, Workload, WARM_RATE};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Calibration samples taken before the first set-up, after each set-up
/// and, twice as many, after the measured phase.  Set-up times are scaled
/// by the samples up to the end of the last set-up, the measured phase by
/// the samples right before, during and after it.
const BURSTS: usize = 16;

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Sizes the job list: the workload's nominal rate times this.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its driver spans.
    pub spans: Option<PathBuf>,
}

/// What an invocation found.
#[derive(Debug)]
pub struct Outcome {
    /// Every outcome matched the reference.
    pub correct: bool,
    /// Jobs submitted in the measured phase.
    pub attempted: usize,
    /// Jobs whose outcome did not match.
    pub failed: usize,
    /// Counts of the measured phase.
    pub counts: Counts,
    /// Every metric, present or absent.
    pub metrics: Vec<Metric>,
    /// The human-readable report.
    pub report: String,
}

impl Outcome {
    /// The result line: every present, finite metric of the run as one
    /// JSON object.  `run.py` keeps the ones `BENCHMARK.json` lists.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                m.value.filter(|v| v.is_finite()).map(|v| {
                    format!(
                        "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                        m.name, m.unit
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    let cycle_bound = ServiceConfig::default().cycle_bound;
    let mut report = String::new();
    cpu::place_driver();
    let mut setups = Vec::new();
    let (mut setup_cpu, mut setup_driver_cpu) = (Duration::ZERO, Duration::ZERO);
    let mut ready = None;
    let mut calibrator = Calibrator::default();
    let run_start = calibrator.mark();
    calibrator.sample(BURSTS);
    let mut before_phase = run_start;
    // An untraced run sets up several times and reports the median; a
    // traced run needs one set-up.
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        drop(ready.take());
        let started = Instant::now();
        let (cpu_start, driver_start) = (cpu::process_cpu(), cpu::thread_cpu());
        let plan = generate(opts.workload, opts.seed, opts.seconds);
        let service = set_up(&plan);
        setups.push(started.elapsed());
        setup_cpu += cpu::process_cpu() - cpu_start;
        setup_driver_cpu += cpu::thread_cpu() - driver_start;
        ready = Some((plan, service));
        before_phase = calibrator.mark();
        calibrator.sample(BURSTS);
    }
    let (plan, service) = ready.expect("at least one set-up");
    let set_up_end = calibrator.mark();
    let phase = measure(&plan, &service, &mut calibrator);
    drop(service);
    calibrator.sample(2 * BURSTS);
    // Scales of the set-up times and of the phase's times and rates:
    // each blends the two sides' speeds by where its CPU time went.
    let pool_share = |total: Duration, driver: Duration| {
        total
            .checked_sub(driver)
            .map_or(0.0, |pool| pool.as_secs_f64() / total.as_secs_f64())
    };
    let phase_speeds = calibrator.speeds(before_phase, calibrator.mark());
    let scales = report::Scales {
        setup: calibrator
            .speeds(run_start, set_up_end)
            .blend(pool_share(setup_cpu, setup_driver_cpu)),
        submit: phase_speeds.driver,
        phase: phase_speeds.blend(pool_share(phase.cpu, phase.driver_cpu)),
    };
    let _ = writeln!(
        report,
        "svcbench workload={} seed={} jobs={} nproc={} workers={} {}",
        opts.workload.name(),
        opts.seed,
        plan.jobs.len(),
        cpu::hardware_threads(),
        pool_workers(),
        match plan.arrivals.window(pool_workers()) {
            None => format!("open loop, Poisson {WARM_RATE} jobs/s"),
            Some(k) => format!("closed loop, {k} in flight"),
        }
    );

    let mut oracle = Oracle::new(&plan, cycle_bound);
    let verdict = oracle.check(&phase.records);
    let attempted = phase.records.len();
    let failed = verdict.failed;
    let _ = writeln!(
        report,
        "oracle: {attempted} outcomes checked against the simulator, {failed} mismatched"
    );
    for reason in &verdict.reasons {
        let _ = writeln!(report, "  mismatch {reason}");
    }
    let counts = Counts::of(&phase.records);
    let _ = writeln!(
        report,
        "counts seed={} admitted={} rejected={} fell_back={} data={} dummies={}",
        opts.seed, counts.admitted, counts.rejected, counts.fell_back, counts.data, counts.dummies
    );
    let _ = writeln!(
        report,
        "host: calibration burst mean {:.1} us against {:.1} us on the reference host; \
         end-to-end times are scaled by {:.4} (set-up), {:.4} (submit) and {:.4} (measured phase); \
         bursts taken: {:?}",
        calibrator.mean(run_start, calibrator.mark()).as_secs_f64() * 1e6,
        cpu::REFERENCE_BURST.as_secs_f64() * 1e6,
        scales.setup,
        scales.submit,
        scales.phase,
        calibrator.mark()
    );

    let metrics = if opts.trace {
        let modes = oracle.modes(&phase.records);
        let bare = pool_replay(&plan, &modes, false);
        let traced = pool_replay(&plan, &modes, true);
        let delivered: u64 = traced.jobs.iter().map(|j| j.messages).sum();
        if traced.trace.delivered != delivered {
            let _ = writeln!(
                report,
                "warning: the flight recorder saw {} of {delivered} delivered messages",
                traced.trace.delivered
            );
        }
        let replay = probes::replay(&plan, &phase.records, cycle_bound);
        let ladder = probes::ladder();
        let (metrics, attribution) =
            report::per_layer(&plan, &phase, &bare, &traced, &verdict, &replay, &ladder);
        let _ = writeln!(report, "{}", attribution.render(opts.workload.name()));
        if let Some(path) = &opts.spans {
            match write_spans(path, &plan, &phase) {
                Ok(()) => {
                    let _ = writeln!(report, "driver spans written to {}", path.display());
                }
                Err(e) => {
                    let _ = writeln!(
                        report,
                        "warning: cannot write spans to {}: {e}",
                        path.display()
                    );
                }
            }
        }
        metrics
    } else {
        report::end_to_end(&plan, &phase, &setups, &verdict, scales)
    };
    // The unscaled end-to-end figures, for the report only.
    let unscaled = if opts.trace {
        Vec::new()
    } else {
        report::end_to_end(&plan, &phase, &setups, &verdict, report::Scales::NONE)
    };
    for (i, m) in metrics.iter().enumerate() {
        let _ = match m.value {
            Some(v) => match unscaled.get(i).and_then(|u| u.value) {
                Some(u) if u != v => writeln!(
                    report,
                    "metric {} = {v:.6} {} (unscaled {u:.6})",
                    m.name, m.unit
                ),
                _ => writeln!(report, "metric {} = {v:.6} {}", m.name, m.unit),
            },
            None => writeln!(
                report,
                "metric {} absent (does not apply to {})",
                m.name,
                opts.workload.name()
            ),
        };
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        counts,
        metrics,
        report,
    }
}

/// Writes the traced phase's driver spans, one JSON object per line: the
/// `submit` span of each job with its avoidance children, and its verdict.
fn write_spans(path: &std::path::Path, plan: &Plan, phase: &Phase) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let micros = |d: Duration| d.as_secs_f64() * 1e6;
    for (i, (job, r)) in plan.jobs.iter().zip(&phase.records).enumerate() {
        let kind = format!("{:?}", plan.templates[job.template].kind);
        match &r.outcome {
            Ok(a) => writeln!(
                out,
                "{{\"job\": {i}, \"kind\": \"{kind}\", \"span\": \"service.submit\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \
                 \"children\": {{\"avoidance.plan\": {:.3}, \"avoidance.certify\": {:.3}}}, \
                 \"pool_wall_us\": {:.3}, \"verdict\": \"{:?}\"}}",
                micros(r.called),
                micros(r.submit),
                micros(a.plan),
                micros(a.certify),
                micros(a.wall),
                a.observed.as_ref().map(|o| o.verdict)
            )?,
            Err(reason) => writeln!(
                out,
                "{{\"job\": {i}, \"kind\": \"{kind}\", \"span\": \"service.submit\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \
                 \"rejected\": \"{}\"}}",
                micros(r.called),
                micros(r.submit),
                reason.to_string().replace('\\', "\\\\").replace('"', "'")
            )?,
        }
    }
    out.flush()
}

/// The exact counts of a measured phase of `workload` sized for
/// `seconds`.
pub fn counts(workload: Workload, seed: u64, seconds: f64) -> (Counts, bool) {
    let outcome = run(&Options {
        workload,
        seed,
        seconds,
        trace: false,
        spans: None,
    });
    (outcome.counts, outcome.correct)
}
