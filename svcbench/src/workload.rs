//! The three workloads: templates and job lists, generated from the seed.
//!
//! Every workload submits a fixed number of jobs: `--seconds` times the
//! workload's nominal job rate, rounded.  The count never depends on how
//! fast the run goes, so two runs of one seed do exactly the same work.
//!
//! The templates and the set-up submissions are the same for every seed
//! (drawn from [`TEMPLATE_SEED`]), so set-up does the same work on every
//! run; the seed draws the measured jobs: which templates, input counts,
//! capacity perturbations and arrival times.

use std::time::Duration;

use fila_avoidance::Algorithm;
use fila_graph::Graph;
use fila_service::{JobSpec, ServiceConfig};
use fila_workloads::generators::{
    pipeline_graph, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};
use fila_workloads::jobs::{dense_unplannable, interior_filtered_fallback, job_mix, JobKind};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seed of the template pools and set-up submissions of every workload.
const TEMPLATE_SEED: u64 = 0x7E3F_1A7E;

/// Offered load of `warm_mix`, in jobs per second: under a fifth of what
/// one pool worker sustains on this mix in a closed loop (≈ 2 250 jobs/s
/// on a 2-thread host).  Job sizes are heavy-tailed and jobs that overlap
/// on the worker slow each other down, so at half that capacity a burst of
/// arrivals during a slow moment of the host grows a backlog until
/// admission saturates, and at a quarter the settle-time median still
/// moved 0.57 → 2.1 ms with the host's speed.
pub const WARM_RATE: f64 = 400.0;

/// `job_mix` streams merged into `warm_mix`.  One stream has only three
/// templates per kind; sixteen give the seed's job draws enough distinct
/// template sizes that the per-job cost does not hang on a few of them.
const WARM_STREAMS: u64 = 16;

/// Shapes drawn per stream: 36 covers every (kind, template) pair of
/// `job_mix` (its kind rotation has period 12, its templates period 36).
const WARM_STREAM_SHAPES: usize = 36;

/// `cold_admission` jobs per `--seconds`, about its closed-loop rate.
const COLD_JOBS_PER_SECOND: f64 = 500.0;

/// Base templates per kind in `cold_admission`: SP DAG, ladder,
/// interior-filtered, unplannable.  Certification cost varies several-fold
/// with template size, so the SP DAG and ladder pools are large enough
/// that the median admission does not depend on the seed's draw of jobs.
/// The interior-filtered draws are screened with the planner, which makes
/// them dear to generate; `dense_unplannable` has three sizes.
const COLD_TEMPLATES: [(JobKind, usize); 4] = [
    (JobKind::SpDag, 256),
    (JobKind::Ladder, 256),
    (JobKind::InteriorFiltered, 32),
    (JobKind::Unplannable, 3),
];

/// Plan-cache capacity of the `cold_admission` service.  Set-up fills it,
/// so every measured miss also evicts an entry.
pub const COLD_CACHE: usize = 256;

/// `bulk_stream` jobs per `--seconds`.
const BULK_JOBS_PER_SECOND: f64 = 3.5;

/// Pipeline and ladder templates in `bulk_stream` (each).  Their sizes
/// are drawn from narrow ranges, so a job's cost, and with it the
/// medians, depend little on which templates a seed draws.
const BULK_TEMPLATES: usize = 8;

/// Inputs per job of the `bulk_stream` warm-up pass, which only has to
/// plan every ladder and warm the pool.
const BULK_WARMUP_INPUTS: u64 = 10_000;

/// Inputs per `bulk_stream` job.  One count for every job keeps the
/// distinct (template, inputs) pairs the oracle replays few.
const BULK_INPUTS: u64 = 100_000;

/// A workload name from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop storm mix on a warm plan cache.
    WarmMix,
    /// Closed loop, one outstanding, every fingerprint new.
    ColdAdmission,
    /// Closed loop of long jobs, data-only pipelines and dummy-heavy
    /// ladders.
    BulkStream,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::WarmMix,
        Workload::ColdAdmission,
        Workload::BulkStream,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm_mix",
            Workload::ColdAdmission => "cold_admission",
            Workload::BulkStream => "bulk_stream",
        }
    }
}

/// How jobs are offered to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Each job at its scheduled arrival time ([`Job::arrival`]).
    Open,
    /// Closed loop with one submission outstanding.
    OneOutstanding,
    /// Closed loop with as many jobs in flight as the pool has workers.
    OnePerWorker,
}

impl Arrivals {
    /// The closed-loop window for a pool of `workers`; `None` for the open
    /// loop.
    pub fn window(self, workers: usize) -> Option<usize> {
        match self {
            Arrivals::Open => None,
            Arrivals::OneOutstanding => Some(1),
            Arrivals::OnePerWorker => Some(workers),
        }
    }
}

/// One submission template: a graph with its declared filters.
#[derive(Debug, Clone)]
pub struct Template {
    /// What the template exercises.
    pub kind: JobKind,
    /// The application graph.
    pub graph: Graph,
    /// Per-node filter periods aligned with node ids.
    pub periods: Vec<u64>,
    /// Requested protocol, `None` to run without a plan.
    pub avoidance: Option<Algorithm>,
}

/// One submission.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`Plan::templates`].
    pub template: usize,
    /// Input sequence numbers offered at every source.
    pub inputs: u64,
    /// Capacity perturbation (0 = the template's own capacities).
    pub perturb: u64,
    /// Scheduled arrival from the start of the measured phase (open loop).
    pub arrival: Duration,
}

/// Everything a run of one workload submits.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Submission templates.
    pub templates: Vec<Template>,
    /// Set-up submissions (cache warm-up or fill), waited for before the
    /// measured phase.
    pub warmup: Vec<Job>,
    /// The measured submissions.
    pub jobs: Vec<Job>,
    /// Open or closed loop.
    pub arrivals: Arrivals,
    /// Plan-cache capacity of the service.
    pub cache_capacity: usize,
}

impl Plan {
    /// The graph job `job` submits: its template's graph with the job's
    /// capacity perturbation applied.
    pub fn graph(&self, job: &Job) -> Graph {
        let mut graph = self.templates[job.template].graph.clone();
        perturb(&mut graph, job.perturb);
        graph
    }

    /// The service submission for `job`.
    pub fn spec(&self, job: &Job) -> JobSpec {
        let t = &self.templates[job.template];
        JobSpec::from_periods(self.graph(job), t.periods.clone(), job.inputs, t.avoidance)
    }

    /// The service configuration every run of this plan uses.
    pub fn config(&self, workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            plan_cache_capacity: self.cache_capacity,
            ..ServiceConfig::default()
        }
    }
}

/// Generates the plan of `workload` for `seed`, sized for `seconds`.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Plan {
    let sized = |per_second: f64| (per_second * seconds).round().max(1.0) as usize;
    match workload {
        Workload::WarmMix => warm_mix(seed, sized(WARM_RATE)),
        Workload::ColdAdmission => cold_admission(seed, sized(COLD_JOBS_PER_SECOND)),
        Workload::BulkStream => bulk_stream(seed, sized(BULK_JOBS_PER_SECOND)),
    }
}

fn warm_mix(seed: u64, count: usize) -> Plan {
    let templates: Vec<Template> = (0..WARM_STREAMS)
        .flat_map(|k| {
            job_mix(
                TEMPLATE_SEED ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                WARM_STREAM_SHAPES,
            )
        })
        .map(|shape| Template {
            kind: shape.kind,
            graph: shape.graph,
            periods: shape.periods,
            avoidance: shape.avoidance,
        })
        .collect();
    // `job_mix` fixes the input count of unplannable and deadlocking jobs;
    // keep that, and draw 64–256 inputs for every other job.
    let inputs_of = |kind: JobKind, rng: &mut StdRng| match kind {
        JobKind::Unplannable => 64,
        JobKind::Deadlocker => 256,
        _ => rng.gen_range(64..=256),
    };
    let mut fixed = StdRng::seed_from_u64(TEMPLATE_SEED ^ 0x57A2_3A11);
    let warmup = (0..templates.len())
        .map(|template| Job {
            template,
            inputs: inputs_of(templates[template].kind, &mut fixed),
            perturb: 0,
            arrival: Duration::ZERO,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A2_3A11);
    let mut clock = 0.0f64;
    let jobs = (0..count)
        .map(|_| {
            clock += exponential(&mut rng) / WARM_RATE;
            let template = rng.gen_range(0..templates.len());
            Job {
                template,
                inputs: inputs_of(templates[template].kind, &mut rng),
                perturb: 0,
                arrival: Duration::from_secs_f64(clock),
            }
        })
        .collect();
    Plan {
        templates,
        warmup,
        jobs,
        arrivals: Arrivals::Open,
        cache_capacity: fila_avoidance::cache::DEFAULT_CACHE_CAPACITY,
    }
}

/// The `cold_admission` kind rotation: the `job_mix` proportions of the
/// planned kinds (3 SP DAG : 3 ladder : 1 interior-filtered : 1
/// unplannable).
const COLD_ROTATION: [JobKind; 8] = [
    JobKind::SpDag,
    JobKind::Ladder,
    JobKind::SpDag,
    JobKind::Ladder,
    JobKind::SpDag,
    JobKind::Ladder,
    JobKind::InteriorFiltered,
    JobKind::Unplannable,
];

fn cold_admission(seed: u64, count: usize) -> Plan {
    let mut fixed = StdRng::seed_from_u64(TEMPLATE_SEED ^ 0xC01D);
    let mut templates = Vec::new();
    let mut pools = Vec::new(); // (kind, first template, count)
    for (kind, count) in COLD_TEMPLATES {
        pools.push((kind, templates.len(), count));
        for t in 0..count {
            templates.push(planned_template(kind, t, &mut fixed));
        }
    }
    let pool_of = |kind: JobKind| {
        let &(_, first, count) = pools
            .iter()
            .find(|p| p.0 == kind)
            .expect("every rotation kind has templates");
        (first, count)
    };
    // Every submission gets its own capacity perturbation: a per-template
    // counter, so no fingerprint ever repeats.
    let mut next_perturb = vec![0u64; templates.len()];
    let mut job = |kind: JobKind, rng: &mut StdRng| {
        let (first, count) = pool_of(kind);
        let template = first + rng.gen_range(0..count);
        next_perturb[template] += 1;
        Job {
            template,
            inputs: if kind == JobKind::Unplannable {
                64
            } else {
                rng.gen_range(64..=256)
            },
            perturb: next_perturb[template],
            arrival: Duration::ZERO,
        }
    };
    // Set-up fills the cache: one certification verdict per plannable
    // submission (the plan half of the cache fills at least as fast).
    // Measured jobs continue the per-template counters, so they never
    // repeat a set-up fingerprint.
    let warmup = (0..COLD_CACHE)
        .map(|i| job(COLD_ROTATION[i % 6], &mut fixed))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let jobs = (0..count)
        .map(|i| job(COLD_ROTATION[i % COLD_ROTATION.len()], &mut rng))
        .collect();
    let plan = Plan {
        templates,
        warmup,
        jobs,
        arrivals: Arrivals::OneOutstanding,
        cache_capacity: COLD_CACHE,
    };
    for job in plan.warmup.iter().chain(&plan.jobs) {
        let edges = plan.templates[job.template].graph.edge_count() as u32;
        assert!(
            job.perturb < 8u64.saturating_pow(edges),
            "perturbation {} does not fit {edges} edges",
            job.perturb
        );
    }
    plan
}

/// Filter periods of fork filtering: the source filters with `period`,
/// every other node broadcasts.
fn fork_periods(g: &Graph, period: u64) -> Vec<u64> {
    let source = g
        .single_source()
        .expect("generated shapes are two-terminal");
    g.node_ids()
        .map(|n| if n == source { period } else { 1 })
        .collect()
}

/// A fresh template of a planned kind, drawn like `job_mix` draws its own.
fn planned_template(kind: JobKind, index: usize, rng: &mut StdRng) -> Template {
    match kind {
        JobKind::SpDag => {
            let (graph, _) = random_sp_dag(&GeneratorConfig {
                target_edges: rng.gen_range(8..=20),
                max_fanout: 3,
                capacity_range: (2, 6),
                seed: rng.next_u64(),
            });
            let periods = fork_periods(&graph, rng.gen_range(2..=6));
            Template {
                kind,
                graph,
                periods,
                avoidance: Some(Algorithm::NonPropagation),
            }
        }
        JobKind::Ladder => {
            let graph = random_ladder(&LadderConfig {
                rungs: rng.gen_range(2..=6),
                capacity_range: (2, 6),
                reverse_probability: 0.3,
                seed: rng.next_u64(),
            });
            let periods = fork_periods(&graph, rng.gen_range(2..=6));
            Template {
                kind,
                graph,
                periods,
                avoidance: Some(Algorithm::NonPropagation),
            }
        }
        JobKind::InteriorFiltered => {
            let (graph, periods) = interior_filtered_fallback(rng.next_u64());
            Template {
                kind,
                graph,
                periods,
                avoidance: Some(Algorithm::Propagation),
            }
        }
        JobKind::Unplannable => {
            let graph = dense_unplannable(8 + index % 3);
            let periods = fork_periods(&graph, 2);
            Template {
                kind,
                graph,
                periods,
                avoidance: Some(Algorithm::NonPropagation),
            }
        }
        other => unreachable!("{other:?} is not a planned template kind"),
    }
}

fn bulk_stream(seed: u64, count: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(TEMPLATE_SEED ^ 0xB01C);
    let mut templates = Vec::new();
    for _ in 0..BULK_TEMPLATES {
        // Data only: no filtering and no plan, so not one dummy is sent.
        // Long enough that a pipeline job takes about as long as a ladder
        // job, so the settle-time median does not fall between two modes.
        let graph = pipeline_graph(rng.gen_range(48..=56), rng.gen_range(16..=32), false);
        let periods = vec![1; graph.node_count()];
        templates.push(Template {
            kind: JobKind::Pipeline,
            graph,
            periods,
            avoidance: None,
        });
    }
    for _ in 0..BULK_TEMPLATES {
        // One shape and filter period for every ladder: the seed draws
        // capacities and rung directions only, which keeps the dummy
        // traffic per input, and so the cost per input, close across seeds.
        let graph = random_ladder(&LadderConfig {
            rungs: 4,
            capacity_range: (2, 6),
            reverse_probability: 0.3,
            seed: rng.next_u64(),
        });
        let periods = fork_periods(&graph, 4);
        templates.push(Template {
            kind: JobKind::Ladder,
            graph,
            periods,
            avoidance: Some(Algorithm::NonPropagation),
        });
    }
    let warmup = (0..templates.len())
        .map(|template| Job {
            template,
            inputs: BULK_WARMUP_INPUTS,
            perturb: 0,
            arrival: Duration::ZERO,
        })
        .collect();
    // Two ladders to one pipeline.  With equal shares, every median would
    // sit on the boundary between the two kinds' populations (their
    // `submit` times differ): `admit_p50_ms` spread 48 % over ten seeds.
    // Each kind's templates take turns in an order the seed shuffles, so
    // every run has the same mix.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB01C);
    let order = [(); 2].map(|_| shuffled(BULK_TEMPLATES, &mut rng));
    let jobs = (0..count)
        .map(|i| {
            let (kind, turn) = if i % 3 == 1 {
                (0, i / 3)
            } else {
                (1, 2 * (i / 3) + usize::from(i % 3 == 2))
            };
            Job {
                template: kind * BULK_TEMPLATES + order[kind][turn % BULK_TEMPLATES],
                inputs: BULK_INPUTS,
                perturb: 0,
                arrival: Duration::ZERO,
            }
        })
        .collect();
    Plan {
        templates,
        warmup,
        jobs,
        // One more job than workers would interleave two jobs on a
        // worker, and the pool's cost per message then flips between
        // modes from run to run (1 413–2 212 ns per input on one seed,
        // against 1 742–1 811 ns with one job per worker).
        arrivals: Arrivals::OnePerWorker,
        cache_capacity: fila_avoidance::cache::DEFAULT_CACHE_CAPACITY,
    }
}

/// `0..n` in a random order (Fisher–Yates).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// A unit-mean exponential draw (Poisson inter-arrival gaps).
fn exponential(rng: &mut StdRng) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    -(1.0 - u).ln()
}

/// Raises edge capacities by the base-8 digits of `counter`, one digit per
/// edge in edge-id order.  Distinct counters give distinct capacity vectors,
/// hence fingerprints the cache has never seen; a larger buffer never
/// introduces a deadlock, so verdicts keep their class.
fn perturb(graph: &mut Graph, mut counter: u64) {
    let edges: Vec<_> = graph.edge_ids().collect();
    for e in edges {
        if counter == 0 {
            break;
        }
        let digit = counter % 8;
        counter /= 8;
        if digit > 0 {
            let capacity = graph.capacity(e) + digit;
            graph
                .set_capacity(e, capacity)
                .expect("a raised capacity is non-zero");
        }
    }
}
