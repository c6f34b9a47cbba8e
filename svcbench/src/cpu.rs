//! Process and thread CPU time, thread placement, and the host
//! calibration.

use std::collections::HashMap;
use std::os::raw::{c_int, c_long};
use std::sync::OnceLock;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("svcbench reads process CPU time through a Linux clock id");

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// A Linux `cpu_set_t`: one bit per CPU, 1 024 CPUs.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq)]
struct CpuSet([u64; 16]);

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs the calling thread may run on, or `None` when the kernel
/// does not say.
fn affinity() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restricts the calling thread to `set`; threads it starts afterwards
/// inherit the restriction.  Returns whether the kernel allowed it.
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

/// Where the benchmark's threads run: the driver on the lowest CPU it may
/// use, the pool's workers on the others.  Keeping them apart lets the
/// calibration time the CPUs the pool runs on, which the host can slow
/// down independently of the driver's.
struct Placement {
    /// CPUs the process was allowed at start.
    all: usize,
    driver: CpuSet,
    /// `None` with a single CPU, or where the kernel refuses to pin:
    /// then nothing is pinned.
    pool: Option<CpuSet>,
}

fn placement() -> &'static Placement {
    static PLACEMENT: OnceLock<Placement> = OnceLock::new();
    PLACEMENT.get_or_init(|| {
        let Some(allowed) = affinity() else {
            return Placement {
                all: std::thread::available_parallelism().map_or(1, |n| n.get()),
                driver: CpuSet([0; 16]),
                pool: None,
            };
        };
        let all = allowed.0.iter().map(|w| w.count_ones() as usize).sum();
        let word = allowed.0.iter().position(|&w| w != 0).expect("some CPU");
        let mut driver = CpuSet([0; 16]);
        driver.0[word] = allowed.0[word] & allowed.0[word].wrapping_neg();
        let mut pool = allowed;
        pool.0[word] &= !driver.0[word];
        // Where the kernel refuses, nothing is pinned.
        let pool = (all > 1 && set_affinity(&driver)).then_some(pool);
        Placement { all, driver, pool }
    })
}

/// Hardware threads the process may use.
pub fn hardware_threads() -> usize {
    placement().all
}

/// Pins the calling (driver) thread to the driver's CPU.  Call it before
/// the first pool is started.
pub fn place_driver() {
    let _ = placement();
}

/// Runs `f` on the pool's CPUs, then returns to the driver's.  A pool
/// started inside `f` keeps its workers on those CPUs.
pub fn on_pool_cpus<T>(f: impl FnOnce() -> T) -> T {
    let placement = placement();
    let Some(pool) = &placement.pool else {
        return f();
    };
    let moved = set_affinity(pool);
    let out = f();
    if moved {
        set_affinity(&placement.driver);
    }
    out
}

/// CPU time consumed so far by every thread of this process, including
/// threads that have exited.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock: c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and the clock id is a valid constant; the call writes only
    // into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Rounds of one calibration burst (about 3 ms on the reference host).
const BURST_ROUNDS: u64 = 50_000;

/// Mean burst CPU time of [`Calibrator`] on the reference host (a 2-thread
/// x86-64 VM, measured when its CPU steal was near zero).  Time metrics
/// are scaled by the run's own speed relative to this.
pub const REFERENCE_BURST: Duration = Duration::from_micros(3_000);

/// Fixed work owned by the benchmark, timed in bursts around and during
/// the measured phase: inserts, lookups and removals
/// on a hash map of up to 20 000 keys, the branch- and cache-heavy kind of
/// work that planning, certification and the simulator do.  On the
/// reference host its burst times followed the simulator's speed through
/// the host's slow and fast periods (1.9x against 2.4x between the
/// slowest and fastest 0.7 s blocks; correlation 0.97 over those blocks).
/// A sample times one burst on the driver's CPU and, unless the pool is
/// busy, one on the pool's CPUs: on that host the two CPUs' slow moments
/// were largely their own (correlation 0.2–0.3 between them, second by
/// second).
///
/// The map is allocated once, with room for every key, so the bursts never
/// touch the allocator the service shares.  Bursts are timed in thread CPU
/// time, so the host taking the CPU away in the middle of a burst does not
/// count.  None of the fila crates run in it, so a change to them cannot
/// move it.
#[derive(Debug)]
pub struct Calibrator {
    map: HashMap<u64, u64>,
    /// Burst CPU times on the driver's CPU.
    driver: Vec<Duration>,
    /// Burst CPU times on the pool's CPUs.
    pool: Vec<Duration>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            map: HashMap::with_capacity(2 * KEYS as usize),
            driver: Vec::with_capacity(1024),
            pool: Vec::with_capacity(1024),
        }
    }
}

/// Host speeds relative to the reference host, on the driver's CPU and on
/// the pool's: multiply a time by one, divide a rate by it, to express the
/// figure at the reference host's speed.
#[derive(Debug, Clone, Copy)]
pub struct Speeds {
    /// Speed on the driver's CPU.
    pub driver: f64,
    /// Speed on the pool's CPUs.
    pub pool: f64,
}

impl Speeds {
    /// Unit speeds: figures as measured.
    pub const ONE: Speeds = Speeds {
        driver: 1.0,
        pool: 1.0,
    };

    /// The scale of work that spent `pool_share` of its CPU time on the
    /// pool's CPUs and the rest on the driver's.
    pub fn blend(&self, pool_share: f64) -> f64 {
        (1.0 - pool_share) * self.driver + pool_share * self.pool
    }
}

/// A point in a [`Calibrator`]'s samples: bursts taken so far on each
/// side.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    driver: usize,
    pool: usize,
}

impl Calibrator {
    /// Times `n` bursts on each side; returns the wall and thread CPU
    /// time they took.
    pub fn sample(&mut self, n: usize) -> (Duration, Duration) {
        let (wall, cpu) = (std::time::Instant::now(), thread_cpu());
        for _ in 0..n {
            let here = burst(&mut self.map);
            self.driver.push(here);
            let there = on_pool_cpus(|| burst(&mut self.map));
            self.pool.push(there);
        }
        (wall.elapsed(), thread_cpu() - cpu)
    }

    /// Times one burst on the driver's side only, for when the pool is
    /// busy; returns the thread CPU time it took.
    pub fn sample_driver(&mut self) -> Duration {
        let here = burst(&mut self.map);
        self.driver.push(here);
        here
    }

    /// Marks the samples so far, to take [`Calibrator::speeds`] from.
    pub fn mark(&self) -> Mark {
        Mark {
            driver: self.driver.len(),
            pool: self.pool.len(),
        }
    }

    /// The mean burst time between two marks, both sides.
    pub fn mean(&self, from: Mark, to: Mark) -> Duration {
        let bursts = &self.driver[from.driver..to.driver];
        let pool = &self.pool[from.pool..to.pool];
        bursts.iter().chain(pool).sum::<Duration>() / (bursts.len() + pool.len()) as u32
    }

    /// The mean speeds between two marks.  A mean of speeds, not of
    /// times, because the work measured next to the bursts runs through
    /// the host's fast and slow periods alike.
    pub fn speeds(&self, from: Mark, to: Mark) -> Speeds {
        let speed = |bursts: &[Duration]| {
            bursts
                .iter()
                .map(|b| REFERENCE_BURST.as_secs_f64() / b.as_secs_f64())
                .sum::<f64>()
                / bursts.len() as f64
        };
        Speeds {
            driver: speed(&self.driver[from.driver..to.driver]),
            pool: speed(&self.pool[from.pool..to.pool]),
        }
    }
}

/// One timed burst of calibration work on the calling thread.
fn burst(map: &mut HashMap<u64, u64>) -> Duration {
    let started = thread_cpu();
    std::hint::black_box(churn(map, BURST_ROUNDS));
    thread_cpu() - started
}

/// Distinct keys of the calibration map.
const KEYS: u64 = 20_000;

/// The calibration work: `rounds` rounds on `map`, emptied first.
fn churn(map: &mut HashMap<u64, u64>, rounds: u64) -> u64 {
    map.clear();
    let mut x = 0x0123_4567_89AB_CDEFu64;
    let mut found = 0u64;
    for i in 0..rounds {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % KEYS).or_default() += i;
        if let Some(v) = map.get(&(x % (KEYS - 3))) {
            found = found.wrapping_add(*v);
        }
        if i % 3 == 0 {
            map.remove(&(x % (KEYS + 11)));
        }
    }
    found
}
