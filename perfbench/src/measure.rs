//! Untraced measurement: set-up timing, repeated market runs, and the
//! output checks every repetition must pass.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use pool::{MarketOutcome, ResourcePool};

use crate::workload::Workload;

/// Everything a repetition of one workload must reproduce exactly: the
/// plan and planner-work counts, every per-class statistic, the repair and
/// audit tallies, and a digest of every final degree table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub plans: u64,
    pub relaxations: u64,
    pub latency_calls: u64,
    pub classes: Vec<[u64; 9]>,
    pub leaked_degrees: u32,
    pub repairs: [u64; 5],
    pub audit: [u64; 3],
    pub delivery: (u64, u64),
    pub oracle: Option<[u64; 5]>,
    pub tables: u64,
}

impl Fingerprint {
    pub fn of(out: &MarketOutcome, pool: &ResourcePool) -> Fingerprint {
        let classes = out
            .per_class
            .iter()
            .map(|(c, s)| {
                [
                    c as u64,
                    s.improvement.count(),
                    s.improvement.mean().to_bits(),
                    s.helpers.mean().to_bits(),
                    s.preemptions,
                    s.helper_failures,
                    s.helper_crashes,
                    s.failovers,
                    s.sessions_lost,
                ]
            })
            .collect();
        let mut h = DefaultHasher::new();
        for id in pool.net.hosts.ids() {
            pool.is_alive(id).hash(&mut h);
            for a in pool.table(id).allocations() {
                a.session.hash(&mut h);
                a.rank.hash(&mut h);
                a.count.hash(&mut h);
                a.expires_at.map(|t| t.as_micros()).hash(&mut h);
            }
        }
        Fingerprint {
            plans: out.plans,
            relaxations: out.planner_relaxations,
            latency_calls: out.planner_latency_calls,
            classes,
            leaked_degrees: out.leaked_degrees,
            repairs: [
                out.crash_repairs,
                out.crash_repair_retries,
                out.crash_repair_gave_up,
                out.tree_failovers,
                out.trees_rebuilt,
            ],
            audit: [
                out.audit.samples,
                out.audit.checks,
                out.audit.violations.len() as u64,
            ],
            delivery: (out.delivery.count(), out.delivery.mean().to_bits()),
            oracle: out
                .oracle_tiers
                .map(|t| [t.hot, t.sketch, t.base, t.promotions, t.evictions]),
            tables: h.finish(),
        }
    }
}

/// Set-up, timed `reps_per_instance` times per instance:
/// `ResourcePool::build` plus `MarketSim::new` (with the live-operations
/// surface attached when the workload has one). Repetition `r` sets up
/// instance `r % instances`. Returns the per-repetition seconds and each
/// instance's last pristine pool.
pub fn setup(w: &Workload, reps_per_instance: usize) -> (Vec<f64>, Vec<ResourcePool>) {
    let n = w.instances.len();
    let mut secs = Vec::new();
    let mut pristine: Vec<Option<ResourcePool>> = vec![None; n];
    for r in 0..reps_per_instance * n {
        let i = r % n;
        // Drop the instance's previous pool first so two large pools never
        // coexist.
        pristine[i] = None;
        let t0 = Instant::now();
        let pool = std::hint::black_box(w.build_pool(i));
        let build = t0.elapsed();
        let copy = pool.clone();
        let t1 = Instant::now();
        let sim = std::hint::black_box(w.market(i, copy));
        let new = t1.elapsed();
        drop(sim);
        secs.push((build + new).as_secs_f64());
        pristine[i] = Some(pool);
    }
    let pools = pristine
        .into_iter()
        .map(|p| p.expect("every instance set up"))
        .collect();
    (secs, pools)
}

/// One untraced market run of one instance over a fresh copy of its
/// pristine pool.
pub struct Rep {
    pub instance: usize,
    pub wall: Duration,
    pub outcome: MarketOutcome,
    pub fingerprint: Fingerprint,
}

pub fn run_once(w: &Workload, i: usize, pristine: &ResourcePool) -> Rep {
    let (sim, _store) = w.market(i, pristine.clone());
    let t0 = Instant::now();
    let (outcome, pool) = std::hint::black_box(sim.run_full());
    let wall = t0.elapsed();
    let fingerprint = Fingerprint::of(&outcome, &pool);
    Rep {
        instance: i,
        wall,
        outcome,
        fingerprint,
    }
}

/// Run the instances round-robin until `budget` has elapsed and every
/// instance has run at least `min_reps` times. Also returns the peak
/// resident memory after the first round, before the number of runs starts
/// to depend on the host's speed.
pub fn run_for(
    w: &Workload,
    pristine: &[ResourcePool],
    budget: Duration,
    min_reps: usize,
) -> (Vec<Rep>, Option<f64>) {
    let n = pristine.len();
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut rss = None;
    while reps.len() < min_reps * n || t0.elapsed() < budget {
        let i = reps.len() % n;
        reps.push(run_once(w, i, &pristine[i]));
        if reps.len() == n {
            rss = peak_rss_mb();
        }
    }
    (reps, rss)
}

/// The output checks of a set of repetitions: no degree leaked, and every
/// repetition of an instance reproduces its first exactly. Returns one
/// message per failed check.
pub fn check_reps(reps: &[Rep]) -> Vec<String> {
    let mut errs = Vec::new();
    for (k, r) in reps.iter().enumerate() {
        if r.outcome.leaked_degrees != 0 {
            errs.push(format!(
                "instance {} repetition {k}: {} degrees leaked",
                r.instance, r.outcome.leaked_degrees
            ));
        }
        let first = reps
            .iter()
            .find(|f| f.instance == r.instance)
            .expect("r itself matches");
        if r.fingerprint != first.fingerprint {
            errs.push(format!(
                "instance {} repetition {k} diverged from its first run: {:?} vs {:?}",
                r.instance, r.fingerprint, first.fingerprint
            ));
        }
    }
    errs
}

/// The first repetition of each instance, in instance order.
pub fn firsts(reps: &[Rep], n: usize) -> Vec<&Rep> {
    (0..n)
        .map(|i| {
            reps.iter()
                .find(|r| r.instance == i)
                .expect("every instance ran")
        })
        .collect()
}

/// Pin glibc's mmap threshold at its default. Left dynamic, the threshold
/// rises after the first large free, later latency-matrix-sized buffers come
/// from the heap instead, and whether their pages stay resident depends on
/// heap layout — which hash-map iteration order varies from process to
/// process — so the same workload's peak RSS jumped between two values 15%
/// apart. Allocation behaviour of the measured code is otherwise unchanged.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only updates allocator
    // settings; it is called before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_mmap_threshold() {}

/// Peak resident set of this process, MiB (`ru_maxrss` of `getrusage`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, which `getrusage` fills and keeps no
    // pointer to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    (rc == 0).then(|| ru.maxrss as f64 / 1024.0)
}
