//! The three market workloads and the inputs each one generates from the
//! benchmark seed. The program only ever sees the generated inputs: a pool
//! configuration and seed, a market configuration with its fault plan, and
//! the market seed that draws the member partition.

use netsim::NetworkConfig;
use oracle::{LatencySource, TieredConfig};
use pool::{
    DiscoveryMode, LiveOps, LiveOpsConfig, MarketConfig, MarketSim, PlanConfig, PoolConfig,
    ResourcePool,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simcore::rng::derive_seed;
use simcore::{FaultPlan, SimTime};

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Figure 10 point: planner-bound, fault-free, live
    /// discovery, exact oracle.
    Fig10Market,
    /// Multipath sessions under permanent crashes with query discovery,
    /// auditing and a live-operations surface attached.
    FaultedMultipathOps,
    /// A 16384-host pool planned through the tiered oracle with snapshot
    /// discovery.
    Tiered16k,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::Fig10Market,
        Kind::FaultedMultipathOps,
        Kind::Tiered16k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig10Market => "fig10_market",
            Kind::FaultedMultipathOps => "faulted_multipath_ops",
            Kind::Tiered16k => "tiered_16k",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Full size is what the benchmark measures; small size is the self-test's
/// quick pass over the same code paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// One market of a workload: its own pool, fault plan and member
/// partition.
#[derive(Clone, Debug)]
pub struct Instance {
    pub pool_seed: u64,
    pub market_cfg: MarketConfig,
    pub market_seed: u64,
}

/// Everything one workload run needs, generated from the benchmark seed.
///
/// A run measures several independent markets (instances) where a market is
/// cheap enough: how much work a single market does varies by seed, and the
/// run's figures are sums over its instances.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub pool_cfg: PoolConfig,
    pub instances: Vec<Instance>,
    /// Period of the live-operations snapshot round; `None` runs without a
    /// live-operations surface.
    pub liveops: Option<SimTime>,
}

/// Utilization at or above which the live-operations surface flags a host.
pub const UTIL_THRESHOLD: f64 = 0.9;

impl Workload {
    pub fn generate(kind: Kind, size: Size, seed: u64) -> Workload {
        let small = size == Size::Small;
        let hosts = match (kind, small) {
            (Kind::Tiered16k, false) => 16_384,
            (Kind::Tiered16k, true) => 1024,
            (_, false) => 1200,
            (_, true) => 200,
        };
        let latency_source = match kind {
            Kind::Tiered16k => LatencySource::Tiered(TieredConfig {
                // The small pool keeps the LRU thrashing that the full
                // pool's 128 rows see under 24 × 32 members.
                hot_rows: if small {
                    16
                } else {
                    TieredConfig::default().hot_rows
                },
                ..TieredConfig::default()
            }),
            _ => LatencySource::Exact,
        };
        let pool_cfg = PoolConfig {
            net: NetworkConfig {
                num_hosts: hosts,
                ..NetworkConfig::default()
            },
            latency_source,
            ..PoolConfig::default()
        };
        let (sessions, member_size) = match (kind, small) {
            (Kind::Tiered16k, false) => (24, 32),
            (Kind::Tiered16k, true) => (4, 16),
            (_, false) => (40, 20),
            (_, true) => (6, 10),
        };
        let horizon = match (kind, small) {
            (Kind::Tiered16k, false) => 1800,
            (_, false) => 3600,
            (_, true) => 900,
        };
        let warmup = if small { 120 } else { 600 };
        let base = MarketConfig {
            sessions,
            member_size,
            horizon: SimTime::from_secs(horizon),
            warmup: SimTime::from_secs(warmup),
            plan: PlanConfig::default(),
            audit_period: None,
            plan_threads: 1,
            ..MarketConfig::default()
        };
        // 10% of the pool crashes for good between 1/6 and 3/4 of the
        // horizon (600 s and 2700 s at full size).
        let crash_window = (horizon / 6, horizon * 3 / 4);
        let market_cfg = |fault_seed: u64| match kind {
            Kind::Fig10Market => base.clone(),
            Kind::FaultedMultipathOps => MarketConfig {
                plan: PlanConfig {
                    k_trees: 2,
                    ..PlanConfig::default()
                },
                faults: crash_plan(hosts, 0.10, crash_window, fault_seed),
                discovery: DiscoveryMode::Query,
                view_refresh: Some(SimTime::from_secs(60)),
                audit_period: Some(SimTime::from_secs(30)),
                ..base.clone()
            },
            Kind::Tiered16k => MarketConfig {
                discovery: DiscoveryMode::Snapshot,
                view_refresh: Some(SimTime::from_secs(60)),
                ..base.clone()
            },
        };
        let instances = match kind {
            Kind::Fig10Market => 3,
            Kind::FaultedMultipathOps => 2,
            // One 16384-host pool holds about 2 GB.
            Kind::Tiered16k => 1,
        };
        let instances = (0..instances)
            .map(|i| {
                let s = derive_seed(seed, i);
                Instance {
                    pool_seed: derive_seed(s, 0xB0_01),
                    market_cfg: market_cfg(derive_seed(s, 0xB0_03)),
                    market_seed: derive_seed(s, 0xB0_02),
                }
            })
            .collect();
        let liveops = (kind == Kind::FaultedMultipathOps).then(|| SimTime::from_secs(60));
        Workload {
            kind,
            pool_cfg,
            instances,
            liveops,
        }
    }

    pub fn build_pool(&self, i: usize) -> ResourcePool {
        ResourcePool::build(&self.pool_cfg, self.instances[i].pool_seed)
    }

    /// Instance `i`'s market over `pool`, with the live-operations surface
    /// attached when the workload has one.
    pub fn market(
        &self,
        i: usize,
        pool: ResourcePool,
    ) -> (MarketSim, Option<pool::MarketStoreHandle>) {
        let inst = &self.instances[i];
        let mut sim = MarketSim::new(pool, inst.market_cfg.clone(), inst.market_seed);
        let handle = self.liveops.map(|period| {
            sim.attach_liveops(LiveOps::new(LiveOpsConfig {
                snapshot_period: period,
                util_threshold: UTIL_THRESHOLD,
                ..LiveOpsConfig::default()
            }))
        });
        (sim, handle)
    }

    /// Simulated hours of one market.
    pub fn sim_hours(&self) -> f64 {
        self.instances[0].market_cfg.horizon.as_secs_f64() / 3600.0
    }
}

/// Crash `rate` of the pool's hosts permanently at times drawn uniformly in
/// `[lo_s, hi_s)` seconds.
fn crash_plan(hosts: usize, rate: f64, (lo_s, hi_s): (u64, u64), seed: u64) -> FaultPlan {
    let n = (hosts as f64 * rate).round() as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..hosts as u64).collect();
    order.shuffle(&mut rng);
    let mut plan = FaultPlan::none();
    for &h in order.iter().take(n) {
        let at = rng.random_range(lo_s..hi_s);
        plan = plan.crash_forever(h, SimTime::from_secs(at));
    }
    plan
}
