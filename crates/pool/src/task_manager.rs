//! The per-session task manager (§5.2–5.3).
//!
//! "The root of an ALM session is the task manager, which performs the
//! planning and scheduling of the tree topology." A task manager:
//!
//! 1. releases whatever its session currently holds (replanning is
//!    all-or-nothing),
//! 2. reads availability from the pool's degree tables (in deployment:
//!    the SOMO root view),
//! 3. plans with the configured algorithm family — AMCast / +helpers
//!    (critical) / +adjust — against the configured latency model
//!    (coordinates in practice, the oracle for the *Critical* baselines),
//! 4. reserves degrees along the planned tree: member nodes at member rank,
//!    helpers at the session's priority rank — preempting lower-priority
//!    holders, who must then replan.
//!
//! The returned [`PlanOutcome`] carries the *oracle* height of the tree
//! (what users would actually experience) and the improvement over the
//! members-only AMCast baseline, the paper's headline metric.

use alm::critical::helpers_used;
use alm::{
    adjust, amcast, try_amcast, try_critical, HelperPool, HelperStrategy, MulticastTree, Problem,
};
use netsim::{HostId, LatencyModel};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::degree_table::{Rank, SessionId};
use crate::ResourcePool;

/// Which latency model the planner consults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanModel {
    /// Exact pairwise latencies everywhere (the paper's *Critical*
    /// family — an oracle).
    Oracle,
    /// The practical *Leafset* family: members measure each other directly
    /// (a session pings its own small member set), while the vast helper
    /// candidate list is judged through leafset network coordinates.
    Coords,
}

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// Latency model used for planning decisions.
    pub model: PlanModel,
    /// Recruit helpers from the pool (the critical-node algorithm).
    pub use_helpers: bool,
    /// Run the adjustment pass after building the tree.
    pub use_adjust: bool,
    /// Condition 2: minimum available degree for a helper.
    pub helper_min_degree: u32,
    /// Condition 3: helper search radius R, ms.
    pub radius_ms: f64,
    /// Helper scoring strategy.
    pub strategy: HelperStrategy,
    /// Candidate budget of a query-based discovery ([`Discovery::Query`]):
    /// the `k` of the pool-wide top-k idle-helper query. Matches
    /// [`crate::ResourceReport::DEFAULT_CAP`] by default, so the query path
    /// sees the same truncation budget as the snapshot view.
    pub query_k: usize,
    /// Trees planned per session: the primary plus `k_trees - 1`
    /// degree-disjoint standby trees ([`plan_standby_trees`]). 1 (the
    /// default) reproduces the single-tree planner bit for bit.
    pub k_trees: usize,
    /// Per-member stream rate, kbit/s — with the access-bandwidth estimates
    /// it bounds a host's total fan-out across a session's trees
    /// ([`fanout_cap`]).
    pub stream_kbps: f64,
}

impl Default for PlanConfig {
    /// The paper's practical algorithm: *Leafset + adjust* with helpers,
    /// degree ≥ 4, R = 100 ms, min-max sibling scoring.
    fn default() -> Self {
        PlanConfig {
            model: PlanModel::Coords,
            use_helpers: true,
            use_adjust: true,
            helper_min_degree: 4,
            radius_ms: 100.0,
            strategy: HelperStrategy::MinMaxSibling,
            query_k: crate::ResourceReport::DEFAULT_CAP,
            k_trees: 1,
            stream_kbps: 128.0,
        }
    }
}

impl PlanConfig {
    /// The helper pool the planners recruit from: `candidates` under this
    /// configuration's degree floor, radius and scoring strategy.
    fn helper_pool(&self, candidates: &[HostId]) -> HelperPool {
        let mut hp = HelperPool::new(candidates.to_vec());
        hp.min_degree = self.helper_min_degree;
        hp.radius_ms = self.radius_ms;
        hp.strategy = self.strategy;
        hp
    }
}

/// One ALM session.
///
/// Concurrent sessions must have **disjoint member sets** (the paper's
/// §5.3 assumption): a member claim ranks above every helper claim, so two
/// sessions claiming the same host as a *member* could otherwise leave one
/// of them without even a parent-link degree.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session identity.
    pub id: SessionId,
    /// Priority class, 1 (highest) to 3 (lowest).
    pub priority: u8,
    /// The session root (source; also the task manager).
    pub root: HostId,
    /// The member set M(s), including the root.
    pub members: Vec<HostId>,
}

/// Result of one planning + reservation round.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The reserved multicast tree (members + helpers).
    pub tree: MulticastTree,
    /// Tree height under the *oracle* latency model, ms.
    pub oracle_height: f64,
    /// Members-only AMCast baseline height (oracle), ms.
    pub baseline_height: f64,
    /// `(baseline − achieved) / baseline` — the paper's metric.
    pub improvement: f64,
    /// Helpers recruited from the pool.
    pub helpers: Vec<HostId>,
    /// Sessions that lost degrees to this reservation and must replan.
    pub preempted: Vec<SessionId>,
    /// Helpers a stale view promised but that refused the reservation
    /// (always 0 when planning from live degree tables).
    pub helper_failures: u32,
    /// Relaxations ([`alm::metrics::relaxations`]) this plan performed:
    /// the thread-local counter's delta across the plan.
    pub relaxations: u64,
    /// [`netsim::latency::latency_calls`] this plan performed, measured
    /// like `relaxations`.
    pub latency_calls: u64,
}

/// Where a task manager reads helper availability from.
pub enum Discovery<'a> {
    /// The live degree tables: reservations cannot fail.
    Live,
    /// A (possibly **stale**) SOMO snapshot view — what a deployed task
    /// manager reads. Helpers it promised that refuse their reservation
    /// (over-committed or crashed) are dropped and the plan retried.
    View(&'a crate::ResourceReport),
    /// A pool-wide top-k answer (`cfg.query_k` best idle helpers at the
    /// session's rank) — the `O(log N)` path, stale like any cached view.
    Query(&'a mut query::QueryIndex),
    /// Live tables under fair-allocation caps: helpers booked at
    /// [`FAIR_HELPER_RANK`] (free degrees only), at most `helper_budget`
    /// helper degrees, a single tree (standby trees are a priority-mode
    /// feature).
    Fair(&'a FairShareCaps<'a>),
}

/// The task manager's procedure: release what the session holds, discover
/// candidates, plan, and reserve — members at member rank, helpers at the
/// helper rank, preempting lower-priority holders. Every reservation is a
/// **lease** expiring at `lease_until` unless renewed (`None` reserves
/// permanently): a manager that dies stops renewing and its degrees flow
/// back to the pool. Refused helpers are dropped and the plan retried;
/// past the retry budget the session plans members-only.
///
/// # Panics
/// If `spec.priority` is outside 1..=3, or if the session's member set is
/// internally infeasible (a member with physical degree bound 0) —
/// impossible with the paper's distribution.
pub fn plan_and_reserve(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    discovery: Discovery<'_>,
    lease_until: Option<SimTime>,
) -> PlanOutcome {
    assert!((1..=3).contains(&spec.priority), "priority must be 1..=3");
    // Replanning is all-or-nothing: drop current holdings first.
    pool.release_session(spec.id);
    let caps = match &discovery {
        Discovery::Fair(caps) => Some(*caps),
        _ => None,
    };
    let (mut candidates, believed_avail) = discover(pool, spec, cfg, discovery);

    let helper_rank = caps.map_or(Rank::helper(spec.priority), |_| FAIR_HELPER_RANK);
    // The fair-share budget is enforced at reservation time, not by
    // trimming the candidate list, so the planner still sees the pool's
    // full breadth: a helper whose tree degree would push the running total
    // past the budget is refused like a stale-view lie and the retry loop
    // replans without it. `u64::MAX` (priority mode) never refuses.
    let helper_budget = caps.map_or(u64::MAX, |c| c.helper_budget);
    let stale: std::collections::HashMap<HostId, u32> = believed_avail.into_iter().collect();
    // Per-plan counter window: everything from the baseline evaluation to
    // the final retry is this plan's work.
    let rel0 = alm::metrics::relaxations();
    let lat0 = netsim::latency::latency_calls();
    let baseline_height = members_only_baseline(pool, spec);
    let mut helper_failures = 0u32;
    // Owned handle on the configured planning oracle, so the planning
    // calls below don't hold a borrow across the mutable reservation
    // loop. Under `LatencySource::Exact` it is a zero-copy snapshot of
    // the dense kernel — value-identical to `pool.net.latency`; under
    // `Tiered` the session's members and candidate helpers are promoted
    // into the hot tier first, so member↔member and member↔helper pairs
    // answer exactly.
    pool.promote_hot(&spec.members);
    pool.promote_hot(&candidates);
    let oracle = pool.planning_oracle();

    // The planning pass may first run against tightened member bounds.
    // A multipath session budgets its members: each future standby tree
    // needs at least a parent link (and the root a child slot) on every
    // member, so the primary leaves one degree unit per extra tree behind
    // when it can. A degraded admission instead clamps every member's
    // degree (never below 2, so a chain stays feasible). Fair modes plan a
    // single tree, so the two never apply together.
    let k_trees = if caps.is_some() { 1 } else { cfg.k_trees };
    let standby_budget = k_trees.saturating_sub(1) as u32;
    let member_degree = caps.and_then(|c| c.member_degree);
    let tighten = |avail: u32| match member_degree {
        Some(cap) => avail.min(cap.max(2)),
        None => avail.saturating_sub(standby_budget).max(avail.min(1)),
    };

    const MAX_RETRIES: usize = 5;
    for attempt in 0.. {
        // Members always report their live state (a node knows itself).
        let mut avail_map: std::collections::HashMap<HostId, u32> = spec
            .members
            .iter()
            .map(|&m| (m, pool.available(m, Rank::MEMBER)))
            .collect();
        for &h in &candidates {
            avail_map.insert(h, stale.get(&h).copied().unwrap_or(0));
        }

        let plan = |map: &std::collections::HashMap<HostId, u32>| {
            let avail = |h: HostId| -> u32 { map.get(&h).copied().unwrap_or(0) };
            match cfg.model {
                PlanModel::Oracle => try_plan_tree(spec, &oracle, &avail, &candidates, cfg),
                // The practical loop: shortlist helpers through
                // coordinates, measure the contacted ones, replan on
                // measurements.
                PlanModel::Coords => alm::try_staged_plan(
                    spec.root,
                    &spec.members,
                    &oracle,
                    &pool.coords,
                    avail,
                    &cfg.helper_pool(&candidates),
                    cfg.use_adjust,
                ),
            }
        };
        // The tightened attempt is fallible: if the trimmed bounds cannot
        // host a tree, the session replans with full availability —
        // robustness and degradation must never kill the primary.
        let tightened = (standby_budget > 0 || member_degree.is_some()).then(|| {
            let mut tmap = avail_map.clone();
            for &m in &spec.members {
                tmap.entry(m).and_modify(|a| *a = tighten(*a));
            }
            tmap
        });
        let tree = tightened.and_then(|tmap| plan(&tmap)).unwrap_or_else(|| {
            plan(&avail_map).expect("tree out of capacity for remaining members")
        });

        // Reserve the tree: members at member rank, helpers at the helper
        // rank. Helper reservations may fail against a stale view, or be
        // refused by the helper budget (fair modes) — both land in the
        // same retry loop.
        let mut preempted = Vec::new();
        let mut failed: Vec<HostId> = Vec::new();
        let mut helper_spend = 0u64;
        for &h in tree.hosts() {
            let degree = tree.degree(h);
            let rank = if spec.members.contains(&h) {
                Rank::MEMBER
            } else {
                helper_rank
            };
            if rank != Rank::MEMBER && helper_spend + degree as u64 > helper_budget {
                failed.push(h);
                continue;
            }
            match pool.reserve_leased(h, spec.id, rank, degree, lease_until) {
                Ok(victims) => {
                    if rank != Rank::MEMBER {
                        helper_spend += degree as u64;
                    }
                    preempted.extend(victims.into_iter().map(|(s, _)| s));
                }
                Err(e) => {
                    assert!(
                        rank != Rank::MEMBER,
                        "member reservation failed on {h:?}: {e} — member sets must be disjoint"
                    );
                    failed.push(h);
                }
            }
        }

        if !failed.is_empty() {
            // The view lied about these hosts; drop them and replan. Out of
            // retries, fall back to a members-only plan, which cannot fail.
            helper_failures += failed.len() as u32;
            pool.release_session(spec.id);
            if attempt < MAX_RETRIES {
                candidates.retain(|c| !failed.contains(c));
            } else {
                candidates.clear();
            }
            continue;
        }

        preempted.sort_unstable();
        preempted.dedup();
        preempted.retain(|&s| s != spec.id);

        // The reported quality metric is always evaluated under exact
        // latencies — even when planning went through the tiered oracle —
        // so heights and improvements stay comparable across latency
        // sources (and `Exact` mode stays bit-identical: there the two
        // models are value-identical anyway).
        let oracle_height = oracle_height(&tree, &pool.exact_latency());
        let helpers = helpers_used(&tree, &spec.members);
        return PlanOutcome {
            improvement: alm::problem::improvement(baseline_height, oracle_height),
            tree,
            oracle_height,
            baseline_height,
            helpers,
            preempted,
            helper_failures,
            relaxations: alm::metrics::relaxations().saturating_sub(rel0),
            latency_calls: netsim::latency::latency_calls().saturating_sub(lat0),
        };
    }
    unreachable!("the members-only fallback always succeeds")
}

/// [`plan_and_reserve`] over [`Discovery::Live`], kept for `perfbench`;
/// remove with `MarketConfig::plan_threads` in the next benchmark change.
pub fn plan_and_reserve_leased(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    lease_until: Option<SimTime>,
) -> PlanOutcome {
    plan_and_reserve(pool, spec, cfg, Discovery::Live, lease_until)
}

/// [`plan_and_reserve`] over [`Discovery::View`], kept for `perfbench`;
/// remove with `MarketConfig::plan_threads` in the next benchmark change.
pub fn plan_and_reserve_from_view_leased(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    view: &crate::ResourceReport,
    lease_until: Option<SimTime>,
) -> PlanOutcome {
    plan_and_reserve(pool, spec, cfg, Discovery::View(view), lease_until)
}

/// [`plan_and_reserve`] over [`Discovery::Query`], kept for `perfbench`;
/// remove with `MarketConfig::plan_threads` in the next benchmark change.
pub fn plan_and_reserve_from_query_leased(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    index: &mut query::QueryIndex,
    lease_until: Option<SimTime>,
) -> PlanOutcome {
    plan_and_reserve(pool, spec, cfg, Discovery::Query(index), lease_until)
}

/// The rank every session's helper claims are booked at under the fair
/// allocation modes ([`Discovery::Fair`]): the weakest helper rank. Equal
/// ranks never preempt each other, so fair-mode sessions can only take
/// **free** degrees — scarcity is resolved by the share budget, not by
/// evicting a neighbor's tree.
pub const FAIR_HELPER_RANK: Rank = Rank(3);

/// Reservation caps a fair-allocation planner runs under — the knobs the
/// market's Pareto water-filling and degraded admissions turn.
#[derive(Clone, Debug)]
pub struct FairShareCaps<'a> {
    /// Total helper degrees the session may claim across all helpers (its
    /// water-filled fair share, or a degraded admission's trimmed budget).
    pub helper_budget: u64,
    /// Per-member degree clamp for the planning pass (`None` = full
    /// availability); never below 2, and dropped if the clamped plan fails.
    pub member_degree: Option<u32>,
    /// Hosts barred from helper candidacy. The admission mode passes every
    /// market member host here: member-rank reservations then can never
    /// land on another session's helper claim, which (with the equal-rank
    /// booking) makes zero preemption a structural guarantee.
    pub exclude: &'a std::collections::HashSet<HostId>,
}

/// Read the helper candidates and the availability the planner believes
/// for each (fresh from the tables, or from a view that may be stale).
fn discover(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    discovery: Discovery<'_>,
) -> (Vec<HostId>, Vec<(HostId, u32)>) {
    let rank_idx = spec.priority as usize; // avail[]/free[] index for helper rank
    match discovery {
        Discovery::Live => {
            let helper_rank = Rank::helper(spec.priority);
            let candidates = if cfg.use_helpers {
                pool.candidates(helper_rank, &spec.members, cfg.helper_min_degree)
            } else {
                Vec::new()
            };
            let believed = candidates
                .iter()
                .map(|&h| (h, pool.available(h, helper_rank)))
                .collect();
            (candidates, believed)
        }
        Discovery::View(view) => {
            let candidates: Vec<HostId> = if cfg.use_helpers {
                view.candidates_at(rank_idx, cfg.helper_min_degree)
                    .filter(|h| !spec.members.contains(h))
                    .collect()
            } else {
                Vec::new()
            };
            let believed = view
                .entries
                .iter()
                .filter(|e| candidates.contains(&e.host))
                .map(|e| (e.host, e.avail[rank_idx]))
                .collect();
            (candidates, believed)
        }
        Discovery::Query(index) => {
            if !cfg.use_helpers {
                return (Vec::new(), Vec::new());
            }
            let ans = index.top_k(
                cfg.query_k,
                rank_idx,
                cfg.helper_min_degree,
                &spec.members,
                query::Scope::Global,
            );
            (
                ans.hosts.iter().map(|s| s.host).collect(),
                ans.hosts
                    .iter()
                    .map(|s| (s.host, s.free[rank_idx]))
                    .collect(),
            )
        }
        Discovery::Fair(caps) => {
            let mut candidates = if cfg.use_helpers && caps.helper_budget > 0 {
                pool.candidates(FAIR_HELPER_RANK, &spec.members, cfg.helper_min_degree)
            } else {
                Vec::new()
            };
            candidates.retain(|h| !caps.exclude.contains(h));
            // Order the survivors by their value to THIS session — nearest
            // to the member set first — so the planner meets the helpers it
            // can actually use first, not an arbitrary prefix of the pool.
            // The sort is fully deterministic: latency is a pure function
            // of the configured oracle's state (promotions happen before
            // any lookup, and lookups never mutate), ties break by host id.
            pool.promote_hot(&spec.members);
            pool.promote_hot(&candidates);
            let oracle = pool.planning_oracle();
            let mut keyed: Vec<(f64, HostId)> = candidates
                .iter()
                .map(|&h| {
                    let near = spec
                        .members
                        .iter()
                        .map(|&m| oracle.latency_ms(h, m))
                        .fold(f64::INFINITY, f64::min);
                    (near, h)
                })
                .collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let believed: Vec<(HostId, u32)> = keyed
                .into_iter()
                .map(|(_, h)| (h, pool.available(h, FAIR_HELPER_RANK)))
                .filter(|&(_, free)| free > 0)
                .collect();
            (believed.iter().map(|&(h, _)| h).collect(), believed)
        }
    }
}

/// Result of planning a session's standby trees (trees 2..=k of a
/// multipath session).
#[derive(Clone, Debug, Default)]
pub struct StandbyOutcome {
    /// The standby trees actually planned and reserved, in planning order.
    /// Shorter than `k_trees - 1` when residual capacity ran out: standby
    /// redundancy is best-effort, the primary never degrades for it.
    pub trees: Vec<MulticastTree>,
    /// Sessions that lost degrees to the standby reservations.
    pub preempted: Vec<SessionId>,
    /// Relaxations the standby pass performed (see
    /// [`PlanOutcome::relaxations`]).
    pub relaxations: u64,
    /// Latency-model calls the standby pass performed (see
    /// [`PlanOutcome::latency_calls`]).
    pub latency_calls: u64,
}

/// The per-host fan-out cap of a multipath session: how many **children**
/// (outgoing stream copies, summed across the session's trees) host `h`
/// may carry before its access uplink can no longer sustain
/// `cfg.stream_kbps` per copy. Parent links are downlink and don't count.
/// [`bwest::degree_for_stream`] returns a degree-style bound (it includes
/// the parent-link unit), so one unit is stripped; the cap is then relaxed
/// to the primary tree's own fan-out so it never constrains single-tree
/// planning — `k_trees = 1` stays bit-identical to the historical planner.
pub fn fanout_cap(
    pool: &ResourcePool,
    primary: &MulticastTree,
    cfg: &PlanConfig,
    h: HostId,
) -> u32 {
    let primary_fanout = if primary.contains(h) {
        primary.child_count(h) as u32
    } else {
        0
    };
    bwest::degree_for_stream(pool.bw.up(h), cfg.stream_kbps)
        .saturating_sub(1)
        .max(primary_fanout)
}

/// Plan and reserve a session's standby trees: up to `cfg.k_trees - 1`
/// extra trees over the same member set, **degree-disjoint** from the
/// primary and from each other. `existing` lists standby trees the session
/// already holds (still reserved): they count toward the `k_trees` target
/// and toward every host's fan-out, so a post-crash rebuild replaces only
/// the lost trees instead of replanning the surviving ones.
///
/// Disjointness comes from planning each tree against a residual-capacity
/// view layered over the live degree tables: a host's believed availability
/// is its table availability at the claiming rank (which already excludes
/// this session's earlier same-rank claims) clamped to the bandwidth
/// headroom left under [`fanout_cap`]. Planning stops — without touching
/// the trees already reserved — the moment a tree no longer fits: a member
/// with zero residual capacity, an out-of-capacity planner
/// ([`try_critical`] / [`try_amcast`] returning `None`), or a refused
/// reservation (rolled back degree-for-degree via
/// [`ResourcePool::release_degrees`]).
pub fn plan_standby_trees(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    primary: &MulticastTree,
    existing: &[MulticastTree],
    lease_until: Option<SimTime>,
) -> StandbyOutcome {
    let helper_rank = Rank::helper(spec.priority);
    let rel0 = alm::metrics::relaxations();
    let lat0 = netsim::latency::latency_calls();
    // Standby planning is a planning decision: it reads the configured
    // latency source. Member rows are promoted once; each round's
    // surviving candidates are promoted below (the shared handle sees
    // later promotions).
    pool.promote_hot(&spec.members);
    let oracle = pool.planning_oracle();
    let mut trees: Vec<MulticastTree> = Vec::new();
    let mut preempted: Vec<SessionId> = Vec::new();
    // Fan-out (children) this session's trees already consume per host —
    // what the bandwidth cap bounds. Degree-unit disjointness needs no
    // bookkeeping of its own: `pool.available` already excludes the
    // session's earlier same-rank claims, so it *is* the residual.
    let mut fanout = alm::multipath::fanout_totals(std::slice::from_ref(primary));
    for t in existing {
        for &h in t.hosts() {
            *fanout.entry(h).or_default() += t.child_count(h) as u32;
        }
    }

    while existing.len() + trees.len() + 1 < cfg.k_trees {
        // Children still affordable under the cap. A tree node's degree is
        // children + 1 parent link (root: children only), so a non-root
        // host may claim one more degree unit than its child headroom.
        let child_headroom = |h: HostId| -> u32 {
            fanout_cap(pool, primary, cfg, h).saturating_sub(fanout.get(&h).copied().unwrap_or(0))
        };
        // Leave a degree unit per member for each tree still to come (the
        // same budget the primary applied), without starving this one.
        let future = cfg.k_trees.saturating_sub(existing.len() + trees.len() + 2) as u32;
        let budgeted = |avail: u32| avail.saturating_sub(future).max(avail.min(1));
        // Members must each afford at least a parent link in the new tree;
        // one exhausted member ends the whole standby plan (Problem::new
        // rejects zero-degree members), as does a root with no child slot.
        let mut avail_map: std::collections::HashMap<HostId, u32> =
            std::collections::HashMap::new();
        let mut starved = false;
        for &m in &spec.members {
            let slack = if m == spec.root {
                child_headroom(m)
            } else {
                child_headroom(m) + 1
            };
            let a = budgeted(pool.available(m, Rank::MEMBER)).min(slack);
            if a == 0 {
                starved = true;
                break;
            }
            avail_map.insert(m, a);
        }
        if starved {
            break;
        }
        let mut candidates: Vec<HostId> = if cfg.use_helpers {
            pool.candidates(helper_rank, &spec.members, cfg.helper_min_degree)
        } else {
            Vec::new()
        };
        candidates.retain(|&h| {
            let a = pool.available(h, helper_rank).min(child_headroom(h) + 1);
            if a > 0 {
                avail_map.insert(h, a);
            }
            a > 0
        });
        pool.promote_hot(&candidates);
        let avail = |h: HostId| -> u32 { avail_map.get(&h).copied().unwrap_or(0) };

        // Budgeted members are mostly leaf-only, so helpers must form the
        // backbone of a standby tree — and the primary's helper radius R
        // often has too few high-degree hosts left inside it. Escalate:
        // plan at the configured radius first (same quality bar as the
        // primary), then retry with the radius opened up. A far helper
        // costs height, which a standby tree only pays during a failover
        // window; redundancy beats beauty here.
        let mut wide = cfg.clone();
        wide.radius_ms = f64::INFINITY;
        let planned = match cfg.model {
            PlanModel::Oracle => try_plan_tree(spec, &oracle, &avail, &candidates, cfg)
                .or_else(|| try_plan_tree(spec, &oracle, &avail, &candidates, &wide)),
            // Standby trees skip the staged measure-and-replan loop: they
            // are background redundancy, planned straight from coordinates.
            PlanModel::Coords => try_plan_tree(spec, &pool.coords, &avail, &candidates, cfg)
                .or_else(|| try_plan_tree(spec, &pool.coords, &avail, &candidates, &wide)),
        };
        let Some(tree) = planned else { break };

        // Reserve the tree all-or-rollback: availability is live, so
        // refusals are not expected — but a refusal must not leak the
        // partially reserved tree.
        let mut reserved: Vec<(HostId, Rank, u32)> = Vec::new();
        let mut this_preempted: Vec<SessionId> = Vec::new();
        let mut refused = false;
        for &h in tree.hosts() {
            let degree = tree.degree(h);
            let rank = if spec.members.contains(&h) {
                Rank::MEMBER
            } else {
                helper_rank
            };
            match pool.reserve_leased(h, spec.id, rank, degree, lease_until) {
                Ok(victims) => {
                    this_preempted.extend(victims.into_iter().map(|(s, _)| s));
                    reserved.push((h, rank, degree));
                }
                Err(_) => {
                    refused = true;
                    break;
                }
            }
        }
        if refused {
            for (h, rank, count) in reserved {
                pool.release_degrees(h, spec.id, rank, count);
            }
            break;
        }
        preempted.extend(this_preempted);
        for &h in tree.hosts() {
            *fanout.entry(h).or_default() += tree.child_count(h) as u32;
        }
        trees.push(tree);
    }

    preempted.sort_unstable();
    preempted.dedup();
    preempted.retain(|&s| s != spec.id);
    StandbyOutcome {
        trees,
        preempted,
        relaxations: alm::metrics::relaxations().saturating_sub(rel0),
        latency_calls: netsim::latency::latency_calls().saturating_sub(lat0),
    }
}

/// The members-only AMCast baseline: physical degree bounds, oracle
/// latencies — the denominator of every improvement figure in the paper.
/// Always evaluated under exact latencies
/// ([`ResourcePool::exact_latency`]) regardless of
/// [`crate::PoolConfig::latency_source`]: it is a quality *metric*, not a
/// planning decision, and must stay comparable across sources.
pub fn members_only_baseline(pool: &ResourcePool, spec: &SessionSpec) -> f64 {
    let oracle = pool.exact_latency();
    let dbound = |h: HostId| pool.net.hosts.degree_bound(h);
    let p = Problem::new(spec.root, spec.members.clone(), &oracle, dbound);
    amcast(&p).max_height()
}

/// Plan one tree over `candidates` under the availability view: the
/// critical-node engine when helpers are on, plain AMCast otherwise, then
/// the optional adjustment pass. `None` when the view cannot host a
/// spanning tree — the standby planner runs against residual capacity,
/// where running dry is an expected outcome.
fn try_plan_tree<L: LatencyModel>(
    spec: &SessionSpec,
    model: &L,
    avail: &impl Fn(HostId) -> u32,
    candidates: &[HostId],
    cfg: &PlanConfig,
) -> Option<MulticastTree> {
    let p = Problem::new(spec.root, spec.members.clone(), model, avail);
    let mut tree = if cfg.use_helpers && !candidates.is_empty() {
        try_critical(&p, &cfg.helper_pool(candidates))?
    } else {
        try_amcast(&p)?
    };
    if cfg.use_adjust {
        adjust(&p, &mut tree);
    }
    Some(tree)
}

/// Recompute a tree's height under a (possibly different) latency model.
pub fn oracle_height(tree: &MulticastTree, oracle: &impl LatencyModel) -> f64 {
    let mut t = tree.clone();
    t.recompute_heights(oracle);
    t.max_height()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use netsim::NetworkConfig;

    fn small_pool(seed: u64) -> ResourcePool {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 6,
                ..PoolConfig::default()
            },
            seed,
        )
    }

    fn spec(pool: &ResourcePool, id: u32, priority: u8, seed: u64) -> SessionSpec {
        let members = pool.sample_members(20, seed);
        SessionSpec {
            id: SessionId(id),
            priority,
            root: members[0],
            members,
        }
    }

    #[test]
    fn plan_reserves_exactly_the_tree_degrees() {
        let mut pool = small_pool(1);
        let s = spec(&pool, 1, 2, 10);
        let out = plan_and_reserve(&mut pool, &s, &PlanConfig::default(), Discovery::Live, None);
        for &h in out.tree.hosts() {
            assert_eq!(
                pool.table(h).held_by(SessionId(1)),
                out.tree.degree(h),
                "holding mismatch on {h:?}"
            );
        }
        // Nothing reserved outside the tree.
        let tree_hosts: std::collections::HashSet<HostId> =
            out.tree.hosts().iter().copied().collect();
        for h in pool.net.hosts.ids() {
            if !tree_hosts.contains(&h) {
                assert_eq!(pool.table(h).held_by(SessionId(1)), 0);
            }
        }
    }

    #[test]
    fn release_returns_pool_to_empty() {
        let mut pool = small_pool(2);
        let s = spec(&pool, 1, 1, 11);
        plan_and_reserve(&mut pool, &s, &PlanConfig::default(), Discovery::Live, None);
        assert!(pool.total_used() > 0);
        pool.release_session(SessionId(1));
        assert_eq!(pool.total_used(), 0);
    }

    #[test]
    fn replan_is_idempotent_in_holdings() {
        let mut pool = small_pool(3);
        let s = spec(&pool, 1, 2, 12);
        let a = plan_and_reserve(&mut pool, &s, &PlanConfig::default(), Discovery::Live, None);
        let used_a = pool.total_used();
        let b = plan_and_reserve(&mut pool, &s, &PlanConfig::default(), Discovery::Live, None);
        assert_eq!(pool.total_used(), used_a, "replan leaked degrees");
        assert_eq!(a.oracle_height, b.oracle_height);
    }

    #[test]
    fn oracle_planning_beats_baseline_on_average() {
        let mut pool = small_pool(4);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let mut total = 0.0;
        let runs = 6;
        for i in 0..runs {
            let s = spec(&pool, 100 + i, 1, 20 + i as u64);
            let out = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
            pool.release_session(s.id);
            total += out.improvement;
        }
        let avg = total / runs as f64;
        assert!(avg > 0.05, "average improvement {avg} too small");
    }

    #[test]
    fn coords_planning_is_still_positive_with_adjust() {
        let mut pool = small_pool(5);
        let cfg = PlanConfig::default(); // Coords + helpers + adjust
        let mut total = 0.0;
        let runs = 6;
        for i in 0..runs {
            let s = spec(&pool, 200 + i, 1, 40 + i as u64);
            let out = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
            pool.release_session(s.id);
            total += out.improvement;
        }
        let avg = total / runs as f64;
        assert!(
            avg > 0.0,
            "Leafset+adjust average improvement {avg} not positive"
        );
    }

    #[test]
    fn higher_priority_preempts_lower() {
        let mut pool = small_pool(6);
        // Two sessions over the same member universe region compete for
        // helpers: the low-priority one goes first and grabs helpers, the
        // high-priority one then preempts some of them.
        let members = pool.sample_members(40, 50);
        let low = SessionSpec {
            id: SessionId(1),
            priority: 3,
            root: members[0],
            members: members[..20].to_vec(),
        };
        let high = SessionSpec {
            id: SessionId(2),
            priority: 1,
            root: members[20],
            members: members[20..].to_vec(),
        };
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let out_low = plan_and_reserve(&mut pool, &low, &cfg, Discovery::Live, None);
        let held_before: u32 = out_low
            .tree
            .hosts()
            .iter()
            .map(|&h| pool.table(h).held_by(SessionId(1)))
            .sum();
        assert!(held_before > 0);
        let out_high = plan_and_reserve(&mut pool, &high, &cfg, Discovery::Live, None);
        // If the high-priority session preempted anyone, it must be s1.
        for s in &out_high.preempted {
            assert_eq!(*s, SessionId(1));
        }
        // And s1 never preempts s2 on replan at rank 3 (helpers), though
        // member-rank claims may: check helper claims only is implicit in
        // preempted list semantics — replan and verify.
        let out_low2 = plan_and_reserve(&mut pool, &low, &cfg, Discovery::Live, None);
        // s1's helper claims cannot displace s2's helper claims; any
        // preemption it caused must have been via its *member* nodes.
        for &h in out_low2.tree.hosts() {
            if !low.members.contains(&h) {
                // helper node: s2 must not have lost degrees here to s1
                // (rank 3 cannot preempt rank 1)
                // — verified structurally by DegreeTable tests; here we
                // just confirm the pool stayed consistent.
                assert!(pool.table(h).used() <= pool.table(h).dbound());
            }
        }
    }

    #[test]
    fn fresh_view_matches_live_planning() {
        let mut pool = small_pool(8);
        let s = spec(&pool, 31, 2, 70);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let view = pool.snapshot_report(usize::MAX);
        let from_view = plan_and_reserve(&mut pool, &s, &cfg, Discovery::View(&view), None);
        assert_eq!(from_view.helper_failures, 0, "fresh view caused failures");
        pool.release_session(s.id);
        let live = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        assert_eq!(from_view.oracle_height, live.oracle_height);
        assert_eq!(from_view.helpers, live.helpers);
    }

    #[test]
    fn stale_view_failures_are_absorbed() {
        let mut pool = small_pool(9);
        let sets = pool.partition_members(4, 20, 80);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        // Snapshot the empty pool, then let three priority-1 sessions
        // grab helpers, making the snapshot stale.
        let stale_view = pool.snapshot_report(usize::MAX);
        for (i, members) in sets[..3].iter().enumerate() {
            let s = SessionSpec {
                id: SessionId(50 + i as u32),
                priority: 1,
                root: members[0],
                members: members.clone(),
            };
            plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        }
        // A low-priority probe plans from the stale view: helpers it was
        // promised may refuse (it cannot preempt priority 1), but the plan
        // must complete, stay consistent, and never fall below baseline.
        let probe = SessionSpec {
            id: SessionId(99),
            priority: 3,
            root: sets[3][0],
            members: sets[3].clone(),
        };
        let out = plan_and_reserve(&mut pool, &probe, &cfg, Discovery::View(&stale_view), None);
        out.tree
            .validate(&pool.net.latency, |h| pool.net.hosts.degree_bound(h))
            .unwrap();
        assert!(
            out.improvement > -0.1,
            "stale-view plan far below the members-only baseline: {}",
            out.improvement
        );
        // Every holding matches the final tree exactly (no leakage from
        // the failed attempts).
        for &h in out.tree.hosts() {
            assert_eq!(pool.table(h).held_by(SessionId(99)), out.tree.degree(h));
        }
    }

    #[test]
    fn leased_plan_lapses_without_renewal_and_survives_with_it() {
        let mut pool = small_pool(12);
        let s = spec(&pool, 44, 2, 90);
        let lease = SimTime::from_secs(300);
        let out = plan_and_reserve(
            &mut pool,
            &s,
            &PlanConfig::default(),
            Discovery::Live,
            Some(lease),
        );
        let held = pool.held_total(SessionId(44));
        assert!(held > 0);
        assert_eq!(
            held,
            out.tree
                .hosts()
                .iter()
                .map(|&h| out.tree.degree(h))
                .sum::<u32>()
        );
        // Before the deadline nothing lapses.
        assert!(pool.expire_leases(SimTime::from_secs(299)).is_empty());
        // A renewal pushes the deadline out…
        assert_eq!(
            pool.renew_session(SessionId(44), SimTime::from_secs(600)),
            held
        );
        assert!(pool.expire_leases(SimTime::from_secs(300)).is_empty());
        assert_eq!(pool.held_total(SessionId(44)), held);
        // …and a missed renewal returns every degree to the pool.
        let lapsed = pool.expire_leases(SimTime::from_secs(600));
        assert_eq!(lapsed, vec![(SessionId(44), held)]);
        assert_eq!(pool.held_total(SessionId(44)), 0);
        assert_eq!(pool.total_used(), 0);
        assert!(pool.holdings_of(SessionId(44)).is_empty());
    }

    #[test]
    fn dead_candidate_from_stale_view_is_refused_and_absorbed() {
        let mut pool = small_pool(13);
        let s = spec(&pool, 55, 2, 95);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        // Snapshot, then crash the best helpers the view promised.
        let view = pool.snapshot_report(usize::MAX);
        let reference = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        pool.release_session(s.id);
        for &h in &reference.helpers {
            pool.kill_host(h);
        }
        let out = plan_and_reserve(&mut pool, &s, &cfg, Discovery::View(&view), None);
        if !reference.helpers.is_empty() {
            assert!(
                out.helper_failures > 0,
                "crashed candidates should have refused their reservations"
            );
        }
        // The final tree holds no dead host, and holdings match it exactly.
        for &h in out.tree.hosts() {
            assert!(pool.is_alive(h), "dead host {h:?} in final tree");
            assert_eq!(pool.table(h).held_by(SessionId(55)), out.tree.degree(h));
        }
    }

    #[test]
    fn members_only_fallback_when_no_helpers() {
        let mut pool = small_pool(7);
        let s = spec(&pool, 9, 2, 60);
        let cfg = PlanConfig {
            use_helpers: false,
            use_adjust: false,
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let out = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        assert!(out.helpers.is_empty());
        assert_eq!(out.tree.len(), s.members.len());
        assert!((out.oracle_height - out.baseline_height).abs() < 1e-6);
        assert_eq!(out.improvement, 0.0);
    }

    #[test]
    fn fair_plan_books_free_degrees_within_budget_and_exclusions() {
        let mut pool = small_pool(16);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let sets = pool.partition_members(2, 20, 110);
        let [low, high] = [(0, 3), (1, 1)].map(|(i, priority)| SessionSpec {
            id: SessionId(i as u32 + 1),
            priority,
            root: sets[i][0],
            members: sets[i].clone(),
        });
        // A lower-class session holds helper degrees, kept off every member
        // host (the admission discipline) so no member claim lands on one.
        let members: std::collections::HashSet<HostId> = sets.iter().flatten().copied().collect();
        let unlimited = FairShareCaps {
            helper_budget: u64::MAX,
            member_degree: None,
            exclude: &members,
        };
        let low_out = plan_and_reserve(&mut pool, &low, &cfg, Discovery::Fair(&unlimited), None);
        assert!(!low_out.helpers.is_empty());
        // At its own priority the high session would evict the low one.
        let live = plan_and_reserve(&mut pool.clone(), &high, &cfg, Discovery::Live, None);
        assert_eq!(live.preempted, vec![low.id]);
        // Under fair caps it may not; its ten best candidates are barred too.
        let mut exclude = members.clone();
        let best = pool.candidates(FAIR_HELPER_RANK, &high.members, cfg.helper_min_degree);
        exclude.extend(best.into_iter().take(10));
        let caps = FairShareCaps {
            helper_budget: 12,
            member_degree: Some(3),
            exclude: &exclude,
        };
        let out = plan_and_reserve(&mut pool, &high, &cfg, Discovery::Fair(&caps), None);
        let mut helper_degrees = 0u64;
        for &h in &out.helpers {
            assert!(!caps.exclude.contains(&h), "excluded host {h:?} recruited");
            for a in pool
                .table(h)
                .allocations()
                .iter()
                .filter(|a| a.session == high.id)
            {
                assert_eq!(a.rank, FAIR_HELPER_RANK, "helper claim on {h:?}");
                helper_degrees += a.count as u64;
            }
        }
        assert!(
            helper_degrees <= caps.helper_budget,
            "{helper_degrees} over budget"
        );
        assert!(out.preempted.is_empty(), "preempted {:?}", out.preempted);
    }

    #[test]
    fn k1_plans_no_standby_trees() {
        let mut pool = small_pool(14);
        let s = spec(&pool, 77, 2, 100);
        let cfg = PlanConfig::default(); // k_trees = 1
        let primary = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        let used = pool.total_used();
        let standby = plan_standby_trees(&mut pool, &s, &cfg, &primary.tree, &[], None);
        assert!(standby.trees.is_empty());
        assert!(standby.preempted.is_empty());
        assert_eq!(
            pool.total_used(),
            used,
            "k = 1 standby pass touched the pool"
        );
    }

    #[test]
    fn standby_trees_are_degree_disjoint_and_capped() {
        let mut pool = small_pool(15);
        let s = spec(&pool, 77, 2, 101);
        let cfg = PlanConfig {
            k_trees: 3,
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let primary = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        let standby = plan_standby_trees(&mut pool, &s, &cfg, &primary.tree, &[], None);
        assert!(
            !standby.trees.is_empty(),
            "an empty 300-host pool should fit at least one standby tree"
        );
        let mut all = vec![primary.tree.clone()];
        all.extend(standby.trees.iter().cloned());
        // Every standby tree spans the member set.
        for t in &standby.trees {
            for &m in &s.members {
                assert!(t.contains(m), "member {m:?} missing from standby tree");
            }
        }
        // No degree unit double-counted across trees, no cap breached.
        let v = alm::multipath::check_disjointness(
            &all,
            |h| pool.table(h).held_by(s.id),
            |h| fanout_cap(&pool, &primary.tree, &cfg, h),
        );
        assert!(v.is_empty(), "disjointness violations: {v:?}");
        // Holdings mirror the summed tree degrees exactly — reservation
        // merged per (session, rank) but the totals must match.
        let used = alm::multipath::degree_totals(&all);
        for (&h, &u) in &used {
            assert_eq!(pool.table(h).held_by(s.id), u, "holding mismatch on {h:?}");
        }
        // Releasing the session drains everything: nothing leaked.
        pool.release_session(s.id);
        assert_eq!(pool.total_used(), 0);
        assert!(pool.holdings_of(s.id).is_empty());
    }

    /// Like [`spec`], but roots the session at its best-uplink member: a
    /// modem-class root can't source a second tree ([`fanout_cap`] = its
    /// primary fan-out), which is correct behavior but not what a standby
    /// -planning test wants to exercise.
    fn spec_bw_root(pool: &ResourcePool, id: u32, priority: u8, seed: u64) -> SessionSpec {
        let mut s = spec(pool, id, priority, seed);
        s.root = s
            .members
            .iter()
            .copied()
            .max_by(|a, b| pool.bw.up(*a).total_cmp(&pool.bw.up(*b)).then(b.cmp(a)))
            .unwrap();
        s
    }

    #[test]
    fn release_degrees_tears_down_one_tree_only() {
        let mut pool = small_pool(15);
        let s = spec_bw_root(&pool, 88, 2, 101);
        let cfg = PlanConfig {
            k_trees: 2,
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let primary = plan_and_reserve(&mut pool, &s, &cfg, Discovery::Live, None);
        let standby = plan_standby_trees(&mut pool, &s, &cfg, &primary.tree, &[], None);
        assert_eq!(standby.trees.len(), 1);
        let t2 = &standby.trees[0];
        // Tear down just the standby tree, degree for degree.
        for &h in t2.hosts() {
            let rank = if s.members.contains(&h) {
                Rank::MEMBER
            } else {
                Rank::helper(s.priority)
            };
            let freed = pool.release_degrees(h, s.id, rank, t2.degree(h));
            assert_eq!(freed, t2.degree(h));
        }
        // The primary's holdings are exactly what remains.
        for &h in primary.tree.hosts() {
            assert_eq!(pool.table(h).held_by(s.id), primary.tree.degree(h));
        }
        let primary_hosts: std::collections::HashSet<HostId> =
            primary.tree.hosts().iter().copied().collect();
        for &h in t2.hosts() {
            if !primary_hosts.contains(&h) {
                assert_eq!(pool.table(h).held_by(s.id), 0);
                assert!(!pool.holdings_of(s.id).contains(&h), "holdings kept {h:?}");
            }
        }
    }
}
