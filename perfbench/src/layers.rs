//! The per-layer pass of a traced run.
//!
//! `MarketSim` runs as one opaque call, so the benchmark cannot time the
//! layers inside it without changing the program. Instead this pass replays
//! the traced run's own record stream against a fresh copy of the pool and
//! calls each crate's public functions in the order the market did — plans
//! through the workload's own `plan_and_reserve*` entry point, releases,
//! renewals, lease sweeps, view and index refreshes, crash repairs, audit
//! samples and live-operations writes and reads — recording a span around
//! each call. The replayed state tracks the market closely but not
//! exactly (the market's internal retries and failovers are not
//! replayed), so the replay's own outcomes are never checked; it exists to
//! time the calls on the workload's real inputs.

use alm::dynamic::reattach_orphans;
use alm::{adjust, amcast, staged_plan, HelperPool, MulticastTree, Problem};
use netsim::latency::LatencyModel;
use netsim::HostId;
use pool::degree_table::{Rank, SessionId};
use pool::market::{market_invariants, MarketAuditView, SessionAuditEntry};
use pool::task_manager::{
    members_only_baseline, plan_and_reserve_from_query_leased, plan_and_reserve_from_view_leased,
    plan_and_reserve_leased, plan_standby_trees, PlanOutcome, SessionSpec,
};
use pool::{
    DiscoveryMode, LiveOps, LiveOpsConfig, MarketConfig, MarketStoreHandle, ResourcePool,
    ResourceReport, SlotSnap,
};
use simcore::audit::Auditor;
use simcore::trace::{TraceEvent, TraceRecord};
use simcore::SimTime;

use crate::spans::Spans;
use crate::workload::{Workload, UTIL_THRESHOLD};

/// Member pairs looked up per plan through `planning_oracle()`.
const LOOKUPS_PER_PLAN: usize = 4096;

/// Tallies the replay makes beside its spans.
#[derive(Default, Debug)]
pub struct Tally {
    pub lookups: u64,
    pub helpers_booked: u64,
    pub helpers_refused: u64,
}

/// Periodic duty the market schedules on the simulated clock.
struct Periodic {
    period: SimTime,
    next: SimTime,
}

impl Periodic {
    fn new(period: Option<SimTime>, first: SimTime) -> Option<Periodic> {
        period.map(|period| Periodic {
            period,
            next: first,
        })
    }

    /// Every due instant up to and including `now`.
    fn due(&mut self, now: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        while self.next <= now {
            out.push(self.next);
            self.next += self.period;
        }
        out
    }
}

/// Replays instance 0 of a workload.
pub struct Replay<'a> {
    cfg: &'a MarketConfig,
    pool: ResourcePool,
    /// A second copy whose oracle sees the same promotion sequence; its
    /// `promote_hot` and lookups are timed apart from the plans.
    oracle_pool: ResourcePool,
    specs: Vec<SessionSpec>,
    trees: Vec<Option<MulticastTree>>,
    standby: Vec<Vec<MulticastTree>>,
    view: Option<ResourceReport>,
    qindex: Option<query::QueryIndex>,
    auditor: Option<Auditor>,
    liveops: Option<(LiveOps, MarketStoreHandle)>,
    refresh: Option<Periodic>,
    expiry: Option<Periodic>,
    audit: Option<Periodic>,
    snapshot: Option<Periodic>,
    pub spans: Spans,
    pub tally: Tally,
}

impl<'a> Replay<'a> {
    pub fn new(w: &'a Workload, pristine: &ResourcePool) -> Replay<'a> {
        let inst = &w.instances[0];
        let cfg = &inst.market_cfg;
        let mut pool = pristine.clone();
        let specs: Vec<SessionSpec> = pool
            .partition_members(cfg.sessions, cfg.member_size, inst.market_seed)
            .into_iter()
            .enumerate()
            .map(|(i, members)| SessionSpec {
                id: SessionId(i as u32),
                priority: (i % 3) as u8 + 1,
                root: members[0],
                members,
            })
            .collect();
        let liveops = w.liveops.map(|period| {
            pool.enable_op_log();
            let lo = LiveOps::new(LiveOpsConfig {
                snapshot_period: period,
                util_threshold: UTIL_THRESHOLD,
                ..LiveOpsConfig::default()
            });
            let handle = lo.handle();
            (lo, handle)
        });
        let has_faults = !cfg.faults.crashes.is_empty();
        let n = specs.len();
        Replay {
            cfg,
            oracle_pool: pristine.clone(),
            pool,
            specs,
            trees: vec![None; n],
            standby: vec![Vec::new(); n],
            view: None,
            qindex: None,
            auditor: cfg.audit_period.map(|p| Auditor::every(p).hard_fail(false)),
            liveops,
            refresh: Periodic::new(cfg.view_refresh, SimTime::ZERO),
            expiry: Periodic::new(has_faults.then_some(cfg.replan_period), cfg.replan_period),
            audit: Periodic::new(cfg.audit_period, SimTime::ZERO),
            snapshot: Periodic::new(w.liveops, SimTime::ZERO),
            spans: Spans::new(),
            tally: Tally::default(),
        }
    }

    /// Replay `records` (the traced run's stream, in order), then the
    /// periodic duties up to the horizon.
    pub fn run(mut self, records: &[TraceRecord]) -> (Spans, Tally) {
        let root = self.spans.open("replay");
        for rec in records {
            let now = rec.at();
            self.periodic(now);
            self.apply(now, &rec.ev);
            self.sync(now);
        }
        self.periodic(self.cfg.horizon);
        self.spans.close(root);
        (self.spans, self.tally)
    }

    fn periodic(&mut self, now: SimTime) {
        let refresh = self.refresh.as_mut().map_or(Vec::new(), |p| p.due(now));
        for at in refresh {
            self.refresh_view(at);
        }
        let expiry = self.expiry.as_mut().map_or(Vec::new(), |p| p.due(now));
        for at in expiry {
            let pool = &mut self.pool;
            self.spans
                .time("pool.expire_leases", || pool.expire_leases(at));
        }
        let audit = self.audit.as_mut().map_or(Vec::new(), |p| p.due(now));
        for at in audit {
            self.audit_sample(at);
        }
        let snapshot = self.snapshot.as_mut().map_or(Vec::new(), |p| p.due(now));
        for at in snapshot {
            self.snapshot_round(at);
        }
    }

    fn refresh_view(&mut self, now: SimTime) {
        let pool = &self.pool;
        match self.cfg.discovery {
            DiscoveryMode::Snapshot => {
                let view = self.spans.time("somo.snapshot_report", || {
                    pool.snapshot_report(ResourceReport::DEFAULT_CAP)
                });
                self.view = Some(view);
            }
            DiscoveryMode::Query => match &mut self.qindex {
                Some(idx) => self
                    .spans
                    .time("query.refresh", || pool.refresh_query_index(idx, now)),
                None => {
                    let period = self.cfg.view_refresh.expect("refresh is periodic");
                    let idx = self
                        .spans
                        .time("query.build", || pool.build_query_index(period, now));
                    self.qindex = Some(idx);
                }
            },
        }
    }

    fn audit_sample(&mut self, now: SimTime) {
        let Some(mut aud) = self.auditor.take() else {
            return;
        };
        let sessions = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| SessionAuditEntry {
                id: s.id,
                active: self.trees[i].is_some(),
                replan_pending: false,
                root: s.root,
                tree: self.trees[i].as_ref(),
                standby: self.standby[i].as_slice(),
            })
            .collect();
        let view = MarketAuditView {
            pool: &self.pool,
            plan: &self.cfg.plan,
            sessions,
            admission: None,
        };
        self.spans.time("audit.sample", || {
            aud.sample(&market_invariants(), &view, now)
        });
        self.auditor = Some(aud);
    }

    fn slot_snaps(&self) -> Vec<SlotSnap> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| SlotSnap {
                session: s.id.0,
                active: self.trees[i].is_some(),
                replan_pending: false,
                cycle: 0,
                degraded: false,
                defers: 0,
                queued_since_us: None,
                broken_since_us: None,
            })
            .collect()
    }

    fn snapshot_round(&mut self, now: SimTime) {
        let slots = self.slot_snaps();
        let Some((lo, handle)) = &mut self.liveops else {
            return;
        };
        let pool = &self.pool;
        let queues: [Vec<u32>; 3] = Default::default();
        self.spans.time("liveops.snapshot_round", || {
            lo.snapshot_round(now, pool, &slots, &queues)
        });
        let bound = lo.snapshot_period();
        self.spans.time("liveops.query", || {
            let store = handle.lock().expect("run store lock poisoned");
            pool::liveops::hosts_over_threshold(&store, UTIL_THRESHOLD, bound)
        });
    }

    fn sync(&mut self, now: SimTime) {
        if self.liveops.is_none() {
            return;
        }
        let slots = self.slot_snaps();
        let ops = self.pool.drain_op_log();
        let (lo, _) = self.liveops.as_mut().expect("checked above");
        let queues: [Vec<u32>; 3] = Default::default();
        self.spans
            .time("liveops.sync", || lo.sync(now, ops, &slots, &queues));
    }

    fn lease(&self, now: SimTime) -> Option<SimTime> {
        let cfg = &self.cfg;
        (!cfg.faults.crashes.is_empty()).then(|| now + cfg.lease_ttl)
    }

    fn apply(&mut self, now: SimTime, ev: &TraceEvent) {
        match *ev {
            TraceEvent::MarketHostFault { host, down } => {
                if down {
                    self.pool.kill_host(HostId(host));
                } else {
                    self.pool.revive_host(HostId(host));
                }
            }
            TraceEvent::MarketReserve { session, .. } => self.plan(now, session as usize),
            TraceEvent::MarketRelease { session } => {
                let i = session as usize;
                let (pool, id) = (&mut self.pool, self.specs[i].id);
                self.spans.time("pool.release", || pool.release_session(id));
                self.trees[i] = None;
                self.standby[i].clear();
            }
            TraceEvent::MarketLeaseRenew { session } => {
                let until = self.lease(now).unwrap_or(SimTime::MAX);
                let (pool, id) = (&mut self.pool, self.specs[session as usize].id);
                self.spans
                    .time("pool.renew", || pool.renew_session(id, until));
            }
            TraceEvent::MarketCrashDetect { session, .. } => self.repair(session as usize),
            _ => {}
        }
    }

    /// The session's spec as its task manager would plan it now: dead
    /// members dropped, the lowest surviving member standing in for a dead
    /// root. `None` when fewer than two members survive.
    fn live_spec(&self, i: usize) -> Option<SessionSpec> {
        let s = &self.specs[i];
        let members: Vec<HostId> = s
            .members
            .iter()
            .copied()
            .filter(|&h| self.pool.is_alive(h))
            .collect();
        if members.len() < 2 {
            return None;
        }
        let root = if self.pool.is_alive(s.root) {
            s.root
        } else {
            *members.iter().min().expect("two survivors")
        };
        Some(SessionSpec {
            root,
            members,
            ..s.clone()
        })
    }

    fn plan(&mut self, now: SimTime, i: usize) {
        let Some(spec) = self.live_spec(i) else {
            return;
        };
        let cfg = &self.cfg.plan;
        let lease = self.lease(now);
        let rank = Rank::helper(spec.priority);
        let plan_span = self.spans.open("replay.plan");

        let pool = &mut self.pool;
        self.spans
            .time("pool.release", || pool.release_session(spec.id));

        // Discovery: the candidate list the workload's entry point will see.
        let candidates: Vec<HostId> = match (&self.view, &mut self.qindex) {
            (_, Some(idx)) => self
                .spans
                .time("query.top_k", || {
                    idx.top_k(
                        cfg.query_k,
                        spec.priority as usize,
                        cfg.helper_min_degree,
                        &spec.members,
                        query::Scope::Global,
                    )
                })
                .hosts
                .iter()
                .map(|s| s.host)
                .collect(),
            (Some(view), None) => view
                .candidates_at(spec.priority as usize, cfg.helper_min_degree)
                .filter(|h| !spec.members.contains(h))
                .collect(),
            (None, None) => {
                let pool = &self.pool;
                self.spans.time("pool.candidates", || {
                    pool.candidates(rank, &spec.members, cfg.helper_min_degree)
                })
            }
        };

        self.oracle_probe(&spec, &candidates);
        self.alm_probe(&spec, &candidates);

        let pool = &mut self.pool;
        let (view, qindex) = (&self.view, &mut self.qindex);
        let out: PlanOutcome = self.spans.time("pool.plan", || match (view, qindex) {
            (_, Some(idx)) => plan_and_reserve_from_query_leased(pool, &spec, cfg, idx, lease),
            (Some(v), None) => plan_and_reserve_from_view_leased(pool, &spec, cfg, v, lease),
            (None, None) => plan_and_reserve_leased(pool, &spec, cfg, lease),
        });
        self.tally.helpers_booked += out.helpers.len() as u64;
        self.tally.helpers_refused += out.helper_failures as u64;
        if cfg.k_trees > 1 {
            let pool = &mut self.pool;
            let sb = self.spans.time("pool.standby_plan", || {
                plan_standby_trees(pool, &spec, cfg, &out.tree, &[], lease)
            });
            self.standby[i] = sb.trees;
        }
        self.rebook(spec.id);
        self.trees[i] = Some(out.tree);
        self.spans.close(plan_span);
    }

    /// Time the oracle alone on the plan's inputs: promote the members and
    /// candidates into the hot tier, then look up member pairs and
    /// member–candidate pairs through the planning oracle.
    fn oracle_probe(&mut self, spec: &SessionSpec, candidates: &[HostId]) {
        let op = &self.oracle_pool;
        self.spans.time("oracle.promote", || {
            op.promote_hot(&spec.members);
            op.promote_hot(candidates);
        });
        let oracle = op.planning_oracle();
        let targets: Vec<HostId> = spec
            .members
            .iter()
            .chain(candidates.iter())
            .copied()
            .collect();
        let pairs = spec.members.len() * targets.len();
        let n = pairs.min(LOOKUPS_PER_PLAN);
        let sum = self.spans.time("oracle.lookup", || {
            let mut sum = 0.0;
            for k in 0..n {
                let a = spec.members[k % spec.members.len()];
                let b = targets[(k / spec.members.len()) % targets.len()];
                sum += oracle.latency_ms(std::hint::black_box(a), b);
            }
            sum
        });
        std::hint::black_box(sum);
        self.tally.lookups += n as u64;
    }

    /// Time the planner's stages on the plan's inputs: the staged
    /// (estimate, then measure) plan with its adjust pass, a members-only
    /// AMCast tree and the adjust pass over it, and the members-only
    /// baseline every improvement figure divides by.
    fn alm_probe(&mut self, spec: &SessionSpec, candidates: &[HostId]) {
        let cfg = &self.cfg.plan;
        let pool = &self.pool;
        let oracle = pool.planning_oracle();
        let rank = Rank::helper(spec.priority);
        let avail = |h: HostId| {
            if spec.members.contains(&h) {
                pool.available(h, Rank::MEMBER)
            } else {
                pool.available(h, rank)
            }
        };
        let mut hp = HelperPool::new(candidates.to_vec());
        hp.min_degree = cfg.helper_min_degree;
        hp.radius_ms = cfg.radius_ms;
        hp.strategy = cfg.strategy;
        self.spans.time("alm.staged_plan", || {
            staged_plan(
                spec.root,
                &spec.members,
                &oracle,
                &pool.coords,
                avail,
                &hp,
                cfg.use_adjust,
            )
        });
        let bound = |h: HostId| pool.net.hosts.degree_bound(h);
        let p = Problem::new(spec.root, spec.members.clone(), &oracle, bound);
        let mut tree = self.spans.time("alm.amcast", || amcast(&p));
        self.spans.time("alm.adjust", || adjust(&p, &mut tree));
        self.spans
            .time("alm.baseline", || members_only_baseline(pool, spec));
    }

    /// Time single-host releases and reservations by re-booking every claim
    /// the session just made, claim for claim (same rank, count and lease),
    /// which leaves the degree tables as the plan left them.
    fn rebook(&mut self, id: SessionId) {
        let hosts = self.pool.holdings_of(id).to_vec();
        for h in hosts {
            let claims: Vec<_> = self
                .pool
                .table(h)
                .allocations()
                .iter()
                .filter(|a| a.session == id)
                .copied()
                .collect();
            let pool = &mut self.pool;
            self.spans
                .time("pool.release_host", || pool.release_on_host(id, h));
            for a in claims {
                let pool = &mut self.pool;
                let res = self.spans.time("pool.reserve", || {
                    pool.reserve_leased(h, id, a.rank, a.count, a.expires_at)
                });
                debug_assert!(res.is_ok(), "re-booking a just-released claim");
            }
        }
    }

    /// Patch the session's tree around its dead hosts, as the market's
    /// crash repair does for a single-tree session.
    fn repair(&mut self, i: usize) {
        let Some(tree) = self.trees[i].clone() else {
            return;
        };
        let spec = &self.specs[i];
        let dead: Vec<HostId> = tree
            .hosts()
            .iter()
            .copied()
            .filter(|&h| !self.pool.is_alive(h))
            .collect();
        if dead.is_empty() || dead.contains(&tree.root()) {
            return;
        }
        let pool = &self.pool;
        pool.promote_hot(&spec.members);
        let oracle = pool.planning_oracle();
        let p = Problem::new(spec.root, spec.members.clone(), &oracle, |x| {
            pool.net.hosts.degree_bound(x)
        });
        let reattach = &self.cfg.reattach;
        let (repaired, _) = self.spans.time("repair.reattach", || {
            reattach_orphans(&p, &tree, &dead, reattach)
        });
        self.trees[i] = Some(repaired);
    }
}
