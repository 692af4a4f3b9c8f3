//! Quickstart: build a P2P resource pool and schedule one ALM session.
//!
//! Reproduces the Figure 1 narrative: first the best plan using only the
//! session's own members (AMCast), then a better plan that splices in an
//! idle high-degree helper found through the pool.
//!
//! Run with: `cargo run --release --example quickstart`

use p2p_resource_pool::prelude::*;
use pool::task_manager::members_only_baseline;

fn main() {
    // A scaled-down pool so the example runs in a second or two.
    let cfg = PoolConfig {
        net: NetworkConfig {
            num_hosts: 300,
            ..NetworkConfig::default()
        },
        coord_rounds: 6,
        ..PoolConfig::default()
    };
    println!("building resource pool (underlay + ring + coordinates + bandwidth)...");
    let mut pool = ResourcePool::build(&cfg, 42);

    // A small video-conference-sized session: 12 members.
    let members = pool.sample_members(12, 7);
    let spec = SessionSpec {
        id: SessionId(1),
        priority: 1,
        root: members[0],
        members,
    };

    // Members-only baseline (AMCast).
    let baseline = members_only_baseline(&pool, &spec);
    println!("\nAMCast members-only plan:      height = {baseline:.1} ms");

    // The task manager plans with pool helpers (oracle latencies here, so
    // the effect of the helpers is isolated from coordinate error).
    let outcome = plan_and_reserve(
        &mut pool,
        &spec,
        &PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        },
        Discovery::Live,
        None,
    );
    println!(
        "critical-node plan w/ helpers: height = {:.1} ms  ({:+.1}% improvement, {} helpers)",
        outcome.oracle_height,
        outcome.improvement * 100.0,
        outcome.helpers.len()
    );

    println!("\nresulting tree (□ marks pool helpers):");
    print_tree(&outcome.tree, &spec, outcome.tree.root(), 0);
}

fn print_tree(tree: &MulticastTree, spec: &SessionSpec, node: HostId, depth: usize) {
    let marker = if spec.members.contains(&node) {
        "○"
    } else {
        "□"
    };
    println!(
        "{}{} host {:4}  (height {:.1} ms)",
        "  ".repeat(depth),
        marker,
        node.0,
        tree.height_of(node)
    );
    let mut kids = tree.children_of(node);
    kids.sort_unstable();
    for c in kids {
        print_tree(tree, spec, c, depth + 1);
    }
}
