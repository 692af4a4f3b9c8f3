//! Weighted undirected graph with single-source shortest paths.
//!
//! Small and purpose-built: the router graph is a few hundred nodes, and we
//! run one Dijkstra per host-attached router to build the factored latency
//! matrix, plus one per promoted row in the tiered oracle's hot tier.
//! [`Graph::all_pairs`] fans every source out across threads (crossbeam
//! scoped threads) with each thread writing a disjoint slice of rows, so
//! the result is deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A weighted undirected graph stored as adjacency lists.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<(u32, f32)>>,
}

impl Graph {
    /// A graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Add an undirected edge `a <-> b` with weight `w` (ms). Parallel edges
    /// are ignored; the first weight wins.
    pub fn add_edge(&mut self, a: u32, b: u32, w: f32) {
        assert!(a != b, "self-loop");
        assert!(w >= 0.0, "negative edge weight");
        if self.adj[a as usize].iter().any(|&(n, _)| n == b) {
            return;
        }
        self.adj[a as usize].push((b, w));
        self.adj[b as usize].push((a, w));
    }

    /// Whether an edge `a <-> b` exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].iter().any(|&(n, _)| n == b)
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: u32) -> &[(u32, f32)] {
        &self.adj[v as usize]
    }

    /// Single-source shortest path distances from `src` (f32 ms;
    /// `f32::INFINITY` for unreachable nodes).
    pub fn dijkstra(&self, src: u32) -> Vec<f32> {
        let n = self.adj.len();
        let mut dist = vec![f32::INFINITY; n];
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(n);
        dist[src as usize] = 0.0;
        heap.push(Reverse(frontier_key(0.0, src)));
        while let Some(Reverse(key)) = heap.pop() {
            let (d, v) = (f32::from_bits((key >> 32) as u32), key as u32);
            if d > dist[v as usize] {
                continue;
            }
            for &(u, w) in &self.adj[v as usize] {
                let nd = d + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(Reverse(frontier_key(nd, u)));
                }
            }
        }
        dist
    }

    /// All-pairs shortest path distances, parallelized across sources.
    /// Row `i` is `dijkstra(i)`.
    pub fn all_pairs(&self) -> Vec<Vec<f32>> {
        let n = self.adj.len();
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); n];
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n.max(1));
        let chunk = n.div_ceil(threads.max(1));
        crossbeam::thread::scope(|s| {
            for (t, slot) in rows.chunks_mut(chunk).enumerate() {
                let base = t * chunk;
                s.spawn(move |_| {
                    for (i, row) in slot.iter_mut().enumerate() {
                        *row = self.dijkstra((base + i) as u32);
                    }
                });
            }
        })
        .expect("all_pairs worker panicked");
        rows
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in &self.adj[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.adj.len()
    }
}

/// A Dijkstra frontier entry packed into one integer: distance bits high,
/// node low. Distances here are never negative (weights are checked at
/// [`Graph::add_edge`] and the source starts at `+0.0`) and never NaN, and
/// on such values the IEEE-754 bit pattern orders exactly like the number,
/// so the integer min-heap pops by `(distance, node)` — the order of a
/// `(f32::total_cmp, node)` heap — with one compare.
#[inline]
fn frontier_key(d: f32, v: u32) -> u64 {
    (u64::from(d.to_bits()) << 32) | u64::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3, 0 -5- 2 -1- 3
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 5.0);
        g.add_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn dijkstra_shortest_paths() {
        let g = diamond();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1.0);
        let d = g.dijkstra(0);
        assert!(d[2].is_infinite());
        assert!(!g.is_connected());
    }

    #[test]
    fn all_pairs_matches_per_source() {
        let g = diamond();
        for (src, row) in g.all_pairs().iter().enumerate() {
            assert_eq!(row, &g.dijkstra(src as u32));
        }
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let g = diamond();
        let ap = g.all_pairs();
        for (i, row) in ap.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, ap[j][i]);
            }
        }
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 9.0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.dijkstra(0)[1], 1.0);
    }

    /// Naive single-source shortest paths with a pluggable frontier
    /// comparator, so the same reference pins both the workspace-wide
    /// `total_cmp` convention and the historical `partial_cmp` order.
    fn dijkstra_ref_by(
        g: &Graph,
        src: u32,
        cmp: impl Fn(&f32, &f32) -> std::cmp::Ordering,
    ) -> Vec<f32> {
        let n = g.len();
        let mut dist = vec![f32::INFINITY; n];
        let mut done = vec![false; n];
        dist[src as usize] = 0.0;
        for _ in 0..n {
            let Some(v) = (0..n)
                .filter(|&v| !done[v] && dist[v].is_finite())
                .min_by(|&a, &b| cmp(&dist[a], &dist[b]))
            else {
                break;
            };
            done[v] = true;
            for &(u, w) in g.neighbors(v as u32) {
                let nd = dist[v] + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                }
            }
        }
        dist
    }

    /// The reference implementation, on the workspace's `total_cmp`
    /// comparator convention (PR 5/6 sweep).
    fn dijkstra_ref(g: &Graph, src: u32) -> Vec<f32> {
        dijkstra_ref_by(g, src, f32::total_cmp)
    }

    proptest::proptest! {
        // On NaN-free random graphs (quantized weights make equal-distance
        // ties common), the packed-key heap, the `total_cmp` reference, and
        // the historical `partial_cmp` selection order all compute
        // bit-identical distances: on NaN-free inputs `total_cmp` and
        // `partial_cmp().unwrap()` are the same total order.
        #[test]
        fn dijkstra_matches_partial_cmp_reference_on_nan_free_graphs(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 1u32..20), 1..40),
        ) {
            let mut g = Graph::with_nodes(12);
            for &(a, b, w) in &edges {
                if a != b {
                    g.add_edge(a, b, w as f32 * 0.5);
                }
            }
            for src in 0..12u32 {
                let fast = g.dijkstra(src);
                let slow = dijkstra_ref(&g, src);
                let historical =
                    dijkstra_ref_by(&g, src, |a, b| a.partial_cmp(b).unwrap());
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(&bits(&fast), &bits(&slow));
                proptest::prop_assert_eq!(&bits(&slow), &bits(&historical));
            }
        }
    }

    proptest::proptest! {
        // Unquantized weights, including `+0.0` and `-0.0` edges (both pass
        // `add_edge`'s `w >= 0.0` check): the packed-key heap still agrees
        // with the reference bit for bit, so no distance ever comes out as
        // `-0.0` or out of order.
        #[test]
        fn dijkstra_matches_reference_on_float_and_zero_weights(
            edges in proptest::collection::vec((0u32..10, 0u32..10, 0u32..8, 0.0f32..60.0), 1..30),
        ) {
            let mut g = Graph::with_nodes(10);
            for &(a, b, kind, w) in &edges {
                if a != b {
                    let w = match kind {
                        0 => -0.0,
                        1 => 0.0,
                        _ => w,
                    };
                    g.add_edge(a, b, w);
                }
            }
            for src in 0..10u32 {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&g.dijkstra(src)), bits(&dijkstra_ref(&g, src)));
            }
        }
    }

    #[test]
    fn connected_detection() {
        let g = diamond();
        assert!(g.is_connected());
        assert!(Graph::with_nodes(0).is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }
}
