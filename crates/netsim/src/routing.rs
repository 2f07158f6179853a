//! Shortest-path routing over the graph's 2-core, with pendant trees
//! spliced on.
//!
//! Routing minimizes propagation delay (real interdomain routing does not,
//! which is one source of circuitousness — we bake that circuitousness
//! into link lengths instead, keeping routing itself simple and
//! deterministic). Hosts never forward transit traffic: a host is only
//! ever the first or last node of a route.
//!
//! Almost all of the world network hangs in pendant trees: single-link
//! hosts, and `host — gateway` chains behind an IXP. The 2-core is what
//! is left after repeatedly stripping nodes of degree ≤ 1 (on the paper
//! world, 257 of 5 646 nodes). A pendant tree meets the rest of the graph
//! at one cut vertex, its root, so every route into or out of it follows
//! its unique tree path. Once per topology the router strips the pendant
//! trees, recording for each stripped node the next node toward its root
//! (`up`), the root, and the depth below it. A route is then
//!
//! * the tree path through the lowest common ancestor when both ends
//!   share a root, or otherwise
//! * `src`'s chain up to its root, the shortest core path between the two
//!   roots, and `dst`'s chain down from its root.
//!
//! Core paths come from one cached Dijkstra predecessor tree per core
//! root, over core nodes only. A route that would pass through a host
//! (the root of a pendant tree can be a multi-link host) does not exist.
//! Routes equal those of a full-graph Dijkstra from `src`, which the
//! tests keep as an oracle; the one possible difference is a
//! floating-point near-tie, since core sums start at 0 rather than at the
//! length of `src`'s chain.

use crate::topology::{NodeKind, Topology};
use crate::NodeId;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// "No node": an unreached core node's predecessor.
const NONE: u32 = u32::MAX;

/// Shortest-path router for one topology, with an interior-mutability
/// cache (the contraction and the core trees are built on first use).
/// The cache is behind a `Mutex` so a built network can be shared across
/// threads; it is tied to the topology it first routed over, so a changed
/// topology needs a new router.
pub struct Router {
    cache: Mutex<Option<Contraction>>,
}

/// The topology with its pendant trees stripped: per-node tree links
/// (`u32`), the compact core index, and the core trees built so far.
struct Contraction {
    /// Next node toward the root; the node itself for core nodes and for
    /// the root of a component without a core.
    up: Vec<u32>,
    /// The core node (or core-less component root) a node hangs under.
    root: Vec<u32>,
    /// Links between a node and its root.
    depth: Vec<u32>,
    /// Node → index among core nodes, `NONE` for stripped nodes. Indices
    /// follow node ids, so ordering by index breaks ties by node id.
    core_index: Vec<u32>,
    /// Core index → node.
    core_nodes: Vec<NodeId>,
    /// Core index of a source → its Dijkstra predecessors over core
    /// indices (`NONE` for the source and unreached nodes).
    trees: Vec<Option<Box<[u32]>>>,
}

impl Router {
    /// Create a router; it contracts the topology on the first query.
    pub fn new() -> Router {
        Router {
            cache: Mutex::new(None),
        }
    }

    /// The node path from `src` to `dst` (inclusive of both), or `None`
    /// if unreachable. Deterministic: ties are broken by node id.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut cache = self.cache.lock().expect("router cache poisoned");
        cache
            .get_or_insert_with(|| Contraction::new(topo))
            .path(topo, src, dst)
    }

    /// Core trees cached so far (at most one per core node).
    #[cfg(test)]
    pub(crate) fn cached_trees(&self) -> usize {
        let cache = self.cache.lock().expect("router cache poisoned");
        cache
            .as_ref()
            .map_or(0, |c| c.trees.iter().filter(|t| t.is_some()).count())
    }

    /// Nodes in the 2-core of the topology routed over so far.
    #[cfg(test)]
    pub(crate) fn core_nodes(&self) -> usize {
        let cache = self.cache.lock().expect("router cache poisoned");
        cache.as_ref().map_or(0, |c| c.core_nodes.len())
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

impl Contraction {
    /// Strip degree-≤1 nodes until only the 2-core is left.
    fn new(topo: &Topology) -> Contraction {
        let n = topo.num_nodes();
        let mut degree: Vec<usize> = topo.node_ids().map(|v| topo.neighbours(v).len()).collect();
        let mut stripped = vec![false; n];
        let mut up: Vec<u32> = topo.node_ids().collect();
        let mut order = Vec::new();
        let mut pending: Vec<NodeId> = topo
            .node_ids()
            .filter(|&v| degree[v as usize] <= 1)
            .collect();
        while let Some(v) = pending.pop() {
            stripped[v as usize] = true;
            order.push(v);
            // At most one neighbour is left: the way toward the root.
            for &(_, w) in topo.neighbours(v) {
                if !stripped[w as usize] {
                    up[v as usize] = w;
                    degree[w as usize] -= 1;
                    if degree[w as usize] == 1 {
                        pending.push(w);
                    }
                }
            }
        }
        // A node's `up` is stripped after it (or never), so reverse strip
        // order sees every parent before its children.
        let mut root = up.clone();
        let mut depth = vec![0u32; n];
        for &v in order.iter().rev() {
            let parent = up[v as usize];
            if parent != v {
                root[v as usize] = root[parent as usize];
                depth[v as usize] = depth[parent as usize] + 1;
            }
        }
        let core_nodes: Vec<NodeId> = topo.node_ids().filter(|&v| !stripped[v as usize]).collect();
        let mut core_index = vec![NONE; n];
        for (i, &v) in core_nodes.iter().enumerate() {
            core_index[v as usize] = i as u32;
        }
        Contraction {
            up,
            root,
            depth,
            core_index,
            trees: vec![None; core_nodes.len()],
            core_nodes,
        }
    }

    fn path(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let up = |v: NodeId| self.up[v as usize];
        let (mut a, mut b) = (src, dst);
        let mut path = Vec::new();
        // `dst`'s side, collected upward and reversed at the end.
        let mut tail = Vec::new();
        if self.root[a as usize] == self.root[b as usize] {
            while a != b {
                if self.depth[a as usize] >= self.depth[b as usize] {
                    path.push(a);
                    a = up(a);
                } else {
                    tail.push(b);
                    b = up(b);
                }
            }
            path.push(a);
        } else {
            while up(a) != a {
                path.push(a);
                a = up(a);
            }
            while up(b) != b {
                tail.push(b);
                b = up(b);
            }
            self.push_core_path(topo, a, b, &mut path)?;
        }
        path.extend(tail.into_iter().rev());
        let transits_host = path[1..path.len() - 1]
            .iter()
            .any(|&v| topo.node(v).kind == NodeKind::Host);
        (!transits_host).then_some(path)
    }

    /// Append the shortest core path `from ..= to` (two distinct roots),
    /// or return `None` if there is none.
    fn push_core_path(
        &mut self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        path: &mut Vec<NodeId>,
    ) -> Option<()> {
        let (s, mut t) = (self.core_index[from as usize], self.core_index[to as usize]);
        if s == NONE || t == NONE {
            return None; // a component without a core
        }
        let prev = match &mut self.trees[s as usize] {
            Some(prev) => prev,
            slot => slot.insert(core_dijkstra(topo, &self.core_index, &self.core_nodes, s)),
        };
        let start = path.len();
        path.push(to);
        while t != s {
            t = prev[t as usize];
            if t == NONE {
                return None;
            }
            path.push(self.core_nodes[t as usize]);
        }
        path[start..].reverse();
        Some(())
    }
}

/// Ordered heap entry (min-heap by distance; ties by node id for
/// determinism — core indices follow node ids).
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap; distances are finite and non-NaN here.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("NaN distance in Dijkstra heap")
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from core index `src` over the core only: predecessors by
/// core index.
fn core_dijkstra(
    topo: &Topology,
    core_index: &[u32],
    core_nodes: &[NodeId],
    src: u32,
) -> Box<[u32]> {
    let m = core_nodes.len();
    let mut dist = vec![f64::INFINITY; m];
    let mut prev = vec![NONE; m];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node: i }) = heap.pop() {
        if d > dist[i as usize] {
            continue; // stale entry
        }
        let node = core_nodes[i as usize];
        // Hosts do not forward transit traffic: expand a host's neighbours
        // only when the host is the source.
        if topo.node(node).kind == NodeKind::Host && i != src {
            continue;
        }
        for &(link, next) in topo.neighbours(node) {
            let j = core_index[next as usize];
            if j == NONE {
                continue;
            }
            let nd = d + topo.link(link).propagation_ms;
            if nd < dist[j as usize] {
                dist[j as usize] = nd;
                prev[j as usize] = i;
                heap.push(HeapEntry { dist: nd, node: j });
            }
        }
    }
    prev.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::PathDelays;
    use crate::topology::{plain_node, NodeKind, Topology};
    use geokit::GeoPoint;
    use simrng::prop::prelude::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon)
    }

    /// Full-graph Dijkstra from `src`, the reference the contracted
    /// router must match.
    fn oracle_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let n = topo.num_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node as usize] {
                continue;
            }
            if topo.node(node).kind == NodeKind::Host && node != src {
                continue;
            }
            for &(link, next) in topo.neighbours(node) {
                let nd = d + topo.link(link).propagation_ms;
                if nd < dist[next as usize] {
                    dist[next as usize] = nd;
                    prev[next as usize] = Some(node);
                    heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
        if dist[dst as usize].is_infinite() {
            return None;
        }
        let mut path = vec![dst];
        while let Some(v) = prev[*path.last().unwrap() as usize] {
            path.push(v);
        }
        path.reverse();
        Some(path)
    }

    fn propagation_ms(t: &Topology, r: &Router, src: NodeId, dst: NodeId) -> f64 {
        PathDelays::from_node_path(t, &r.path(t, src, dst).unwrap()).propagation_ms
    }

    /// a—b—c with a slow direct a—c link; plus host h on a, host k on c.
    fn diamond() -> (Topology, [NodeId; 5]) {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let b = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 5.0)));
        let c = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 10.0)));
        let h = t.add_node(plain_node(NodeKind::Host, p(0.1, 0.0)));
        let k = t.add_node(plain_node(NodeKind::Host, p(0.1, 10.0)));
        t.add_link(a, b, 2.0);
        t.add_link(b, c, 2.0);
        t.add_link(a, c, 10.0); // slower direct path
        t.add_link(h, a, 0.5);
        t.add_link(k, c, 0.5);
        (t, [a, b, c, h, k])
    }

    #[test]
    fn shortest_path_prefers_low_delay() {
        let (t, [a, b, c, _, _]) = diamond();
        let r = Router::new();
        assert_eq!(r.path(&t, a, c), Some(vec![a, b, c]));
        assert_eq!(propagation_ms(&t, &r, a, c), 4.0);
    }

    #[test]
    fn host_to_host_via_backbone() {
        let (t, [a, b, c, h, k]) = diamond();
        let r = Router::new();
        assert_eq!(r.path(&t, h, k), Some(vec![h, a, b, c, k]));
        assert_eq!(propagation_ms(&t, &r, h, k), 5.0);
    }

    #[test]
    fn hosts_do_not_transit() {
        // h—a and h—c direct links would make h a shortcut if hosts
        // forwarded traffic.
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let c = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 10.0)));
        let h = t.add_node(plain_node(NodeKind::Host, p(0.0, 5.0)));
        t.add_link(a, c, 10.0);
        t.add_link(h, a, 1.0);
        t.add_link(h, c, 1.0);
        let r = Router::new();
        assert_eq!(r.path(&t, a, c), Some(vec![a, c]));
        // But the host can still originate traffic over either link.
        assert_eq!(propagation_ms(&t, &r, h, c), 1.0);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 0.0)));
        let b = t.add_node(plain_node(NodeKind::Ixp, p(0.0, 5.0)));
        let r = Router::new();
        assert_eq!(r.path(&t, a, b), None);
    }

    #[test]
    fn trivial_self_path() {
        let (t, [a, ..]) = diamond();
        let r = Router::new();
        assert_eq!(r.path(&t, a, a), Some(vec![a]));
    }

    #[test]
    fn cache_survives_many_queries() {
        let (t, [a, _, c, h, k]) = diamond();
        let r = Router::new();
        for _ in 0..100 {
            assert!(r.path(&t, h, k).is_some());
            assert!(r.path(&t, a, c).is_some());
        }
        // Both queries route from core root a: one tree.
        assert_eq!(r.cached_trees(), 1);
        assert_eq!(r.core_nodes(), 3);
    }

    /// A random topology mixing every shape the contraction must handle:
    /// a backbone ring with chords, pendant chains (`host — gateway —
    /// IXP`-like, depth 1–3, some ending in a host), multi-link hosts
    /// that stay in the core, and a core-less component (a tree plus an
    /// isolated node). Weights are multiples of 1/8 ms drawn from a short
    /// range, so equal weights and exactly tied routes are common; every
    /// sum is exact, so a tie is a tie on both sides.
    fn random_topology(
        ring: usize,
        chords: &[(usize, usize, u8)],
        chains: &[(usize, usize, u8, bool)],
        multi_hosts: &[(usize, usize, u8)],
        loose_tree: usize,
    ) -> Topology {
        let mut t = Topology::new();
        let w = |x: u8| f64::from(x % 12 + 1) / 8.0;
        let add = |t: &mut Topology, kind| {
            let i = t.num_nodes() as f64;
            t.add_node(plain_node(kind, p(i.sin() * 40.0, i.cos() * 90.0)))
        };
        let backbone: Vec<NodeId> = (0..ring).map(|_| add(&mut t, NodeKind::Ixp)).collect();
        for i in 0..ring {
            t.add_link(backbone[i], backbone[(i + 1) % ring], w(i as u8 * 5));
        }
        for &(a, b, x) in chords {
            let (a, b) = (backbone[a % ring], backbone[b % ring]);
            if a != b {
                t.add_link(a, b, w(x));
            }
        }
        for &(at, depth, x, host_leaf) in chains {
            let mut parent = backbone[at % ring];
            for level in 0..depth {
                let leaf = level + 1 == depth;
                let kind = if leaf && host_leaf {
                    NodeKind::Host
                } else {
                    NodeKind::Ixp
                };
                let v = add(&mut t, kind);
                t.add_link(v, parent, w(x.wrapping_add(level as u8)));
                parent = v;
            }
        }
        for &(a, b, x) in multi_hosts {
            let h = add(&mut t, NodeKind::Host);
            t.add_link(h, backbone[a % ring], w(x));
            t.add_link(h, backbone[b % ring], w(x.wrapping_mul(3)));
            // A chain hanging off the multi-link host: routes into it
            // would have to transit the host, so they do not exist.
            let g = add(&mut t, NodeKind::Ixp);
            t.add_link(g, h, w(x.wrapping_add(1)));
        }
        let mut parent = add(&mut t, NodeKind::Ixp);
        for i in 0..loose_tree {
            let v = add(
                &mut t,
                if i % 3 == 2 {
                    NodeKind::Host
                } else {
                    NodeKind::Ixp
                },
            );
            t.add_link(v, parent, w(i as u8));
            if i % 2 == 0 {
                parent = v;
            }
        }
        add(&mut t, NodeKind::Host); // isolated
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn contracted_routes_equal_the_full_graph_dijkstra(
            ring in 3usize..9,
            chords in prop::collection::vec((0usize..9, 0usize..9, 0u8..255), 0..6),
            chains in prop::collection::vec((0usize..9, 1usize..4, 0u8..255, 0u8..2), 0..8),
            multi_hosts in prop::collection::vec((0usize..9, 0usize..9, 0u8..255), 0..3),
            loose_tree in 0usize..5,
        ) {
            let chains: Vec<_> = chains.into_iter().map(|(a, d, x, h)| (a, d, x, h == 1)).collect();
            let t = random_topology(ring, &chords, &chains, &multi_hosts, loose_tree);
            let r = Router::new();
            for src in t.node_ids() {
                for dst in t.node_ids() {
                    prop_assert_eq!(
                        r.path(&t, src, dst),
                        oracle_path(&t, src, dst),
                        "route {} → {}",
                        src,
                        dst
                    );
                }
            }
            prop_assert!(r.cached_trees() <= r.core_nodes());
        }
    }
}
