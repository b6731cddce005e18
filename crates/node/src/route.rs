//! Topology construction and route computation.
//!
//! The paper runs OpenThread's MLE routing but explicitly holds routing
//! fixed during experiments ("we did not interfere in OpenThread's
//! routing decisions, except where explicitly mentioned for
//! experimental consistency", §5; §9.5 hardcodes first hops). The
//! reproduction therefore computes link-quality-driven shortest-path
//! routes over the connectivity matrix once per experiment — the same
//! stable-route regime the paper measures under — rather than
//! simulating MLE message exchange. DESIGN.md records this
//! substitution.

use lln_netip::NodeId;
use lln_phy::{LinkMatrix, RadioIdx};

/// Next-hop routing table for one node.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// The next hop toward each node id, indexed by the id: node ids
    /// are radio indices, so the table is as long as the network.
    next_hop: Vec<Option<NodeId>>,
    /// Default route (toward the border router), if any.
    pub default_route: Option<NodeId>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a route.
    pub fn insert(&mut self, dst: NodeId, via: NodeId) {
        let k = usize::from(dst.0);
        if k >= self.next_hop.len() {
            self.next_hop.resize(k + 1, None);
        }
        self.next_hop[k] = Some(via);
    }

    /// Looks up the next hop toward `dst`, falling back to the default
    /// route (also for an id beyond the table, such as a spoofed one).
    pub fn lookup(&self, dst: NodeId) -> Option<NodeId> {
        let via = self.next_hop.get(usize::from(dst.0)).copied().flatten();
        via.or(self.default_route)
    }

    /// Number of explicit routes.
    pub fn len(&self) -> usize {
        self.next_hop.iter().flatten().count()
    }

    /// True when no explicit routes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A network topology: the link matrix plus computed routes.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Pairwise connectivity.
    pub links: LinkMatrix,
    /// Per-node routing tables (indexed by radio index).
    pub routes: Vec<RouteTable>,
}

/// Link cost for routing: usable links only (PRR above threshold);
/// cost = 1/PRR-ish (ETX), so the router prefers reliable links.
fn etx(links: &LinkMatrix, a: RadioIdx, b: RadioIdx) -> Option<f64> {
    let p = links.prr(a, b);
    if p >= 0.3 {
        Some(1.0 / p)
    } else {
        None
    }
}

impl Topology {
    /// Builds shortest-path (min-ETX) routes between every node pair.
    pub fn with_shortest_paths(links: LinkMatrix) -> Self {
        let routes = (0..links.len())
            .map(|src| Self::single_source(&links, src, None))
            .collect();
        Topology { links, routes }
    }

    /// Min-ETX routes for one source over a *borrowed* matrix,
    /// optionally treating one link (both directions) as unusable.
    /// Route-flap fault injection uses this to re-route a single node
    /// around its failed parent edge without cloning the matrix or
    /// recomputing every other node's table.
    pub fn single_source(
        links: &LinkMatrix,
        src: usize,
        exclude: Option<(usize, usize)>,
    ) -> RouteTable {
        let n = links.len();
        let cost = |a: usize, b: usize| -> Option<f64> {
            if let Some((x, y)) = exclude {
                if (a, b) == (x, y) || (a, b) == (y, x) {
                    return None;
                }
            }
            etx(links, RadioIdx(a), RadioIdx(b))
        };
        // Dijkstra from src.
        let mut dist = vec![f64::INFINITY; n];
        let mut first_hop: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[src] = 0.0;
        for _ in 0..n {
            let mut u = None;
            let mut best = f64::INFINITY;
            for v in 0..n {
                if !visited[v] && dist[v] < best {
                    best = dist[v];
                    u = Some(v);
                }
            }
            let Some(u) = u else { break };
            visited[u] = true;
            for v in 0..n {
                if visited[v] {
                    continue;
                }
                if let Some(c) = cost(u, v) {
                    let nd = dist[u] + c;
                    if nd < dist[v] {
                        dist[v] = nd;
                        first_hop[v] = if u == src { Some(v) } else { first_hop[u] };
                    }
                }
            }
        }
        let mut rt = RouteTable::new();
        for (dst, fh) in first_hop.iter().enumerate() {
            if dst == src {
                continue;
            }
            if let Some(fh) = fh {
                rt.insert(NodeId(dst as u16), NodeId(*fh as u16));
            }
        }
        rt
    }

    /// Hop count from `src` to `dst` along installed routes; `None` if
    /// unroutable (or looping).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let mut cur = src;
        for h in 0..self.routes.len() as u32 + 1 {
            if cur == dst {
                return Some(h);
            }
            cur = self.routes[cur.0 as usize].lookup(dst)?;
        }
        None
    }

    /// A linear chain of `n` nodes (node 0 ... node n-1), adjacent
    /// connectivity only — the §7 multihop/hidden-terminal topology.
    pub fn chain(n: usize, prr: f64) -> Self {
        Topology::with_shortest_paths(LinkMatrix::chain(n, prr))
    }

    /// Two single-hop nodes (§6's setup).
    pub fn pair(prr: f64) -> Self {
        Topology::chain(2, prr)
    }

    /// A Figure 3-like tree: node 0 is the border router; `routers`
    /// core routers hang off it in a two-level tree; `leaves` sleepy
    /// leaf nodes attach to the deepest routers, giving 3-5 hop paths
    /// like the paper's -8 dBm topology.
    pub fn office_tree(routers: usize, leaves: usize, prr: f64) -> Self {
        let n = 1 + routers + leaves;
        let mut links = LinkMatrix::new(n);
        // Routers form a line off the border router, with branches:
        // 0 - 1 - 2 - 3 ... plus cross-links between consecutive pairs.
        for r in 0..routers {
            let me = 1 + r;
            let parent = if r == 0 { 0 } else { r }; // previous router (or border)
            links.set_symmetric(RadioIdx(me), RadioIdx(parent), prr);
            if r >= 2 {
                // Weak shortcut two levels up: audible (interference +
                // occasional reception) but poor, so routing avoids it.
                links.set_link(RadioIdx(me), RadioIdx(me - 2), 0.2);
                links.set_link(RadioIdx(me - 2), RadioIdx(me), 0.2);
            }
        }
        // Leaves attach to the last routers, round-robin.
        for l in 0..leaves {
            let me = 1 + routers + l;
            let parent = 1 + routers - 1 - (l % 2.min(routers));
            links.set_symmetric(RadioIdx(me), RadioIdx(parent), prr);
        }
        Topology::with_shortest_paths(links)
    }

    /// Y-topology for the fairness study (Appendix A): two sources,
    /// each `hops` away from the border router, sharing all but the
    /// first hop. For `hops == 1` the two sources simply both neighbour
    /// the border router.
    pub fn fairness_y(hops: u32, prr: f64) -> (Self, NodeId, NodeId, NodeId) {
        assert!(hops >= 1);
        if hops == 1 {
            let mut links = LinkMatrix::new(3);
            links.set_symmetric(RadioIdx(0), RadioIdx(1), prr);
            links.set_symmetric(RadioIdx(0), RadioIdx(2), prr);
            // The two sources hear each other (same room).
            links.set_symmetric(RadioIdx(1), RadioIdx(2), prr);
            let t = Topology::with_shortest_paths(links);
            return (t, NodeId(1), NodeId(2), NodeId(0));
        }
        // border=0, shared relays 1..hops-1, then two sources.
        let shared = hops as usize - 1;
        let n = 1 + shared + 2;
        let mut links = LinkMatrix::new(n);
        for i in 0..shared {
            links.set_symmetric(RadioIdx(i), RadioIdx(i + 1), prr);
        }
        let last_shared = shared; // idx of deepest shared relay (or border)
        let s1 = shared + 1;
        let s2 = shared + 2;
        links.set_symmetric(RadioIdx(last_shared), RadioIdx(s1), prr);
        links.set_symmetric(RadioIdx(last_shared), RadioIdx(s2), prr);
        links.set_symmetric(RadioIdx(s1), RadioIdx(s2), prr);
        // Dense office: every pair at least senses each other's energy,
        // so hidden-terminal collisions are rare and queueing dominates
        // — the regime Appendix A's RED/ECN result concerns.
        for a in 0..n {
            for b in (a + 1)..n {
                if !links.audible(RadioIdx(a), RadioIdx(b)) {
                    links.set_interference(RadioIdx(a), RadioIdx(b));
                    links.set_interference(RadioIdx(b), RadioIdx(a));
                }
            }
        }
        let t = Topology::with_shortest_paths(links);
        (t, NodeId(s1 as u16), NodeId(s2 as u16), NodeId(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_routes_hop_by_hop() {
        let t = Topology::chain(4, 1.0);
        assert_eq!(t.routes[0].lookup(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.routes[1].lookup(NodeId(3)), Some(NodeId(2)));
        assert_eq!(t.routes[3].lookup(NodeId(0)), Some(NodeId(2)));
        assert_eq!(t.hops(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(t.hops(NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn etx_prefers_reliable_path() {
        // 0-1 direct but terrible (prr .35); 0-2-1 via good links.
        let mut links = LinkMatrix::new(3);
        links.set_symmetric(RadioIdx(0), RadioIdx(1), 0.35);
        links.set_symmetric(RadioIdx(0), RadioIdx(2), 0.95);
        links.set_symmetric(RadioIdx(2), RadioIdx(1), 0.95);
        let t = Topology::with_shortest_paths(links);
        assert_eq!(
            t.routes[0].lookup(NodeId(1)),
            Some(NodeId(2)),
            "two good hops beat one bad hop in ETX"
        );
    }

    #[test]
    fn unusable_links_excluded() {
        let mut links = LinkMatrix::new(2);
        links.set_symmetric(RadioIdx(0), RadioIdx(1), 0.1); // below threshold
        let t = Topology::with_shortest_paths(links);
        assert_eq!(t.routes[0].lookup(NodeId(1)), None);
        assert_eq!(t.hops(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn office_tree_has_multi_hop_leaves() {
        let t = Topology::office_tree(4, 4, 0.95);
        // Leaves (ids 5..8) should be 3+ hops from the border (id 0).
        for leaf in 5..9u16 {
            let h = t.hops(NodeId(leaf), NodeId(0)).expect("routable");
            assert!(h >= 3, "leaf {leaf} only {h} hops away");
            assert!(h <= 5, "leaf {leaf} too deep: {h}");
        }
    }

    #[test]
    fn fairness_y_shapes() {
        let (t, s1, s2, border) = Topology::fairness_y(3, 1.0);
        assert_eq!(t.hops(s1, border), Some(3));
        assert_eq!(t.hops(s2, border), Some(3));
        // Shared path: both route through the same relay.
        assert_eq!(
            t.routes[s1.0 as usize].lookup(border),
            t.routes[s2.0 as usize].lookup(border)
        );
        let (t1, a, b, border1) = Topology::fairness_y(1, 1.0);
        assert_eq!(t1.hops(a, border1), Some(1));
        assert_eq!(t1.hops(b, border1), Some(1));
    }

    /// The dense table answers every lookup a map would, and an id
    /// beyond it (a spoofed source) takes the default route.
    #[test]
    fn dense_table_matches_a_map() {
        let mut rng = lln_sim::Rng::new(0x70_07E5);
        for round in 0..200 {
            let mut rt = RouteTable::new();
            let mut map = std::collections::HashMap::new();
            rt.default_route = (round % 3 != 0).then(|| NodeId(rng.gen_range(64) as u16));
            for _ in 0..rng.gen_range(40) {
                let (dst, via) = (rng.gen_range(64) as u16, rng.gen_range(64) as u16);
                rt.insert(NodeId(dst), NodeId(via));
                map.insert(NodeId(dst), NodeId(via));
            }
            for dst in (0..80).chain((0..16).map(|k| 0xF000 + k)) {
                let want = map.get(&NodeId(dst)).copied().or(rt.default_route);
                assert_eq!(rt.lookup(NodeId(dst)), want, "round {round}, id {dst}");
            }
            assert_eq!(rt.len(), map.len());
            assert_eq!(rt.is_empty(), map.is_empty());
        }
    }

    #[test]
    fn default_route_fallback() {
        let mut rt = RouteTable::new();
        rt.default_route = Some(NodeId(9));
        assert_eq!(rt.lookup(NodeId(42)), Some(NodeId(9)));
        rt.insert(NodeId(42), NodeId(3));
        assert_eq!(rt.lookup(NodeId(42)), Some(NodeId(3)));
    }
}
