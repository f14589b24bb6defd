//! Sites and links of the simulated WAN, with shortest-path routing.

use osdc_sim::SimDuration;

/// Index of a node (site / host aggregation point) in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a *directed* link in a [`Topology`]. `add_duplex_link` creates
/// two of these, one per direction, so forward and reverse traffic never
/// contend (matching full-duplex 10G optics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

#[derive(Clone, Debug)]
pub struct Link {
    pub from: NodeId,
    pub to: NodeId,
    /// Capacity in bits/second.
    pub capacity_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Independent per-packet random loss probability (fiber-path residual
    /// loss; queue-overflow loss is handled by the fluid model on top).
    pub loss_rate: f64,
    /// Administrative/fault state. Down links are skipped by routing and
    /// carry nothing; fault injection toggles this.
    pub up: bool,
}

#[derive(Clone, Debug)]
struct Node {
    name: String,
    out_links: Vec<LinkId>,
}

/// A directed-graph WAN description.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            out_links: Vec::new(),
        });
        id
    }

    /// Add one directed link.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        capacity_bps: f64,
        delay: SimDuration,
        loss_rate: f64,
    ) -> LinkId {
        assert!(capacity_bps > 0.0, "link capacity must be positive");
        assert!(
            (0.0..1.0).contains(&loss_rate),
            "loss rate must be in [0,1)"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link {
            from,
            to,
            capacity_bps,
            delay,
            loss_rate,
            up: true,
        });
        self.nodes[from.0].out_links.push(id);
        id
    }

    /// Add a full-duplex link; returns `(forward, reverse)` link ids.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        delay: SimDuration,
        loss_rate: f64,
    ) -> (LinkId, LinkId) {
        let f = self.add_link(a, b, capacity_bps, delay, loss_rate);
        let r = self.add_link(b, a, capacity_bps, delay, loss_rate);
        (f, r)
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Fault-injection hooks: toggle a link's administrative state, spike
    /// its loss rate, or stretch its propagation delay. Callers holding a
    /// [`crate::FluidNet`] use its mutators of the same names instead
    /// ([`crate::FluidNet::set_link_up`] and its siblings), so in-flight
    /// flows reroute and re-sample their path loss.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        self.links[id.0].up = up;
    }

    pub fn set_link_loss_rate(&mut self, id: LinkId, loss_rate: f64) {
        assert!(
            (0.0..1.0).contains(&loss_rate),
            "loss rate must be in [0,1)"
        );
        self.links[id.0].loss_rate = loss_rate;
    }

    pub fn set_link_delay(&mut self, id: LinkId, delay: SimDuration) {
        self.links[id.0].delay = delay;
    }

    /// Every directed link between the two endpoints, in both directions
    /// (the pair a duplex link creates, plus any parallel provisioning).
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| (l.from == a && l.to == b) || (l.from == b && l.to == a))
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Find the node with the given name (linear scan; topologies are tiny).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Lowest-latency path from `src` to `dst` (Dijkstra on delay), returned
    /// as the sequence of directed links, or `None` if unreachable.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let n = self.nodes.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<LinkId>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[src.0] = 0;
        // O(V²) Dijkstra — topologies here have a handful of sites.
        for _ in 0..n {
            let u = (0..n)
                .filter(|&i| !visited[i] && dist[i] != u64::MAX)
                .min_by_key(|&i| dist[i])?;
            if u == dst.0 {
                break;
            }
            visited[u] = true;
            for &lid in &self.nodes[u].out_links {
                let link = &self.links[lid.0];
                if !link.up {
                    continue;
                }
                let nd = dist[u].saturating_add(link.delay.as_nanos().max(1));
                if nd < dist[link.to.0] {
                    dist[link.to.0] = nd;
                    prev[link.to.0] = Some(lid);
                }
            }
        }
        if dist[dst.0] == u64::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst.0;
        while cur != src.0 {
            // Every node Dijkstra reached other than `src` has a predecessor.
            let lid = prev[cur]?;
            path.push(lid);
            cur = self.links[lid.0].from.0;
        }
        path.reverse();
        Some(path)
    }

    /// Round-trip time along a path and back along the reverse shortest
    /// path (assumes symmetric provisioning, true of the OSDC WAN).
    pub fn rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        let fwd = self.path_delay(&self.shortest_path(src, dst)?);
        let rev = self.path_delay(&self.shortest_path(dst, src)?);
        Some(fwd + rev)
    }

    pub fn path_delay(&self, path: &[LinkId]) -> SimDuration {
        path.iter()
            .map(|&l| self.links[l.0].delay)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Minimum capacity along a path (the bottleneck), in bits/second.
    pub fn path_bottleneck_bps(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|&l| self.links[l.0].capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Combined per-packet loss probability along a path.
    pub fn path_loss_rate(&self, path: &[LinkId]) -> f64 {
        1.0 - path
            .iter()
            .map(|&l| 1.0 - self.links[l.0].loss_rate)
            .product::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex_link(a, b, 10e9, ms(10), 1e-6);
        t.add_duplex_link(b, c, 10e9, ms(10), 1e-6);
        t.add_duplex_link(a, c, 1e9, ms(50), 1e-6);
        (t, a, b, c)
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let (t, a, _b, c) = triangle();
        // a→b→c is 20ms total vs direct 50ms.
        let path = t.shortest_path(a, c).expect("reachable");
        assert_eq!(path.len(), 2);
        assert_eq!(t.path_delay(&path), ms(20));
        assert_eq!(t.path_bottleneck_bps(&path), 10e9);
    }

    #[test]
    fn rtt_is_round_trip() {
        let (t, a, _b, c) = triangle();
        assert_eq!(t.rtt(a, c).expect("reachable"), ms(40));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, a, ..) = triangle();
        assert_eq!(
            t.shortest_path(a, a).expect("trivial"),
            Vec::<LinkId>::new()
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("island");
        assert!(t.shortest_path(a, b).is_none());
        assert!(t.rtt(a, b).is_none());
    }

    #[test]
    fn directed_links_are_one_way() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, 1e9, ms(5), 0.0);
        assert!(t.shortest_path(a, b).is_some());
        assert!(t.shortest_path(b, a).is_none());
    }

    #[test]
    fn path_loss_composes() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(a, b, 1e9, ms(1), 0.1);
        t.add_link(b, c, 1e9, ms(1), 0.1);
        let p = t.shortest_path(a, c).expect("reachable");
        assert!((t.path_loss_rate(&p) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn find_node_by_name() {
        let (t, a, ..) = triangle();
        assert_eq!(t.find_node("a"), Some(a));
        assert_eq!(t.find_node("zz"), None);
        assert_eq!(t.node_name(a), "a");
    }

    #[test]
    fn down_link_forces_reroute_or_partition() {
        let (mut t, a, b, c) = triangle();
        // Take down both directions of the fast a↔b hop: traffic to c must
        // fall back to the direct 50 ms link.
        for l in t.links_between(a, b) {
            t.set_link_up(l, false);
        }
        let path = t.shortest_path(a, c).expect("fallback route");
        assert_eq!(path.len(), 1);
        assert_eq!(t.path_delay(&path), ms(50));
        // Down the fallback too: partitioned.
        for l in t.links_between(a, c) {
            t.set_link_up(l, false);
        }
        assert!(t.shortest_path(a, c).is_none());
        // Restore and the low-latency route returns.
        for l in t.links_between(a, b) {
            t.set_link_up(l, true);
        }
        assert_eq!(t.shortest_path(a, c).expect("restored").len(), 2);
    }

    #[test]
    fn loss_and_delay_overrides_apply() {
        let (mut t, a, b, _c) = triangle();
        let links = t.links_between(a, b);
        assert_eq!(links.len(), 2, "duplex pair");
        for &l in &links {
            t.set_link_loss_rate(l, 0.05);
            t.set_link_delay(l, ms(15)); // still the lowest-latency route
        }
        let p = t.shortest_path(a, b).expect("route");
        assert!((t.path_loss_rate(&p) - 0.05).abs() < 1e-12);
        assert_eq!(t.rtt(a, b).expect("route"), ms(30));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, 0.0, ms(1), 0.0);
    }
}
