//! The path database policy modules consult.
//!
//! Built once per topology (and rebuilt on port-status changes), it caches
//! host locations and answers "which egress port at switch S leads toward
//! host H" — the primitive every forwarding policy compiles down to.
//!
//! The tables are dense: one row per switch, one column per host, filled
//! by one breadth-first search per switch (next hops) and one reverse
//! search per host (equal-cost sets). The database remembers the
//! link-state vector it was built from, so a controller can skip the
//! rebuild when a topology change leaves every link as it was (both ends
//! of a cable report the same failure).

use horse_topology::routing::{k_shortest_paths, shortest_path, Metric, Path};
use horse_topology::Topology;
use horse_types::{LinkId, MacAddr, NodeId, PortNo};

/// Row/column marker for a node that is not a switch/host.
const ABSENT: u32 = u32::MAX;

/// Cached paths over a topology snapshot.
pub struct PathDb {
    /// Node count and one bit per directed link (set = up) of the
    /// topology the tables were built from.
    link_state: (u64, Vec<u64>),
    /// All host node ids, sorted.
    hosts: Vec<NodeId>,
    /// Node index → column in the per-host tables ([`ABSENT`] for
    /// switches).
    host_col: Vec<u32>,
    /// Node index → row in the per-switch tables ([`ABSENT`] for hosts).
    switch_row: Vec<u32>,
    /// `(MAC, host)`, sorted by MAC.
    macs: Vec<(MacAddr, NodeId)>,
    /// Per host column: the edge switch it attaches to (via its first up
    /// link).
    attachment: Vec<Option<(NodeId, PortNo)>>,
    /// `row * hosts + col` → egress port on the deterministic shortest
    /// path.
    next_hop: Vec<Option<PortNo>>,
    /// `row * hosts + col` → start of that pair's equal-cost egress ports
    /// in `ecmp_ports` (the pair's set ends where the next one starts).
    ecmp_start: Vec<u32>,
    /// Every ECMP set, concatenated in pair order.
    ecmp_ports: Vec<PortNo>,
}

// Checkpoints serialize the database rather than rebuilding it: between a
// port-status change and the (latency-delayed) controller callback the
// cached paths intentionally reflect the OLD topology, and a resumed run
// must reproduce that staleness window exactly.
horse_types::impl_snap_struct!(PathDb {
    link_state,
    hosts,
    host_col,
    switch_row,
    macs,
    attachment,
    next_hop,
    ecmp_start,
    ecmp_ports,
});

/// The memo key of a topology state: node count plus the up/down bit of
/// every directed link.
fn link_state(topo: &Topology) -> (u64, Vec<u64>) {
    let mut bits = vec![0u64; topo.link_count().div_ceil(64)];
    for (id, l) in topo.links() {
        if l.is_up() {
            bits[id.index() / 64] |= 1 << (id.index() % 64);
        }
    }
    (topo.node_count() as u64, bits)
}

/// Up links grouped by one endpoint, in ascending link id per node
/// (compressed sparse rows).
struct Adjacency {
    start: Vec<u32>,
    /// `(link, the other endpoint)`.
    edges: Vec<(LinkId, NodeId)>,
}

impl Adjacency {
    /// Groups up links by source (`reverse = false`) or destination.
    fn build(topo: &Topology, reverse: bool) -> Self {
        let ends = |src: NodeId, dst: NodeId| if reverse { (dst, src) } else { (src, dst) };
        let mut start = vec![0u32; topo.node_count() + 1];
        for (_, l) in topo.links().filter(|(_, l)| l.is_up()) {
            start[ends(l.src, l.dst).0.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut edges = vec![(LinkId(0), NodeId(0)); start[topo.node_count()] as usize];
        for (id, l) in topo.links().filter(|(_, l)| l.is_up()) {
            let (at, other) = ends(l.src, l.dst);
            edges[fill[at.index()] as usize] = (id, other);
            fill[at.index()] += 1;
        }
        Adjacency { start, edges }
    }

    fn of(&self, n: NodeId) -> &[(LinkId, NodeId)] {
        &self.edges[self.start[n.index()] as usize..self.start[n.index() + 1] as usize]
    }
}

/// Breadth-first search from `src` over `adj`: fills hop distances into
/// `dist` (which must arrive all-[`ABSENT`]; unreachable nodes stay so)
/// and leaves the visit order in `queue`. `layer_edge(v, l)` sees every
/// link `l` that reaches `v` from the layer right before it.
fn bfs(
    src: NodeId,
    adj: &Adjacency,
    dist: &mut [u32],
    queue: &mut Vec<NodeId>,
    mut layer_edge: impl FnMut(NodeId, LinkId),
) {
    queue.clear();
    dist[src.index()] = 0;
    queue.push(src);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let next = dist[u.index()] + 1;
        for &(l, v) in adj.of(u) {
            if dist[v.index()] == ABSENT {
                dist[v.index()] = next;
                queue.push(v);
            }
            if dist[v.index()] == next {
                layer_edge(v, l);
            }
        }
    }
}

impl PathDb {
    /// Builds the database from the current topology state (down links are
    /// excluded, so rebuilding after a failure yields repaired paths).
    ///
    /// Answers are exactly those of hop-metric Dijkstra with the
    /// lowest-link-id tie-break ([`horse_topology::routing::sssp`]) for
    /// next hops, and of the reverse trees
    /// ([`horse_topology::routing::dist_to`]) for ECMP sets: with unit
    /// costs both reduce to breadth-first search, and the deterministic
    /// predecessor of a node is its lowest-id up link from the previous
    /// BFS layer.
    pub fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let switches: Vec<NodeId> = topo.switches().collect();
        let mut host_col = vec![ABSENT; n];
        for (c, h) in hosts.iter().enumerate() {
            host_col[h.index()] = c as u32;
        }
        let mut switch_row = vec![ABSENT; n];
        for (r, s) in switches.iter().enumerate() {
            switch_row[s.index()] = r as u32;
        }
        let mut macs: Vec<(MacAddr, NodeId)> = hosts
            .iter()
            .filter_map(|&h| Some((topo.node(h)?.mac()?, h)))
            .collect();
        macs.sort();
        let attachment = hosts
            .iter()
            .map(|&h| {
                topo.out_links(h)
                    .find(|(_, l)| l.is_up())
                    .map(|(_, l)| (l.dst, l.dst_port))
            })
            .collect();

        let out_adj = Adjacency::build(topo, false);
        let in_adj = Adjacency::build(topo, true);
        let port = |l: LinkId| topo.link(l).expect("link exists").src_port;
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        let mut dist = vec![ABSENT; n];
        // Hop distance of every node *to* each host, one row per host:
        // an egress link is in the ECMP set iff it steps one hop closer.
        let mut to_host = vec![ABSENT; hosts.len() * n];
        for (c, &h) in hosts.iter().enumerate() {
            let d = &mut to_host[c * n..(c + 1) * n];
            bfs(h, &in_adj, d, &mut queue, |_, _| {});
        }

        let pairs = switches.len() * hosts.len();
        let mut next_hop = vec![None; pairs];
        let mut ecmp_start = Vec::with_capacity(pairs + 1);
        let mut ecmp_ports = Vec::new();
        let mut prev = vec![LinkId(u32::MAX); n];
        let mut first = vec![LinkId(u32::MAX); n];
        for (r, &sw) in switches.iter().enumerate() {
            // Forward tree: the predecessor of each node is its lowest-id
            // up link from the previous layer (the tie-break of
            // `routing::sssp`), and the first link of the tree path to a
            // node is inherited down the tree in BFS order.
            dist.fill(ABSENT);
            prev.fill(LinkId(u32::MAX));
            bfs(sw, &out_adj, &mut dist, &mut queue, |v, l| {
                let p = &mut prev[v.index()];
                *p = (*p).min(l);
            });
            for &v in &queue[1..] {
                let p = prev[v.index()];
                let from = topo.link(p).expect("link exists").src;
                first[v.index()] = if from == sw { p } else { first[from.index()] };
            }
            for (c, &h) in hosts.iter().enumerate() {
                let i = r * hosts.len() + c;
                if dist[h.index()] != ABSENT {
                    next_hop[i] = Some(port(first[h.index()]));
                }
                ecmp_start.push(ecmp_ports.len() as u32);
                let d = &to_host[c * n..(c + 1) * n];
                let here = d[sw.index()];
                if here == ABSENT {
                    continue;
                }
                // Each egress port carries one link, so no duplicates.
                let from = ecmp_ports.len();
                ecmp_ports.extend(
                    out_adj
                        .of(sw)
                        .iter()
                        .filter(|(_, v)| d[v.index()] != ABSENT && d[v.index()] + 1 == here)
                        .map(|&(l, _)| port(l)),
                );
                ecmp_ports[from..].sort();
            }
        }
        ecmp_start.push(ecmp_ports.len() as u32);
        PathDb {
            link_state: link_state(topo),
            hosts,
            host_col,
            switch_row,
            macs,
            attachment,
            next_hop,
            ecmp_start,
            ecmp_ports,
        }
    }

    /// True when `topo` has the node count and link states this database
    /// was built from, i.e. [`PathDb::build`] would return an identical
    /// database. Only states are compared: the database must come from
    /// the same topology (as a controller's does).
    pub fn is_current(&self, topo: &Topology) -> bool {
        self.link_state == link_state(topo)
    }

    /// All hosts.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The host owning a MAC.
    pub fn host_by_mac(&self, mac: MacAddr) -> Option<NodeId> {
        let i = self.macs.binary_search_by_key(&mac, |&(m, _)| m).ok()?;
        Some(self.macs[i].1)
    }

    /// The `(edge switch, port)` a host attaches to.
    pub fn attachment(&self, host: NodeId) -> Option<(NodeId, PortNo)> {
        let c = *self.host_col.get(host.index())?;
        self.attachment.get(c as usize).copied().flatten()
    }

    /// Index of the `(switch, host)` pair in the per-pair tables.
    fn pair(&self, switch: NodeId, host: NodeId) -> Option<usize> {
        let r = *self.switch_row.get(switch.index())?;
        let c = *self.host_col.get(host.index())?;
        (r != ABSENT && c != ABSENT).then(|| r as usize * self.hosts.len() + c as usize)
    }

    /// Deterministic shortest-path egress port at `switch` toward `host`.
    pub fn next_hop(&self, switch: NodeId, host: NodeId) -> Option<PortNo> {
        self.next_hop[self.pair(switch, host)?]
    }

    /// All equal-cost egress ports at `switch` toward `host`.
    pub fn ecmp(&self, switch: NodeId, host: NodeId) -> &[PortNo] {
        match self.pair(switch, host) {
            Some(i) => {
                &self.ecmp_ports[self.ecmp_start[i] as usize..self.ecmp_start[i + 1] as usize]
            }
            None => &[],
        }
    }

    /// An explicit path visiting `waypoints` in order (shortest segments
    /// in between), for source routing. Returns the concatenated path.
    pub fn via_path(
        &self,
        topo: &Topology,
        src: NodeId,
        waypoints: &[NodeId],
        dst: NodeId,
    ) -> Option<Path> {
        let mut stops = Vec::with_capacity(waypoints.len() + 2);
        stops.push(src);
        stops.extend_from_slice(waypoints);
        stops.push(dst);
        let mut nodes = vec![src];
        let mut links = Vec::new();
        for w in stops.windows(2) {
            let seg = shortest_path(topo, w[0], w[1], Metric::Hops)?;
            if seg.nodes.len() > 1 {
                nodes.extend_from_slice(&seg.nodes[1..]);
                links.extend_from_slice(&seg.links);
            }
        }
        Some(Path { nodes, links })
    }

    /// The k-th shortest path between two nodes (k = 0 is the shortest),
    /// for peering policies that pin alternate routes.
    pub fn kth_path(&self, topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Option<Path> {
        let paths = k_shortest_paths(topo, src, dst, k + 1, Metric::Hops);
        paths.into_iter().nth(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_topology::builders;
    use horse_topology::generators::{generate, load_topology_spec, GeneratorParams, TopologyKind};
    use horse_topology::routing::{dist_to, sssp};
    use horse_topology::LinkState;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The map-based build the dense tables replaced, kept as the
    /// reference: one Dijkstra tree per switch for next hops, one reverse
    /// tree per host for ECMP sets.
    struct Reference {
        mac_to_host: HashMap<MacAddr, NodeId>,
        attachment: HashMap<NodeId, (NodeId, PortNo)>,
        next_hop: HashMap<(NodeId, NodeId), PortNo>,
        ecmp_ports: HashMap<(NodeId, NodeId), Vec<PortNo>>,
    }

    impl Reference {
        fn build(topo: &Topology) -> Self {
            let hosts: Vec<NodeId> = topo.hosts().collect();
            let mut mac_to_host = HashMap::new();
            let mut attachment = HashMap::new();
            for &h in &hosts {
                if let Some(mac) = topo.node(h).and_then(|n| n.mac()) {
                    mac_to_host.insert(mac, h);
                }
                if let Some((_, l)) = topo.out_links(h).find(|(_, l)| l.is_up()) {
                    attachment.insert(h, (l.dst, l.dst_port));
                }
            }
            let mut next_hop = HashMap::new();
            let mut ecmp_ports = HashMap::new();
            let reverse: Vec<_> = hosts
                .iter()
                .map(|&h| dist_to(topo, h, Metric::Hops))
                .collect();
            for sw in topo.switches() {
                let tree = sssp(topo, sw, Metric::Hops);
                for (hi, &h) in hosts.iter().enumerate() {
                    if let Some(p) = tree.path_to(topo, h) {
                        if let Some(&first_link) = p.links.first() {
                            next_hop.insert((sw, h), topo.link(first_link).unwrap().src_port);
                        }
                    }
                    let links = reverse[hi].ecmp_links(topo, sw);
                    if !links.is_empty() {
                        let mut ports: Vec<PortNo> = links
                            .iter()
                            .map(|&l| topo.link(l).unwrap().src_port)
                            .collect();
                        ports.sort();
                        ports.dedup();
                        ecmp_ports.insert((sw, h), ports);
                    }
                }
            }
            Reference {
                mac_to_host,
                attachment,
                next_hop,
                ecmp_ports,
            }
        }
    }

    /// Asserts the dense database answers every query like the reference.
    fn assert_matches_reference(topo: &Topology) {
        let db = PathDb::build(topo);
        let reference = Reference::build(topo);
        assert!(db.is_current(topo));
        assert_eq!(db.hosts(), topo.hosts().collect::<Vec<_>>().as_slice());
        for (id, node) in topo.nodes() {
            if let Some(mac) = node.mac() {
                assert_eq!(
                    db.host_by_mac(mac),
                    reference.mac_to_host.get(&mac).copied()
                );
            }
            assert_eq!(db.attachment(id), reference.attachment.get(&id).copied());
            for (to, _) in topo.nodes() {
                assert_eq!(
                    db.next_hop(id, to),
                    reference.next_hop.get(&(id, to)).copied(),
                    "next hop {id} -> {to}"
                );
                assert_eq!(
                    db.ecmp(id, to),
                    reference
                        .ecmp_ports
                        .get(&(id, to))
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                    "ECMP set {id} -> {to}"
                );
            }
        }
    }

    /// One topology of each family the proptest samples.
    fn family(which: usize, seed: u64) -> Topology {
        let params = match which % 4 {
            0 => GeneratorParams {
                kind: TopologyKind::FatTree,
                fat_tree_k: [2, 4, 6][seed as usize % 3],
                ..Default::default()
            },
            1 => {
                return builders::ixp_fabric(&builders::IxpFabricParams {
                    members: 3 + seed as usize % 10,
                    edge_switches: 1 + seed as usize % 4,
                    core_switches: seed as usize % 4,
                    ..Default::default()
                })
                .topology
            }
            2 => GeneratorParams {
                kind: TopologyKind::Jellyfish,
                switches: 6 + seed as usize % 6,
                degree: 3,
                hosts: 12,
                seed,
                ..Default::default()
            },
            _ => {
                let file = ["abilene.json", "geant.json", "nsfnet.json"][seed as usize % 3];
                let path = std::path::Path::new("../../examples/topologies").join(file);
                GeneratorParams {
                    kind: TopologyKind::Wan,
                    wan: Some(load_topology_spec(&path).expect("shipped WAN graph loads")),
                    hosts_per_pop: 1 + seed as usize % 2,
                    ..Default::default()
                }
            }
        };
        generate(&params).expect("valid generator params").topology
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The dense build equals the map-based reference on every
        /// family, with random cables failed and switches crashed (a
        /// crash takes every incident cable down).
        #[test]
        fn dense_build_matches_map_reference(
            which in 0usize..4,
            seed in 0u64..1_000_000,
            failed in 0usize..8,
            crashed in 0usize..3,
        ) {
            let mut topo = family(which, seed);
            let mut rng = seed;
            let mut draw = |n: usize| {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (rng >> 33) as usize % n
            };
            for _ in 0..failed {
                let l = LinkId::from_index(draw(topo.link_count()));
                topo.set_cable_state(l, LinkState::Down).unwrap();
            }
            let switches: Vec<NodeId> = topo.switches().collect();
            for _ in 0..crashed {
                let sw = switches[draw(switches.len())];
                let cables: Vec<LinkId> = topo.out_links(sw).map(|(l, _)| l).collect();
                for l in cables {
                    topo.set_cable_state(l, LinkState::Down).unwrap();
                }
            }
            assert_matches_reference(&topo);
        }
    }

    #[test]
    fn k8_fat_tree_matches_map_reference() {
        let mut topo = family(0, 0);
        assert_matches_reference(&topo);
        let params = GeneratorParams {
            fat_tree_k: 8,
            ..Default::default()
        };
        topo = generate(&params).unwrap().topology;
        for l in [3, 200, 401, 650] {
            topo.set_cable_state(LinkId(l), LinkState::Down).unwrap();
        }
        assert_matches_reference(&topo);
    }

    #[test]
    fn link_state_memo_tracks_every_link() {
        let f = builders::figure1_fabric();
        let mut topo = f.topology.clone();
        let db = PathDb::build(&topo);
        assert!(db.is_current(&topo));
        let l = LinkId(0);
        topo.set_cable_state(l, LinkState::Down).unwrap();
        assert!(!db.is_current(&topo), "a failed cable invalidates the memo");
        topo.set_cable_state(l, LinkState::Up).unwrap();
        assert!(
            db.is_current(&topo),
            "restoring it makes the memo current again"
        );
        let grown = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 5,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        });
        assert!(
            !db.is_current(&grown.topology),
            "a different topology never matches"
        );
    }

    #[test]
    fn snapshot_roundtrip_keeps_every_answer() {
        let f = builders::figure1_fabric();
        let db = PathDb::build(&f.topology);
        let mut w = horse_types::SnapWriter::new();
        horse_types::Snap::snap(&db, &mut w);
        let bytes = w.into_bytes();
        let back: PathDb =
            horse_types::Snap::unsnap(&mut horse_types::SnapReader::new(&bytes)).unwrap();
        assert!(back.is_current(&f.topology));
        for sw in f.topology.switches() {
            for &h in db.hosts() {
                assert_eq!(back.next_hop(sw, h), db.next_hop(sw, h));
                assert_eq!(back.ecmp(sw, h), db.ecmp(sw, h));
            }
        }
    }

    #[test]
    fn next_hop_reaches_every_host() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 8,
            edge_switches: 4,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        assert_eq!(db.hosts().len(), 8);
        for &sw in &f.edges {
            for &h in &f.members {
                assert!(db.next_hop(sw, h).is_some(), "no next hop from {sw} to {h}");
            }
        }
    }

    #[test]
    fn ecmp_width_equals_core_count_for_remote_members() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 4,
            edge_switches: 2,
            core_switches: 3,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        // member 1 attaches to edge 1; from edge 0 it is reachable through
        // each of the 3 cores.
        let remote = f.members[1];
        let ports = db.ecmp(f.edges[0], remote);
        assert_eq!(ports.len(), 3);
    }

    #[test]
    fn attachment_and_mac_lookup() {
        let f = builders::star(3, horse_types::Rate::gbps(1.0));
        let db = PathDb::build(&f.topology);
        let h0 = f.members[0];
        let mac = f.topology.node(h0).unwrap().mac().unwrap();
        assert_eq!(db.host_by_mac(mac), Some(h0));
        let (sw, _port) = db.attachment(h0).unwrap();
        assert_eq!(sw, f.edges[0]);
    }

    #[test]
    fn via_path_respects_waypoints() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let (m0, m1) = (f.members[0], f.members[1]);
        let via_c2 = db
            .via_path(&f.topology, m0, &[f.cores[1]], m1)
            .expect("path exists");
        assert!(via_c2.nodes.contains(&f.cores[1]));
        assert_eq!(via_c2.src(), m0);
        assert_eq!(via_c2.dst(), m1);
    }

    #[test]
    fn kth_path_distinct_from_shortest() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let db = PathDb::build(&f.topology);
        let p0 = db
            .kth_path(&f.topology, f.members[0], f.members[1], 0)
            .unwrap();
        let p1 = db
            .kth_path(&f.topology, f.members[0], f.members[1], 1)
            .unwrap();
        assert_ne!(p0.links, p1.links);
    }

    #[test]
    fn rebuild_after_failure_avoids_dead_link() {
        let f = builders::ixp_fabric(&builders::IxpFabricParams {
            members: 2,
            edge_switches: 2,
            core_switches: 2,
            ..Default::default()
        });
        let mut topo = f.topology.clone();
        let db = PathDb::build(&topo);
        let m1 = f.members[1];
        let e0 = f.edges[0];
        let old_port = db.next_hop(e0, m1).unwrap();
        // fail the link behind that port
        let dead = topo.link_from(e0, old_port).unwrap();
        topo.set_cable_state(dead, horse_topology::LinkState::Down)
            .unwrap();
        let db2 = PathDb::build(&topo);
        let new_port = db2.next_hop(e0, m1).expect("alternate path exists");
        assert_ne!(new_port, old_port);
    }
}
