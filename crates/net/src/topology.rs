//! Node naming and the static link graph.
//!
//! The topology mirrors the paper's testbed:
//!
//! ```text
//! drone ──(shared 867 Mb/s wireless medium)── router ──1 Gb/s── ToR switch
//!                                                                │ 40 Gb/s
//! server NIC (10 Gb/s tx + 10 Gb/s rx) ─────────────────────────┘
//! ```
//!
//! Drones are assigned to routers round-robin; for large simulated swarms
//! the router count is scaled "proportionately to the real experiments"
//! (Sec. 5.6), i.e. one router per 8 drones, matching 16 drones / 2 routers.

use hivemind_sim::time::SimDuration;

/// A network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// Edge device `i` of the swarm (drone or robotic car).
    Device(u32),
    /// Backend server `i` in the cluster.
    Server(u32),
}

/// Index of a link in a [`Topology`]'s link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkRef(pub(crate) u32);

/// A hop sequence through the fabric, stored inline (every route in the
/// two-tier topology is at most [`Path::MAX_HOPS`] links), so building
/// one per transfer never touches the allocator — the fabric's send
/// path is allocation-free in steady state. Dereferences to a
/// `[LinkRef]` slice for iteration and indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    links: [LinkRef; Path::MAX_HOPS],
    len: u8,
}

impl Path {
    /// The longest route the topology produces (device → device across
    /// two routers: wifi, trunk up, switch, trunk down, wifi).
    pub const MAX_HOPS: usize = 5;

    /// A path holding a copy of `links`.
    ///
    /// # Panics
    ///
    /// Panics if `links` exceeds [`Path::MAX_HOPS`].
    pub fn new(links: &[LinkRef]) -> Path {
        assert!(links.len() <= Path::MAX_HOPS, "path exceeds MAX_HOPS");
        let mut inline = [LinkRef(0); Path::MAX_HOPS];
        inline[..links.len()].copy_from_slice(links);
        Path {
            links: inline,
            len: links.len() as u8,
        }
    }
}

impl std::ops::Deref for Path {
    type Target = [LinkRef];

    fn deref(&self) -> &[LinkRef] {
        &self.links[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a LinkRef;
    type IntoIter = std::slice::Iter<'a, LinkRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl LinkRef {
    /// Raw index into the topology's link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a link represents; used for bandwidth-accounting scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// A router's shared wireless medium (edge ↔ cloud boundary).
    WirelessMedium,
    /// Wired router uplink/downlink to the ToR switch.
    RouterTrunk,
    /// The ToR switch fabric.
    Switch,
    /// A server NIC direction.
    ServerNic,
}

/// Static description of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Capacity in bytes per second.
    pub bytes_per_sec: f64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Accounting class.
    pub class: LinkClass,
}

/// Tunable capacities; defaults are the paper's testbed values.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyParams {
    /// Number of edge devices.
    pub devices: u32,
    /// Number of backend servers (paper: 12).
    pub servers: u32,
    /// Number of wireless routers; `0` means auto-scale (1 per 8 devices,
    /// minimum 2, matching the testbed's 16 drones / 2 routers).
    pub routers: u32,
    /// Wireless medium capacity in bits/s (paper: 867 Mb/s AC2200 routers).
    pub wireless_bps: f64,
    /// Router trunk capacity in bits/s (1 GbE).
    pub trunk_bps: f64,
    /// Switch fabric capacity in bits/s (paper: 40 Gb/s ToR).
    pub switch_bps: f64,
    /// Server NIC capacity in bits/s per direction (paper: 10 GbE).
    pub nic_bps: f64,
    /// Wireless one-way propagation + MAC latency.
    pub wireless_propagation: SimDuration,
    /// Wired one-way propagation per hop.
    pub wired_propagation: SimDuration,
}

impl Default for TopologyParams {
    fn default() -> Self {
        TopologyParams {
            devices: 16,
            servers: 12,
            routers: 0,
            wireless_bps: 867e6,
            trunk_bps: 1e9,
            switch_bps: 40e9,
            nic_bps: 10e9,
            // 802.11 MAC + contention + air time: ~5 ms one-way is
            // typical for an AP carrying a busy swarm.
            wireless_propagation: SimDuration::from_millis(5),
            wired_propagation: SimDuration::from_micros(10),
        }
    }
}

impl TopologyParams {
    /// Effective router count after auto-scaling.
    pub fn effective_routers(&self) -> u32 {
        if self.routers > 0 {
            self.routers
        } else {
            (self.devices.div_ceil(8)).max(2)
        }
    }
}

/// The static link graph plus routing.
#[derive(Debug, Clone)]
pub struct Topology {
    params: TopologyParams,
    routers: u32,
    links: Vec<LinkSpec>,
    // Link table layout:
    //   [0, R)            wireless medium per router
    //   [R, 2R)           router trunk up (to switch)
    //   [2R, 3R)          router trunk down (from switch)
    //   [3R]              switch fabric
    //   [3R+1 + 2s]       server s NIC tx
    //   [3R+2 + 2s]       server s NIC rx
}

impl Topology {
    /// Builds the testbed topology from `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params.devices == 0` or `params.servers == 0`.
    pub fn new(params: TopologyParams) -> Self {
        assert!(params.devices > 0, "topology needs at least one device");
        assert!(params.servers > 0, "topology needs at least one server");
        let routers = params.effective_routers();
        let bits = |bps: f64| bps / 8.0;
        let wireless = LinkSpec {
            bytes_per_sec: bits(params.wireless_bps),
            propagation: params.wireless_propagation,
            class: LinkClass::WirelessMedium,
        };
        let trunk = LinkSpec {
            bytes_per_sec: bits(params.trunk_bps),
            propagation: params.wired_propagation,
            class: LinkClass::RouterTrunk,
        };
        // "We scale up the network links proportionately to the real
        // experiments" (Sec. 5.6): the testbed pairs a 40 Gb/s ToR with
        // 2 routers, so simulated swarms get 20 Gb/s of switching fabric
        // per router.
        let switch_scale = (routers as f64 / 2.0).max(1.0);
        let switch = LinkSpec {
            bytes_per_sec: bits(params.switch_bps) * switch_scale,
            propagation: params.wired_propagation,
            class: LinkClass::Switch,
        };
        let nic = LinkSpec {
            bytes_per_sec: bits(params.nic_bps),
            propagation: params.wired_propagation,
            class: LinkClass::ServerNic,
        };
        // The layout documented on `Topology`: wireless media, trunks up,
        // trunks down, the switch, then each server's NIC tx and rx.
        let r = routers as usize;
        let links: Vec<LinkSpec> = std::iter::repeat_n(wireless, r)
            .chain(std::iter::repeat_n(trunk, 2 * r))
            .chain([switch])
            .chain(std::iter::repeat_n(nic, 2 * params.servers as usize))
            .collect();
        Topology {
            params,
            routers,
            links,
        }
    }

    /// The construction parameters.
    pub fn params(&self) -> &TopologyParams {
        &self.params
    }

    /// Number of wireless routers in the topology.
    pub fn routers(&self) -> u32 {
        self.routers
    }

    /// All link specifications, indexed by [`LinkRef`].
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// The router serving a device (round-robin assignment).
    pub fn router_of(&self, device: u32) -> u32 {
        device % self.routers
    }

    /// Conservative cross-shard lookahead: the smallest propagation delay
    /// on any wireless-medium link. No event generated by one device can
    /// influence hardware owned by another in less virtual time than a
    /// wireless hop, so a sharded engine may safely advance each device
    /// partition by this window between synchronization barriers.
    pub fn lookahead(&self) -> SimDuration {
        self.links
            .iter()
            .filter(|l| l.class == LinkClass::WirelessMedium)
            .map(|l| l.propagation)
            .min()
            .unwrap_or(self.params.wireless_propagation)
    }

    /// Whether the fabric may pass `link` rather than queue on it: the
    /// link never starts a path, so ingress backpressure never reads its
    /// occupancy and every arrival comes from a hop completing in time
    /// order, and each link that follows it on any path is fed by it
    /// alone, so routing a transfer on at its exit instant, before that
    /// instant is reached, reorders nothing downstream. In this layout
    /// that is the ToR switch (followed only by the NIC receive sides
    /// and the trunk downlinks) and each server's NIC receive side (always
    /// the last hop).
    pub(crate) fn passes_through(&self, link: LinkRef) -> bool {
        let switch = self.switch().0;
        link.0 >= switch && (link.0 - switch).is_multiple_of(2)
    }

    fn wifi(&self, r: u32) -> LinkRef {
        LinkRef(r)
    }
    fn trunk_up(&self, r: u32) -> LinkRef {
        LinkRef(self.routers + r)
    }
    fn trunk_down(&self, r: u32) -> LinkRef {
        LinkRef(2 * self.routers + r)
    }
    fn switch(&self) -> LinkRef {
        LinkRef(3 * self.routers)
    }
    fn nic_tx(&self, s: u32) -> LinkRef {
        LinkRef(3 * self.routers + 1 + 2 * s)
    }
    fn nic_rx(&self, s: u32) -> LinkRef {
        LinkRef(3 * self.routers + 2 + 2 * s)
    }

    /// The hop sequence from `src` to `dst`. An empty path means local
    /// (same-node) delivery.
    ///
    /// # Panics
    ///
    /// Panics if a node index exceeds the topology size.
    pub fn path(&self, src: Node, dst: Node) -> Path {
        match (src, dst) {
            (a, b) if a == b => Path::new(&[]),
            (Node::Device(d), Node::Server(s)) => {
                self.check(src, dst);
                let r = self.router_of(d);
                Path::new(&[
                    self.wifi(r),
                    self.trunk_up(r),
                    self.switch(),
                    self.nic_rx(s),
                ])
            }
            (Node::Server(s), Node::Device(d)) => {
                self.check(src, dst);
                let r = self.router_of(d);
                Path::new(&[
                    self.nic_tx(s),
                    self.switch(),
                    self.trunk_down(r),
                    self.wifi(r),
                ])
            }
            (Node::Server(a), Node::Server(b)) => {
                self.check(src, dst);
                Path::new(&[self.nic_tx(a), self.switch(), self.nic_rx(b)])
            }
            (Node::Device(_), Node::Device(_)) => {
                // Device-to-device traffic relays through its router(s); the
                // paper's platforms never use it directly but the distributed
                // baseline could. Route through both media.
                self.check(src, dst);
                let (Node::Device(a), Node::Device(b)) = (src, dst) else {
                    unreachable!()
                };
                let ra = self.router_of(a);
                let rb = self.router_of(b);
                if ra == rb {
                    Path::new(&[self.wifi(ra), self.wifi(ra)])
                } else {
                    Path::new(&[
                        self.wifi(ra),
                        self.trunk_up(ra),
                        self.switch(),
                        self.trunk_down(rb),
                        self.wifi(rb),
                    ])
                }
            }
        }
    }

    fn check(&self, src: Node, dst: Node) {
        for n in [src, dst] {
            match n {
                Node::Device(d) => assert!(
                    d < self.params.devices,
                    "device {d} out of range ({} devices)",
                    self.params.devices
                ),
                Node::Server(s) => assert!(
                    s < self.params.servers,
                    "server {s} out of range ({} servers)",
                    self.params.servers
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_testbed() {
        let t = Topology::new(TopologyParams::default());
        assert_eq!(t.routers(), 2);
        // 2 wifi + 2 up + 2 down + 1 switch + 24 NIC directions.
        assert_eq!(t.links().len(), 31);
        let wifi = &t.links()[0];
        assert_eq!(wifi.class, LinkClass::WirelessMedium);
        assert!((wifi.bytes_per_sec - 867e6 / 8.0).abs() < 1.0);
    }

    #[test]
    fn lookahead_is_the_wireless_hop() {
        let t = Topology::new(TopologyParams::default());
        assert_eq!(t.lookahead(), SimDuration::from_millis(5));
        let p = TopologyParams {
            wireless_propagation: SimDuration::from_millis(2),
            ..TopologyParams::default()
        };
        assert_eq!(Topology::new(p).lookahead(), SimDuration::from_millis(2));
    }

    #[test]
    fn router_autoscaling() {
        let p = TopologyParams {
            devices: 1000,
            ..TopologyParams::default()
        };
        assert_eq!(p.effective_routers(), 125);
        let p = TopologyParams {
            devices: 4,
            ..TopologyParams::default()
        };
        assert_eq!(p.effective_routers(), 2);
    }

    #[test]
    fn uplink_path_shape() {
        let t = Topology::new(TopologyParams::default());
        let path = t.path(Node::Device(0), Node::Server(3));
        assert_eq!(path.len(), 4);
        assert_eq!(t.links()[path[0].index()].class, LinkClass::WirelessMedium);
        assert_eq!(t.links()[path[3].index()].class, LinkClass::ServerNic);
    }

    #[test]
    fn downlink_reverses_classes() {
        let t = Topology::new(TopologyParams::default());
        let path = t.path(Node::Server(3), Node::Device(0));
        assert_eq!(t.links()[path[0].index()].class, LinkClass::ServerNic);
        assert_eq!(
            t.links()[path.last().unwrap().index()].class,
            LinkClass::WirelessMedium
        );
    }

    #[test]
    fn server_to_server_avoids_wireless() {
        let t = Topology::new(TopologyParams::default());
        let path = t.path(Node::Server(0), Node::Server(1));
        assert!(path
            .iter()
            .all(|l| t.links()[l.index()].class != LinkClass::WirelessMedium));
    }

    #[test]
    fn local_delivery_is_empty_path() {
        let t = Topology::new(TopologyParams::default());
        assert!(t.path(Node::Server(2), Node::Server(2)).is_empty());
        assert!(t.path(Node::Device(5), Node::Device(5)).is_empty());
    }

    #[test]
    fn device_pair_same_router_uses_medium_twice() {
        let t = Topology::new(TopologyParams::default());
        // Devices 0 and 2 share router 0 under round-robin with 2 routers.
        let path = t.path(Node::Device(0), Node::Device(2));
        assert_eq!(path.len(), 2);
        assert_eq!(path[0], path[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_device_panics() {
        let t = Topology::new(TopologyParams::default());
        let _ = t.path(Node::Device(99), Node::Server(0));
    }

    /// `passes_through` agrees with its rule checked over every route of
    /// a small topology: never a first hop, and every successor has it
    /// as its only predecessor.
    #[test]
    fn pass_through_links_follow_the_rule() {
        let t = Topology::new(TopologyParams {
            devices: 24,
            servers: 5,
            routers: 3,
            ..TopologyParams::default()
        });
        let n = t.links().len();
        let mut first = vec![false; n];
        let mut preds = vec![std::collections::BTreeSet::new(); n];
        let mut succs = vec![std::collections::BTreeSet::new(); n];
        let nodes: Vec<Node> = (0..24)
            .map(Node::Device)
            .chain((0..5).map(Node::Server))
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                let p = t.path(a, b);
                if let Some(l) = p.first() {
                    first[l.index()] = true;
                }
                for w in p.windows(2) {
                    succs[w[0].index()].insert(w[1].index());
                    preds[w[1].index()].insert(w[0].index());
                }
            }
        }
        let passed: Vec<usize> = (0..n)
            .filter(|&i| t.passes_through(LinkRef(i as u32)))
            .collect();
        for i in 0..n {
            let rule = !first[i] && succs[i].iter().all(|&s| preds[s].len() == 1);
            let class = t.links()[i].class;
            assert_eq!(rule, passed.contains(&i), "link {i} ({class:?})");
        }
        // The switch and the five NIC receive sides.
        assert_eq!(passed.len(), 6);
        assert_eq!(t.links()[passed[0]].class, LinkClass::Switch);
    }

    #[test]
    fn routers_spread_devices() {
        let t = Topology::new(TopologyParams::default());
        assert_eq!(t.router_of(0), 0);
        assert_eq!(t.router_of(1), 1);
        assert_eq!(t.router_of(2), 0);
    }
}
