//! Maze routing through the multi-context switch blocks, and the full
//! netlist→fabric mapping flow for one context.
//!
//! The [`Router`] numbers every [`RRNode`] of the fabric's geometry once
//! (wires, LUT input pins, IO outputs, LUT outputs, IO inputs — each range
//! tile-major) and holds occupancy, visit stamps and search predecessors in
//! flat vectors that every net of one [`implement_netlist`] call reuses; a
//! search enumerates a site's sinks from the geometry rather than from a
//! per-expansion list.
//!
//! Routing is deterministic: a breadth-first search starts from the net's
//! source and then from the wires the net already owns, **in the order it
//! claimed them**, and expands each site's sinks in crossbar column order.
//! With the seeded annealer of [`crate::place`], the configuration written
//! is a pure function of `(netlist, geometry, ctx, seed)`, which is what
//! lets a cold node re-route a checkpointed design to the same
//! [`Fabric::context_digest`].

use crate::array::{Dir, Fabric, FabricParams, Sink, Source, TileCoord};
use crate::netlist_ir::{LogicNetlist, Node, NodeId};
use crate::place::place_luts;
use crate::FabricError;
use std::collections::{HashMap, VecDeque};

/// A routing-resource node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RRNode {
    /// Output wire of `tile` toward `dir`, index `w` (terminates at the
    /// neighbour).
    Wire {
        /// Producing tile.
        tile: TileCoord,
        /// Direction of travel.
        dir: Dir,
        /// Channel index.
        w: usize,
    },
    /// LUT input pin.
    LutIn {
        /// Tile.
        tile: TileCoord,
        /// Pin.
        pin: usize,
    },
    /// LUT output.
    LutOut {
        /// Tile.
        tile: TileCoord,
    },
    /// External input port.
    IoIn {
        /// Tile.
        tile: TileCoord,
        /// Port.
        port: usize,
    },
    /// External output port.
    IoOut {
        /// Tile.
        tile: TileCoord,
        /// Port.
        port: usize,
    },
}

/// Dense numbering of every [`RRNode`] of one fabric geometry.
///
/// Ranges, each tile-major (row-major tile number `t`):
/// wires `[t][dir][w]` (`Dir::ALL` order, off-grid directions included but
/// never reached), LUT input pins `[t][pin]`, IO outputs `[t][port]` — the
/// sink-capable nodes — then LUT outputs `[t]` and IO inputs `[t][port]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RRIndex {
    width: usize,
    height: usize,
    cw: usize,
    k: usize,
    io_in: usize,
    io_out: usize,
}

impl RRIndex {
    fn of(p: &FabricParams) -> Self {
        RRIndex {
            width: p.width,
            height: p.height,
            cw: p.channel_width,
            k: p.lut_k,
            io_in: p.io_in,
            io_out: p.io_out,
        }
    }

    fn tiles(&self) -> usize {
        self.width * self.height
    }

    fn pin_base(&self) -> usize {
        self.tiles() * 4 * self.cw
    }

    fn io_out_base(&self) -> usize {
        self.pin_base() + self.tiles() * self.k
    }

    fn lut_out_base(&self) -> usize {
        self.io_out_base() + self.tiles() * self.io_out
    }

    fn io_in_base(&self) -> usize {
        self.lut_out_base() + self.tiles()
    }

    fn len(&self) -> usize {
        self.io_in_base() + self.tiles() * self.io_in
    }

    fn coord(&self, t: usize) -> TileCoord {
        TileCoord {
            x: t % self.width,
            y: t / self.width,
        }
    }

    /// The index of `n`, or `None` if it lies outside the geometry.
    fn index(&self, n: &RRNode) -> Option<usize> {
        let tile =
            |t: TileCoord| (t.x < self.width && t.y < self.height).then(|| t.y * self.width + t.x);
        let below = |i: usize, n: usize| (i < n).then_some(i);
        Some(match *n {
            RRNode::Wire { tile: t, dir, w } => {
                (tile(t)? * 4 + dir.index()) * self.cw + below(w, self.cw)?
            }
            RRNode::LutIn { tile: t, pin } => {
                self.pin_base() + tile(t)? * self.k + below(pin, self.k)?
            }
            RRNode::IoOut { tile: t, port } => {
                self.io_out_base() + tile(t)? * self.io_out + below(port, self.io_out)?
            }
            RRNode::LutOut { tile: t } => self.lut_out_base() + tile(t)?,
            RRNode::IoIn { tile: t, port } => {
                self.io_in_base() + tile(t)? * self.io_in + below(port, self.io_in)?
            }
        })
    }

    /// The neighbour of tile `t` toward `dir`, if on the grid.
    fn neighbor(&self, t: usize, dir: usize) -> Option<usize> {
        let (x, y) = (t % self.width, t / self.width);
        match dir {
            0 => (y > 0).then(|| t - self.width),
            1 => (x + 1 < self.width).then(|| t + 1),
            2 => (y + 1 < self.height).then(|| t + self.width),
            _ => (x > 0).then(|| t - 1),
        }
    }

    /// The tile at which node `i` can act as a crossbar **source**.
    fn source_site(&self, i: usize) -> Option<usize> {
        if i < self.pin_base() {
            self.neighbor(i / (4 * self.cw), i / self.cw % 4)
        } else if i < self.lut_out_base() {
            None
        } else if i < self.io_in_base() {
            Some(i - self.lut_out_base())
        } else {
            Some((i - self.io_in_base()) / self.io_in)
        }
    }

    /// The crossbar `Source` node `i` presents at its source site.
    fn as_source(&self, i: usize) -> Source {
        if i < self.pin_base() {
            Source::WireFrom {
                dir: Dir::ALL[i / self.cw % 4].opposite(),
                w: i % self.cw,
            }
        } else if i < self.io_in_base() {
            debug_assert!(i >= self.lut_out_base(), "sink nodes are not sources");
            Source::LutOut
        } else {
            Source::IoIn((i - self.io_in_base()) % self.io_in)
        }
    }

    /// The crossbar `Sink` a sink-capable node `i` occupies.
    fn as_sink(&self, i: usize) -> Sink {
        if i < self.pin_base() {
            Sink::WireTo {
                dir: Dir::ALL[i / self.cw % 4],
                w: i % self.cw,
            }
        } else if i < self.io_out_base() {
            Sink::LutIn((i - self.pin_base()) % self.k)
        } else {
            debug_assert!(i < self.lut_out_base(), "sources cannot be sinks");
            Sink::IoOut((i - self.io_out_base()) % self.io_out)
        }
    }

    /// The tile hosting sink-capable node `i` when it is a pin (a LUT
    /// input or IO output), else `None`.
    fn pin_site(&self, i: usize) -> Option<usize> {
        if i < self.pin_base() || i >= self.lut_out_base() {
            None
        } else if i < self.io_out_base() {
            Some((i - self.pin_base()) / self.k)
        } else {
            Some((i - self.io_out_base()) / self.io_out)
        }
    }
}

/// Not visited / no owner.
const NONE: usize = usize::MAX;

/// Per-context router: owns sink occupancy so nets cannot collide.
///
/// Every resource is a dense `RRIndex` number, and occupancy, visit
/// stamps and predecessors are flat vectors sized on the first route and
/// reused by every later one. The vectors are tied to that first fabric's
/// geometry; routing into a differently shaped fabric is an error.
#[derive(Debug, Default)]
pub struct Router {
    index: RRIndex,
    /// Owning net of each sink-capable resource (`None` = free).
    occupancy: Vec<Option<usize>>,
    /// Wires each net owns, in claim order: the start set of its next
    /// branch search, visited in this fixed order.
    owned: HashMap<usize, Vec<usize>>,
    /// `seen[i] == epoch` marks `i` visited by the current search.
    seen: Vec<u32>,
    epoch: u32,
    /// Search predecessor of each visited resource (`NONE` for a start).
    pred: Vec<usize>,
    queue: VecDeque<usize>,
    /// Source site of each resource (`NONE` for pins and off-grid wires).
    site: Vec<usize>,
    /// Per tile, bit `d` set when a neighbour lies toward `Dir::ALL[d]`.
    exits: Vec<u8>,
}

impl Router {
    /// Fresh router (empty context plane).
    #[must_use]
    pub fn new() -> Self {
        Router::default()
    }

    /// Owner of a resource, if claimed.
    #[must_use]
    pub fn owner(&self, n: &RRNode) -> Option<usize> {
        self.occupancy.get(self.index.index(n)?).copied().flatten()
    }

    /// Sizes the flat state for `fabric` on first use.
    fn bind(&mut self, fabric: &Fabric) -> Result<(), FabricError> {
        let index = RRIndex::of(fabric.params());
        if self.occupancy.is_empty() {
            let n = index.len();
            self.index = index;
            self.occupancy = vec![None; n];
            self.seen = vec![0; n];
            self.pred = vec![NONE; n];
            self.site = (0..n)
                .map(|i| index.source_site(i).unwrap_or(NONE))
                .collect();
            self.exits = (0..index.tiles())
                .map(|t| (0..4).fold(0, |m, d| m | u8::from(index.neighbor(t, d).is_some()) << d))
                .collect();
        } else if index != self.index {
            return Err(FabricError::BadParams(
                "router reused on a fabric of another geometry".into(),
            ));
        }
        Ok(())
    }

    /// Routes `net` from `source` to `target`, writing switch configuration
    /// into `fabric` for context `ctx`. Returns the number of new hops.
    ///
    /// Wires already owned by the same net are free branch points (fanout
    /// from one crossbar row to many columns). The breadth-first search
    /// starts from the source, then from the net's wires in claim order,
    /// and expands each site's sinks in crossbar column order, so the route
    /// found is a pure function of the calls made so far.
    pub fn route(
        &mut self,
        fabric: &mut Fabric,
        ctx: usize,
        net: usize,
        source: RRNode,
        target: RRNode,
    ) -> Result<usize, FabricError> {
        self.bind(fabric)?;
        let failed = || FabricError::RoutingFailed {
            net: format!("net {net} to {target:?}"),
            ctx,
        };
        let ix = self.index;
        let (Some(src), Some(dst)) = (ix.index(&source), ix.index(&target)) else {
            return Err(failed());
        };
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.queue.clear();
        // start set: the source plus every wire this net already owns
        let owned = self.owned.get(&net).map_or(&[][..], Vec::as_slice);
        for &i in std::iter::once(&src).chain(owned) {
            if self.seen[i] != epoch {
                self.seen[i] = epoch;
                self.pred[i] = NONE;
                self.queue.push_back(i);
            }
        }
        // a pin target follows its tile's wires in column order, so it is
        // reached by the first expansion at that tile that finds it free
        let dst_site = ix.pin_site(dst).unwrap_or(NONE);
        let taken = |owner: Option<usize>| matches!(owner, Some(o) if o != net);
        let mut found = false;
        'search: while let Some(cur) = self.queue.pop_front() {
            let site = self.site[cur];
            if site == NONE {
                continue;
            }
            if site == dst_site && self.seen[dst] != epoch && !taken(self.occupancy[dst]) {
                self.seen[dst] = epoch;
                self.pred[dst] = cur;
                found = true;
                break;
            }
            // only wires continue the search; pin sinks are terminal
            let exits = self.exits[site];
            for d in (0..4).filter(|d| exits >> d & 1 == 1) {
                let base = (site * 4 + d) * ix.cw;
                for cand in base..base + ix.cw {
                    if self.seen[cand] == epoch || taken(self.occupancy[cand]) {
                        continue;
                    }
                    self.seen[cand] = epoch;
                    self.pred[cand] = cur;
                    if cand == dst {
                        found = true;
                        break 'search;
                    }
                    self.queue.push_back(cand);
                }
            }
        }
        if !found {
            return Err(failed());
        }
        // walk back, writing configuration for hops not yet owned
        let mut hops = 0;
        let mut cur = dst;
        while self.pred[cur] != NONE {
            let prev = self.pred[cur];
            if self.occupancy[cur] != Some(net) {
                let site = self.site[prev];
                fabric.set_route(
                    ix.coord(site),
                    ctx,
                    ix.as_sink(cur),
                    Some(ix.as_source(prev)),
                )?;
                self.occupancy[cur] = Some(net);
                if cur < ix.pin_base() {
                    self.owned.entry(net).or_default().push(cur);
                }
                hops += 1;
            }
            if cur == src {
                break;
            }
            cur = prev;
        }
        Ok(hops)
    }
}

/// Expands a truth table over `f` fanins to a K-input LUT table (upper pins
/// don't-care).
#[must_use]
pub fn expand_table(table: u64, fanins: usize, k: usize) -> u64 {
    let rows = 1usize << k;
    let mask = (1usize << fanins) - 1;
    let mut out = 0u64;
    for row in 0..rows {
        if (table >> (row & mask)) & 1 == 1 {
            out |= 1 << row;
        }
    }
    out
}

/// Where each primary input/output of a mapped design landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMap {
    /// Signal name.
    pub name: String,
    /// Tile hosting the port.
    pub tile: TileCoord,
    /// Port index on the tile.
    pub port: usize,
}

/// Summary of one context's mapping.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// Context the design occupies.
    pub ctx: usize,
    /// LUT placement.
    pub placement: HashMap<NodeId, TileCoord>,
    /// Primary input ports.
    pub inputs: Vec<PortMap>,
    /// Primary output ports.
    pub outputs: Vec<PortMap>,
    /// Total routed hops (wirelength proxy).
    pub wirelength: usize,
}

/// Full flow: place `netlist`, route every net, program LUT planes and bind
/// IO — all within context `ctx` of `fabric`.
pub fn implement_netlist(
    fabric: &mut Fabric,
    netlist: &LogicNetlist,
    ctx: usize,
    seed: u64,
) -> Result<RoutedDesign, FabricError> {
    let params = *fabric.params();
    if ctx >= params.contexts {
        return Err(FabricError::ContextOutOfRange {
            ctx,
            contexts: params.contexts,
        });
    }
    let placement = place_luts(netlist, &params, seed)?;

    // ---- assign primary inputs to IoIn ports, round-robin over tiles ----
    let tiles: Vec<TileCoord> = fabric.tiles().collect();
    // ports used so far on each tile (row-major tile number)
    let mut in_ports_used = vec![0usize; tiles.len()];
    let mut input_sites: HashMap<NodeId, (TileCoord, usize)> = HashMap::new();
    let mut inputs = Vec::new();
    let mut tile_cursor = 0usize;
    for id in netlist.input_ids() {
        let Node::Input { name } = netlist.node(id) else {
            unreachable!()
        };
        // find next tile with a free input port
        let mut assigned = None;
        for _ in 0..tiles.len() {
            let i = tile_cursor % tiles.len();
            tile_cursor += 1;
            let (t, used) = (tiles[i], &mut in_ports_used[i]);
            if *used < params.io_in {
                assigned = Some((t, *used));
                *used += 1;
                break;
            }
        }
        let (t, port) = assigned.ok_or_else(|| {
            FabricError::PlacementFailed(format!("no free input port for {name}"))
        })?;
        fabric.bind_input(t, port, ctx, name)?;
        input_sites.insert(id, (t, port));
        inputs.push(PortMap {
            name: name.clone(),
            tile: t,
            port,
        });
    }

    // ---- program LUT planes ----
    for id in netlist.lut_ids() {
        let Node::Lut { fanin, table, .. } = netlist.node(id) else {
            unreachable!()
        };
        let t = placement[&id];
        let expanded = expand_table(*table, fanin.len(), params.lut_k);
        fabric.tile_mut(t)?.lut.program(ctx, expanded)?;
    }

    // ---- route nets: every LUT fanin pin, then primary outputs ----
    let mut router = Router::new();
    let mut wirelength = 0usize;
    let source_of = |id: NodeId| -> RRNode {
        match netlist.node(id) {
            Node::Input { .. } => {
                let (t, port) = input_sites[&id];
                RRNode::IoIn { tile: t, port }
            }
            Node::Lut { .. } => RRNode::LutOut {
                tile: placement[&id],
            },
        }
    };
    for id in netlist.lut_ids() {
        let Node::Lut { fanin, .. } = netlist.node(id) else {
            unreachable!()
        };
        let t = placement[&id];
        for (pin, f) in fanin.iter().enumerate() {
            wirelength += router.route(
                fabric,
                ctx,
                f.0,
                source_of(*f),
                RRNode::LutIn { tile: t, pin },
            )?;
        }
    }

    // ---- primary outputs: claim an IoOut near the driver ----
    let mut out_ports_used = vec![0usize; tiles.len()];
    let mut outputs = Vec::new();
    for (name, driver) in netlist.outputs() {
        let prefer = match netlist.node(*driver) {
            Node::Lut { .. } => placement[driver],
            Node::Input { .. } => input_sites[driver].0,
        };
        // scan tiles by manhattan distance from the driver for a free port
        let mut order: Vec<usize> = (0..tiles.len()).collect();
        order.sort_by_key(|&i| tiles[i].x.abs_diff(prefer.x) + tiles[i].y.abs_diff(prefer.y));
        let mut routed = false;
        for i in order {
            let (t, used) = (tiles[i], &mut out_ports_used[i]);
            if *used >= params.io_out {
                continue;
            }
            let target = RRNode::IoOut {
                tile: t,
                port: *used,
            };
            match router.route(fabric, ctx, driver.0, source_of(*driver), target) {
                Ok(h) => {
                    fabric.bind_output(t, *used, ctx, name)?;
                    outputs.push(PortMap {
                        name: name.clone(),
                        tile: t,
                        port: *used,
                    });
                    *used += 1;
                    wirelength += h;
                    routed = true;
                    break;
                }
                Err(FabricError::RoutingFailed { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        if !routed {
            return Err(FabricError::RoutingFailed {
                net: format!("output {name}"),
                ctx,
            });
        }
    }

    Ok(RoutedDesign {
        ctx,
        placement,
        inputs,
        outputs,
        wirelength,
    })
}

/// [`implement_netlist`] with placement-seed retries: maze routing on a
/// congested grid can fail for an unlucky placement; re-seeding the
/// annealer usually resolves it. Clears the context and retries up to
/// `attempts` times before giving up with the last routing error.
pub fn implement_netlist_robust(
    fabric: &mut Fabric,
    netlist: &LogicNetlist,
    ctx: usize,
    seed: u64,
    attempts: usize,
) -> Result<RoutedDesign, FabricError> {
    let mut last = None;
    for k in 0..attempts.max(1) {
        match implement_netlist(fabric, netlist, ctx, seed.wrapping_add(k as u64 * 0x9E37)) {
            Ok(d) => return Ok(d),
            Err(e @ (FabricError::RoutingFailed { .. } | FabricError::PlacementFailed(_))) => {
                fabric.clear_context(ctx)?;
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FabricParams;
    use crate::netlist_ir::generators;

    fn fabric(w: usize, h: usize) -> Fabric {
        Fabric::new(FabricParams {
            width: w,
            height: h,
            channel_width: 2,
            ..FabricParams::default()
        })
        .unwrap()
    }

    #[test]
    fn expand_table_examples() {
        // xor over 2 fanins into a 4-LUT: repeats every 4 rows
        let e = expand_table(0b0110, 2, 4);
        for row in 0..16usize {
            assert_eq!((e >> row) & 1, ((0b0110 >> (row & 3)) & 1) as u64);
        }
    }

    #[test]
    fn route_single_hop() {
        let mut f = fabric(2, 1);
        let mut r = Router::new();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        let hops = r
            .route(
                &mut f,
                0,
                7,
                RRNode::LutOut { tile: a },
                RRNode::LutIn { tile: b, pin: 0 },
            )
            .unwrap();
        // lutout(a) -> wire(a,E) -> lutin(b): 2 configured sinks
        assert_eq!(hops, 2);
        // config written: wire East of a driven by LutOut
        assert_eq!(
            f.route_of(
                a,
                0,
                Sink::WireTo {
                    dir: Dir::East,
                    w: 0
                }
            )
            .unwrap(),
            Some(Source::LutOut)
        );
    }

    #[test]
    fn fanout_reuses_wires() {
        let mut f = fabric(3, 1);
        let mut r = Router::new();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        let c = TileCoord { x: 2, y: 0 };
        let src = RRNode::LutOut { tile: a };
        let h1 = r
            .route(&mut f, 0, 1, src, RRNode::LutIn { tile: c, pin: 0 })
            .unwrap();
        // branch to b: reuse the a→b wire, just one extra sink hop
        let h2 = r
            .route(&mut f, 0, 1, src, RRNode::LutIn { tile: b, pin: 1 })
            .unwrap();
        assert!(h2 < h1, "branch ({h2}) cheaper than trunk ({h1})");
        assert_eq!(h2, 1);
    }

    #[test]
    fn occupancy_blocks_other_nets() {
        let mut f = Fabric::new(FabricParams {
            width: 2,
            height: 1,
            channel_width: 1,
            ..FabricParams::default()
        })
        .unwrap();
        let mut r = Router::new();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        r.route(
            &mut f,
            0,
            1,
            RRNode::LutOut { tile: a },
            RRNode::LutIn { tile: b, pin: 0 },
        )
        .unwrap();
        // second net from a's IoIn must fail east: only 1 wire and it's taken
        let err = r.route(
            &mut f,
            0,
            2,
            RRNode::IoIn { tile: a, port: 0 },
            RRNode::LutIn { tile: b, pin: 1 },
        );
        assert!(matches!(err, Err(FabricError::RoutingFailed { .. })));
    }

    #[test]
    fn implement_wire_lanes() {
        let nl = generators::wire_lanes(3).unwrap();
        let mut f = fabric(3, 3);
        let d = implement_netlist(&mut f, &nl, 0, 42).unwrap();
        assert_eq!(d.inputs.len(), 3);
        assert_eq!(d.outputs.len(), 3);
        assert!(d.wirelength > 0);
    }

    #[test]
    fn implement_parity_tree() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = fabric(3, 3);
        let d = implement_netlist(&mut f, &nl, 2, 7).unwrap();
        assert_eq!(d.ctx, 2);
        assert_eq!(d.placement.len(), 3, "three XOR luts");
    }

    #[test]
    fn robust_implement_retries_to_success() {
        // a tight grid where some placements fail to route: the robust
        // variant must find a working seed
        let nl = generators::ripple_adder(3).unwrap(); // 6 LUTs
        let mut f = Fabric::new(FabricParams {
            width: 3,
            height: 3,
            channel_width: 2,
            ..FabricParams::default()
        })
        .unwrap();
        let d = implement_netlist_robust(&mut f, &nl, 0, 0, 16).unwrap();
        assert_eq!(d.placement.len(), 6);
    }

    #[test]
    fn robust_implement_propagates_hard_errors() {
        let nl = generators::ripple_adder(8).unwrap(); // 16 LUTs > 4 tiles
        let mut f = fabric(2, 2);
        assert!(matches!(
            implement_netlist_robust(&mut f, &nl, 0, 0, 3),
            Err(FabricError::PlacementFailed(_))
        ));
    }
}
