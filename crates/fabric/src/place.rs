//! Simulated-annealing placement of LUT nodes onto fabric tiles.
//!
//! Cost = total half-perimeter wirelength over nets (each LUT's fanin edges,
//! with primary inputs ignored since their sites are chosen later). One LUT
//! per tile per context.
//!
//! The annealer works on dense indices. LUT `i` is the `i`-th id of
//! [`LogicNetlist::lut_ids`]; its tile is `pos[i]`, and `occupant[tile]`
//! (row-major tile number) names the LUT on a tile, if any. A move draws a
//! LUT and a tile, swaps the LUT onto the tile (and the tile's occupant onto
//! the vacated one), and sums its cost delta over the edges incident to the
//! one or two LUTs that moved; a swapped pair's shared edges keep their
//! length. Placement is a pure function of `(netlist, params, seed)`: the
//! RNG draws, their order and the Metropolis test
//! `delta <= 0 || u < exp(-delta / temp)` are fixed, so one seed names one
//! placement on every run and host.

use crate::array::{FabricParams, TileCoord};
use crate::netlist_ir::{LogicNetlist, Node, NodeId};
use crate::FabricError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// No LUT: a primary input in the dense map, a free tile in `occupant`.
const NONE: usize = usize::MAX;

fn manhattan(a: TileCoord, b: TileCoord) -> usize {
    a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
}

/// Places every LUT node of `netlist` on a distinct tile.
pub fn place_luts(
    netlist: &LogicNetlist,
    params: &FabricParams,
    seed: u64,
) -> Result<HashMap<NodeId, TileCoord>, FabricError> {
    let luts = netlist.lut_ids();
    let capacity = params.width * params.height;
    if luts.len() > capacity {
        return Err(FabricError::PlacementFailed(format!(
            "{} LUTs > {capacity} tiles",
            luts.len()
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // initial: random assignment over shuffled tiles
    let mut tiles: Vec<TileCoord> = (0..capacity)
        .map(|i| TileCoord {
            x: i % params.width,
            y: i / params.width,
        })
        .collect();
    tiles.shuffle(&mut rng);
    let mut pos: Vec<TileCoord> = tiles[..luts.len()].to_vec();
    let placement = |pos: &[TileCoord]| luts.iter().copied().zip(pos.iter().copied()).collect();

    if luts.len() <= 1 {
        return Ok(placement(&pos));
    }

    // dense LUT number of every node
    let mut dense = vec![NONE; netlist.nodes().len()];
    for (i, id) in luts.iter().enumerate() {
        dense[id.0] = i;
    }
    // edges between placeable nodes and, per LUT, the other end of each of
    // its edges
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); luts.len()];
    for (i, id) in luts.iter().enumerate() {
        if let Node::Lut { fanin, .. } = netlist.node(*id) {
            for f in fanin {
                let j = dense[f.0];
                if j != NONE {
                    edges.push((j, i));
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
    }
    let cost = |pos: &[TileCoord]| -> usize {
        edges.iter().map(|&(a, b)| manhattan(pos[a], pos[b])).sum()
    };
    // length of the edges at `a`, less those to `skip`
    let incident = |pos: &[TileCoord], a: usize, skip: usize| -> usize {
        adj[a]
            .iter()
            .filter(|&&n| n != skip)
            .map(|&n| manhattan(pos[a], pos[n]))
            .sum()
    };
    // cost of the edges touching `a` or `b` (an `a`–`b` edge is skipped:
    // swapping the pair keeps its length)
    let moved = |pos: &[TileCoord], a: usize, b: usize| -> usize {
        incident(pos, a, b) + if b == NONE { 0 } else { incident(pos, b, a) }
    };
    let tile_of = |t: TileCoord| t.y * params.width + t.x;
    let mut occupant = vec![NONE; capacity];
    for (i, t) in pos.iter().enumerate() {
        occupant[tile_of(*t)] = i;
    }

    let mut cur_cost = cost(&pos);
    let mut temp = 2.0 * (cur_cost.max(1) as f64) / edges.len().max(1) as f64;
    let moves_per_temp = 16 * luts.len();
    while temp > 0.01 {
        for _ in 0..moves_per_temp {
            // swap a LUT with another LUT's tile or a free tile
            let a = rng.random_range(0..luts.len());
            let target_tile = tiles[rng.random_range(0..tiles.len())];
            let b = occupant[tile_of(target_tile)];
            if b == a {
                continue;
            }
            let old_a = pos[a];
            let before = moved(&pos, a, b);
            pos[a] = target_tile;
            if b != NONE {
                pos[b] = old_a;
            }
            let new_cost = cur_cost - before + moved(&pos, a, b);
            let delta = new_cost as f64 - cur_cost as f64;
            let accept = delta <= 0.0 || rng.random_range(0.0..1.0) < (-delta / temp).exp();
            if accept {
                cur_cost = new_cost;
                occupant[tile_of(target_tile)] = a;
                occupant[tile_of(old_a)] = b;
            } else {
                pos[a] = old_a;
                if b != NONE {
                    pos[b] = target_tile;
                }
            }
        }
        debug_assert_eq!(cur_cost, cost(&pos), "incremental cost drifted");
        temp *= 0.8;
    }
    Ok(placement(&pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist_ir::generators;

    fn params(w: usize, h: usize) -> FabricParams {
        FabricParams {
            width: w,
            height: h,
            ..FabricParams::default()
        }
    }

    #[test]
    fn placement_is_injective() {
        let nl = generators::ripple_adder(4).unwrap();
        let p = params(4, 4);
        let pos = place_luts(&nl, &p, 3).unwrap();
        assert_eq!(pos.len(), nl.lut_count());
        let mut seen: Vec<TileCoord> = pos.values().copied().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), pos.len(), "one LUT per tile");
    }

    #[test]
    fn too_many_luts_fails() {
        let nl = generators::ripple_adder(8).unwrap(); // 16 LUTs
        let p = params(2, 2);
        assert!(matches!(
            place_luts(&nl, &p, 0),
            Err(FabricError::PlacementFailed(_))
        ));
    }

    #[test]
    fn annealing_beats_random_on_chains() {
        // long carry chain: SA should pull connected LUTs together
        let nl = generators::ripple_adder(6).unwrap();
        let p = params(6, 6);
        let pos = place_luts(&nl, &p, 11).unwrap();
        // recompute cost
        let mut cost = 0usize;
        for id in nl.lut_ids() {
            if let crate::netlist_ir::Node::Lut { fanin, .. } = nl.node(id) {
                for f in fanin {
                    if matches!(nl.node(*f), crate::netlist_ir::Node::Lut { .. }) {
                        let (a, b) = (pos[f], pos[&id]);
                        cost += a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
                    }
                }
            }
        }
        // 11 edges on a 6x6 grid: random placement averages ~4 per edge (44);
        // annealed should be far tighter.
        assert!(cost <= 30, "cost {cost}");
    }

    #[test]
    fn single_lut_trivial() {
        let nl = generators::wire_lanes(1).unwrap();
        let pos = place_luts(&nl, &params(2, 2), 5).unwrap();
        assert_eq!(pos.len(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let nl = generators::parity_tree(8).unwrap();
        let p = params(4, 4);
        assert_eq!(
            place_luts(&nl, &p, 9).unwrap(),
            place_luts(&nl, &p, 9).unwrap()
        );
    }
}
