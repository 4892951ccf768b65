//! Compile-once / evaluate-many fabric engine.
//!
//! The reference simulator ([`crate::sim::evaluate_fixpoint`]) re-discovers
//! the routed structure of a context on every call: it sweeps every tile,
//! hashes `(TileCoord, Dir, usize)` keys, and repeats until a fixpoint —
//! fine for one vector, hopeless for workload-scale simulation. This module
//! does the discovery **once**:
//!
//! 1. **Flatten** — every routing resource (channel wire, LUT output,
//!    IO port) gets a dense `u32` id in one arena ([`ResourceLayout`]), so
//!    evaluation indexes flat arrays instead of hash maps.
//! 2. **Levelize** — each context's configured switch-block routes and LUT
//!    pins become a list of [`Op`]s, topologically sorted at compile time.
//!    An acyclic plane evaluates in a single pass; a genuinely cyclic
//!    configuration falls back to a bounded monotone sweep over the same op
//!    list (identical semantics to the reference simulator).
//! 3. **Bit-parallelize** — values are [`LaneChunk`]s of [`LANE_WORDS`]
//!    contiguous `u64` lane words: one evaluation pass pushes up to
//!    **[`MAX_LANES`] input vectors** through the fabric, with LUTs
//!    evaluated by lane-wise mux reduction of their truth tables. Sparse
//!    batches evaluate only the occupied words
//!    ([`LaneBatch::words`]), so a ≤64-lane pass costs what the old
//!    single-word engine did.
//!
//! Evaluation has one public surface: [`CompiledFabric::bind`] resolves a
//! context's IO names to a [`BoundPlan`] once, and
//! [`CompiledFabric::eval_bound_into`] then runs the plane on input chunks
//! passed **by position** (bind order), writing outputs in the same order.
//! Name-keyed callers — [`crate::sim::evaluate`],
//! [`crate::context::run_schedule`], [`crate::temporal`] — translate names
//! to positions with [`BoundPlan::resolve_inputs`], the one place that
//! happens. [`CompiledFabric::eval_bound_reference`] runs the same bound
//! plan through the branchy interpreter as the equivalence oracle.
//! Independent single-vector requests are coalesced into one pass with
//! [`LaneBatch`].
//!
//! ```
//! use mcfpga_fabric::compiled::{pack_chunk, CompiledFabric, DIRTY_ALL};
//! use mcfpga_fabric::netlist_ir::generators;
//! use mcfpga_fabric::route::implement_netlist;
//! use mcfpga_fabric::{Fabric, FabricParams};
//!
//! // Route a 3-input parity tree into context 0 and compile it once.
//! let mut fabric = Fabric::new(FabricParams::default())?;
//! implement_netlist(&mut fabric, &generators::parity_tree(3)?, 0, 7)?;
//! let compiled = CompiledFabric::compile(&fabric)?;
//! let bound = compiled.bind(0)?;
//!
//! // Evaluate all 8 input vectors in a single bit-parallel pass:
//! // lane `v` of input `xi` carries bit `i` of vector `v`.
//! let chunks = bound.resolve_inputs(|name| {
//!     let i: usize = name.strip_prefix('x')?.parse().ok()?;
//!     Some(pack_chunk(|v| v < 8 && (v >> i) & 1 == 1))
//! })?;
//! let (mut st, mut outs) = (compiled.new_state(), Vec::new());
//! compiled.eval_bound_into(&bound, &chunks, 1, DIRTY_ALL, &mut st, &mut outs)?;
//! for v in 0..8u32 {
//!     assert_eq!((outs[0][0] >> v) & 1 == 1, v.count_ones() % 2 == 1);
//! }
//! # Ok::<(), mcfpga_fabric::FabricError>(())
//! ```

use crate::array::{Dir, Fabric, FabricParams, Sink, Source, TileCoord};
use crate::lut::MultiContextLut;
use crate::FabricError;
use std::sync::Arc;

/// Lanes per `u64` word — the legacy single-word batch width, kept as the
/// default [`LaneBatch::new`] width so single-word callers are unaffected.
pub const LANES: usize = 64;

/// Prefix of signal names that are *stream registers*: values carried
/// across context-switch boundaries ([`crate::temporal`]) and between a
/// service tenant's passes, rather than returned as primary outputs. The
/// one naming convention shared by the temporal partitioner, the compiled
/// engine's [`BoundPlan`] and the service's register harvesting.
pub const REG_PREFIX: &str = "reg:";

/// Dirty mask treating every bound input as changed — the full-sweep
/// sentinel for [`CompiledFabric::eval_bound_into`].
pub const DIRTY_ALL: u64 = u64::MAX;

/// `u64` words per [`LaneChunk`].
pub const LANE_WORDS: usize = 4;

/// Widest supported batch: [`LANE_WORDS`] × 64 lanes per evaluation pass.
pub const MAX_LANES: usize = LANE_WORDS * 64;

/// The chunked lane value of one signal: [`LANE_WORDS`] contiguous `u64`
/// words, lane `l` living at bit `l % 64` of word `l / 64`. Word 0 alone is
/// the legacy 64-lane representation, which is why every single-word API
/// reads/writes `chunk[0]` and zeroes the rest.
pub type LaneChunk = [u64; LANE_WORDS];

/// Reads lane `l` of a chunk — the canonical inverse of [`pack_chunk`].
#[must_use]
pub fn chunk_bit(chunk: &LaneChunk, lane: usize) -> bool {
    (chunk[lane / 64] >> (lane % 64)) & 1 == 1
}

/// Packs per-lane booleans into a chunk: lane `l` of the result is
/// `bit(l)`, for all [`MAX_LANES`] lanes.
#[must_use]
pub fn pack_chunk(mut bit: impl FnMut(usize) -> bool) -> LaneChunk {
    let mut chunk = [0u64; LANE_WORDS];
    for l in 0..MAX_LANES {
        chunk[l / 64] |= u64::from(bit(l)) << (l % 64);
    }
    chunk
}

/// Widens a legacy single lane word to a chunk (word 0 = `word`).
#[must_use]
pub fn chunk_of_word(word: u64) -> LaneChunk {
    let mut chunk = [0u64; LANE_WORDS];
    chunk[0] = word;
    chunk
}

/// Packs per-lane booleans into one lane word: bit `l` of the result is
/// `bit(l)`. This is the canonical lane packing of the engine — the inverse
/// of reading `(word >> l) & 1` — shared by tests, examples and benches so
/// lane semantics live in exactly one place.
#[must_use]
pub fn pack_lanes(mut bit: impl FnMut(usize) -> bool) -> u64 {
    (0..LANES).fold(0u64, |acc, l| acc | (u64::from(bit(l)) << l))
}

/// Dense id of one routing resource in the arena.
pub type ResourceId = u32;

/// Coalesces independent single-vector requests into the lane chunks one
/// [`CompiledFabric::eval_bound_into`] pass consumes.
///
/// Each pushed request occupies one lane; the batch keeps the union of all
/// named inputs, with lane `l` of a name's [`LaneChunk`] holding request
/// `l`'s value (a request that omits a name contributes 0 in its lane).
/// After the pass, [`chunk_bit`] reads one request's outputs back out of
/// lane `l`. The capacity is the batch's **width**: [`LANES`] (one
/// word) for [`LaneBatch::new`], up to [`MAX_LANES`] via
/// [`LaneBatch::with_width`].
///
/// ```
/// use mcfpga_fabric::compiled::{chunk_bit, LaneBatch};
///
/// let mut batch = LaneBatch::new();
/// let lane_a = batch.push(&[("x", true), ("y", false)]).unwrap();
/// let lane_b = batch.push(&[("x", false), ("y", true)]).unwrap();
/// assert_eq!((lane_a, lane_b), (0, 1));
/// assert_eq!(batch.len(), 2);
/// assert!(!batch.is_full());
///
/// let inputs = batch.lane_inputs();
/// let x = inputs.iter().find(|(n, _)| *n == "x").unwrap().1;
/// assert_eq!(x[0] & 0b11, 0b01); // lane 0 true, lane 1 false
///
/// // outputs of an eval pass demux the same way
/// let z = [0b10u64, 0, 0, 0];
/// assert!(!chunk_bit(&z, lane_a) && chunk_bit(&z, lane_b));
/// ```
#[derive(Debug, Clone)]
pub struct LaneBatch {
    width: usize,
    lanes: usize,
    inputs: Vec<(String, LaneChunk)>,
    /// Resolved input indices of the request being pushed; reused across
    /// [`LaneBatch::push_covering`] calls so the hot path allocates nothing.
    idx_scratch: Vec<u32>,
}

impl Default for LaneBatch {
    fn default() -> Self {
        LaneBatch::new()
    }
}

/// Why [`LaneBatch::push_covering`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// All of the batch's [`LaneBatch::width`] lanes are occupied.
    Full,
    /// The request did not drive the canonical input at this index (see
    /// [`LaneBatch::ensure_name`]); [`LaneBatch::input_name`] maps it back
    /// to the signal name. The batch is unchanged.
    MissingInput(usize),
}

impl LaneBatch {
    /// An empty batch at the legacy single-word width ([`LANES`]).
    #[must_use]
    pub fn new() -> Self {
        LaneBatch::with_width(LANES).expect("LANES is a valid width")
    }

    /// An empty batch holding up to `width` lanes, `1..=MAX_LANES`.
    pub fn with_width(width: usize) -> Result<Self, FabricError> {
        if width == 0 || width > MAX_LANES {
            return Err(FabricError::BadParams(format!(
                "batch width {width} outside 1..={MAX_LANES}"
            )));
        }
        Ok(LaneBatch {
            width,
            lanes: 0,
            inputs: Vec::new(),
            idx_scratch: Vec::new(),
        })
    }

    /// Lane capacity of this batch.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of `u64` words an evaluation pass must process to cover the
    /// occupied lanes — the sparse-traffic optimization: a ≤64-lane batch
    /// evaluates one word no matter how wide the batch is.
    #[must_use]
    pub fn words(&self) -> usize {
        self.lanes.div_ceil(64).max(1)
    }

    /// Number of occupied lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes
    }

    /// Is the batch empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Are all [`width`](Self::width) lanes occupied?
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.lanes == self.width
    }

    /// Adds one single-vector request, returning the lane it occupies, or
    /// `None` when the batch is already full.
    pub fn push(&mut self, request: &[(&str, bool)]) -> Option<usize> {
        self.push_covering(request, 0).ok()
    }

    /// [`push`](Self::push) that additionally verifies the request drives
    /// every one of the batch's first `required` input names (the canonical
    /// prefix an executor seeds with [`ensure_name`](Self::ensure_name)) —
    /// in the *same* single name-resolution scan, so the coverage check
    /// costs no extra string comparisons. On refusal the batch's lane
    /// contents are unchanged.
    ///
    /// This is the check a batch executor needs: evaluation consumes the
    /// *union* of all lanes' names, so a lane that omitted a name another
    /// lane drives would otherwise silently read 0.
    ///
    /// Requests from one submitter present names in a stable order, so the
    /// positional probe hits on every push after the first and the linear
    /// rescan is cold.
    pub fn push_covering(
        &mut self,
        request: &[(&str, bool)],
        required: usize,
    ) -> Result<usize, PushRefusal> {
        if self.is_full() {
            return Err(PushRefusal::Full);
        }
        // pass 1: resolve names to indices (the only string comparisons),
        // accumulating coverage of the canonical prefix as a bitmask
        let mut idx_scratch = std::mem::take(&mut self.idx_scratch);
        idx_scratch.clear();
        let mut covered = 0u64;
        for (i, (name, _)) in request.iter().enumerate() {
            let idx = match self.inputs.get(i) {
                Some((n, _)) if n == name => i,
                _ => match self.inputs.iter().position(|(n, _)| n == name) {
                    Some(j) => j,
                    None => {
                        // appending with a zero chunk is harmless even if the
                        // coverage check below refuses the request
                        self.inputs.push(((*name).to_string(), [0u64; LANE_WORDS]));
                        self.inputs.len() - 1
                    }
                },
            };
            if idx < required.min(64) {
                covered |= 1 << idx;
            }
            idx_scratch.push(idx as u32);
        }
        let refusal = self.first_uncovered(required, covered, request);
        if let Some(missing) = refusal {
            self.idx_scratch = idx_scratch;
            return Err(PushRefusal::MissingInput(missing));
        }
        // pass 2: commit the lane by index — no further name lookups
        let lane = self.lanes;
        for (&idx, (_, value)) in idx_scratch.iter().zip(request) {
            self.inputs[idx as usize].1[lane / 64] |= u64::from(*value) << (lane % 64);
        }
        self.lanes += 1;
        self.idx_scratch = idx_scratch;
        Ok(lane)
    }

    /// First canonical-prefix index the request left undriven, if any.
    /// Prefix indices past 64 exceed the coverage bitmask and fall back to
    /// a name search (bound-input counts that large do not occur on real
    /// geometries).
    fn first_uncovered(
        &self,
        required: usize,
        covered: u64,
        request: &[(&str, bool)],
    ) -> Option<usize> {
        let in_mask = required.min(64);
        let need = if in_mask == 64 {
            u64::MAX
        } else {
            (1u64 << in_mask) - 1
        };
        if covered & need != need {
            return Some((!covered & need).trailing_zeros() as usize);
        }
        for idx in 64..required {
            let name = &self.inputs[idx].0;
            if !request.iter().any(|(n, _)| n == name) {
                return Some(idx);
            }
        }
        None
    }

    /// Rebuilds a batch from its serialized parts: the target width, the
    /// occupied-lane count and the union lane chunks, in union order — the
    /// inverse of reading [`len`](Self::len) and
    /// [`lane_inputs`](Self::lane_inputs). The checkpoint/restore path uses
    /// this to reinstall pending requests exactly as they were queued (same
    /// names, same lane bits), so a restored batch evaluates bit-for-bit
    /// like the original.
    pub fn from_parts(
        width: usize,
        lanes: usize,
        inputs: Vec<(String, LaneChunk)>,
    ) -> Result<Self, FabricError> {
        let mut batch = LaneBatch::with_width(width)?;
        if lanes > width {
            return Err(FabricError::BadParams(format!(
                "{lanes} lanes exceed the {width}-lane batch width"
            )));
        }
        // bits above the occupied lanes must be clear: push_covering ORs
        // new values in assuming them zero, so a stray high bit would leak
        // into a later request's lane as a silently wrong input
        for (name, chunk) in &inputs {
            for (w, word) in chunk.iter().enumerate() {
                let occupied_here = lanes.saturating_sub(w * 64).min(64);
                let unoccupied = if occupied_here == 64 {
                    0
                } else {
                    !0u64 << occupied_here
                };
                if word & unoccupied != 0 {
                    return Err(FabricError::BadParams(format!(
                        "input '{name}' has lane bits set beyond the {lanes} occupied lanes"
                    )));
                }
            }
        }
        batch.lanes = lanes;
        batch.inputs = inputs;
        Ok(batch)
    }

    /// Union index of `name`, if present.
    #[must_use]
    pub fn name_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|(n, _)| n == name)
    }

    /// Appends `name` to the input union with an all-zero word when absent.
    /// Executors call this at admission, in bound-input order, to seed the
    /// canonical prefix [`push_covering`](Self::push_covering) checks
    /// coverage against.
    pub fn ensure_name(&mut self, name: &str) {
        if !self.inputs.iter().any(|(n, _)| n == name) {
            self.inputs.push((name.to_string(), [0u64; LANE_WORDS]));
        }
    }

    /// The input name at union index `idx`, if any.
    #[must_use]
    pub fn input_name(&self, idx: usize) -> Option<&str> {
        self.inputs.get(idx).map(|(n, _)| n.as_str())
    }

    /// The union lane chunk at index `idx` (zeros when out of range) —
    /// the indexed companion to [`name_index`](Self::name_index), letting
    /// executors that resolved names once read chunks without further
    /// string comparisons.
    #[must_use]
    pub fn input_chunk(&self, idx: usize) -> LaneChunk {
        self.inputs.get(idx).map_or([0u64; LANE_WORDS], |(_, c)| *c)
    }

    /// Number of distinct input names in the union.
    #[must_use]
    pub fn name_count(&self) -> usize {
        self.inputs.len()
    }

    /// Drops union names past the first `keep` from an **empty** batch —
    /// executors trim request-added names (unbound extras) back to the
    /// canonical prefix when recycling, so the union cannot grow without
    /// bound across a service's lifetime. No-op on a non-empty batch
    /// (trimming would drop live lane values).
    pub fn truncate_names(&mut self, keep: usize) {
        if self.is_empty() {
            self.inputs.truncate(keep);
        }
    }

    /// The union lane chunks, in union order; [`BoundPlan::resolve_inputs`]
    /// puts them in a plan's bind order.
    #[must_use]
    pub fn lane_inputs(&self) -> Vec<(&str, LaneChunk)> {
        self.inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect()
    }

    /// Empties the batch for reuse, keeping the input-name capacity.
    pub fn clear(&mut self) {
        self.lanes = 0;
        for (_, chunk) in &mut self.inputs {
            *chunk = [0u64; LANE_WORDS];
        }
    }
}

/// Maps `(tile, resource)` coordinates onto the dense arena.
///
/// Per tile the arena holds, in order: `4 × channel_width` outgoing wires
/// (all four directions are allocated even on edges — dead slots cost one
/// unused array cell each and keep the addressing branch-free), the LUT
/// output, `io_in` input ports and `io_out` output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLayout {
    width: usize,
    height: usize,
    channel_width: usize,
    io_in: usize,
    io_out: usize,
    per_tile: usize,
}

impl ResourceLayout {
    fn new(p: &FabricParams) -> Self {
        ResourceLayout {
            width: p.width,
            height: p.height,
            channel_width: p.channel_width,
            io_in: p.io_in,
            io_out: p.io_out,
            per_tile: 4 * p.channel_width + 1 + p.io_in + p.io_out,
        }
    }

    fn tile_base(&self, t: TileCoord) -> usize {
        (t.y * self.width + t.x) * self.per_tile
    }

    /// Id of the outgoing wire `(t, dir, w)`.
    #[must_use]
    pub fn wire(&self, t: TileCoord, dir: Dir, w: usize) -> ResourceId {
        (self.tile_base(t) + dir.index() * self.channel_width + w) as ResourceId
    }

    /// Id of the LUT output of `t`.
    #[must_use]
    pub fn lut_out(&self, t: TileCoord) -> ResourceId {
        (self.tile_base(t) + 4 * self.channel_width) as ResourceId
    }

    /// Id of external input port `p` of `t`.
    #[must_use]
    pub fn io_in(&self, t: TileCoord, p: usize) -> ResourceId {
        (self.tile_base(t) + 4 * self.channel_width + 1 + p) as ResourceId
    }

    /// Id of external output port `p` of `t`.
    #[must_use]
    pub fn io_out(&self, t: TileCoord, p: usize) -> ResourceId {
        (self.tile_base(t) + 4 * self.channel_width + 1 + self.io_in + p) as ResourceId
    }

    /// Total arena size.
    #[must_use]
    pub fn total(&self) -> usize {
        self.width * self.height * self.per_tile
    }

    /// Remaps a resource id from this arena into `dst`'s arena, keeping
    /// the tile coordinate and intra-tile offset. Both layouts must share
    /// `per_tile` (same channel width, IO counts) and `dst` must be at
    /// least as wide and tall as `self`.
    fn remap_into(&self, dst: &ResourceLayout, id: ResourceId) -> ResourceId {
        debug_assert_eq!(self.per_tile, dst.per_tile);
        let tile = id as usize / self.per_tile;
        let offset = id as usize % self.per_tile;
        let x = tile % self.width;
        let y = tile / self.width;
        debug_assert!(x < dst.width && y < dst.height);
        (((y * dst.width + x) * dst.per_tile) + offset) as ResourceId
    }
}

/// One evaluation step of a compiled plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Drive `dst` from `src` (a configured switch-block cross-point
    /// feeding a channel wire or IO output).
    Copy {
        /// Source resource.
        src: ResourceId,
        /// Destination resource.
        dst: ResourceId,
    },
    /// Evaluate one tile's LUT plane into its output resource.
    Lut {
        /// Per-pin source resources; `None` = pin unconfigured (reads 0).
        pins: [Option<ResourceId>; MultiContextLut::MAX_K],
        /// Number of LUT inputs (`k` of the fabric).
        k: u8,
        /// Truth table of this context's plane.
        table: u64,
        /// The LUT-output resource.
        dst: ResourceId,
    },
}

impl Op {
    fn dst(&self) -> ResourceId {
        match *self {
            Op::Copy { dst, .. } | Op::Lut { dst, .. } => dst,
        }
    }

    fn for_each_src(&self, mut f: impl FnMut(ResourceId)) {
        match self {
            Op::Copy { src, .. } => f(*src),
            Op::Lut { pins, k, .. } => {
                for pin in pins.iter().take(*k as usize).flatten() {
                    f(*pin);
                }
            }
        }
    }
}

/// One context's compiled configuration plane.
#[derive(Debug, Clone)]
pub struct CompiledPlane {
    /// Ops in topological order (acyclic planes) or deterministic tile
    /// order (cyclic fallback).
    ops: Vec<Op>,
    /// True when the configured routing contains a combinational cycle and
    /// evaluation must sweep to a fixpoint instead of a single pass.
    cyclic: bool,
    /// Depth of the levelized DAG (longest op chain; 0 for empty planes
    /// and for cyclic fallbacks).
    levels: usize,
    /// `(io_in resource, signal name)` for this context's bound inputs.
    inputs: Vec<(ResourceId, String)>,
    /// `(io_out resource, signal name)` for this context's bound outputs.
    outputs: Vec<(ResourceId, String)>,
    /// Branch-free straight-line program for the steady-state path; `None`
    /// for cyclic planes and planes with an unreachable bound output
    /// (which must fault through the interpreter's unknown propagation).
    kernel: Option<PlaneKernel>,
}

impl CompiledPlane {
    /// Compiled ops, in evaluation order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Does this plane need the cyclic fallback sweep?
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Longest producer→consumer chain after levelization.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Input bindings `(resource, name)`.
    #[must_use]
    pub fn input_binds(&self) -> &[(ResourceId, String)] {
        &self.inputs
    }

    /// Output bindings `(resource, name)`.
    #[must_use]
    pub fn output_binds(&self) -> &[(ResourceId, String)] {
        &self.outputs
    }

    /// Does this plane carry a straight-line kernel (acyclic, every bound
    /// output reachable from the bound inputs)?
    #[must_use]
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }
}

/// One step of a [`PlaneKernel`]'s straight-line program. Unlike [`Op`],
/// every pin is a pre-resolved arena index — unconfigured pins point at
/// the arena's always-zero sentinel cell — so execution needs no `Option`
/// dispatch and no `known`-bitmap branching.
#[derive(Debug, Clone)]
enum KernelOp {
    /// `values[dst] = values[src]`, one word at a time.
    Copy { src: u32, dst: u32 },
    /// `values[dst] = lut(tables[table], pins…)`, one word at a time.
    Lut {
        pins: [u32; MultiContextLut::MAX_K],
        k: u8,
        /// Index into [`PlaneKernel::tables`].
        table: u32,
        dst: u32,
    },
}

impl KernelOp {
    fn dst(&self) -> u32 {
        match *self {
            KernelOp::Copy { dst, .. } | KernelOp::Lut { dst, .. } => dst,
        }
    }
}

/// The compiled straight-line program of one acyclic plane: ops already
/// filtered down to the subset reachable from the bound inputs (exactly
/// the ops the branchy interpreter would ever run), in topological order,
/// with truth tables flattened into one contiguous arena and a per-op
/// *input cone* mask for dirty-cone skipping.
#[derive(Debug, Clone)]
struct PlaneKernel {
    ops: Vec<KernelOp>,
    /// `cones[i]`: bit `b` set ⇔ op `i`'s value depends on bound input
    /// `b`. All-ones when the plane binds more than 64 inputs (cone
    /// tracking disabled, every sweep is a full sweep).
    cones: Vec<u64>,
    /// Flattened LUT truth tables, indexed by [`KernelOp::Lut::table`].
    tables: Vec<u64>,
}

/// A context's IO names resolved to dense resource ids once, at tenant
/// admission, so steady-state sweeps index arrays instead of scanning
/// name lists and clone `Arc<str>`s instead of `String`s.
///
/// Entries keep the plane's bind order: it is the order in which
/// [`CompiledFabric::eval_bound_into`] takes input chunks and returns
/// output chunks. The `bool` marks stream registers ([`REG_PREFIX`]).
#[derive(Debug, Clone)]
pub struct BoundPlan {
    ctx: usize,
    inputs: Vec<(ResourceId, Arc<str>, bool)>,
    outputs: Vec<(ResourceId, Arc<str>, bool)>,
}

impl BoundPlan {
    /// The context this plan binds.
    #[must_use]
    pub fn ctx(&self) -> usize {
        self.ctx
    }

    /// Bound inputs `(resource, interned name, is stream register)`, in
    /// plane bind order.
    #[must_use]
    pub fn inputs(&self) -> &[(ResourceId, Arc<str>, bool)] {
        &self.inputs
    }

    /// Bound outputs `(resource, interned name, is stream register)`, in
    /// plane bind order.
    #[must_use]
    pub fn outputs(&self) -> &[(ResourceId, Arc<str>, bool)] {
        &self.outputs
    }

    /// Gathers one chunk per bound input, in bind order, by asking
    /// `lookup` for each input's name — the one name → position step
    /// between a name-keyed caller and
    /// [`CompiledFabric::eval_bound_into`]. A name `lookup` does not know
    /// fails with `input '<name>' not driven`.
    pub fn resolve_inputs(
        &self,
        mut lookup: impl FnMut(&str) -> Option<LaneChunk>,
    ) -> Result<Vec<LaneChunk>, FabricError> {
        self.inputs
            .iter()
            .map(|(_, name, _)| {
                lookup(name)
                    .ok_or_else(|| FabricError::Unresolved(format!("input '{name}' not driven")))
            })
            .collect()
    }
}

/// Deterministic accounting of one [`CompiledFabric::eval_bound_into`]
/// pass: pure counts of compiled ops, so totals are bit-identical at any
/// thread count and lane width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Ops in the executed program (kernel ops, or interpreter ops for
    /// planes without a kernel).
    pub ops_total: u64,
    /// Ops skipped because no bound input in their cone was dirty.
    pub ops_skipped: u64,
    /// Whether the straight-line kernel ran (vs the reference
    /// interpreter).
    pub kernel: bool,
}

/// Dense lane values of every resource after one batch evaluation.
///
/// Each resource holds a [`LaneChunk`]; lane `l` of the chunk is its
/// boolean value in input vector `l`. Known-ness is per-resource, not
/// per-lane: whether a resource resolves depends only on the configuration
/// and which inputs are driven, never on input values. The single-word
/// accessors ([`wire`](Self::wire), [`lut_out`](Self::lut_out),
/// [`io_out`](Self::io_out)) read word 0 — the legacy 64-lane view.
#[derive(Debug, Clone)]
pub struct CompiledState {
    layout: ResourceLayout,
    values: Vec<LaneChunk>,
    known: Vec<bool>,
}

impl CompiledState {
    fn read_chunk(&self, id: ResourceId) -> Option<LaneChunk> {
        self.known[id as usize].then(|| self.values[id as usize])
    }

    fn read(&self, id: ResourceId) -> Option<u64> {
        self.read_chunk(id).map(|c| c[0])
    }

    /// Marks every resource unknown again. Stale values behind a cleared
    /// `known` flag are unobservable (every read is gated on it), so only
    /// the flag array needs zeroing.
    fn reset(&mut self) {
        self.known.fill(false);
    }

    /// Word-0 lanes on output wire `(tile, dir, w)`, if resolved.
    #[must_use]
    pub fn wire(&self, tile: TileCoord, dir: Dir, w: usize) -> Option<u64> {
        self.read(self.layout.wire(tile, dir, w))
    }

    /// Word-0 LUT output lanes of `tile`, if resolved.
    #[must_use]
    pub fn lut_out(&self, tile: TileCoord) -> Option<u64> {
        self.read(self.layout.lut_out(tile))
    }

    /// Word-0 external output port lanes, if resolved.
    #[must_use]
    pub fn io_out(&self, tile: TileCoord, port: usize) -> Option<u64> {
        self.read(self.layout.io_out(tile, port))
    }

    /// Full lane chunk of output wire `(tile, dir, w)`, if resolved.
    #[must_use]
    pub fn wire_chunk(&self, tile: TileCoord, dir: Dir, w: usize) -> Option<LaneChunk> {
        self.read_chunk(self.layout.wire(tile, dir, w))
    }
}

/// Lane-wise LUT evaluation: mux-reduce the truth table over the pin lanes.
///
/// `acc` starts as the 2^k truth-table rows broadcast to all lanes; each
/// pin folds the table in half, selecting between the pin=0 and pin=1
/// halves per lane. `2^k − 1` select steps evaluate all 64 lanes at once.
#[inline]
fn lut_lanes(table: u64, pins: &[u64]) -> u64 {
    let mut acc = [0u64; 1 << MultiContextLut::MAX_K];
    let rows = 1usize << pins.len();
    for (r, slot) in acc.iter_mut().enumerate().take(rows) {
        *slot = if (table >> r) & 1 == 1 { !0u64 } else { 0 };
    }
    let mut len = rows;
    for &p in pins {
        len /= 2;
        for j in 0..len {
            acc[j] = (acc[2 * j] & !p) | (acc[2 * j + 1] & p);
        }
    }
    acc[0]
}

/// [`lut_lanes`] monomorphized to an exact row count (`ROWS = 2^k`): the
/// accumulator is exactly sized (no 64-entry scratch to initialize for a
/// 2-pin mux) and the fold loops fully unroll. The straight-line kernel
/// dispatches to this per op; `debug_assert` keeps the pin count honest.
#[inline]
fn mux_reduce<const ROWS: usize>(table: u64, pins: &[u64]) -> u64 {
    debug_assert_eq!(ROWS, 1usize << pins.len());
    let mut acc = [0u64; ROWS];
    for (r, slot) in acc.iter_mut().enumerate() {
        *slot = if (table >> r) & 1 == 1 { !0u64 } else { 0 };
    }
    let mut len = ROWS;
    for &p in pins {
        len /= 2;
        for j in 0..len {
            acc[j] = (acc[2 * j] & !p) | (acc[2 * j + 1] & p);
        }
    }
    acc[0]
}

/// A fabric flattened, levelized and ready for bit-parallel evaluation.
#[derive(Debug, Clone)]
pub struct CompiledFabric {
    params: FabricParams,
    layout: ResourceLayout,
    planes: Vec<CompiledPlane>,
    /// `Some(ctx)` when only one context was compiled
    /// ([`Self::compile_context`]); other contexts then refuse to evaluate
    /// instead of silently returning empty results.
    only_ctx: Option<usize>,
}

impl CompiledFabric {
    /// Compiles every context plane of `fabric`.
    pub fn compile(fabric: &Fabric) -> Result<Self, FabricError> {
        let params = *fabric.params();
        let layout = ResourceLayout::new(&params);
        let mut planes = Vec::with_capacity(params.contexts);
        for ctx in 0..params.contexts {
            planes.push(Self::compile_plane(fabric, &layout, ctx)?);
        }
        Ok(CompiledFabric {
            params,
            layout,
            planes,
            only_ctx: None,
        })
    }

    /// Compiles only the plane of `ctx`, leaving the other contexts empty.
    ///
    /// Single-context callers (like the 1-lane [`crate::sim::evaluate`]
    /// wrapper) skip the O(contexts) compile cost of the unused planes.
    /// Accessing any context other than `ctx` on the result errors with
    /// [`FabricError::ContextNotCompiled`].
    pub fn compile_context(fabric: &Fabric, ctx: usize) -> Result<Self, FabricError> {
        let params = *fabric.params();
        if ctx >= params.contexts {
            return Err(FabricError::ContextOutOfRange {
                ctx,
                contexts: params.contexts,
            });
        }
        let layout = ResourceLayout::new(&params);
        let empty = CompiledPlane {
            ops: Vec::new(),
            cyclic: false,
            levels: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            kernel: None,
        };
        let mut planes = vec![empty; params.contexts];
        planes[ctx] = Self::compile_plane(fabric, &layout, ctx)?;
        Ok(CompiledFabric {
            params,
            layout,
            planes,
            only_ctx: Some(ctx),
        })
    }

    fn resolve_source(
        fabric: &Fabric,
        layout: &ResourceLayout,
        t: TileCoord,
        src: Source,
    ) -> Option<ResourceId> {
        match src {
            Source::WireFrom { dir, w } => {
                // the neighbour's wire pointing back toward `t`
                let n = fabric.neighbor(t, dir)?;
                Some(layout.wire(n, dir.opposite(), w))
            }
            Source::LutOut => Some(layout.lut_out(t)),
            Source::IoIn(p) => Some(layout.io_in(t, p)),
        }
    }

    fn compile_plane(
        fabric: &Fabric,
        layout: &ResourceLayout,
        ctx: usize,
    ) -> Result<CompiledPlane, FabricError> {
        let params = fabric.params();
        let mut ops: Vec<Op> = Vec::new();
        for t in fabric.tiles() {
            let tc = fabric.tile(t)?;
            let sources = fabric.sources(t);
            let mut pins = [None; MultiContextLut::MAX_K];
            let mut any_pin = false;
            for (sink_idx, sink) in fabric.sinks(t).into_iter().enumerate() {
                let Some(src_idx) = tc.sb[ctx][sink_idx] else {
                    continue;
                };
                let src = Self::resolve_source(fabric, layout, t, sources[src_idx as usize])
                    .ok_or(FabricError::BadTile { x: t.x, y: t.y })?;
                match sink {
                    Sink::WireTo { dir, w } => ops.push(Op::Copy {
                        src,
                        dst: layout.wire(t, dir, w),
                    }),
                    Sink::IoOut(port) => ops.push(Op::Copy {
                        src,
                        dst: layout.io_out(t, port),
                    }),
                    Sink::LutIn(pin) => {
                        pins[pin] = Some(src);
                        any_pin = true;
                    }
                }
            }
            if any_pin {
                ops.push(Op::Lut {
                    pins,
                    k: params.lut_k as u8,
                    table: tc.lut.table(ctx)?,
                    dst: layout.lut_out(t),
                });
            }
        }

        let (ops, cyclic, levels) = Self::levelize(ops, layout.total());

        let inputs: Vec<(ResourceId, String)> = fabric
            .input_binds()
            .iter()
            .filter(|(_, _, c, _)| *c == ctx)
            .map(|(t, p, _, name)| (layout.io_in(*t, *p), name.clone()))
            .collect();
        let outputs: Vec<(ResourceId, String)> = fabric
            .output_binds()
            .iter()
            .filter(|(_, _, c, _)| *c == ctx)
            .map(|(t, p, _, name)| (layout.io_out(*t, *p), name.clone()))
            .collect();

        let kernel = if cyclic {
            None
        } else {
            Self::build_kernel(&ops, &inputs, &outputs, layout)
        };

        Ok(CompiledPlane {
            ops,
            cyclic,
            levels,
            inputs,
            outputs,
            kernel,
        })
    }

    /// Compiles the straight-line kernel of an acyclic, topologically
    /// sorted op list: a single forward pass keeps exactly the ops the
    /// interpreter's unknown propagation would ever run (those whose
    /// configured sources are all reachable from the bound inputs) and
    /// accumulates each op's input-cone mask. Returns `None` when any
    /// bound output is unreachable — such planes must keep faulting
    /// through the interpreter with its exact error.
    fn build_kernel(
        ops: &[Op],
        inputs: &[(ResourceId, String)],
        outputs: &[(ResourceId, String)],
        layout: &ResourceLayout,
    ) -> Option<PlaneKernel> {
        let zero_pin = layout.total() as u32;
        // cone[r] = Some(mask of bound inputs r depends on) ⇔ r reachable
        let mut cone: Vec<Option<u64>> = vec![None; layout.total()];
        let wide = inputs.len() > 64;
        for (i, (id, _)) in inputs.iter().enumerate() {
            let mask = if wide { DIRTY_ALL } else { 1u64 << i };
            let slot = &mut cone[*id as usize];
            *slot = Some(slot.unwrap_or(0) | mask);
        }
        let mut kops = Vec::with_capacity(ops.len());
        let mut cones = Vec::with_capacity(ops.len());
        let mut tables = Vec::new();
        for op in ops {
            match op {
                Op::Copy { src, dst } => {
                    let Some(c) = cone[*src as usize] else {
                        continue;
                    };
                    cone[*dst as usize] = Some(c);
                    kops.push(KernelOp::Copy {
                        src: *src,
                        dst: *dst,
                    });
                    cones.push(c);
                }
                Op::Lut {
                    pins,
                    k,
                    table,
                    dst,
                } => {
                    // unconfigured pins read the always-zero sentinel and
                    // impose no reachability requirement (run_op parity)
                    let mut c = 0u64;
                    let mut resolved = [zero_pin; MultiContextLut::MAX_K];
                    let mut runnable = true;
                    for (i, pin) in pins.iter().take(*k as usize).enumerate() {
                        if let Some(src) = pin {
                            match cone[*src as usize] {
                                Some(pc) => {
                                    c |= pc;
                                    resolved[i] = *src;
                                }
                                None => {
                                    runnable = false;
                                    break;
                                }
                            }
                        }
                    }
                    if !runnable {
                        continue;
                    }
                    cone[*dst as usize] = Some(c);
                    let ti = tables.len() as u32;
                    tables.push(*table);
                    kops.push(KernelOp::Lut {
                        pins: resolved,
                        k: *k,
                        table: ti,
                        dst: *dst,
                    });
                    cones.push(c);
                }
            }
        }
        if outputs.iter().any(|(id, _)| cone[*id as usize].is_none()) {
            return None;
        }
        Some(PlaneKernel {
            ops: kops,
            cones,
            tables,
        })
    }

    /// Kahn topological sort of `ops` by data dependency. Returns the
    /// sorted ops, whether a cycle forced the fallback order, and the DAG
    /// depth. Every resource has at most one producer op (each sink stores
    /// one source per context), so the dependency graph is exactly
    /// producer→consumer between ops.
    fn levelize(ops: Vec<Op>, total_resources: usize) -> (Vec<Op>, bool, usize) {
        let mut producer: Vec<Option<usize>> = vec![None; total_resources];
        for (i, op) in ops.iter().enumerate() {
            producer[op.dst() as usize] = Some(i);
        }
        let mut indegree = vec![0usize; ops.len()];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        for (i, op) in ops.iter().enumerate() {
            op.for_each_src(|src| {
                if let Some(p) = producer[src as usize] {
                    consumers[p].push(i);
                    indegree[i] += 1;
                }
            });
        }
        let mut queue: Vec<usize> = (0..ops.len()).filter(|&i| indegree[i] == 0).collect();
        let mut level = vec![0usize; ops.len()];
        let mut order = Vec::with_capacity(ops.len());
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                level[c] = level[c].max(level[i] + 1);
                if indegree[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() == ops.len() {
            let depth = order.iter().map(|&i| level[i] + 1).max().unwrap_or(0);
            let sorted = order.iter().map(|&i| ops[i].clone()).collect();
            (sorted, false, depth)
        } else {
            // genuine combinational cycle: keep deterministic tile order and
            // let evaluation sweep to the monotone fixpoint
            (ops, true, 0)
        }
    }

    /// Fabric parameters the compilation captured.
    #[must_use]
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// The single context a partial compilation
    /// ([`Self::compile_context`]) captured, or `None` for a full
    /// [`Self::compile`].
    #[must_use]
    pub fn compiled_context(&self) -> Option<usize> {
        self.only_ctx
    }

    /// Moves a partially-compiled plane to a different context slot.
    ///
    /// A [`CompiledPlane`] is context-independent once compiled — its ops
    /// address arena resources and carry baked truth tables — so the same
    /// plane evaluates bit-for-bit identically from any slot; only the CSS
    /// broadcast *energy* of reaching the slot differs. Live migration uses
    /// this to restore a tenant into whatever context index the destination
    /// shard has free, without re-routing or recompiling.
    ///
    /// Only single-context compilations rebase (a full compile has one
    /// plane per context and nothing to move); `dst` must be within the
    /// captured geometry's context count.
    pub fn rebase_context(&self, dst: usize) -> Result<CompiledFabric, FabricError> {
        let Some(src) = self.only_ctx else {
            return Err(FabricError::BadParams(
                "rebase_context requires a single-context compilation".into(),
            ));
        };
        if dst >= self.params.contexts {
            return Err(FabricError::ContextOutOfRange {
                ctx: dst,
                contexts: self.params.contexts,
            });
        }
        let mut rebased = self.clone();
        if src != dst {
            rebased.planes.swap(src, dst);
        }
        rebased.only_ctx = Some(dst);
        Ok(rebased)
    }

    /// Re-targets a partially-compiled plane onto a *different* fabric
    /// geometry — the pad-and-remap path behind heterogeneous restore.
    ///
    /// A small grid embeds into the top-left corner of a larger one: every
    /// tile keeps its `(x, y)` coordinate and every resource keeps its
    /// intra-tile offset, so remapping each [`Op`] and IO bind through the
    /// destination arena preserves op order, dependencies and truth tables.
    /// Evaluation of the rebased plane is therefore bit-for-bit identical
    /// to the original — the extra tiles of the larger grid are simply
    /// never addressed.
    ///
    /// Requirements: a single-context compilation ([`Self::compile_context`]),
    /// matching `arch` / `lut_k` / `channel_width` / `io_in` / `io_out`
    /// (so tiles have identical resource shapes), destination at least as
    /// wide and tall as the source, and `dst_ctx` within the destination's
    /// context count. Same-geometry calls fall through to
    /// [`Self::rebase_context`].
    pub fn rebase_onto(
        &self,
        dst_params: FabricParams,
        dst_ctx: usize,
    ) -> Result<CompiledFabric, FabricError> {
        if dst_params == self.params {
            return self.rebase_context(dst_ctx);
        }
        let Some(src) = self.only_ctx else {
            return Err(FabricError::BadParams(
                "rebase_onto requires a single-context compilation".into(),
            ));
        };
        let compatible = dst_params.arch == self.params.arch
            && dst_params.lut_k == self.params.lut_k
            && dst_params.channel_width == self.params.channel_width
            && dst_params.io_in == self.params.io_in
            && dst_params.io_out == self.params.io_out
            && dst_params.width >= self.params.width
            && dst_params.height >= self.params.height;
        if !compatible {
            return Err(FabricError::BadParams(format!(
                "cannot rebase {:?} plane onto incompatible geometry {:?}",
                self.params, dst_params
            )));
        }
        if dst_ctx >= dst_params.contexts {
            return Err(FabricError::ContextOutOfRange {
                ctx: dst_ctx,
                contexts: dst_params.contexts,
            });
        }
        let dst_layout = ResourceLayout::new(&dst_params);
        let remap = |id: ResourceId| self.layout.remap_into(&dst_layout, id);
        let plane = &self.planes[src];
        let ops: Vec<Op> = plane
            .ops
            .iter()
            .map(|op| match op {
                Op::Copy { src, dst } => Op::Copy {
                    src: remap(*src),
                    dst: remap(*dst),
                },
                Op::Lut {
                    pins,
                    k,
                    table,
                    dst,
                } => Op::Lut {
                    pins: pins.map(|p| p.map(remap)),
                    k: *k,
                    table: *table,
                    dst: remap(*dst),
                },
            })
            .collect();
        let remap_binds = |binds: &[(ResourceId, String)]| {
            binds
                .iter()
                .map(|(r, n)| (remap(*r), n.clone()))
                .collect::<Vec<_>>()
        };
        let inputs = remap_binds(&plane.inputs);
        let outputs = remap_binds(&plane.outputs);
        // the kernel bakes arena indices, so it is rebuilt against the
        // destination layout rather than remapped op by op
        let kernel = if plane.cyclic {
            None
        } else {
            Self::build_kernel(&ops, &inputs, &outputs, &dst_layout)
        };
        let moved = CompiledPlane {
            ops,
            cyclic: plane.cyclic,
            levels: plane.levels,
            inputs,
            outputs,
            kernel,
        };
        let empty = CompiledPlane {
            ops: Vec::new(),
            cyclic: false,
            levels: 0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            kernel: None,
        };
        let mut planes = vec![empty; dst_params.contexts];
        planes[dst_ctx] = moved;
        Ok(CompiledFabric {
            params: dst_params,
            layout: dst_layout,
            planes,
            only_ctx: Some(dst_ctx),
        })
    }

    /// The resource arena layout.
    #[must_use]
    pub fn layout(&self) -> &ResourceLayout {
        &self.layout
    }

    /// The compiled plane of `ctx`.
    pub fn plane(&self, ctx: usize) -> Result<&CompiledPlane, FabricError> {
        if let Some(compiled) = self.only_ctx {
            if ctx != compiled {
                return Err(FabricError::ContextNotCompiled { ctx, compiled });
            }
        }
        self.planes.get(ctx).ok_or(FabricError::ContextOutOfRange {
            ctx,
            contexts: self.params.contexts,
        })
    }

    /// A scratch state sized for this fabric, reusable across
    /// [`Self::eval_bound_into`] calls. The arena carries one extra
    /// always-zero cell past [`ResourceLayout::total`] — the sentinel an
    /// unconfigured kernel pin reads; nothing ever writes it.
    #[must_use]
    pub fn new_state(&self) -> CompiledState {
        CompiledState {
            layout: self.layout,
            values: vec![[0u64; LANE_WORDS]; self.layout.total() + 1],
            known: vec![false; self.layout.total() + 1],
        }
    }

    /// Resolves context `ctx`'s IO names to a reusable [`BoundPlan`] —
    /// the admission-time half of the v2 pipeline. Errors exactly like
    /// [`Self::plane`] for uncompiled contexts.
    pub fn bind(&self, ctx: usize) -> Result<BoundPlan, FabricError> {
        let plane = self.plane(ctx)?;
        let intern = |(id, name): &(ResourceId, String)| {
            (*id, Arc::from(name.as_str()), name.starts_with(REG_PREFIX))
        };
        Ok(BoundPlan {
            ctx,
            inputs: plane.inputs.iter().map(intern).collect(),
            outputs: plane.outputs.iter().map(intern).collect(),
        })
    }

    /// Does context `ctx` carry a straight-line kernel?
    #[must_use]
    pub fn has_kernel(&self, ctx: usize) -> bool {
        self.plane(ctx).is_ok_and(CompiledPlane::has_kernel)
    }

    /// Evaluates a prebound plan on up to [`MAX_LANES`] input vectors at
    /// once: `chunks` parallel to [`BoundPlan::inputs`], outputs written
    /// into `outs` parallel to [`BoundPlan::outputs`] — no name
    /// resolution, no `String` clones. Lane `l` of every chunk is one
    /// input vector. Acyclic planes run the straight-line kernel; cyclic
    /// planes (and planes with unreachable bound outputs) fall back to the
    /// reference interpreter, with identical results and errors either
    /// way. Unknown propagation matches [`crate::sim::evaluate_fixpoint`]:
    /// a bound output that never resolves is an error.
    ///
    /// `words` is the number of 64-lane words actually occupied
    /// ([`LaneBatch::words`], clamped to `1..=LANE_WORDS`): only those
    /// words are computed and words past it come back zero, so a ≤64-lane
    /// pass costs one word. Lanes are fully independent.
    ///
    /// `dirty` drives the dirty-cone incremental path on kernel planes:
    /// bit `i` set means input `i`'s chunk may differ from the previous
    /// call on this same `st`. Passing anything other than [`DIRTY_ALL`]
    /// is a contract that `st` holds the completed previous sweep of this
    /// plan **at the same `words`** and that every un-dirty chunk equals
    /// the chunk passed then; ops whose input cone misses every dirty bit
    /// are skipped and their cached values reused — observationally
    /// equivalent to a full sweep. Non-kernel planes ignore `dirty` and
    /// always sweep fully through the reference interpreter.
    pub fn eval_bound_into(
        &self,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
        words: usize,
        dirty: u64,
        st: &mut CompiledState,
        outs: &mut Vec<LaneChunk>,
    ) -> Result<EvalStats, FabricError> {
        let (plane, words, fresh) = self.prepare_bound(bound, chunks, words, st, outs)?;
        let Some(kernel) = &plane.kernel else {
            Self::interpret(plane, bound, chunks, words, st, outs)?;
            return Ok(EvalStats {
                ops_total: plane.ops.len() as u64,
                ops_skipped: 0,
                kernel: false,
            });
        };
        // the dirty mask cannot address inputs past bit 63 (and cone
        // tracking is disabled for such planes): sweep fully
        let dirty = if fresh || (bound.inputs.len() > 64 && dirty != 0) {
            DIRTY_ALL
        } else {
            dirty
        };
        let ops_total = kernel.ops.len() as u64;
        let run = if dirty == DIRTY_ALL {
            Self::seed_all(bound, chunks, words, st);
            Self::kernel_run_all(kernel, words, st);
            ops_total
        } else if dirty == 0 {
            0
        } else {
            for (i, ((id, _, _), chunk)) in bound.inputs.iter().zip(chunks).enumerate() {
                if dirty >> i & 1 == 1 {
                    Self::seed_input(st, *id, *chunk, words);
                }
            }
            Self::kernel_run_dirty(kernel, words, dirty, st)
        };
        outs.extend(
            bound
                .outputs
                .iter()
                .map(|(id, _, _)| st.values[*id as usize]),
        );
        Ok(EvalStats {
            ops_total,
            ops_skipped: ops_total - run,
            kernel: true,
        })
    }

    /// The branchy interpreter, unconditionally, on the same positional
    /// contract as [`Self::eval_bound_into`] (always a full sweep). Kept
    /// public as the equivalence oracle for the kernel path (property
    /// tests, the `eval_kernel` bench) and as executable documentation of
    /// the semantics the kernel must reproduce.
    pub fn eval_bound_reference(
        &self,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
        words: usize,
        st: &mut CompiledState,
        outs: &mut Vec<LaneChunk>,
    ) -> Result<(), FabricError> {
        let (plane, words, _) = self.prepare_bound(bound, chunks, words, st, outs)?;
        Self::interpret(plane, bound, chunks, words, st, outs)
    }

    /// The checks both bound evaluators share: the plan's plane must be
    /// compiled, `chunks` must match its inputs one-for-one, and `words`
    /// is clamped to `1..=LANE_WORDS`. A scratch state from a differently
    /// shaped fabric is rebuilt rather than read through the wrong
    /// resource layout; the returned flag says so (its cached values are
    /// then gone). Clears `outs`.
    fn prepare_bound(
        &self,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
        words: usize,
        st: &mut CompiledState,
        outs: &mut Vec<LaneChunk>,
    ) -> Result<(&CompiledPlane, usize, bool), FabricError> {
        let plane = self.plane(bound.ctx)?;
        if chunks.len() != bound.inputs.len() {
            return Err(FabricError::BadParams(format!(
                "{} input chunks for {} bound inputs",
                chunks.len(),
                bound.inputs.len()
            )));
        }
        let fresh = st.layout != self.layout;
        if fresh {
            *st = self.new_state();
        }
        outs.clear();
        Ok((plane, words.clamp(1, LANE_WORDS), fresh))
    }

    /// A full interpreter sweep of a bound plan: reset, seed every input,
    /// run the plane, read every output — failing with
    /// `output '<name>' unresolved` when one stays unknown.
    fn interpret(
        plane: &CompiledPlane,
        bound: &BoundPlan,
        chunks: &[LaneChunk],
        words: usize,
        st: &mut CompiledState,
        outs: &mut Vec<LaneChunk>,
    ) -> Result<(), FabricError> {
        Self::seed_all(bound, chunks, words, st);
        Self::run_interpreter(plane, words, st);
        for (id, name, _) in &bound.outputs {
            let v = st
                .read_chunk(*id)
                .ok_or_else(|| FabricError::Unresolved(format!("output '{name}' unresolved")))?;
            outs.push(v);
        }
        Ok(())
    }

    /// Marks every resource unknown, then seeds every bound input.
    fn seed_all(bound: &BoundPlan, chunks: &[LaneChunk], words: usize, st: &mut CompiledState) {
        st.reset();
        for ((id, _, _), chunk) in bound.inputs.iter().zip(chunks) {
            Self::seed_input(st, *id, *chunk, words);
        }
    }

    /// Seeds one bound input chunk, zeroing lanes past the occupied words
    /// — the invariant that every known chunk is zero beyond `words`, so
    /// outputs (and harvested stream registers) never carry stale or
    /// stray high-word bits.
    #[inline]
    fn seed_input(st: &mut CompiledState, id: ResourceId, mut chunk: LaneChunk, words: usize) {
        for word in chunk.iter_mut().skip(words) {
            *word = 0;
        }
        st.values[id as usize] = chunk;
        st.known[id as usize] = true;
    }

    /// One full interpreter sweep over a seeded state: the monotone
    /// fixpoint loop for cyclic planes (each productive pass resolves ≥1
    /// resource, so `ops.len() + 1` passes suffice), a single in-order
    /// pass otherwise.
    fn run_interpreter(plane: &CompiledPlane, words: usize, st: &mut CompiledState) {
        if plane.cyclic {
            for _ in 0..=plane.ops.len() {
                let mut changed = false;
                for op in &plane.ops {
                    changed |= Self::run_op(op, words, st);
                }
                if !changed {
                    break;
                }
            }
        } else {
            for op in &plane.ops {
                Self::run_op(op, words, st);
            }
        }
    }

    /// Executes the whole straight-line program in topological op order
    /// (every source chunk is fully written before it is read, so no
    /// `known` checks are needed), computing all [`LANE_WORDS`] words of
    /// each op unconditionally — a fixed-width inner loop the compiler
    /// unrolls — then zeroes each produced chunk's unoccupied high words
    /// and marks it known. The resulting value *and* known arrays are
    /// bit-identical to an interpreter sweep.
    fn kernel_run_all(kernel: &PlaneKernel, words: usize, st: &mut CompiledState) {
        for op in &kernel.ops {
            Self::run_kernel_op_chunk(kernel, op, st);
        }
        for op in &kernel.ops {
            let dst = op.dst() as usize;
            for word in &mut st.values[dst][words..] {
                *word = 0;
            }
            st.known[dst] = true;
        }
    }

    /// The incremental variant of [`Self::kernel_run_all`]: runs only ops
    /// whose input cone intersects `dirty`, reusing every other op's
    /// value (and already-zeroed high words) from the previous sweep held
    /// in `st`. Returns the number of ops run.
    fn kernel_run_dirty(
        kernel: &PlaneKernel,
        words: usize,
        dirty: u64,
        st: &mut CompiledState,
    ) -> u64 {
        let mut run = 0u64;
        for (op, cone) in kernel.ops.iter().zip(&kernel.cones) {
            if cone & dirty != 0 {
                Self::run_kernel_op_chunk(kernel, op, st);
                run += 1;
            }
        }
        if words < LANE_WORDS {
            // re-run ops recomputed their high words from the (zeroed)
            // input tails; restore the all-zero-past-`words` invariant
            for (op, cone) in kernel.ops.iter().zip(&kernel.cones) {
                if cone & dirty != 0 {
                    for word in &mut st.values[op.dst() as usize][words..] {
                        *word = 0;
                    }
                }
            }
        }
        run
    }

    /// One kernel op over a whole [`LaneChunk`] — branch-free on `known`,
    /// `Option`-free on pins, mux reduction monomorphized per pin count
    /// so the row array is exactly sized and the folds fully unrolled.
    #[inline]
    fn run_kernel_op_chunk(kernel: &PlaneKernel, op: &KernelOp, st: &mut CompiledState) {
        match op {
            KernelOp::Copy { src, dst } => {
                st.values[*dst as usize] = st.values[*src as usize];
            }
            KernelOp::Lut {
                pins,
                k,
                table,
                dst,
            } => {
                let k = *k as usize;
                let table = kernel.tables[*table as usize];
                let mut out = [0u64; LANE_WORDS];
                for (w, slot) in out.iter_mut().enumerate() {
                    let mut lanes = [0u64; MultiContextLut::MAX_K];
                    for (lane, pin) in lanes.iter_mut().zip(pins).take(k) {
                        *lane = st.values[*pin as usize][w];
                    }
                    *slot = match k {
                        1 => mux_reduce::<2>(table, &lanes[..1]),
                        2 => mux_reduce::<4>(table, &lanes[..2]),
                        3 => mux_reduce::<8>(table, &lanes[..3]),
                        4 => mux_reduce::<16>(table, &lanes[..4]),
                        5 => mux_reduce::<32>(table, &lanes[..5]),
                        _ => mux_reduce::<64>(table, &lanes[..6]),
                    };
                }
                st.values[*dst as usize] = out;
            }
        }
    }

    /// Runs one op on the first `words` lane words; returns true when
    /// `dst` transitioned unknown→known.
    #[inline]
    fn run_op(op: &Op, words: usize, st: &mut CompiledState) -> bool {
        match op {
            Op::Copy { src, dst } => {
                if st.known[*dst as usize] || !st.known[*src as usize] {
                    return false;
                }
                st.values[*dst as usize] = st.values[*src as usize];
                st.known[*dst as usize] = true;
                true
            }
            Op::Lut {
                pins,
                k,
                table,
                dst,
            } => {
                if st.known[*dst as usize] {
                    return false;
                }
                let mut pin_ids = [None; MultiContextLut::MAX_K];
                for (i, pin) in pins.iter().take(*k as usize).enumerate() {
                    if let Some(src) = pin {
                        if !st.known[*src as usize] {
                            return false;
                        }
                        pin_ids[i] = Some(*src as usize);
                    }
                }
                let mut out = [0u64; LANE_WORDS];
                for (w, slot) in out.iter_mut().enumerate().take(words) {
                    let mut lanes = [0u64; MultiContextLut::MAX_K];
                    for (i, id) in pin_ids.iter().take(*k as usize).enumerate() {
                        if let Some(id) = id {
                            lanes[i] = st.values[*id][w];
                        }
                    }
                    *slot = lut_lanes(*table, &lanes[..*k as usize]);
                }
                st.values[*dst as usize] = out;
                st.known[*dst as usize] = true;
                true
            }
        }
    }
}

// The multi-tenant service fans per-shard sweeps out across worker
// threads: compiled planes are shared `Arc<CompiledFabric>`s and lane
// batches/scratch move with their engines. A future `Rc`, raw pointer or
// interior-mutability regression in any of these must fail the build, not
// wait for a review to notice.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledFabric>();
    assert_send_sync::<CompiledPlane>();
    assert_send_sync::<CompiledState>();
    assert_send_sync::<LaneBatch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FabricParams;
    use crate::netlist_ir::generators;
    use crate::route::implement_netlist;
    use crate::sim::evaluate_fixpoint;

    /// Name-keyed single-word evaluation through the public surface: bind,
    /// resolve inputs by name, evaluate word 0. Outputs sorted by name.
    fn eval_named(
        compiled: &CompiledFabric,
        ctx: usize,
        ins: &[(&str, u64)],
    ) -> Result<(Vec<(String, u64)>, CompiledState), FabricError> {
        let bound = compiled.bind(ctx)?;
        let chunks = bound.resolve_inputs(|name| {
            ins.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| chunk_of_word(*v))
        })?;
        let (mut st, mut outs) = (compiled.new_state(), Vec::new());
        compiled.eval_bound_into(&bound, &chunks, 1, DIRTY_ALL, &mut st, &mut outs)?;
        let mut named: Vec<(String, u64)> = bound
            .outputs()
            .iter()
            .zip(&outs)
            .map(|((_, name, _), c)| (name.to_string(), c[0]))
            .collect();
        named.sort();
        Ok((named, st))
    }

    #[test]
    fn lut_lanes_matches_scalar_eval() {
        for table in [0b0110u64, 0b1000, 0b1110, 0xDEAD] {
            for v in 0..16u64 {
                let pins = [
                    if v & 1 == 1 { !0u64 } else { 0 },
                    if v & 2 == 2 { !0u64 } else { 0 },
                    if v & 4 == 4 { !0u64 } else { 0 },
                    if v & 8 == 8 { !0u64 } else { 0 },
                ];
                let want = if (table >> v) & 1 == 1 { !0u64 } else { 0 };
                assert_eq!(lut_lanes(table, &pins), want, "table={table:#x} v={v}");
            }
        }
    }

    #[test]
    fn lut_lanes_mixes_lanes_independently() {
        // lane l carries input vector l: pins[i] bit l = bit i of l
        let pins: Vec<u64> = (0..4)
            .map(|i| pack_lanes(|lane| lane < 16 && (lane >> i) & 1 == 1))
            .collect();
        let table = 0x8F31u64;
        let out = lut_lanes(table, &pins);
        for lane in 0..16 {
            assert_eq!((out >> lane) & 1, (table >> lane) & 1, "lane {lane}");
        }
    }

    #[test]
    fn parity_tree_batch_matches_reference() {
        let nl = generators::parity_tree(4).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 1, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(!compiled.plane(1).unwrap().is_cyclic());
        assert!(compiled.plane(1).unwrap().levels() > 1);

        // all 16 input vectors in one 64-lane batch, lanes 16.. replicate 0
        let ins: Vec<(String, u64)> = (0..4)
            .map(|i| (format!("x{i}"), pack_lanes(|v| v < 16 && (v >> i) & 1 == 1)))
            .collect();
        let ins_ref: Vec<(&str, u64)> = ins.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let (outs, _) = eval_named(&compiled, 1, &ins_ref).unwrap();
        assert_eq!(outs.len(), 1);
        for v in 0..16u64 {
            let scalar_ins: Vec<(String, bool)> = (0..4)
                .map(|i| (format!("x{i}"), (v >> i) & 1 == 1))
                .collect();
            let scalar_ref: Vec<(&str, bool)> =
                scalar_ins.iter().map(|(n, b)| (n.as_str(), *b)).collect();
            let (golden, _) = evaluate_fixpoint(&f, 1, &scalar_ref).unwrap();
            assert_eq!((outs[0].1 >> v) & 1 == 1, golden[0].1, "vector {v}");
        }
    }

    #[test]
    fn missing_input_reports_unresolved() {
        let nl = generators::wire_lanes(1).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 1).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        assert_eq!(
            eval_named(&compiled, 0, &[]).unwrap_err(),
            FabricError::Unresolved("input 'in0' not driven".into())
        );
    }

    #[test]
    fn bound_eval_rejects_a_wrong_chunk_count() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();
        assert_eq!(bound.inputs().len(), 3);
        let mut st = compiled.new_state();
        let mut outs = vec![[7u64; LANE_WORDS]];
        for n in [0, 2, 4] {
            let chunks = vec![[0u64; LANE_WORDS]; n];
            for words in [1, LANE_WORDS] {
                assert_eq!(
                    compiled.eval_bound_into(&bound, &chunks, words, DIRTY_ALL, &mut st, &mut outs),
                    Err(FabricError::BadParams(format!(
                        "{n} input chunks for 3 bound inputs"
                    )))
                );
                assert!(matches!(
                    compiled.eval_bound_reference(&bound, &chunks, words, &mut st, &mut outs),
                    Err(FabricError::BadParams(_))
                ));
            }
        }
        assert_eq!(
            outs,
            vec![[7u64; LANE_WORDS]],
            "a refused call leaves outs alone"
        );
    }

    #[test]
    fn cyclic_config_falls_back_and_agrees_with_reference() {
        // hand-build a routing loop: two tiles driving each other's wires,
        // plus an independent straight-through lane feeding an output
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let a = TileCoord { x: 0, y: 0 };
        let b = TileCoord { x: 1, y: 0 };
        // cycle: a's east wire <- b's west wire <- a's east wire
        f.set_route(
            a,
            0,
            Sink::WireTo {
                dir: Dir::East,
                w: 0,
            },
            Some(Source::WireFrom {
                dir: Dir::East,
                w: 0,
            }),
        )
        .unwrap();
        f.set_route(
            b,
            0,
            Sink::WireTo {
                dir: Dir::West,
                w: 0,
            },
            Some(Source::WireFrom {
                dir: Dir::West,
                w: 0,
            }),
        )
        .unwrap();
        // independent resolvable path: io_in(a,0) -> io_out(a,0)
        f.set_route(a, 0, Sink::IoOut(0), Some(Source::IoIn(0)))
            .unwrap();
        f.bind_input(a, 0, 0, "x").unwrap();
        f.bind_output(a, 0, 0, "y").unwrap();

        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(compiled.plane(0).unwrap().is_cyclic());
        let (outs, _) = eval_named(&compiled, 0, &[("x", 0b10u64)]).unwrap();
        assert_eq!(outs, vec![("y".to_string(), 0b10u64)]);
        // the looped wires stay unknown, exactly like the reference
        let (_, st) = eval_named(&compiled, 0, &[("x", 1)]).unwrap();
        assert_eq!(st.wire(a, Dir::East, 0), None);
        let (gold, gst) = evaluate_fixpoint(&f, 0, &[("x", true)]).unwrap();
        assert_eq!(gold, vec![("y".to_string(), true)]);
        assert_eq!(gst.wire(a, Dir::East, 0), None);
    }

    #[test]
    fn contexts_compile_independently() {
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let p = generators::parity_tree(3).unwrap();
        let w = generators::wire_lanes(1).unwrap();
        implement_netlist(&mut f, &p, 0, 2).unwrap();
        implement_netlist(&mut f, &w, 1, 3).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        assert!(!compiled.plane(0).unwrap().ops().is_empty());
        assert!(!compiled.plane(1).unwrap().ops().is_empty());
        assert!(compiled.plane(2).unwrap().ops().is_empty());
        let (out1, _) = eval_named(&compiled, 1, &[("in0", !0u64)]).unwrap();
        assert_eq!(out1, vec![("out0".to_string(), !0u64)]);
    }

    #[test]
    fn partial_compile_refuses_other_contexts() {
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        let p = generators::parity_tree(3).unwrap();
        let w = generators::wire_lanes(1).unwrap();
        implement_netlist(&mut f, &p, 0, 2).unwrap();
        implement_netlist(&mut f, &w, 1, 3).unwrap();
        let partial = CompiledFabric::compile_context(&f, 0).unwrap();
        let ins: Vec<(&str, u64)> = vec![("x0", !0), ("x1", 0), ("x2", !0)];
        assert!(eval_named(&partial, 0, &ins).is_ok());
        // ctx 1 has a real design, but this compilation never saw it —
        // error out rather than hand back empty outputs
        assert_eq!(
            eval_named(&partial, 1, &[("in0", 1)]).unwrap_err(),
            FabricError::ContextNotCompiled {
                ctx: 1,
                compiled: 0
            }
        );
    }

    #[test]
    fn lane_batch_coalesces_and_demuxes() {
        let mut batch = LaneBatch::new();
        assert!(batch.is_empty());
        for i in 0..LANES {
            let lane = batch.push(&[("a", i % 2 == 0), ("b", i % 3 == 0)]).unwrap();
            assert_eq!(lane, i);
        }
        assert!(batch.is_full());
        assert_eq!(batch.push(&[("a", true)]), None, "65th request refused");
        let ins = batch.lane_inputs();
        let a = ins.iter().find(|(n, _)| *n == "a").unwrap().1;
        let b = ins.iter().find(|(n, _)| *n == "b").unwrap().1;
        assert_eq!(a, chunk_of_word(pack_lanes(|l| l % 2 == 0)));
        assert_eq!(b, chunk_of_word(pack_lanes(|l| l % 3 == 0)));
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch
            .lane_inputs()
            .iter()
            .all(|(_, w)| *w == [0u64; LANE_WORDS]));
    }

    #[test]
    fn wide_batch_fills_past_64_lanes() {
        let mut batch = LaneBatch::with_width(MAX_LANES).unwrap();
        assert_eq!(batch.width(), MAX_LANES);
        assert_eq!(batch.words(), 1, "empty batch still evaluates one word");
        for i in 0..MAX_LANES {
            let lane = batch.push(&[("a", i % 2 == 0)]).unwrap();
            assert_eq!(lane, i);
        }
        assert!(batch.is_full());
        assert_eq!(batch.words(), LANE_WORDS);
        assert_eq!(batch.push(&[("a", true)]), None, "257th request refused");
        let a = batch.lane_inputs()[0].1;
        assert_eq!(a, pack_chunk(|l| l % 2 == 0));
        // lane 100 lives in word 1 bit 36
        assert!(chunk_bit(&a, 100));
        assert!(!chunk_bit(&a, 101));
        // widths outside 1..=MAX_LANES refuse
        assert!(LaneBatch::with_width(0).is_err());
        assert!(LaneBatch::with_width(MAX_LANES + 1).is_err());
        // 65 occupied lanes need two words
        let mut b = LaneBatch::with_width(MAX_LANES).unwrap();
        for _ in 0..65 {
            b.push(&[("x", true)]).unwrap();
        }
        assert_eq!(b.words(), 2);
    }

    #[test]
    fn push_covering_checks_the_canonical_prefix() {
        let mut b = LaneBatch::new();
        b.ensure_name("a");
        b.ensure_name("b");
        b.ensure_name("a"); // idempotent
                            // full coverage in any order; extra names are fine
        assert_eq!(
            b.push_covering(&[("b", true), ("a", false), ("zz", true)], 2),
            Ok(0)
        );
        // missing "b": refused, lane contents unchanged
        assert_eq!(
            b.push_covering(&[("a", true)], 2),
            Err(PushRefusal::MissingInput(1))
        );
        assert_eq!(b.input_name(1), Some("b"));
        assert_eq!(b.len(), 1);
        let ins = b.lane_inputs();
        assert_eq!(
            ins.iter().find(|(n, _)| *n == "a").unwrap().1,
            chunk_of_word(0)
        );
        assert_eq!(
            ins.iter().find(|(n, _)| *n == "b").unwrap().1,
            chunk_of_word(1)
        );
        // required = 0 behaves like a plain push
        assert_eq!(b.push_covering(&[], 0), Ok(1));
        // a full batch refuses regardless
        while !b.is_full() {
            b.push(&[("a", true)]).unwrap();
        }
        assert_eq!(
            b.push_covering(&[("a", true), ("b", true)], 2),
            Err(PushRefusal::Full)
        );
    }

    #[test]
    fn lane_batch_drives_compiled_eval() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let mut batch = LaneBatch::new();
        let requests = [
            (true, false, true),
            (false, false, false),
            (true, true, true),
        ];
        for (x0, x1, x2) in requests {
            batch.push(&[("x0", x0), ("x1", x1), ("x2", x2)]).unwrap();
        }
        let bound = compiled.bind(0).unwrap();
        let chunks = bound
            .resolve_inputs(|name| batch.name_index(name).map(|i| batch.input_chunk(i)))
            .unwrap();
        let (mut st, mut outs) = (compiled.new_state(), Vec::new());
        compiled
            .eval_bound_into(
                &bound,
                &chunks,
                batch.words(),
                DIRTY_ALL,
                &mut st,
                &mut outs,
            )
            .unwrap();
        for (lane, (x0, x1, x2)) in requests.into_iter().enumerate() {
            assert_eq!(chunk_bit(&outs[0], lane), x0 ^ x1 ^ x2, "lane {lane}");
        }
    }

    #[test]
    fn chunked_eval_matches_independent_word_passes() {
        // one 256-lane chunked pass must be bit-for-bit identical to four
        // independent 64-lane single-word passes, one per word
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile(&f).unwrap();
        let bound = compiled.bind(0).unwrap();
        let chunks: Vec<LaneChunk> = (0..bound.inputs().len())
            .map(|i| pack_chunk(|l| (l * 0x9E37 + i * 31) % (i + 2) == 0))
            .collect();
        let mut st = compiled.new_state();
        let eval = |chunks: &[LaneChunk], words: usize, st: &mut CompiledState| {
            let mut outs = Vec::new();
            compiled
                .eval_bound_into(&bound, chunks, words, DIRTY_ALL, st, &mut outs)
                .unwrap();
            outs
        };
        let wide = eval(&chunks, LANE_WORDS, &mut st);
        for w in 0..LANE_WORDS {
            let word_w: Vec<LaneChunk> = chunks.iter().map(|c| chunk_of_word(c[w])).collect();
            let narrow = eval(&word_w, 1, &mut st);
            for (wc, nc) in wide.iter().zip(&narrow) {
                assert_eq!(wc[w], nc[0], "word {w}");
            }
        }
        // words < LANE_WORDS zeroes the unoccupied words, even when the
        // input chunk carries stray bits there
        let sparse = eval(&chunks, 1, &mut st);
        for (c, full) in sparse.iter().zip(&wide) {
            assert_eq!(c[0], full[0]);
            assert_eq!(c[1..], [0u64; LANE_WORDS - 1]);
        }
    }

    #[test]
    fn context_digest_tracks_configuration() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let d0 = f.context_digest(0).unwrap();
        // deterministic and per-context
        assert_eq!(d0, f.context_digest(0).unwrap());
        assert_ne!(d0, f.context_digest(1).unwrap());
        // identical flow into an identical fabric reproduces the digest
        let mut g = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut g, &nl, 0, 5).unwrap();
        assert_eq!(d0, g.context_digest(0).unwrap());
        // any configuration change moves it
        let mut h = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut h, &nl, 0, 6).unwrap();
        let moved = h.context_digest(0).unwrap();
        let empty = Fabric::new(FabricParams::default())
            .unwrap()
            .context_digest(0)
            .unwrap();
        assert_ne!(d0, empty);
        // seeds 5 and 6 place differently on the default 4×4 grid
        assert_ne!(d0, moved);
        assert!(f.context_digest(99).is_err());
    }

    #[test]
    fn context_digest_covers_the_architecture() {
        // CompiledFabric captures params().arch, so two configurations that
        // differ only in switch architecture must not share a digest
        use mcfpga_core::ArchKind;
        let sram = Fabric::new(FabricParams {
            arch: ArchKind::Sram,
            ..FabricParams::default()
        })
        .unwrap();
        let hybrid = Fabric::new(FabricParams::default()).unwrap();
        assert_ne!(
            sram.context_digest(0).unwrap(),
            hybrid.context_digest(0).unwrap()
        );
    }

    #[test]
    fn context_digest_separates_input_and_output_binds() {
        // same tile config, same concatenated bind records — but "b" is an
        // input in one fabric and an output in the other; the digests must
        // differ (domain tags + lengths prevent the collision)
        let t = TileCoord { x: 0, y: 0 };
        let mut a = Fabric::new(FabricParams::default()).unwrap();
        a.bind_input(t, 0, 0, "a").unwrap();
        a.bind_input(t, 1, 0, "b").unwrap();
        let mut b = Fabric::new(FabricParams::default()).unwrap();
        b.bind_input(t, 0, 0, "a").unwrap();
        b.bind_output(t, 1, 0, "b").unwrap();
        assert_ne!(a.context_digest(0).unwrap(), b.context_digest(0).unwrap());
    }

    #[test]
    fn layout_ids_are_disjoint_and_dense() {
        let p = FabricParams::default();
        let layout = ResourceLayout::new(&p);
        let mut seen = vec![false; layout.total()];
        let mut mark = |id: ResourceId| {
            assert!(!seen[id as usize], "duplicate id {id}");
            seen[id as usize] = true;
        };
        for y in 0..p.height {
            for x in 0..p.width {
                let t = TileCoord { x, y };
                for dir in Dir::ALL {
                    for w in 0..p.channel_width {
                        mark(layout.wire(t, dir, w));
                    }
                }
                mark(layout.lut_out(t));
                for i in 0..p.io_in {
                    mark(layout.io_in(t, i));
                }
                for o in 0..p.io_out {
                    mark(layout.io_out(t, o));
                }
            }
        }
        assert!(seen.into_iter().all(|b| b), "arena has holes");
    }

    #[test]
    fn rebased_plane_evaluates_identically_from_any_slot() {
        let nl = generators::parity_tree(3).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 1, 5).unwrap();
        let compiled = CompiledFabric::compile_context(&f, 1).unwrap();
        assert_eq!(compiled.compiled_context(), Some(1));
        let ins: Vec<(&str, u64)> = vec![("x0", 0xF0F0), ("x1", 0xFF00), ("x2", 0xAAAA)];
        let (want, _) = eval_named(&compiled, 1, &ins).unwrap();
        for dst in 0..4 {
            let moved = compiled.rebase_context(dst).unwrap();
            assert_eq!(moved.compiled_context(), Some(dst));
            assert_eq!(eval_named(&moved, dst, &ins).unwrap().0, want, "dst {dst}");
            if dst != 1 {
                assert!(eval_named(&moved, 1, &ins).is_err(), "old slot must refuse");
            }
        }
        assert!(compiled.rebase_context(99).is_err());
        assert!(CompiledFabric::compile(&f)
            .unwrap()
            .rebase_context(0)
            .is_err());
    }

    #[test]
    fn rebase_onto_larger_geometry_is_bit_identical() {
        // an 8x8 plane pad-and-remapped onto 10x10 must evaluate
        // bit-for-bit identically from every destination slot
        let nl = generators::parity_tree(3).unwrap();
        let small = FabricParams {
            width: 8,
            height: 8,
            ..FabricParams::default()
        };
        let big = FabricParams {
            width: 10,
            height: 10,
            contexts: 6,
            ..FabricParams::default()
        };
        let mut f = Fabric::new(small).unwrap();
        implement_netlist(&mut f, &nl, 2, 5).unwrap();
        let compiled = CompiledFabric::compile_context(&f, 2).unwrap();
        let ins: Vec<(&str, u64)> = vec![("x0", 0xF0F0), ("x1", 0xFF00), ("x2", 0xAAAA)];
        let (want, _) = eval_named(&compiled, 2, &ins).unwrap();
        for dst in 0..big.contexts {
            let moved = compiled.rebase_onto(big, dst).unwrap();
            assert_eq!(moved.params(), &big);
            assert_eq!(moved.compiled_context(), Some(dst));
            assert_eq!(eval_named(&moved, dst, &ins).unwrap().0, want, "dst {dst}");
        }
        // same-geometry calls fall through to rebase_context
        let same = compiled.rebase_onto(small, 0).unwrap();
        assert_eq!(eval_named(&same, 0, &ins).unwrap().0, want);
        // out-of-range destination context
        assert!(compiled.rebase_onto(big, big.contexts).is_err());
        // full compilations have nothing to move
        assert!(CompiledFabric::compile(&f)
            .unwrap()
            .rebase_onto(big, 0)
            .is_err());
    }

    #[test]
    fn rebase_onto_rejects_incompatible_geometry() {
        let nl = generators::parity_tree(2).unwrap();
        let mut f = Fabric::new(FabricParams::default()).unwrap();
        implement_netlist(&mut f, &nl, 0, 5).unwrap();
        let compiled = CompiledFabric::compile_context(&f, 0).unwrap();
        let d = FabricParams::default();
        let narrower = FabricParams { width: 3, ..d };
        let shorter = FabricParams { height: 3, ..d };
        let fatter_channel = FabricParams {
            width: 10,
            height: 10,
            channel_width: d.channel_width + 1,
            ..d
        };
        let bigger_lut = FabricParams {
            width: 10,
            height: 10,
            lut_k: d.lut_k + 1,
            ..d
        };
        let other_arch = FabricParams {
            width: 10,
            height: 10,
            arch: mcfpga_core::ArchKind::Sram,
            ..d
        };
        for bad in [narrower, shorter, fatter_channel, bigger_lut, other_arch] {
            assert!(
                matches!(compiled.rebase_onto(bad, 0), Err(FabricError::BadParams(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn lane_batch_parts_round_trip() {
        let mut batch = LaneBatch::new();
        batch.ensure_name("a");
        batch.push(&[("a", true), ("b", false)]).unwrap();
        batch.push(&[("a", false), ("b", true)]).unwrap();
        let lanes = batch.len();
        let inputs: Vec<(String, LaneChunk)> = batch
            .lane_inputs()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let rebuilt = LaneBatch::from_parts(LANES, lanes, inputs).unwrap();
        assert_eq!(rebuilt.len(), batch.len());
        assert_eq!(rebuilt.width(), LANES);
        assert_eq!(rebuilt.lane_inputs(), batch.lane_inputs());
        assert_eq!(rebuilt.name_index("b"), Some(1));
        assert_eq!(rebuilt.name_index("zz"), None);
        assert!(LaneBatch::from_parts(LANES, LANES + 1, Vec::new()).is_err());
        assert!(LaneBatch::from_parts(MAX_LANES, LANES + 1, Vec::new()).is_ok());
        // stray bits beyond the occupied lanes would leak into the next
        // pushed request's lane — refused, in any word
        assert!(
            LaneBatch::from_parts(LANES, 2, vec![("a".to_string(), chunk_of_word(0b100))]).is_err()
        );
        assert!(
            LaneBatch::from_parts(MAX_LANES, 66, vec![("a".to_string(), [0, 0b100, 0, 0])])
                .is_err()
        );
        assert!(LaneBatch::from_parts(
            LANES,
            LANES,
            vec![("a".to_string(), chunk_of_word(u64::MAX))]
        )
        .is_ok());
        assert!(LaneBatch::from_parts(
            MAX_LANES,
            MAX_LANES,
            vec![("a".to_string(), [u64::MAX; LANE_WORDS])]
        )
        .is_ok());
        // occupied lanes within a wider word budget keep their bits
        let wide =
            LaneBatch::from_parts(MAX_LANES, 66, vec![("a".to_string(), [!0u64, 0b11, 0, 0])])
                .unwrap();
        assert_eq!(wide.words(), 2);
    }
}
