//! The sharded multi-tenant execution service — a thin coordinator over
//! per-shard engines.
//!
//! A [`ShardedService`] owns `N` independent [`ShardEngine`]s (same
//! geometry, same architecture) plus exactly the cross-shard state no
//! engine can own alone: the [`TenantRegistry`] (who lives where), the
//! digest-keyed [`PlaneCache`] (compiled planes are `Arc`-shared across
//! shards and re-admissions), the global [`RequestIdSource`], the
//! placement/sweep-order policies, and the merged response/fault streams.
//! Everything execution-local — compiled planes, CSS sequencer, queue
//! partition, tenant usage and stream registers — lives in the engine of
//! the shard hosting the tenant (see [`crate::engine`]).
//!
//! [`drain`](ShardedService::drain) plans every busy shard's sweep
//! sequentially (one owned `PlannedStep` per active context), evaluates
//! the steps on the [`ParallelExecutor`]'s persistent work-stealing pool
//! (shard-affine injector segments, so a skewed placement spreads instead
//! of serializing), and applies the results back **in merge-key order**
//! (shard, then sweep position, then lane) — so responses, faults and
//! billing are bit-for-bit identical to sequential execution at any
//! thread count; the thread count is a pure throughput knob
//! ([`set_threads`], or the `MCFPGA_THREADS` environment variable at
//! construction — see [`crate::executor`] for the env contract). The
//! lanes coalesced per pass are likewise a pure throughput knob
//! ([`set_lane_width`], up to 256).
//!
//! [`set_threads`]: ShardedService::set_threads
//! [`set_lane_width`]: ShardedService::set_lane_width

use crate::batch::{RequestId, RequestIdSource, Response};
use crate::engine::{eval_step, EvalOutcome, PlannedStep, ShardEngine, TenantState};
use crate::executor::{ExecutorConfig, ParallelExecutor};
use crate::placement::{best_slot, choose_energy_aware, netlist_fingerprint, PlacementPolicy};
use crate::registry::{Placement, PlaneCache, TenantId, TenantRegistry};
use crate::ServiceError;
use mcfpga_cost::attribution::{bill, render_billing, TenantBill, TenantUsage};
use mcfpga_css::optimize::{sweep_cost, CostMatrix, OptimizeMode};
use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::{LaneBatch, MAX_LANES};
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::{CompiledFabric, Fabric, FabricParams, LogicNetlist, RegisterFile, TileCoord};
use mcfpga_migrate::{MigrateError, PendingBatch, TenantCheckpoint};
use mcfpga_telemetry::{
    tenant_key, Counter, Gauge, Histogram, MetricClass, SpanEvent, SpanKind, Telemetry,
    ACTIVE_TENANTS_METRIC, QUEUE_DEPTH_METRIC,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Routing seed per context slot: admission is deterministic per slot, so
/// identical netlists admitted into same-index slots route identically and
/// share one cached compiled plane.
const SLOT_SEED: u64 = 0x5EED_0000;

/// Routing retry budget per admission.
const ROUTE_ATTEMPTS: usize = 16;

/// One slot's failed execution pass, recorded during a flush.
///
/// The slot's requests remain queued when this is raised; see
/// [`ShardedService::take_faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlotFault {
    /// The tenant whose batch failed.
    pub tenant: TenantId,
    /// Shard of the failing slot.
    pub shard: usize,
    /// Context of the failing slot.
    pub ctx: usize,
    /// What went wrong (typically an undriven bound input).
    pub error: ServiceError,
}

/// The service's telemetry handles. Deterministic class throughout
/// except the phase- and admission-timing histograms: every counter here
/// is bumped on the coordinating thread during the sequential plan/apply
/// phases (or in `submit`/`discard`, which are caller-sequenced), so the
/// values are bit-identical at any executor width and lane width.
#[derive(Debug, Clone)]
struct ServiceMetrics {
    /// Requests accepted by `submit`, sharded per shard.
    requests_submitted: Counter,
    /// Responses demuxed, sharded per shard.
    responses_total: Counter,
    /// Sweep steps applied, sharded per shard.
    steps_applied: Counter,
    /// Slot faults recorded.
    faults_total: Counter,
    /// Drain/flush pipeline runs.
    drains_total: Counter,
    /// Queued requests dropped by `discard_pending`.
    requests_discarded: Counter,
    /// Tenant moves (live migrations in, plus checkpoint restores).
    migrations: Counter,
    /// CSS broadcast toggles charged at plan time.
    css_toggles: Counter,
    /// Compiled ops in every applied pass's program (kernel or
    /// interpreter) — the denominator of the dirty-cone skip rate.
    fabric_ops_total: Counter,
    /// Ops skipped by dirty-cone incremental sweeps (clean input cone,
    /// cached chunks reused) — observationally equivalent to running.
    fabric_ops_skipped: Counter,
    /// Applied passes evaluated by the straight-line kernel (vs the
    /// reference interpreter).
    fabric_kernel_evals: Counter,
    /// Requests parked in lane batches right now.
    queue_depth: Gauge,
    /// Admitted, non-retired tenants.
    active_tenants: Gauge,
    /// Lanes served per applied step (log2 buckets).
    batch_lanes: Histogram,
    /// Wall-clock microseconds of the sequential plan phase.
    plan_us: Histogram,
    /// Wall-clock microseconds of the (possibly pooled) eval phase.
    eval_us: Histogram,
    /// Wall-clock microseconds of the sequential apply phase.
    apply_us: Histogram,
    /// Wall-clock microseconds admission spends in place & route.
    admit_route_us: Histogram,
    /// Wall-clock microseconds admission spends fetching or compiling its
    /// plane.
    admit_compile_us: Histogram,
}

impl ServiceMetrics {
    fn register(telemetry: &Telemetry, shards: usize) -> Self {
        let r = telemetry.registry();
        let det = MetricClass::Deterministic;
        let wall = MetricClass::WallClock;
        ServiceMetrics {
            requests_submitted: r.counter_sharded("service_requests_submitted", det, shards),
            responses_total: r.counter_sharded("service_responses_total", det, shards),
            steps_applied: r.counter_sharded("service_steps_applied", det, shards),
            faults_total: r.counter("service_faults_total", det),
            drains_total: r.counter("service_drains_total", det),
            requests_discarded: r.counter("service_requests_discarded", det),
            migrations: r.counter("service_migrations", det),
            css_toggles: r.counter("service_css_toggles", det),
            fabric_ops_total: r.counter("fabric_ops_total", det),
            fabric_ops_skipped: r.counter("fabric_ops_skipped", det),
            fabric_kernel_evals: r.counter("fabric_kernel_evals", det),
            queue_depth: r.gauge(QUEUE_DEPTH_METRIC, det),
            active_tenants: r.gauge(ACTIVE_TENANTS_METRIC, det),
            batch_lanes: r.histogram("service_batch_lanes", det),
            plan_us: r.histogram("service_plan_us", wall),
            eval_us: r.histogram("service_eval_us", wall),
            apply_us: r.histogram("service_apply_us", wall),
            admit_route_us: r.histogram("service_admit_route_us", wall),
            admit_compile_us: r.histogram("service_admit_compile_us", wall),
        }
    }
}

/// A multi-tenant batched execution runtime over `N` fabric shards.
///
/// See the [crate docs](crate) for the end-to-end picture and a runnable
/// example.
#[derive(Debug)]
pub struct ShardedService {
    params: FabricParams,
    tech: TechParams,
    registry: TenantRegistry,
    cache: PlaneCache,
    engines: Vec<ShardEngine>,
    executor: ParallelExecutor,
    /// The single service-global request-id counter (engines borrow it).
    ids: RequestIdSource,
    /// Merged responses, shard-then-lane order per flush.
    ready: Vec<Response>,
    /// Merged fault records, shard order per flush, oldest first.
    faults: Vec<SlotFault>,
    /// Sweep-ordering policy (see [`mcfpga_css::optimize`]).
    optimize: OptimizeMode,
    /// Admission slot-assignment policy.
    placement: PlacementPolicy,
    /// The arch's pairwise transition-toggle matrix — shared by the sweep
    /// optimizer, the baseline accounting and energy-aware placement.
    matrix: CostMatrix,
    /// Lanes coalesced per slot per pass (every engine queue is built at
    /// this width). Default [`MAX_LANES`].
    lane_width: usize,
    /// Netlist fingerprint → context index of its first admission: the
    /// plane-cache affinity hint energy-aware placement tie-breaks on.
    affinity: HashMap<u64, usize>,
    /// The service's observability surface: metric registry, span ring
    /// and virtual-clock cell (fed by whatever driver owns the clock).
    telemetry: Telemetry,
    /// Handles into `telemetry`'s registry — see [`ServiceMetrics`].
    metrics: ServiceMetrics,
}

/// Cloning forks the execution state but **not** the telemetry: the
/// clone gets a fresh registry/span ring (with gauges resynced and the
/// `executor_*` metrics re-registered there), so two services never
/// double-record into one registry. Matches the executor's own clone
/// isolation.
impl Clone for ShardedService {
    fn clone(&self) -> Self {
        let telemetry = Telemetry::with_trace_capacity(self.telemetry.trace_buffer().capacity());
        let metrics = ServiceMetrics::register(&telemetry, self.engines.len());
        let executor = self.executor.clone_on(telemetry.registry());
        let svc = ShardedService {
            params: self.params,
            tech: self.tech.clone(),
            registry: self.registry.clone(),
            cache: self.cache.clone(),
            engines: self.engines.clone(),
            executor,
            ids: self.ids.clone(),
            ready: self.ready.clone(),
            faults: self.faults.clone(),
            optimize: self.optimize,
            placement: self.placement,
            matrix: self.matrix.clone(),
            lane_width: self.lane_width,
            affinity: self.affinity.clone(),
            telemetry,
            metrics,
        };
        svc.sync_gauges();
        svc
    }
}

impl ShardedService {
    /// A service of `shards` fabrics, each shaped by `params`, with energy
    /// accounted under `tech`. Capacity is `shards × params.contexts`
    /// tenants. Sweeps are toggle-optimized ([`OptimizeMode::Optimized`] —
    /// output-equivalent to the naive order, never more energy) and
    /// admission is round-robin; see
    /// [`with_policies`](Self::with_policies) for the full policy surface.
    pub fn new(
        shards: usize,
        params: FabricParams,
        tech: TechParams,
    ) -> Result<Self, ServiceError> {
        Self::with_policies(
            shards,
            params,
            tech,
            OptimizeMode::Optimized,
            PlacementPolicy::RoundRobin,
        )
    }

    /// A service with explicit sweep-ordering and placement policies. The
    /// executor width comes from `MCFPGA_THREADS` (falling back to the
    /// machine's available parallelism); it never changes results, only
    /// wall-clock — see [`set_threads`](Self::set_threads).
    pub fn with_policies(
        shards: usize,
        params: FabricParams,
        tech: TechParams,
        optimize: OptimizeMode,
        placement: PlacementPolicy,
    ) -> Result<Self, ServiceError> {
        let registry = TenantRegistry::new(shards, params.contexts)?;
        let mut engines = Vec::with_capacity(shards);
        for shard in 0..shards {
            engines.push(ShardEngine::new(shard, params, MAX_LANES)?);
        }
        let matrix = engines[0].sequencer().cost_matrix();
        let telemetry = Telemetry::new();
        let metrics = ServiceMetrics::register(&telemetry, shards);
        let executor = ParallelExecutor::from_env_on(telemetry.registry());
        Ok(ShardedService {
            params,
            tech,
            registry,
            cache: PlaneCache::new(),
            engines,
            executor,
            ids: RequestIdSource::new(),
            ready: Vec::new(),
            faults: Vec::new(),
            optimize,
            placement,
            matrix,
            lane_width: MAX_LANES,
            affinity: HashMap::new(),
            telemetry,
            metrics,
        })
    }

    /// The active sweep-ordering policy.
    #[must_use]
    pub fn optimize_mode(&self) -> OptimizeMode {
        self.optimize
    }

    /// Switches the sweep-ordering policy. Takes effect on the next flush;
    /// already-queued requests are unaffected (any order is
    /// output-equivalent).
    pub fn set_optimize_mode(&mut self, mode: OptimizeMode) {
        self.optimize = mode;
    }

    /// The active placement policy.
    #[must_use]
    pub fn placement_policy(&self) -> PlacementPolicy {
        self.placement
    }

    /// Switches the placement policy for *future* admissions; existing
    /// tenants keep their slots.
    pub fn set_placement_policy(&mut self, policy: PlacementPolicy) {
        self.placement = policy;
    }

    /// Worker threads the next [`drain`](Self::drain) fans out across.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Sets the drain fan-out width. **Never changes output**: responses,
    /// faults and billing are applied in merge-key order whatever the
    /// width — `set_threads(1)` *is* the sequential execution, not an
    /// approximation of it. The previous executor's worker pool (if it
    /// had spawned) is joined here; the new pool spawns lazily on the
    /// next parallel drain.
    pub fn set_threads(&mut self, threads: usize) {
        // re-registers the `executor_*` metrics on this service's
        // registry, zeroing them — a new pool starts a new accounting era
        self.executor = ParallelExecutor::new_on(threads, self.telemetry.registry());
    }

    /// The executor's resolved width and its provenance (env variable,
    /// machine parallelism, or explicit) — including the rejected raw
    /// value when `MCFPGA_THREADS` was set but invalid.
    #[must_use]
    pub fn executor_config(&self) -> &ExecutorConfig {
        self.executor.config()
    }

    /// The service's telemetry surface: its metric registry (service
    /// counters/gauges/histograms plus the executor's `executor_*`
    /// accounting), its span ring buffer, and the virtual-clock cell the
    /// owning driver stamps spans with. Read-only handles are cheap to
    /// clone out of it.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Reconstructs one request's recorded lifecycle — queued → planned
    /// → evaluated → applied → demuxed (plus migration hops) — in
    /// canonical timeline order. Empty when the request's spans have
    /// aged out of the ring buffer (see the `trace_dropped` metric).
    #[must_use]
    pub fn trace(&self, request: RequestId) -> Vec<SpanEvent> {
        self.telemetry.trace(request.value())
    }

    /// Lanes coalesced per slot per pass (the auto-flush threshold).
    #[must_use]
    pub fn lane_width(&self) -> usize {
        self.lane_width
    }

    /// Sets how many requests one evaluation pass serves per slot
    /// (`1..=MAX_LANES`). **Never changes output** — a narrower width
    /// just flushes more often — but it may only change while no request
    /// is pending: every engine's queue partition is rebuilt at the new
    /// width (and every programmed slot re-seeded), which would silently
    /// drop queued lanes. Drain or discard first.
    pub fn set_lane_width(&mut self, width: usize) -> Result<(), ServiceError> {
        if width == 0 || width > MAX_LANES {
            return Err(ServiceError::BadConfig(format!(
                "lane width {width} outside 1..={MAX_LANES}"
            )));
        }
        if self.pending_requests() > 0 {
            return Err(ServiceError::BadConfig(
                "cannot change lane width while requests are pending; drain or discard first"
                    .into(),
            ));
        }
        for engine in &mut self.engines {
            engine.set_lane_width(width)?;
        }
        self.lane_width = width;
        Ok(())
    }

    /// Admits a tenant: assigns a `(shard, context)` slot under the active
    /// [`PlacementPolicy`], routes `netlist` into it, then reuses a cached
    /// compiled plane when the routed configuration's digest has been seen
    /// before (re-admitting an identical bitstream never recompiles).
    pub fn admit(&mut self, name: &str, netlist: &LogicNetlist) -> Result<TenantId, ServiceError> {
        let fingerprint = netlist_fingerprint(netlist);
        let placement = match self.placement {
            PlacementPolicy::RoundRobin => self.registry.reserve()?,
            PlacementPolicy::EnergyAware => choose_energy_aware(
                &self.registry,
                &self.matrix,
                self.affinity.get(&fingerprint).copied(),
            )?,
        };
        self.admit_into(name, netlist, placement)
    }

    /// [`admit`](Self::admit) into an **exact** free slot, bypassing the
    /// placement policy — the cluster router's admission primitive (it
    /// scores slots across *nodes*, something no single service can do,
    /// then pins the winner here). Routing, compilation, plane caching
    /// and registry commit are identical to a policy admission, so a
    /// pinned admission is bit-for-bit equivalent to a policy admission
    /// that happened to choose the same slot.
    pub fn admit_placed(
        &mut self,
        name: &str,
        netlist: &LogicNetlist,
        placement: Placement,
    ) -> Result<TenantId, ServiceError> {
        self.check_shard(placement.shard)?;
        if placement.ctx >= self.params.contexts {
            return Err(ServiceError::BadConfig(format!(
                "context {} outside 0..{}",
                placement.ctx, self.params.contexts
            )));
        }
        if self
            .registry
            .occupant(placement.shard, placement.ctx)
            .is_some()
        {
            return Err(ServiceError::BadConfig(format!(
                "slot (shard {}, ctx {}) is occupied",
                placement.shard, placement.ctx
            )));
        }
        self.admit_into(name, netlist, placement)
    }

    fn admit_into(
        &mut self,
        name: &str,
        netlist: &LogicNetlist,
        placement: Placement,
    ) -> Result<TenantId, ServiceError> {
        let fingerprint = netlist_fingerprint(netlist);
        let engine = &mut self.engines[placement.shard];
        let route_start = Instant::now();
        let routed = implement_netlist_robust(
            engine.fabric_mut(),
            netlist,
            placement.ctx,
            SLOT_SEED + placement.ctx as u64,
            ROUTE_ATTEMPTS,
        );
        self.metrics
            .admit_route_us
            .observe(route_start.elapsed().as_micros() as u64);
        if let Err(e) = routed {
            // leave the slot exactly as reserved: free and unconfigured
            engine.fabric_mut().clear_context(placement.ctx)?;
            return Err(e.into());
        }
        let digest = engine.fabric().context_digest(placement.ctx)?;
        let compile_start = Instant::now();
        let plane = self.cache.get_or_compile(digest, || {
            CompiledFabric::compile_context(engine.fabric(), placement.ctx)
        })?;
        self.metrics
            .admit_compile_us
            .observe(compile_start.elapsed().as_micros() as u64);
        engine.install_plane(placement.ctx, plane);
        let id = self.registry.commit(name, placement, digest);
        self.affinity.entry(fingerprint).or_insert(placement.ctx);
        let engine = &mut self.engines[placement.shard];
        engine.add_tenant(id);
        engine.seed_slot(placement.ctx)?;
        self.sync_gauges();
        Ok(id)
    }

    /// Submits one single-vector request for `tenant`. The request parks
    /// in its slot's lane batch; when the last of the slot's
    /// [`lane_width`](Self::lane_width) lanes fills, the slot executes
    /// immediately (on the caller's thread — a lane-full flush concerns
    /// one slot, so there is nothing to fan out) and its responses become
    /// available on the next [`drain`](Self::drain).
    ///
    /// Every input the tenant's plane binds must be driven —
    /// [`ServiceError::MissingInput`] otherwise. The check happens at
    /// submit, per request, because a batched pass evaluates the union of
    /// its lanes' input names: without it, a request omitting an input a
    /// sibling request supplies would silently compute with that input
    /// as 0. Extra names the plane does not bind are ignored. (The check
    /// rides the enqueue's own name-resolution scan — see
    /// [`LaneBatch::push_covering`](mcfpga_fabric::compiled::LaneBatch::push_covering)
    /// — so it costs no extra string comparisons.)
    ///
    /// If the lane-full auto-flush's pass fails, the request (and the rest
    /// of its batch) stays queued and a [`SlotFault`] is recorded; recover
    /// with a corrected retry of [`drain`](Self::drain) or
    /// [`discard_pending`](Self::discard_pending).
    pub fn submit(
        &mut self,
        tenant: TenantId,
        inputs: &[(&str, bool)],
    ) -> Result<RequestId, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let (id, full) =
            self.engines[placement.shard].submit(placement.ctx, tenant, inputs, &mut self.ids)?;
        self.metrics.requests_submitted.add_to(placement.shard, 1);
        let queued = self.engines[placement.shard].tickets(placement.ctx).len();
        self.telemetry
            .span(SpanKind::Queued, id.value(), queued as i64);
        if full {
            self.run_engine(placement.shard, &[(placement.ctx, tenant)])?;
        }
        self.sync_gauges();
        Ok(id)
    }

    /// Discards `tenant`'s queued, not-yet-executed requests, returning how
    /// many were dropped. The escape hatch for a poisoned batch (one whose
    /// flush keeps faulting); discarded requests never receive responses
    /// and are removed from the tenant's usage counters, so
    /// `vectors_per_pass` keeps reflecting requests actually served.
    pub fn discard_pending(&mut self, tenant: TenantId) -> Result<usize, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let dropped = self.engines[placement.shard].discard_pending(placement.ctx, tenant)?;
        self.metrics.requests_discarded.add(dropped as u64);
        self.sync_gauges();
        Ok(dropped)
    }

    /// Flushes every slot with pending work and returns all completed
    /// responses, including those from earlier lane-full auto-flushes.
    /// Each shard sweeps only its *active* contexts
    /// ([`mcfpga_css::Schedule::active_sweep`]), so idle tenants cost no
    /// broadcast toggles. Three phases:
    ///
    /// 1. **Plan** (sequential): every busy shard's CSS schedule is
    ///    stepped through and each active slot becomes one owned
    ///    `PlannedStep` tagged with its `(shard, sweep-position)` merge
    ///    key — switch toggles are charged here.
    /// 2. **Eval** (parallel): the steps — per-*context* tasks, not
    ///    per-shard chunks — go to the executor's persistent
    ///    work-stealing pool, keyed by shard affinity; a shard holding
    ///    every tenant still spreads across all workers. Evaluation is
    ///    pure, so execution order is free.
    /// 3. **Apply** (sequential, merge-key order): results are placed
    ///    back by task index, so responses, faults and billing land in
    ///    shard-then-sweep-position-then-lane order — bit-for-bit
    ///    identical at any thread count and any lane width.
    ///
    /// A slot whose pass fails (e.g. a request omitted one of its tenant's
    /// bound inputs) never blocks the others: its requests stay queued, a
    /// [`SlotFault`] is recorded (see [`take_faults`](Self::take_faults)),
    /// and the sweep continues — one tenant's malformed request cannot
    /// withhold other tenants' responses.
    pub fn drain(&mut self) -> Result<Vec<Response>, ServiceError> {
        let work: Result<Vec<Vec<(usize, TenantId)>>, ServiceError> = (0..self.engines.len())
            .map(|s| self.active_slots(s))
            .collect();
        self.drain_slots(work?)
    }

    /// Flushes **only** the listed tenants' slots (those with pending
    /// work), leaving every other tenant's partial batch accumulating —
    /// the partial-width flush entry point the QoS front-end
    /// ([`crate::frontend`]) uses to serve a latency-sensitive tenant
    /// before its deadline without forcing throughput tenants out of
    /// their lane-filling wait. Same three-phase plan → pooled eval →
    /// merge-key-ordered apply pipeline as [`drain`](Self::drain) (a
    /// multi-slot flush still fans out across the executor's worker
    /// pool), so the returned responses — including any buffered from
    /// earlier lane-full auto-flushes — are bit-for-bit identical at any
    /// thread count. Duplicate tenants in `tenants` flush once; tenants
    /// with nothing queued cost nothing.
    pub fn flush_tenants(&mut self, tenants: &[TenantId]) -> Result<Vec<Response>, ServiceError> {
        let mut work: Vec<Vec<(usize, TenantId)>> = vec![Vec::new(); self.engines.len()];
        for &tenant in tenants {
            let placement = self.registry.tenant(tenant)?.placement;
            if self.engines[placement.shard]
                .pending()
                .contains(&placement.ctx)
                && !work[placement.shard]
                    .iter()
                    .any(|&(ctx, _)| ctx == placement.ctx)
            {
                work[placement.shard].push((placement.ctx, tenant));
            }
        }
        for shard in &mut work {
            // plan in ascending context order, exactly as drain() sees them
            shard.sort_by_key(|&(ctx, _)| ctx);
        }
        self.drain_slots(work)
    }

    /// The shared body of [`drain`](Self::drain) and
    /// [`flush_tenants`](Self::flush_tenants): plans each shard's sweep
    /// over its `work` slots, evaluates on the pool, applies in merge-key
    /// order, and hands back every buffered response.
    fn drain_slots(
        &mut self,
        work: Vec<Vec<(usize, TenantId)>>,
    ) -> Result<Vec<Response>, ServiceError> {
        let mut steps = Vec::new();
        let mut errors: Vec<Option<ServiceError>> = vec![None; self.engines.len()];
        let toggles_before = self.total_css_toggles();
        let plan_start = Instant::now();
        for (shard, active) in work.iter().enumerate() {
            if !active.is_empty() {
                errors[shard] =
                    self.engines[shard].plan_sweep(active, self.optimize, &self.matrix, &mut steps);
            }
        }
        self.metrics
            .plan_us
            .observe(plan_start.elapsed().as_micros() as u64);
        self.metrics
            .css_toggles
            .add(self.total_css_toggles().saturating_sub(toggles_before));
        self.eval_and_apply(steps, &mut errors);
        self.metrics.drains_total.inc();
        self.sync_gauges();
        // a structural engine failure never drops executed work: every
        // planned step was still evaluated and applied above (consuming
        // its requests), and the first error in shard order is returned —
        // with the responses left buffered for the caller's retry
        if let Some(e) = errors.into_iter().flatten().next() {
            return Err(e);
        }
        Ok(std::mem::take(&mut self.ready))
    }

    /// Evaluates `steps` — on the persistent pool when both the executor
    /// width and the step count allow parallelism, inline otherwise (the
    /// two paths run the same `eval_step` on the same data) — then
    /// applies every result in task order, which **is** merge-key order:
    /// steps were planned shard by shard, each shard in sweep order.
    /// Apply errors are recorded per shard, never overwriting an earlier
    /// (plan-phase) error.
    fn eval_and_apply(&mut self, steps: Vec<PlannedStep>, errors: &mut [Option<ServiceError>]) {
        if steps.is_empty() {
            return;
        }
        type Evaluated = (PlannedStep, Result<EvalOutcome, ServiceError>);
        let eval_start = Instant::now();
        let results: Vec<Evaluated> = if self.executor.threads() > 1 && steps.len() > 1 {
            let tasks: Vec<(usize, PlannedStep)> =
                steps.into_iter().map(|s| (s.shard, s)).collect();
            self.executor.run_owned(
                tasks,
                Arc::new(|mut step: PlannedStep| {
                    let outs = eval_step(&mut step);
                    (step, outs)
                }),
            )
        } else {
            steps
                .into_iter()
                .map(|mut step| {
                    let outs = eval_step(&mut step);
                    (step, outs)
                })
                .collect()
        };
        self.metrics
            .eval_us
            .observe(eval_start.elapsed().as_micros() as u64);
        let apply_start = Instant::now();
        let mut prev_key = None;
        for (mut step, outs) in results {
            let key = (step.shard, step.pos);
            debug_assert!(
                prev_key < Some(key),
                "apply order violated the (shard, sweep-position) merge key: \
                 {prev_key:?} then {key:?}"
            );
            prev_key = Some(key);
            self.apply_step_traced(&mut step, outs, errors);
        }
        self.metrics
            .apply_us
            .observe(apply_start.elapsed().as_micros() as u64);
    }

    /// Applies one evaluated step, recording its telemetry: per-shard
    /// step/response counters, the served-lanes histogram, one
    /// planned→evaluated→applied→demuxed span quartet per demuxed
    /// response, and fault counters/spans for a failed apply. Runs on
    /// the coordinating thread in merge-key order, so every recording
    /// here is deterministic-class. Apply errors land in `errors` per
    /// shard, never overwriting an earlier (plan-phase) error.
    fn apply_step_traced(
        &mut self,
        step: &mut PlannedStep,
        outcome: Result<EvalOutcome, ServiceError>,
        errors: &mut [Option<ServiceError>],
    ) {
        let shard = step.shard;
        let ready_before = self.ready.len();
        let faults_before = self.faults.len();
        let result =
            self.engines[shard].apply_step(step, outcome, &mut self.ready, &mut self.faults);
        self.metrics.steps_applied.add_to(shard, 1);
        let result = match result {
            Ok(Some(stats)) => {
                self.metrics.fabric_ops_total.add(stats.ops_total);
                self.metrics.fabric_ops_skipped.add(stats.ops_skipped);
                if stats.kernel {
                    self.metrics.fabric_kernel_evals.inc();
                }
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => Err(e),
        };
        let served = self.ready.len() - ready_before;
        if served > 0 {
            self.metrics.responses_total.add_to(shard, served as u64);
            self.metrics.batch_lanes.observe(served as u64);
        }
        if self.telemetry.trace_buffer().is_enabled() {
            for resp in &self.ready[ready_before..] {
                let key = resp.request.value();
                // the whole drain shares one virtual-clock stamp; the span
                // ranks keep the phases ordered within the cycle
                self.telemetry.span(SpanKind::Planned, key, shard as i64);
                self.telemetry
                    .span(SpanKind::Evaluated, key, step.ctx as i64);
                self.telemetry.span(SpanKind::Applied, key, step.pos as i64);
                self.telemetry
                    .span(SpanKind::Demuxed, key, resp.outputs.len() as i64);
            }
        }
        let faulted = self.faults.len() - faults_before;
        if faulted > 0 {
            self.metrics.faults_total.add(faulted as u64);
            for fault in &self.faults[faults_before..] {
                self.telemetry.span(
                    SpanKind::Fault,
                    tenant_key(fault.tenant.index()),
                    fault.shard as i64,
                );
            }
        }
        if let Err(e) = result {
            if errors[shard].is_none() {
                errors[shard] = Some(e);
            }
        }
    }

    /// The `(context, occupant)` slots of `shard` holding pending work —
    /// the coordinator resolves occupancy *before* the fan-out so engines
    /// never touch the registry concurrently.
    fn active_slots(&self, shard: usize) -> Result<Vec<(usize, TenantId)>, ServiceError> {
        self.engines[shard]
            .pending()
            .into_iter()
            .map(|ctx| {
                self.registry
                    .occupant(shard, ctx)
                    .map(|t| (ctx, t))
                    .ok_or(ServiceError::SlotNotProgrammed { shard, ctx })
            })
            .collect()
    }

    /// Runs one shard's sweep inline (the lane-full auto-flush path):
    /// same plan → eval → apply pipeline as [`drain`](Self::drain), minus
    /// the pool — a single slot just flushed, so fan-out buys nothing.
    fn run_engine(
        &mut self,
        shard: usize,
        active: &[(usize, TenantId)],
    ) -> Result<(), ServiceError> {
        let mut steps = Vec::new();
        let mut errors: Vec<Option<ServiceError>> = vec![None; self.engines.len()];
        let toggles_before = self.total_css_toggles();
        errors[shard] =
            self.engines[shard].plan_sweep(active, self.optimize, &self.matrix, &mut steps);
        self.metrics
            .css_toggles
            .add(self.total_css_toggles().saturating_sub(toggles_before));
        for mut step in steps {
            let outs = eval_step(&mut step);
            self.apply_step_traced(&mut step, outs, &mut errors);
        }
        errors.into_iter().flatten().next().map_or(Ok(()), Err)
    }

    /// Resyncs the point-in-time gauges with the structures they mirror.
    /// Called wherever queue depth or tenancy changes; cheap (sums one
    /// counter per engine).
    fn sync_gauges(&self) {
        self.metrics.queue_depth.set(self.pending_requests() as i64);
        self.metrics.active_tenants.set(self.registry.len() as i64);
    }

    /// Every live tenant's accumulated CSS broadcast toggles — the
    /// before/after delta around a plan phase is the sweep's toggle
    /// charge, mirrored into the `service_css_toggles` counter.
    fn total_css_toggles(&self) -> u64 {
        self.registry
            .iter()
            .map(|(id, rec)| {
                self.engines[rec.placement.shard]
                    .tenant_state(id)
                    .map(|s| s.usage.css_toggles as u64)
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Removes and returns the per-slot execution faults recorded since the
    /// last call, oldest first. Each faulted slot's requests are still
    /// queued: fix and [`drain`](Self::drain) again, or
    /// [`discard_pending`](Self::discard_pending) the poisoned batch.
    pub fn take_faults(&mut self) -> Vec<SlotFault> {
        std::mem::take(&mut self.faults)
    }

    /// Chaos-testing hook: swaps `tenant`'s compiled plane for one whose
    /// bound output can never resolve, so the slot's next pass fails and
    /// surfaces as a [`SlotFault`] (requests stay queued, exactly as for a
    /// real plane corruption). The tenant's routed fabric configuration is
    /// untouched — [`repair_plane`](Self::repair_plane) restores service.
    pub fn inject_plane_fault(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        let mut broken = Fabric::new(self.params)?;
        broken.bind_output(TileCoord { x: 0, y: 0 }, 0, placement.ctx, "poisoned")?;
        self.engines[placement.shard].install_plane(
            placement.ctx,
            Arc::new(CompiledFabric::compile_context(&broken, placement.ctx)?),
        );
        Ok(())
    }

    /// Restores `tenant`'s true compiled plane after
    /// [`inject_plane_fault`](Self::inject_plane_fault) (or any plane
    /// corruption), by digest: the admission-time digest recorded in the
    /// registry finds the cached plane — rebased to the tenant's current
    /// slot if a migration moved it off its admission context — and a
    /// cache miss recompiles from the tenant's still-routed fabric
    /// configuration. A *migrated* tenant has no routed configuration to
    /// recompile from (only the plane travelled), so for it a cache miss
    /// is [`MigrateError::PlaneUnavailable`] rather than a silent compile
    /// of an empty context. Queued requests survive and serve normally on
    /// the next flush.
    pub fn repair_plane(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let record = self.registry.tenant(tenant)?;
        let placement = record.placement;
        let digest = record.digest;
        let plane = if record.resident {
            let engine = &self.engines[placement.shard];
            self.cache.get_or_compile(digest, || {
                CompiledFabric::compile_context(engine.fabric(), placement.ctx)
            })?
        } else {
            self.cache
                .get(digest)
                .ok_or(MigrateError::PlaneUnavailable { digest })?
        };
        let plane = self.plane_for_slot(plane, placement.ctx)?;
        let engine = &mut self.engines[placement.shard];
        engine.install_plane(placement.ctx, plane);
        // re-establish the canonical submit-coverage prefix from the true
        // plane: a migration or discard that happened *while* the slot held
        // a corrupted plane seeded from that plane's (empty) binds, and
        // without this the repaired tenant would accept under-driven
        // requests and silently evaluate the omissions as 0
        engine.seed_slot(placement.ctx)?;
        Ok(())
    }

    /// `plane`, usable from context `ctx` of *this* service's fabrics:
    /// as-is when it was compiled there, rebased otherwise (compiled
    /// planes are context-independent; see
    /// [`CompiledFabric::rebase_context`]). A plane compiled on a smaller
    /// compatible geometry — a checkpoint restored from a differently
    /// shaped node — is pad-and-remapped onto this service's geometry via
    /// [`CompiledFabric::rebase_onto`].
    fn plane_for_slot(
        &self,
        plane: Arc<CompiledFabric>,
        ctx: usize,
    ) -> Result<Arc<CompiledFabric>, ServiceError> {
        if plane.params() != &self.params {
            Ok(Arc::new(plane.rebase_onto(self.params, ctx)?))
        } else if plane.compiled_context() == Some(ctx) {
            Ok(plane)
        } else {
            Ok(Arc::new(plane.rebase_context(ctx)?))
        }
    }

    /// Can a checkpoint taken on a `ckpt`-shaped fabric be restored onto
    /// this service's fabrics? Tiles must have identical resource shapes
    /// (same switch architecture, LUT arity, channel width and IO counts)
    /// and the host grid must be at least as large in both dimensions —
    /// the pad-and-remap embedding of [`CompiledFabric::rebase_onto`].
    /// Context counts may differ freely: a restored plane occupies
    /// whatever slot the host has free.
    fn geometry_admits(&self, ckpt: &FabricParams) -> bool {
        let host = &self.params;
        host.arch == ckpt.arch
            && host.lut_k == ckpt.lut_k
            && host.channel_width == ckpt.channel_width
            && host.io_in == ckpt.io_in
            && host.io_out == ckpt.io_out
            && host.width >= ckpt.width
            && host.height >= ckpt.height
    }

    fn check_shard(&self, shard: usize) -> Result<(), ServiceError> {
        if shard >= self.engines.len() {
            return Err(ServiceError::NoSuchShard {
                shard,
                shards: self.engines.len(),
            });
        }
        Ok(())
    }

    /// Modeled broadcast toggles the destination shard's sweeps gain when
    /// `ctx` joins its occupied set — the migration's realignment charge.
    /// `vacating` is the slot the mover is leaving: for an intra-shard
    /// move it sits on the destination shard but will not be occupied
    /// after the move, so it is excluded from both sweeps.
    fn join_cost(
        &self,
        dst_shard: usize,
        ctx: usize,
        vacating: Option<Placement>,
    ) -> Result<usize, ServiceError> {
        let mut occupied = self.registry.occupied_contexts(dst_shard);
        occupied.retain(|&c| {
            c != ctx
                && vacating
                    != Some(Placement {
                        shard: dst_shard,
                        ctx: c,
                    })
        });
        let start = self.engines[dst_shard].css_position();
        let before = sweep_cost(&self.matrix, Some(start), &occupied)?;
        occupied.push(ctx);
        let after = sweep_cost(&self.matrix, Some(start), &occupied)?;
        Ok(after.saturating_sub(before))
    }

    /// Snapshots `tenant` at the current context-switch boundary: the
    /// plane-cache digest of its configuration, its stream-register file,
    /// its queued-but-unexecuted requests (exact lane words), the source
    /// engine's CSS sweep position and its usage counters — everything a
    /// destination needs to resume it bit-for-bit (see
    /// [`mcfpga_migrate`]). Non-destructive: the tenant keeps serving.
    ///
    /// The service API is synchronous, so every call site *is* a boundary:
    /// no pass is ever mid-flight here (the parallel executor only runs
    /// inside [`drain`](Self::drain), which has returned by the time any
    /// checkpoint can be taken). Requests that already executed are not
    /// part of the checkpoint — their responses live in the source's
    /// [`drain`](Self::drain) buffer; what moves is exactly the
    /// not-yet-served work.
    pub fn checkpoint_tenant(&self, tenant: TenantId) -> Result<TenantCheckpoint, ServiceError> {
        let record = self.registry.tenant(tenant)?;
        let placement = record.placement;
        let engine = &self.engines[placement.shard];
        let pending = match engine.pending_batch(placement.ctx) {
            Some(batch) => PendingBatch {
                lanes: batch.len(),
                inputs: batch
                    .lane_inputs()
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v))
                    .collect(),
                requests: engine
                    .tickets(placement.ctx)
                    .iter()
                    .map(|(r, _)| r.value())
                    .collect(),
            },
            None => PendingBatch::default(),
        };
        let state = engine.tenant_state(tenant)?;
        Ok(TenantCheckpoint {
            name: record.name.clone(),
            digest: record.digest,
            params: self.params,
            ctx: placement.ctx,
            css_position: engine.css_position(),
            pending,
            regs: state.regs.clone(),
            usage: state.usage,
        })
    }

    /// Admits a checkpointed tenant onto `dst_shard` as a **new** tenant:
    /// the compiled plane is resolved from the plane cache by digest
    /// (rebased if the free slot differs from the checkpoint's context),
    /// the register file resumes where the last pass left it, and the
    /// pending lane words re-enter the queue unchanged — so its responses
    /// are bit-for-bit what the source would have produced. Returns the
    /// new id and a *fresh* request id per restored pending lane (in lane
    /// order): ids recorded in the checkpoint are never reissued, so a
    /// stale checkpoint cannot resurrect requests answered or discarded
    /// after it was taken.
    ///
    /// Geometry does **not** have to match exactly: a checkpoint taken on
    /// a smaller fabric restores onto a larger host of the same tile
    /// shape (same architecture, LUT arity, channel width, IO counts) by
    /// pad-and-remapping its plane — see [`CompiledFabric::rebase_onto`].
    /// Fails with [`MigrateError::GeometryMismatch`] only when the
    /// geometries are truly incompatible, with
    /// [`MigrateError::PlaneUnavailable`] when no plane with the
    /// checkpoint's digest is cached (checkpoints ship digests, not
    /// bitstreams — see [`provision_plane`](Self::provision_plane) for
    /// the recompile fallback), and with [`MigrateError::NoFreeSlot`]
    /// when `dst_shard` is full.
    pub fn restore_tenant(
        &mut self,
        ckpt: &TenantCheckpoint,
        dst_shard: usize,
    ) -> Result<(TenantId, Vec<RequestId>), ServiceError> {
        self.check_shard(dst_shard)?;
        if !self.geometry_admits(&ckpt.params) {
            return Err(MigrateError::GeometryMismatch {
                expected: format!("{:?}", self.params),
                found: format!("{:?}", ckpt.params),
            }
            .into());
        }
        let slot = best_slot(&self.registry, &self.matrix, Some(ckpt.ctx), |p| {
            p.shard == dst_shard
        })?
        .ok_or(MigrateError::NoFreeSlot { shard: dst_shard })?;
        let plane = self
            .cache
            .get(ckpt.digest)
            .ok_or(MigrateError::PlaneUnavailable {
                digest: ckpt.digest,
            })?;
        let plane = self.plane_for_slot(plane, slot.ctx)?;
        let batch = LaneBatch::from_parts(
            self.lane_width,
            ckpt.pending.lanes,
            ckpt.pending.inputs.clone(),
        )?;
        // an idle destination shard adopts the checkpointed CSS sweep
        // position: its broadcast resumes where the source's sat at the
        // boundary, so subsequent sweeps are planned and charged from the
        // same state (a shard with resident tenants keeps its own position
        // — realigning it would falsify *their* accounting); a checkpoint
        // from a deeper-context fabric may carry a position this host
        // doesn't have, in which case the host keeps its own
        if self.registry.occupied_contexts(dst_shard).is_empty()
            && ckpt.css_position < self.params.contexts
        {
            self.engines[dst_shard].resume_css_at(ckpt.css_position)?;
        }
        let realign = self.join_cost(dst_shard, slot.ctx, None)?;

        // all fallible steps done — commit the restore
        let id = self.registry.commit_restored(&ckpt.name, slot, ckpt.digest);
        let mut usage = ckpt.usage;
        usage.migrations += 1;
        usage.migration_bytes += ckpt.encoded_len();
        usage.migration_downtime_cycles += 1 + ckpt.pending.lanes;
        usage.migration_css_toggles += realign;
        let engine = &mut self.engines[dst_shard];
        engine.add_tenant_with(
            id,
            TenantState {
                usage,
                regs: ckpt.regs.clone(),
            },
        );
        engine.install_plane(slot.ctx, plane);
        engine.seed_slot(slot.ctx)?;
        // install the pending batch only when it holds work: a lane-less
        // checkpoint carries no union names (its source slot read as
        // empty), and overwriting the freshly seeded batch with it would
        // erase the canonical prefix the coverage check depends on
        let fresh = if ckpt.pending.lanes > 0 {
            self.engines[dst_shard].restore_batch(slot.ctx, batch, id, &mut self.ids)
        } else {
            Vec::new()
        };
        self.metrics.migrations.inc();
        // cross-node hop spans are the *cluster's* to record: it alone
        // knows both the source node and the old↔new request-id mapping
        self.sync_gauges();
        Ok((id, fresh))
    }

    /// Exports the compiled plane cached under `digest` for shipping to
    /// another service instance — the transfer half of a cross-node
    /// migration (checkpoints themselves carry only the digest). Does not
    /// touch the cache's hit/miss counters.
    #[must_use]
    pub fn export_plane(&self, digest: u64) -> Option<Arc<CompiledFabric>> {
        self.cache.peek(digest)
    }

    /// Imports a plane shipped from another service instance into this
    /// one's cache, so a subsequent [`restore_tenant`](Self::restore_tenant)
    /// of a checkpoint carrying `digest` finds it even though this node
    /// never routed the design. The exporter vouches that `digest` is the
    /// plane's admission-time [`Fabric::context_digest`].
    pub fn import_plane(&mut self, digest: u64, plane: Arc<CompiledFabric>) {
        self.cache.insert(digest, plane);
    }

    /// Re-provisions the compiled plane a checkpoint demands on a node
    /// that never saw the design — the recompile-at-destination fallback
    /// for the cold-cache [`MigrateError::PlaneUnavailable`] dead end
    /// (e.g. the source node died before its plane could be exported).
    ///
    /// The checkpoint's digest covers the *routed configuration*, and
    /// admission routing is a pure function of `(netlist, geometry, ctx,
    /// SLOT_SEED + ctx)`: the annealer draws from an RNG seeded per slot,
    /// the maze router expands sinks in crossbar order and seeds each
    /// fanout branch from its net's wires in claim order, and routing into
    /// `ctx` reads no other context's configuration. So routing `netlist`
    /// on a scratch fabric of the checkpoint's own geometry reproduces the
    /// original configuration exactly — the digest proves it. Each context is
    /// tried (a tenant that migrated between admission and checkpoint
    /// carries a context index different from the one it was routed in);
    /// the first digest match is compiled and cached, after which
    /// [`restore_tenant`](Self::restore_tenant) proceeds normally. If no
    /// context reproduces the digest the netlist is not the checkpointed
    /// design and [`MigrateError::NetlistDigestMismatch`] refuses to
    /// provision it. No-op when the digest is already cached.
    ///
    /// `params` is the geometry the design was *admitted* on (the
    /// digest covers geometry too); for a tenant that never crossed
    /// geometries this is just `ckpt.params`.
    pub fn provision_plane(
        &mut self,
        digest: u64,
        netlist: &LogicNetlist,
        params: FabricParams,
    ) -> Result<(), ServiceError> {
        if self.cache.contains(digest) {
            return Ok(());
        }
        for ctx in 0..params.contexts {
            let mut scratch = Fabric::new(params)?;
            if implement_netlist_robust(
                &mut scratch,
                netlist,
                ctx,
                SLOT_SEED + ctx as u64,
                ROUTE_ATTEMPTS,
            )
            .is_err()
            {
                continue;
            }
            if scratch.context_digest(ctx)? == digest {
                let plane = CompiledFabric::compile_context(&scratch, ctx)?;
                self.cache.insert(digest, Arc::new(plane));
                return Ok(());
            }
        }
        Err(MigrateError::NetlistDigestMismatch { digest }.into())
    }

    /// Removes `tenant` from this service for good — the source-side end
    /// of a cross-node migration, called **after** the destination's
    /// [`restore_tenant`](Self::restore_tenant) succeeded. The engine
    /// surrenders the tenant's state and queued lanes (the checkpoint
    /// already carried them to the destination), a resident routed
    /// configuration is wiped, its recorded faults are dropped, and the
    /// slot frees for re-admission. The id is never reissued.
    pub fn retire_tenant(&mut self, tenant: TenantId) -> Result<(), ServiceError> {
        let record = self.registry.tenant(tenant)?;
        let placement = record.placement;
        let resident = record.resident;
        let _ = self.engines[placement.shard].expel(tenant, placement.ctx, resident)?;
        self.registry.retire(tenant)?;
        self.faults.retain(|f| f.tenant != tenant);
        self.sync_gauges();
        Ok(())
    }

    /// Live-migrates `tenant` to a free slot on `dst_shard`, preserving
    /// its request ids: the pending lane batch, register file, compiled
    /// plane (rebased if the slot index changes) and recorded faults all
    /// move, the source context is wiped, and the tenant resumes
    /// bit-for-bit — every in-flight request is still answered exactly
    /// once. The slot is chosen like an energy-aware admission (cheapest
    /// marginal sweep cost, ties toward the same context index to avoid a
    /// rebase). Migration overhead — checkpoint bytes, downtime cycles,
    /// destination realignment toggles — is billed to the tenant (see
    /// [`mcfpga_cost::attribution`]). `dst_shard` may be the tenant's own
    /// shard (an intra-shard slot move).
    pub fn migrate_tenant(
        &mut self,
        tenant: TenantId,
        dst_shard: usize,
    ) -> Result<Placement, ServiceError> {
        self.check_shard(dst_shard)?;
        let src = self.registry.tenant(tenant)?.placement;
        let dst = best_slot(&self.registry, &self.matrix, Some(src.ctx), |p| {
            p.shard == dst_shard
        })?
        .ok_or(MigrateError::NoFreeSlot { shard: dst_shard })?;
        self.migrate_to_slot(tenant, dst)
    }

    /// The migration mechanics, to an exact free destination slot: an
    /// explicit engine-to-engine handoff — `expel` on the source engine
    /// surrenders the tenant's state, plane slot and queued lanes;
    /// `adopt` on the destination installs them.
    /// The two calls are sequenced by the coordinator (never concurrent
    /// with a drain), and work unchanged when source and destination are
    /// the same engine (an intra-shard slot move).
    fn migrate_to_slot(
        &mut self,
        tenant: TenantId,
        dst: Placement,
    ) -> Result<Placement, ServiceError> {
        let record = self.registry.tenant(tenant)?;
        let src = record.placement;
        let resident = record.resident;
        // the checkpoint is what conceptually crosses the wire: its
        // encoded size is the migration's bytes-moved bill
        let ckpt = self.checkpoint_tenant(tenant)?;
        let plane =
            self.engines[src.shard]
                .plane(src.ctx)
                .ok_or(ServiceError::SlotNotProgrammed {
                    shard: src.shard,
                    ctx: src.ctx,
                })?;
        // rebase before any mutation, so an error leaves the service intact
        let plane = self.plane_for_slot(plane, dst.ctx)?;
        let realign = self.join_cost(dst.shard, dst.ctx, Some(src))?;
        self.registry.relocate(tenant, dst)?;

        // point of no return: the cross-engine handoff
        let handoff = self.engines[src.shard].expel(tenant, src.ctx, resident)?;
        self.engines[dst.shard].adopt(tenant, dst.ctx, plane, handoff)?;
        // recorded faults describe the tenant's slot; the slot moved
        for fault in &mut self.faults {
            if fault.tenant == tenant {
                fault.shard = dst.shard;
                fault.ctx = dst.ctx;
            }
        }
        let usage = &mut self.engines[dst.shard].tenant_state_mut(tenant)?.usage;
        usage.migrations += 1;
        usage.migration_bytes += ckpt.encoded_len();
        usage.migration_downtime_cycles += 1 + ckpt.pending.lanes;
        usage.migration_css_toggles += realign;
        self.metrics.migrations.inc();
        // every in-flight request hops with its tenant: one span each,
        // keyed by the (preserved) request id, detail = source shard
        for &raw in &ckpt.pending.requests {
            self.telemetry
                .span(SpanKind::MigrationHop, raw, src.shard as i64);
        }
        self.sync_gauges();
        Ok(dst)
    }

    /// Migrates **every** tenant off `shard` — the fault-evacuation /
    /// rebalancing primitive. Destinations are chosen per tenant by the
    /// same energy-aware scoring as admission, restricted to the other
    /// shards. All-or-nothing feasibility: if the rest of the pool cannot
    /// absorb every resident tenant, nothing moves and
    /// [`MigrateError::EvacuationBlocked`] reports the shortfall. Returns
    /// `(tenant, new placement)` per move, in source context order.
    pub fn evacuate_shard(
        &mut self,
        shard: usize,
    ) -> Result<Vec<(TenantId, Placement)>, ServiceError> {
        self.check_shard(shard)?;
        let tenants: Vec<TenantId> = self
            .registry
            .occupied_contexts(shard)
            .into_iter()
            .filter_map(|ctx| self.registry.occupant(shard, ctx))
            .collect();
        let free_elsewhere = self
            .registry
            .free_slots()
            .into_iter()
            .filter(|p| p.shard != shard)
            .count();
        if free_elsewhere < tenants.len() {
            return Err(MigrateError::EvacuationBlocked {
                tenants: tenants.len(),
                free_elsewhere,
            }
            .into());
        }
        let mut moved = Vec::with_capacity(tenants.len());
        for tenant in tenants {
            let src_ctx = self.registry.tenant(tenant)?.placement.ctx;
            let dst = best_slot(&self.registry, &self.matrix, Some(src_ctx), |p| {
                p.shard != shard
            })?
            .expect("feasibility prechecked: a free off-shard slot exists");
            moved.push((tenant, self.migrate_to_slot(tenant, dst)?));
        }
        Ok(moved)
    }

    /// One tenant's stream-register file (`reg:*` state carried between
    /// its passes). Empty for purely combinational tenants.
    pub fn register_file(&self, tenant: TenantId) -> Result<&RegisterFile, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        Ok(&self.engines[placement.shard].tenant_state(tenant)?.regs)
    }

    /// Raw usage counters of one tenant (owned by its shard's engine).
    pub fn usage(&self, tenant: TenantId) -> Result<TenantUsage, ServiceError> {
        let placement = self.registry.tenant(tenant)?.placement;
        Ok(self.engines[placement.shard].tenant_state(tenant)?.usage)
    }

    /// One tenant's usage billed in physical units.
    pub fn bill(&self, tenant: TenantId) -> Result<TenantBill, ServiceError> {
        Ok(bill(&self.usage(tenant)?, &self.tech))
    }

    /// Markdown billing table over every admitted tenant, admission order.
    #[must_use]
    pub fn billing_report(&self) -> String {
        let rows: Vec<(String, TenantUsage)> = self
            .registry
            .iter()
            .map(|(id, rec)| {
                // every registered tenant has state in its placement
                // engine (admission/restore add it, migration hands it
                // off); a miss is a registry/engine desync — fail loudly
                // in tests instead of rendering a plausible zero row
                let state = self.engines[rec.placement.shard].tenant_state(id);
                debug_assert!(
                    state.is_ok(),
                    "tenant {id} registered on shard {} but unknown to its engine",
                    rec.placement.shard
                );
                (rec.name.clone(), state.map(|s| s.usage).unwrap_or_default())
            })
            .collect();
        render_billing(&rows, &self.tech)
    }

    /// The tenant registry (placements, digests, occupancy).
    #[must_use]
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// The compiled-plane cache (hit/miss counters). Planes are
    /// `Arc`-shared: every engine slot and every re-admission of the same
    /// digest points at one compiled plane.
    #[must_use]
    pub fn cache(&self) -> &PlaneCache {
        &self.cache
    }

    /// The per-shard engines, read-only (diagnostics; shard index ==
    /// slice index).
    #[must_use]
    pub fn engines(&self) -> &[ShardEngine] {
        &self.engines
    }

    /// Requests parked in lane batches, not yet executed.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.engines.iter().map(ShardEngine::pending_requests).sum()
    }

    /// Number of fabric shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// The shared fabric geometry of every shard.
    #[must_use]
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// The technology parameters billing is rendered against.
    #[must_use]
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// The CSS transition-cost matrix placement scoring runs against —
    /// shared with the cluster router so cross-node slot comparisons use
    /// exactly the scoring a local admission would (see
    /// [`crate::placement::best_slot_scored`]).
    #[must_use]
    pub fn cost_matrix(&self) -> &CostMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_fabric::netlist_ir::generators;

    /// Submit-time validation makes undriven-input passes unreachable
    /// through the public API, so the fault path is exercised by swapping a
    /// tenant's compiled plane for one whose bound output can never
    /// resolve — the runtime-failure class [`SlotFault`] exists for.
    #[test]
    fn faulted_slot_keeps_requests_and_spares_other_tenants() {
        let params = FabricParams::default();
        let mut svc = ShardedService::new(1, params, TechParams::default()).unwrap();
        let wire = generators::wire_lanes(1).unwrap();
        let bad = svc.admit("bad", &wire).unwrap(); // ctx 0
        let good = svc.admit("good", &wire).unwrap(); // ctx 1

        // sabotage: a plane with an output bound but never driven
        svc.inject_plane_fault(bad).unwrap();

        // the broken plane binds no inputs, so any request passes validation
        svc.submit(bad, &[("in0", true)]).unwrap();
        let ok_req = svc.submit(good, &[("in0", true)]).unwrap();

        // the healthy tenant is served; the faulted batch stays queued
        let responses = svc.drain().unwrap();
        assert_eq!(responses.len(), 1, "bad slot must not block the good one");
        assert_eq!(responses[0].request, ok_req);
        let faults = svc.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].tenant, bad);
        assert_eq!((faults[0].shard, faults[0].ctx), (0, 0));
        assert!(matches!(faults[0].error, ServiceError::Fabric(_)));
        assert_eq!(svc.pending_requests(), 1, "failed pass drops no requests");
        assert_eq!(svc.usage(bad).unwrap().passes, 0, "no successful pass");

        // the switch *into* the failing context is still charged: the CSS
        // broadcast spent that energy whether or not the pass resolved
        let toggles_before = svc.usage(bad).unwrap().css_toggles;
        assert!(svc.drain().unwrap().is_empty());
        assert_eq!(svc.take_faults().len(), 1);
        assert!(
            svc.usage(bad).unwrap().css_toggles > toggles_before,
            "sequencer sat on ctx 1, so re-entering ctx 0 toggles lines"
        );

        // explicit recovery
        assert_eq!(svc.discard_pending(bad).unwrap(), 1);
        assert_eq!(svc.pending_requests(), 0);
        assert!(svc.drain().unwrap().is_empty());
        assert!(svc.take_faults().is_empty());
    }

    /// The same seeded traffic must produce identical responses, faults
    /// and billing at every executor width — the merge-order invariant,
    /// exercised at the unit level (the stress replay covers it at scale).
    #[test]
    fn drain_output_is_independent_of_thread_count() {
        let run = |threads: usize| {
            let params = FabricParams::default();
            let mut svc = ShardedService::new(4, params, TechParams::default()).unwrap();
            svc.set_threads(threads);
            assert_eq!(svc.threads(), threads.max(1));
            let parity = generators::parity_tree(3).unwrap();
            let wire = generators::wire_lanes(1).unwrap();
            let tenants: Vec<TenantId> = (0..8)
                .map(|i| {
                    let nl = if i % 2 == 0 { &parity } else { &wire };
                    svc.admit(&format!("t{i}"), nl).unwrap()
                })
                .collect();
            let mut responses = Vec::new();
            for round in 0..5 {
                for (i, t) in tenants.iter().enumerate() {
                    let v = (round + i) % 2 == 0;
                    if i % 2 == 0 {
                        svc.submit(*t, &[("x0", v), ("x1", !v), ("x2", v)]).unwrap();
                    } else {
                        svc.submit(*t, &[("in0", v)]).unwrap();
                    }
                }
                responses.extend(svc.drain().unwrap());
            }
            (responses, svc.billing_report())
        };
        let baseline = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }
}
