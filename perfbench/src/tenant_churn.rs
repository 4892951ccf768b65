//! `tenant_churn` — a `ShardedService` (4 shards × 4 contexts, 8×8) with
//! spare slots, running rounds of: a short request burst over every
//! resident tenant, `retire_tenant` of a seeded victim, `admit` of a
//! design drawn from a seeded pool (some designs repeat, so the plane
//! cache both hits and misses), a few requests queued on the newcomer,
//! and `migrate_tenant` of the newcomer to another shard, carrying those
//! queued lanes. Place & route, compile/bind, the plane cache and
//! checkpoint/restore dominate; the bursts are timed on their own.

use crate::common::{
    draw_bits, end_to_end, fabric_params, fabric_probe, layer_pct, pct, provenance, ratio, sampled,
    secs, service, setup_median, start_window, Design, HostTimes, ServiceCounters, Split, EPOCHS,
};
use crate::reference::{at_nominal, Reference};
use crate::stats::Hist;
use crate::trace::Tracer;
use crate::{collect, Config, Outcome, PER_LAYER};
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricError;
use mcfpga_migrate::TenantCheckpoint;
use mcfpga_service::{RequestId, ShardedService, TenantId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

const SHARDS: usize = 4;
/// Tenants resident between rounds: half the 16 slots, so every shard
/// keeps a free slot to migrate into.
const RESIDENT: usize = 8;
/// Requests per burst, spread round-robin over the residents.
const BURST: usize = 512;
/// Requests queued on the newcomer before it migrates.
const CARGO: usize = 16;
/// Rounds per requested second over all epochs (fixed work, calibrated
/// on a 2-core host).
const ROUNDS_PER_SECOND: f64 = 40.0;

/// The admission pool: twelve designs, drawn with repeats.
fn pool() -> Result<Vec<Design>, FabricError> {
    use generators::{equality_comparator as cmp, parity_tree as par, ripple_adder as add};
    let nets = [
        ("cmp6", cmp(6)?),
        ("cmp8", cmp(8)?),
        ("cmp10", cmp(10)?),
        ("cmp12", cmp(12)?),
        ("par8", par(8)?),
        ("par12", par(12)?),
        ("par16", par(16)?),
        ("add4", add(4)?),
        ("add6", add(6)?),
        ("mux3", generators::mux_tree(3)?),
        ("pop4", generators::popcount4()?),
        ("cmp14", cmp(14)?),
    ];
    Ok(nets.into_iter().map(|(n, nl)| Design::new(n, nl)).collect())
}

/// The churning service and the client's view of it.
struct Churn<'a> {
    pool: &'a [Design],
    svc: ShardedService,
    /// Resident tenants and the pool index of their design.
    resident: Vec<(TenantId, usize)>,
    /// Requests in flight: id → (pool index, bits, submit time ns, timed).
    inflight: HashMap<RequestId, (usize, u64, u64, bool)>,
    rng: StdRng,
    origin: Instant,
    seed: u64,
    submitted: u64,
    answered: u64,
    wrong: u64,
    checked: u64,
    failed: u64,
    attempted: u64,
}

impl<'a> Churn<'a> {
    /// Builds the service, admits the first [`RESIDENT`] designs of the
    /// pool (the same every time, so set-up does fixed work) and warms up
    /// with one burst. `seed` drives the rounds that follow.
    fn setup(pool: &'a [Design], seed: u64) -> Result<Self, String> {
        let mut churn = Churn {
            pool,
            svc: service(SHARDS)?,
            resident: Vec::with_capacity(RESIDENT),
            inflight: HashMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xC4E2),
            origin: Instant::now(),
            seed,
            submitted: 0,
            answered: 0,
            wrong: 0,
            checked: 0,
            failed: 0,
            attempted: 0,
        };
        let mut off = Tracer::new(false);
        for d in 0..RESIDENT {
            let (t, _) = churn.admit(d, &mut off)?;
            churn.resident.push((t, d));
        }
        churn.burst(&mut off)?;
        Ok(churn)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Admits pool design `d`; returns the tenant and the admission's ns.
    fn admit(&mut self, d: usize, tr: &mut Tracer) -> Result<(TenantId, u64), String> {
        self.attempted += 1;
        let design = &self.pool[d];
        let start = Instant::now();
        tr.enter("service.admit", d as u64);
        let admitted = self.svc.admit(&design.label, &design.netlist);
        tr.exit();
        let ns = start.elapsed().as_nanos() as u64;
        let t = admitted.map_err(|e| format!("admit {}: {e}", design.label))?;
        Ok((t, ns))
    }

    fn submit(
        &mut self,
        t: TenantId,
        d: usize,
        timed: bool,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let bits = draw_bits(&mut self.rng, self.pool[d].inputs.len());
        let mut buf = Vec::new();
        self.pool[d].fill(bits, &mut buf);
        let at = self.now_ns();
        tr.enter("service.submit", self.submitted);
        let id = self.svc.submit(t, &buf);
        tr.exit();
        self.submitted += 1;
        self.attempted += 1;
        match id {
            Ok(id) => {
                self.inflight.insert(id, (d, bits, at, timed));
            }
            Err(_) => self.failed += 1,
        }
        Ok(())
    }

    /// One burst of [`BURST`] requests round-robin over the residents,
    /// then a drain; returns the burst's requests, its seconds and the
    /// latencies (ns) of its own requests.
    fn burst(&mut self, tr: &mut Tracer) -> Result<(u64, f64, Vec<u64>), String> {
        let start = Instant::now();
        for i in 0..BURST {
            let (t, d) = self.resident[i % self.resident.len()];
            self.submit(t, d, true, tr)?;
        }
        tr.enter("service.drain", self.submitted);
        let responses = self.svc.drain();
        tr.exit();
        let done = self.now_ns();
        let seconds = secs(start);
        let mut latencies = Vec::with_capacity(BURST);
        for r in responses.map_err(|e| format!("drain: {e}"))? {
            match self.inflight.remove(&r.request) {
                Some((d, bits, at, timed)) => {
                    self.answered += 1;
                    if timed {
                        latencies.push(done - at);
                    }
                    if sampled(self.seed, r.request.value()) {
                        self.checked += 1;
                        if !self.pool[d].matches(bits, &r.outputs) {
                            self.wrong += 1;
                        }
                    }
                }
                None => self.wrong += 1,
            }
        }
        Ok((BURST as u64, seconds, latencies))
    }
}

/// Per-round observations.
#[derive(Default)]
struct Rounds {
    bursts: Split,
    host: Reference,
    latency_ns: Hist,
    admit_ns: Hist,
    migrate_ns: Hist,
    wire_bytes: Hist,
}

/// One churn round; see the module docs.
fn round(churn: &mut Churn, obs: &mut Rounds, r: usize, tr: &mut Tracer) -> Result<(), String> {
    let traced = start_window(tr, r);
    let (n, seconds, latencies) = churn.burst(tr)?;
    // the round's operations run at the speed the probe after its burst sees
    let slowdown = obs.host.probe();
    obs.bursts.push(traced, n, seconds, slowdown);
    for ns in latencies {
        obs.latency_ns.record(at_nominal(ns, slowdown));
    }

    let victim = churn.rng.random_range(0..churn.resident.len());
    let (old, _) = churn.resident.swap_remove(victim);
    tr.enter("service.retire", old.index() as u64);
    churn
        .svc
        .retire_tenant(old)
        .map_err(|e| format!("retire: {e}"))?;
    tr.exit();

    let d = churn.rng.random_range(0..churn.pool.len());
    let (t, admit_ns) = churn.admit(d, tr)?;
    obs.admit_ns.record(at_nominal(admit_ns, slowdown));
    for _ in 0..CARGO {
        churn.submit(t, d, false, tr)?;
    }

    // another shard with a free slot, chosen by the seed
    let here = churn
        .svc
        .registry()
        .tenant(t)
        .map_err(|e| e.to_string())?
        .placement
        .shard;
    let free: Vec<usize> = (0..SHARDS)
        .filter(|&s| {
            s != here && churn.svc.registry().occupied_contexts(s).len() < fabric_params().contexts
        })
        .collect();
    let dst = free[churn.rng.random_range(0..free.len())];
    if tr.recording() {
        // the checkpoint a migration ships, taken apart layer by layer
        tr.enter("migrate.checkpoint", t.index() as u64);
        let ckpt = churn.svc.checkpoint_tenant(t).map_err(|e| e.to_string())?;
        tr.exit();
        tr.enter("migrate.encode", t.index() as u64);
        let wire = ckpt.to_bytes();
        tr.exit();
        obs.wire_bytes.record(wire.len() as u64);
        tr.enter("migrate.decode", wire.len() as u64);
        let back = TenantCheckpoint::from_bytes(&wire).map_err(|e| e.to_string())?;
        tr.exit();
        if back != ckpt {
            churn.wrong += 1;
        }
    }
    churn.attempted += 1;
    let start = Instant::now();
    tr.enter("service.migrate", t.index() as u64);
    let moved = churn.svc.migrate_tenant(t, dst);
    tr.exit();
    obs.migrate_ns.record(start.elapsed().as_nanos() as u64);
    match moved {
        Ok(p) if p.shard == dst => {}
        Ok(_) => churn.wrong += 1,
        Err(_) => churn.failed += 1,
    }
    churn.resident.push((t, d));
    Ok(())
}

/// Runs `tenant_churn`; see the module docs.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let pool = pool().map_err(|e| e.to_string())?;
    let rounds = ((cfg.seconds * ROUNDS_PER_SECOND / EPOCHS as f64).round() as usize).max(1);
    let mut detail = provenance("tenant_churn", cfg);
    detail
        .num("pool_designs", pool.len() as f64)
        .num("resident", RESIDENT as f64)
        .num("burst_requests", BURST as f64)
        .num("rounds_per_epoch", rounds as f64);

    let mut setups = Vec::with_capacity(EPOCHS);
    let mut obs = Rounds::default();
    let mut counters = ServiceCounters::default();
    let mut tr = Tracer::new(cfg.trace);
    let (mut wrong, mut checked, mut failed, mut attempted) = (0, 0, 0, 0);
    for epoch in 0..EPOCHS {
        let start = Instant::now();
        // each epoch churns along its own seeded path, so one run averages
        // over several sequences of resident designs
        let seed = cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut churn = Churn::setup(&pool, seed)?;
        let seconds = secs(start);
        setups.push(seconds / obs.host.settle());
        let before = ServiceCounters::of(&churn.svc);
        for r in 0..rounds {
            round(&mut churn, &mut obs, r, &mut tr)?;
        }
        // the last newcomer's queued lanes
        tr.set_recording(false);
        churn.burst(&mut tr)?;
        counters = counters + ServiceCounters::of(&churn.svc).since(&before);
        wrong += churn.wrong + churn.inflight.len() as u64;
        checked += churn.checked;
        failed += churn.failed;
        attempted += churn.attempted;
    }
    tr.set_recording(true);
    detail.num("setups", setups.len() as f64);

    let metrics = if cfg.trace {
        let us = |name: &str| tr.totals(name).mean_ns() / 1e3;
        let mut values = counters.ledger();
        values.extend(counters.phase_shares());
        values.extend([
            ("service.submit_ns", tr.totals("service.submit").mean_ns()),
            ("service.drain_us", us("service.drain")),
            ("service.admit_p90_ms", layer_pct(&obs.admit_ns, 90.0, 1e6)),
            ("migrate.p50_us", layer_pct(&obs.migrate_ns, 50.0, 1e3)),
            ("migrate.p90_us", layer_pct(&obs.migrate_ns, 90.0, 1e3)),
            ("migrate.checkpoint_us", us("migrate.checkpoint")),
            ("migrate.encode_us", us("migrate.encode")),
            ("migrate.decode_us", us("migrate.decode")),
            ("migrate.wire_bytes", layer_pct(&obs.wire_bytes, 50.0, 1.0)),
            ("bench.trace_overhead_share", obs.bursts.overhead()),
            ("bench.fail_share", ratio(failed as f64, attempted as f64)),
        ]);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let all: Vec<&Design> = pool.iter().collect();
        values.extend(fabric_probe(&all, &mut rng, &mut tr)?);
        collect(PER_LAYER, &values)
    } else {
        let times = HostTimes {
            setup_s: setup_median(&setups),
            throughput_rps: obs.bursts.plain.median().unwrap_or(0.0),
            latency_p50_us: pct(&obs.latency_ns, 50.0, 1e3, "latency")?,
            latency_p99_us: pct(&obs.latency_ns, 99.0, 1e3, "latency")?,
            admit_p50_ms: pct(&obs.admit_ns, 50.0, 1e6, "admit")?,
        };
        end_to_end(
            times,
            &obs.bursts.plain,
            counters.energy_pj_per_req(),
            &obs.host,
            &mut detail,
        )
    };

    detail
        .num("requests", counters.responses as f64)
        .num("latency_samples", obs.latency_ns.count() as f64)
        .num("admissions", obs.admit_ns.count() as f64)
        .num("migrations", obs.migrate_ns.count() as f64)
        .num(
            "admit_p90_ms",
            obs.admit_ns.percentile(90.0).unwrap_or(f64::NAN) / 1e6,
        )
        .num(
            "migrate_p50_us",
            obs.migrate_ns.percentile(50.0).unwrap_or(f64::NAN) / 1e3,
        )
        .num(
            "migrate_p90_us",
            obs.migrate_ns.percentile(90.0).unwrap_or(f64::NAN) / 1e3,
        )
        .num("plane_cache_hits", counters.cache_hits as f64)
        .num("plane_cache_misses", counters.cache_misses as f64)
        .num("checked", checked as f64)
        .num("mismatches", wrong as f64)
        .num("fail_share", ratio(failed as f64, attempted as f64))
        .spans(&tr)
        .quartiles("burst_rps_q1_med_q3", obs.bursts.plain.quartiles())
        .num("bursts", obs.bursts.plain.len() as f64)
        .num("traced_bursts", obs.bursts.traced.len() as f64);
    Ok(Outcome {
        correct: wrong == 0 && checked > 0,
        attempted,
        failed,
        metrics,
        detail,
        spans: tr.recorded(),
        span_file: tr.enabled().then(|| tr.render_raw()),
    })
}
