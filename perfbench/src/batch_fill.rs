//! `batch_fill` — closed loop over a 2-node cluster (2 × 4 shards × 4
//! contexts, 8×8) holding 32 equality-comparator tenants of mixed widths.
//!
//! One client submits windows of 8192 requests, exactly 256 per tenant
//! in seeded order, so every lane batch fills to 256 and sweeps inline;
//! a `drain` then collects the window's responses. Every request carries
//! fresh seeded bits, so dirty-cone reuse is near zero. Admission happens
//! only in setup.

use crate::common::{
    draw_bits, end_to_end, fabric_probe, pct, provenance, ratio, sampled, secs, service,
    setup_median, start_window, Design, HostTimes, ServiceCounters, Split, EXECUTOR_WIDTH,
};
use crate::reference::{at_nominal, Reference};
use crate::stats::{median, rss_bytes, Hist};
use crate::trace::Tracer;
use crate::{collect, Config, Json, Metric, Outcome, PER_LAYER};
use mcfpga_cluster::{Cluster, ClusterTenantId};
use mcfpga_fabric::compiled::MAX_LANES;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_service::{ShardedService, TenantId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Nodes × shards per node × contexts = 32 tenant slots.
const NODES: usize = 2;
const SHARDS_PER_NODE: usize = 4;
const TENANTS: usize = 32;
/// Requests per window: one full lane batch per tenant.
const WINDOW: usize = TENANTS * MAX_LANES;
/// Epochs per run: more than the other workloads, because the cluster
/// keeps ≈ 170 B per answered request until it is dropped, and shorter
/// epochs bound that growth.
const EPOCHS: usize = 6;
/// Windows per requested second over all epochs (fixed work,
/// calibrated on a 2-core host).
const WINDOWS_PER_SECOND: f64 = 24.0;
/// Windows of the bare-service replay; rounds of the executor probe.
const REPLAY_WINDOWS: usize = 8;
const EXECUTOR_ROUNDS: usize = 8;

/// Comparator widths, four tenants each. Round-robin admission puts the
/// four on the same context of four shards, so they share one compiled
/// plane per node.
const WIDTHS: [usize; 8] = [8, 10, 12, 14, 16, 9, 11, 13];

fn designs() -> Result<Vec<Design>, String> {
    (0..TENANTS)
        .map(|i| {
            let w = WIDTHS[i * WIDTHS.len() / TENANTS];
            let nl = generators::equality_comparator(w).map_err(|e| e.to_string())?;
            Ok(Design::new(format!("cmp{w}-{i}"), nl))
        })
        .collect()
}

/// Seeded inputs of one window over `designs`: `(tenant, bits)` per
/// request, exactly [`MAX_LANES`] per tenant.
fn window_inputs(designs: &[Design], rng: &mut StdRng) -> Vec<(usize, u64)> {
    let mut order: Vec<usize> = (0..designs.len() * MAX_LANES)
        .map(|i| i % designs.len())
        .collect();
    order.shuffle(rng);
    order
        .into_iter()
        .map(|t| (t, draw_bits(rng, designs[t].inputs.len())))
        .collect()
}

/// Builds the cluster and admits every tenant, returning each
/// admission's ns; warm-up is one window.
fn setup(
    designs: &[Design],
    rng: &mut StdRng,
) -> Result<(Cluster, Vec<ClusterTenantId>, Vec<u64>), String> {
    let nodes = (0..NODES)
        .map(|_| service(SHARDS_PER_NODE))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cluster = Cluster::new(nodes).map_err(|e| format!("cluster: {e}"))?;
    cluster.set_threads(EXECUTOR_WIDTH);
    let mut tenants = Vec::with_capacity(TENANTS);
    let mut admit_ns = Vec::with_capacity(TENANTS);
    for d in designs {
        let t = Instant::now();
        tenants.push(
            cluster
                .admit(&d.label, &d.netlist)
                .map_err(|e| format!("admit {}: {e}", d.label))?,
        );
        admit_ns.push(t.elapsed().as_nanos() as u64);
    }
    let mut buf = Vec::new();
    for (t, bits) in window_inputs(designs, rng) {
        designs[t].fill(bits, &mut buf);
        cluster
            .submit(tenants[t], &buf)
            .map_err(|e| format!("warm-up submit: {e}"))?;
    }
    let answered = cluster.drain().map_err(|e| e.to_string())?.len();
    if answered != WINDOW {
        return Err(format!("warm-up answered {answered} of {WINDOW}"));
    }
    Ok((cluster, tenants, admit_ns))
}

/// What the measured windows observed.
#[derive(Default)]
struct Served {
    windows: Split,
    host: Reference,
    latency_ns: Hist,
    attempted: u64,
    failed: u64,
    wrong: u64,
    checked: u64,
}

/// One epoch's measured phase: `windows` closed-loop windows on
/// `cluster`, added to `out`.
fn serve(
    cluster: &mut Cluster,
    tenants: &[ClusterTenantId],
    designs: &[Design],
    windows: usize,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Served,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_F111);
    let mut buf = Vec::new();
    let mut submitted_at = Vec::with_capacity(WINDOW);
    // (cluster request id, window position) of accepted submits; ids are
    // minted in submission order, so this is sorted by id
    let mut accepted: Vec<(u64, usize)> = Vec::with_capacity(WINDOW);
    let mut answered = vec![false; WINDOW];
    let origin = Instant::now();
    for w in 0..windows {
        let inputs = window_inputs(designs, &mut rng);
        submitted_at.clear();
        accepted.clear();
        let traced = start_window(tr, w);
        let start = Instant::now();
        for (i, &(t, bits)) in inputs.iter().enumerate() {
            designs[t].fill(bits, &mut buf);
            submitted_at.push(origin.elapsed().as_nanos() as u64);
            tr.enter("cluster.submit", (w * WINDOW + i) as u64);
            let id = cluster.submit(tenants[t], &buf);
            tr.exit();
            match id {
                Ok(id) => accepted.push((id.value(), i)),
                Err(_) => out.failed += 1,
            }
        }
        tr.enter("cluster.drain", w as u64);
        let responses = cluster.drain();
        tr.exit();
        let done = origin.elapsed().as_nanos() as u64;
        let seconds = secs(start);
        let slowdown = out.host.probe();
        out.windows
            .push(traced, accepted.len() as u64, seconds, slowdown);
        let responses = responses.map_err(|e| format!("drain: {e}"))?;
        for &(_, i) in &accepted {
            out.latency_ns
                .record(at_nominal(done - submitted_at[i], slowdown));
        }

        // every accepted request answered once, by its own tenant, with
        // a seeded sample of outputs checked against the netlist
        out.attempted += WINDOW as u64;
        answered.iter_mut().for_each(|a| *a = false);
        for r in &responses {
            let slot = accepted
                .binary_search_by_key(&r.request.value(), |&(id, _)| id)
                .ok()
                .map(|k| accepted[k].1);
            match slot {
                Some(i) if !answered[i] && r.tenant == tenants[inputs[i].0] => {
                    answered[i] = true;
                    if sampled(seed, (w * WINDOW + i) as u64) {
                        out.checked += 1;
                        let (t, bits) = inputs[i];
                        if !designs[t].matches(bits, &r.outputs) {
                            out.wrong += 1;
                        }
                    }
                }
                _ => out.wrong += 1,
            }
        }
        out.wrong += accepted.iter().filter(|&&(_, i)| !answered[i]).count() as u64;
    }
    Ok(())
}

/// Replays a slice of the same stream into a bare 4-shard service
/// holding the first 16 tenants, timing the service layer alone, then
/// drains the same queued work inline and on the worker pool.
fn service_probe(
    designs: &[Design],
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let designs = &designs[..TENANTS / NODES];
    let mut svc = service(SHARDS_PER_NODE)?;
    let tenants: Vec<TenantId> = designs
        .iter()
        .map(|d| svc.admit(&d.label, &d.netlist))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("admit: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_F111);
    let mut buf = Vec::new();
    let mut drain_ns = Vec::new();
    for w in 0..REPLAY_WINDOWS {
        let inputs = window_inputs(designs, &mut rng);
        for (i, &(t, bits)) in inputs.iter().enumerate() {
            designs[t].fill(bits, &mut buf);
            let pending = svc.pending_requests();
            let start = tr.now_ns();
            svc.submit(tenants[t], &buf).map_err(|e| e.to_string())?;
            let end = tr.now_ns();
            // a submit that filled its lane batch swept it inline
            let name = if svc.pending_requests() <= pending {
                "service.submit_flush"
            } else {
                "service.submit"
            };
            tr.record(name, (w * WINDOW + i) as u64, start, end);
        }
        tr.enter("service.drain", w as u64);
        let n = svc.drain().map_err(|e| e.to_string())?.len();
        drain_ns.push(tr.exit().unwrap_or(0) as f64);
        if n != inputs.len() {
            return Err(format!("replay answered {n} of {}", inputs.len()));
        }
    }
    let (inline_us, pool_us) = executor_probe(&mut svc, &tenants, designs, &mut rng, tr)?;
    // the cluster's lane-full sweeps run inline in submit, which the
    // phase histograms do not see; this service's drains do
    let mut rows = ServiceCounters::of(&svc).phase_shares();
    rows.extend([
        ("service.submit_ns", tr.totals("service.submit").mean_ns()),
        (
            "service.submit_flush_us",
            tr.totals("service.submit_flush").mean_ns() / 1e3,
        ),
        ("service.drain_us", median(&drain_ns).unwrap_or(0.0) / 1e3),
        ("executor.inline_drain_us", inline_us),
        ("executor.pool_drain_us", pool_us),
    ]);
    Ok(rows)
}

/// Queues 255 lanes on every slot (one short of a sweep), then drains at
/// width 1 and at the host's width; returns each width's median drain, µs.
fn executor_probe(
    svc: &mut ShardedService,
    tenants: &[TenantId],
    designs: &[Design],
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<(f64, f64), String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut buf = Vec::new();
    let mut times = [Vec::new(), Vec::new()];
    for round in 0..EXECUTOR_ROUNDS {
        let inputs: Vec<(usize, u64)> = (0..(MAX_LANES - 1) * tenants.len())
            .map(|i| {
                let t = i % tenants.len();
                (t, draw_bits(rng, designs[t].inputs.len()))
            })
            .collect();
        let mut answers = Vec::new();
        for (k, (width, name)) in [(1, "executor.inline_drain"), (cores, "executor.pool_drain")]
            .into_iter()
            .enumerate()
        {
            svc.set_threads(width);
            let mut first = None;
            for &(t, bits) in &inputs {
                designs[t].fill(bits, &mut buf);
                let id = svc.submit(tenants[t], &buf).map_err(|e| e.to_string())?;
                first.get_or_insert(id.value());
            }
            tr.enter(name, round as u64);
            let responses = svc.drain().map_err(|e| e.to_string())?;
            times[k].push(tr.exit().unwrap_or(0) as f64 / 1e3);
            // sweeps start where the CSS broadcast stopped, so the two
            // drains answer in different orders: compare by request
            let base = first.unwrap_or(0);
            let mut by_request = vec![Vec::new(); inputs.len()];
            for r in responses {
                let i = (r.request.value() - base) as usize;
                by_request[i] = r.outputs;
            }
            answers.push(by_request);
        }
        if answers[0] != answers[1] {
            return Err("the pool drain answered differently from the inline drain".into());
        }
    }
    svc.set_threads(EXECUTOR_WIDTH);
    Ok((
        median(&times[0]).unwrap_or(0.0),
        median(&times[1]).unwrap_or(0.0),
    ))
}

fn nodes(cluster: &Cluster) -> impl Iterator<Item = &ShardedService> {
    (0..cluster.node_count()).filter_map(|n| cluster.node(n).ok())
}

/// Runs `batch_fill`; see the module docs.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let designs = designs()?;
    let windows = ((cfg.seconds * WINDOWS_PER_SECOND / EPOCHS as f64).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut detail = provenance("batch_fill", cfg);
    detail
        .num("tenants", TENANTS as f64)
        .num("window_requests", WINDOW as f64)
        .num("windows_per_epoch", windows as f64);

    let mut admit_ns = Hist::default();
    let mut setups = Vec::with_capacity(EPOCHS);
    let mut served = Served::default();
    let mut counters = ServiceCounters::default();
    let mut rss_per_req = 0.0;
    let mut tr = Tracer::new(cfg.trace);
    for epoch in 0..EPOCHS {
        let start = Instant::now();
        let (mut cluster, tenants, admits) = setup(&designs, &mut rng)?;
        let seconds = secs(start);
        let slowdown = served.host.settle();
        setups.push(seconds / slowdown);
        for ns in admits {
            admit_ns.record(at_nominal(ns, slowdown));
        }
        let before = ServiceCounters::sum(nodes(&cluster));
        let rss_before = rss_bytes().unwrap_or(0);
        serve(
            &mut cluster,
            &tenants,
            &designs,
            windows,
            cfg.seed,
            &mut tr,
            &mut served,
        )?;
        if epoch == 0 {
            // the first epoch grows the heap from scratch; later ones
            // reuse pages freed by the cluster before them
            let growth = rss_bytes().unwrap_or(0).saturating_sub(rss_before);
            rss_per_req = ratio(growth as f64, (windows * WINDOW) as f64);
        }
        counters = counters + ServiceCounters::sum(nodes(&cluster)).since(&before);
    }
    tr.set_recording(true);

    let metrics = if cfg.trace {
        let mut values = counters.ledger();
        values.extend([
            ("cluster.submit_ns", tr.totals("cluster.submit").mean_ns()),
            (
                "cluster.drain_us",
                tr.totals("cluster.drain").mean_ns() / 1e3,
            ),
            ("cluster.rss_bytes_per_req", rss_per_req),
            ("bench.trace_overhead_share", served.windows.overhead()),
            (
                "bench.fail_share",
                ratio(served.failed as f64, served.attempted as f64),
            ),
        ]);
        values.extend(service_probe(&designs, cfg.seed, &mut tr)?);
        let distinct: Vec<&Design> = designs.iter().step_by(TENANTS / WIDTHS.len()).collect();
        values.extend(fabric_probe(&distinct, &mut rng, &mut tr)?);
        collect(PER_LAYER, &values)
    } else {
        let s = &served;
        let times = HostTimes {
            setup_s: setup_median(&setups),
            throughput_rps: s.windows.plain.median().unwrap_or(0.0),
            latency_p50_us: pct(&s.latency_ns, 50.0, 1e3, "latency")?,
            latency_p99_us: pct(&s.latency_ns, 99.0, 1e3, "latency")?,
            admit_p50_ms: pct(&admit_ns, 50.0, 1e6, "admit")?,
        };
        end_to_end(
            times,
            &s.windows.plain,
            counters.energy_pj_per_req(),
            &s.host,
            &mut detail,
        )
    };
    detail.num("setups", setups.len() as f64);
    Ok(finish(detail, &served, &admit_ns, metrics, &tr, &counters))
}

fn finish(
    mut detail: Json,
    s: &Served,
    admit_ns: &Hist,
    metrics: Vec<Metric>,
    tr: &Tracer,
    counters: &ServiceCounters,
) -> Outcome {
    detail
        .num(
            "requests",
            (s.windows.plain.work() + s.windows.traced.work()) as f64,
        )
        .num("latency_samples", s.latency_ns.count() as f64)
        .num("admissions", admit_ns.count() as f64)
        .num("passes", counters.steps as f64)
        .num("checked", s.checked as f64)
        .num("mismatches", s.wrong as f64)
        .num("fail_share", ratio(s.failed as f64, s.attempted as f64))
        .spans(tr)
        .quartiles("window_rps_q1_med_q3", s.windows.plain.quartiles())
        .num("windows", s.windows.plain.len() as f64)
        .num("traced_windows", s.windows.traced.len() as f64);
    Outcome {
        correct: s.wrong == 0 && s.checked > 0,
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        detail,
        spans: tr.recorded(),
        span_file: tr.enabled().then(|| tr.render_raw()),
    }
}
