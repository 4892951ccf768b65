//! Pieces every workload shares: tenant designs with their oracle, seeded
//! input bits, the 1-in-64 check sample, the service counters the ledger
//! reads, and the scratch-fabric probe of route, compile, bind and eval.

use crate::reference::Reference;
use crate::stats::{median, peak_rss_bytes, Hist, Windows};
use crate::trace::Tracer;
use crate::{collect, Json, Metric, END_TO_END};
use mcfpga_device::TechParams;
use mcfpga_fabric::compiled::{CompiledFabric, LaneChunk, DIRTY_ALL, LANE_WORDS, MAX_LANES};
use mcfpga_fabric::netlist_ir::{LogicNetlist, Node};
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::{Fabric, FabricParams};
use mcfpga_service::ShardedService;
use mcfpga_telemetry::TRACE_DROPPED_METRIC;
use rand::rngs::StdRng;
use rand::RngCore;
use std::sync::Arc;
use std::time::Instant;

/// Every service and cluster runs its executor at this width, so results
/// do not depend on the host's core count or `MCFPGA_THREADS`.
pub const EXECUTOR_WIDTH: usize = 1;

/// Epochs per run unless a workload says otherwise: each is a fresh
/// setup (timed; `setup_s` is their median) and an equal share of the
/// measured work, so the windows spread over the whole run and sample
/// more of the host's slow and fast spells.
pub const EPOCHS: usize = 4;

/// Starts window `w`: a traced run records spans in even windows only,
/// so odd windows, interleaved over the same stretch of time, give the
/// tracing overhead. Returns whether this window is traced. An untraced
/// run never records.
pub fn start_window(tr: &mut Tracer, w: usize) -> bool {
    tr.set_recording(w.is_multiple_of(2));
    tr.recording()
}

/// Window rates of one phase, split by whether spans were recorded.
#[derive(Debug, Default, Clone)]
pub struct Split {
    /// Untraced windows: every window of an untraced run.
    pub plain: Windows,
    /// Traced windows.
    pub traced: Windows,
}

impl Split {
    /// Records a window under its kind; see [`Windows::push`].
    pub fn push(&mut self, traced: bool, work: u64, seconds: f64, slowdown: f64) {
        let kind = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        kind.push(work, seconds, slowdown);
    }

    /// Tracing overhead: the untraced windows' median rate over the
    /// traced windows', minus 1.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        overhead(&self.plain, &self.traced)
    }
}

fn overhead(plain: &Windows, traced: &Windows) -> f64 {
    ratio(
        plain.median().unwrap_or(0.0),
        traced.median().unwrap_or(0.0),
    ) - 1.0
}

/// One in this many requests has its outputs checked against
/// [`LogicNetlist::eval`].
pub const CHECK_ONE_IN: u64 = 64;

/// The reference tile: 8×8, channel width 6, 4 contexts, hybrid CSS.
#[must_use]
pub fn fabric_params() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    }
}

/// A service on the reference tile, its executor pinned to
/// [`EXECUTOR_WIDTH`] and its trace ring left at the program's default.
pub fn service(shards: usize) -> Result<ShardedService, String> {
    let mut svc = ShardedService::new(shards, fabric_params(), TechParams::default())
        .map_err(|e| format!("service: {e}"))?;
    svc.set_threads(EXECUTOR_WIDTH);
    Ok(svc)
}

/// A tenant design with its input names in the order bits are drawn.
#[derive(Debug, Clone)]
pub struct Design {
    /// Tenant name.
    pub label: String,
    /// The netlist, which is also the output oracle.
    pub netlist: LogicNetlist,
    /// Input names; bit `i` of a request's bits drives `inputs[i]`.
    pub inputs: Vec<String>,
}

impl Design {
    /// Wraps a generated netlist.
    #[must_use]
    pub fn new(label: impl Into<String>, netlist: LogicNetlist) -> Self {
        let inputs = netlist
            .input_ids()
            .into_iter()
            .map(|id| match netlist.node(id) {
                Node::Input { name } => name.clone(),
                _ => unreachable!("input_ids yields inputs"),
            })
            .collect();
        Design {
            label: label.into(),
            netlist,
            inputs,
        }
    }

    /// Writes the name-keyed request for `bits` into `buf`.
    pub fn fill<'a>(&'a self, bits: u64, buf: &mut Vec<(&'a str, bool)>) {
        buf.clear();
        buf.extend(
            self.inputs
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), bits >> i & 1 == 1)),
        );
    }

    /// Whether `outputs` are exactly what the netlist computes for `bits`.
    #[must_use]
    pub fn matches(&self, bits: u64, outputs: &[(Arc<str>, bool)]) -> bool {
        let mut buf = Vec::new();
        self.fill(bits, &mut buf);
        let Ok(expected) = self.netlist.eval(&buf) else {
            return false;
        };
        expected.len() == outputs.len()
            && expected
                .iter()
                .all(|(n, v)| outputs.iter().any(|(m, w)| **m == **n && w == v))
    }
}

/// Seeded input bits for an `n`-input design. Half the draws copy the
/// low half of the inputs onto the high half, so comparators (`a*`
/// against `b*`) answer true as often as false and the check sees both.
pub fn draw_bits(rng: &mut StdRng, n: usize) -> u64 {
    let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut bits = rng.next_u64();
    let half = n / 2;
    if half > 0 && half < 32 && bits >> 63 == 1 {
        let low = bits & ((1u64 << half) - 1);
        bits = (bits & !(((1u64 << half) - 1) << half)) | low << half;
    }
    bits & mask
}

/// The seeded 1-in-[`CHECK_ONE_IN`] sample: whether request `index` of a
/// run seeded `seed` has its outputs checked.
#[must_use]
pub fn sampled(seed: u64, index: u64) -> bool {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(CHECK_ONE_IN)
}

/// Deterministic and wall-clock counters summed over a set of services.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Requests submitted.
    pub requests: u64,
    /// Responses demuxed.
    pub responses: u64,
    /// Sweep steps (fabric passes) applied.
    pub steps: u64,
    /// Compiled ops in applied passes.
    pub ops_total: u64,
    /// Ops skipped by dirty-cone reuse.
    pub ops_skipped: u64,
    /// Spans the program's trace ring dropped.
    pub trace_dropped: u64,
    /// CSS broadcast toggles charged.
    pub css_toggles: u64,
    /// Plan, eval and apply phase time, µs (the program's own histograms).
    pub plan_us: u64,
    /// See `plan_us`.
    pub eval_us: u64,
    /// See `plan_us`.
    pub apply_us: u64,
    /// Plane-cache hits.
    pub cache_hits: u64,
    /// Plane-cache misses (compilations).
    pub cache_misses: u64,
}

impl ServiceCounters {
    /// Reads one service's counters.
    #[must_use]
    pub fn of(svc: &ShardedService) -> Self {
        let r = svc.telemetry().registry();
        let c = |name: &str| r.counter_value(name).unwrap_or(0);
        let h = |name: &str| r.histogram_stats(name).map_or(0, |(_, sum)| sum);
        ServiceCounters {
            requests: c("service_requests_submitted"),
            responses: c("service_responses_total"),
            steps: c("service_steps_applied"),
            ops_total: c("fabric_ops_total"),
            ops_skipped: c("fabric_ops_skipped"),
            trace_dropped: c(TRACE_DROPPED_METRIC),
            css_toggles: c("service_css_toggles"),
            plan_us: h("service_plan_us"),
            eval_us: h("service_eval_us"),
            apply_us: h("service_apply_us"),
            cache_hits: svc.cache().hits() as u64,
            cache_misses: svc.cache().misses() as u64,
        }
    }

    /// Sums counters over several services.
    #[must_use]
    pub fn sum<'a>(svcs: impl IntoIterator<Item = &'a ShardedService>) -> Self {
        svcs.into_iter()
            .map(Self::of)
            .fold(Self::default(), |a, b| a + b)
    }

    /// Counter movement since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        ServiceCounters {
            requests: d(self.requests, earlier.requests),
            responses: d(self.responses, earlier.responses),
            steps: d(self.steps, earlier.steps),
            ops_total: d(self.ops_total, earlier.ops_total),
            ops_skipped: d(self.ops_skipped, earlier.ops_skipped),
            trace_dropped: d(self.trace_dropped, earlier.trace_dropped),
            css_toggles: d(self.css_toggles, earlier.css_toggles),
            plan_us: d(self.plan_us, earlier.plan_us),
            eval_us: d(self.eval_us, earlier.eval_us),
            apply_us: d(self.apply_us, earlier.apply_us),
            // the plane cache counts every admission the service made,
            // setup included
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
        }
    }

    /// Modelled CSS broadcast energy per served request, pJ.
    #[must_use]
    pub fn energy_pj_per_req(&self) -> f64 {
        let pj = self.css_toggles as f64 * TechParams::default().css_toggle_energy_j * 1e12;
        ratio(pj, self.responses as f64)
    }

    /// Shares of the drain phases in the program's own wall-clock
    /// histograms. These see `drain` and `flush_tenants` only, not a
    /// sweep run inline by the `submit` that fills a lane batch.
    #[must_use]
    pub fn phase_shares(&self) -> Vec<(&'static str, f64)> {
        let phases = (self.plan_us + self.eval_us + self.apply_us) as f64;
        vec![
            ("service.plan_share", ratio(self.plan_us as f64, phases)),
            ("service.eval_share", ratio(self.eval_us as f64, phases)),
            ("service.apply_share", ratio(self.apply_us as f64, phases)),
        ]
    }

    /// The ledger rows these counters give, phase shares aside.
    #[must_use]
    pub fn ledger(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "service.lanes_per_pass",
                ratio(self.responses as f64, self.steps as f64),
            ),
            (
                "service.passes_per_req",
                ratio(self.steps as f64, self.responses as f64),
            ),
            (
                "fabric.ops_skipped_share",
                ratio(self.ops_skipped as f64, self.ops_total as f64),
            ),
            (
                "registry.plane_cache_hit_share",
                ratio(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                ),
            ),
            (
                "telemetry.trace_dropped_per_req",
                ratio(self.trace_dropped as f64, self.requests as f64),
            ),
        ]
    }
}

impl std::ops::Add for ServiceCounters {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        ServiceCounters {
            requests: self.requests + o.requests,
            responses: self.responses + o.responses,
            steps: self.steps + o.steps,
            ops_total: self.ops_total + o.ops_total,
            ops_skipped: self.ops_skipped + o.ops_skipped,
            trace_dropped: self.trace_dropped + o.trace_dropped,
            css_toggles: self.css_toggles + o.css_toggles,
            plan_us: self.plan_us + o.plan_us,
            eval_us: self.eval_us + o.eval_us,
            apply_us: self.apply_us + o.apply_us,
            cache_hits: self.cache_hits + o.cache_hits,
            cache_misses: self.cache_misses + o.cache_misses,
        }
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Route, compile, bind and eval of `designs` on scratch fabrics, outside
/// any service, each wrapped in its span: `fabric.route_ms`,
/// `fabric.compile_us`, `fabric.bind_us` (medians over designs) and
/// `fabric.eval_ns_per_lane` (full 256-lane sweeps over lanes drawn like
/// the workload's own requests).
pub fn fabric_probe(
    designs: &[&Design],
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    const SWEEPS: usize = 64;
    let (mut route, mut compile, mut bind, mut eval) = (vec![], vec![], vec![], vec![]);
    for (i, d) in designs.iter().enumerate() {
        let ctx = i % fabric_params().contexts;
        let mut fabric = Fabric::new(fabric_params()).map_err(|e| e.to_string())?;
        tr.enter("fabric.route", i as u64);
        implement_netlist_robust(&mut fabric, &d.netlist, ctx, 0x5EED + i as u64, 16)
            .map_err(|e| format!("route {}: {e}", d.label))?;
        route.push(tr.exit().unwrap_or(0) as f64 / 1e6);
        tr.enter("fabric.compile", i as u64);
        let compiled = CompiledFabric::compile_context(&fabric, ctx).map_err(|e| e.to_string())?;
        compile.push(tr.exit().unwrap_or(0) as f64 / 1e3);
        tr.enter("fabric.bind", i as u64);
        let bound = compiled.bind(ctx).map_err(|e| e.to_string())?;
        bind.push(tr.exit().unwrap_or(0) as f64 / 1e3);

        // bound inputs follow the plane's bind order: map each back to
        // its position among the design's inputs
        let positions: Vec<usize> = bound
            .inputs()
            .iter()
            .map(|(_, name, _)| d.inputs.iter().position(|n| **n == **name).unwrap_or(0))
            .collect();
        let lanes: Vec<u64> = (0..MAX_LANES)
            .map(|_| draw_bits(rng, d.inputs.len()))
            .collect();
        let chunks: Vec<LaneChunk> = positions
            .iter()
            .map(|&p| mcfpga_fabric::compiled::pack_chunk(|l| lanes[l] >> p & 1 == 1))
            .collect();
        let mut st = compiled.new_state();
        let mut outs = Vec::new();
        tr.enter("fabric.eval_sweeps", i as u64);
        for _ in 0..SWEEPS {
            compiled
                .eval_bound_into(&bound, &chunks, LANE_WORDS, DIRTY_ALL, &mut st, &mut outs)
                .map_err(|e| e.to_string())?;
        }
        eval.push(tr.exit().unwrap_or(0) as f64 / (SWEEPS * MAX_LANES) as f64);
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(vec![
        ("fabric.route_ms", med(&route)),
        ("fabric.compile_us", med(&compile)),
        ("fabric.bind_us", med(&bind)),
        ("fabric.eval_ns_per_lane", med(&eval)),
    ])
}

/// Percentile `p` of `h` divided by `scale`, or an error naming `what`
/// when the sample is too small to carry it.
pub fn pct(h: &Hist, p: f64, scale: f64, what: &str) -> Result<f64, String> {
    h.percentile(p)
        .map(|v| v / scale)
        .ok_or_else(|| format!("{what}: {} samples cannot carry a p{p}", h.count()))
}

/// Percentile `p` of `h` divided by `scale` for the per-layer ledger: 0
/// when the sample is too small to carry it.
#[must_use]
pub fn layer_pct(h: &Hist, p: f64, scale: f64) -> f64 {
    h.percentile(p).map_or(0.0, |v| v / scale)
}

/// The fields every result's detail line carries.
#[must_use]
pub fn provenance(workload: &str, cfg: &crate::Config) -> Json {
    let mut j = Json::default();
    j.str("workload", workload)
        .num("seed", cfg.seed as f64)
        .num("seconds", cfg.seconds)
        .num("trace", f64::from(u8::from(cfg.trace)))
        .num(
            "cpu_cores",
            std::thread::available_parallelism().map_or(1, usize::from) as f64,
        )
        .num("executor_width", EXECUTOR_WIDTH as f64)
        .num("check_one_in", CHECK_ONE_IN as f64);
    j
}

/// A run's host-time figures, at nominal host speed (see
/// [`crate::reference`]).
#[derive(Debug, Clone, Copy)]
pub struct HostTimes {
    /// Median set-up, s.
    pub setup_s: f64,
    /// Median window rate, req/s.
    pub throughput_rps: f64,
    /// Request latency p50, µs.
    pub latency_p50_us: f64,
    /// Request latency p99, µs.
    pub latency_p99_us: f64,
    /// Admission p50, ms.
    pub admit_p50_ms: f64,
}

/// The end-to-end metrics: the host times, the modelled energy and peak
/// RSS. The run's median slowdown and raw median rate go on the detail
/// line.
pub fn end_to_end(
    t: HostTimes,
    windows: &Windows,
    energy_pj: f64,
    host: &Reference,
    detail: &mut Json,
) -> Vec<Metric> {
    detail
        .num("host_slowdown", host.slowdown())
        .num("reference_probes", host.probes() as f64)
        .num("raw_throughput_rps", windows.raw_median().unwrap_or(0.0));
    collect(
        END_TO_END,
        &[
            ("setup_s", t.setup_s),
            ("throughput_rps", t.throughput_rps),
            ("latency_p50_us", t.latency_p50_us),
            ("latency_p99_us", t.latency_p99_us),
            ("admit_p50_ms", t.admit_p50_ms),
            ("sim_energy_pj_per_req", energy_pj),
            ("peak_rss_mb", peak_rss_mb()),
        ],
    )
}

/// Peak RSS in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Median of `setup` timings, seconds.
#[must_use]
pub fn setup_median(setups: &[f64]) -> f64 {
    median(setups).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_fabric::netlist_ir::generators;
    use rand::SeedableRng;

    #[test]
    fn draws_are_seeded_and_comparators_see_both_answers() {
        let d = Design::new("cmp", generators::equality_comparator(6).unwrap());
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..256)
                .map(|_| draw_bits(&mut rng, d.inputs.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let bits = draw(3);
        assert!(bits.iter().all(|b| b >> 12 == 0), "only 12 inputs driven");
        let equal = bits.iter().filter(|b| *b & 63 == *b >> 6).count();
        assert!(equal > 64 && equal < 192, "{equal} of 256 equal");
    }

    #[test]
    fn oracle_rejects_a_wrong_answer() {
        let d = Design::new("cmp", generators::equality_comparator(2).unwrap());
        let yes: Vec<(Arc<str>, bool)> = vec![(Arc::from("eq"), true)];
        let no: Vec<(Arc<str>, bool)> = vec![(Arc::from("eq"), false)];
        // a = b = 0b01
        assert!(d.matches(0b0101, &yes));
        assert!(!d.matches(0b0101, &no));
        assert!(d.matches(0b0110, &no));
    }

    #[test]
    fn sample_is_about_one_in_sixty_four() {
        let hits = (0..64_000u64).filter(|&i| sampled(9, i)).count();
        assert!((800..1200).contains(&hits), "{hits}");
        assert_ne!(
            (0..640u64).filter(|&i| sampled(9, i)).collect::<Vec<_>>(),
            (0..640u64).filter(|&i| sampled(10, i)).collect::<Vec<_>>()
        );
    }
}
