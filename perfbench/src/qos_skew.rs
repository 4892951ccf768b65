//! `qos_skew` — a seeded `AdversarialSkew` schedule in virtual cycles,
//! replayed open loop as fast as the host allows through
//! `FrontendDriver` → `ShardedService` (4 shards × 4 contexts, 8×8).
//!
//! Fourteen latency-sensitive deadline streams trickle requests whose
//! inputs flip one seeded bit each, so the dirty-cone sweeps reuse most
//! of the previous pass; one throughput stream trickles fresh bits and
//! waits for full batches; one rate-limited hot throughput stream fires
//! every cycle. The limits are sized so nothing is refused or expires:
//! any refusal, expiry or fault counts as a failure.

use crate::common::{
    draw_bits, end_to_end, fabric_probe, layer_pct, pct, provenance, ratio, sampled, secs, service,
    setup_median, start_window, Design, HostTimes, ServiceCounters, Split, EPOCHS,
};
use crate::reference::{at_nominal, Reference};
use crate::stats::Hist;
use crate::trace::Tracer;
use crate::{collect, Config, Outcome, PER_LAYER};
use mcfpga_bench::loadgen::{Arrival, LoadGen, TrafficMix};
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::FabricError;
use mcfpga_service::frontend::{FrontendDriver, FrontendEvent, RateLimit, StreamPolicy};
use mcfpga_service::TenantId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
/// Streams 0..14 are latency-sensitive, 14 is the throughput trickle, 15 the hot stream.
const LS_STREAMS: usize = 14;
const TRICKLE: usize = 14;
const HOT: usize = 15;
const HOT_PER_CYCLE: u32 = 4;
const MIX: TrafficMix = TrafficMix::AdversarialSkew {
    hot: HOT,
    hot_per_cycle: HOT_PER_CYCLE,
    num: 1,
    den: 2,
};
const LS_CAPACITY: usize = 4;
const LS_BUDGET: u64 = 8;
const TP_CAPACITY: usize = 256;
/// Cycles per requested second over all epochs (fixed work, calibrated
/// on a 2-core host).
const CYCLES_PER_SECOND: f64 = 30_000.0;
/// Cycles per throughput window.
const WINDOW_CYCLES: u64 = 256;
const WARMUP_CYCLES: u64 = 512;
/// Offer records kept in flight; far above what the stream capacities allow.
const RING: usize = 1 << 16;

fn designs() -> Result<Vec<Design>, FabricError> {
    use generators::{equality_comparator as cmp, parity_tree as par, ripple_adder as add};
    let nets = [
        ("ls-cmp4", cmp(4)?),
        ("ls-cmp6", cmp(6)?),
        ("ls-cmp8", cmp(8)?),
        ("ls-par6", par(6)?),
        ("ls-par8", par(8)?),
        ("ls-par10", par(10)?),
        ("ls-add3", add(3)?),
        ("ls-add4", add(4)?),
        ("ls-mux2", generators::mux_tree(2)?),
        ("ls-pop4", generators::popcount4()?),
        ("ls-cmp5", cmp(5)?),
        ("ls-cmp7", cmp(7)?),
        ("ls-par7", par(7)?),
        ("ls-par9", par(9)?),
        ("tp-cmp10", cmp(10)?),
        ("tp-hot-cmp12", cmp(12)?),
    ];
    Ok(nets.into_iter().map(|(n, nl)| Design::new(n, nl)).collect())
}

fn policy(stream: usize) -> StreamPolicy {
    match stream {
        TRICKLE => StreamPolicy::throughput(TP_CAPACITY),
        HOT => StreamPolicy::throughput(TP_CAPACITY).with_rate(RateLimit::per_cycles(
            u64::from(HOT_PER_CYCLE),
            1,
            2 * u64::from(HOT_PER_CYCLE),
        )),
        _ => StreamPolicy::latency_sensitive(LS_CAPACITY, LS_BUDGET),
    }
}

/// What the client saw, summed over the epochs of one kind.
#[derive(Default)]
struct Tally {
    windows: Split,
    latency_ns: Hist,
    ls_cycles: Hist,
    offered: u64,
    refused: u64,
    completed: u64,
    expired: u64,
    faulted: u64,
    wrong: u64,
    checked: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.refused + self.expired + self.faulted
    }

    fn merge(&mut self, o: Tally) {
        self.windows.plain.extend(&o.windows.plain);
        self.windows.traced.extend(&o.windows.traced);
        self.latency_ns.merge(&o.latency_ns);
        self.ls_cycles.merge(&o.ls_cycles);
        self.offered += o.offered;
        self.refused += o.refused;
        self.completed += o.completed;
        self.expired += o.expired;
        self.faulted += o.faulted;
        self.wrong += o.wrong;
        self.checked += o.checked;
    }
}

/// A sampled completion awaiting its check: stream, bits, outputs.
type Sampled = (usize, u64, Vec<(Arc<str>, bool)>);

/// The client of one epoch: per-stream current bits, the schedule, and
/// the offers still awaiting an answer.
struct Client<'a> {
    designs: &'a [Design],
    tenants: Vec<TenantId>,
    bits: Vec<u64>,
    rng: StdRng,
    schedule: LoadGen,
    /// `(ticket, offer time ns, stream, bits)` by ticket modulo [`RING`].
    ring: Vec<(u64, u64, usize, u64)>,
    origin: Instant,
    seed: u64,
    to_check: Vec<Sampled>,
    /// Raw latencies, ns, of the window under way.
    latencies: Vec<u64>,
    t: Tally,
}

impl<'a> Client<'a> {
    fn new(designs: &'a [Design], tenants: Vec<TenantId>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0905_5CE5);
        let bits = designs
            .iter()
            .map(|d| draw_bits(&mut rng, d.inputs.len()))
            .collect();
        Client {
            designs,
            tenants,
            bits,
            rng,
            schedule: LoadGen::new(seed, MIX, designs.len()),
            ring: vec![(u64::MAX, 0, 0, 0); RING],
            origin: Instant::now(),
            seed,
            to_check: Vec::new(),
            latencies: Vec::new(),
            t: Tally::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The bits of the next request on `stream`: latency-sensitive
    /// streams flip one seeded input, throughput streams draw fresh bits.
    fn next_bits(&mut self, stream: usize, entropy: u64) -> u64 {
        let n = self.designs[stream].inputs.len();
        if stream < LS_STREAMS {
            self.bits[stream] ^= 1 << (entropy % n as u64);
            self.bits[stream]
        } else {
            draw_bits(&mut self.rng, n)
        }
    }

    /// One virtual cycle: this cycle's offers, one pump, clock +1.
    fn cycle(
        &mut self,
        fe: &mut FrontendDriver,
        arrivals: &[Arrival],
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let mut buf = Vec::new();
        for a in arrivals {
            let bits = self.next_bits(a.stream, a.entropy);
            let designs = self.designs;
            designs[a.stream].fill(bits, &mut buf);
            self.t.offered += 1;
            let at = self.now_ns();
            tr.enter("frontend.offer", self.t.offered);
            let offered = fe.offer(self.tenants[a.stream], &buf, None);
            tr.exit();
            match offered {
                Ok(ticket) => {
                    let t = ticket.value();
                    self.ring[t as usize % RING] = (t, at, a.stream, bits);
                }
                Err(_) => self.t.refused += 1,
            }
        }
        tr.enter("frontend.pump", fe.now());
        let events = fe.pump();
        tr.exit();
        let done = self.now_ns();
        self.absorb(events.map_err(|e| format!("pump: {e}"))?, done);
        fe.advance(1);
        Ok(())
    }

    fn absorb(&mut self, events: Vec<FrontendEvent>, done: u64) {
        for event in events {
            match event {
                FrontendEvent::Completed {
                    ticket,
                    tenant,
                    outputs,
                    latency,
                    ..
                } => {
                    let t = ticket.value();
                    let slot = &mut self.ring[t as usize % RING];
                    let (tag, at, stream, bits) = *slot;
                    if tag != t || self.tenants[stream] != tenant {
                        self.t.wrong += 1;
                        continue;
                    }
                    slot.0 = u64::MAX;
                    self.t.completed += 1;
                    self.latencies.push(done.saturating_sub(at));
                    if stream < LS_STREAMS {
                        self.t.ls_cycles.record(latency);
                    }
                    if sampled(self.seed, t) {
                        self.to_check.push((stream, bits, outputs));
                    }
                }
                FrontendEvent::Expired { .. } => self.t.expired += 1,
                FrontendEvent::Failed { .. } => self.t.faulted += 1,
                // every request here goes through the frontend
                FrontendEvent::PassThrough { .. } => self.t.wrong += 1,
            }
        }
    }

    /// Records the latencies gathered since the last call, at nominal
    /// host speed under `slowdown`.
    fn settle_latencies(&mut self, slowdown: f64) {
        for ns in self.latencies.drain(..) {
            self.t.latency_ns.record(at_nominal(ns, slowdown));
        }
    }

    /// Checks the sampled outputs gathered since the last call.
    fn check(&mut self) {
        for (stream, bits, outputs) in self.to_check.drain(..) {
            self.t.checked += 1;
            if !self.designs[stream].matches(bits, &outputs) {
                self.t.wrong += 1;
            }
        }
    }
}

/// Builds the service and frontend, admits and opens every stream
/// (returning each admission's ns), and warms up on a schedule of its
/// own.
fn setup(designs: &[Design]) -> Result<(FrontendDriver, Vec<TenantId>, Vec<u64>), String> {
    let mut fe = FrontendDriver::new(service(SHARDS)?);
    let mut tenants = Vec::with_capacity(designs.len());
    let mut admit_ns = Vec::with_capacity(designs.len());
    for (i, d) in designs.iter().enumerate() {
        let t = Instant::now();
        let id = fe
            .admit(&d.label, &d.netlist)
            .map_err(|e| format!("admit {}: {e}", d.label))?;
        admit_ns.push(t.elapsed().as_nanos() as u64);
        fe.open_stream(id, policy(i)).map_err(|e| e.to_string())?;
        tenants.push(id);
    }
    let mut warm = Client::new(designs, tenants.clone(), 0xA11CE);
    let mut off = Tracer::new(false);
    for _ in 0..WARMUP_CYCLES {
        let arrivals = warm.schedule.tick();
        warm.cycle(&mut fe, &arrivals, &mut off)?;
    }
    let tail = fe.flush_all().map_err(|e| e.to_string())?;
    warm.absorb(tail, 0);
    warm.check();
    if warm.t.wrong + warm.t.failed() > 0 {
        return Err("warm-up saw wrong answers or failures".into());
    }
    Ok((fe, tenants, admit_ns))
}

/// One epoch's measured phase: `cycles` virtual cycles of the schedule,
/// then a flush of whatever is still queued.
fn serve(
    fe: &mut FrontendDriver,
    client: &mut Client,
    cycles: u64,
    tr: &mut Tracer,
    host: &mut Reference,
) -> Result<(), String> {
    let mut done = 0;
    for w in 0.. {
        if done >= cycles {
            break;
        }
        let n = WINDOW_CYCLES.min(cycles - done);
        let schedule: Vec<Vec<Arrival>> = (0..n).map(|_| client.schedule.tick()).collect();
        let completed = client.t.completed;
        let traced = start_window(tr, w);
        let start = Instant::now();
        for arrivals in &schedule {
            client.cycle(fe, arrivals, tr)?;
        }
        let served = client.t.completed - completed;
        let seconds = secs(start);
        let slowdown = host.probe();
        client.t.windows.push(traced, served, seconds, slowdown);
        client.settle_latencies(slowdown);
        client.check();
        done += n;
    }
    tr.set_recording(false);
    let tail = fe.flush_all().map_err(|e| format!("flush_all: {e}"))?;
    let at = client.now_ns();
    client.absorb(tail, at);
    client.settle_latencies(host.local());
    client.check();
    client.t.wrong += (fe.queued_requests() + fe.inflight_requests()) as u64;
    Ok(())
}

/// Runs `qos_skew`; see the module docs.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let designs = designs().map_err(|e| e.to_string())?;
    let cycles = ((cfg.seconds * CYCLES_PER_SECOND / EPOCHS as f64).round() as u64).max(1);
    let mut detail = provenance("qos_skew", cfg);
    detail
        .num("streams", designs.len() as f64)
        .num("cycles_per_epoch", cycles as f64)
        .num("window_cycles", WINDOW_CYCLES as f64);

    let mut admit_ns = Hist::default();
    let mut setups = Vec::with_capacity(EPOCHS);
    let mut t = Tally::default();
    let mut counters = ServiceCounters::default();
    let mut tr = Tracer::new(cfg.trace);
    let mut host = Reference::default();
    for _ in 0..EPOCHS {
        let start = Instant::now();
        let (mut fe, tenants, admits) = setup(&designs)?;
        let seconds = secs(start);
        let slowdown = host.settle();
        setups.push(seconds / slowdown);
        for ns in admits {
            admit_ns.record(at_nominal(ns, slowdown));
        }
        let before = ServiceCounters::of(fe.service());
        let mut client = Client::new(&designs, tenants, cfg.seed);
        serve(&mut fe, &mut client, cycles, &mut tr, &mut host)?;
        counters = counters + ServiceCounters::of(fe.service()).since(&before);
        t.merge(client.t);
    }
    tr.set_recording(true);
    detail.num("setups", setups.len() as f64);

    let metrics = if cfg.trace {
        let pump = tr.totals("frontend.pump");
        let mut values = counters.ledger();
        values.extend(counters.phase_shares());
        values.extend([
            ("frontend.offer_ns", tr.totals("frontend.offer").mean_ns()),
            ("frontend.pump_us_p50", layer_pct(&pump.hist, 50.0, 1e3)),
            ("frontend.pump_us_p99", layer_pct(&pump.hist, 99.0, 1e3)),
            (
                "frontend.sim_ls_latency_p99_cycles",
                layer_pct(&t.ls_cycles, 99.0, 1.0),
            ),
            ("bench.trace_overhead_share", t.windows.overhead()),
            (
                "bench.fail_share",
                ratio(t.failed() as f64, t.offered as f64),
            ),
        ]);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let all: Vec<&Design> = designs.iter().collect();
        values.extend(fabric_probe(&all, &mut rng, &mut tr)?);
        collect(PER_LAYER, &values)
    } else {
        let times = HostTimes {
            setup_s: setup_median(&setups),
            throughput_rps: t.windows.plain.median().unwrap_or(0.0),
            latency_p50_us: pct(&t.latency_ns, 50.0, 1e3, "latency")?,
            latency_p99_us: pct(&t.latency_ns, 99.0, 1e3, "latency")?,
            admit_p50_ms: pct(&admit_ns, 50.0, 1e6, "admit")?,
        };
        end_to_end(
            times,
            &t.windows.plain,
            counters.energy_pj_per_req(),
            &host,
            &mut detail,
        )
    };

    let wrong = t.wrong;
    detail
        .num("offered", t.offered as f64)
        .num("completed", t.completed as f64)
        .num("latency_samples", t.latency_ns.count() as f64)
        .num("ls_latency_samples", t.ls_cycles.count() as f64)
        .num(
            "sim_ls_latency_p99_cycles",
            t.ls_cycles.percentile(99.0).unwrap_or(f64::NAN),
        )
        .num("admissions", admit_ns.count() as f64)
        .num("passes", counters.steps as f64)
        .num("checked", t.checked as f64)
        .num("mismatches", wrong as f64)
        .num("fail_share", ratio(t.failed() as f64, t.offered as f64))
        .spans(&tr)
        .quartiles("window_rps_q1_med_q3", t.windows.plain.quartiles())
        .num("windows", t.windows.plain.len() as f64)
        .num("traced_windows", t.windows.traced.len() as f64);
    Ok(Outcome {
        correct: wrong == 0 && t.checked > 0 && t.completed + t.failed() == t.offered,
        attempted: t.offered,
        failed: t.failed(),
        metrics,
        detail,
        spans: tr.recorded(),
        span_file: tr.enabled().then(|| tr.render_raw()),
    })
}
