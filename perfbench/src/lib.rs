//! # mcfpga-perfbench — the serving benchmark
//!
//! Three fixed-work workloads driven from one thread, every output
//! checked, end-to-end metrics from an untraced run and a per-layer
//! ledger from a separate traced run. See `README.md` beside this crate
//! for the workloads, why each was chosen, and which layer metric should
//! move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod batch_fill;
pub mod common;
pub mod qos_skew;
pub mod reference;
pub mod stats;
pub mod tenant_churn;
pub mod trace;

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every workload's
/// untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("admit_p50_ms", "ms"),
    ("sim_energy_pj_per_req", "pJ"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload's traced
/// run. A layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.offer_ns", "ns"),
    ("frontend.pump_us_p50", "us"),
    ("frontend.pump_us_p99", "us"),
    ("frontend.sim_ls_latency_p99_cycles", "cycles"),
    ("cluster.submit_ns", "ns"),
    ("cluster.drain_us", "us"),
    ("cluster.rss_bytes_per_req", "B"),
    ("service.submit_ns", "ns"),
    ("service.submit_flush_us", "us"),
    ("service.drain_us", "us"),
    ("service.plan_share", "ratio"),
    ("service.eval_share", "ratio"),
    ("service.apply_share", "ratio"),
    ("service.lanes_per_pass", "count"),
    ("service.passes_per_req", "ratio"),
    ("service.admit_p90_ms", "ms"),
    ("fabric.route_ms", "ms"),
    ("fabric.compile_us", "us"),
    ("fabric.bind_us", "us"),
    ("fabric.eval_ns_per_lane", "ns"),
    ("fabric.ops_skipped_share", "ratio"),
    ("registry.plane_cache_hit_share", "ratio"),
    ("migrate.p50_us", "us"),
    ("migrate.p90_us", "us"),
    ("migrate.checkpoint_us", "us"),
    ("migrate.encode_us", "us"),
    ("migrate.decode_us", "us"),
    ("migrate.wire_bytes", "B"),
    ("executor.inline_drain_us", "us"),
    ("executor.pool_drain_us", "us"),
    ("telemetry.trace_dropped_per_req", "ratio"),
    ("bench.fail_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["batch_fill", "qos_skew", "tenant_churn"];

/// One run's settings, straight from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Seeds every generated input.
    pub seed: u64,
    /// Sizes the fixed work: each workload does a set amount of work per
    /// second asked for, calibrated so a run measures about this long on
    /// a 2-core x86 host. The work never depends on the clock.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one run observed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output matched its oracle and every request was
    /// answered exactly once or counted as failed.
    pub correct: bool,
    /// Operations offered (requests, admissions, migrations).
    pub attempted: u64,
    /// Operations refused, expired, faulted or wrong.
    pub failed: u64,
    /// The reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Provenance and distribution details, one JSON object.
    pub detail: Json,
    /// Spans recorded by the benchmark (0 on an untraced run).
    pub spans: u64,
    /// The verbatim span file of a traced run.
    pub span_file: Option<String>,
}

/// Runs `workload` under `cfg`.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "batch_fill" => batch_fill::run(cfg),
        "qos_skew" => qos_skew::run(cfg),
        "tenant_churn" => tenant_churn::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Fills the declared metric list `names` from `values`, in declaration
/// order; a name missing from `values` reads 0 (the workload does not
/// reach that layer).
#[must_use]
pub fn collect(names: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// A flat JSON object built field by field (no serde in the workspace's
/// offline dependency set).
#[derive(Debug, Clone, Default)]
pub struct Json(Vec<(String, String)>);

/// Renders a number as JSON: all its digits, `null` when not finite.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Json {
    /// Adds a numeric field.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.to_string(), json_num(v)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds a nested object.
    pub fn obj(&mut self, key: &str, v: &Json) -> &mut Self {
        self.0.push((key.to_string(), v.render()));
        self
    }

    /// Adds a list of numbers.
    pub fn nums(&mut self, key: &str, v: &[f64]) -> &mut Self {
        let items: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
        self.0
            .push((key.to_string(), format!("[{}]", items.join(", "))));
        self
    }

    /// Adds `[q1, median, q3]` of a distribution under `key`.
    pub fn quartiles(&mut self, key: &str, q: Option<[f64; 3]>) -> &mut Self {
        match q {
            Some(q) => self.nums(key, &q),
            None => self.nums(key, &[]),
        }
    }

    /// Adds the spans a tracer recorded: `span <name>` →
    /// `[count, total ms, self ms]`, self time being what the span's
    /// children do not cover.
    pub fn spans(&mut self, tr: &trace::Tracer) -> &mut Self {
        self.num("spans", tr.recorded() as f64);
        for (name, t) in tr.all_totals() {
            self.nums(
                &format!("span {name}"),
                &[
                    t.count as f64,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                ],
            );
        }
        self
    }

    /// The object as one line of JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": {v}");
        }
        out.push('}');
        out
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(o: &Outcome) -> String {
    let mut metrics = Json::default();
    for m in &o.metrics {
        let mut v = Json::default();
        v.num("value", m.value).str("unit", m.unit);
        metrics.obj(m.name, &v);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.render()
    )
}
