//! Tiny runs of every workload through the library entry point, plus the
//! agreement between the metric lists and `BENCHMARK.json`.

use mcfpga_perfbench::{result_line, run, Config, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// A seed other than the command line's default, so held-out seeds stay clean.
const SEED: u64 = 7;

fn tiny(workload: &str, trace: bool) -> Outcome {
    // tenant_churn needs 20 admissions for its p50: 2.5 s of work is 100 rounds
    let seconds = if workload == "tenant_churn" { 2.5 } else { 0.2 };
    let cfg = Config {
        seed: SEED,
        seconds,
        trace,
    };
    run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn names(o: &Outcome) -> Vec<(&str, &str)> {
    o.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_runs_clean_untraced() {
    for &w in WORKLOADS {
        let o = tiny(w, false);
        assert!(o.correct, "{w}: wrong outputs");
        assert!(o.attempted > 0, "{w}: no work");
        assert_eq!(o.failed, 0, "{w}: failures");
        assert_eq!(o.spans, 0, "{w}: an untraced run recorded spans");
        assert_eq!(names(&o), END_TO_END.to_vec(), "{w}");
        for m in &o.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
        let line = result_line(&o);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_run_reports_every_layer() {
    let o = tiny("qos_skew", true);
    assert!(o.correct);
    assert!(o.spans > 0);
    assert_eq!(names(&o), PER_LAYER.to_vec());
    let value = |n: &str| o.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(value("frontend.offer_ns") > 0.0);
    assert!(value("frontend.pump_us_p99") >= value("frontend.pump_us_p50"));
    assert!(
        value("fabric.ops_skipped_share") > 0.2,
        "one-bit flips reuse cones"
    );
    assert_eq!(
        value("cluster.submit_ns"),
        0.0,
        "qos_skew bypasses the cluster"
    );
    let spans = o.span_file.expect("a traced run keeps its spans");
    assert!(spans
        .lines()
        .nth(1)
        .is_some_and(|l| l.split('\t').count() == 6));
}

#[test]
fn deterministic_figures_repeat_at_one_seed() {
    let a = tiny("qos_skew", false);
    let b = tiny("qos_skew", false);
    let energy = |o: &Outcome| {
        o.metrics
            .iter()
            .find(|m| m.name == "sim_energy_pj_per_req")
            .unwrap()
            .value
    };
    assert_eq!(energy(&a).to_bits(), energy(&b).to_bits());
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = Config {
        seed: SEED,
        seconds: 1.0,
        trace: false,
    };
    assert!(run("nope", &cfg).is_err());
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
    }
    let declared = compact.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
