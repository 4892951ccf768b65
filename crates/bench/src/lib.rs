//! # mcfpga-bench — experiment harness
//!
//! One function per paper artifact (table, figure, extension experiment),
//! each returning a rendered report with **paper-expected vs measured**
//! values. The `repro` binary prints them; the Criterion benches time the
//! underlying machinery; `EXPERIMENTS.md` records the outputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod loadgen;

use mcfpga_core::equivalence;
use mcfpga_core::redundancy;
use mcfpga_core::timing::TimingParams;
use mcfpga_core::{ArchKind, HybridMcSwitch, McSwitch, MvFgfpMcSwitch, SramMcSwitch};
use mcfpga_cost::report::{percent, render_csv, render_markdown_table};
use mcfpga_cost::sweep;
use mcfpga_css::waveform::render_fig7;
use mcfpga_css::{GeneratorCost, HybridCssGen, Schedule};
use mcfpga_mvl::truth_table::render_fig3;
use mcfpga_mvl::{CtxSet, Level};
use mcfpga_switchblock::{
    column_row_usage, mapping::select_networks_needed, remap_to_designated_rows, sb_transistors,
    RouteSet, SwitchBlock,
};

/// Experiment identifiers, mirroring DESIGN.md's index.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "scaling",
    "redundancy",
    "power",
    "latency",
];

/// Table 1 — MC-switch transistor counts (paper: 31 / 4 / 2 at C=4).
#[must_use]
pub fn table1_report() -> String {
    let paper = [31usize, 4, 2];
    let rows: Vec<Vec<String>> = mcfpga_cost::table1(4)
        .into_iter()
        .zip(paper)
        .map(|(r, p)| {
            vec![
                r.label.to_string(),
                p.to_string(),
                r.transistors.to_string(),
                percent(r.vs_sram),
            ]
        })
        .collect();
    format!(
        "## Table 1 — transistor count of an MC-switch (4 contexts)\n\n{}",
        render_markdown_table(&["architecture", "paper", "measured", "vs SRAM"], &rows)
    )
}

/// Table 2 — 10×10 MC-SB transistor counts (paper: 3100 / 400 / 240).
#[must_use]
pub fn table2_report() -> String {
    let paper = [3100usize, 400, 240];
    let rows: Vec<Vec<String>> = mcfpga_switchblock::count::table2(10, 4)
        .into_iter()
        .zip(paper)
        .map(|(r, p)| {
            vec![
                r.label.to_string(),
                p.to_string(),
                r.transistors.to_string(),
                percent(r.vs_sram),
            ]
        })
        .collect();
    format!(
        "## Table 2 — transistor count of a 10×10 MC-SB (4 contexts)\n\n{}",
        render_markdown_table(&["architecture", "paper", "measured", "vs SRAM"], &rows)
    )
}

/// Fig. 1 — overall MC-FPGA structure (structural census of a small fabric).
#[must_use]
pub fn fig1_report() -> String {
    use mcfpga_fabric::{Fabric, FabricParams};
    let mut out = String::from("## Fig. 1 — overall structure of an MC-FPGA\n\n");
    for arch in ArchKind::all() {
        let f = Fabric::new(FabricParams {
            arch,
            ..FabricParams::default()
        })
        .expect("default fabric");
        out.push_str(&format!(
            "- {}: 4×4 cells, {} cross-points, {} routing transistors, {} LUT config bits\n",
            arch.label(),
            f.crosspoint_count(),
            f.routing_transistor_count(),
            f.lut_config_bits(),
        ));
    }
    out
}

/// Fig. 2 — the conventional SRAM MC-switch.
#[must_use]
pub fn fig2_report() -> String {
    let mut sw = SramMcSwitch::new(4).expect("4 contexts");
    sw.configure(&CtxSet::from_ctxs(4, [1, 3]).expect("cfg"))
        .expect("configure");
    let nl = sw.build_netlist().expect("netlist");
    format!(
        "## Fig. 2 — SRAM-based MC-switch (4 contexts)\n\n\
         - storage: {} SRAM cells (6T each)\n\
         - config MUX: {} support transistors\n\
         - routing pass transistor: 1\n\
         - total: {} (paper: 31)\n",
        nl.sram_cell_count(),
        nl.support_transistor_count(),
        nl.transistor_count()
    )
}

/// Fig. 3 — switch function as OR of window literals.
#[must_use]
pub fn fig3_report() -> String {
    let f = CtxSet::from_ctxs(4, [1, 3]).expect("paper's F");
    format!(
        "## Fig. 3 — function of an MC-switch as windows\n\n```\n{}```\n",
        render_fig3(&f)
    )
}

/// Fig. 4 — up-literal and down-literal.
#[must_use]
pub fn fig4_report() -> String {
    use mcfpga_mvl::truth_table::{render_rows, tabulate_literal};
    use mcfpga_mvl::{DownLiteral, UpLiteral};
    let up = UpLiteral::new(Level::new(2));
    let down = DownLiteral::new(Level::new(2));
    format!(
        "## Fig. 4 — threshold literals (4-level rail, T = 2)\n\n```\nup-literal\n{}\n\ndown-literal\n{}\n```\n",
        render_rows("S", "F", &tabulate_literal(&up, 4)),
        render_rows("S", "F", &tabulate_literal(&down, 4)),
    )
}

/// Figs. 5–6 — the MV-FGFP switch at 4 and 8 contexts.
#[must_use]
pub fn fig5_fig6_report() -> String {
    let mut out = String::from("## Figs. 5–6 — MV-FGFP MC-switch\n\n");
    for contexts in [4usize, 8] {
        let mut sw = MvFgfpMcSwitch::new(contexts).expect("switch");
        let alternating = CtxSet::from_ctxs(contexts, (0..contexts).step_by(2)).expect("cfg");
        sw.configure(&alternating).expect("configure");
        out.push_str(&format!(
            "- {contexts} contexts: {} FGMOS + {} doubling MUXes = {} transistors \
             (closed form {}); worst-case config uses {} branches\n",
            sw.fgmos_count(),
            sw.mux_count(),
            sw.transistor_count(),
            MvFgfpMcSwitch::transistor_count_for(contexts),
            sw.branches_used(),
        ));
    }
    out.push_str("- equivalence: all 2^C configurations agree with SRAM and hybrid (see tests)\n");
    out
}

/// Fig. 7 — the hybrid CSS waveforms over one round-robin sweep.
#[must_use]
pub fn fig7_report() -> String {
    let gen = HybridCssGen::new(4).expect("4 contexts");
    let sched = Schedule::round_robin(4, 1).expect("schedule");
    format!(
        "## Fig. 7 — hybrid MV/B-CSS waveforms (contexts 0→3)\n\n```\n{}```\n",
        render_fig7(&gen, &sched).expect("render")
    )
}

/// Fig. 8 — the CSS generator and its amortised overhead.
#[must_use]
pub fn fig8_report() -> String {
    let g = GeneratorCost::for_contexts(4).expect("4 contexts");
    let sb_switches = 100; // one 10×10 SB
    let fabric_switches = 6400; // 8×8 cells × 100
    format!(
        "## Fig. 8 — MV/B-CSS generator\n\n\
         - drivers: {} T, binary inverter: {} T, MV inverter: {} T → total {} T\n\
         - shared overhead per switch: {:.3} T across one 10×10 SB, {:.4} T across an 8×8-cell fabric\n\
         - (paper: \"they can be shared among several MC-switches, and its overhead is negligible\")\n",
        g.driver_transistors,
        g.binary_inverter_transistors,
        g.mv_inverter_transistors,
        g.total(),
        g.overhead_per_switch(sb_switches),
        g.overhead_per_switch(fabric_switches),
    )
}

/// Figs. 9–10 — the hybrid switch: exclusivity and MUX-free scaling.
#[must_use]
pub fn fig9_fig10_report() -> String {
    let mut out = String::from("## Figs. 9–10 — proposed hybrid MC-switch\n\n");
    for contexts in [4usize, 8, 16, 64] {
        out.push_str(&format!(
            "- {contexts} contexts: {} FGMOS, 0 MUXes (paper: \"does not require any additional MUX\")\n",
            HybridMcSwitch::transistor_count_for(contexts),
        ));
    }
    // exclusivity, verified live
    let mut sw = HybridMcSwitch::new(4).expect("switch");
    let mut max_on = 0;
    for s in CtxSet::enumerate_all(4).expect("enumerable") {
        sw.configure(&s).expect("configure");
        for ctx in 0..4 {
            max_on = max_on.max(sw.on_fgmos_count(ctx).expect("count"));
        }
    }
    out.push_str(&format!(
        "- exclusive-ON verified over all 16 configs × 4 contexts: max simultaneous ON FGMOS = {max_on}\n",
    ));
    out
}

/// Fig. 11 — column-shared switch block.
#[must_use]
pub fn fig11_report() -> String {
    let routes = RouteSet::random_permutations(10, 4, 2024).expect("routes");
    let before = select_networks_needed(&routes).1;
    let out = remap_to_designated_rows(&routes).expect("remap");
    let after = select_networks_needed(&out.routes).1;
    let usage = column_row_usage(&out.routes);
    let max_rows_per_col = usage.iter().map(Vec::len).max().unwrap_or(0);
    let mut sb = SwitchBlock::new(ArchKind::Hybrid, 10, 10, 4).expect("sb");
    sb.configure(&out.routes).expect("configure");
    sb.verify_against_routes().expect("verify");
    format!(
        "## Fig. 11 — MC-SB with column-shared control signals\n\n\
         - random 4-context permutation routes on 10×10: {before} select networks if rows fixed\n\
         - after designated-row remapping: {after} (= N, the paper's claim); max rows/column = {max_rows_per_col}\n\
         - remapped block configured + verified in silicon model: OK\n\
         - transistors: {} (= K²·C/2 + K·C)\n",
        sb.transistor_count(),
    )
}

/// X1 — scaling sweeps (CSV series for per-switch and SB counts).
#[must_use]
pub fn scaling_report() -> String {
    let per_switch = sweep::contexts_sweep(&sweep::STANDARD_CONTEXTS);
    let sb = sweep::sb_size_sweep(&[2, 5, 10, 20, 40], 4);
    format!(
        "## X1 — scaling sweeps\n\nper-switch transistors vs contexts:\n```\n{}```\n\nSB transistors vs K (C=4):\n```\n{}```\n",
        render_csv("contexts", &["sram", "mv_fgfp", "hybrid"], &per_switch),
        render_csv("k", &["sram", "mv_fgfp", "hybrid"], &sb),
    )
}

/// X2 — redundancy quantification.
#[must_use]
pub fn redundancy_report() -> String {
    let r4 = redundancy::measure(4).expect("C=4");
    let r8 = redundancy::measure(8).expect("C=8");
    format!("## X2 — redundancy (the waste the hybrid signal removes)\n\n{r4}\n\n{r8}\n")
}

/// X3 — static power.
#[must_use]
pub fn power_report() -> String {
    use mcfpga_cost::power::{sb_static_w, switch_static_w};
    let p = mcfpga_device::TechParams::default();
    let mut out = String::from("## X3 — static power of configuration storage\n\n");
    for arch in ArchKind::all() {
        out.push_str(&format!(
            "- {}: {:.3e} W per switch, {:.3e} W per 10×10 SB\n",
            arch.label(),
            switch_static_w(arch, 4, &p),
            sb_static_w(arch, 10, 4, &p),
        ));
    }
    out.push_str("- (paper §4: FGFPs need \"no supply voltage ... to keep the storage\")\n");
    out
}

/// Latency extension — context-switch depth vs context count.
#[must_use]
pub fn latency_report() -> String {
    let pts = sweep::latency_sweep(&sweep::STANDARD_CONTEXTS, &TimingParams::default());
    format!(
        "## X-latency — context-switch latency model (ps)\n\n```\n{}```\n- hybrid latency is constant in C; SRAM grows with log2(C); MV gains a MUX stage per doubling\n",
        render_csv("contexts", &["sram", "mv_fgfp", "hybrid"], &pts),
    )
}

/// Cross-architecture equivalence statement (exhaustive).
#[must_use]
pub fn equivalence_report() -> String {
    let c4 = equivalence::check_exhaustive(4).expect("C=4");
    let c8 = equivalence::check_exhaustive(8).expect("C=8");
    format!(
        "## Equivalence — all three architectures agree\n\n- C=4: {c4} configurations checked exhaustively\n- C=8: {c8} configurations checked exhaustively\n"
    )
}

/// Everything, in paper order.
#[must_use]
pub fn full_report() -> String {
    [
        table1_report(),
        table2_report(),
        fig1_report(),
        fig2_report(),
        fig3_report(),
        fig4_report(),
        fig5_fig6_report(),
        fig7_report(),
        fig8_report(),
        fig9_fig10_report(),
        fig11_report(),
        scaling_report(),
        redundancy_report(),
        power_report(),
        latency_report(),
        equivalence_report(),
    ]
    .join("\n")
}

/// Parallel exhaustive equivalence sweep: splits the `2^contexts`
/// configuration space across `threads` workers (std scoped threads),
/// each building its own three switches. Returns total configurations
/// checked; panics on any disagreement.
///
/// Used by the scaling bench to push exhaustive checking to `C = 16+`
/// within a time budget, and as the workspace's demonstration of the
/// embarrassingly-parallel sweep pattern.
pub fn parallel_exhaustive_equivalence(contexts: usize, threads: usize) -> usize {
    assert!(contexts <= 20, "config space explodes past 2^20");
    assert!(threads >= 1);
    let total: u64 = 1u64 << contexts;
    let chunk = total.div_ceil(threads as u64);
    let counter = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let counter = &counter;
            scope.spawn(move || {
                let mut switches =
                    equivalence::build_all(contexts).expect("buildable architectures");
                let lo = t as u64 * chunk;
                let hi = (lo + chunk).min(total);
                let mut local = 0usize;
                for mask in lo..hi {
                    let s = CtxSet::from_mask(contexts, mask).expect("mask in domain");
                    let mismatches =
                        equivalence::check_config(&mut switches, &s).expect("configurable");
                    assert!(mismatches.is_empty(), "disagreement on {s}");
                    local += 1;
                }
                counter.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    counter.load(std::sync::atomic::Ordering::Relaxed)
}

/// Sanity used by benches: Table 1/2 must match the paper exactly.
#[must_use]
pub fn paper_numbers_hold() -> bool {
    mcfpga_cost::switch_transistors(ArchKind::Sram, 4) == 31
        && mcfpga_cost::switch_transistors(ArchKind::MvFgfp, 4) == 4
        && mcfpga_cost::switch_transistors(ArchKind::Hybrid, 4) == 2
        && sb_transistors(ArchKind::Sram, 10, 4) == 3100
        && sb_transistors(ArchKind::MvFgfp, 10, 4) == 400
        && sb_transistors(ArchKind::Hybrid, 10, 4) == 240
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        assert!(paper_numbers_hold());
    }

    #[test]
    fn reports_render() {
        let full = full_report();
        for needle in [
            "Table 1",
            "Table 2",
            "Fig. 3",
            "Fig. 7",
            "Fig. 11",
            "31",
            "3100",
            "240",
            "S0·Vs",
            "window [1,1]",
        ] {
            assert!(full.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn parallel_sweep_counts_everything() {
        assert_eq!(parallel_exhaustive_equivalence(8, 4), 256);
        assert_eq!(parallel_exhaustive_equivalence(8, 3), 256);
    }

    #[test]
    fn bench_out_dir_honours_the_variable() {
        let root = bench_out_dir(None);
        assert!(
            root.join("Cargo.toml").is_file(),
            "{root:?} is the repo root"
        );
        assert_eq!(bench_out_dir(Some("".into())), root);
        assert_eq!(
            bench_out_dir(Some("out/bench".into())),
            std::path::PathBuf::from("out/bench")
        );
    }

    #[test]
    fn table_reports_show_exact_match() {
        let t1 = table1_report();
        assert!(t1.contains("| SRAM-based one | 31 | 31 |"));
        assert!(t1.contains("| Proposed one | 2 | 2 |"));
        let t2 = table2_report();
        assert!(t2.contains("| SRAM-based one | 3100 | 3100 |"));
        assert!(t2.contains("| Proposed one | 240 | 240 |"));
    }
}

/// Is `MCFPGA_BENCH_SMOKE` set (to anything but `0`)? Benches use this
/// to run acceptance checks + artifacts only and skip wall-clock
/// sampling — the mode CI uses on every push.
#[must_use]
pub fn smoke() -> bool {
    std::env::var_os("MCFPGA_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// Mean wall-clock microseconds of `f` over `iters` calls — the plain
/// `Instant` timing loop the JSON artifacts use (independent of the
/// criterion harness, cheap enough for smoke mode).
pub fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / iters.max(1) as f64
}

/// One value in a machine-readable `BENCH_<name>.json` artifact.
#[derive(Debug, Clone)]
pub enum BenchValue {
    /// A measurement (latency, speedup, percentage). Non-finite values
    /// serialize as `null`.
    Num(f64),
    /// A count (requests, toggles, bytes).
    Int(u64),
    /// A flag (e.g. whether a gate was enforced on this machine).
    Bool(bool),
    /// A label (units, mode).
    Str(String),
}

impl From<f64> for BenchValue {
    fn from(v: f64) -> Self {
        BenchValue::Num(v)
    }
}
impl From<u64> for BenchValue {
    fn from(v: u64) -> Self {
        BenchValue::Int(v)
    }
}
impl From<usize> for BenchValue {
    fn from(v: usize) -> Self {
        BenchValue::Int(v as u64)
    }
}
impl From<bool> for BenchValue {
    fn from(v: bool) -> Self {
        BenchValue::Bool(v)
    }
}
impl From<&str> for BenchValue {
    fn from(v: &str) -> Self {
        BenchValue::Str(v.to_string())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `fields` as a flat JSON object (insertion order preserved).
/// Keys may be `&str` literals or owned `String`s.
#[must_use]
pub fn render_bench_json<K: AsRef<str>>(name: &str, fields: &[(K, BenchValue)]) -> String {
    let mut body = String::new();
    body.push_str(&format!("  \"bench\": \"{}\"", json_escape(name)));
    for (key, value) in fields {
        body.push_str(",\n");
        body.push_str(&format!("  \"{}\": ", json_escape(key.as_ref())));
        match value {
            BenchValue::Num(v) if v.is_finite() => body.push_str(&format!("{v}")),
            BenchValue::Num(_) => body.push_str("null"),
            BenchValue::Int(v) => body.push_str(&format!("{v}")),
            BenchValue::Bool(v) => body.push_str(&format!("{v}")),
            BenchValue::Str(v) => body.push_str(&format!("\"{}\"", json_escape(v))),
        }
    }
    format!("{{\n{body}\n}}\n")
}

/// The provenance every committed artifact must carry: how many CPU
/// cores the writing machine had (`cpu_cores`) and whether its timing
/// gates were actually enforced there (`gates_enforced` — false in
/// [`smoke`] mode, where wall-clock assertions are skipped). Without
/// these a committed number can't be judged: a latency measured on a
/// 2-core CI box under smoke mode is not evidence of a regression.
#[must_use]
pub fn provenance_fields() -> Vec<(String, BenchValue)> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("cpu_cores".to_string(), cores.into()),
        ("gates_enforced".to_string(), (!smoke()).into()),
    ]
}

/// Directory `BENCH_*.json` artifacts go to: `MCFPGA_BENCH_OUT_DIR` when
/// set and non-empty, otherwise the repository root.
fn bench_out_dir(var: Option<std::ffi::OsString>) -> std::path::PathBuf {
    match var {
        Some(dir) if !dir.is_empty() => dir.into(),
        // CARGO_MANIFEST_DIR is crates/bench at compile time; the repo root
        // is two levels up — stable regardless of the bench's working dir
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the repo root")
            .to_path_buf(),
    }
}

/// Writes `BENCH_<name>.json` so the perf trajectory of every gated
/// benchmark is tracked in-tree. Returns the path written. Fields keep
/// insertion order; values follow [`BenchValue`]'s JSON mapping. The
/// [`provenance_fields`] are appended automatically (callers' own fields
/// win on key collision — the appended ones are skipped).
///
/// The file goes to the directory named by the `MCFPGA_BENCH_OUT_DIR`
/// environment variable (created if missing), so a local or copied-tree
/// run can keep the committed artifacts untouched:
///
/// ```text
/// MCFPGA_BENCH_OUT_DIR=/tmp/bench cargo bench -p mcfpga-bench --bench eval_kernel
/// ```
///
/// Unset or empty, it is the repository root this crate was compiled in.
pub fn write_bench_json<K: AsRef<str>>(
    name: &str,
    fields: &[(K, BenchValue)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = bench_out_dir(std::env::var_os("MCFPGA_BENCH_OUT_DIR"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut all: Vec<(String, BenchValue)> = fields
        .iter()
        .map(|(k, v)| (k.as_ref().to_string(), v.clone()))
        .collect();
    for (key, value) in provenance_fields() {
        if !all.iter().any(|(k, _)| *k == key) {
            all.push((key, value));
        }
    }
    std::fs::write(&path, render_bench_json(name, &all))?;
    Ok(path)
}
