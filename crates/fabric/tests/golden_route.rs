//! Pinned place & route results.
//!
//! Placement and routing are deterministic functions of
//! `(netlist, params, ctx, seed)`: the annealer draws from a seeded RNG and
//! the router's breadth-first search visits resources in a fixed order. The
//! digests below were produced by the original hash-map annealer and router;
//! any rewrite of either must reproduce them bit for bit.

use mcfpga_fabric::netlist_ir::{generators, LogicNetlist};
use mcfpga_fabric::route::implement_netlist_robust;
use mcfpga_fabric::{Fabric, FabricParams};

fn params() -> FabricParams {
    FabricParams {
        width: 8,
        height: 8,
        channel_width: 6,
        ..FabricParams::default()
    }
}

/// Routes `nl` into context `ctx` of a fresh fabric and returns its digest.
fn digest(nl: &LogicNetlist, ctx: usize) -> u64 {
    let mut f = Fabric::new(params()).unwrap();
    implement_netlist_robust(&mut f, nl, ctx, 0x5EED_0000 + ctx as u64, 8).unwrap();
    f.context_digest(ctx).unwrap()
}

#[test]
fn golden_context_digests() {
    let golden: [(&str, LogicNetlist, [u64; 4]); 5] = [
        (
            "cmp6",
            generators::equality_comparator(6).unwrap(),
            [
                0x426a_1052_ff5a_5ea1,
                0x3104_72be_8b69_76ad,
                0x5e94_f903_dce5_6b12,
                0xae59_f4ec_1b52_e484,
            ],
        ),
        (
            "cmp8",
            generators::equality_comparator(8).unwrap(),
            [
                0xf76a_ac36_6aa5_0b60,
                0x6a66_1562_9512_3750,
                0xd8fe_37ec_13eb_c24f,
                0x3c13_173f_cbdf_cae2,
            ],
        ),
        (
            "cmp12",
            generators::equality_comparator(12).unwrap(),
            [
                0x0e7c_098a_9512_7bb9,
                0xd054_7b31_2c60_1ea8,
                0xdfad_6e3e_76c6_e90f,
                0xd7a9_44dc_adb2_2296,
            ],
        ),
        (
            "cmp16",
            generators::equality_comparator(16).unwrap(),
            [
                0xeed9_35bb_c7dc_1d90,
                0xcda5_0379_251c_bcb5,
                0xe415_8b62_0b0c_22a6,
                0x297b_3b86_a72d_6596,
            ],
        ),
        (
            "par16",
            generators::parity_tree(16).unwrap(),
            [
                0xbd5f_9cfc_dca6_bb72,
                0x9a9e_833a_ce72_87a2,
                0x4c24_d429_d6be_2548,
                0x8e8a_f32b_006c_8890,
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, nl, want) in &golden {
        for (ctx, want) in want.iter().enumerate() {
            let got = digest(nl, ctx);
            if got != *want {
                mismatches.push(format!(
                    "{name} ctx {ctx}: got {got:016x}, want {want:016x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A fanout net seeds each later branch search from the wires it already
/// owns; that start set is visited in claim order, so the same design routes
/// to the same plane in every fresh fabric, process and host. The pinned
/// values are those of the claim-order router (the hash-map router this
/// replaced gave two or more digests per design here, varying by run).
#[test]
fn fanout_designs_route_identically_in_fresh_fabrics() {
    for (name, nl, want) in [
        (
            "ripple_adder(6)",
            generators::ripple_adder(6).unwrap(),
            0x43fa_2dea_9db6_71d9u64,
        ),
        (
            "mux_tree(3)",
            generators::mux_tree(3).unwrap(),
            0xdc71_3c3a_523d_fdf3,
        ),
    ] {
        let digests: Vec<u64> = (0..16).map(|_| digest(&nl, 0)).collect();
        assert!(
            digests.iter().all(|d| *d == want),
            "{name}: {digests:016x?}, want {want:016x}"
        );
    }
}
