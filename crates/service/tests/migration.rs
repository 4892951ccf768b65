//! Live-migration integration: checkpoint/restore/migrate/evacuate against
//! a twin tenant that never moves, asserting bit-for-bit equivalence,
//! request-id conservation, fault-record consistency and billing.

use mcfpga_device::TechParams;
use mcfpga_fabric::netlist_ir::generators;
use mcfpga_fabric::{FabricParams, LogicNetlist};
use mcfpga_service::{
    MigrateError, Placement, ServiceError, ShardedService, TenantCheckpoint, TenantId,
};

fn service(shards: usize) -> ShardedService {
    ShardedService::new(shards, FabricParams::default(), TechParams::default()).unwrap()
}

/// `y = x XOR reg:acc`, `reg:acc = y` — a one-bit stream accumulator:
/// pass `n` answers `y_n = x_n ⊕ y_{n-1}` (lane-aligned state).
fn accumulator() -> LogicNetlist {
    let mut nl = LogicNetlist::new();
    let x = nl.add_input("x");
    let acc = nl.add_input("reg:acc");
    let xor = nl.add_lut("t", &[x, acc], 0b0110).unwrap();
    nl.add_output("y", xor).unwrap();
    nl.add_output("reg:acc", xor).unwrap();
    nl
}

fn parity_inputs(v: u32) -> Vec<(String, bool)> {
    (0..3)
        .map(|i| (format!("x{i}"), (v >> i) & 1 == 1))
        .collect()
}

fn submit3(svc: &mut ShardedService, t: TenantId, v: u32) {
    let owned = parity_inputs(v);
    let refs: Vec<(&str, bool)> = owned.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    svc.submit(t, &refs).unwrap();
}

/// A migrated tenant's pending requests keep their ids and produce
/// exactly the responses a never-migrated twin produces.
#[test]
fn migration_preserves_request_ids_and_outputs() {
    let mut svc = service(3);
    let parity = generators::parity_tree(3).unwrap();
    let mover = svc.admit("mover", &parity).unwrap(); // shard 0
    let twin = svc.admit("twin", &parity).unwrap(); // shard 1

    let vectors = [0b101u32, 0b010, 0b111, 0b001];
    for &v in &vectors {
        submit3(&mut svc, mover, v);
        submit3(&mut svc, twin, v);
    }
    let before = svc.pending_requests();
    let dst = svc.migrate_tenant(mover, 2).unwrap();
    assert_eq!(dst.shard, 2);
    assert_eq!(
        svc.pending_requests(),
        before,
        "migration drops or invents no requests"
    );
    assert_eq!(svc.registry().tenant(mover).unwrap().placement, dst);
    assert_eq!(svc.registry().occupant(0, 0), None, "source slot freed");

    let mut responses = svc.drain().unwrap();
    responses.sort_by_key(|r| r.request);
    assert_eq!(responses.len(), 2 * vectors.len());
    // interleaved submission: even ids are the mover's, odd the twin's
    for pair in responses.chunks(2) {
        assert_eq!(pair[0].tenant, mover);
        assert_eq!(pair[1].tenant, twin);
        assert_eq!(
            pair[0].outputs, pair[1].outputs,
            "migrated tenant must answer bit-for-bit like its twin"
        );
    }
    assert!(svc.take_faults().is_empty());

    // overhead was billed
    let usage = svc.usage(mover).unwrap();
    assert_eq!(usage.migrations, 1);
    assert!(usage.migration_bytes > 0);
    assert_eq!(usage.migration_downtime_cycles, 1 + vectors.len());
    assert_eq!(svc.usage(twin).unwrap().migrations, 0);
    let report = svc.billing_report();
    assert!(report.contains("migr"));
}

/// Stream-register state survives migration: an accumulator continues its
/// stream at the destination exactly where the source left off.
#[test]
fn register_state_travels_with_the_tenant() {
    let mut svc = service(2);
    let acc = accumulator();
    let mover = svc.admit("mover", &acc).unwrap(); // shard 0
    let twin = svc.admit("twin", &acc).unwrap(); // shard 1

    let stream = [true, true, false, true, false, false, true];
    let mut expected = Vec::new();
    let mut state = false;
    for &x in &stream {
        state ^= x;
        expected.push(state);
    }
    // half the stream, then migrate mid-stream, then the rest
    let mut got_mover = Vec::new();
    let mut got_twin = Vec::new();
    for (i, &x) in stream.iter().enumerate() {
        if i == 3 {
            assert_eq!(svc.register_file(mover).unwrap().len(), 1, "state exists");
            svc.migrate_tenant(mover, 1).unwrap();
        }
        svc.submit(mover, &[("x", x)]).unwrap();
        svc.submit(twin, &[("x", x)]).unwrap();
        for r in svc.drain().unwrap() {
            let y = r
                .outputs
                .iter()
                .find(|(n, _)| &**n == "y")
                .expect("reg outputs are state, not answers")
                .1;
            assert!(
                !r.outputs.iter().any(|(n, _)| n.starts_with("reg:")),
                "register values must not leak into responses"
            );
            if r.tenant == mover {
                got_mover.push(y);
            } else {
                got_twin.push(y);
            }
        }
    }
    assert_eq!(got_mover, expected, "stream unbroken across migration");
    assert_eq!(got_twin, expected);
}

/// Satellite regression: a tenant checkpointed mid-fault must not
/// resurrect already-discarded requests — a restore issues fresh ids and
/// never replays retired ones.
#[test]
fn stale_checkpoint_cannot_resurrect_discarded_requests() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();

    svc.inject_plane_fault(t).unwrap();
    submit3(&mut svc, t, 0b011);
    submit3(&mut svc, t, 0b110);
    assert!(
        svc.drain().unwrap().is_empty(),
        "faulted pass answers nothing"
    );
    let faults = svc.take_faults();
    assert_eq!(faults.len(), 1);

    // checkpoint taken mid-fault: it snapshots the two pending requests
    let ckpt = svc.checkpoint_tenant(t).unwrap();
    assert_eq!(ckpt.pending.lanes, 2);
    let retired: Vec<u64> = ckpt.pending.requests.clone();

    // ... which are then discarded at the source
    assert_eq!(svc.discard_pending(t).unwrap(), 2);
    svc.repair_plane(t).unwrap();

    // restoring the stale checkpoint re-queues the *payloads* under fresh
    // ids; the discarded ids stay dead
    let (clone, fresh) = svc.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(fresh.len(), 2);
    for id in &fresh {
        assert!(
            !retired.contains(&id.value()),
            "restore reissued a retired request id"
        );
    }
    let responses = svc.drain().unwrap();
    // the restored clone's plane is the cached *healthy* plane (the digest
    // names the true configuration, not the injected corruption)
    let clone_responses: Vec<_> = responses.iter().filter(|r| r.tenant == clone).collect();
    assert_eq!(clone_responses.len(), 2);
    for r in &responses {
        assert!(
            !retired.contains(&r.request.value()),
            "a discarded request was answered"
        );
    }
}

/// Migrating a tenant whose plane is currently faulted moves the fault,
/// not heals it: recorded faults re-point at the new slot, the poisoned
/// plane travels, and repair-by-digest still restores service there.
#[test]
fn migration_preserves_fault_state_and_repair_path() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();

    svc.inject_plane_fault(t).unwrap();
    submit3(&mut svc, t, 0b101);
    assert!(svc.drain().unwrap().is_empty());
    // fault recorded at (0, 0); do NOT take it yet — migrate first
    let dst = svc.migrate_tenant(t, 1).unwrap();

    let faults = svc.take_faults();
    assert_eq!(faults.len(), 1);
    assert_eq!(
        (faults[0].shard, faults[0].ctx),
        (dst.shard, dst.ctx),
        "fault records follow the migrated slot"
    );

    // the poisoned plane travelled: the next pass still faults, at dst
    assert!(svc.drain().unwrap().is_empty());
    let faults = svc.take_faults();
    assert_eq!((faults[0].shard, faults[0].ctx), (dst.shard, dst.ctx));

    // repair resolves through the digest cache (the tenant is no longer
    // fabric-resident, so this is the only path) and the request completes
    svc.repair_plane(t).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].outputs[0].1, false ^ true ^ false ^ true);
    assert_eq!(svc.pending_requests(), 0);
}

/// Evacuation clears the shard, keeps every pending request answerable,
/// and refuses (atomically) when the pool cannot absorb the tenants.
#[test]
fn evacuation_moves_every_tenant_or_nothing() {
    let mut svc = service(3);
    let parity = generators::parity_tree(3).unwrap();
    let wire = generators::wire_lanes(1).unwrap();
    // round-robin: shard 0 gets t0 and t3
    let t0 = svc.admit("t0", &parity).unwrap();
    let _t1 = svc.admit("t1", &wire).unwrap();
    let _t2 = svc.admit("t2", &parity).unwrap();
    let t3 = svc.admit("t3", &wire).unwrap();
    submit3(&mut svc, t0, 0b110);
    svc.submit(t3, &[("in0", true)]).unwrap();

    svc.inject_plane_fault(t0).unwrap();
    let moved = svc.evacuate_shard(0).unwrap();
    assert_eq!(moved.len(), 2);
    assert!(moved.iter().all(|(_, p)| p.shard != 0));
    assert!(svc.registry().occupied_contexts(0).is_empty());

    // faulted tenant still faulted (evacuation is not a repair) …
    assert_eq!(svc.drain().unwrap().len(), 1, "t3 served from its new slot");
    assert_eq!(svc.take_faults().len(), 1);
    // … until repaired, wherever it now lives
    svc.repair_plane(t0).unwrap();
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].tenant, t0);
    assert!(!responses[0].outputs[0].1, "parity(0,1,1) is even");

    // a 1-shard service can never evacuate: nothing moves, typed error
    let mut small = service(1);
    let a = small.admit("a", &parity).unwrap();
    submit3(&mut small, a, 0b001);
    let err = small.evacuate_shard(0).unwrap_err();
    assert_eq!(
        err,
        ServiceError::Migrate(MigrateError::EvacuationBlocked {
            tenants: 1,
            free_elsewhere: 0,
        })
    );
    assert_eq!(small.registry().tenant(a).unwrap().placement.shard, 0);
    assert_eq!(small.pending_requests(), 1, "nothing was disturbed");
}

/// Cross-service restore: a checkpoint serialized on one service resumes
/// on another that has the plane cached, and refuses one that does not.
#[test]
fn serialized_checkpoint_restores_across_services() {
    let parity = generators::parity_tree(3).unwrap();
    let mut src = service(1);
    let t = src.admit("roamer", &parity).unwrap();
    submit3(&mut src, t, 0b111);
    let wire = src.checkpoint_tenant(t).unwrap().to_bytes();

    let ckpt = TenantCheckpoint::from_bytes(&wire).unwrap();

    // a destination that has seen the same netlist holds the plane
    let mut dst = service(2);
    dst.admit("seeder", &parity).unwrap();
    let (restored, fresh) = dst.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(fresh.len(), 1);
    let responses = dst.drain().unwrap();
    let ours: Vec<_> = responses.iter().filter(|r| r.tenant == restored).collect();
    assert_eq!(ours.len(), 1);
    assert!(ours[0].outputs[0].1, "parity(1,1,1)");
    assert_eq!(dst.usage(restored).unwrap().requests, ckpt.usage.requests);

    // a cold destination cannot materialize the plane from a digest
    let mut cold = service(1);
    assert!(matches!(
        cold.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::PlaneUnavailable { .. }))
    ));

    // a truly incompatible destination refuses outright: a *smaller*
    // grid cannot embed the checkpointed plane …
    let mut narrow = ShardedService::new(
        1,
        FabricParams {
            width: 3,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .unwrap();
    assert!(matches!(
        narrow.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::GeometryMismatch { .. }))
    ));
    // … and neither can a grid whose tiles have a different resource
    // shape, however large
    let mut fat = ShardedService::new(
        1,
        FabricParams {
            width: 10,
            height: 10,
            channel_width: FabricParams::default().channel_width + 1,
            ..FabricParams::default()
        },
        TechParams::default(),
    )
    .unwrap();
    assert!(matches!(
        fat.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::GeometryMismatch { .. }))
    ));
}

/// Regression for the old exact-geometry false reject: a checkpoint from
/// a smaller fabric restores onto a larger host of the same tile shape —
/// the plane is pad-and-remapped — and answers bit-for-bit what its
/// never-migrated twin answers.
#[test]
fn smaller_geometry_checkpoint_restores_onto_larger_host() {
    let parity = generators::parity_tree(3).unwrap();
    let small = FabricParams {
        width: 8,
        height: 8,
        ..FabricParams::default()
    };
    let big = FabricParams {
        width: 10,
        height: 10,
        contexts: 8,
        ..FabricParams::default()
    };
    let mut src = ShardedService::new(1, small, TechParams::default()).unwrap();
    let mover = src.admit("mover", &parity).unwrap();
    let twin = src.admit("twin", &parity).unwrap();
    submit3(&mut src, mover, 0b110);
    submit3(&mut src, twin, 0b110);

    // checkpoint the mover (pending request travels), ship its plane —
    // the big host never routed the design, so the digest alone would
    // dead-end in PlaneUnavailable
    let ckpt = src.checkpoint_tenant(mover).unwrap();
    let mut dst = ShardedService::new(1, big, TechParams::default()).unwrap();
    assert!(matches!(
        dst.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::PlaneUnavailable { .. }))
    ));
    let plane = src.export_plane(ckpt.digest).expect("source holds plane");
    dst.import_plane(ckpt.digest, plane);

    // the old code rejected this restore with GeometryMismatch
    let (restored, fresh) = dst.restore_tenant(&ckpt, 0).unwrap();
    assert_eq!(fresh.len(), 1);
    src.retire_tenant(mover).unwrap();

    // bit-for-bit: the restored 8x8 tenant on the 10x10 host answers
    // exactly what the never-migrated twin answers on the 8x8 source
    let dst_responses = dst.drain().unwrap();
    let src_responses = src.drain().unwrap();
    let moved: Vec<_> = dst_responses
        .iter()
        .filter(|r| r.tenant == restored)
        .collect();
    let stayed: Vec<_> = src_responses.iter().filter(|r| r.tenant == twin).collect();
    assert_eq!(moved.len(), 1);
    assert_eq!(stayed.len(), 1);
    assert_eq!(moved[0].outputs, stayed[0].outputs);
    assert!(!moved[0].outputs[0].1, "parity(1,1,0) is even");

    // the retired source id is dead; the twin still serves
    assert!(src.usage(mover).is_err());
    submit3(&mut src, twin, 0b000);
    assert_eq!(src.drain().unwrap().len(), 1);
}

/// The cold-cache recovery path: a fresh node that never compiled the
/// design re-provisions the plane from the source netlist, keyed by the
/// checkpoint's digest — then the restore proceeds normally.
#[test]
fn fresh_node_restore_reprovisions_plane_from_netlist() {
    let parity = generators::parity_tree(3).unwrap();
    let mut src = service(1);
    let t = src.admit("roamer", &parity).unwrap();
    submit3(&mut src, t, 0b011);
    let ckpt = src.checkpoint_tenant(t).unwrap();

    // fresh node: digest-only restore dead-ends …
    let mut cold = service(2);
    assert!(matches!(
        cold.restore_tenant(&ckpt, 0),
        Err(ServiceError::Migrate(MigrateError::PlaneUnavailable { .. }))
    ));
    // … but provisioning from the shipped netlist reproduces the exact
    // routed configuration (deterministic per-slot seeding) and caches it
    cold.provision_plane(ckpt.digest, &parity, ckpt.params)
        .unwrap();
    let (restored, fresh) = cold.restore_tenant(&ckpt, 0).unwrap();
    assert_eq!(fresh.len(), 1);
    let responses = cold.drain().unwrap();
    let ours: Vec<_> = responses.iter().filter(|r| r.tenant == restored).collect();
    assert_eq!(ours.len(), 1);
    assert!(!ours[0].outputs[0].1, "parity(0,1,1) is even");

    // a *different* design never provisions under this digest
    let other = generators::wire_lanes(1).unwrap();
    let mut cold2 = service(1);
    assert!(matches!(
        cold2.provision_plane(ckpt.digest, &other, ckpt.params),
        Err(ServiceError::Migrate(
            MigrateError::NetlistDigestMismatch { .. }
        ))
    ));
    // provisioning is idempotent once cached
    cold.provision_plane(ckpt.digest, &parity, ckpt.params)
        .unwrap();

    // a fanout design (every adder input and carry feeds two LUTs) routes
    // its later branches from the wires its net already owns; provisioning
    // must still reproduce the admitted configuration exactly
    let adder = generators::ripple_adder(3).unwrap();
    let t = src.admit("adder", &adder).unwrap();
    let vector: Vec<(String, bool)> = ["a0", "a1", "a2", "b0", "b1", "b2", "cin"]
        .iter()
        .enumerate()
        .map(|(i, n)| (n.to_string(), (0b101_1011 >> i) & 1 == 1))
        .collect();
    let refs: Vec<(&str, bool)> = vector.iter().map(|(n, b)| (n.as_str(), *b)).collect();
    src.submit(t, &refs).unwrap();
    let ckpt = src.checkpoint_tenant(t).unwrap();
    let mut cold3 = service(1);
    cold3
        .provision_plane(ckpt.digest, &adder, ckpt.params)
        .unwrap();
    let (restored, fresh) = cold3.restore_tenant(&ckpt, 0).unwrap();
    assert_eq!(fresh.len(), 1);
    let responses = cold3.drain().unwrap();
    let ours: Vec<_> = responses.iter().filter(|r| r.tenant == restored).collect();
    assert_eq!(ours.len(), 1);
    let mut got: Vec<(String, bool)> = ours[0]
        .outputs
        .iter()
        .map(|(n, b)| (n.to_string(), *b))
        .collect();
    let mut want = adder.eval(&refs).unwrap();
    got.sort();
    want.sort();
    assert_eq!(got, want, "3 + 3 + 1 through the re-provisioned plane");
}

/// Directed-migration error surface: bad shard, full shard.
#[test]
fn migration_error_paths() {
    let mut svc = service(2);
    let wire = generators::wire_lanes(1).unwrap();
    let t = svc.admit("t", &wire).unwrap();
    assert!(matches!(
        svc.migrate_tenant(t, 9),
        Err(ServiceError::NoSuchShard {
            shard: 9,
            shards: 2
        })
    ));
    // fill shard 1 completely
    let contexts = svc.params().contexts;
    let mut filled = 1; // t already on shard 0
    while filled < 2 * contexts {
        svc.admit(&format!("f{filled}"), &wire).unwrap();
        filled += 1;
    }
    assert!(matches!(
        svc.migrate_tenant(t, 1),
        Err(ServiceError::Migrate(MigrateError::NoFreeSlot { shard: 1 }))
    ));
    // intra-shard moves are allowed when a slot is free — but here the
    // whole pool is full
    assert!(matches!(
        svc.migrate_tenant(t, 0),
        Err(ServiceError::Migrate(MigrateError::NoFreeSlot { shard: 0 }))
    ));
}

/// Review regression: a tenant migrated *while its plane was faulted*
/// seeds the destination from the corrupted plane (which binds nothing) —
/// repair must re-establish the canonical prefix, or the tenant would
/// accept under-driven requests forever after.
#[test]
fn repair_after_faulted_migration_restores_submit_validation() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    svc.inject_plane_fault(t).unwrap();
    svc.migrate_tenant(t, 1).unwrap();
    svc.repair_plane(t).unwrap();
    let err = svc.submit(t, &[("x0", true)]).unwrap_err();
    assert!(
        matches!(err, ServiceError::MissingInput { .. }),
        "under-driven request accepted after faulted migration + repair: {err}"
    );
    submit3(&mut svc, t, 0b100);
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].outputs[0].1, "parity(0,0,1)");
}

/// Review regression: restoring a checkpoint with NO pending work must
/// not erase the freshly seeded slot's canonical prefix — the restored
/// tenant still refuses under-driven requests exactly like a fresh one.
#[test]
fn empty_pending_restore_keeps_submit_validation() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap();
    let ckpt = svc.checkpoint_tenant(t).unwrap();
    assert_eq!(ckpt.pending.lanes, 0);
    let (clone, fresh) = svc.restore_tenant(&ckpt, 1).unwrap();
    assert!(fresh.is_empty());
    // an under-driven request is still refused (x2 left undriven) …
    let err = svc
        .submit(clone, &[("x0", true), ("x1", true), ("oops", true)])
        .unwrap_err();
    assert!(matches!(err, ServiceError::MissingInput { ref name } if name == "x2"));
    // … and a fully driven one is answered correctly
    submit3(&mut svc, clone, 0b111);
    let responses = svc.drain().unwrap();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].outputs[0].1, "parity(1,1,1)");
}

/// Review regression: an intra-shard move bills realignment against the
/// post-move occupancy — the vacated context no longer counts. (With
/// contexts 0,1,2 occupied and the ctx-1 tenant moving to ctx 3, the
/// shard's sweep goes {0,2} → {0,2,3}: 2 → 6 toggles, a 4-toggle charge;
/// counting the vacated ctx 1 in both sweeps would misbill 2.)
#[test]
fn intra_shard_migration_bills_post_move_occupancy() {
    let mut svc = service(1);
    let wire = generators::wire_lanes(1).unwrap();
    let _t0 = svc.admit("t0", &wire).unwrap(); // ctx 0
    let mover = svc.admit("mover", &wire).unwrap(); // ctx 1
    let _t2 = svc.admit("t2", &wire).unwrap(); // ctx 2
    let dst = svc.migrate_tenant(mover, 0).unwrap();
    assert_eq!(dst, Placement { shard: 0, ctx: 3 }, "only free slot");
    assert_eq!(svc.usage(mover).unwrap().migration_css_toggles, 4);
}

/// A checkpoint's CSS sweep position is adopted when restoring onto an
/// *idle* shard (reconstructing the source's boundary state), and left
/// alone on a shard with resident tenants — observable through the
/// realignment bill, which is charged from the broadcast's position.
#[test]
fn restore_adopts_sweep_position_only_on_idle_shards() {
    let mut svc = service(2);
    let parity = generators::parity_tree(3).unwrap();
    let t = svc.admit("t", &parity).unwrap(); // shard 0, ctx 0

    let mut ckpt = svc.checkpoint_tenant(t).unwrap();
    ckpt.css_position = 1; // the source broadcast sat on ctx 1
    let (first, _) = svc.restore_tenant(&ckpt, 1).unwrap(); // shard 1 idle
                                                            // idle shard adopts position 1; landing the tenant on ctx 0 is a
                                                            // polarity flip on the hybrid CSS: 4 realignment toggles
    assert_eq!(svc.usage(first).unwrap().migration_css_toggles, 4);

    let mut again = svc.checkpoint_tenant(t).unwrap();
    again.css_position = 3;
    let (second, _) = svc.restore_tenant(&again, 1).unwrap();
    // shard 1 is occupied now: its own position (1) is kept, not 3. The
    // second tenant lands on ctx 2 (cheapest marginal), and the sweep
    // {0} → {0,2} replanned from ctx 1 costs 6 − 4 = 2 toggles
    assert_eq!(
        svc.registry().tenant(second).unwrap().placement,
        Placement { shard: 1, ctx: 2 }
    );
    assert_eq!(svc.usage(second).unwrap().migration_css_toggles, 2);
}

/// Energy-aware destination choice: the chosen slot is the cheapest
/// marginal addition to the destination shard's sweep, with the no-rebase
/// context preferred only on ties (mirrors admission placement).
#[test]
fn migration_destination_is_energy_scored() {
    let mut svc = service(2);
    let wire = generators::wire_lanes(1).unwrap();
    let parity = generators::parity_tree(3).unwrap();
    let mover = svc.admit("mover", &parity).unwrap(); // shard 0, ctx 0
    let _anchor = svc.admit("anchor", &wire).unwrap(); // shard 1, ctx 0
                                                       // shard 1 holds ctx 0; on the hybrid CSS, ctx 2 (same polarity) adds
                                                       // 2 toggles where ctx 1 (polarity flip) adds 4 — and the energy
                                                       // ranking beats the no-rebase affinity for ctx 0 (occupied anyway)
    let dst = svc.migrate_tenant(mover, 1).unwrap();
    assert_eq!(dst, Placement { shard: 1, ctx: 2 });
    let usage = svc.usage(mover).unwrap();
    assert_eq!(usage.migration_css_toggles, 2, "marginal join cost billed");
}

/// Checkpoints cross lane-width boundaries: a tenant checkpointed on the
/// 256-wide default restores onto a 64-wide service bit-for-bit as long
/// as its pending lanes fit, and a 64-wide checkpoint restores onto the
/// wide default unchanged. A checkpoint whose pending lanes exceed the
/// destination's width is a typed refusal, not silent truncation.
#[test]
fn checkpoints_roundtrip_across_lane_widths() {
    let parity = generators::parity_tree(3).unwrap();

    // wide source → narrow destination
    let mut src = service(1);
    assert_eq!(src.lane_width(), 256);
    let t = src.admit("roamer", &parity).unwrap();
    submit3(&mut src, t, 0b101);
    let ckpt = TenantCheckpoint::from_bytes(&src.checkpoint_tenant(t).unwrap().to_bytes()).unwrap();
    let mut narrow = service(2);
    narrow.set_lane_width(64).unwrap();
    narrow.admit("seeder", &parity).unwrap();
    let (restored, fresh) = narrow.restore_tenant(&ckpt, 1).unwrap();
    assert_eq!(fresh.len(), 1);
    let out: Vec<_> = narrow
        .drain()
        .unwrap()
        .into_iter()
        .filter(|r| r.tenant == restored)
        .collect();
    assert_eq!(out.len(), 1);
    assert!(!out[0].outputs[0].1, "parity(1,0,1) = 0");

    // narrow source → wide destination
    let mut nsrc = service(1);
    nsrc.set_lane_width(64).unwrap();
    let nt = nsrc.admit("roamer", &parity).unwrap();
    submit3(&mut nsrc, nt, 0b110);
    let nckpt = nsrc.checkpoint_tenant(nt).unwrap();
    let mut wide = service(2);
    wide.admit("seeder", &parity).unwrap();
    let (wrestored, _) = wide.restore_tenant(&nckpt, 1).unwrap();
    let wout: Vec<_> = wide
        .drain()
        .unwrap()
        .into_iter()
        .filter(|r| r.tenant == wrestored)
        .collect();
    assert_eq!(wout.len(), 1);
    assert!(!wout[0].outputs[0].1, "parity(0,1,1) = 0");

    // oversized pending batch cannot squeeze into a narrower slot
    let mut fat = service(1);
    let ft = fat.admit("fat", &parity).unwrap();
    for v in 0..65u32 {
        submit3(&mut fat, ft, v);
    }
    let fat_ckpt = fat.checkpoint_tenant(ft).unwrap();
    assert_eq!(fat_ckpt.pending.lanes, 65);
    let mut tight = service(2);
    tight.set_lane_width(64).unwrap();
    tight.admit("seeder", &parity).unwrap();
    assert!(
        tight.restore_tenant(&fat_ckpt, 1).is_err(),
        "65 pending lanes must not restore into a 64-lane slot"
    );
}
