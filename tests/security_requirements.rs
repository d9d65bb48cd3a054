//! The paper's four security requirements (§IV-A), verified one by one
//! as the security evaluation (§VII-A) argues them.
//!
//! * **R1 — SGX guarantees**: migratable primitives are as strong as the
//!   native ones (confidentiality, integrity, monotonicity).
//! * **R2 — Controlled migration**: only operator-authorized machines,
//!   and only the correct destination enclave, receive migration data.
//! * **R3 — Fork prevention**: no reachable interleaving leaves two
//!   operable copies of one enclave's state.
//! * **R4 — Roll-back prevention**: persistent state cannot be reverted
//!   to an earlier version, before, during, or after migration.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::harness::{AppCtx, AppLogic};
use mig_core::library::bulk::{Layout, SEGMENT_LEN};
use mig_core::library::{split_persist_record, InitRequest};
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::checkpoint::CheckpointStore;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

/// Generic test app exposing the library surface.
struct TestApp;

mod t {
    pub const COUNTER_CREATE: u32 = 1;
    pub const COUNTER_INC: u32 = 2;
    pub const COUNTER_READ: u32 = 3;
    pub const SEAL: u32 = 4; // input: aad_len u32 | aad | pt
    pub const UNSEAL: u32 = 5;
}

impl AppLogic for TestApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            t::COUNTER_CREATE => {
                let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                Ok(vec![id])
            }
            t::COUNTER_INC => Ok(ctx
                .lib
                .increment_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            t::COUNTER_READ => Ok(ctx
                .lib
                .read_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            t::SEAL => {
                let mut r = WireReader::new(input);
                let aad = r.bytes_vec()?;
                let pt = r.bytes_vec()?;
                r.finish()?;
                Ok(ctx.lib.seal_migratable_data(ctx.env, &aad, &pt)?)
            }
            t::UNSEAL => {
                let (pt, aad) = ctx.lib.unseal_migratable_data(ctx.env, input)?;
                let mut w = WireWriter::new();
                w.bytes(&aad).bytes(&pt);
                Ok(w.finish())
            }
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

fn image(tag: u8) -> EnclaveImage {
    // The tag feeds the *code*, so distinct tags give distinct MRENCLAVEs
    // (the ME keys sessions and migrations by measurement).
    EnclaveImage::build(
        "sec-req-app",
        1,
        &[b"code ".as_slice(), &[tag]].concat(),
        &EnclaveSigner::from_seed([7; 32]),
    )
}

fn seal_req(aad: &[u8], pt: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.bytes(aad).bytes(pt);
    w.finish()
}

fn dc_with_two_machines(
    seed: u64,
) -> (
    Datacenter,
    sgx_sim::machine::MachineId,
    sgx_sim::machine::MachineId,
) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let m2 = dc.add_machine(MachineLabels::default(), &policy);
    (dc, m1, m2)
}

// =======================================================================
// R1 — SGX guarantees
// =======================================================================

#[test]
fn r1_migratable_sealing_confidentiality_and_integrity() {
    let (mut dc, m1, _) = dc_with_two_machines(201);
    dc.deploy_app("app", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();

    let blob = dc
        .call_app("app", t::SEAL, &seal_req(b"context", b"plaintext secret"))
        .unwrap();

    // Confidentiality: the ciphertext leaks nothing of the plaintext.
    assert!(!blob.windows(16).any(|w| w == b"plaintext secret"));

    // Integrity: every single-byte corruption is rejected.
    for i in 0..blob.len() {
        let mut bad = blob.clone();
        bad[i] ^= 0x01;
        assert!(dc.call_app("app", t::UNSEAL, &bad).is_err(), "byte {i}");
    }

    // Round trip returns both plaintext and AAD.
    let out = dc.call_app("app", t::UNSEAL, &blob).unwrap();
    let mut r = WireReader::new(&out);
    assert_eq!(r.bytes().unwrap(), b"context");
    assert_eq!(r.bytes().unwrap(), b"plaintext secret");
}

#[test]
fn r1_migratable_seal_isolated_between_enclaves() {
    // Blobs sealed by one enclave's MSK are unreadable by another
    // enclave, exactly like MRENCLAVE-policy native sealing.
    let (mut dc, m1, _) = dc_with_two_machines(202);
    dc.deploy_app("a", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    dc.deploy_app("b", m1, &image(2), TestApp, InitRequest::New)
        .unwrap();

    let blob = dc
        .call_app("a", t::SEAL, &seal_req(b"", b"a's secret"))
        .unwrap();
    assert!(dc.call_app("b", t::UNSEAL, &blob).is_err());
}

#[test]
fn r1_migratable_counters_strictly_monotonic() {
    let (mut dc, m1, _) = dc_with_two_machines(203);
    dc.deploy_app("app", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("app", t::COUNTER_CREATE, &[]).unwrap()[0];

    let mut last = 0u32;
    for _ in 0..100 {
        let v = u32::from_le_bytes(
            dc.call_app("app", t::COUNTER_INC, &[id]).unwrap()[..4]
                .try_into()
                .unwrap(),
        );
        assert!(v > last, "monotonicity violated: {v} after {last}");
        last = v;
    }
    // Reads never decrease it.
    let read = u32::from_le_bytes(
        dc.call_app("app", t::COUNTER_READ, &[id]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(read, last);
}

#[test]
fn r1_monotonicity_spans_migration() {
    // The effective counter never decreases across an arbitrary mix of
    // increments and migrations.
    let (mut dc, m1, m2) = dc_with_two_machines(204);
    dc.deploy_app("gen1", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("gen1", t::COUNTER_CREATE, &[]).unwrap()[0];

    let mut last = 0u32;
    let inc = |dc: &mut Datacenter, inst: &str, last: &mut u32| {
        let v = u32::from_le_bytes(
            dc.call_app(inst, t::COUNTER_INC, &[id]).unwrap()[..4]
                .try_into()
                .unwrap(),
        );
        assert!(v > *last);
        *last = v;
    };

    inc(&mut dc, "gen1", &mut last);
    inc(&mut dc, "gen1", &mut last);

    dc.deploy_app("gen2", m2, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("gen1", "gen2").unwrap();
    inc(&mut dc, "gen2", &mut last);

    dc.deploy_app("gen3", m1, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("gen2", "gen3").unwrap();
    inc(&mut dc, "gen3", &mut last);
    assert_eq!(last, 4);
}

// =======================================================================
// R2 — Controlled migration
// =======================================================================

#[test]
fn r2_policy_restricts_destination_regions() {
    let mut dc = Datacenter::new(205);
    let eu_policy = MigrationPolicy::regions(&["eu"]);
    let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &eu_policy);
    let m2 = dc.add_machine(MachineLabels::new("dc-2", "us"), &eu_policy);

    dc.deploy_app("src", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    dc.deploy_app("dst", m2, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();

    assert!(dc.migrate_app("src", "dst").is_err());
    let errors = dc.me_host(m1).lock().errors.clone();
    assert!(
        errors.iter().any(|e| e.contains("policy violation")),
        "{errors:?}"
    );
}

#[test]
fn r2_destination_must_match_credential_machine() {
    // The credential binds the ME key to a machine id; a host that lies
    // about which machine it speaks for cannot redirect a migration.
    // (Covered structurally: the source ME verifies cred.machine equals
    // the library-requested destination. Here we verify the plumbing by
    // migrating to the correct machine and checking the credential path
    // ran — the negative case is exercised in attacks.rs with the rogue
    // operator.)
    let (mut dc, m1, m2) = dc_with_two_machines(206);
    dc.deploy_app("src", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    dc.deploy_app("dst", m2, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    assert!(dc.me_host(m1).lock().errors.is_empty());
    assert!(dc.me_host(m2).lock().errors.is_empty());
}

#[test]
fn r2_data_only_reaches_same_mrenclave() {
    // A different enclave (even same signer, same machine) never sees
    // the migration data; it stays parked for the right measurement.
    let (mut dc, m1, m2) = dc_with_two_machines(207);
    dc.deploy_app("src", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();

    let other = EnclaveImage::build(
        "sec-req-app",
        2, // different version ⇒ different MRENCLAVE
        b"code",
        &EnclaveSigner::from_seed([1; 32]),
    );
    dc.deploy_app("other", m2, &other, TestApp, InitRequest::Migrate)
        .unwrap();

    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    use mig_core::host::AppStatus;
    assert_eq!(dc.app("other").lock().status(), AppStatus::AwaitingIncoming);
}

// =======================================================================
// R3 — Fork prevention
// =======================================================================

#[test]
fn r3_no_two_operable_copies_after_migration() {
    let (mut dc, m1, m2) = dc_with_two_machines(208);
    dc.deploy_app("src", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("src", t::COUNTER_CREATE, &[]).unwrap()[0];
    dc.call_app("src", t::COUNTER_INC, &[id]).unwrap();

    dc.deploy_app("dst", m2, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // Destination operates.
    dc.call_app("dst", t::COUNTER_INC, &[id]).unwrap();
    // Source refuses every migratable operation.
    assert!(dc.call_app("src", t::COUNTER_INC, &[id]).is_err());
    assert!(dc.call_app("src", t::COUNTER_READ, &[id]).is_err());
    assert!(dc.call_app("src", t::SEAL, &seal_req(b"", b"x")).is_err());
    // And restarting the source from disk fails (frozen blob).
    assert!(dc.restart_app("src", m1, &image(1), TestApp).is_err());
}

#[test]
fn r3_freeze_happens_even_if_transfer_stalls() {
    // The freeze + counter destruction happen BEFORE the data leaves the
    // machine, so even a migration that never completes cannot fork.
    let (mut dc, m1, m2) = dc_with_two_machines(209);
    dc.deploy_app("src", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("src", t::COUNTER_CREATE, &[]).unwrap()[0];

    // Drop every cross-machine message: the transfer will stall forever.
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(|e: &cloud_sim::network::Envelope| {
            if e.from.machine != e.to.machine {
                cloud_sim::network::TapAction::Drop
            } else {
                cloud_sim::network::TapAction::Deliver
            }
        }));

    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    // The source is already frozen and its counters destroyed.
    assert!(dc.call_app("src", t::COUNTER_INC, &[id]).is_err());
    assert!(dc.restart_app("src", m1, &image(1), TestApp).is_err());
}

// =======================================================================
// R4 — Roll-back prevention
// =======================================================================

#[test]
fn r4_library_state_blob_cannot_be_rolled_back() {
    // The adversary snapshots the Table II blob after counter creation,
    // lets the enclave advance, then rolls the disk back and restarts.
    // The restored blob references the same counters with the same
    // offsets — and the hardware counter has moved on, so effective
    // values are unaffected; the enclave simply continues at the true
    // count. No stale value is ever observable.
    let (mut dc, m1, _) = dc_with_two_machines(210);
    dc.deploy_app("app", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("app", t::COUNTER_CREATE, &[]).unwrap()[0];
    dc.call_app("app", t::COUNTER_INC, &[id]).unwrap();

    let old_disk = dc.world().machine(m1).disk.snapshot();

    for _ in 0..4 {
        dc.call_app("app", t::COUNTER_INC, &[id]).unwrap();
    }

    // Roll the disk back and restart the enclave from the stale blob.
    dc.world().machine(m1).disk.restore(&old_disk);
    dc.restart_app("app", m1, &image(1), TestApp).unwrap();

    // The hardware counter is the source of truth: still 5, not 1.
    let v = u32::from_le_bytes(
        dc.call_app("app", t::COUNTER_READ, &[id]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(v, 5, "hardware counter defeats the disk rollback");
}

#[test]
fn r4_stale_offsets_cannot_survive_migration_boundary() {
    // Variant of the §III-C defence: an old Table II blob (with smaller
    // offsets) re-fed during a later incarnation is either frozen or
    // references destroyed counters — it can never load.
    let (mut dc, m1, m2) = dc_with_two_machines(211);
    dc.deploy_app("gen1", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("gen1", t::COUNTER_CREATE, &[]).unwrap()[0];
    dc.call_app("gen1", t::COUNTER_INC, &[id]).unwrap();

    // Adversary snapshots m1's disk before migration.
    let pre_migration = dc.world().machine(m1).disk.snapshot();

    dc.deploy_app("gen2", m2, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("gen1", "gen2").unwrap();
    dc.call_app("gen2", t::COUNTER_INC, &[id]).unwrap(); // effective 2

    // Migrate BACK to m1 (fresh incarnation, fresh hardware counters).
    dc.deploy_app("gen3", m1, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("gen2", "gen3").unwrap();

    // Now roll m1's disk back to the pre-migration snapshot and restart
    // the ORIGINAL incarnation from it: that blob's counters were
    // destroyed in the first migration, even though a fresh incarnation
    // (gen3) of the same MRENCLAVE now legitimately runs on m1.
    dc.world().machine(m1).disk.restore(&pre_migration);
    let err = dc.restart_app("gen1", m1, &image(1), TestApp).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("stale") || m.contains("frozen")),
        "{err:?}"
    );
}

#[test]
fn r4_unseal_rejects_cross_incarnation_blob_forgery() {
    // Sealed snapshots from a *different* enclave's MSK cannot be passed
    // off after migration (the MSK travels, so legitimate blobs work —
    // foreign ones never do).
    let (mut dc, m1, m2) = dc_with_two_machines(212);
    dc.deploy_app("src", m1, &image(1), TestApp, InitRequest::New)
        .unwrap();
    dc.deploy_app("evil", m1, &image(2), TestApp, InitRequest::New)
        .unwrap();

    let legit = dc
        .call_app("src", t::SEAL, &seal_req(b"", b"real"))
        .unwrap();
    let forged = dc
        .call_app("evil", t::SEAL, &seal_req(b"", b"fake"))
        .unwrap();

    dc.deploy_app("dst", m2, &image(1), TestApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    assert!(dc.call_app("dst", t::UNSEAL, &legit).is_ok());
    assert!(dc.call_app("dst", t::UNSEAL, &forged).is_err());
}

// =======================================================================
// R4 — the staged bulk container is bound to the persisted header
// =======================================================================

fn kv_image() -> EnclaveImage {
    EnclaveImage::build(
        "sec-req-kv",
        1,
        b"kv code",
        &EnclaveSigner::from_seed([8; 32]),
    )
}

/// Deploys a kvstore holding `count` bulk entries of `len` bytes.
fn kv_with_bulk(dc: &mut Datacenter, instance: &str, machine: MachineId, count: u32, len: u32) {
    dc.deploy_app(
        instance,
        machine,
        &kv_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    dc.call_app(instance, kv::INIT, &[]).unwrap();
    dc.call_app(
        instance,
        kv::BULK_PUT,
        &kvstore::encode_bulk_put(count, len, 1),
    )
    .unwrap();
}

/// The persist record of `instance` on `machine`'s disk.
fn record(dc: &Datacenter, machine: MachineId, instance: &str) -> Vec<u8> {
    dc.world()
        .machine(machine)
        .disk
        .get(&format!("mig-state:{instance}"))
        .expect("persist record on disk")
}

fn staged(dc: &mut Datacenter, instance: &str) -> Vec<u8> {
    dc.app_bulk_state(instance)
        .unwrap()
        .expect("staged container")
}

fn put(dc: &mut Datacenter, instance: &str, key: &[u8], value: &[u8]) {
    dc.call_app(instance, kv::PUT, &kvstore::encode_put(key, value))
        .unwrap();
}

#[test]
fn r4_restart_refuses_older_container_under_current_header() {
    let (mut dc, m1, _) = dc_with_two_machines(213);
    kv_with_bulk(&mut dc, "kv", m1, 64, 1024);
    let old = record(&dc, m1, "kv");
    put(&mut dc, "kv", b"bulk-00000003", &[9; 1024]);
    let new = record(&dc, m1, "kv");

    // Current header, previous container: both genuine, not a pair.
    let (header, new_container) = split_persist_record(&new).unwrap();
    let (_, old_container) = split_persist_record(&old).unwrap();
    assert_ne!(old_container, new_container);
    let mut forged = new[..new.len() - new_container.len()].to_vec();
    assert!(forged.ends_with(header));
    forged.extend_from_slice(old_container);
    let disk = dc.world().machine(m1).disk.clone();
    disk.put("mig-state:kv", forged);
    let err = dc
        .restart_app("kv", m1, &kv_image(), KvStore::new())
        .unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("bulk container does not match")),
        "{err:?}"
    );

    // The genuine pair restarts, and the store loads from it.
    disk.put("mig-state:kv", new);
    dc.restart_app("kv", m1, &kv_image(), KvStore::new())
        .unwrap();
    let container = staged(&mut dc, "kv");
    dc.call_app("kv", kv::LOAD, &container).unwrap();
    assert_eq!(
        dc.call_app("kv", kv::GET, b"bulk-00000003").unwrap(),
        [9; 1024]
    );
}

#[test]
fn r4_load_refuses_segment_spliced_from_older_container() {
    let (mut dc, m1, _) = dc_with_two_machines(214);
    kv_with_bulk(&mut dc, "kv", m1, 64, 1024);
    let old = staged(&mut dc, "kv");
    // Entry 10 sits in segment 2; overwriting it reseals that segment.
    put(&mut dc, "kv", b"bulk-00000010", &[7; 1024]);
    let new = staged(&mut dc, "kv");

    let (old_layout, new_layout) = (Layout::parse(&old).unwrap(), Layout::parse(&new).unwrap());
    let (from, to) = (
        old_layout.segments[2].clone(),
        new_layout.segments[2].clone(),
    );
    assert_eq!(from.len(), to.len());
    assert_ne!(
        old[from.clone()],
        new[to.clone()],
        "the PUT resealed segment 2"
    );
    let mut spliced = new.clone();
    spliced[to].copy_from_slice(&old[from]);

    let err = dc.call_app("kv", kv::LOAD, &spliced).unwrap_err();
    assert_eq!(err, SgxError::MacMismatch);
    dc.call_app("kv", kv::LOAD, &new).unwrap();
}

#[test]
fn r4_load_of_older_container_reports_rollback() {
    let (mut dc, m1, _) = dc_with_two_machines(215);
    kv_with_bulk(&mut dc, "kv", m1, 64, 1024);
    let old = staged(&mut dc, "kv");
    put(&mut dc, "kv", b"bulk-00000000", &[1; 1024]);

    let err = dc.call_app("kv", kv::LOAD, &old).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("rollback detected")),
        "{err:?}"
    );
}

/// Stages its input as the bulk state and opens containers: the
/// library's bulk API with no app counter in the way.
struct BulkApp;

mod b {
    pub const STAGE: u32 = 1;
    pub const OPEN: u32 = 2;
}

impl AppLogic for BulkApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            b::STAGE => {
                let segments: Vec<(usize, &[u8])> = input.chunks(SEGMENT_LEN).enumerate().collect();
                let root = ctx
                    .lib
                    .stage_bulk_segments(ctx.env, segments.len(), &segments)?;
                Ok(root.to_vec())
            }
            b::OPEN => Ok(ctx.lib.open_bulk(input)?.plaintext().to_vec()),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

#[test]
fn r4_torn_record_write_restarts_from_newest_checkpoint_with_bulk_intact() {
    use cloud_sim::disk::WriteFault;

    let (mut dc, m1, _) = dc_with_two_machines(216);
    dc.deploy_app("bulk", m1, &image(3), BulkApp, InitRequest::New)
        .unwrap();
    let state = |generation: u8| vec![generation; 64 * 1024];
    for generation in 0..4 {
        dc.call_app("bulk", b::STAGE, &state(generation)).unwrap();
    }
    let disk = dc.world().machine(m1).disk.clone();
    let checkpoints = CheckpointStore::new(disk.clone(), "mig-state:bulk");
    let (_, newest) = checkpoints.latest().expect("a checkpoint generation");
    assert_eq!(
        newest,
        record(&dc, m1, "bulk"),
        "the last persist was checkpointed"
    );

    // The next record write tears half-way.
    let mut armed = true;
    disk.set_fault_hook(move |key: &str, value: &[u8]| {
        if armed && key == "mig-state:bulk" {
            armed = false;
            WriteFault::Torn {
                keep: value.len() / 2,
            }
        } else {
            WriteFault::None
        }
    });
    assert!(dc.call_app("bulk", b::STAGE, &state(4)).is_err());
    assert!(
        dc.restart_app("bulk", m1, &image(3), BulkApp).is_err(),
        "a torn record never restores"
    );

    let (_, blob) = checkpoints.latest().expect("checkpoint survived");
    dc.deploy_app(
        "bulk",
        m1,
        &image(3),
        BulkApp,
        InitRequest::Restore { blob },
    )
    .unwrap();
    let container = staged(&mut dc, "bulk");
    assert_eq!(dc.call_app("bulk", b::OPEN, &container).unwrap(), state(3));
}

#[test]
fn r4_sealed_header_size_is_independent_of_state_size() {
    // The natively sealed header binds the bulk state by its root, so
    // persisting reseals the same few KiB at any state size.
    let (mut dc, m1, m2) = dc_with_two_machines(217);
    kv_with_bulk(&mut dc, "small", m1, 16, 4096); // 64 KiB
    kv_with_bulk(&mut dc, "big", m2, 1024, 4096); // 4 MiB

    let (small, big) = (record(&dc, m1, "small"), record(&dc, m2, "big"));
    let (small_header, small_container) = split_persist_record(&small).unwrap();
    let (big_header, big_container) = split_persist_record(&big).unwrap();
    assert!(big_container.len() > 60 * small_container.len());
    assert_eq!(small_header.len(), big_header.len());
}

// =======================================================================
// R2/R4 — the container relayed beside Table I is bound to its root
// =======================================================================

/// A host→host frame: wire tag plus body.
fn unframe(payload: &[u8]) -> (u8, Vec<u8>) {
    let mut r = WireReader::new(payload);
    let tag = r.u8().unwrap();
    let body = r.bytes_vec().unwrap();
    r.finish().unwrap();
    (tag, body)
}

/// Installs a tap that rewrites the bulk container of every relay frame
/// with wire tag `tag` addressed to `to` (service name), keeping the
/// sealed message. Returns the count of ME↔ME frames seen.
fn swap_relayed_container(
    dc: &mut Datacenter,
    tag: u8,
    to: &'static str,
    swap: impl Fn(&[u8]) -> Vec<u8> + Send + 'static,
) -> std::sync::Arc<std::sync::atomic::AtomicUsize> {
    use cloud_sim::network::{Envelope, TapAction};
    use mig_core::msgs::{decode_relay, write_relay};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let me_me = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&me_me);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.service == "me" && e.to.service == "me" {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            let (frame_tag, body) = unframe(&e.payload);
            if frame_tag != tag || e.to.service != to {
                return TapAction::Deliver;
            }
            let (ct, container) = decode_relay(&body).unwrap();
            if container.is_empty() {
                return TapAction::Deliver;
            }
            let mut w = WireWriter::new();
            write_relay(w.u8(frame_tag), ct, &swap(container));
            TapAction::Replace(w.finish())
        }));
    me_me
}

/// Overwrites segment `i` of `container` with the same segment of
/// `donor` (same length: both from one store, one entry rewritten).
fn splice_segment(container: &[u8], donor: &[u8], i: usize) -> Vec<u8> {
    let (to, from) = (
        Layout::parse(container).unwrap().segments[i].clone(),
        Layout::parse(donor).unwrap().segments[i].clone(),
    );
    assert_eq!(to.len(), from.len());
    let mut out = container.to_vec();
    out[to].copy_from_slice(&donor[from]);
    out
}

/// The source host relays a container the library's sealed request does
/// not name next to a genuine `MIG_START` request: an older container
/// of the same enclave, or the current one with one segment byte
/// flipped. The source ME refuses it on arrival, nothing reaches the
/// destination, and the supervised run aborts with the source
/// authoritative — its durable record still holds the genuine container.
#[test]
fn r4_source_me_refuses_a_relayed_container_the_request_does_not_name() {
    use mig_core::host::{tags, AppStatus};
    use mig_core::supervisor::{MigrationOutcome, MigrationSupervisor};
    use std::sync::atomic::Ordering;

    for (seed, older) in [(218u64, true), (219, false)] {
        let (mut dc, m1, m2) = dc_with_two_machines(seed);
        kv_with_bulk(&mut dc, "src", m1, 64, 1024);
        let old = staged(&mut dc, "src");
        put(&mut dc, "src", b"bulk-00000010", &[7; 1024]);
        let genuine = staged(&mut dc, "src");
        dc.deploy_app("dst", m2, &kv_image(), KvStore::new(), InitRequest::Migrate)
            .unwrap();

        let me_me = swap_relayed_container(&mut dc, tags::LIB_MSG, "me", move |c| {
            if older {
                old.clone()
            } else {
                let mut flipped = c.to_vec();
                let span = Layout::parse(c).unwrap().segments[3].clone();
                flipped[span.start + 100] ^= 0x01;
                flipped
            }
        });
        let outcomes =
            MigrationSupervisor::default().run(&mut dc, &[("src", "dst")], |_| Vec::new());
        assert!(
            matches!(outcomes[0], MigrationOutcome::Aborted { .. }),
            "older={older}: {:?}",
            outcomes[0]
        );
        assert_eq!(
            me_me.load(Ordering::SeqCst),
            0,
            "nothing left the source ME"
        );
        assert_ne!(dc.app("dst").lock().status(), AppStatus::Ready);
        let errors = dc.me_host(m1).lock().errors.clone();
        assert!(
            errors.iter().any(|e| e.starts_with("lib msg")),
            "the LIB_MSG ECALL failed: {errors:?}"
        );
        let mr = dc.app("src").lock().enclave().identity().mr_enclave;
        assert_eq!(dc.me_host(m1).lock().stream_progress(mr).unwrap(), None);
        // Source authoritative: the frozen record on its disk still pairs
        // the header with the genuine container.
        let record = record(&dc, m1, "src");
        assert_eq!(split_persist_record(&record).unwrap().1, &genuine[..]);
    }
}

/// The destination host swaps the container on the `ME_FORWARD` relay.
/// A foreign index (another generation of the same store) is refused at
/// install (`BulkMismatch`), and the library stays unmigrated; a segment
/// swapped in under the genuine index passes the index-only install but
/// `LOAD` refuses it (`MacMismatch`).
#[test]
fn r2_destination_host_container_swap_is_refused_at_install_or_load() {
    use mig_core::host::{tags, AppStatus};

    for (seed, foreign_index) in [(220u64, true), (221, false)] {
        let (mut dc, m1, m2) = dc_with_two_machines(seed);
        kv_with_bulk(&mut dc, "src", m1, 64, 1024);
        let old = staged(&mut dc, "src");
        put(&mut dc, "src", b"bulk-00000010", &[7; 1024]);
        dc.deploy_app("dst", m2, &kv_image(), KvStore::new(), InitRequest::Migrate)
            .unwrap();
        let donor = old.clone();
        swap_relayed_container(&mut dc, tags::ME_FORWARD, "app:dst", move |c| {
            if foreign_index {
                donor.clone()
            } else {
                splice_segment(c, &donor, 2)
            }
        });
        let result = dc.migrate_app("src", "dst");
        let dst = dc.app("dst");
        if foreign_index {
            assert!(result.is_err());
            assert_eq!(dst.lock().status(), AppStatus::Failed);
            let errors = dst.lock().errors.clone();
            assert!(
                errors
                    .iter()
                    .any(|e| e.contains("bulk container does not match")),
                "{errors:?}"
            );
            drop(dst);
            let phase = dc
                .call_app("dst", mig_core::harness::ops::PHASE, &[])
                .unwrap();
            assert_eq!(phase, [2], "still awaiting its migration");
        } else {
            assert_eq!(dst.lock().status(), AppStatus::Ready);
            drop(dst);
            let installed = staged(&mut dc, "dst");
            let err = dc.call_app("dst", kv::LOAD, &installed).unwrap_err();
            assert_eq!(err, SgxError::MacMismatch);
        }
    }
}

/// The public body of the first stream frame from `from` to `to` in
/// `frames` — a migration's lead (`ChunkStart` / `DeltaStart`): the
/// frame itself on the per-frame path, the container's first cell on
/// the batched path.
fn lead_body(frames: &[cloud_sim::network::Envelope], from: MachineId, to: MachineId) -> Vec<u8> {
    use mig_core::host::tags;
    use mig_core::me::wire::{split_cell, unpack_batch};
    let (tag, body) = frames
        .iter()
        .filter(|e| e.from.machine == from && e.to.machine == to && e.from.service == "me")
        .map(|e| unframe(&e.payload))
        .find(|(tag, _)| *tag == tags::RA_TRANSFER || *tag == tags::RA_TRANSFER_BATCH)
        .expect("a stream frame");
    let lead = if tag == tags::RA_TRANSFER_BATCH {
        unpack_batch(&body).unwrap()[0].to_vec()
    } else {
        body
    };
    split_cell(&lead).unwrap().1.to_vec()
}

/// No plaintext on the wire: a 32-byte sentinel stored in the kvstore
/// appears in no frame, on any service, during a full-stream 1 MiB
/// migration and a delta hop back — per frame and in `TRANSFER_BATCH`
/// containers (batch 4). The stream cells' public bodies carry container
/// ciphertext and zero pad only: each lead frame's body, where Table I
/// would be if it were not in the encrypted header, is all zeros.
#[test]
fn r1_no_plaintext_on_the_wire_full_stream_or_delta() {
    use mig_core::transfer::TransferConfig;

    let sentinel: [u8; 32] = *b"sentinel: must never be on wire!";
    let contains = |frames: &[cloud_sim::network::Envelope]| {
        frames
            .iter()
            .any(|e| e.payload.windows(32).any(|w| w == sentinel))
    };
    for batch_size in [1u32, 4] {
        let config = TransferConfig {
            batch_size,
            ..TransferConfig::default()
        };
        let mut dc = Datacenter::new(222);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
        let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
        kv_with_bulk(&mut dc, "src", m1, 256, 4096); // 1 MiB, streamed
        put(&mut dc, "src", b"sentinel", &sentinel);
        dc.deploy_app("dst", m2, &kv_image(), KvStore::new(), InitRequest::Migrate)
            .unwrap();
        dc.world_mut().network_mut().start_recording();
        dc.migrate_app("src", "dst").unwrap();
        let full = dc.world_mut().network_mut().stop_recording();
        assert!(full.len() > 8, "a streamed migration");
        assert!(
            !contains(&full),
            "batch {batch_size}: sentinel leaked on the full stream"
        );
        let lead = lead_body(&full, m1, m2);
        assert!(
            !lead.is_empty() && lead.iter().all(|b| *b == 0),
            "batch {batch_size}: the ChunkStart body is zero pad only"
        );

        // A delta hop back: a few entries dirtied, the sentinel untouched.
        let state = staged(&mut dc, "dst");
        dc.call_app("dst", kv::LOAD, &state).unwrap();
        put(&mut dc, "dst", b"bulk-00000003", &[3; 4096]);
        dc.deploy_app(
            "back",
            m1,
            &kv_image(),
            KvStore::new(),
            InitRequest::Migrate,
        )
        .unwrap();
        dc.world_mut().network_mut().start_recording();
        dc.migrate_app("dst", "back").unwrap();
        let delta = dc.world_mut().network_mut().stop_recording();
        let me_me: u64 = delta
            .iter()
            .filter(|e| e.from.service == "me" && e.to.service == "me")
            .map(|e| e.payload.len() as u64)
            .sum();
        assert!(
            me_me * 4 < state.len() as u64,
            "batch {batch_size}: the hop shipped a delta ({me_me} ME-ME bytes for {} state bytes)",
            state.len()
        );
        assert!(
            !contains(&delta),
            "batch {batch_size}: sentinel leaked on the delta hop"
        );
        assert!(
            lead_body(&delta, m2, m1).iter().all(|b| *b == 0),
            "batch {batch_size}: the DeltaStart body is zero pad only"
        );

        // The sentinel did arrive, inside the sealed state.
        let state = staged(&mut dc, "back");
        dc.call_app("back", kv::LOAD, &state).unwrap();
        assert_eq!(dc.call_app("back", kv::GET, b"sentinel").unwrap(), sentinel);
    }
}

/// The sealed channel messages that carry the migration — the library's
/// `MigrateRequest` and the ME's `IncomingMigration` — have the same
/// length at 64 KiB and at 4 MiB of state: they carry Table I and the
/// root, and the container rides beside them.
#[test]
fn r4_sealed_migration_messages_are_independent_of_state_size() {
    use mig_core::host::tags;
    use mig_core::msgs::decode_relay;

    let mut lengths = Vec::new();
    for (seed, count) in [(223u64, 16u32), (224, 1024)] {
        let (mut dc, m1, m2) = dc_with_two_machines(seed);
        kv_with_bulk(&mut dc, "src", m1, count, 4096);
        let container_len = staged(&mut dc, "src").len();
        dc.deploy_app("dst", m2, &kv_image(), KvStore::new(), InitRequest::Migrate)
            .unwrap();
        dc.world_mut().network_mut().start_recording();
        dc.migrate_app("src", "dst").unwrap();
        let frames = dc.world_mut().network_mut().stop_recording();
        let sealed_len = |tag: u8, from: &str, to: &str| -> usize {
            let e = frames
                .iter()
                .find(|e| {
                    e.from.service == from && e.to.service == to && unframe(&e.payload).0 == tag
                })
                .expect("relay frame");
            let (_, body) = unframe(&e.payload);
            let (ct, container) = decode_relay(&body).unwrap();
            assert_eq!(container.len(), container_len, "the container rides beside");
            ct.len()
        };
        lengths.push((
            sealed_len(tags::LIB_MSG, "app:src", "me"),
            sealed_len(tags::ME_FORWARD, "me", "app:dst"),
        ));
    }
    assert_eq!(lengths[0], lengths[1]);
}
