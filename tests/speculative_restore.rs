//! End-to-end coverage of destination-side **speculative restore**
//! (`TransferConfig::speculative_restore`): with it on and off, the
//! destination must release bit-identical state for both full and
//! dirty-page delta streams (the knob only changes how a delta is
//! staged), and the
//! destination host's release-latency telemetry must be populated by
//! the final-chunk ECALL.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::TransferConfig;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};

fn image() -> EnclaveImage {
    EnclaveImage::build(
        "spec-kv",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([81; 32]),
    )
}

/// 1024 × 4 KiB values ≈ 4 MiB of sealed state: enough chunks to make
/// staging meaningful, small enough to keep the suite fast.
const BULK_COUNT: u32 = 1024;
const BULK_VALUE_LEN: u32 = 4096;

fn config(speculative: bool) -> TransferConfig {
    TransferConfig {
        stream_threshold: 64 * 1024,
        chunk_size: 256 * 1024,
        window: 4,
        speculative_restore: speculative,
        ..TransferConfig::default()
    }
}

fn dc_pair(seed: u64, speculative: bool) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config(speculative));
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config(speculative));
    (dc, m1, m2)
}

/// Runs full migration → dirty pass → repeat (delta) migration and
/// returns the two transferred snapshots, as released at each
/// destination.
fn full_then_delta_cycle(seed: u64, speculative: bool) -> (Vec<u8>, Vec<u8>) {
    let (mut dc, m1, m2) = dc_pair(seed, speculative);
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, 0x5A),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let full_state = dc
        .app_bulk_state("dst")
        .unwrap()
        .expect("full snapshot released at the destination");
    // The telemetry the speculative-restore benchmark reads: the final
    // chunk's ECALL released the payload.
    let latency = dc.me_host(m2).lock().release_latency();
    assert!(
        latency.is_some_and(|d| d > std::time::Duration::ZERO),
        "destination recorded a time-to-release"
    );

    // Dirty a slice of the working set at the destination and migrate
    // back: a repeat migration, shipped as a dirty-page delta.
    dc.call_app("dst", kv_ops::LOAD, &full_state).unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT / 64, BULK_VALUE_LEN, 0xC3),
    )
    .unwrap();
    dc.deploy_app("back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("dst", "back").unwrap();
    let delta_state = dc
        .app_bulk_state("back")
        .unwrap()
        .expect("delta snapshot released at the source machine");
    (full_state, delta_state)
}

#[test]
fn speculative_and_unseal_paths_release_identical_state() {
    // Identical seeds → identical protocol runs up to the restore
    // strategy; both modes must release byte-identical snapshots for
    // the full stream and for the dirty-page delta stream.
    let (full_spec, delta_spec) = full_then_delta_cycle(4901, true);
    let (full_unseal, delta_unseal) = full_then_delta_cycle(4901, false);
    assert_eq!(
        full_spec, full_unseal,
        "full-stream release differs between restore modes"
    );
    assert_eq!(
        delta_spec, delta_unseal,
        "delta-stream release differs between restore modes"
    );
    assert_ne!(full_spec, delta_spec, "the dirty pass changed the state");
}

#[test]
fn speculative_restore_survives_destination_me_restart() {
    // ME restarts between migrations must not break the speculative
    // path: the delta bases ride the me-state checkpoint, so the
    // repeat migration after the restart still content-verifies and
    // stages its base at announce time. (Mid-stream restarts — the
    // `ReceiverFsm::restore` re-absorb of a partially received prefix —
    // are covered by `tests/me_recovery.rs` and the session-layer unit
    // and property tests.)
    let (mut dc, m1, m2) = dc_pair(4903, true);
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, 0x77),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let first = dc.app_bulk_state("dst").unwrap().expect("released");

    // Persist + restart both MEs (the delta bases and, on a future
    // stream, any in-flight prefixes ride the me-state checkpoint).
    dc.persist_me(m1).unwrap();
    dc.persist_me(m2).unwrap();
    dc.restart_me(m1).unwrap();
    dc.restart_me(m2).unwrap();

    // Attested sessions are ephemeral: the apps re-attest with their
    // restarted MEs before further migration traffic.
    {
        let dst = dc.app("dst");
        dst.lock().attest_me(dc.world_mut().network_mut());
    }
    dc.run();

    // Repeat migration after the restart: the delta base was persisted
    // on both ends, so the repeat still streams (and stages) a delta.
    dc.call_app("dst", kv_ops::LOAD, &first).unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(8, BULK_VALUE_LEN, 0x11),
    )
    .unwrap();
    dc.deploy_app("back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("dst", "back").unwrap();
    let second = dc.app_bulk_state("back").unwrap().expect("released");
    assert_ne!(first, second);
    dc.call_app("back", kv_ops::LOAD, &second).unwrap();
    let len = dc.call_app("back", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), BULK_COUNT);
}
