//! Shared fixtures for the integration tests: genuine library-sealed
//! bulk containers, made by a kvstore enclave on a bare machine (no
//! datacenter, no Migration Enclave).

#![allow(dead_code)]

use mig_apps::kvstore::{self, ops as kv, KvStore};
use mig_core::harness::{encode_init, open_envelope, ops as lib_ops, MigratableEnclave};
use mig_core::library::bulk::Layout;
use mig_core::library::InitRequest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgx_sim::enclave::EnclaveHandle;
use sgx_sim::ias::AttestationService;
use sgx_sim::machine::{MachineId, SgxMachine};
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::wire::WireReader;

/// The root a container claims: SHA-256 of its sealed index (framing
/// only — what the release gate compares against).
pub fn root_of(container: &[u8]) -> [u8; 32] {
    let layout = Layout::parse(container).expect("container framing");
    mig_crypto::sha256::sha256(&container[layout.index])
}

fn call(enclave: &EnclaveHandle, opcode: u32, input: &[u8]) -> Vec<u8> {
    open_envelope(&enclave.ecall(opcode, input).expect("ecall"))
        .expect("envelope")
        .0
}

fn staged(enclave: &EnclaveHandle) -> Vec<u8> {
    let bulk = call(enclave, lib_ops::BULK_STATE, &[]);
    let mut r = WireReader::new(&bulk);
    assert_eq!(r.u8().unwrap(), 1, "container staged");
    r.bytes_vec().unwrap()
}

/// Successive containers of one kvstore: after a `BULK_PUT` of
/// `entries` values of `value_len` bytes filled from `fill`, and then
/// after each same-length overwrite of entry `k` with byte `v` in
/// `overwrites`.
pub fn kv_generations(
    seed: u64,
    entries: u32,
    value_len: u32,
    fill: u8,
    overwrites: &[(u32, u8)],
) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ias = AttestationService::new(&mut rng);
    let machine = SgxMachine::new(MachineId(1), &ias, &mut rng);
    let image = EnclaveImage::build("fixture-kv", 1, b"kv", &EnclaveSigner::from_seed([77; 32]));
    let enclave = machine
        .load_enclave(&image, Box::new(MigratableEnclave::new(KvStore::new())))
        .unwrap();
    let me = mig_core::me::me_image().mr_enclave();
    call(
        &enclave,
        lib_ops::MIG_INIT,
        &encode_init(&me, &InitRequest::New),
    );
    call(&enclave, kv::INIT, &[]);
    call(
        &enclave,
        kv::BULK_PUT,
        &kvstore::encode_bulk_put(entries, value_len, fill),
    );
    let mut out = vec![staged(&enclave)];
    for &(k, v) in overwrites {
        let key = format!("bulk-{k:08}");
        let put = kvstore::encode_put(key.as_bytes(), &vec![v; value_len as usize]);
        call(&enclave, kv::PUT, &put);
        out.push(staged(&enclave));
    }
    out
}
