//! Property-based tests over the full migration stack.
//!
//! These drive randomized operation sequences (increments, restarts,
//! migrations, seal/unseal cycles) through the simulated datacenter and
//! check the paper's core invariants: effective counter continuity,
//! sealed-data portability, and wire-format round-trips.

use cloud_sim::machine::MachineLabels;
use mig_core::datacenter::Datacenter;
use mig_core::harness::{AppCtx, AppLogic};
use mig_core::library::state::{LibraryState, MigrationData, COUNTER_SLOTS};
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::chunker::{chunk_count, ChunkAssembler, ChunkStream};
use proptest::prelude::*;

mod common;
use sgx_sim::counters::CounterUuid;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::SgxError;

struct PropApp;

mod ops {
    pub const CREATE: u32 = 1;
    pub const INC: u32 = 2;
    pub const READ: u32 = 3;
    pub const SEAL: u32 = 4;
    pub const UNSEAL: u32 = 5;
}

impl AppLogic for PropApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            ops::CREATE => {
                let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                Ok(vec![id])
            }
            ops::INC => Ok(ctx
                .lib
                .increment_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::READ => Ok(ctx
                .lib
                .read_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::SEAL => Ok(ctx.lib.seal_migratable_data(ctx.env, b"p", input)?),
            ops::UNSEAL => Ok(ctx.lib.unseal_migratable_data(ctx.env, input)?.0),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

fn image() -> EnclaveImage {
    EnclaveImage::build("prop-app", 1, b"code", &EnclaveSigner::from_seed([31; 32]))
}

/// A lifecycle event the adversary-controlled host can trigger.
#[derive(Clone, Copy, Debug)]
enum Event {
    Increment,
    Restart,
    Migrate,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => Just(Event::Increment),
        1 => Just(Event::Restart),
        1 => Just(Event::Migrate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The effective counter value equals the number of increments, no
    /// matter how restarts and migrations interleave.
    #[test]
    fn counter_continuity_under_lifecycle_events(
        seed in 0u64..10_000,
        events in proptest::collection::vec(event_strategy(), 1..14),
    ) {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let machines = [
            dc.add_machine(MachineLabels::default(), &policy),
            dc.add_machine(MachineLabels::default(), &policy),
        ];
        let mut current_machine = 0usize;
        let mut generation = 0usize;
        let mut instance = format!("gen{generation}");
        dc.deploy_app(&instance, machines[0], &image(), PropApp, InitRequest::New)
            .unwrap();
        let id = dc.call_app(&instance, ops::CREATE, &[]).unwrap()[0];

        let mut expected = 0u32;
        for event in events {
            match event {
                Event::Increment => {
                    expected += 1;
                    let v = u32::from_le_bytes(
                        dc.call_app(&instance, ops::INC, &[id]).unwrap()[..4]
                            .try_into()
                            .unwrap(),
                    );
                    prop_assert_eq!(v, expected);
                }
                Event::Restart => {
                    dc.restart_app(&instance, machines[current_machine], &image(), PropApp)
                        .unwrap();
                }
                Event::Migrate => {
                    let target = 1 - current_machine;
                    generation += 1;
                    let next = format!("gen{generation}");
                    dc.deploy_app(
                        &next,
                        machines[target],
                        &image(),
                        PropApp,
                        InitRequest::Migrate,
                    )
                    .unwrap();
                    dc.migrate_app(&instance, &next).unwrap();
                    instance = next;
                    current_machine = target;
                }
            }
            // Invariant: a read always returns the exact increment count.
            let v = u32::from_le_bytes(
                dc.call_app(&instance, ops::READ, &[id]).unwrap()[..4]
                    .try_into()
                    .unwrap(),
            );
            prop_assert_eq!(v, expected);
        }
    }

    /// Migratable-sealed blobs of arbitrary content unseal identically
    /// after a migration.
    #[test]
    fn sealed_blobs_portable_across_migration(
        seed in 0u64..10_000,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..5),
    ) {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine(MachineLabels::default(), &policy);
        let m2 = dc.add_machine(MachineLabels::default(), &policy);
        dc.deploy_app("src", m1, &image(), PropApp, InitRequest::New).unwrap();

        let blobs: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| dc.call_app("src", ops::SEAL, p).unwrap())
            .collect();

        dc.deploy_app("dst", m2, &image(), PropApp, InitRequest::Migrate).unwrap();
        dc.migrate_app("src", "dst").unwrap();

        for (payload, blob) in payloads.iter().zip(&blobs) {
            let pt = dc.call_app("dst", ops::UNSEAL, blob).unwrap();
            prop_assert_eq!(&pt, payload);
        }
    }

    /// Table I wire format round-trips arbitrary contents.
    #[test]
    fn migration_data_round_trips(
        active_ids in proptest::collection::btree_set(0usize..COUNTER_SLOTS, 0..20),
        values in proptest::collection::vec(any::<u32>(), COUNTER_SLOTS),
        msk in any::<[u8; 16]>(),
    ) {
        let mut data = MigrationData {
            counters_active: [false; COUNTER_SLOTS],
            counter_values: values.try_into().unwrap(),
            msk,
        };
        for id in active_ids {
            data.counters_active[id] = true;
        }
        let parsed = MigrationData::from_bytes(&data.to_bytes()).unwrap();
        prop_assert_eq!(parsed, data);
    }

    /// Table II wire format round-trips arbitrary contents, and every
    /// truncation is rejected.
    #[test]
    fn library_state_round_trips_and_rejects_truncation(
        frozen in any::<bool>(),
        active_ids in proptest::collection::btree_set(0usize..COUNTER_SLOTS, 0..10),
        offsets in proptest::collection::vec(any::<u32>(), COUNTER_SLOTS),
        msk in any::<[u8; 16]>(),
        nonce_seed in any::<u8>(),
        cut in 1usize..100,
    ) {
        let mut state = LibraryState::fresh(msk);
        state.frozen = u8::from(frozen);
        state.counter_offsets = offsets.try_into().unwrap();
        for id in &active_ids {
            state.counters_active[*id] = true;
            state.counter_uuids[*id] = CounterUuid {
                slot: *id as u8,
                nonce: [nonce_seed; 8],
            };
        }
        let bytes = state.to_bytes();
        let parsed = LibraryState::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed, state);
        let cut = cut.min(bytes.len());
        prop_assert!(LibraryState::from_bytes(&bytes[..bytes.len() - cut]).is_err());
    }

    /// The Fig. 4 "init restore" path is idempotent: restarting any
    /// number of times preserves counters and sealed data.
    #[test]
    fn repeated_restarts_are_lossless(
        seed in 0u64..10_000,
        restarts in 1usize..5,
        increments in 1u32..6,
    ) {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine(MachineLabels::default(), &policy);
        dc.deploy_app("app", m1, &image(), PropApp, InitRequest::New).unwrap();
        let id = dc.call_app("app", ops::CREATE, &[]).unwrap()[0];
        for _ in 0..increments {
            dc.call_app("app", ops::INC, &[id]).unwrap();
        }
        let blob = dc.call_app("app", ops::SEAL, b"durable").unwrap();

        for _ in 0..restarts {
            dc.restart_app("app", m1, &image(), PropApp).unwrap();
        }
        let v = u32::from_le_bytes(
            dc.call_app("app", ops::READ, &[id]).unwrap()[..4].try_into().unwrap(),
        );
        prop_assert_eq!(v, increments);
        prop_assert_eq!(dc.call_app("app", ops::UNSEAL, &blob).unwrap(), b"durable");
    }
}

/// Two genuine containers of the same geometry (one entry rewritten in
/// between), built once for the tamper properties.
fn tamper_generations() -> &'static [Vec<u8>] {
    static GENS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    GENS.get_or_init(|| common::kv_generations(7, 6, 1500, 0x42, &[(2, 0x99)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming chunker round-trips arbitrary payloads across
    /// arbitrary chunk geometries, including a crash/persist/resume at
    /// an arbitrary chunk boundary.
    #[test]
    fn chunker_round_trips_arbitrary_sizes_and_boundaries(
        payload in proptest::collection::vec(any::<u8>(), 1..20_000),
        chunk_size in 1u32..700,
        nonce in any::<[u8; 16]>(),
        resume_frac in 0u32..=100,
    ) {
        let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
        let n = stream.n_chunks();
        prop_assert_eq!(n, chunk_count(payload.len() as u64, chunk_size));
        let mut asm = ChunkAssembler::new(chunk_size, stream.total_len()).unwrap();

        // Feed chunks up to an arbitrary boundary, persist, resume.
        let crash_at = n * resume_frac / 100;
        for idx in 0..crash_at {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        let mut asm = ChunkAssembler::from_bytes(&asm.to_bytes()).unwrap();
        prop_assert_eq!(asm.next_idx(), crash_at);
        for idx in crash_at..n {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        prop_assert!(asm.is_complete());
        prop_assert_eq!(asm.finish().unwrap(), payload);
    }

    /// Any single bit flip in any chunk, and any chunk spliced in from
    /// another transfer of the same geometry, yields a container the
    /// release gate (`verify_root` against the announced root) refuses;
    /// index replays and skips are refused on arrival without poisoning
    /// the assembler.
    #[test]
    fn verify_root_detects_any_chunk_tamper(
        chunk_size in 64u32..3_000,
        nonce in any::<[u8; 16]>(),
        flip_chunk in any::<u32>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
        splice_chunk in any::<u32>(),
    ) {
        use mig_core::library::bulk::verify_root;
        let gens = tamper_generations();
        let (genuine, other) = (&gens[0], &gens[1]);
        let root = common::root_of(genuine);
        let stream = ChunkStream::new(nonce, chunk_size, genuine.clone());
        let foreign = ChunkStream::new(nonce, chunk_size, other.clone());
        let n = stream.n_chunks();
        let reassemble = |pick: &dyn Fn(u32) -> Vec<u8>| {
            let mut asm = ChunkAssembler::new(chunk_size, stream.total_len()).unwrap();
            for idx in 0..n {
                asm.accept(idx, &pick(idx)).unwrap();
            }
            asm.finish().unwrap()
        };

        // A bit flip anywhere in any chunk fails the root.
        let at = flip_chunk % n;
        let flipped = reassemble(&|idx| {
            let mut chunk = stream.chunk(idx).to_vec();
            if idx == at {
                let i = flip_byte % chunk.len();
                chunk[i] ^= 1 << flip_bit;
            }
            chunk
        });
        prop_assert!(verify_root(&flipped, &root, 1).is_err());

        // A chunk from another transfer at the same index fails the
        // root unless it is byte-identical there.
        let at = splice_chunk % n;
        if foreign.chunk(at) != stream.chunk(at) {
            let spliced = reassemble(&|idx| {
                if idx == at { foreign.chunk(idx) } else { stream.chunk(idx) }.to_vec()
            });
            prop_assert!(verify_root(&spliced, &root, 1).is_err());
        }

        // Replays and skips are refused on arrival; the genuine stream
        // still goes through afterwards and releases.
        let mut asm = ChunkAssembler::new(chunk_size, stream.total_len()).unwrap();
        asm.accept(0, stream.chunk(0)).unwrap();
        prop_assert!(asm.accept(0, stream.chunk(0)).is_err());
        if n > 2 {
            prop_assert!(asm.accept(2, stream.chunk(2)).is_err());
        }
        for idx in 1..n {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        let out = asm.finish().unwrap();
        prop_assert!(verify_root(&out, &root, 1).is_ok());
        prop_assert_eq!(&out, genuine);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent multi-enclave migration at the engine level: 2–4 chunk
    /// streams (one of them a dirty-page *delta* stream mixed with the
    /// full streams) interleave in an arbitrary adversary-chosen order,
    /// one assembler additionally crashes and resumes from its persisted
    /// partial state mid-interleaving — and every payload reconstructs
    /// byte-identically. Cross-stream frames can never bleed into each
    /// other: each assembler only ever sees its own nonce's chunks here,
    /// exactly the per-nonce keying the ME's stream table enforces.
    #[test]
    fn interleaved_concurrent_streams_reconstruct_every_payload(
        n_streams in 2usize..=4,
        payload_seed in any::<u8>(),
        lens in proptest::collection::vec(1usize..30_000, 4),
        chunk_size in 64u32..2_000,
        schedule in proptest::collection::vec(0usize..4, 1..400),
        crash_stream in 0usize..4,
        crash_after in 0u32..20,
        dirty_offsets in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        use mig_core::transfer::chunker::{ChunkAssembler, ChunkStream};
        use mig_core::transfer::delta::{self, PageDigests};

        // Stream 0 is a delta stream: its payload is the packed dirty
        // pages of a mutated copy of a base state.
        let base: Vec<u8> = (0..lens[0].max(delta::PAGE_SIZE as usize))
            .map(|i| (i as u8).wrapping_mul(payload_seed | 1))
            .collect();
        let mut new_state = base.clone();
        for off in &dirty_offsets {
            let i = off % new_state.len();
            new_state[i] ^= 0x5A;
        }
        let digests = PageDigests::compute(&base, delta::PAGE_SIZE);
        let (manifest, delta_payload) = delta::diff(&digests, 0, 1, &new_state);
        prop_assume!(!delta_payload.is_empty());

        // Streams 1..n are full streams with unrelated payloads.
        let mut payloads: Vec<Vec<u8>> = vec![delta_payload.clone()];
        for (i, len) in lens.iter().take(n_streams).enumerate().skip(1) {
            payloads.push(
                (0..*len)
                    .map(|j| (j as u8).wrapping_add(payload_seed).wrapping_mul(i as u8 | 1))
                    .collect(),
            );
        }

        let mut nonces = Vec::new();
        let mut streams = Vec::new();
        let mut assemblers = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let mut nonce = [0u8; 16];
            nonce[0] = i as u8;
            nonce[1] = payload_seed;
            let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
            assemblers.push(ChunkAssembler::new(chunk_size, stream.total_len()).unwrap());
            nonces.push(nonce);
            streams.push(stream);
        }

        // Adversary-chosen interleaving: the schedule names which stream
        // makes progress next; exhausted streams round-robin onward.
        let n = payloads.len();
        let mut crashed = false;
        let step = |i: usize, assemblers: &mut Vec<ChunkAssembler>, crashed: &mut bool| {
            let idx = assemblers[i].next_idx();
            if idx >= streams[i].n_chunks() {
                return false;
            }
            // Mid-interleaving crash of one destination stream: persist,
            // drop, restore — the other streams never notice.
            if !*crashed
                && i == crash_stream % n
                && idx == crash_after.min(streams[i].n_chunks() - 1)
            {
                let blob = assemblers[i].to_bytes();
                assemblers[i] = ChunkAssembler::from_bytes(&blob).unwrap();
                assert_eq!(assemblers[i].next_idx(), idx, "resume keeps the offset");
                *crashed = true;
            }
            assemblers[i].accept(idx, streams[i].chunk(idx)).unwrap();
            true
        };
        for pick in &schedule {
            step(pick % n, &mut assemblers, &mut crashed);
        }
        // Drain whatever the schedule left over, round-robin.
        loop {
            let mut progressed = false;
            for i in 0..n {
                progressed |= step(i, &mut assemblers, &mut crashed);
            }
            if !progressed {
                break;
            }
        }

        // Every payload reconstructs byte-identically...
        for (i, asm) in assemblers.drain(..).enumerate() {
            prop_assert!(asm.is_complete(), "stream {i} complete");
            let out = asm.finish().unwrap();
            prop_assert_eq!(&out, &payloads[i]);
        }
        // ...and the delta stream's payload applies onto the base to the
        // exact mutated state.
        let applied = delta::apply(&base, &manifest, &delta_payload).unwrap();
        prop_assert_eq!(applied, new_state);
    }

    /// Delta-checkpoint correctness: for any base state, any dirty-byte
    /// pattern, and any growth/shrink of the state,
    /// `apply(restore(g), diff(digests(restore(g)), restore(latest))) ==
    /// restore(latest)` — and the delta payload survives the chunker
    /// unchanged.
    #[test]
    fn delta_checkpoints_reconstruct_latest(
        base in proptest::collection::vec(any::<u8>(), 1..40_000),
        dirty_offsets in proptest::collection::vec(any::<usize>(), 0..12),
        growth in proptest::collection::vec(any::<u8>(), 0..6_000),
        shrink in 0usize..6_000,
        flip in 1u8..=255,
        chunk_size in 512u32..5_000,
        nonce in any::<[u8; 16]>(),
    ) {
        use cloud_sim::disk::UntrustedDisk;
        use mig_core::transfer::checkpoint::CheckpointStore;
        use mig_core::transfer::delta::{self, PageDigests};

        let store = CheckpointStore::new(UntrustedDisk::new(), "prop-delta");
        let g0 = store.put(base.clone()).unwrap();

        let mut new = base.clone();
        for off in &dirty_offsets {
            let i = off % new.len();
            new[i] ^= flip;
        }
        new.extend_from_slice(&growth);
        let keep = new.len().saturating_sub(shrink).max(1);
        new.truncate(keep);
        let g1 = store.put(new.clone()).unwrap();

        let stored = store.get(g0).expect("both generations retained");
        let latest = store.get(g1).expect("both generations retained");
        let digests = PageDigests::compute(&stored, delta::PAGE_SIZE);
        let (manifest, payload) = delta::diff(&digests, g0, g1, &latest);
        prop_assert_eq!(manifest.base_generation, g0);
        prop_assert_eq!(manifest.new_generation, g1);
        prop_assert_eq!(payload.len() as u64, manifest.payload_len());

        // The reconstruction is exact.
        let applied = delta::apply(&base, &manifest, &payload).unwrap();
        prop_assert_eq!(&applied, &new);

        // The packed dirty pages stream through the chunker verbatim.
        let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
        let mut asm = ChunkAssembler::new(chunk_size, stream.total_len()).unwrap();
        for idx in 0..stream.n_chunks() {
            asm.accept(idx, stream.chunk(idx)).unwrap();
        }
        prop_assert_eq!(asm.finish().unwrap(), payload);

        // A delta applied to the wrong base is rejected, never silently
        // wrong: flip one byte of the base inside a clean page (if any
        // page is clean, the digest check fires; if every page is dirty,
        // the base is ignored and application still succeeds).
        if new.len() == base.len() {
            let mut wrong_base = base.clone();
            wrong_base[0] ^= 1;
            match delta::apply(&wrong_base, &manifest, &payload) {
                // A dirty page over the flipped byte masks the base flip.
                Ok(out) => prop_assert_eq!(out, new),
                Err(e) => prop_assert!(matches!(e, mig_core::error::MigError::Transfer(_))),
            }
        }
    }
}

// -----------------------------------------------------------------------
// Totality of the host-reachable persist-record and container decoders
// -----------------------------------------------------------------------

mod bulk_decoders {
    use mig_apps::kvstore::{self, ops as kv, KvStore};
    use mig_core::harness::{encode_init, open_envelope, ops as lib_ops, MigratableEnclave};
    use mig_core::library::bulk::Layout;
    use mig_core::library::{split_persist_record, InitRequest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sgx_sim::enclave::EnclaveHandle;
    use sgx_sim::ias::AttestationService;
    use sgx_sim::machine::{MachineId, SgxMachine};
    use sgx_sim::measurement::{EnclaveImage, EnclaveSigner, MrEnclave};
    use sgx_sim::wire::WireReader;

    fn image() -> EnclaveImage {
        EnclaveImage::build("prop-kv", 1, b"kv", &EnclaveSigner::from_seed([32; 32]))
    }

    fn me_mr() -> MrEnclave {
        mig_core::me::me_image().mr_enclave()
    }

    /// An ECALL through the harness envelope: `(payload, persist record)`.
    fn call(
        enclave: &EnclaveHandle,
        opcode: u32,
        input: &[u8],
    ) -> Result<(Vec<u8>, Option<Vec<u8>>), sgx_sim::SgxError> {
        Ok(open_envelope(&enclave.ecall(opcode, input)?).expect("envelope"))
    }

    /// A machine running a kvstore with three segments of bulk state,
    /// plus its latest persist record and staged container.
    pub struct Fixture {
        pub machine: SgxMachine,
        pub enclave: EnclaveHandle,
        pub record: Vec<u8>,
        pub container: Vec<u8>,
    }

    pub fn fixture(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let ias = AttestationService::new(&mut rng);
        let machine = SgxMachine::new(MachineId(1), &ias, &mut rng);
        let enclave = machine
            .load_enclave(&image(), Box::new(MigratableEnclave::new(KvStore::new())))
            .unwrap();
        call(
            &enclave,
            lib_ops::MIG_INIT,
            &encode_init(&me_mr(), &InitRequest::New),
        )
        .unwrap();
        call(&enclave, kv::INIT, &[]).unwrap();
        let (_, record) = call(
            &enclave,
            kv::BULK_PUT,
            &kvstore::encode_bulk_put(8, 1000, 3),
        )
        .unwrap();
        let record = record.expect("BULK_PUT persists");
        let (bulk, _) = call(&enclave, lib_ops::BULK_STATE, &[]).unwrap();
        let mut r = WireReader::new(&bulk);
        assert_eq!(r.u8().unwrap(), 1, "container staged");
        let container = r.bytes_vec().unwrap();
        Fixture {
            machine,
            enclave,
            record,
            container,
        }
    }

    /// Restores a fresh enclave from `record` and, if that succeeds,
    /// loads its staged container. Returns whether both succeeded.
    pub fn restores_usable_state(machine: &SgxMachine, record: Vec<u8>) -> bool {
        let enclave = machine
            .load_enclave(&image(), Box::new(MigratableEnclave::new(KvStore::new())))
            .unwrap();
        let init = encode_init(&me_mr(), &InitRequest::Restore { blob: record });
        if call(&enclave, lib_ops::MIG_INIT, &init).is_err() {
            return false;
        }
        let (bulk, _) = call(&enclave, lib_ops::BULK_STATE, &[]).unwrap();
        let mut r = WireReader::new(&bulk);
        let container = match r.u8().unwrap() {
            0 => Vec::new(),
            _ => r.bytes_vec().unwrap(),
        };
        call(&enclave, kv::LOAD, &container).is_ok()
    }

    /// Applies one mutation: flip a byte, truncate, or append junk.
    pub fn mutate(bytes: &[u8], kind: u8, pos: usize, xor: u8, junk: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        match kind % 3 {
            0 => out[pos % bytes.len()] ^= xor,
            1 => out.truncate(pos % bytes.len()),
            _ => out.extend_from_slice(junk),
        }
        out
    }

    /// Host-side framing decoders never panic, whatever the bytes.
    pub fn framing_is_total(bytes: &[u8]) {
        let _ = split_persist_record(bytes);
        let _ = Layout::parse(bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A mutated or arbitrary persist record never yields a library that
    /// serves state: `InitRequest::Restore` refuses it (header MAC,
    /// framing, or root), or the container it staged fails to load.
    /// Nothing panics.
    #[test]
    fn persist_record_split_and_restore_are_total(
        seed in 0u64..4,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let f = bulk_decoders::fixture(seed);
        prop_assert!(bulk_decoders::restores_usable_state(&f.machine, f.record.clone()));
        let mutated = bulk_decoders::mutate(&f.record, kind, pos, xor, &junk);
        bulk_decoders::framing_is_total(&mutated);
        bulk_decoders::framing_is_total(&arbitrary);
        prop_assert!(!bulk_decoders::restores_usable_state(&f.machine, mutated));
        prop_assert!(!bulk_decoders::restores_usable_state(&f.machine, arbitrary));
    }

    /// A mutated or arbitrary container is refused by the library's
    /// container and index decoder (`LOAD` → `open_bulk`), and never
    /// panics it; the genuine container still loads afterwards.
    #[test]
    fn bulk_container_decoder_is_total(
        seed in 0u64..4,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let f = bulk_decoders::fixture(seed);
        let load = |bytes: &[u8]| f.enclave.ecall(mig_apps::kvstore::ops::LOAD, bytes);
        let mutated = bulk_decoders::mutate(&f.container, kind, pos, xor, &junk);
        bulk_decoders::framing_is_total(&mutated);
        prop_assert!(load(&mutated).is_err());
        prop_assert!(load(&arbitrary).is_err());
        prop_assert!(load(&f.container).is_ok());
    }
}

// -----------------------------------------------------------------------
// Totality of the relay inputs: the container beside Table I
// -----------------------------------------------------------------------

mod relay_inputs {
    use cloud_sim::machine::MachineLabels;
    use cloud_sim::network::{Envelope, TapAction};
    use mig_apps::kvstore::{self, ops as kv, KvStore};
    use mig_core::datacenter::Datacenter;
    use mig_core::host::tags;
    use mig_core::library::InitRequest;
    use mig_core::policy::MigrationPolicy;
    use parking_lot::Mutex;
    use sgx_sim::machine::MachineId;
    use sgx_sim::measurement::{EnclaveImage, EnclaveSigner, MrEnclave};
    use sgx_sim::wire::WireReader;
    use std::sync::Arc;

    /// A datacenter in which app `a`'s genuine `LIB_MSG` relay frame and
    /// app `b-dst`'s genuine `ME_FORWARD` relay frame were captured and
    /// dropped: the source ME and the destination library still expect
    /// exactly those messages next.
    pub struct Captured {
        pub dc: Datacenter,
        pub me_machine: MachineId,
        pub mr_a: MrEnclave,
        pub lib_msg: Vec<u8>,
        pub forward: Vec<u8>,
    }

    fn image(tag: u8) -> EnclaveImage {
        EnclaveImage::build("prop-relay", 1, &[tag], &EnclaveSigner::from_seed([33; 32]))
    }

    pub fn capture(seed: u64) -> Captured {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine(MachineLabels::default(), &policy);
        let m2 = dc.add_machine(MachineLabels::default(), &policy);
        for (app, tag) in [("a", 1u8), ("b", 2)] {
            dc.deploy_app(app, m1, &image(tag), KvStore::new(), InitRequest::New)
                .unwrap();
            dc.call_app(app, kv::INIT, &[]).unwrap();
            dc.call_app(app, kv::BULK_PUT, &kvstore::encode_bulk_put(12, 900, tag))
                .unwrap();
        }
        dc.deploy_app("b-dst", m2, &image(2), KvStore::new(), InitRequest::Migrate)
            .unwrap();
        let captured: Arc<Mutex<(Vec<u8>, Vec<u8>)>> = Arc::default();
        let tap = Arc::clone(&captured);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                let mut r = WireReader::new(&e.payload);
                let tag = r.u8().unwrap();
                let body = r.bytes_vec().unwrap();
                let mut slot = tap.lock();
                if tag == tags::LIB_MSG && e.from.service == "app:a" && slot.0.is_empty() {
                    slot.0 = body;
                    return TapAction::Drop;
                }
                if tag == tags::ME_FORWARD && e.to.service == "app:b-dst" && slot.1.is_empty() {
                    slot.1 = body;
                    return TapAction::Drop;
                }
                TapAction::Deliver
            }));
        for app in ["a", "b"] {
            let host = dc.app(app);
            host.lock()
                .migrate_to(dc.world_mut().network_mut(), m2)
                .unwrap();
        }
        dc.run();
        let (lib_msg, forward) = std::mem::take(&mut *captured.lock());
        assert!(
            !lib_msg.is_empty() && !forward.is_empty(),
            "both relays captured"
        );
        let mr_a = dc.app("a").lock().enclave().identity().mr_enclave;
        Captured {
            dc,
            me_machine: m1,
            mr_a,
            lib_msg,
            forward,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The source ME's `LIB_MSG` input — measurement, sealed request and
    /// the container relayed beside it — refuses every mutated or
    /// arbitrary relay frame without panicking, and keeps nothing.
    #[test]
    fn lib_msg_input_with_trailing_container_is_total(
        seed in 0u64..3,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use mig_core::me::ops as me_ops;
        let c = relay_inputs::capture(seed);
        let me = c.dc.me_host(c.me_machine);
        let ecall = |relay: &[u8]| {
            let mut input = c.mr_a.0.to_vec();
            input.extend_from_slice(relay);
            me.lock().enclave().ecall(me_ops::LIB_MSG, &input)
        };
        prop_assert!(ecall(&arbitrary).is_err());
        let mutated = bulk_decoders::mutate(&c.lib_msg, kind, pos, xor, &junk);
        let _ = mig_core::msgs::decode_relay(&arbitrary);
        prop_assert!(ecall(&mutated).is_err());
        prop_assert_eq!(me.lock().stream_progress(c.mr_a).unwrap(), None);
    }

    /// The destination library's `ME_CT` input — sealed
    /// `IncomingMigration` plus the relayed container — never yields a
    /// library serving state from bytes it did not seal: a mutated or
    /// arbitrary frame is refused at install, or the container it staged
    /// fails to load. Nothing panics.
    #[test]
    fn me_ct_input_with_trailing_container_is_total(
        seed in 0u64..3,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use mig_core::harness::{open_envelope, ops as lib_ops};
        use sgx_sim::wire::WireReader;
        let c = relay_inputs::capture(seed);
        let host = c.dc.app("b-dst");
        let enclave = host.lock().enclave().clone();
        prop_assert!(enclave.ecall(lib_ops::ME_CT, &arbitrary).is_err());
        let mutated = bulk_decoders::mutate(&c.forward, kind, pos, xor, &junk);
        if enclave.ecall(lib_ops::ME_CT, &mutated).is_ok() {
            let (bulk, _) = open_envelope(&enclave.ecall(lib_ops::BULK_STATE, &[]).unwrap()).unwrap();
            let mut r = WireReader::new(&bulk);
            prop_assert_eq!(r.u8().unwrap(), 1);
            let staged = r.bytes_vec().unwrap();
            prop_assert!(enclave.ecall(mig_apps::kvstore::ops::LOAD, &staged).is_err());
        }
    }

    /// `verify_root` refuses every mutated or arbitrary container against
    /// the genuine root, and arbitrary bytes against their own claimed
    /// root, without panicking, on any number of hash lanes; the genuine
    /// container passes.
    #[test]
    fn verify_root_is_total(
        seed in 0u64..4,
        lanes in 1u32..5,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use mig_core::library::bulk::{verify_relayed, verify_root};
        let f = bulk_decoders::fixture(seed);
        let root = common::root_of(&f.container);
        prop_assert!(verify_root(&f.container, &root, lanes).is_ok());
        let mutated = bulk_decoders::mutate(&f.container, kind, pos, xor, &junk);
        prop_assert!(verify_root(&mutated, &root, lanes).is_err());
        prop_assert!(verify_root(&arbitrary, &root, lanes).is_err());
        prop_assert!(verify_relayed(&arbitrary, None, lanes).is_err() || arbitrary.is_empty());
        if let Ok(layout) = mig_core::library::bulk::Layout::parse(&arbitrary) {
            let claimed = mig_crypto::sha256::sha256(&arbitrary[layout.index]);
            let _ = verify_root(&arbitrary, &claimed, lanes);
        }
    }
}

/// Genuine `TRANSFER` / `TRANSFER_BATCH` inputs captured in flight.
mod transfer_inputs {
    use cloud_sim::machine::MachineLabels;
    use cloud_sim::network::{Envelope, TapAction};
    use mig_apps::kvstore::{self, ops as kv, KvStore};
    use mig_core::datacenter::Datacenter;
    use mig_core::host::tags;
    use mig_core::library::InitRequest;
    use mig_core::policy::MigrationPolicy;
    use mig_core::transfer::TransferConfig;
    use parking_lot::Mutex;
    use sgx_sim::machine::MachineId;
    use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
    use sgx_sim::wire::{WireReader, WireWriter};
    use std::sync::Arc;

    /// A datacenter whose destination ME still expects `frame` — the
    /// second stream frame (or batch container) of a migration, captured
    /// and dropped on its way — as its next input from `source`.
    pub struct Captured {
        pub dc: Datacenter,
        pub source: MachineId,
        pub destination: MachineId,
        pub frame: Vec<u8>,
    }

    impl Captured {
        /// The ECALL input carrying `frame` from the source.
        pub fn input(&self, frame: &[u8]) -> Vec<u8> {
            let mut w = WireWriter::new();
            w.u64(self.source.0).bytes(frame);
            w.finish()
        }
    }

    pub fn capture(seed: u64, batch: u32) -> Captured {
        let config = TransferConfig {
            stream_threshold: 4096,
            chunk_size: 4096,
            window: 8,
            max_window: 8,
            batch_size: batch,
            ..TransferConfig::default()
        };
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
        let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
        let image = EnclaveImage::build("prop-xfer", 1, b"kv", &EnclaveSigner::from_seed([34; 32]));
        dc.deploy_app("a", m1, &image, KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app("a", kv::INIT, &[]).unwrap();
        dc.call_app("a", kv::BULK_PUT, &kvstore::encode_bulk_put(24, 900, 5))
            .unwrap();
        dc.deploy_app("a-dst", m2, &image, KvStore::new(), InitRequest::Migrate)
            .unwrap();
        let tag = if batch > 1 {
            tags::RA_TRANSFER_BATCH
        } else {
            tags::RA_TRANSFER
        };
        let slot: Arc<Mutex<(usize, Vec<u8>)>> = Arc::default();
        let tap = Arc::clone(&slot);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                let mut r = WireReader::new(&e.payload);
                if e.from.machine != m1 || e.to.machine != m2 || r.u8().ok() != Some(tag) {
                    return TapAction::Deliver;
                }
                let mut slot = tap.lock();
                slot.0 += 1;
                if slot.0 == 2 {
                    slot.1 = r.bytes_vec().unwrap();
                    return TapAction::Drop;
                }
                TapAction::Deliver
            }));
        let host = dc.app("a");
        host.lock()
            .migrate_to(dc.world_mut().network_mut(), m2)
            .unwrap();
        dc.run();
        let frame = std::mem::take(&mut slot.lock().1);
        assert!(!frame.is_empty(), "a stream frame captured");
        Captured {
            dc,
            source: m1,
            destination: m2,
            frame,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cell opener — `wire::split_cell` then
    /// `SecureChannel::open_cell` — refuses arbitrary bytes and every
    /// mutation of a genuine frame (a flipped byte anywhere, a truncation,
    /// appended junk) without panicking and without consuming the
    /// sequence number: the genuine frame still opens afterwards.
    #[test]
    fn cell_opener_is_total(
        header in proptest::collection::vec(any::<u8>(), 0..64),
        payload in proptest::collection::vec(any::<u8>(), 1..3000),
        cell in 0u32..4096,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use mig_core::me::wire::split_cell;
        use mig_core::secure_channel::{ChannelRole, SecureChannel};
        use mig_core::transfer::chunker::CellBody;

        let (mut tx, mut rx) = (
            SecureChannel::new([6; 16], ChannelRole::Initiator),
            SecureChannel::new([6; 16], ChannelRole::Responder),
        );
        let stream = ChunkStream::new([1; 16], 4096, payload);
        let body = CellBody::chunk(&stream, 0, cell);
        let mut frame = tx.seal_cell(&header, body);
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let mut open = |bytes: &[u8]| -> bool {
            split_cell(bytes)
                .ok()
                .is_some_and(|(sealed, body)| rx.open_cell(sealed, body).is_ok())
        };
        prop_assert!(!open(&arbitrary));
        prop_assert!(!open(&bulk_decoders::mutate(&frame, kind, pos, xor, &junk)));
        prop_assert!(open(&frame), "the genuine frame is still next in order");
    }

    /// The destination ME's `TRANSFER` and `TRANSFER_BATCH` inputs refuse
    /// arbitrary bytes and every mutation of a genuine in-flight frame
    /// without panicking. A per-frame input is refused outright (the
    /// ECALL fails); a container is refused, or reports a rejected cell,
    /// unless the mutation only touched its unauthenticated trailing pad
    /// — its cells are then the genuine ones. An input the ECALL fails on
    /// changes nothing: the genuine frame is accepted afterwards.
    #[test]
    fn transfer_ecall_inputs_are_total(
        seed in 0u64..3,
        kind in any::<u8>(),
        pos in any::<usize>(),
        xor in 1u8..=255,
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        arbitrary in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use mig_core::me::ops as me_ops;
        use mig_core::me::wire::unpack_batch;

        for batched in [false, true] {
            let c = transfer_inputs::capture(seed, if batched { 4 } else { 1 });
            let op = if batched { me_ops::TRANSFER_BATCH } else { me_ops::TRANSFER };
            let me = c.dc.me_host(c.destination);
            let ecall = |input: &[u8]| me.lock().enclave().ecall(op, input);
            // Refused: the ECALL failed, or a container's status byte
            // reports a rejected cell.
            let refused = |out: &Result<Vec<u8>, SgxError>| match out {
                Err(_) => true,
                Ok(out) => batched && out.last() != Some(&0),
            };
            prop_assert!(refused(&ecall(&arbitrary)));
            prop_assert!(refused(&ecall(&c.input(&arbitrary))));
            let mutated = bulk_decoders::mutate(&c.frame, kind, pos, xor, &junk);
            match ecall(&c.input(&mutated)) {
                Err(_) => {
                    let out = ecall(&c.input(&c.frame));
                    prop_assert!(!refused(&out), "the genuine frame is still next: {:?}", out.err());
                }
                out @ Ok(_) if !refused(&out) => {
                    prop_assert!(batched, "a mutated frame passed cell open");
                    // An accepted container carries the genuine cells.
                    prop_assert_eq!(unpack_batch(&mutated).unwrap(), unpack_batch(&c.frame).unwrap());
                }
                // A container whose cell k was refused keeps the cells
                // before it, exactly as the per-cell path would have.
                Ok(_) => prop_assert!(batched),
            }
        }
    }
}
