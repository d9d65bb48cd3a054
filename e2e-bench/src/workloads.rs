//! The four workloads. Each is one closed-loop client in one process,
//! driving the public `Datacenter` and `mig_apps::kvstore` API on the
//! default configuration (`Datacenter::new` + `add_machine`: default
//! `TransferConfig`, zero-latency firmware).

use crate::probe::{self, call_view, migration_view, Probe, SpanLog, Timed, LEGS};
use crate::speed;
use crate::stats::{Rng, Samples, Timings};
use sgx_migrate::apps::kvstore::{self, ops, KvStore};
use sgx_migrate::cloud::machine::MachineLabels;
use sgx_migrate::cloud::network::{Envelope, TapAction};
use sgx_migrate::core::datacenter::Datacenter;
use sgx_migrate::core::host::AppStatus;
use sgx_migrate::core::library::InitRequest;
use sgx_migrate::core::policy::MigrationPolicy;
use sgx_migrate::sgx::machine::MachineId;
use sgx_migrate::sgx::measurement::{EnclaveImage, EnclaveSigner};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// How one workload run is driven.
pub struct Config {
    pub seed: u64,
    /// Operations start until this instant; the last may end after it.
    pub until: Instant,
    /// At most this many operations run.
    pub max_ops: usize,
    /// Attach the probe: taps, disk hooks and the handler wrapper.
    pub traced: bool,
}

/// Deterministic counts of one operation.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Set-up times, s.
    pub setup: Timings,
    /// The workload's measured operation, ms.
    pub op: Timings,
    /// The workload's secondary operation, ms.
    pub aux: Timings,
    /// Bytes of the state the operation works on (the staged container).
    pub state_bytes: u64,
    /// Per-layer samples of the traced run, by metric name.
    pub layer: BTreeMap<&'static str, Samples>,
    /// Deterministic counts per operation (traced run).
    pub counts: Vec<Counts>,
    pub spans: SpanLog,
    /// The last staged container (traced run): the input of the
    /// kernel-rate probe.
    pub state: Vec<u8>,
}

impl Run {
    fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.entry(name).or_default().push(value);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Counts one attempted operation, failed unless `result` is `Ok`.
    fn settle(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }
}

/// Two provisioned machines with the default transfer configuration.
fn datacenter(seed: u64) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(|_: &Envelope| {
            speed::on_frame();
            TapAction::Deliver
        }));
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let m2 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    (dc, m1, m2)
}

fn image(name: &str) -> EnclaveImage {
    EnclaveImage::build(
        name,
        1,
        b"benchmark kvstore enclave",
        &EnclaveSigner::from_seed([0xE2; 32]),
    )
}

fn deploy(
    dc: &mut Datacenter,
    instance: &str,
    machine: MachineId,
    image: &EnclaveImage,
    init: InitRequest,
    probe: Option<&Probe>,
) -> Result<(), String> {
    let deployed = match probe {
        Some(probe) => {
            let app = Timed {
                inner: KvStore::new(),
                probe: probe.clone(),
            };
            dc.deploy_app(instance, machine, image, app, init)
        }
        None => dc.deploy_app(instance, machine, image, KvStore::new(), init),
    };
    deployed
        .map(|_| ())
        .map_err(|e| format!("deploy {instance}: {e}"))
}

fn call(dc: &mut Datacenter, instance: &str, opcode: u32, input: &[u8]) -> Result<Vec<u8>, String> {
    dc.call_app(instance, opcode, input)
        .map_err(|e| format!("{instance} opcode {opcode}: {e}"))
}

fn version(dc: &mut Datacenter, instance: &str) -> Result<u32, String> {
    let out = call(dc, instance, ops::VERSION, &[])?;
    Ok(u32::from_le_bytes(
        out.try_into().map_err(|_| "malformed VERSION")?,
    ))
}

fn staged(dc: &mut Datacenter, instance: &str) -> Result<Vec<u8>, String> {
    dc.app_bulk_state(instance)
        .map_err(|e| format!("bulk state of {instance}: {e}"))?
        .ok_or_else(|| format!("{instance} has no staged state"))
}

fn bulk_put(
    dc: &mut Datacenter,
    instance: &str,
    count: u32,
    len: u32,
    fill: u8,
) -> Result<u32, String> {
    let out = call(
        dc,
        instance,
        ops::BULK_PUT,
        &kvstore::encode_bulk_put(count, len, fill),
    )?;
    kvstore::decode_bulk_put_response(&out)
        .map(|(v, _)| v)
        .map_err(|e| format!("BULK_PUT response: {e}"))
}

/// Stops an instance and removes its state from its machine's disk, so
/// thousands of migrations in one datacenter do not pile up state the
/// benchmark no longer needs.
fn forget(dc: &mut Datacenter, instance: &str, machine: MachineId) {
    dc.stop_app(instance);
    let disk = dc.world().machine(machine).disk.clone();
    let key = probe::state_key(instance);
    for k in disk.keys() {
        if k == key || k.starts_with(&format!("{key}/")) {
            disk.delete(&k);
        }
    }
}

fn bulk_key(i: u32) -> Vec<u8> {
    format!("bulk-{i:08}").into_bytes()
}

/// The value `BULK_PUT(count, len, fill)` stores under key `i`.
fn bulk_value(i: u32, len: u32, fill: u8) -> Vec<u8> {
    (0..len as usize)
        .map(|j| fill.wrapping_add((i as usize + j) as u8))
        .collect()
}

/// The expected contents of a bulk-loaded store: key `i` holds the
/// value of the most recent `BULK_PUT` that covered it, or a PUT value.
#[derive(Clone)]
struct Model {
    /// `(count, len, fill)` of each `BULK_PUT`, oldest first.
    bulk: Vec<(u32, u32, u8)>,
    put: BTreeMap<u32, Vec<u8>>,
}

impl Model {
    fn new(count: u32, len: u32, fill: u8) -> Self {
        Model {
            bulk: vec![(count, len, fill)],
            put: BTreeMap::new(),
        }
    }

    fn bulk_put(&mut self, count: u32, len: u32, fill: u8) {
        self.bulk.push((count, len, fill));
        self.put.retain(|&k, _| k >= count);
    }

    fn keys(&self) -> u32 {
        self.bulk.iter().map(|b| b.0).max().unwrap_or(0)
    }

    fn value(&self, i: u32) -> Vec<u8> {
        if let Some(v) = self.put.get(&i) {
            return v.clone();
        }
        let &(_, len, fill) = self
            .bulk
            .iter()
            .rev()
            .find(|b| i < b.0)
            .expect("key inside the bulk-loaded range");
        bulk_value(i, len, fill)
    }
}

/// GETs key `i` and checks the value against `model`. Returns when the
/// call started and ended; building the key and the expected value
/// stays outside that interval.
fn checked_get(
    dc: &mut Datacenter,
    instance: &str,
    model: &Model,
    i: u32,
) -> Result<(Instant, Instant), String> {
    let key = bulk_key(i);
    let start = Instant::now();
    let got = call(dc, instance, ops::GET, &key);
    let end = Instant::now();
    if got? == model.value(i) {
        Ok((start, end))
    } else {
        Err(format!(
            "{instance}: GET key {i} returned a stale or wrong value"
        ))
    }
}

fn ecalls(dc: &Datacenter, machines: &[MachineId]) -> u64 {
    machines
        .iter()
        .map(|&m| dc.world().machine(m).sgx.ecall_count())
        .sum()
}

/// ECALLs plus OCALLs attributed to migration traces, fleet-wide.
fn trace_transitions(dc: &mut Datacenter) -> Result<u64, String> {
    let telemetry = dc
        .fleet_telemetry()
        .map_err(|e| format!("telemetry: {e}"))?;
    Ok(telemetry
        .transitions
        .by_trace
        .values()
        .map(|c| c.ecalls + c.ocalls)
        .sum())
}

/// Whether the run may start operation `done` (the first always runs).
fn may_continue(cfg: &Config, done: usize) -> bool {
    done == 0 || (done < cfg.max_ops && Instant::now() < cfg.until)
}

/// The two ends of one migration and its operation id.
struct Migration<'a> {
    src: &'a str,
    dst: &'a str,
    src_machine: MachineId,
    dst_machine: MachineId,
    op: u64,
}

/// What the checks a migration ends with timed.
struct Checked {
    /// `LOAD` at the destination.
    load: Duration,
    /// Adjusts it to the reference speed.
    factor: f64,
}

/// Runs one migration, `src` → `dst`, with every correctness check: the
/// destination's staged container is byte-identical to the source's,
/// the source ends `Migrated` and the destination `Ready`, `LOAD`
/// succeeds at the destination, `VERSION` equals the source counter and
/// the sample GETs match `model`.
fn migrate_checked(
    run: &mut Run,
    dc: &mut Datacenter,
    m: &Migration<'_>,
    probe: Option<&Probe>,
    model: &Model,
    samples: &[u32],
) -> Result<Checked, String> {
    let before = staged(dc, m.src)?;
    let src_version = version(dc, m.src)?;
    let machines = [m.src_machine, m.dst_machine];
    let (transitions_before, ecalls_before) = match probe {
        Some(p) => {
            let t = trace_transitions(dc)?;
            p.take();
            (t, ecalls(dc, &machines))
        }
        None => (0, 0),
    };

    let window = speed::Window::open();
    let t0 = Instant::now();
    let migrated = dc.migrate_app(m.src, m.dst);
    let t_end = Instant::now();
    let (wall, factor) = window.close(t0, t_end);
    migrated.map_err(|e| format!("migrate {} -> {}: {e}", m.src, m.dst))?;
    run.op.push_ms(wall, factor);
    run.state_bytes = before.len() as u64;

    if let Some(p) = probe {
        let events = p.take();
        let ecalls_after = ecalls(dc, &machines);
        let transitions = trace_transitions(dc)? - transitions_before;
        let release = dc.me_host(m.dst_machine).lock().release_latency();
        let (src_ep, dst_ep) = (
            dc.app(m.src).lock().endpoint(),
            dc.app(m.dst).lock().endpoint(),
        );
        let view = migration_view(&events, (t0, t_end), (&src_ep, &dst_ep))?;
        let wall = (t_end - t0).as_secs_f64();
        let legs: f64 = (0..LEGS.len()).map(|i| view.leg(i).as_secs_f64()).sum();
        // The legs must partition the call; stamps inside it that went
        // missing or out of order fail `migration_view` first.
        if (legs - wall).abs() > wall * 1e-3 {
            return Err(format!("legs sum to {legs:.6} s of {wall:.6} s"));
        }
        let ids = run.spans.add_partition(
            "datacenter.migrate_app",
            m.op,
            &LEGS.map(|l| l.0),
            &view.stamps,
        );
        for (i, (_, metric)) in LEGS.iter().enumerate() {
            run.layer(metric, view.leg(i).as_secs_f64() * 1e3);
        }
        let release = release.unwrap_or_default();
        run.layer("me.release_ms", release.as_secs_f64() * 1e3);
        // The release is the final transfer ECALL, which produced the
        // ME_FORWARD that closed the stream leg.
        let stream_end = view.stamps[5];
        run.spans.add(
            "me.release",
            m.op,
            Some(ids[4]),
            (stream_end - release.min(view.leg(4)), stream_end),
        );

        let state = before.len() as f64;
        let wire = view.lib_me_bytes + view.me_me_bytes + view.me_lib_bytes;
        run.layer("wire.lib_me_bytes", view.lib_me_bytes as f64);
        run.layer("wire.me_me_bytes", view.me_me_bytes as f64);
        run.layer("wire.me_lib_bytes", view.me_lib_bytes as f64);
        run.layer("wire.me_me_frames", view.me_me_frames as f64);
        run.layer("disk.bytes", view.disk_bytes as f64);
        run.layer("amp.wire_per_state_byte", wire as f64 / state);
        run.layer("amp.disk_per_state_byte", view.disk_bytes as f64 / state);
        run.layer("transfer.delta_fraction", view.me_me_bytes as f64 / state);
        run.layer("sgx.ecalls", (ecalls_after - ecalls_before) as f64);
        run.layer("trace.transitions", transitions as f64);
        run.counts.push(Counts::from([
            ("wire.lib_me_bytes", view.lib_me_bytes),
            ("wire.me_me_bytes", view.me_me_bytes),
            ("wire.me_lib_bytes", view.me_lib_bytes),
            ("wire.me_me_frames", view.me_me_frames),
            ("disk.bytes", view.disk_bytes),
            ("sgx.ecalls", ecalls_after - ecalls_before),
            ("trace.transitions", transitions),
        ]));
    }

    let (src_status, dst_status) = (dc.app(m.src).lock().status(), dc.app(m.dst).lock().status());
    if src_status != AppStatus::Migrated || dst_status != AppStatus::Ready {
        return Err(format!(
            "after migration: source {src_status:?}, destination {dst_status:?}"
        ));
    }
    let after = staged(dc, m.dst)?;
    if after != before {
        return Err(format!(
            "{}: staged container differs from the source's",
            m.dst
        ));
    }
    let window = speed::Window::open();
    let t = Instant::now();
    let loaded = call(dc, m.dst, ops::LOAD, &after);
    let (load, factor) = window.close(t, Instant::now());
    loaded?;
    if let Some(p) = probe {
        let events = p.take();
        if let Some(v) = call_view(&events, ops::LOAD) {
            run.layer(
                "apps.kvstore.load_ms",
                (v.handler_end - v.handler_start).as_secs_f64() * 1e3,
            );
            let root = run.spans.add("datacenter.load", m.op, None, (t, t + load));
            run.spans.add(
                "apps.kvstore.load",
                m.op,
                Some(root),
                (v.handler_start, v.handler_end),
            );
        }
    }
    if version(dc, m.dst)? != src_version {
        return Err(format!(
            "{}: VERSION differs from the source counter",
            m.dst
        ));
    }
    for &i in samples {
        checked_get(dc, m.dst, model, i)?;
    }
    if probe.is_some() {
        run.state = after;
    }
    Ok(Checked { load, factor })
}

/// Runs `setup` `reps` times from the same seed, recording each time,
/// and keeps the last world.
fn repeated_setup<T>(
    run: &mut Run,
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut world = None;
    for _ in 0..reps {
        drop(world.take()); // free the previous world before building the next
        let window = speed::Window::open();
        let t = Instant::now();
        let built = setup();
        let (took, factor) = window.close(t, Instant::now());
        world = Some(built?);
        run.setup.push(took.as_secs_f64(), factor);
    }
    world.ok_or_else(|| "no set-up".to_string())
}

/// Set-ups per run; the reported set-up time is their median.
const SETUP_REPS: usize = 5;
/// `migrate-small` sets up in milliseconds, so it repeats more often,
/// which spreads its set-ups over a longer stretch of the machine's
/// fast and slow phases.
const SMALL_SETUP_REPS: usize = 9;

// ---------------------------------------------------------------------
// kv-put
// ---------------------------------------------------------------------

/// Cold keys: 1,024 values of 4 KiB, the 4 MiB the store holds.
const KV_COLD: u32 = 1024;
/// Hot keys: 64 values of 64 bytes, the keys the PUTs overwrite, so the
/// store size stays constant.
const KV_HOT: u32 = 64;
const KV_COLD_LEN: u32 = 4096;
const KV_HOT_LEN: u32 = 64;
const GETS_PER_PUT: usize = 4;
/// How many recent PUT keys the "recent" GETs draw from.
const RECENT: usize = 8;

/// A seeded stream of 64-byte PUTs to a 4 MiB store, each followed by
/// four GETs, half of them on recently PUT keys.
pub fn kv_put(cfg: &Config) -> Run {
    let mut run = Run::default();
    if let Err(e) = kv_put_inner(cfg, &mut run) {
        run.settle(Err(e));
    }
    run
}

fn kv_put_inner(cfg: &Config, run: &mut Run) -> Result<(), String> {
    let kv = "kv";
    let (mut dc, m1, probe, mut model, mut ver) = repeated_setup(run, SETUP_REPS, || {
        let mut rng = Rng::new(cfg.seed ^ 0x5E7);
        let (mut dc, m1, m2) = datacenter(cfg.seed);
        let probe = cfg.traced.then(|| Probe::attach(&mut dc, &[m1, m2]));
        deploy(
            &mut dc,
            kv,
            m1,
            &image("e2e.kv-put"),
            InitRequest::New,
            probe.as_ref(),
        )?;
        call(&mut dc, kv, ops::INIT, &[])?;
        let (cold_fill, hot_fill) = (rng.next_u64() as u8, rng.next_u64() as u8);
        bulk_put(&mut dc, kv, KV_HOT + KV_COLD, KV_COLD_LEN, cold_fill)?;
        let ver = bulk_put(&mut dc, kv, KV_HOT, KV_HOT_LEN, hot_fill)?;
        let mut model = Model::new(KV_HOT + KV_COLD, KV_COLD_LEN, cold_fill);
        model.bulk_put(KV_HOT, KV_HOT_LEN, hot_fill);
        Ok((dc, m1, probe, model, ver))
    })?;
    if let Some(p) = &probe {
        run.state = staged(&mut dc, kv)?;
        p.take();
    }

    let mut rng = Rng::new(cfg.seed ^ 0x0B5);
    let mut recent: VecDeque<u32> = VecDeque::new();
    let mut done = 0;
    while may_continue(cfg, done) {
        let op = done as u64;
        let mut counts = Counts::new();
        let key = rng.below(u64::from(KV_HOT)) as u32;
        let value = rng.bytes(KV_HOT_LEN as usize);
        let request = kvstore::encode_put(&bulk_key(key), &value);
        let ecalls_before = probe.as_ref().map(|_| ecalls(&dc, &[m1]));
        let window = speed::Window::open();
        let t0 = Instant::now();
        let out = call(&mut dc, kv, ops::PUT, &request);
        let t1 = Instant::now();
        let (_, factor) = window.close(t0, t1);
        let put = out.and_then(|out| {
            let (v, _) =
                kvstore::decode_put_response(&out).map_err(|e| format!("PUT response: {e}"))?;
            if v != ver + 1 {
                return Err(format!("PUT version {v} after {ver}"));
            }
            ver = v;
            model.put.insert(key, value);
            Ok(())
        });
        if put.is_ok() {
            run.op.push_ms(t1 - t0, factor);
        }
        run.settle(put);
        if recent.len() == RECENT {
            recent.pop_front();
        }
        recent.push_back(key);
        if let (Some(p), Some(before)) = (&probe, ecalls_before) {
            let ecalls_put = ecalls(&dc, &[m1]) - before;
            let v = call_view(&p.take(), ops::PUT).ok_or("PUT left no handler stamp")?;
            let d1 = v.first_disk.ok_or("PUT wrote nothing to disk")?;
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            run.layer("apps.kvstore.put_ms", ms(v.handler_start, v.handler_end));
            run.layer("library.persist_ms", ms(v.handler_end, d1));
            run.layer("host.persist_ms", ms(d1, t1));
            run.layer("disk.bytes_per_put", v.disk_bytes as f64);
            run.layer("disk.write_amp", v.disk_bytes as f64 / request.len() as f64);
            run.layer("sgx.ecalls_per_op", ecalls_put as f64);
            run.spans.add_partition(
                "datacenter.put",
                op,
                &[
                    "sgx.entry",
                    "apps.kvstore.put",
                    "library.persist",
                    "host.persist",
                ],
                &[t0, v.handler_start, v.handler_end, d1, t1],
            );
            counts.insert("disk.bytes", v.disk_bytes);
            counts.insert("sgx.ecalls", ecalls_put);
        }

        for _ in 0..GETS_PER_PUT {
            let i = if rng.below(2) == 0 {
                recent[rng.below(recent.len() as u64) as usize]
            } else {
                rng.below(u64::from(model.keys())) as u32
            };
            let ecalls_before = probe.as_ref().map(|_| ecalls(&dc, &[m1]));
            let got = checked_get(&mut dc, kv, &model, i);
            let Ok((t0, t1)) = got else {
                run.settle(got.map(|_| ()));
                continue;
            };
            // The GETs follow their PUT closely and share its factor.
            run.aux.push_ms(t1 - t0, factor);
            run.settle(Ok(()));
            if let (Some(p), Some(before)) = (&probe, ecalls_before) {
                let ecalls_get = ecalls(&dc, &[m1]) - before;
                let v = call_view(&p.take(), ops::GET).ok_or("GET left no handler stamp")?;
                let us = |d: Duration| d.as_secs_f64() * 1e6;
                run.layer("apps.kvstore.get_us", us(v.handler_end - v.handler_start));
                run.layer(
                    "sgx.entry_us",
                    us((t1 - t0).saturating_sub(v.handler_end - v.handler_start)),
                );
                run.layer("sgx.ecalls_per_op", ecalls_get as f64);
                run.spans.add_partition(
                    "datacenter.get",
                    op,
                    &["sgx.entry", "apps.kvstore.get", "sgx.exit"],
                    &[t0, v.handler_start, v.handler_end, t1],
                );
                *counts.entry("disk.bytes").or_default() += v.disk_bytes;
                *counts.entry("sgx.ecalls").or_default() += ecalls_get;
            }
        }
        if probe.is_some() {
            run.counts.push(counts);
        }
        done += 1;
    }

    let final_ok = (|| {
        if version(&mut dc, kv)? != ver {
            return Err("VERSION differs from the last PUT".to_string());
        }
        let len = call(&mut dc, kv, ops::LEN, &[])?;
        if len != model.keys().to_le_bytes() {
            return Err("LEN changed under overwriting PUTs".to_string());
        }
        Ok(())
    })();
    run.settle(final_ok);
    Ok(())
}

// ---------------------------------------------------------------------
// migrate-64m
// ---------------------------------------------------------------------

/// 16,384 × 4 KiB = 64 MiB of values.
const BIG_ENTRIES: u32 = 16_384;
const BIG_LEN: u32 = 4096;
const SAMPLE_GETS: usize = 16;

/// Full migrations of a 64 MiB kvstore, each in a fresh datacenter with
/// a distinct enclave identity, so none takes the delta path.
pub fn migrate_64m(cfg: &Config) -> Run {
    let mut run = Run::default();
    let mut done = 0;
    while may_continue(cfg, done) {
        let result = migrate_64m_once(cfg, &mut run, done as u64);
        run.settle(result);
        done += 1;
    }
    run
}

fn migrate_64m_once(cfg: &Config, run: &mut Run, op: u64) -> Result<(), String> {
    let seed = cfg.seed.wrapping_mul(1_000_003).wrapping_add(op);
    let mut rng = Rng::new(seed);
    let window = speed::Window::open();
    let t = Instant::now();
    let (mut dc, m1, m2) = datacenter(seed);
    let probe = cfg.traced.then(|| Probe::attach(&mut dc, &[m1, m2]));
    let image = image(&format!("e2e.kv-64m.{op}"));
    deploy(&mut dc, "src", m1, &image, InitRequest::New, probe.as_ref())?;
    call(&mut dc, "src", ops::INIT, &[])?;
    let fill = rng.next_u64() as u8;
    bulk_put(&mut dc, "src", BIG_ENTRIES, BIG_LEN, fill)?;
    deploy(
        &mut dc,
        "dst",
        m2,
        &image,
        InitRequest::Migrate,
        probe.as_ref(),
    )?;
    let (took, factor) = window.close(t, Instant::now());
    run.setup.push(took.as_secs_f64(), factor);

    let model = Model::new(BIG_ENTRIES, BIG_LEN, fill);
    let samples: Vec<u32> = (0..SAMPLE_GETS)
        .map(|_| rng.below(u64::from(BIG_ENTRIES)) as u32)
        .collect();
    let m = Migration {
        src: "src",
        dst: "dst",
        src_machine: m1,
        dst_machine: m2,
        op,
    };
    // The secondary op is the `LOAD` that restores the store at the
    // destination. GETs there, a few µs each right after 64 MiB went
    // through the caches, spread by a fifth of their median between
    // runs, as measured and adjusted alike.
    let checked = migrate_checked(run, &mut dc, &m, probe.as_ref(), &model, &samples)?;
    run.aux.push_ms(checked.load, checked.factor);
    Ok(())
}

// ---------------------------------------------------------------------
// migrate-small
// ---------------------------------------------------------------------

/// 16 × 256 B: about 4 KiB, below the 64 KiB stream threshold.
const SMALL_ENTRIES: u32 = 16;
const SMALL_LEN: u32 = 256;

/// Sequential migrations of fresh ~4 KiB kvstores, each with a distinct
/// identity and a freshly deployed awaiting destination.
pub fn migrate_small(cfg: &Config) -> Run {
    let mut run = Run::default();
    if let Err(e) = migrate_small_inner(cfg, &mut run) {
        run.settle(Err(e));
    }
    run
}

fn migrate_small_inner(cfg: &Config, run: &mut Run) -> Result<(), String> {
    // Set-up includes one warm-up migration, which attests the ME↔ME
    // channel, so every measured migration runs over the same warm
    // channel.
    let (mut dc, m1, m2, probe) = repeated_setup(run, SMALL_SETUP_REPS, || {
        let (mut dc, m1, m2) = datacenter(cfg.seed);
        let probe = cfg.traced.then(|| Probe::attach(&mut dc, &[m1, m2]));
        let image = image("e2e.kv-small.warm-up");
        deploy(
            &mut dc,
            "warm",
            m1,
            &image,
            InitRequest::New,
            probe.as_ref(),
        )?;
        call(&mut dc, "warm", ops::INIT, &[])?;
        bulk_put(&mut dc, "warm", SMALL_ENTRIES, SMALL_LEN, 0)?;
        deploy(
            &mut dc,
            "warmed",
            m2,
            &image,
            InitRequest::Migrate,
            probe.as_ref(),
        )?;
        dc.migrate_app("warm", "warmed")
            .map_err(|e| format!("warm-up migration: {e}"))?;
        forget(&mut dc, "warm", m1);
        forget(&mut dc, "warmed", m2);
        Ok((dc, m1, m2, probe))
    })?;
    let mut rng = Rng::new(cfg.seed ^ 0x5A11);
    let mut done = 0;
    while may_continue(cfg, done) {
        let op = done as u64;
        let image = image(&format!("e2e.kv-small.{op}"));
        let (src, dst) = (format!("s{op}"), format!("d{op}"));
        let fill = rng.next_u64() as u8;
        let samples: Vec<u32> = (0..4)
            .map(|_| rng.below(u64::from(SMALL_ENTRIES)) as u32)
            .collect();
        let result = (|| {
            let window = speed::Window::open();
            let t = Instant::now();
            let deployed = deploy(&mut dc, &src, m1, &image, InitRequest::New, probe.as_ref());
            let (took, deploy_factor) = window.close(t, Instant::now());
            deployed?;
            if let Some(p) = &probe {
                p.take();
                run.spans
                    .add("datacenter.deploy_app", op, None, (t, t + took));
            }
            call(&mut dc, &src, ops::INIT, &[])?;
            bulk_put(&mut dc, &src, SMALL_ENTRIES, SMALL_LEN, fill)?;
            deploy(
                &mut dc,
                &dst,
                m2,
                &image,
                InitRequest::Migrate,
                probe.as_ref(),
            )?;
            let m = Migration {
                src: &src,
                dst: &dst,
                src_machine: m1,
                dst_machine: m2,
                op,
            };
            let model = Model::new(SMALL_ENTRIES, SMALL_LEN, fill);
            migrate_checked(run, &mut dc, &m, probe.as_ref(), &model, &samples)?;
            run.aux.push_ms(took, deploy_factor);
            Ok(())
        })();
        run.settle(result);
        forget(&mut dc, &src, m1);
        forget(&mut dc, &dst, m2);
        done += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// migrate-repeat
// ---------------------------------------------------------------------

const REPEAT_ENTRIES: u32 = 1024;
const REPEAT_LEN: u32 = 4096;
/// Entries rewritten between hops: about 1 %.
const REPEAT_DIRTY: u32 = 10;

/// A 4 MiB kvstore that ping-pongs between two machines on one
/// identity; each holder runs `LOAD`, rewrites about 1 % of the entries
/// and hops on, so every hop after the first ships a dirty-page delta.
pub fn migrate_repeat(cfg: &Config) -> Run {
    let mut run = Run::default();
    if let Err(e) = migrate_repeat_inner(cfg, &mut run) {
        run.settle(Err(e));
    }
    run
}

fn migrate_repeat_inner(cfg: &Config, run: &mut Run) -> Result<(), String> {
    let image = image("e2e.kv-repeat");
    // Set-up ends after the first (full) hop has landed and loaded.
    let (mut dc, machines, probe, mut model) = repeated_setup(run, SETUP_REPS, || {
        let mut rng = Rng::new(cfg.seed ^ 0x4E9);
        let (mut dc, m1, m2) = datacenter(cfg.seed);
        let probe = cfg.traced.then(|| Probe::attach(&mut dc, &[m1, m2]));
        deploy(&mut dc, "h0", m1, &image, InitRequest::New, probe.as_ref())?;
        call(&mut dc, "h0", ops::INIT, &[])?;
        let fill = rng.next_u64() as u8;
        bulk_put(&mut dc, "h0", REPEAT_ENTRIES, REPEAT_LEN, fill)?;
        deploy(
            &mut dc,
            "h1",
            m2,
            &image,
            InitRequest::Migrate,
            probe.as_ref(),
        )?;
        dc.migrate_app("h0", "h1")
            .map_err(|e| format!("first hop: {e}"))?;
        let state = staged(&mut dc, "h1")?;
        call(&mut dc, "h1", ops::LOAD, &state)?;
        forget(&mut dc, "h0", m1);
        if let Some(p) = &probe {
            p.take();
        }
        Ok((
            dc,
            [m1, m2],
            probe,
            Model::new(REPEAT_ENTRIES, REPEAT_LEN, fill),
        ))
    })?;

    let mut rng = Rng::new(cfg.seed ^ 0xD1);
    let mut fill = model.bulk[0].2;
    let mut done = 0;
    while may_continue(cfg, done) {
        let hop = done + 1;
        let (src, dst) = (format!("h{hop}"), format!("h{}", hop + 1));
        let (src_machine, dst_machine) = (machines[hop % 2], machines[(hop + 1) % 2]);
        fill = rng.fill_other_than(fill);
        let mut samples: Vec<u32> = (0..4)
            .map(|_| rng.below(u64::from(REPEAT_ENTRIES)) as u32)
            .collect();
        samples.push(rng.below(u64::from(REPEAT_DIRTY)) as u32);
        let result = (|| {
            bulk_put(&mut dc, &src, REPEAT_DIRTY, REPEAT_LEN, fill)?;
            model.bulk_put(REPEAT_DIRTY, REPEAT_LEN, fill);
            deploy(
                &mut dc,
                &dst,
                dst_machine,
                &image,
                InitRequest::Migrate,
                probe.as_ref(),
            )?;
            let m = Migration {
                src: &src,
                dst: &dst,
                src_machine,
                dst_machine,
                op: done as u64,
            };
            let checked = migrate_checked(run, &mut dc, &m, probe.as_ref(), &model, &samples)?;
            run.aux.push_ms(checked.load, checked.factor);
            Ok(())
        })();
        let ok = result.is_ok();
        run.settle(result);
        if !ok {
            break; // the chain of holders is broken
        }
        forget(&mut dc, &src, src_machine);
        done += 1;
    }
    Ok(())
}
