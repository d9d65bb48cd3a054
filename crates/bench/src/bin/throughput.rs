//! Sealed-state migration **throughput** microbench: wall-clock MB/s
//! from `migration_start` on the source to payload release on the
//! destination, at 64 MiB of kvstore state, comparing the hot-call
//! batched + pipelined transfer path against the legacy per-frame path.
//!
//! ```sh
//! cargo run -p mig-bench --release --bin throughput
//! THROUGHPUT_MIB=16 cargo run -p mig-bench --release --bin throughput
//! THROUGHPUT_BATCH=8 cargo run -p mig-bench --release --bin throughput
//! THROUGHPUT_ROUNDS=3 cargo run -p mig-bench --release --bin throughput
//! THROUGHPUT_DEBUG=1 cargo run -p mig-bench --release --bin throughput  # dump counters
//! THROUGHPUT_ASSERT=1 cargo run -p mig-bench --release --bin throughput  # CI smoke
//! ```
//!
//! Each arm runs `THROUGHPUT_ROUNDS` times (default 2) with the arms
//! interleaved — unbatched, batched, unbatched, batched — and the
//! fastest round per arm is reported. Interleaving matters: the two
//! arms do several seconds of identical crypto per round, and on a
//! shared machine a strictly sequential A-then-B order hands whichever
//! arm runs second a measurable frequency/cache handicap (a control
//! run with `THROUGHPUT_BATCH=1`, i.e. both arms doing literally the
//! same work, still measured the second arm ~4% slower). Best-of-N
//! over alternating rounds compares the arms' actual work instead of
//! their slot in the schedule.
//!
//! The batched arm ships `batch_size` sealed cells per `TRANSFER_BATCH`
//! ECALL, seals and opens cells on `seal_lanes` worker lanes and hashes
//! the container's segments on the same lanes at both root checks
//! (source on `LIB_MSG`, destination at release), so enclave
//! transitions per migration drop from ~2×chunks towards
//! ~2×⌈chunks/batch⌉ and the AES-GCM and SHA-256 cost (the wall-clock
//! bottleneck) is spread across cores. On a single core both arms do
//! the same crypto and only the transition count differs. Results land in `BENCH_throughput.json`
//! (override with `THROUGHPUT_JSON_PATH`). With `THROUGHPUT_ASSERT=1`
//! the run exits nonzero unless the batched arm's trace-attributed
//! ECALLs stay under 0.25 × chunks **and** the batched arm is at least
//! as fast as the unbatched arm end to end (`speedup >= 1.0`) — fewer
//! transitions must never be bought with a wall-clock regression.

use mig_bench::prepared_kv_datacenter;
use mig_core::transfer::TransferConfig;
use std::time::Instant;

/// One measured arm of the comparison.
struct Arm {
    label: &'static str,
    wall_s: f64,
    mb_per_s: f64,
    state_bytes: u64,
    chunks: u64,
    trace_ecalls: u64,
    batches_received: u64,
}

fn stream_config(batched: bool, chunk_size: u32) -> TransferConfig {
    TransferConfig {
        stream_threshold: 4096,
        chunk_size,
        window: 32,
        max_window: 32,
        batch_size: if batched {
            std::env::var("THROUGHPUT_BATCH")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(32)
        } else {
            1
        },
        seal_lanes: if batched { 4 } else { 1 },
        ..TransferConfig::default()
    }
}

fn run_arm(label: &'static str, seed: u64, entries: u32, batched: bool) -> Arm {
    const VALUE_LEN: u32 = 4096;
    const CHUNK_SIZE: u32 = 256 * 1024;
    let transfer = stream_config(batched, CHUNK_SIZE);
    let mut dc = prepared_kv_datacenter(seed, transfer, entries, VALUE_LEN);

    let wall_start = Instant::now();
    dc.migrate_app("src", "dst").expect("migrate");
    let wall_s = wall_start.elapsed().as_secs_f64();

    // The released payload's real size (kvstore state ≈ entries ×
    // value_len plus serialization overhead) is the byte count the
    // stream actually moved.
    let state_bytes = dc
        .app_bulk_state("dst")
        .expect("bulk state")
        .expect("migrated state present")
        .len() as u64;
    let chunks = state_bytes.div_ceil(u64::from(CHUNK_SIZE));

    let telemetry = dc.fleet_telemetry().expect("telemetry");
    // The migration's transition cost: ECALLs attributed to the unique
    // trace that carried Stream-phase spans, across both machines
    // (destination TRANSFER/TRANSFER_BATCH + source ACK ECALLs).
    let trace_ecalls = telemetry
        .trace_ids()
        .into_iter()
        .find(|t| {
            telemetry
                .spans_for(*t)
                .iter()
                .any(|(p, _, _)| *p == mig_trace::Phase::Stream)
        })
        .and_then(|t| telemetry.transitions.by_trace.get(&t).map(|c| c.ecalls))
        .unwrap_or(0);
    let batches_received = telemetry
        .counters
        .iter()
        .find(|(name, _)| name.as_str() == "me.batches_received")
        .map_or(0, |(_, v)| *v);
    if std::env::var("THROUGHPUT_DEBUG").is_ok() {
        for (name, v) in &telemetry.counters {
            eprintln!("  [{label}] {name} = {v}");
        }
    }

    Arm {
        label,
        wall_s,
        mb_per_s: state_bytes as f64 / (1024.0 * 1024.0) / wall_s,
        state_bytes,
        chunks,
        trace_ecalls,
        batches_received,
    }
}

fn arm_json(arm: &Arm) -> String {
    format!(
        concat!(
            "    {{\"label\": \"{}\", \"wall_s\": {:.3}, \"mb_per_s\": {:.2}, ",
            "\"state_bytes\": {}, \"chunks\": {}, \"trace_ecalls\": {}, ",
            "\"transitions_per_migration\": {}, \"batches_received\": {}}}"
        ),
        arm.label,
        arm.wall_s,
        arm.mb_per_s,
        arm.state_bytes,
        arm.chunks,
        arm.trace_ecalls,
        arm.trace_ecalls,
        arm.batches_received,
    )
}

fn main() {
    let mib: u32 = std::env::var("THROUGHPUT_MIB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    // 4 KiB values: entries × 4096 ≈ the requested state size.
    let entries = mib * 256;

    let rounds: u32 = std::env::var("THROUGHPUT_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1);

    println!("=== Sealed-state migration throughput ({mib} MiB kvstore, best of {rounds}) ===\n");
    let faster = |best: Option<Arm>, arm: Arm| match best {
        Some(b) if b.wall_s <= arm.wall_s => Some(b),
        _ => Some(arm),
    };
    let mut best_unbatched: Option<Arm> = None;
    let mut best_batched: Option<Arm> = None;
    for _ in 0..rounds {
        best_unbatched = faster(best_unbatched, run_arm("unbatched", 0x7A11, entries, false));
        best_batched = faster(best_batched, run_arm("batched", 0x7A11, entries, true));
    }
    let unbatched = best_unbatched.expect("rounds >= 1");
    let batched = best_batched.expect("rounds >= 1");

    for arm in [&unbatched, &batched] {
        println!(
            "{:<10} {:>8.2} MB/s  wall {:>6.2} s  chunks {:>4}  trace ECALLs {:>5}  batches {:>3}",
            arm.label, arm.mb_per_s, arm.wall_s, arm.chunks, arm.trace_ecalls, arm.batches_received,
        );
    }
    let speedup = batched.mb_per_s / unbatched.mb_per_s;
    println!("\nspeedup (batched / unbatched): {speedup:.2}x");
    println!(
        "transitions per migration: {} → {} (2×chunks would be {})",
        unbatched.trace_ecalls,
        batched.trace_ecalls,
        2 * batched.chunks
    );

    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"mib\": {},\n  \"speedup\": {:.3},\n  \"arms\": [\n{},\n{}\n  ]\n}}\n",
        mib,
        speedup,
        arm_json(&unbatched),
        arm_json(&batched),
    );
    let path = std::env::var("THROUGHPUT_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    if std::env::var("THROUGHPUT_ASSERT").is_ok() {
        // CI smoke bound: the batched path must collapse enclave
        // transitions well below the per-frame path's 2×chunks.
        let bound = 0.25 * batched.chunks as f64;
        assert!(
            (batched.trace_ecalls as f64) < bound,
            "batched trace ECALLs {} not under 0.25×chunks = {bound:.1}",
            batched.trace_ecalls
        );
        assert!(
            batched.batches_received > 0,
            "batched arm never took the TRANSFER_BATCH path"
        );
        // Wall-clock regression guard: saving transitions is worthless
        // if batching is slower end to end. This caught the pre-kernel
        // state of the world (speedup 0.967) and keeps the next crypto
        // or pipelining regression out of CI.
        assert!(
            speedup >= 1.0,
            "batched arm is wall-clock slower than unbatched: speedup {speedup:.3} < 1.0 \
             ({:.2} vs {:.2} MB/s)",
            batched.mb_per_s,
            unbatched.mb_per_s
        );
        println!(
            "assert ok: {} trace ECALLs < {bound:.1} (0.25 × {} chunks); speedup {speedup:.2}x >= 1.0",
            batched.trace_ecalls, batched.chunks
        );
    }
}
