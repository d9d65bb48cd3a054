//! The machine-speed reference the gated timings are adjusted by.
//!
//! On a shared host the same code runs up to 40 % slower for seconds
//! to minutes at a time, as other tenants load the core's vector units,
//! caches and memory. A fixed kernel owned by the benchmark slows with
//! it: plain XOR/AND/shift/rotate over two 32 KiB arrays, which the
//! compiler packs into the same wide integer vector ops as the program's
//! bitsliced AES. It calls nothing in the program, so a change to the
//! program cannot move it.
//!
//! Every timed stretch (a set-up, a PUT, a migration, a `LOAD`) runs
//! inside a `Window`: the kernel is timed right before and
//! right after it, and, while frames flow, by a network tap at most
//! every `TAP_INTERVAL`. The adjustment uses the time-weighted mean of
//! those samples. Over five 45-second kv-put runs on a 2-vCPU x86-64
//! sandbox the PUT median ranged 117–148 ms as measured and 109–114 ms
//! adjusted. One window is open at a time.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A typical kernel time, µs, on that sandbox (it ranged about 60–100
/// µs). An adjusted timing is the measured one scaled by this over the
/// kernel time of the moment, so there the two are of the same size.
pub const NOMINAL_US: f64 = 72.0;

/// Passes per sample; a sample is their median, so one interrupted
/// pass does not move it.
const PASSES: usize = 3;

const WORDS: usize = 4096;

struct Kernel {
    a: Vec<u64>,
    b: Vec<u64>,
}

thread_local! {
    static KERNEL: std::cell::RefCell<Kernel> = std::cell::RefCell::new(Kernel {
        a: (0..WORDS as u64).collect(),
        b: (0..WORDS as u64).map(|x| x.wrapping_mul(7)).collect(),
    });
}

/// One pass of the kernel, µs.
#[inline(never)]
fn pass(k: &mut Kernel) -> f64 {
    let t = Instant::now();
    for _ in 0..64 {
        for (x, y) in k.a.iter_mut().zip(black_box(&k.b)) {
            *x = (*x ^ *y) & (x.rotate_left(1) | *y) ^ (*x >> 3);
        }
        black_box(&mut k.a);
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// The kernel's time now, µs: the median of a few passes.
fn sample() -> f64 {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        let mut t: [f64; PASSES] = std::array::from_fn(|_| pass(&mut k));
        t.sort_by(f64::total_cmp);
        t[PASSES / 2]
    })
}

/// Least time between two samples the tap takes.
const TAP_INTERVAL: Duration = Duration::from_millis(100);

/// Samples the tap took while armed, and the time they cost.
struct TapState {
    armed: bool,
    last: Option<Instant>,
    samples: Vec<(Instant, f64)>,
    spent: Duration,
}

static TAP: Mutex<TapState> = Mutex::new(TapState {
    armed: false,
    last: None,
    samples: Vec::new(),
    spent: Duration::ZERO,
});

fn tap_state() -> std::sync::MutexGuard<'static, TapState> {
    TAP.lock().unwrap_or_else(|e| e.into_inner())
}

/// Called by the network tap on every delivered frame: samples the
/// kernel if a window is open and `TAP_INTERVAL` has passed.
pub fn on_frame() {
    let mut tap = tap_state();
    let due = tap.last.is_none_or(|l| l.elapsed() >= TAP_INTERVAL);
    if !tap.armed || !due {
        return;
    }
    let start = Instant::now();
    let value = sample();
    tap.samples.push((start, value));
    tap.last = Some(Instant::now());
    tap.spent += start.elapsed();
}

/// Speed samples over one timed stretch: one before it, the tap's
/// during it, one after it. Dropping it disarms the tap.
pub struct Window {
    before: f64,
}

impl Window {
    /// Samples the kernel and arms the tap; start the clock right after.
    pub fn open() -> Window {
        let before = sample();
        let mut tap = tap_state();
        tap.armed = true;
        tap.last = Some(Instant::now());
        tap.samples.clear();
        tap.spent = Duration::ZERO;
        Window { before }
    }

    /// Closes the window right after the stretch that ran from `start`
    /// to `end`. Returns its wall time without the samples taken inside
    /// it, and the factor that adjusts timings in it to the nominal
    /// speed: the kernel time interpolated linearly between samples and
    /// averaged over the stretch.
    pub fn close(self, start: Instant, end: Instant) -> (Duration, f64) {
        let (inside, spent) = {
            let mut tap = tap_state();
            tap.armed = false;
            (std::mem::take(&mut tap.samples), tap.spent)
        };
        let after = sample();
        let mut points = vec![(start, self.before)];
        points.extend(inside.into_iter().filter(|p| p.0 < end));
        points.push((end, after));
        let area: f64 = points
            .windows(2)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64() * (w[0].1 + w[1].1) / 2.0)
            .sum();
        let span = (end - start).as_secs_f64();
        let mean = if span > 0.0 {
            area / span
        } else {
            (self.before + after) / 2.0
        };
        ((end - start).saturating_sub(spent), NOMINAL_US / mean)
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        tap_state().armed = false;
    }
}
