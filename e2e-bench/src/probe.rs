//! The traced run's instruments. All of them sit outside the program:
//! one network tap, a write hook on each machine's untrusted disk, and a
//! timing wrapper around the kvstore's `AppLogic`. They stamp events
//! with wall-clock instants; the benchmark turns the stamps into
//! per-layer legs and spans after each operation.

use sgx_migrate::cloud::disk::WriteFault;
use sgx_migrate::cloud::network::{Endpoint, Envelope, TapAction};
use sgx_migrate::core::datacenter::Datacenter;
use sgx_migrate::core::harness::{AppCtx, AppLogic};
use sgx_migrate::core::host::tags;
use sgx_migrate::sgx::machine::MachineId;
use sgx_migrate::sgx::SgxError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One stamped event.
pub enum Event {
    /// A network frame, stamped as it is delivered.
    Frame {
        at: Instant,
        from: Endpoint,
        to: Endpoint,
        tag: u8,
        len: u64,
    },
    /// A write through a machine's untrusted-disk hook.
    Disk {
        at: Instant,
        machine: MachineId,
        key: String,
        len: u64,
    },
    /// One kvstore handler call inside the enclave.
    Handler {
        start: Instant,
        end: Instant,
        opcode: u32,
    },
}

/// The shared event log the tap, the disk hooks and the wrapper write to.
#[derive(Clone, Default)]
pub struct Probe(Arc<Mutex<Vec<Event>>>);

impl Probe {
    /// Installs the tap and the disk hooks on `machines`.
    pub fn attach(dc: &mut Datacenter, machines: &[MachineId]) -> Probe {
        let probe = Probe::default();
        let tap = probe.clone();
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                tap.record(Event::Frame {
                    at: Instant::now(),
                    from: e.from.clone(),
                    to: e.to.clone(),
                    tag: e.payload.first().copied().unwrap_or(0),
                    len: e.payload.len() as u64,
                });
                TapAction::Deliver
            }));
        for &machine in machines {
            let hook = probe.clone();
            dc.world()
                .machine(machine)
                .disk
                .set_fault_hook(move |key, value| {
                    hook.record(Event::Disk {
                        at: Instant::now(),
                        machine,
                        key: key.to_string(),
                        len: value.len() as u64,
                    });
                    WriteFault::None
                });
        }
        probe
    }

    fn record(&self, event: Event) {
        self.0.lock().expect("probe log poisoned").push(event);
    }

    /// Drains the events recorded since the last call.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.0.lock().expect("probe log poisoned"))
    }
}

/// Times every handler call of the wrapped app.
pub struct Timed<A> {
    pub inner: A,
    pub probe: Probe,
}

impl<A: AppLogic> AppLogic for Timed<A> {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let start = Instant::now();
        let out = self.inner.handle(ctx, opcode, input);
        let end = Instant::now();
        self.probe.record(Event::Handler { start, end, opcode });
        out
    }

    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), SgxError> {
        self.inner.import_state(bytes)
    }
}

/// The legs of one `migrate_app` call, in order, as span names and as
/// the per-layer metrics of their durations. Consecutive stamps bound
/// them, so together they partition the call's wall time.
pub const LEGS: [(&str, &str); 8] = [
    ("library.freeze", "library.freeze_ms"),
    ("host.freeze_persist", "host.freeze_persist_ms"),
    ("me.accept", "me.accept_ms"),
    ("remote_attest.handshake", "remote_attest.handshake_ms"),
    ("me.stream", "me.stream_ms"),
    ("library.install", "library.install_ms"),
    ("host.install_persist", "host.install_persist_ms"),
    ("me.complete", "me.complete_ms"),
];

/// What the stamps of one migration show.
pub struct MigrationView {
    /// `migrate_app` entry, the seven stamps between the legs, return.
    pub stamps: [Instant; LEGS.len() + 1],
    pub lib_me_bytes: u64,
    pub me_me_bytes: u64,
    pub me_lib_bytes: u64,
    pub me_me_frames: u64,
    pub disk_bytes: u64,
}

impl MigrationView {
    pub fn leg(&self, i: usize) -> Duration {
        self.stamps[i + 1] - self.stamps[i]
    }
}

fn is_app(e: &Endpoint) -> bool {
    e.service.starts_with("app:")
}

fn is_me(e: &Endpoint) -> bool {
    e.service == sgx_migrate::core::host::ME_SERVICE
}

/// Whether `e` is a frame `want` accepts, given sender, receiver and tag.
fn is_frame(e: &Event, want: impl Fn(&Endpoint, &Endpoint, u8) -> bool) -> bool {
    match e {
        Event::Frame { from, to, tag, .. } => want(from, to, *tag),
        _ => false,
    }
}

/// Whether `e` is a write of `key` to `machine`'s disk.
fn is_write(e: &Event, machine: MachineId, key: &str) -> bool {
    matches!(e, Event::Disk { machine: m, key: k, .. } if *m == machine && k == key)
}

/// The disk key of an app instance's sealed library state.
pub fn state_key(instance: &str) -> String {
    format!("mig-state:{instance}")
}

/// Splits one `migrate_app` call, made between `t0` and `t_end`, into
/// its legs:
///
/// 1. `library.freeze` ends at the source's first state write (the
///    `MIG_START` ECALL returned its frozen blob);
/// 2. `host.freeze_persist` ends when the `LIB_MSG` reaches the ME;
/// 3. `me.accept` ends at the first ME↔ME frame;
/// 4. `remote_attest.handshake` ends at `RA_FINISH` when the first
///    ME↔ME frame was `RA_HELLO`, and is empty otherwise;
/// 5. `me.stream` ends when `ME_FORWARD` reaches the destination app;
/// 6. `library.install` ends at the destination's first state write;
/// 7. `host.install_persist` ends when the `DONE` frame reaches its ME;
/// 8. `me.complete` ends when `migrate_app` returns.
///
/// # Errors
///
/// A missing or out-of-order stamp.
pub fn migration_view(
    events: &[Event],
    (t0, t_end): (Instant, Instant),
    (src, dst): (&Endpoint, &Endpoint),
) -> Result<MigrationView, String> {
    let name = |e: &Endpoint| e.service.trim_start_matches("app:").to_string();
    let (src_key, dst_key) = (state_key(&name(src)), state_key(&name(dst)));
    let first = |after: Instant, what: &str, pred: &dyn Fn(&Event) -> bool| {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Frame { at, .. } | Event::Disk { at, .. } if *at >= after && pred(e) => {
                    Some(*at)
                }
                _ => None,
            })
            .min()
            .ok_or_else(|| format!("no {what} stamp"))
    };
    let me_me = |f: &Endpoint, t: &Endpoint| is_me(f) && is_me(t) && f.machine != t.machine;

    let s1 = first(t0, "source state write", &|e| {
        is_write(e, src.machine, &src_key)
    })?;
    let s2 = first(s1, "LIB_MSG", &|e| {
        is_frame(e, |f, t, tag| f == src && is_me(t) && tag == tags::LIB_MSG)
    })?;
    let s3 = first(s2, "ME-ME frame", &|e| is_frame(e, |f, t, _| me_me(f, t)))?;
    let opens_with_hello = events.iter().any(|e| {
        is_frame(e, |f, t, tag| me_me(f, t) && tag == tags::RA_HELLO)
            && matches!(e, Event::Frame { at, .. } if *at == s3)
    });
    let s4 = if opens_with_hello {
        first(s3, "RA_FINISH", &|e| {
            is_frame(e, |f, t, tag| me_me(f, t) && tag == tags::RA_FINISH)
        })?
    } else {
        s3
    };
    let s5 = first(s4, "ME_FORWARD", &|e| {
        is_frame(e, |f, t, tag| {
            is_me(f) && t == dst && tag == tags::ME_FORWARD
        })
    })?;
    let s6 = first(s5, "destination state write", &|e| {
        is_write(e, dst.machine, &dst_key)
    })?;
    let s7 = first(s6, "DONE", &|e| {
        is_frame(e, |f, t, tag| f == dst && is_me(t) && tag == tags::LIB_MSG)
    })?;
    let stamps = [t0, s1, s2, s3, s4, s5, s6, s7, t_end];
    if stamps.windows(2).any(|w| w[1] < w[0]) {
        return Err("migration stamps out of order".into());
    }

    let mut view = MigrationView {
        stamps,
        lib_me_bytes: 0,
        me_me_bytes: 0,
        me_lib_bytes: 0,
        me_me_frames: 0,
        disk_bytes: 0,
    };
    for e in events {
        match e {
            Event::Frame {
                at, from, to, len, ..
            } if (t0..=t_end).contains(at) => {
                if is_app(from) && is_me(to) {
                    view.lib_me_bytes += len;
                } else if is_me(from) && is_app(to) {
                    view.me_lib_bytes += len;
                } else if me_me(from, to) {
                    view.me_me_bytes += len;
                    view.me_me_frames += 1;
                }
            }
            Event::Disk { at, len, .. } if (t0..=t_end).contains(at) => view.disk_bytes += len,
            _ => {}
        }
    }
    Ok(view)
}

/// What the stamps of one app ECALL show.
pub struct CallView {
    pub handler_start: Instant,
    pub handler_end: Instant,
    /// The first disk write after the handler returned (a persisting
    /// call only).
    pub first_disk: Option<Instant>,
    pub disk_bytes: u64,
}

/// Finds the `opcode` handler call and the disk writes among `events`.
pub fn call_view(events: &[Event], opcode: u32) -> Option<CallView> {
    let (handler_start, handler_end) = events.iter().find_map(|e| match e {
        Event::Handler {
            start,
            end,
            opcode: op,
        } if *op == opcode => Some((*start, *end)),
        _ => None,
    })?;
    let mut first_disk = None;
    let mut disk_bytes = 0;
    for e in events {
        if let Event::Disk { at, len, .. } = e {
            disk_bytes += len;
            if *at >= handler_end && first_disk.is_none_or(|f| *at < f) {
                first_disk = Some(*at);
            }
        }
    }
    Some(CallView {
        handler_start,
        handler_end,
        first_disk,
        disk_bytes,
    })
}

/// One traced span.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans of the traced phase, kept in memory and written once at the
/// end of the run.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Records a span and returns its index (the parent handle of its
    /// children).
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Adds a root span and children that partition it at `cuts`:
    /// child `i` runs from `cuts[i]` to `cuts[i + 1]`. Returns the
    /// children's indices.
    pub fn add_partition(
        &mut self,
        root: &'static str,
        op: u64,
        children: &[&'static str],
        cuts: &[Instant],
    ) -> Vec<usize> {
        let first = cuts[0];
        let last = cuts[cuts.len() - 1];
        let root = self.add(root, op, None, (first, last));
        children
            .iter()
            .zip(cuts.windows(2))
            .map(|(name, w)| self.add(name, op, Some(root), (w[0], w[1])))
            .collect()
    }

    /// Self time per layer in ms: each span's duration minus the part
    /// its children cover, summed under the span name's first segment.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Instant, Instant)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        self.spans[c].start.max(s.start),
                        self.spans[c].end.min(s.end),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort();
            let mut busy = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    busy += b - a;
                    reach = b;
                }
            }
            let own = (s.end - s.start).saturating_sub(busy);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Writes the spans as a JSON array, times in µs from the run start.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_us\": {:.3}, \"end_us\": {:.3}}}{}\n",
                s.name,
                s.op,
                us(s.start),
                us(s.end),
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
