//! The **wire layer** of the Migration Enclave: everything that decides
//! how session frames are shaped for one destination link.
//!
//! **One cell format.** Every [`MeToMe`] frame is one secure-channel
//! cell followed by a 4-byte trailer:
//!
//! ```text
//! ciphertext(header) ‖ tag ‖ body ‖ u32 LE body length
//! ```
//!
//! The header ([`MeToMe::header`]) is encrypted: the message tag,
//! transfer nonce, chunk index and lengths, or a whole announcement with
//! Table I. The body is public and only authenticated — a chunk's
//! payload, which is MSK-sealed container ciphertext (or packed pages of
//! it, for a delta), plus zero pad, or zero pad alone. Its type,
//! [`CellBody`], admits nothing else. Header and body go through one
//! AES-GCM call with AAD = `CHANNEL_AAD ‖ body`
//! ([`SecureChannel::seal_cell`]), so a flipped bit anywhere, a
//! body moved to another cell or stream, and a replayed or reordered
//! cell are refused at cell open, by the channel's per-cell sequence
//! numbers, before any byte reaches a stream. The trailer tells the
//! receiver where the body starts; GCM's length block covers both
//! lengths, so a trailer that moves the split also fails the tag. The
//! trailer takes the four bytes of the pad-length field a frame's
//! plaintext used to end with, so frame lengths are those of a
//! whole-frame seal.
//!
//! The simulated network delivers smaller ciphertexts earlier within a
//! step, so FIFO delivery of a multiplexed chunk stream is a *sizing*
//! property: every source→destination stream frame is padded to the
//! link's current **wire cell** ([`LinkShaper::bump_cell`]), oversized
//! lead frames grow the cell ([`cell_for_frame_len`]), and the small
//! destination→source control frames share one uniform
//! [`CTRL_FRAME_LEN`]. This module owns that policy in one place —
//! the frame-size arithmetic ([`chunk_frame_len`] / `lead_cell`), the
//! per-destination [`AdaptiveLink`] chunk/window controller, and the
//! [`DrrScheduler`] apportioning the shared link window among
//! concurrent streams — so the session layer ([`super::session`]) never
//! computes a pad byte itself.

use crate::error::MigError;
use crate::msgs::MeToMe;
use crate::secure_channel::SecureChannel;
use crate::transfer::chunker::{CellBody, ChunkStream};
use crate::transfer::{TransferConfig, MIN_CHUNK_SIZE};
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::WireReader;
#[cfg(test)]
use sgx_sim::wire::WireWriter;
use sgx_sim::SgxError;
use std::collections::HashMap;
use std::hash::Hash;

/// Uniform frame length (header, body and trailer — everything but the
/// tag) of the small destination→source control frames (`Delivered`,
/// `Stored`, `ChunkAck`, `Resume`, `DeltaNack`). With multiple streams
/// multiplexed on one channel these frames are sealed back to back;
/// equal lengths keep their ciphertexts FIFO on the size-ordered
/// network.
pub const CTRL_FRAME_LEN: usize = 64;

/// Length of the body-length trailer closing every frame.
pub const CELL_TRAILER_LEN: usize = 4;

/// Fixed overhead of a [`MeToMe::Chunk`] frame beside its tag and body:
/// the header [`MeToMe::chunk_header`] emits — tag(1), nonce(16),
/// idx(4), payload length(4) — and the trailer(4).
const CHUNK_FRAME_OVERHEAD: usize = 25 + CELL_TRAILER_LEN;

/// Frame length (everything but the tag) of a [`MeToMe::Chunk`] frame
/// whose body — payload plus padding — is `cell` bytes: the uniform
/// *wire cell* every stream frame towards one destination is padded to.
#[must_use]
pub fn chunk_frame_len(cell: u32) -> usize {
    cell as usize + CHUNK_FRAME_OVERHEAD
}

/// Inverse of [`chunk_frame_len`]: the smallest cell whose chunk frames
/// are at least `frame_len` bytes on the wire — what a link's cell must
/// grow to so an oversized lead frame (e.g. a `DeltaStart` naming many
/// pages) cannot be overtaken by the chunks sealed after it.
///
/// # Errors
///
/// [`MigError::Transfer`] when `frame_len` is below the fixed chunk
/// frame overhead: such a frame cannot be a well-formed stream frame,
/// and silently mapping it to a 0-byte cell would let a corrupt length
/// propagate into the link's framing state.
pub fn cell_for_frame_len(frame_len: usize) -> Result<u32, MigError> {
    let cell = frame_len
        .checked_sub(CHUNK_FRAME_OVERHEAD)
        .ok_or(MigError::Transfer("frame shorter than chunk overhead"))?;
    u32::try_from(cell).map_err(|_| MigError::Transfer("frame exceeds cell range"))
}

/// One frame ready to seal: its encrypted header and its public body.
pub(crate) type Cell<'a> = (Vec<u8>, CellBody<'a>);

/// Frame length of a cell: header, body and trailer.
fn frame_len((header, body): &Cell<'_>) -> usize {
    header.len() + body.len() + CELL_TRAILER_LEN
}

/// Chunk `idx` of `stream` as a cell, its body padded to the
/// destination's wire `cell`. The payload is borrowed from the stream's
/// shared buffer and written once, into the sealed frame.
///
/// Every stream frame towards one destination (announcements included)
/// is padded to the same cell so equal-length ciphertexts stay FIFO on
/// the size-ordered simulated network even when several streams'
/// frames interleave on the shared channel. Building cells apart from
/// sealing lets the session layer hand the whole send burst to
/// [`seal_frames`] / [`seal_batch`] and overlap the AEAD work across the
/// channel's seal lanes.
pub(crate) fn chunk_cell(stream: &ChunkStream, idx: u32, cell: u32) -> Cell<'_> {
    let body = CellBody::chunk(stream, idx, cell);
    let len = u32::try_from(body.payload_len()).unwrap_or(u32::MAX);
    (MeToMe::chunk_header(&stream.nonce(), idx, len), body)
}

/// A lead frame (`ChunkStart` / `DeltaStart` / re-announcement) as a
/// cell, its zero-pad body sized so the frame reaches the cell's
/// chunk-frame length. A lead already at or above that length gets no
/// pad (the cell grows to it instead, [`cell_for_frame_len`]).
pub(crate) fn lead_cell(msg: &MeToMe, cell: u32) -> Cell<'static> {
    let header = msg.header();
    let pad = chunk_frame_len(cell).saturating_sub(header.len() + CELL_TRAILER_LEN);
    (header, CellBody::zero_pad(pad))
}

/// Frame length of `msg`'s lead cell before any cell padding.
pub(crate) fn natural_frame_len(msg: &MeToMe) -> usize {
    frame_len(&lead_cell(msg, 0))
}

/// Any other message as a cell, with the pad it carries on its own
/// ([`MeToMe::body_pad`]).
fn msg_cell(msg: &MeToMe) -> Cell<'static> {
    let header = msg.header();
    let pad = msg.body_pad(header.len());
    (header, CellBody::zero_pad(pad))
}

/// Seals `msg` as one frame — the path of every single message on the
/// ME↔ME channel (single-shot transfers, resume requests and all
/// destination→source control frames).
pub(crate) fn seal_msg(channel: &mut SecureChannel, msg: &MeToMe) -> Vec<u8> {
    seal_frames(channel, &[msg_cell(msg)], 1)
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Writes the body-length trailer.
fn write_trailer(out: &mut [u8], body_len: usize) {
    // mig-lint: allow(enclave-panic, "bodies are bounded by the wire cell (a u32) or a control frame")
    out.copy_from_slice(&u32::try_from(body_len).expect("body < 4 GiB").to_le_bytes());
}

/// Seals `cells` into frames laid out in `frames` (each exactly
/// `TAG_LEN + frame_len` bytes, trailer last), with the AEAD work fanned
/// out over the channel's `lanes`. Every body is written once, into its
/// frame, and authenticated there.
fn seal_in_place(
    channel: &mut SecureChannel,
    cells: &[Cell<'_>],
    lanes: u32,
    frames: Vec<&mut [u8]>,
) {
    let parts: Vec<(&[u8], CellBody<'_>)> = cells.iter().map(|(h, b)| (h.as_slice(), *b)).collect();
    let mut sealed = Vec::with_capacity(frames.len());
    for (frame, (_, body)) in frames.into_iter().zip(cells) {
        let (cell, trailer) = frame.split_at_mut(frame.len() - CELL_TRAILER_LEN);
        write_trailer(trailer, body.len());
        sealed.push(cell);
    }
    channel.seal_many(&parts, lanes, &mut sealed);
}

/// Seals a run of cells as individual frames, one buffer each, allocated
/// once at its final length.
pub(crate) fn seal_frames(
    channel: &mut SecureChannel,
    cells: &[Cell<'_>],
    lanes: u32,
) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = cells
        .iter()
        .map(|cell| vec![0; TAG_LEN + frame_len(cell)])
        .collect();
    let slices = frames.iter_mut().map(Vec::as_mut_slice).collect();
    seal_in_place(channel, cells, lanes, slices);
    frames
}

/// Splits one received frame into its sealed header (`ciphertext ‖
/// tag`) and its body. Framing only: the split is checked by the tag at
/// cell open.
///
/// # Errors
///
/// [`MigError::Transfer`] when the frame is too short for a trailer and
/// a tag, or its trailer claims more body than the frame holds.
pub fn split_cell(frame: &[u8]) -> Result<(&[u8], &[u8]), MigError> {
    let framing = MigError::Transfer("malformed cell frame");
    let trailer_at = frame
        .len()
        .checked_sub(CELL_TRAILER_LEN)
        .ok_or(framing.clone())?;
    let (cell, trailer) = frame.split_at(trailer_at);
    let body_len = u32::from_le_bytes(trailer.try_into().map_err(|_| framing.clone())?);
    let body_at = usize::try_from(body_len)
        .ok()
        .and_then(|len| cell.len().checked_sub(len))
        .filter(|at| *at >= TAG_LEN)
        .ok_or(framing)?;
    Ok(cell.split_at(body_at))
}

/// A decrypted frame: the message its header carries and the body it
/// authenticated.
pub(crate) struct Opened<'a> {
    /// The message (its header).
    pub msg: MeToMe,
    /// The frame's body, borrowed from the input.
    body: &'a [u8],
}

impl<'a> Opened<'a> {
    /// Decodes a header `open_cell` returned for `body`.
    fn decode(header: &[u8], body: &'a [u8]) -> Result<Self, MigError> {
        Ok(Opened {
            msg: MeToMe::from_header(header)?,
            body,
        })
    }

    /// The chunk payload of a [`MeToMe::Chunk`]: the first `len` bytes
    /// of the body, borrowed.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] when the header names more payload than the
    /// body holds, or the frame is no chunk.
    pub fn payload(&self) -> Result<&'a [u8], MigError> {
        match self.msg {
            MeToMe::Chunk { len, .. } => Ok(self
                .body
                .get(..len as usize)
                .ok_or(MigError::Sgx(SgxError::Decode))?),
            _ => Err(MigError::Sgx(SgxError::Decode)),
        }
    }
}

/// Opens the next in-order frame from the peer: splits it, checks the
/// tag over the borrowed body, decrypts only the header and decodes it.
///
/// # Errors
///
/// [`MigError::Transfer`] on a malformed frame, [`MigError::Sgx`] on a
/// tag mismatch (nothing consumed) or an undecodable header.
pub(crate) fn open_frame<'a>(
    channel: &mut SecureChannel,
    frame: &'a [u8],
) -> Result<Opened<'a>, MigError> {
    let (sealed, body) = split_cell(frame)?;
    let header = channel.open_cell(sealed, body)?;
    Opened::decode(&header, body)
}

/// Hard upper bound on the cells one `TRANSFER_BATCH` container may
/// carry, independent of the negotiated batch size. The container
/// framing is untrusted (the host could repack it), so the receiver
/// bounds its allocations here before opening a single cell.
pub const MAX_BATCH: u32 = 256;

/// Uniform wire length of a `TRANSFER_BATCH` container on a link whose
/// negotiated batch size is `batch` and whose wire cell is `cell`:
/// cell count, `batch` length-prefixed sealed frames, and the trailing
/// pad field. Containers holding fewer than `batch` cells are padded up
/// to this length so a final partial batch (a smaller ciphertext) can
/// never overtake earlier full batches on the size-ordered network.
#[must_use]
pub fn batch_frame_len(cell: u32, batch: u32) -> usize {
    let sealed_cell = chunk_frame_len(cell) + TAG_LEN;
    4 + batch as usize * (4 + sealed_cell) + 4
}

/// Seals a run of cells (chunk frames and padded lead frames, all of one
/// uniform frame length) directly into one batch container, padded to
/// [`batch_frame_len`] for the link's negotiated `batch` size. The
/// container is allocated once at its final size and laid out first —
/// cell count, each frame's length prefix and trailer, the pad field —
/// then every frame is sealed in place, on the channel's `lanes`: no
/// per-frame buffer, no gather copy.
pub(crate) fn seal_batch(
    channel: &mut SecureChannel,
    cells: &[Cell<'_>],
    cell: u32,
    batch: u32,
    lanes: u32,
) -> Vec<u8> {
    let mut out = vec![0; batch_frame_len(cell, batch)];
    let (count, mut rest) = out.split_at_mut(4);
    count.copy_from_slice(&(cells.len() as u32).to_le_bytes());
    let mut frames = Vec::with_capacity(cells.len());
    for c in cells {
        let len = TAG_LEN + frame_len(c);
        let (prefix, tail) = rest.split_at_mut(4);
        // mig-lint: allow(enclave-panic, "a frame is bounded by the wire cell, itself < 4 GiB")
        prefix.copy_from_slice(&u32::try_from(len).expect("cell < 4 GiB").to_le_bytes());
        let (frame, tail) = tail.split_at_mut(len);
        frames.push(frame);
        rest = tail;
    }
    // Trailing pad field, exactly as pack_batch framed it: its length,
    // then zeros up to the container's uniform size.
    let pad = rest.len().saturating_sub(4);
    // mig-lint: allow(enclave-panic, "pad < batch_frame_len < 4 GiB")
    rest[..4].copy_from_slice(&u32::try_from(pad).expect("pad < 4 GiB").to_le_bytes());
    seal_in_place(channel, cells, lanes, frames);
    out
}

/// Packs individually sealed frames into one batch container — the
/// two-pass framing [`seal_batch`] collapses into a single pass.
/// Retained as the byte-layout oracle for `seal_batch` and the builder
/// for `unpack_batch` tests.
#[cfg(test)]
pub(crate) fn pack_batch(cells: &[Vec<u8>], cell: u32, batch: u32) -> Vec<u8> {
    let target = batch_frame_len(cell, batch);
    let mut w = WireWriter::with_capacity(target);
    w.u32(cells.len() as u32);
    let mut used = 4usize;
    for ct in cells {
        w.bytes(ct);
        used += 4 + ct.len();
    }
    let pad = target.saturating_sub(used + 4);
    w.bytes(&vec![0u8; pad]);
    w.finish()
}

/// Parses a `TRANSFER_BATCH` container into its sealed frames, in the
/// order they were sealed. The framing is untrusted: cell counts
/// outside `1..=`[`MAX_BATCH`] and truncation anywhere — including mid
/// cell — are rejected before any AEAD work happens, so a malformed
/// container cannot consume channel sequence numbers.
///
/// # Errors
///
/// [`MigError::Transfer`] on an empty, oversized, truncated, or
/// trailing-garbage container.
pub fn unpack_batch(bytes: &[u8]) -> Result<Vec<&[u8]>, MigError> {
    let framing = MigError::Transfer("malformed transfer batch container");
    let mut r = WireReader::new(bytes);
    let count = r.u32().map_err(|_| framing.clone())?;
    if count == 0 || count > MAX_BATCH {
        return Err(MigError::Transfer("batch cell count out of range"));
    }
    let mut cells = Vec::with_capacity(count as usize);
    for _ in 0..count {
        cells.push(r.bytes().map_err(|_| framing.clone())?);
    }
    let _pad = r.bytes().map_err(|_| framing.clone())?;
    r.finish().map_err(|_| framing)?;
    Ok(cells)
}

/// Opens the frames of one batch container at consecutive receive
/// sequence numbers, fanned over `lanes` ([`SecureChannel::open_many`]).
/// Returns the opened prefix — every frame before the first one that is
/// malformed, fails its tag or does not decode — and whether that
/// prefix is the whole container. Only the opened prefix consumes
/// receive sequence numbers.
pub(crate) fn open_batch<'a>(
    channel: &mut SecureChannel,
    frames: &[&'a [u8]],
    lanes: u32,
) -> (Vec<Opened<'a>>, bool) {
    let cells: Vec<(&[u8], &'a [u8])> = frames.iter().map_while(|f| split_cell(f).ok()).collect();
    let (headers, verified) = channel.open_many(&cells, lanes);
    let mut opened = Vec::with_capacity(headers.len());
    for (header, (_, body)) in headers.iter().zip(&cells) {
        match Opened::decode(header, body) {
            Ok(frame) => opened.push(frame),
            Err(_) => return (opened, false),
        }
    }
    let whole = verified && cells.len() == frames.len();
    (opened, whole)
}

/// Per-destination adaptive chunk/window controller.
///
/// Seeded from the provisioned [`TransferConfig`], then driven by the
/// observed link behaviour: every clean cumulative ack grows the send
/// window by one (up to [`TransferConfig::max_window`]) — additive
/// increase keeps the pipe filling on a healthy link — and every
/// disruption (a `Resume` renegotiation after a crash or loss) halves
/// the chunk size (floor [`MIN_CHUNK_SIZE`]) and resets the window to
/// the provisioned base, so a flaky link retransmits less per loss.
/// New streams pick up the controller's current values; a mid-flight
/// stream keeps the geometry it was announced with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveLink {
    base_window: u32,
    max_window: u32,
    chunk_size: u32,
    window: u32,
}

impl AdaptiveLink {
    /// Seeds a controller from the provisioned config.
    #[must_use]
    pub fn new(config: &TransferConfig) -> Self {
        AdaptiveLink {
            base_window: config.window,
            max_window: config.max_window.max(config.window),
            chunk_size: config.chunk_size.max(MIN_CHUNK_SIZE),
            window: config.window,
        }
    }

    /// Chunk size the next stream to this destination will use.
    #[must_use]
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Current send window (chunks in flight).
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// A cumulative ack arrived in order: grow the window additively.
    pub fn on_clean_ack(&mut self) {
        self.window = (self.window + 1).min(self.max_window);
    }

    /// The stream was disrupted (resume renegotiation): shrink the chunk
    /// size and fall back to the provisioned window.
    pub fn on_disruption(&mut self) {
        self.chunk_size = (self.chunk_size / 2).max(MIN_CHUNK_SIZE);
        self.window = self.base_window;
    }
}

/// One stream's appetite in a [`DrrScheduler::allocate`] round: how many
/// chunks it still wants to put on the wire and what one chunk costs in
/// bytes (its announced chunk size — streams announced under different
/// link conditions carry different geometry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamDemand {
    /// Chunks the stream could send right now (unsent, inside the
    /// payload).
    pub pending_chunks: u32,
    /// Wire cost of one chunk in bytes.
    pub chunk_cost: u64,
}

/// Deficit-round-robin scheduler apportioning a shared per-destination
/// link budget among concurrently multiplexed chunk streams.
///
/// Classic DRR (Shreedhar & Varghese): every ready stream accrues one
/// `quantum` of byte credit per round and spends it on whole chunks; the
/// leftover deficit carries into the next round, so a stream with small
/// chunks is not systematically out-scheduled by one with large chunks,
/// and a 64 MiB migration cannot starve a 64 KiB one — each gets its
/// proportional share of every refill. State (round-robin order, cursor,
/// deficits) persists across calls for long-run fairness but is
/// deliberately ephemeral in the ME: after a restart the first refill
/// simply starts a fresh round.
#[derive(Debug)]
pub struct DrrScheduler<K: Copy + Eq + Hash> {
    order: Vec<K>,
    cursor: usize,
    deficit: HashMap<K, u64>,
}

impl<K: Copy + Eq + Hash> Default for DrrScheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash> DrrScheduler<K> {
    /// Creates an empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        DrrScheduler {
            order: Vec::new(),
            cursor: 0,
            deficit: HashMap::new(),
        }
    }

    /// Synchronizes the round-robin ring with the currently active
    /// streams: departed keys drop out (with their deficit), new keys
    /// join at the end of the ring.
    fn sync(&mut self, demands: &[(K, StreamDemand)]) {
        let cursor_key = self.order.get(self.cursor).copied();
        self.order.retain(|k| demands.iter().any(|(dk, _)| dk == k));
        self.deficit
            .retain(|k, _| demands.iter().any(|(dk, _)| dk == k));
        for (k, _) in demands {
            if !self.order.contains(k) {
                self.order.push(*k);
            }
        }
        self.cursor = cursor_key
            .and_then(|k| self.order.iter().position(|o| *o == k))
            .unwrap_or(0);
        if self.order.is_empty() {
            self.cursor = 0;
        } else {
            self.cursor %= self.order.len();
        }
    }

    /// Distributes a budget of `budget_chunks` send slots over the
    /// demanding streams, returning the emission order (one entry per
    /// granted chunk, interleaved the way the frames should hit the
    /// wire).
    pub fn allocate(&mut self, mut budget_chunks: u32, demands: &[(K, StreamDemand)]) -> Vec<K> {
        self.sync(demands);
        let mut pending: HashMap<K, u32> = demands
            .iter()
            .map(|(k, d)| (*k, d.pending_chunks))
            .collect();
        let cost: HashMap<K, u64> = demands.iter().map(|(k, d)| (*k, d.chunk_cost)).collect();
        // One quantum lets the hungriest stream send at least one chunk
        // per round, so every round makes progress.
        let quantum = demands
            .iter()
            .filter(|(_, d)| d.pending_chunks > 0)
            .map(|(_, d)| d.chunk_cost)
            .max()
            .unwrap_or(0);
        let mut grants = Vec::new();
        if quantum == 0 || self.order.is_empty() {
            return grants;
        }
        while budget_chunks > 0 && pending.values().any(|p| *p > 0) {
            // mig-lint: allow(enclave-panic, "cursor is maintained mod order.len() and order is non-empty (checked above)")
            let key = self.order[self.cursor];
            self.cursor = (self.cursor + 1) % self.order.len();
            let p = pending.entry(key).or_insert(0);
            if *p == 0 {
                // An idle stream carries no credit into its next busy
                // period (standard DRR: deficit resets when the queue
                // empties).
                self.deficit.insert(key, 0);
                continue;
            }
            let c = cost.get(&key).copied().unwrap_or(quantum).max(1);
            let deficit = self.deficit.entry(key).or_insert(0);
            *deficit += quantum;
            while *deficit >= c && *p > 0 && budget_chunks > 0 {
                grants.push(key);
                *deficit -= c;
                *p -= 1;
                budget_chunks -= 1;
            }
            if *p == 0 {
                *deficit = 0;
            }
        }
        grants
    }
}

/// Everything the wire layer tracks for one destination link: the
/// [`AdaptiveLink`] chunk/window controller, the [`DrrScheduler`]
/// sharing the window among concurrent streams, and the current wire
/// cell.
///
/// Lifecycles differ deliberately: the adaptive controller is link
/// memory that survives a `RETRY` reconnect ([`LinkShaper::reset_framing`]
/// keeps it), while the scheduler and the cell describe in-flight frames
/// that died with the old channel and are reset. The whole shaper is
/// ephemeral across an ME restart — re-seeded from the provisioned
/// config on the next stream.
#[derive(Debug)]
pub struct LinkShaper {
    adaptive: AdaptiveLink,
    scheduler: DrrScheduler<MrEnclave>,
    cell: u32,
    batch: u32,
}

impl LinkShaper {
    /// Seeds a shaper for a fresh destination link.
    #[must_use]
    pub fn new(config: &TransferConfig) -> Self {
        LinkShaper {
            adaptive: AdaptiveLink::new(config),
            scheduler: DrrScheduler::new(),
            cell: 0,
            batch: 1,
        }
    }

    /// The link's negotiated batch size: how many sealed cells one
    /// `TRANSFER_BATCH` container carries. 1 (the default) keeps the
    /// legacy one-frame-per-transition path.
    #[must_use]
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// Fixes the link's batch size from the channel negotiation
    /// (`min(own config, peer advertisement)`, clamped to
    /// `1..=`[`MAX_BATCH`]). Set once per channel establishment,
    /// *before* any stream frame flies — changing it with containers in
    /// flight would break the uniform-size FIFO discipline.
    pub fn set_batch(&mut self, batch: u32) {
        self.batch = batch.clamp(1, MAX_BATCH);
    }

    /// The adaptive chunk/window controller.
    #[must_use]
    pub fn adaptive(&self) -> &AdaptiveLink {
        &self.adaptive
    }

    /// Mutable access to the adaptive controller (ack/disruption
    /// feedback).
    pub fn adaptive_mut(&mut self) -> &mut AdaptiveLink {
        &mut self.adaptive
    }

    /// The destination's current wire cell (0 before any stream frame).
    #[must_use]
    pub fn cell(&self) -> u32 {
        self.cell
    }

    /// Drops the framing state bound to a dead channel (scheduler round
    /// and wire cell) while keeping the adaptive link memory — the
    /// `RETRY` path: in-flight frames died with the channel, but the
    /// link's observed behaviour did not change.
    pub fn reset_framing(&mut self) {
        self.scheduler = DrrScheduler::new();
        self.cell = 0;
        // Batching is negotiated per channel; the replacement channel
        // re-advertises before any stream frame flies.
        self.batch = 1;
    }

    /// The destination's wire cell for the next frame batch: the uniform
    /// padded size of every stream frame on that link. Grows to `needed`
    /// while frames are in flight (a larger frame sealed later cannot
    /// overtake) and shrinks back only when the link is drained — a
    /// smaller frame sealed behind in-flight larger ones would arrive
    /// first on the size-ordered network and desync the channel.
    pub fn bump_cell(&mut self, needed: u32, in_flight_before: u32) -> u32 {
        if in_flight_before == 0 {
            self.cell = needed;
        } else {
            self.cell = self.cell.max(needed);
        }
        self.cell = self.cell.max(MIN_CHUNK_SIZE);
        self.cell
    }

    /// Deficit-round-robin share-out of `budget` send slots over the
    /// ready streams (see [`DrrScheduler::allocate`]).
    pub fn allocate(
        &mut self,
        budget: u32,
        demands: &[(MrEnclave, StreamDemand)],
    ) -> Vec<MrEnclave> {
        self.scheduler.allocate(budget, demands)
    }

    /// The scheduler's carried byte deficits, sorted by measurement for
    /// deterministic export (telemetry gauges).
    #[must_use]
    pub fn deficits(&self) -> Vec<(MrEnclave, u64)> {
        let mut deficits: Vec<(MrEnclave, u64)> = self
            .scheduler
            .deficit
            .iter()
            .map(|(mr, d)| (*mr, *d))
            .collect();
        deficits.sort_by_key(|(mr, _)| mr.0);
        deficits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::secure_channel::ChannelRole;

    fn channels() -> (SecureChannel, SecureChannel) {
        (
            SecureChannel::new([9; 16], ChannelRole::Initiator),
            SecureChannel::new([9; 16], ChannelRole::Responder),
        )
    }

    #[test]
    fn chunk_frame_len_matches_encoding() {
        // A full chunk, a short final chunk and an empty one all make
        // frames of the cell's chunk-frame length.
        let stream = ChunkStream::new([1; 16], 4096, vec![7; 4096 + 100]);
        for (idx, cell) in [(0u32, 4096u32), (1, 4096), (1, 8192)] {
            let (mut tx, _) = channels();
            let frame = seal_frames(&mut tx, &[chunk_cell(&stream, idx, cell)], 1).remove(0);
            assert_eq!(frame.len(), chunk_frame_len(cell) + TAG_LEN);
        }
        // cell_for_frame_len inverts chunk_frame_len.
        for cell in [MIN_CHUNK_SIZE, 64 * 1024] {
            assert_eq!(cell_for_frame_len(chunk_frame_len(cell)).unwrap(), cell);
        }
    }

    #[test]
    fn chunk_frames_open_to_their_payload() {
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let stream = ChunkStream::new([4; 16], 4096, payload.clone());
        let (mut tx, mut rx) = channels();
        let cells = [chunk_cell(&stream, 0, 4096), chunk_cell(&stream, 1, 4096)];
        let frames = seal_frames(&mut tx, &cells, 2);
        for (idx, frame) in frames.iter().enumerate() {
            // The body sits in the clear: payload, then zero pad.
            let (_, body) = split_cell(frame).unwrap();
            let chunk = stream.chunk(idx as u32);
            assert_eq!(&body[..chunk.len()], chunk);
            assert!(body[chunk.len()..].iter().all(|b| *b == 0));
            let opened = open_frame(&mut rx, frame).unwrap();
            assert_eq!(
                opened.msg,
                MeToMe::Chunk {
                    nonce: [4; 16],
                    idx: idx as u32,
                    len: chunk.len() as u32
                }
            );
            assert_eq!(opened.payload().unwrap(), chunk);
        }
    }

    #[test]
    fn messages_keep_their_frame_lengths_and_round_trip() {
        let (mut tx, mut rx) = channels();
        let ack = MeToMe::ChunkAck {
            nonce: [8; 16],
            upto: 8,
        };
        let frame = seal_msg(&mut tx, &ack);
        assert_eq!(frame.len(), CTRL_FRAME_LEN + TAG_LEN);
        let opened = open_frame(&mut rx, &frame).unwrap();
        assert_eq!(opened.msg, ack);
        assert!(opened.payload().is_err(), "only a chunk has a payload");
    }

    #[test]
    fn split_cell_is_total_and_rejects_impossible_trailers() {
        for len in 0..(TAG_LEN + CELL_TRAILER_LEN) {
            assert!(split_cell(&vec![0; len]).is_err(), "len {len}");
        }
        let mut frame = vec![0u8; TAG_LEN + 10];
        frame.extend_from_slice(&11u32.to_le_bytes());
        assert!(split_cell(&frame).is_err(), "body would eat the tag");
        frame.truncate(TAG_LEN + 10);
        frame.extend_from_slice(&10u32.to_le_bytes());
        let (sealed, body) = split_cell(&frame).unwrap();
        assert_eq!((sealed.len(), body.len()), (TAG_LEN, 10));
        frame.truncate(TAG_LEN + 10);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(split_cell(&frame).is_err());
    }

    #[test]
    fn sub_overhead_frame_rejected_as_framing_error() {
        // A frame shorter than the fixed chunk overhead cannot be a
        // well-formed stream frame; it must surface as a framing error,
        // not silently map to a 0-byte cell.
        for len in [0, 1, CHUNK_FRAME_OVERHEAD - 1] {
            assert!(matches!(
                cell_for_frame_len(len),
                Err(MigError::Transfer(_))
            ));
        }
        // The boundary itself is the legitimate empty-payload frame.
        assert_eq!(cell_for_frame_len(CHUNK_FRAME_OVERHEAD).unwrap(), 0);
    }

    #[test]
    fn batch_container_round_trips_and_pads_uniformly() {
        let cell = MIN_CHUNK_SIZE;
        let sealed_len = chunk_frame_len(cell) + TAG_LEN;
        let full: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; sealed_len]).collect();
        let packed_full = pack_batch(&full, cell, 4);
        assert_eq!(packed_full.len(), batch_frame_len(cell, 4));
        let cells = unpack_batch(&packed_full).unwrap();
        assert_eq!(cells.len(), 4);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(*c, &full[i][..]);
        }
        // A partial batch pads to the same uniform container length, so
        // it cannot overtake a full batch on the size-ordered network.
        let partial = pack_batch(&full[..1], cell, 4);
        assert_eq!(partial.len(), packed_full.len());
        assert_eq!(unpack_batch(&partial).unwrap().len(), 1);
    }

    #[test]
    fn seal_batch_matches_pack_batch_of_seal_frames() {
        let cell = MIN_CHUNK_SIZE;
        let stream = ChunkStream::new([3; 16], cell, vec![0xAB; 2 * cell as usize + 7]);
        let cells: Vec<Cell<'_>> = (0..3).map(|i| chunk_cell(&stream, i, cell)).collect();
        for lanes in [1u32, 2, 4] {
            // Two-pass oracle: seal the frames, then pack them.
            let (mut oracle, _) = channels();
            let expected = pack_batch(&seal_frames(&mut oracle, &cells, lanes), cell, 4);
            // Single-pass path under test: seal straight into the container.
            let (mut direct, mut rx) = channels();
            let container = seal_batch(&mut direct, &cells, cell, 4, lanes);
            assert_eq!(container, expected, "lanes={lanes}");
            assert_eq!(container.len(), batch_frame_len(cell, 4));
            // And the receiver opens the frames back out in order.
            let frames = unpack_batch(&container).unwrap();
            let (opened, whole) = open_batch(&mut rx, &frames, lanes);
            assert!(whole);
            let payloads: Vec<&[u8]> = opened.iter().map(|o| o.payload().unwrap()).collect();
            assert_eq!(
                payloads,
                (0..3).map(|i| stream.chunk(i)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn open_batch_keeps_the_prefix_before_a_bad_frame() {
        let cell = MIN_CHUNK_SIZE;
        let stream = ChunkStream::new([5; 16], cell, vec![0x3C; 3 * cell as usize]);
        let cells: Vec<Cell<'_>> = (0..3).map(|i| chunk_cell(&stream, i, cell)).collect();
        // A flipped body byte in the second frame, and a trailer that
        // overruns the second frame: each keeps only the first frame.
        for damage in [0usize, 1] {
            let (mut tx, mut rx) = channels();
            let mut frames = seal_frames(&mut tx, &cells, 1);
            let n = frames[1].len();
            if damage == 0 {
                frames[1][n - 10] ^= 1;
            } else {
                frames[1][n - 1] = 0xFF;
            }
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            let (opened, whole) = open_batch(&mut rx, &refs, 2);
            assert!(!whole);
            assert_eq!(opened.len(), 1, "damage {damage}");
            // Only the opened frame consumed a sequence number.
            let (mut tx2, _) = channels();
            let again = seal_frames(&mut tx2, &cells, 1);
            assert!(open_frame(&mut rx, &again[1]).is_ok());
        }
    }

    #[test]
    fn truncated_or_malformed_batch_rejected() {
        let cell = MIN_CHUNK_SIZE;
        let sealed_len = chunk_frame_len(cell) + TAG_LEN;
        let cells: Vec<Vec<u8>> = (0..2u8).map(|i| vec![i; sealed_len]).collect();
        let packed = pack_batch(&cells, cell, 2);
        // Truncation mid-cell must be rejected before any AEAD work.
        for cut in [3, 10, sealed_len + 6, packed.len() - 1] {
            assert!(unpack_batch(&packed[..cut]).is_err(), "cut at {cut}");
        }
        // Zero cells and oversized counts are out of range.
        let mut w = WireWriter::new();
        w.u32(0);
        w.bytes(&[]);
        assert!(unpack_batch(&w.finish()).is_err());
        let mut w = WireWriter::new();
        w.u32(MAX_BATCH + 1);
        assert!(unpack_batch(&w.finish()).is_err());
    }

    #[test]
    fn link_shaper_batch_negotiation_clamps_and_resets() {
        let mut shaper = LinkShaper::new(&TransferConfig::default());
        assert_eq!(shaper.batch(), 1, "unbatched until negotiated");
        shaper.set_batch(16);
        assert_eq!(shaper.batch(), 16);
        shaper.set_batch(0);
        assert_eq!(shaper.batch(), 1, "zero clamps to the legacy path");
        shaper.set_batch(MAX_BATCH * 2);
        assert_eq!(shaper.batch(), MAX_BATCH);
        // A channel reset renegotiates: framing reset drops to 1.
        shaper.set_batch(8);
        shaper.reset_framing();
        assert_eq!(shaper.batch(), 1);
    }

    #[test]
    fn padded_start_frames_parse_identically() {
        let data = crate::library::state::MigrationData {
            counters_active: [false; crate::library::state::COUNTER_SLOTS],
            counter_values: [0; crate::library::state::COUNTER_SLOTS],
            msk: [7; 16],
        };
        let start = MeToMe::ChunkStart {
            mr_enclave: MrEnclave([5; 32]),
            nonce: [8; 16],
            generation: 3,
            total_len: 1_000_000,
            chunk_size: 4096,
            root: [9; 32],
            data,
        };
        let (mut tx, mut rx) = channels();
        let lead = lead_cell(&start, 64 * 1024);
        let frame = seal_frames(&mut tx, &[lead], 1).remove(0);
        assert_eq!(frame.len(), chunk_frame_len(64 * 1024) + TAG_LEN);
        // The body is zero pad only; Table I is in the encrypted header.
        let (_, body) = split_cell(&frame).unwrap();
        assert!(!body.is_empty() && body.iter().all(|b| *b == 0));
        assert_eq!(open_frame(&mut rx, &frame).unwrap().msg, start);
        // A frame already above the target gets no pad.
        let (header, body) = lead_cell(&start, 10);
        assert!(body.is_empty());
        assert_eq!(natural_frame_len(&start), header.len() + CELL_TRAILER_LEN);
    }

    fn demand(pending: u32, cost: u64) -> StreamDemand {
        StreamDemand {
            pending_chunks: pending,
            chunk_cost: cost,
        }
    }

    #[test]
    fn drr_shares_budget_evenly_between_equal_streams() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        let grants = sched.allocate(8, &[(1, demand(100, 4096)), (2, demand(100, 4096))]);
        assert_eq!(grants.len(), 8);
        let a = grants.iter().filter(|k| **k == 1).count();
        let b = grants.iter().filter(|k| **k == 2).count();
        assert_eq!((a, b), (4, 4), "equal streams split the budget evenly");
        // Emission interleaves rather than bursting one stream.
        assert_ne!(grants[0], grants[1]);
    }

    #[test]
    fn drr_small_stream_finishes_inside_large_stream_refills() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        // A 256-chunk elephant and a 4-chunk mouse: the mouse drains in
        // the very first window.
        let grants = sched.allocate(8, &[(1, demand(256, 65536)), (2, demand(4, 65536))]);
        assert_eq!(grants.iter().filter(|k| **k == 2).count(), 4);
        assert_eq!(grants.iter().filter(|k| **k == 1).count(), 4);
    }

    #[test]
    fn drr_is_work_conserving() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        // One stream has little to send; the other absorbs the leftover.
        let grants = sched.allocate(10, &[(1, demand(2, 4096)), (2, demand(100, 4096))]);
        assert_eq!(grants.iter().filter(|k| **k == 1).count(), 2);
        assert_eq!(grants.iter().filter(|k| **k == 2).count(), 8);
    }

    #[test]
    fn drr_deficit_compensates_unequal_chunk_costs() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        // Stream 1 carries 64 KiB chunks, stream 2 16 KiB chunks: over a
        // large budget, stream 2 must get ~4x the chunks (equal bytes).
        let grants = sched.allocate(
            100,
            &[(1, demand(1000, 64 * 1024)), (2, demand(1000, 16 * 1024))],
        );
        let a = grants.iter().filter(|k| **k == 1).count() as f64;
        let b = grants.iter().filter(|k| **k == 2).count() as f64;
        assert!(
            (b / a - 4.0).abs() < 0.5,
            "byte-fair split expected ~1:4 chunks, got {a}:{b}"
        );
    }

    #[test]
    fn drr_survives_departures_and_arrivals() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        let _ = sched.allocate(4, &[(1, demand(10, 4096)), (2, demand(10, 4096))]);
        // Stream 1 departs, stream 3 arrives; allocation stays sane.
        let grants = sched.allocate(4, &[(2, demand(10, 4096)), (3, demand(10, 4096))]);
        assert_eq!(grants.len(), 4);
        assert!(grants.iter().all(|k| *k == 2 || *k == 3));
        // Empty demand yields nothing and does not spin.
        assert!(sched.allocate(4, &[]).is_empty());
        assert!(sched.allocate(0, &[(2, demand(1, 4096))]).is_empty());
    }

    #[test]
    fn adaptive_link_grows_on_acks_and_shrinks_on_disruption() {
        let config = TransferConfig {
            chunk_size: 64 * 1024,
            window: 2,
            max_window: 5,
            ..TransferConfig::default()
        };
        let mut link = AdaptiveLink::new(&config);
        assert_eq!((link.chunk_size(), link.window()), (64 * 1024, 2));
        for _ in 0..10 {
            link.on_clean_ack();
        }
        assert_eq!(link.window(), 5, "window capped at max_window");
        link.on_disruption();
        assert_eq!(link.chunk_size(), 32 * 1024, "chunk size halves");
        assert_eq!(link.window(), 2, "window resets to provisioned base");
        for _ in 0..20 {
            link.on_disruption();
        }
        assert_eq!(
            link.chunk_size(),
            MIN_CHUNK_SIZE,
            "floored at MIN_CHUNK_SIZE"
        );
    }

    #[test]
    fn link_shaper_cell_grows_under_flight_and_resets_when_drained() {
        let mut shaper = LinkShaper::new(&TransferConfig::default());
        assert_eq!(shaper.cell(), 0);
        // Quiet link: the cell snaps to what the batch needs (floored).
        assert_eq!(shaper.bump_cell(16 * 1024, 0), 16 * 1024);
        // Frames in flight: the cell only grows.
        assert_eq!(shaper.bump_cell(4 * 1024, 3), 16 * 1024);
        assert_eq!(shaper.bump_cell(64 * 1024, 3), 64 * 1024);
        // Drained again: shrink is allowed, floored at MIN_CHUNK_SIZE.
        assert_eq!(shaper.bump_cell(1, 0), MIN_CHUNK_SIZE);
        // A retry keeps the adaptive memory but clears the framing.
        shaper.adaptive_mut().on_disruption();
        let chunk = shaper.adaptive().chunk_size();
        shaper.reset_framing();
        assert_eq!(shaper.cell(), 0);
        assert_eq!(shaper.adaptive().chunk_size(), chunk);
    }
}
