//! Crash-durable admission journal (DESIGN §18).
//!
//! Every robustness layer below this one assumes the serving *process*
//! survives: a crash after admission silently loses every queued request,
//! and a client that reconnects and retries can double-execute work it
//! already paid for. This module closes that gap with a checksummed
//! append-only write-ahead log in the ARIES tradition, scaled down to the
//! two record kinds admission actually needs:
//!
//! * **Admit** — written under the queue lock, in admission order, the
//!   moment a request enters the bounded queue. Carries the process-global
//!   `request_id` (the end-to-end trace key), the client-supplied
//!   idempotency key, and the full input tensor, so a restarted server can
//!   re-enqueue the work without any client help.
//! * **Ack** — written when the request reaches *any* terminal outcome
//!   (delivered success, final error, quarantine, shed). A success ack
//!   carries the output words, so an already-completed request can be
//!   *redelivered* from the bounded dedup table instead of re-executed.
//!
//! On restart, [`recover`] replays the file: admits without a matching ack
//! are re-enqueued, success acks seed the dedup table, and the journal is
//! compacted down to exactly that live state. Replay is torn-tail
//! tolerant — a crash mid-write leaves a partial record that replay
//! cleanly stops before — and every record is covered by an FNV-1a 64
//! checksum, so a flipped bit quarantines the record suffix from that
//! point instead of replaying garbage.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! offset  size       field
//! 0       8          magic  "NPCJRNL1"
//! 8       4          len    payload length of record 0
//! 12      1          kind   1=Admit 2=Ack
//! 13      len        payload
//! 13+len  8          check  FNV-1a 64 over the 5 prefix bytes + payload
//! ...                next record
//!
//! Admit payload: request_id u64 | idem_key u64 | model u32 | class u8
//!              | deadline_ms u32 | c u16 | h u16 | w u16 | c*h*w words (i16)
//! Ack payload:   request_id u64 | idem_key u64 | status u8
//!                status 1: c u16 | h u16 | w u16 | c*h*w words (i16)
//!                else:     (empty — a final failure frees the key)
//! ```
//!
//! Durability is batched: appends buffer in memory and reach the disk (one
//! `write` + `fsync`) every [`fsync_every`](JournalConfig::fsync_every)
//! records, or at the first append that finds the last sync
//! [`fsync_interval`](JournalConfig::fsync_interval) old. No timer runs:
//! after a burst, a quiet tail stays unsynced until the next append, an
//! explicit [`Server::flush_journal`](crate::Server::flush_journal), a
//! drain or shutdown. The window between an outcome and its fsync is the
//! *ack-durability window*: a crash inside it re-executes already-acked
//! work on recovery. That re-execution is invisible to clients (the dedup
//! table and in-flight reservations collapse duplicates per idempotency
//! key), so the knob trades recovery work — never correctness — for
//! admission throughput.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use npcgra_nn::{Tensor, Word};

/// Journal file magic: identifies the format and its (only) version.
pub const JOURNAL_MAGIC: [u8; 8] = *b"NPCJRNL1";

/// Record kind byte for an admission record.
pub const REC_ADMIT: u8 = 1;
/// Record kind byte for a terminal-outcome (acknowledgment) record.
pub const REC_ACK: u8 = 2;

/// Bound on a single record's payload; a declared length past it is
/// corruption by construction (the largest legal tensor is far smaller).
const MAX_RECORD_LEN: u32 = 1 << 26;

/// Bytes of framing around a record payload: `len u32 | kind u8` before,
/// `check u64` after.
const RECORD_OVERHEAD: usize = 4 + 1 + 8;

/// FNV-1a 64 over `bytes` — the record checksum. Same constants as the
/// wire-frame and ABFT checksums: it catches corruption (and the chaos
/// injector's bit flips), not adversaries.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where the admission journal lives and how eagerly it reaches the disk.
///
/// The journal is **off by default** (a [`ServeConfig`](crate::ServeConfig)
/// never references one); it only exists for servers started through
/// [`Server::start_with_journal`](crate::Server::start_with_journal).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Path of the journal file. Created (with its magic header) if
    /// missing; replayed and compacted if present.
    pub path: PathBuf,
    /// Records buffered before a batched `write` + `fsync` (`0` is treated
    /// as `1`: every record synced immediately).
    pub fsync_every: usize,
    /// Age of the last sync past which the next append flushes a batch
    /// that is not full. Checked only on append: no timer runs, so a quiet
    /// tail stays unsynced until the next append, an explicit flush, a
    /// drain or shutdown.
    pub fsync_interval: Duration,
    /// Bound on remembered completed requests (the redelivery window):
    /// past it the oldest idempotency key is evicted FIFO, and a retry of
    /// that key re-executes instead of redelivering (DESIGN §18's
    /// dedup-window caveat).
    pub dedup_capacity: usize,
}

impl JournalConfig {
    /// A journal at `path` with the default batching knobs.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalConfig {
            path: path.into(),
            fsync_every: 8,
            fsync_interval: Duration::from_millis(2),
            dedup_capacity: 1024,
        }
    }

    /// Set the fsync batch size (records per sync; `0` = sync every record).
    #[must_use]
    pub fn with_fsync_every(mut self, every: usize) -> Self {
        self.fsync_every = every;
        self
    }

    /// Set the sync age past which the next append flushes.
    #[must_use]
    pub fn with_fsync_interval(mut self, interval: Duration) -> Self {
        self.fsync_interval = interval;
        self
    }

    /// Set the dedup-table capacity (completed requests remembered for
    /// redelivery; `0` is treated as `1`).
    #[must_use]
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        self.dedup_capacity = capacity;
        self
    }
}

/// A decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A request entered the admission queue.
    Admit {
        /// Process-global request id minted at admission (the trace key).
        request_id: u64,
        /// Client-supplied idempotency key (`0` = none: replayable but not
        /// deduplicable).
        idem_key: u64,
        /// Registered model index the request targets.
        model: u32,
        /// Priority class index (0 Interactive, 1 Batch, 2 BestEffort).
        class: u8,
        /// The deadline the request carried, in milliseconds (`0` = none).
        /// Recorded for tracing; replay does not re-arm stale deadlines.
        deadline_ms: u32,
        /// Input shape `(channels, height, width)`.
        shape: (u16, u16, u16),
        /// Input words, row-major.
        words: Vec<Word>,
    },
    /// A previously admitted request reached a terminal outcome.
    Ack {
        /// The admitted request's id (matches its Admit record).
        request_id: u64,
        /// The idempotency key the admission carried.
        idem_key: u64,
        /// `Some` = delivered success (shape + output words, the
        /// redelivery payload); `None` = final failure (shed, quarantine,
        /// shutdown): the key is freed for a fresh attempt.
        outcome: Option<((u16, u16, u16), Vec<Word>)>,
    },
}

impl Record {
    /// The idempotency key this record carries.
    #[must_use]
    pub fn idem_key(&self) -> u64 {
        match self {
            Record::Admit { idem_key, .. } | Record::Ack { idem_key, .. } => *idem_key,
        }
    }

    /// The request id this record carries.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        match self {
            Record::Admit { request_id, .. } | Record::Ack { request_id, .. } => *request_id,
        }
    }
}

fn put_words(out: &mut Vec<u8>, shape: (u16, u16, u16), words: &[Word]) {
    out.extend_from_slice(&shape.0.to_le_bytes());
    out.extend_from_slice(&shape.1.to_le_bytes());
    out.extend_from_slice(&shape.2.to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Encode one record as its on-disk bytes (framing + checksum included).
#[must_use]
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut payload = Vec::new();
    let kind = match record {
        Record::Admit {
            request_id,
            idem_key,
            model,
            class,
            deadline_ms,
            shape,
            words,
        } => {
            payload.extend_from_slice(&request_id.to_le_bytes());
            payload.extend_from_slice(&idem_key.to_le_bytes());
            payload.extend_from_slice(&model.to_le_bytes());
            payload.push(*class);
            payload.extend_from_slice(&deadline_ms.to_le_bytes());
            put_words(&mut payload, *shape, words);
            REC_ADMIT
        }
        Record::Ack {
            request_id,
            idem_key,
            outcome,
        } => {
            payload.extend_from_slice(&request_id.to_le_bytes());
            payload.extend_from_slice(&idem_key.to_le_bytes());
            match outcome {
                Some((shape, words)) => {
                    payload.push(1);
                    put_words(&mut payload, *shape, words);
                }
                None => payload.push(0),
            }
            REC_ACK
        }
    };
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&u32::try_from(payload.len()).expect("journal payload fits u32").to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&payload);
    let check = fnv1a(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// A strict little-endian cursor over one record payload.
struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.off..self.off + n)?;
        self.off += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn shaped_words(&mut self) -> Option<((u16, u16, u16), Vec<Word>)> {
        let shape = (self.u16()?, self.u16()?, self.u16()?);
        let count = usize::from(shape.0) * usize::from(shape.1) * usize::from(shape.2);
        let bytes = self.take(count.checked_mul(2)?)?;
        let words = bytes.chunks_exact(2).map(|c| Word::from_le_bytes([c[0], c[1]])).collect();
        Some((shape, words))
    }
    fn done(&self) -> bool {
        self.off == self.b.len()
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Option<Record> {
    let mut c = Cur { b: payload, off: 0 };
    let rec = match kind {
        REC_ADMIT => {
            let request_id = c.u64()?;
            let idem_key = c.u64()?;
            let model = c.u32()?;
            let class = c.u8()?;
            let deadline_ms = c.u32()?;
            let (shape, words) = c.shaped_words()?;
            Record::Admit {
                request_id,
                idem_key,
                model,
                class,
                deadline_ms,
                shape,
                words,
            }
        }
        REC_ACK => {
            let request_id = c.u64()?;
            let idem_key = c.u64()?;
            let outcome = match c.u8()? {
                0 => None,
                1 => Some(c.shaped_words()?),
                _ => return None,
            };
            Record::Ack {
                request_id,
                idem_key,
                outcome,
            }
        }
        _ => return None,
    };
    c.done().then_some(rec)
}

/// How a replay pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The file ended exactly on a record boundary (a clean shutdown's
    /// flushed-and-fsynced journal always replays like this).
    Clean,
    /// The file ended mid-record — the expected shape of a crash between a
    /// buffered append and its fsync. The partial bytes are discarded.
    Torn {
        /// Bytes of partial record discarded at the tail.
        bytes: usize,
    },
    /// A record failed its checksum (or its grammar) before end of file:
    /// corruption, not truncation. Everything from the bad record onward
    /// is quarantined — with the length prefix untrusted there is no
    /// boundary left to resynchronise on.
    Corrupt {
        /// Bytes quarantined (the bad record and everything after it).
        bytes: usize,
    },
}

/// The result of replaying a journal's bytes: every whole, checksummed
/// record in order, plus how the file ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// How the byte stream ended.
    pub tail: TailState,
}

/// Why a journal file could not be opened or replayed at all.
#[derive(Debug)]
pub enum JournalError {
    /// The file's first eight bytes were not [`JOURNAL_MAGIC`]. Nothing in
    /// the file can be trusted.
    BadMagic,
    /// An I/O operation on the journal failed.
    Io(std::io::Error),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "journal magic mismatch (want \"NPCJRNL1\")"),
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Replay a journal's full byte image (magic included).
///
/// Returns [`JournalError::BadMagic`] when the header itself is damaged;
/// otherwise replay never fails — damage downstream of the header is
/// reported through [`ReplayOutcome::tail`] and simply bounds how many
/// records survive.
pub fn replay_bytes(bytes: &[u8]) -> Result<ReplayOutcome, JournalError> {
    if bytes.len() < JOURNAL_MAGIC.len() {
        return Err(JournalError::BadMagic);
    }
    if bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let mut records = Vec::new();
    let mut off = JOURNAL_MAGIC.len();
    let tail = loop {
        let rem = bytes.len() - off;
        if rem == 0 {
            break TailState::Clean;
        }
        if rem < RECORD_OVERHEAD {
            break TailState::Torn { bytes: rem };
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break TailState::Corrupt { bytes: rem };
        }
        let len = len as usize;
        if rem < RECORD_OVERHEAD + len {
            break TailState::Torn { bytes: rem };
        }
        let body = &bytes[off..off + 5 + len];
        let declared = u64::from_le_bytes(bytes[off + 5 + len..off + RECORD_OVERHEAD + len].try_into().unwrap());
        if fnv1a(body) != declared {
            break TailState::Corrupt { bytes: rem };
        }
        match decode_payload(body[4], &body[5..]) {
            Some(rec) => records.push(rec),
            None => break TailState::Corrupt { bytes: rem },
        }
        off += RECORD_OVERHEAD + len;
    };
    Ok(ReplayOutcome { records, tail })
}

/// The buffered, batch-fsynced appender behind a live server's journal.
///
/// Appends accumulate in memory; [`flush`](JournalWriter::flush) moves them
/// to the file with a single `write` + `fsync` and happens automatically
/// on the append that fills `fsync_every` records or finds the last sync
/// `fsync_interval` old.
/// The file therefore always ends on a record boundary at `synced_len` —
/// a torn tail only exists after [`sever`](JournalWriter::sever), the
/// in-process stand-in for a hard process kill.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    file: File,
    buf: Vec<u8>,
    pending: usize,
    last_sync: Instant,
    synced_len: u64,
    severed: bool,
    fsync_every: usize,
    fsync_interval: Duration,
    /// Records appended since open (buffered or synced).
    pub(crate) appends: u64,
    /// Batched `write` + `fsync` passes performed.
    pub(crate) fsyncs: u64,
}

impl JournalWriter {
    fn new(file: File, synced_len: u64, config: &JournalConfig) -> Self {
        JournalWriter {
            file,
            buf: Vec::new(),
            pending: 0,
            last_sync: Instant::now(),
            synced_len,
            severed: false,
            fsync_every: config.fsync_every.max(1),
            fsync_interval: config.fsync_interval,
            appends: 0,
            fsyncs: 0,
        }
    }

    /// Bytes durably on disk (magic included).
    pub(crate) fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Append one record; flushes when the batch or the interval fills.
    pub(crate) fn append(&mut self, record: &Record) -> std::io::Result<()> {
        if self.severed {
            return Ok(());
        }
        self.buf.extend_from_slice(&encode_record(record));
        self.appends += 1;
        self.pending += 1;
        if self.pending >= self.fsync_every || self.last_sync.elapsed() >= self.fsync_interval {
            self.flush()?;
        }
        Ok(())
    }

    /// Force every buffered record to the disk (`write` + `fsync`).
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        if self.severed {
            return Ok(());
        }
        self.last_sync = Instant::now();
        if self.buf.is_empty() {
            self.pending = 0;
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        self.synced_len += self.buf.len() as u64;
        self.fsyncs += 1;
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    /// Simulate a hard process kill: everything past the last fsync is
    /// lost, except for `torn_bytes` of the pending buffer written raw —
    /// the torn tail a crash mid-`write` leaves behind. The writer is dead
    /// afterward: further appends and flushes are silently dropped,
    /// exactly as a killed process would drop them.
    pub(crate) fn sever(&mut self, torn_bytes: usize) -> std::io::Result<()> {
        if self.severed {
            return Ok(());
        }
        self.severed = true;
        let torn = torn_bytes.min(self.buf.len());
        if torn > 0 {
            self.file.write_all(&self.buf[..torn])?;
            self.file.sync_data()?;
        }
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }
}

/// A completed request remembered for redelivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DedupEntry {
    /// The request id of the execution that produced this output (the
    /// original trace key; redeliveries reuse it).
    pub(crate) request_id: u64,
    /// Output shape.
    pub(crate) shape: (u16, u16, u16),
    /// Output words, row-major.
    pub(crate) words: Vec<Word>,
}

impl DedupEntry {
    /// Rebuild the remembered output tensor.
    pub(crate) fn tensor(&self) -> Tensor {
        let (c, h, w) = self.shape;
        let mut t = Tensor::zeros(usize::from(c), usize::from(h), usize::from(w));
        t.as_mut_slice().copy_from_slice(&self.words);
        t
    }
}

/// Bounded FIFO map from idempotency key to completed output: the
/// redelivery window. Eviction is strictly oldest-first; a retry of an
/// evicted key re-executes (the dedup-window caveat, DESIGN §18).
#[derive(Debug)]
pub(crate) struct DedupTable {
    capacity: usize,
    order: VecDeque<u64>,
    entries: HashMap<u64, DedupEntry>,
}

impl DedupTable {
    pub(crate) fn new(capacity: usize) -> Self {
        DedupTable {
            capacity: capacity.max(1),
            order: VecDeque::new(),
            entries: HashMap::new(),
        }
    }

    /// Remember `entry` under `key`. A key already present keeps its
    /// *first* entry (the first completion wins; a second execution of the
    /// same key is the duplicate). Returns `false` iff the key was already
    /// present.
    pub(crate) fn insert(&mut self, key: u64, entry: DedupEntry) -> bool {
        if self.entries.contains_key(&key) {
            return false;
        }
        while self.entries.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(key);
        self.entries.insert(key, entry);
        true
    }

    pub(crate) fn get(&self, key: u64) -> Option<&DedupEntry> {
        self.entries.get(&key)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries in insertion (= completion) order, for compaction.
    pub(crate) fn iter_ordered(&self) -> impl Iterator<Item = (u64, &DedupEntry)> + '_ {
        self.order.iter().filter_map(|k| self.entries.get(k).map(|e| (*k, e)))
    }
}

/// An admitted-but-unacknowledged request recovered from the journal,
/// waiting to be re-enqueued once its model is registered again.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredAdmit {
    /// The admission's original request id (for the recovery log; the
    /// re-execution mints a fresh one).
    pub(crate) request_id: u64,
    pub(crate) idem_key: u64,
    pub(crate) model: u32,
    pub(crate) class: u8,
    pub(crate) shape: (u16, u16, u16),
    pub(crate) words: Vec<Word>,
}

impl RecoveredAdmit {
    pub(crate) fn tensor(&self) -> Tensor {
        let (c, h, w) = self.shape;
        let mut t = Tensor::zeros(usize::from(c), usize::from(h), usize::from(w));
        t.as_mut_slice().copy_from_slice(&self.words);
        t
    }
}

/// What [`recover`] found in (and did to) the journal at startup.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Whole, checksummed records replayed from the file.
    pub records: usize,
    /// Admitted-but-unacknowledged requests queued for re-enqueue.
    pub replayed: usize,
    /// Completed requests seeding the redelivery (dedup) table.
    pub deduped: usize,
    /// Partial-record bytes discarded at the tail (crash mid-write).
    pub torn_tail_bytes: usize,
    /// Bytes quarantined behind a checksum-failed record (corruption).
    pub quarantined_bytes: usize,
    /// The original request ids of the replayed admissions, in admission
    /// order — the recovery log's trace keys (each re-execution logs a
    /// fresh id; this links them back).
    pub replayed_request_ids: Vec<u64>,
    /// Wall time spent replaying and compacting.
    pub elapsed: Duration,
}

/// Everything [`recover`] hands the server: a live writer positioned at
/// the end of the compacted file, the seeded dedup table, and the
/// admissions awaiting re-enqueue.
pub(crate) struct Recovery {
    pub(crate) writer: JournalWriter,
    pub(crate) dedup: DedupTable,
    pub(crate) admits: Vec<RecoveredAdmit>,
    pub(crate) report: RecoveryReport,
}

/// Open (creating if missing), replay, and compact the journal at
/// `config.path`.
///
/// Replay pairs each Admit with its Ack by `request_id`: unmatched admits
/// are the crash's lost in-flight work, success acks seed the dedup
/// table (bounded by `dedup_capacity`, oldest evicted). The file is then
/// compacted — rewritten to exactly the live state and atomically renamed
/// over the original — so journals stay proportional to the live window,
/// not to serving history. A crash during compaction leaves either the
/// old file or the new one, never a mix.
pub(crate) fn recover(config: &JournalConfig) -> Result<Recovery, JournalError> {
    let start = Instant::now();
    let bytes = match fs::read(&config.path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(JournalError::Io(e)),
    };
    let outcome = if bytes.is_empty() {
        ReplayOutcome {
            records: Vec::new(),
            tail: TailState::Clean,
        }
    } else {
        replay_bytes(&bytes)?
    };

    let mut admits: Vec<Option<RecoveredAdmit>> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut dedup = DedupTable::new(config.dedup_capacity);
    for rec in &outcome.records {
        match rec {
            Record::Admit {
                request_id,
                idem_key,
                model,
                class,
                deadline_ms: _,
                shape,
                words,
            } => {
                by_id.insert(*request_id, admits.len());
                admits.push(Some(RecoveredAdmit {
                    request_id: *request_id,
                    idem_key: *idem_key,
                    model: *model,
                    class: *class,
                    shape: *shape,
                    words: words.clone(),
                }));
            }
            Record::Ack {
                request_id,
                idem_key,
                outcome,
            } => {
                if let Some(idx) = by_id.remove(request_id) {
                    admits[idx] = None;
                }
                if let Some((shape, words)) = outcome {
                    if *idem_key != 0 {
                        dedup.insert(
                            *idem_key,
                            DedupEntry {
                                request_id: *request_id,
                                shape: *shape,
                                words: words.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
    let admits: Vec<RecoveredAdmit> = admits.into_iter().flatten().collect();

    // Compact: the live state (completed window + pending admits), nothing
    // else. Written to a sibling then renamed over the original, so a
    // crash mid-compaction leaves a whole file either way.
    let tmp = config.path.with_extension("compact");
    let mut out = Vec::new();
    out.extend_from_slice(&JOURNAL_MAGIC);
    for (key, entry) in dedup.iter_ordered() {
        out.extend_from_slice(&encode_record(&Record::Ack {
            request_id: entry.request_id,
            idem_key: key,
            outcome: Some((entry.shape, entry.words.clone())),
        }));
    }
    for a in &admits {
        out.extend_from_slice(&encode_record(&Record::Admit {
            request_id: a.request_id,
            idem_key: a.idem_key,
            model: a.model,
            class: a.class,
            deadline_ms: 0,
            shape: a.shape,
            words: a.words.clone(),
        }));
    }
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, &config.path)?;
    let file = OpenOptions::new().append(true).open(&config.path)?;
    let writer = JournalWriter::new(file, out.len() as u64, config);

    let report = RecoveryReport {
        records: outcome.records.len(),
        replayed: admits.len(),
        deduped: dedup.len(),
        torn_tail_bytes: match outcome.tail {
            TailState::Torn { bytes } => bytes,
            _ => 0,
        },
        quarantined_bytes: match outcome.tail {
            TailState::Corrupt { bytes } => bytes,
            _ => 0,
        },
        replayed_request_ids: admits.iter().map(|a| a.request_id).collect(),
        elapsed: start.elapsed(),
    };
    Ok(Recovery {
        writer,
        dedup,
        admits,
        report,
    })
}

/// Read the journal file's current on-disk image — the input
/// [`replay_bytes`] wants. Audit helper: the crash soak replays the
/// surviving file to check its invariants without starting a server.
///
/// # Errors
///
/// Any I/O error opening or reading the file.
pub fn read_file(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(id: u64, key: u64) -> Record {
        Record::Admit {
            request_id: id,
            idem_key: key,
            model: 3,
            class: 0,
            deadline_ms: 250,
            shape: (1, 2, 2),
            words: vec![1, -2, 3, -4],
        }
    }

    fn ack_ok(id: u64, key: u64) -> Record {
        Record::Ack {
            request_id: id,
            idem_key: key,
            outcome: Some(((1, 1, 2), vec![7, -7])),
        }
    }

    fn ack_fail(id: u64, key: u64) -> Record {
        Record::Ack {
            request_id: id,
            idem_key: key,
            outcome: None,
        }
    }

    fn file_with(records: &[Record]) -> Vec<u8> {
        let mut out = JOURNAL_MAGIC.to_vec();
        for r in records {
            out.extend_from_slice(&encode_record(r));
        }
        out
    }

    #[test]
    fn roundtrip_replays_every_record() {
        let recs = vec![admit(1, 10), ack_ok(1, 10), admit(2, 0), ack_fail(2, 0), admit(3, 30)];
        let out = replay_bytes(&file_with(&recs)).unwrap();
        assert_eq!(out.records, recs);
        assert_eq!(out.tail, TailState::Clean);
    }

    #[test]
    fn torn_tail_stops_at_last_whole_record() {
        let recs = vec![admit(1, 10), admit(2, 20)];
        let mut bytes = file_with(&recs);
        let whole = bytes.len();
        bytes.extend_from_slice(&encode_record(&admit(3, 30))[..9]);
        let out = replay_bytes(&bytes).unwrap();
        assert_eq!(out.records, recs);
        assert_eq!(
            out.tail,
            TailState::Torn {
                bytes: bytes.len() - whole
            }
        );
    }

    #[test]
    fn bit_flip_quarantines_the_record_suffix() {
        let recs = vec![admit(1, 10), admit(2, 20), admit(3, 30)];
        let mut bytes = file_with(&recs);
        // Flip a bit inside record 1's payload (past record 0).
        let rec_len = encode_record(&admit(1, 10)).len();
        let flip_at = JOURNAL_MAGIC.len() + rec_len + 10;
        bytes[flip_at] ^= 0x04;
        let out = replay_bytes(&bytes).unwrap();
        assert_eq!(out.records, vec![admit(1, 10)], "records before the flip survive");
        assert!(matches!(out.tail, TailState::Corrupt { .. }));
    }

    #[test]
    fn bad_magic_is_unrecoverable() {
        let mut bytes = file_with(&[admit(1, 1)]);
        bytes[0] ^= 0xff;
        assert!(matches!(replay_bytes(&bytes), Err(JournalError::BadMagic)));
        assert!(matches!(replay_bytes(b"NPC"), Err(JournalError::BadMagic)));
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[REC_ADMIT; 64]);
        let out = replay_bytes(&bytes).unwrap();
        assert!(out.records.is_empty());
        assert!(matches!(out.tail, TailState::Corrupt { .. }));
    }

    #[test]
    fn dedup_table_evicts_fifo_and_first_entry_wins() {
        let mut t = DedupTable::new(2);
        let e = |id| DedupEntry {
            request_id: id,
            shape: (1, 1, 1),
            words: vec![id as Word],
        };
        assert!(t.insert(1, e(1)));
        assert!(t.insert(2, e(2)));
        assert!(!t.insert(1, e(99)), "second completion of a key is the duplicate");
        assert_eq!(t.get(1).unwrap().request_id, 1, "first entry wins");
        assert!(t.insert(3, e(3)), "capacity 2: inserting 3 evicts 1 (oldest)");
        assert!(t.get(1).is_none());
        assert!(t.get(2).is_some());
        assert!(t.get(3).is_some());
        assert_eq!(t.len(), 2);
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("npcgra-journal-test-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn recover_fresh_then_write_then_recover_pairs_acks() {
        let path = temp_path("pairing");
        let _ = fs::remove_file(&path);
        let cfg = JournalConfig::new(&path).with_fsync_every(1);

        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.report.records, 0);
        assert_eq!(rec.report.replayed, 0);
        let mut w = rec.writer;
        w.append(&admit(1, 10)).unwrap();
        w.append(&ack_ok(1, 10)).unwrap();
        w.append(&admit(2, 20)).unwrap();
        w.append(&admit(3, 0)).unwrap();
        w.flush().unwrap();
        drop(w);

        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.report.records, 4);
        assert_eq!(rec.report.replayed, 2, "admits 2 and 3 were never acked");
        assert_eq!(rec.report.replayed_request_ids, vec![2, 3]);
        assert_eq!(rec.report.deduped, 1);
        assert_eq!(rec.report.torn_tail_bytes, 0);
        let d = rec.dedup.get(10).unwrap();
        assert_eq!(d.request_id, 1);
        assert_eq!(d.words, vec![7, -7]);
        assert_eq!(d.tensor().as_slice(), &[7, -7]);
        assert_eq!(rec.admits[0].request_id, 2);
        assert_eq!(rec.admits[0].tensor().as_slice(), &[1, -2, 3, -4]);

        // Recovery compacted: a third pass replays the same live state
        // from a file that holds exactly dedup + pending records.
        let rec2 = recover(&cfg).unwrap();
        assert_eq!(rec2.report.records, 3, "1 dedup ack + 2 pending admits");
        assert_eq!(rec2.report.replayed, 2);
        assert_eq!(rec2.report.deduped, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sever_leaves_a_torn_tail_recovery_tolerates() {
        let path = temp_path("sever");
        let _ = fs::remove_file(&path);
        // Big batch: appends stay buffered, nothing auto-syncs.
        let cfg = JournalConfig::new(&path)
            .with_fsync_every(1000)
            .with_fsync_interval(Duration::from_secs(3600));

        let rec = recover(&cfg).unwrap();
        let mut w = rec.writer;
        w.append(&admit(1, 10)).unwrap();
        w.flush().unwrap();
        w.append(&admit(2, 20)).unwrap();
        w.append(&admit(3, 30)).unwrap();
        w.sever(7).unwrap();
        // Dead writer: post-crash appends go nowhere.
        w.append(&admit(4, 40)).unwrap();
        w.flush().unwrap();
        drop(w);

        let rec = recover(&cfg).unwrap();
        assert_eq!(rec.report.records, 1, "only the flushed admit survived");
        assert_eq!(rec.report.replayed_request_ids, vec![1]);
        assert_eq!(rec.report.torn_tail_bytes, 7, "the torn write is discarded, not fatal");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fsync_batching_counts_syncs_not_appends() {
        let path = temp_path("batching");
        let _ = fs::remove_file(&path);
        let cfg = JournalConfig::new(&path)
            .with_fsync_every(4)
            .with_fsync_interval(Duration::from_secs(3600));
        let rec = recover(&cfg).unwrap();
        let mut w = rec.writer;
        for i in 0..8 {
            w.append(&admit(i, 0)).unwrap();
        }
        assert_eq!(w.appends, 8);
        assert_eq!(w.fsyncs, 2, "batch of 4: eight appends cost two syncs");
        w.flush().unwrap();
        assert_eq!(w.fsyncs, 2, "flush with an empty buffer does not sync again");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fsync_interval_is_checked_only_on_append() {
        let path = temp_path("interval");
        let _ = fs::remove_file(&path);
        let interval = Duration::from_millis(200);
        let cfg = JournalConfig::new(&path).with_fsync_every(8).with_fsync_interval(interval);
        let mut w = recover(&cfg).unwrap().writer;
        w.flush().unwrap(); // restart the interval clock; nothing to sync
        w.append(&admit(1, 10)).unwrap();
        std::thread::sleep(interval + Duration::from_millis(50));
        assert_eq!(w.fsyncs, 0, "no timer: a quiet tail stays unsynced past the interval");
        w.append(&admit(2, 20)).unwrap();
        assert_eq!(w.fsyncs, 1, "the next append finds the interval elapsed and syncs both");
        assert_eq!(w.pending, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn config_builders_compose() {
        let c = JournalConfig::new("/tmp/j.wal")
            .with_fsync_every(0)
            .with_fsync_interval(Duration::from_millis(9))
            .with_dedup_capacity(0);
        assert_eq!(c.fsync_every, 0, "stored raw; writer clamps to 1");
        assert_eq!(c.fsync_interval, Duration::from_millis(9));
        let t = DedupTable::new(c.dedup_capacity);
        assert!(t.capacity >= 1);
    }
}
