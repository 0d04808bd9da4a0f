//! Crash-safe on-disk warm-state tier below the in-memory LRUs.
//!
//! A [`Persist`] store keeps one record family under its state
//! directory: `outcomes/<keyhash>.rec`, finished solves stored as the
//! reply the service renders — the `result` text and the solve's
//! latency, under their full result-cache key (problem fingerprint plus
//! every training knob; thread counts excluded). Only untraced solves
//! are stored.
//!
//! `Solved` is the one form of a finished solve: the result cache holds
//! it, the fabric's read-through copy of a forwarded reply holds it, and
//! a record is its reply text. One decoder, `Solved::from_reply`, reads
//! both a record and an owner's reply.
//!
//! Compiles are not persisted: `Rasengan::prepare` costs less than
//! writing and fsyncing a record, so the service keeps them in its
//! in-memory compile cache only. A `prepared/` directory left by an
//! older build is never read, counted or removed.
//!
//! # Record format
//!
//! ```text
//! magic  "RSGN"        4 bytes
//! kind   u8            1 = solved
//! format u16 LE        version gate, 3
//! length u64 LE        payload byte count
//! check  u64 LE        FNV-1a 64 over the payload
//! payload               a rendered reply
//! ```
//!
//! The payload is written in the service's own reply grammar: an `OK`
//! status line and exactly three sections, in this order.
//!
//! ```text
//! RASENGAN/1 OK
//! key {"fingerprint":"0x…","seed":5,"shots":128,"iterations":6,…}
//! result {"best":{…},…}
//! timing {"quantum_s":…,"retry_s":0,"queue_s":0,"cache_hit":false}
//! ```
//!
//! `key` is the full key as canonical JSON, `result` the stored text
//! verbatim, and `timing` the solve's latency as [`timing_json`] writes
//! it. The file stem is FNV-1a 64 of the key text, and a filename-hash
//! collision is a byte comparison of key texts — never served as
//! another key's data. A read requires UTF-8, a reply
//! [`Reply::parse`] accepts with those three sections, a `result`
//! `json::parse` accepts, six finite latencies in `timing`, and a
//! reply that renders back to the payload byte for byte. The writer's
//! floats are shortest round-trip, so latencies read back bit-exact.
//!
//! # Crash safety
//!
//! Writes go through `tmp/<name>.<nonce>.tmp` → `write` → `fsync` →
//! atomic `rename` into place, then an fsync of the containing
//! directory. A `kill -9` at any instant leaves either the old record
//! or the new one; the only residue is a stale file under `tmp/`,
//! which the next [`Persist::open`] deletes.
//!
//! # Quarantine
//!
//! [`Persist::open`] runs a recovery scan: every record is fully
//! validated (magic, kind, version, length, checksum, payload decode)
//! and anything failing a gate is *renamed aside* into `quarantine/`
//! and counted — never deleted or overwritten (it is evidence), never
//! served. The runtime read path applies the same gates, so records
//! corrupted after startup degrade to a miss-plus-quarantine and the
//! caller recomputes. Version-skewed records take the same path: there
//! is no migration, because every record is a cache of deterministic
//! computation. (Records of the binary formats 1 and 2 that older
//! builds wrote are quarantined once, by the first scan.)
//!
//! # Fault injection
//!
//! In the spirit of `qsim::fault`, a [`StorageFaultPlan`] corrupts
//! record bytes *as they land on disk*, as a pure function of the plan
//! seed and the record name — torn writes, tail truncations, single
//! bit flips, version skews. The corruption matrix in CI replays the
//! exact same faults on every run.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rasengan_core::latency::Latency;
use rasengan_core::solver::Outcome;
use rasengan_obs::fnv64;
use rasengan_obs::json::{self, Json};
use rasengan_obs::metrics::Registry;
use rasengan_qsim::parallel::derive_seed;

use crate::protocol::{
    render_outcome, timing_json, timing_latency, Reply, ReplyStatus, SolveRequest,
};

const MAGIC: [u8; 4] = *b"RSGN";
/// magic + kind + format + length + checksum.
const HEADER_LEN: usize = 4 + 1 + 2 + 8 + 8;

const DIR_SOLVED: &str = "outcomes";
const DIR_QUARANTINE: &str = "quarantine";
const DIR_TMP: &str = "tmp";

/// Header kind byte of a solved record.
const SOLVED_KIND: u8 = 1;
/// Solved records are rendered replies since format 3 (see the module
/// docs on the binary formats 1 and 2).
const SOLVED_FORMAT: u16 = 3;

/// Everything a request sets that changes its reply — the key of the
/// result cache and of the solved records. Worker and engine thread
/// counts are deliberately absent: outcomes are bit-identical at any
/// parallelism, so a result computed under one thread configuration
/// serves every other.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub(crate) fingerprint: u128,
    pub(crate) seed: u64,
    pub(crate) shots: Option<usize>,
    pub(crate) iterations: Option<usize>,
    pub(crate) retries: usize,
    pub(crate) degrade: bool,
    pub(crate) deadline_ms: Option<u64>,
    /// Whether the reply carries a span tree. A traced and an untraced
    /// solve produce byte-identical `result` sections, but an untraced
    /// entry has no tree to put in the `trace` section, so the two must
    /// not share a cache slot. Traced solves are never written to disk.
    pub(crate) trace: bool,
}

impl ResultKey {
    pub(crate) fn new(fingerprint: u128, request: &SolveRequest, trace: bool) -> Self {
        ResultKey {
            fingerprint,
            seed: request.seed,
            shots: request.shots,
            iterations: request.iterations,
            retries: request.retries,
            degrade: request.degrade,
            deadline_ms: request.deadline_ms,
            trace,
        }
    }

    /// The key as canonical JSON, the `key` section of its record: the
    /// fingerprint as a hex string, an unset knob as `null`.
    fn text(&self) -> String {
        let int = |v: u64| Json::Int(v.into());
        let opt = |v: Option<u64>| v.map_or(Json::Null, int);
        let fingerprint = format!("{:#034x}", self.fingerprint);
        Json::obj(vec![
            ("fingerprint", Json::Str(fingerprint)),
            ("seed", int(self.seed)),
            ("shots", opt(self.shots.map(|n| n as u64))),
            ("iterations", opt(self.iterations.map(|n| n as u64))),
            ("retries", int(self.retries as u64)),
            ("degrade", Json::Bool(self.degrade)),
            ("deadline_ms", opt(self.deadline_ms)),
            ("trace", Json::Bool(self.trace)),
        ])
        .render()
    }

    /// The record file stem: hex of FNV-1a 64 over the key text.
    /// Collisions are resolved by the key text stored in the record.
    fn file_stem(&self) -> String {
        format!("{:016x}", fnv64(self.text()))
    }
}

/// A finished solve in the one form the service keeps it: the
/// canonical `result` text, the solve's latency, and the rendered span
/// tree when the request was traced (never persisted).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Solved {
    pub(crate) result: String,
    pub(crate) latency: Latency,
    pub(crate) trace: Option<String>,
}

impl Solved {
    /// Renders an outcome once; every later reply reuses the text.
    pub(crate) fn render(outcome: &Outcome) -> Solved {
        Solved {
            result: render_outcome(outcome),
            latency: outcome.latency,
            trace: outcome
                .trace
                .as_ref()
                .map(|tree| tree.deterministic_json().render()),
        }
    }

    /// The reply sections after `service`: the stored `result` text,
    /// `timing` for this request, and the `trace` text when there is
    /// one. The span tree rides in its own section so `result` stays
    /// byte-identical with and without tracing; it is the deterministic
    /// render (IDs and structure, no wall-clock), with no reactor or
    /// worker span added, so a served trace byte-matches an in-process
    /// solve's tree.
    pub(crate) fn sections(
        &self,
        latency: &Latency,
        queue_s: f64,
        cache_hit: bool,
    ) -> Vec<(String, String)> {
        let mut sections = vec![
            ("result".to_string(), self.result.clone()),
            (
                "timing".to_string(),
                timing_json(latency, queue_s, cache_hit).render(),
            ),
        ];
        if let Some(trace) = &self.trace {
            sections.push(("trace".to_string(), trace.clone()));
        }
        sections
    }

    /// Reads a finished solve back out of an `OK` reply — a record's
    /// payload or an owner's reply to a forward: `result` must parse as
    /// JSON and `timing` must carry the solve's latency. A `trace`
    /// section is kept as it is.
    pub(crate) fn from_reply(reply: &Reply) -> Option<Solved> {
        if reply.status != ReplyStatus::Ok {
            return None;
        }
        let result = reply.section("result")?;
        json::parse(result).ok()?;
        Some(Solved {
            result: result.to_string(),
            latency: timing_latency(&reply.json("timing").ok()?)?,
            trace: reply.section("trace").map(str::to_string),
        })
    }

    /// The record payload of this solve under `key`: an `OK` reply
    /// with the `key`, `result` and `timing` sections. The span tree
    /// is never stored.
    fn record(&self, key: &ResultKey) -> String {
        let timing = timing_json(&self.latency, 0.0, false).render();
        Reply {
            status: ReplyStatus::Ok,
            sections: vec![
                ("key".to_string(), key.text()),
                ("result".to_string(), self.result.clone()),
                ("timing".to_string(), timing),
            ],
        }
        .render()
    }
}

/// Decodes a record payload into its key text and solve. The payload
/// must be UTF-8 and a reply with exactly the `key`, `result` and
/// `timing` sections, in that order, that [`Solved::from_reply`] reads
/// and that renders back to the payload byte for byte.
fn decode_record(payload: &[u8]) -> Option<(String, Solved)> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut reply = Reply::parse(text).ok()?;
    let names = reply.sections.iter().map(|(name, _)| name.as_str());
    if !names.eq(["key", "result", "timing"]) || reply.render() != text {
        return None;
    }
    let solved = Solved::from_reply(&reply)?;
    Some((reply.sections.swap_remove(0).1, solved))
}

/// The storage fault classes, mirroring the corruption modes real
/// disks and crashes produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The record is cut at a seed-derived interior offset, as a crash
    /// mid-write would leave it without the atomic-rename protocol.
    TornWrite,
    /// A seed-derived number of tail bytes is dropped.
    Truncation,
    /// One seed-derived bit is flipped.
    BitFlip,
    /// The header's format version is bumped: the payload is intact
    /// and the checksum passes, so only the version gate catches it.
    VersionSkew,
}

impl std::fmt::Display for StorageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageFault::TornWrite => "torn-write",
            StorageFault::Truncation => "truncation",
            StorageFault::BitFlip => "bit-flip",
            StorageFault::VersionSkew => "version-skew",
        })
    }
}

/// Domain tags keeping the fire/parameter streams disjoint.
const TAG_FIRE: u64 = 0x5707_0001;
const TAG_PARAM: u64 = 0x5707_0002;

/// A deterministic, seed-derived schedule of storage corruption.
/// Every decision is a pure function of `(seed, record name)`, so a
/// corrupted record in one run is corrupted identically — same offset,
/// same bit — in every run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StorageFaultPlan {
    /// Base seed of the fault schedule.
    pub seed: u64,
    /// The fault class to inject.
    pub kind: StorageFault,
    /// Per-record-write probability of injection (clamped to `[0, 1]`,
    /// NaN → 0).
    pub rate: f64,
}

impl StorageFaultPlan {
    /// A plan injecting `kind` on every write.
    pub fn every_write(seed: u64, kind: StorageFault) -> Self {
        StorageFaultPlan {
            seed,
            kind,
            rate: 1.0,
        }
    }

    /// Sets the per-write injection probability.
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        self
    }

    fn site(&self, name: &str, tag: u64) -> u64 {
        derive_seed(derive_seed(self.seed, tag), fnv64(name.as_bytes()))
    }

    fn fires(&self, name: &str) -> bool {
        let unit = (self.site(name, TAG_FIRE) >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.rate
    }

    /// Applies the fault to the record bytes about to land on disk.
    /// Returns the (possibly corrupted) bytes and whether a fault
    /// fired.
    fn apply(&self, name: &str, mut bytes: Vec<u8>) -> (Vec<u8>, bool) {
        if bytes.len() <= 1 || !self.fires(name) {
            return (bytes, false);
        }
        let h = self.site(name, TAG_PARAM);
        match self.kind {
            StorageFault::TornWrite => {
                let cut = 1 + (h as usize) % (bytes.len() - 1);
                bytes.truncate(cut);
            }
            StorageFault::Truncation => {
                let drop = 1 + (h as usize) % 16;
                bytes.truncate(bytes.len().saturating_sub(drop));
            }
            StorageFault::BitFlip => {
                let bit = (h as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            StorageFault::VersionSkew => {
                // Format version lives at bytes 5..7 (after magic+kind).
                if bytes.len() >= 7 {
                    let skewed =
                        u16::from_le_bytes([bytes[5], bytes[6]]).wrapping_add(1 + (h as u16 % 7));
                    bytes[5..7].copy_from_slice(&skewed.to_le_bytes());
                }
            }
        }
        (bytes, true)
    }
}

/// Why a record failed validation — the quarantine reason, also used
/// as a per-reason metrics suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RecordGate {
    Header,
    Version,
    Checksum,
    Decode,
}

impl RecordGate {
    fn tag(self) -> &'static str {
        match self {
            RecordGate::Header => "header",
            RecordGate::Version => "version",
            RecordGate::Checksum => "checksum",
            RecordGate::Decode => "decode",
        }
    }
}

fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.push(SOLVED_KIND);
    bytes.extend_from_slice(&SOLVED_FORMAT.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Validates header, kind, version, length, and checksum; returns the
/// payload slice. Decode gates run above this, on the payload.
fn open_record(bytes: &[u8]) -> Result<&[u8], RecordGate> {
    if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC || bytes[4] != SOLVED_KIND {
        return Err(RecordGate::Header);
    }
    let found = u16::from_le_bytes([bytes[5], bytes[6]]);
    if found != SOLVED_FORMAT {
        return Err(RecordGate::Version);
    }
    let length = u64::from_le_bytes(bytes[7..15].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if length != payload.len() as u64 {
        return Err(RecordGate::Header);
    }
    let check = u64::from_le_bytes(bytes[15..23].try_into().unwrap());
    if fnv64(payload) != check {
        return Err(RecordGate::Checksum);
    }
    Ok(payload)
}

/// How one record read ended.
enum Read {
    /// No such file.
    Miss,
    /// Passed every gate: the stored key text and solve.
    Valid(String, Solved),
    /// Failed a gate and was renamed into `quarantine/`.
    Quarantined,
}

/// Counters of one store, mirrored into the obs registry under
/// `persist.*` when one is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Disk-tier reads that produced a validated record.
    pub disk_hits: u64,
    /// Disk-tier reads that found nothing (or a key-hash collision).
    pub disk_misses: u64,
    /// Records renamed into `quarantine/` after failing a gate.
    pub quarantined: u64,
    /// Records durably written (temp + fsync + rename completed).
    pub flushes: u64,
    /// Record writes the fault plan corrupted on the way down.
    pub faults_injected: u64,
    /// Records that passed every gate in the startup recovery scan.
    pub recovered: u64,
    /// Stale `tmp/` files deleted at startup (crash residue).
    pub tmp_cleaned: u64,
}

/// The crash-safe on-disk store. All operations are `&self` and
/// thread-safe; the atomic-rename protocol makes concurrent writers of
/// the same record last-writer-wins with no torn state.
pub struct Persist {
    root: PathBuf,
    faults: Option<StorageFaultPlan>,
    registry: Option<&'static Registry>,
    nonce: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    quarantined: AtomicU64,
    flushes: AtomicU64,
    faults_injected: AtomicU64,
    recovered: AtomicU64,
    tmp_cleaned: AtomicU64,
}

impl Persist {
    /// Opens (creating if needed) a state directory and runs the
    /// recovery scan: stale temp files are deleted, every record is
    /// fully validated, and failures are quarantined and counted.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory tree cannot be
    /// created or listed. Individual bad records are never an error —
    /// they are quarantined.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Persist> {
        Self::open_with(root, None, None)
    }

    /// [`Persist::open`] with an optional fault plan (applied to every
    /// subsequent write) and an optional metrics registry to mirror
    /// the counters into.
    pub fn open_with(
        root: impl Into<PathBuf>,
        faults: Option<StorageFaultPlan>,
        registry: Option<&'static Registry>,
    ) -> io::Result<Persist> {
        let root = root.into();
        for sub in [DIR_SOLVED, DIR_QUARANTINE, DIR_TMP] {
            fs::create_dir_all(root.join(sub))?;
        }
        let store = Persist {
            root,
            faults,
            registry,
            nonce: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            tmp_cleaned: AtomicU64::new(0),
        };
        store.recover()?;
        Ok(store)
    }

    /// The state directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the store counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            tmp_cleaned: self.tmp_cleaned.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, counter: &AtomicU64, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(registry) = self.registry {
            registry.counter_add(name, 1);
        }
    }

    /// Stores an untraced solve under its full key. Traced keys are the
    /// caller's to exclude: the record never carries the span tree.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the store is unchanged (the old
    /// record, if any, is intact).
    pub(crate) fn store_solved(&self, key: &ResultKey, solved: &Solved) -> io::Result<()> {
        self.write_record(&key.file_stem(), solved.record(key).as_bytes())
    }

    /// Loads the solve stored under `key`, or `None` on miss — where
    /// "miss" includes a missing file, a key-hash collision, and any
    /// record failing a validation gate (which is also quarantined).
    pub(crate) fn load_solved(&self, key: &ResultKey) -> Option<Solved> {
        // A quarantine was already counted when the file was renamed
        // aside.
        match self.read_record(&key.file_stem()) {
            Read::Valid(text, solved) if text == key.text() => {
                self.bump(&self.disk_hits, "persist.disk_hit");
                Some(solved)
            }
            // A sound record under another key whose file name
            // collides with this one is a miss too.
            Read::Valid(..) | Read::Miss => {
                self.bump(&self.disk_misses, "persist.disk_miss");
                None
            }
            Read::Quarantined => None,
        }
    }

    /// Reads one record and runs every gate on it: header, version and
    /// checksum, then [`decode_record`] over the payload. Any failed
    /// gate quarantines the file.
    fn read_record(&self, stem: &str) -> Read {
        let path = self.root.join(DIR_SOLVED).join(format!("{stem}.rec"));
        let Ok(bytes) = fs::read(&path) else {
            return Read::Miss;
        };
        let gate = match open_record(&bytes) {
            Ok(payload) => match decode_record(payload) {
                Some((text, solved)) => return Read::Valid(text, solved),
                None => RecordGate::Decode,
            },
            Err(gate) => gate,
        };
        self.quarantine(stem, gate);
        Read::Quarantined
    }

    /// Temp-file + fsync + atomic-rename write of one record; the
    /// fault plan (if armed) corrupts the bytes on the way down.
    fn write_record(&self, stem: &str, payload: &[u8]) -> io::Result<()> {
        let record = encode_record(payload);
        let record = match &self.faults {
            Some(plan) => {
                let (bytes, fired) = plan.apply(stem, record);
                if fired {
                    self.bump(&self.faults_injected, "persist.fault_injected");
                }
                bytes
            }
            None => record,
        };
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join(DIR_TMP)
            .join(format!("{stem}.{}.{nonce}.tmp", std::process::id()));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&record)?;
            file.sync_all()?;
        }
        let dir = self.root.join(DIR_SOLVED);
        let result = fs::rename(&tmp, dir.join(format!("{stem}.rec")));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
            return result;
        }
        // Make the rename itself durable: fsync the directory entry.
        if let Ok(handle) = File::open(&dir) {
            let _ = handle.sync_all();
        }
        self.bump(&self.flushes, "persist.flush");
        Ok(())
    }

    /// Renames a failed record aside into `quarantine/` and counts it,
    /// total and per-gate. The record is kept as evidence, under a
    /// name that says which directory and which gate failed; a record
    /// that fails the same gate again takes the first free index
    /// (`.1`, `.2`, …), so no earlier evidence is overwritten.
    fn quarantine(&self, stem: &str, gate: RecordGate) {
        let from = self.root.join(DIR_SOLVED).join(format!("{stem}.rec"));
        let base = format!("{DIR_SOLVED}.{stem}.{}", gate.tag());
        let quarantine = self.root.join(DIR_QUARANTINE);
        let mut to = quarantine.join(format!("{base}.rec"));
        for index in 1.. {
            if !to.exists() {
                break;
            }
            to = quarantine.join(format!("{base}.{index}.rec"));
        }
        let _ = fs::rename(&from, &to);
        self.bump(&self.quarantined, "persist.quarantined");
        if let Some(registry) = self.registry {
            registry.counter_add(&format!("persist.quarantine.{}", gate.tag()), 1);
        }
    }

    /// Startup recovery: delete stale temp files (crash residue), then
    /// validate every record end-to-end — header gates *and* payload
    /// decode — quarantining failures so the serving path starts from
    /// a fully trusted index.
    fn recover(&self) -> io::Result<()> {
        for entry in fs::read_dir(self.root.join(DIR_TMP))? {
            let entry = entry?;
            if fs::remove_file(entry.path()).is_ok() {
                self.bump(&self.tmp_cleaned, "persist.tmp_cleaned");
            }
        }
        let mut stems: Vec<String> = fs::read_dir(self.root.join(DIR_SOLVED))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                Some(name.strip_suffix(".rec")?.to_string())
            })
            .collect();
        // Deterministic scan order, so quarantine counters and file
        // names replay identically under fault injection.
        stems.sort();
        for stem in stems {
            if let Read::Valid(..) = self.read_record(&stem) {
                self.bump(&self.recovered, "persist.recovered");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasengan_core::solver::{Rasengan, RasenganConfig};
    use rasengan_problems::registry::{benchmark, BenchmarkId};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rasengan-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn solved() -> (ResultKey, Solved) {
        let problem = benchmark(BenchmarkId::parse("F1").unwrap());
        let solver = Rasengan::new(
            RasenganConfig::default()
                .with_seed(5)
                .with_shots(128)
                .with_max_iterations(6),
        );
        let outcome = solver.solve(&problem).unwrap();
        let key = ResultKey {
            fingerprint: problem.fingerprint(),
            seed: 5,
            shots: Some(128),
            iterations: Some(6),
            retries: 0,
            degrade: false,
            deadline_ms: None,
            trace: false,
        };
        (key, Solved::render(&outcome))
    }

    #[test]
    fn solved_and_prepared_survive_reopen() {
        let dir = scratch("reopen");
        let (key, solved) = solved();
        {
            let store = Persist::open(&dir).unwrap();
            store.store_solved(&key, &solved).unwrap();
            assert_eq!(store.stats().flushes, 1);
        }
        let store = Persist::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1, "scan validates the record");
        assert_eq!(store.stats().quarantined, 0);
        // The reloaded record serves the same `result` bytes and the
        // same latency, bit for bit.
        let loaded = store.load_solved(&key).expect("warm solve");
        assert_eq!(loaded.result, solved.result);
        assert_eq!(loaded, solved);
        assert_eq!(store.stats().disk_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ok_reply_sections_read_back_as_the_stored_solve() {
        let (_, solved) = solved();
        let traced = Solved {
            trace: Some(r#"{"label":"solve"}"#.to_string()),
            ..solved.clone()
        };
        for stored in [solved, traced] {
            // An `OK` reply as the service sends a hit: its `service`
            // section, then the stored solve's sections.
            let mut sections = vec![("service".to_string(), r#"{"cache":"hit"}"#.to_string())];
            sections.extend(stored.sections(&stored.latency, 0.125, true));
            let ok = Reply {
                status: ReplyStatus::Ok,
                sections,
            };
            let reply = Reply::parse(&ok.render()).unwrap();
            assert_eq!(Solved::from_reply(&reply).as_ref(), Some(&stored));
            let error = Reply {
                status: ReplyStatus::Error,
                ..reply
            };
            assert_eq!(Solved::from_reply(&error), None, "only an OK is a solve");
        }
    }

    #[test]
    fn missing_records_are_misses_not_errors() {
        let dir = scratch("miss");
        let (key, _) = solved();
        let store = Persist::open(&dir).unwrap();
        assert!(store.load_solved(&key).is_none());
        assert_eq!(store.stats().disk_misses, 1);
        assert_eq!(store.stats().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_knobs_address_distinct_records() {
        let dir = scratch("keys");
        let (key, solved) = solved();
        let store = Persist::open(&dir).unwrap();
        store.store_solved(&key, &solved).unwrap();
        let other = ResultKey {
            seed: key.seed + 1,
            ..key.clone()
        };
        assert!(store.load_solved(&other).is_none());
        assert!(store.load_solved(&key).is_some());
        // A sound record under a colliding file name is a miss, not a
        // hit and not a quarantine.
        let records = dir.join(DIR_SOLVED);
        fs::copy(
            records.join(format!("{}.rec", key.file_stem())),
            records.join(format!("{}.rec", other.file_stem())),
        )
        .unwrap();
        assert!(store.load_solved(&other).is_none());
        assert_eq!(store.stats().disk_misses, 2);
        assert_eq!(store.stats().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fault_class_is_quarantined_on_read() {
        let (key, solved) = solved();
        for kind in [
            StorageFault::TornWrite,
            StorageFault::Truncation,
            StorageFault::BitFlip,
            StorageFault::VersionSkew,
        ] {
            let dir = scratch(&format!("fault-{kind}"));
            let plan = StorageFaultPlan::every_write(42, kind);
            let store = Persist::open_with(&dir, Some(plan), None).unwrap();
            store.store_solved(&key, &solved).unwrap();
            assert_eq!(store.stats().faults_injected, 1, "{kind}: fault fired");
            // The read must degrade to a miss and quarantine the
            // record.
            assert!(store.load_solved(&key).is_none(), "{kind}");
            assert_eq!(
                store.stats().quarantined,
                1,
                "{kind}: corrupt record quarantined"
            );
            assert_eq!(store.stats().disk_hits, 0, "{kind}: nothing served");
            let quarantined: Vec<_> = fs::read_dir(dir.join(DIR_QUARANTINE))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            assert!(!quarantined.is_empty(), "{kind}: files renamed aside");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_solved_records_error_instead_of_panicking() {
        let dir = scratch("corrupt-solved");
        let (key, solved) = solved();
        let store = Persist::open(&dir).unwrap();
        store.store_solved(&key, &solved).unwrap();
        let path = dir
            .join(DIR_SOLVED)
            .join(format!("{}.rec", key.file_stem()));
        let record = fs::read(&path).unwrap();
        let quarantine = dir.join(DIR_QUARANTINE);
        let mut expected_quarantined = 0;
        // Plants `bytes` as the record, reads it back, and requires a
        // miss that renamed the file into `quarantine/`.
        let mut check = |bytes: &[u8], what: &str| {
            fs::write(&path, bytes).unwrap();
            assert!(store.load_solved(&key).is_none(), "{what} was served");
            expected_quarantined += 1;
            assert_eq!(store.stats().quarantined, expected_quarantined, "{what}");
            assert!(!path.exists(), "{what} left in place");
            for entry in fs::read_dir(&quarantine).unwrap() {
                fs::remove_file(entry.unwrap().path()).unwrap();
            }
        };
        for cut in 0..record.len() {
            check(&record[..cut], &format!("truncation at {cut}"));
        }
        for bit in 0..record.len() * 8 {
            let mut flipped = record.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("bit flip {bit}"));
        }
        // A payload whose checksum matches but whose body does not
        // decode fails the decode gate.
        let reply = |sections: &[(&str, &[u8])]| {
            let mut bytes = b"RASENGAN/1 OK\n".to_vec();
            for (name, body) in sections {
                bytes.extend_from_slice(name.as_bytes());
                bytes.push(b' ');
                bytes.extend_from_slice(body);
                bytes.push(b'\n');
            }
            bytes
        };
        let timing = timing_json(&solved.latency, 0.0, false);
        let Json::Obj(mut fields) = timing.clone() else {
            unreachable!("timing is an object")
        };
        fields.retain(|(name, _)| name != "retry_s");
        let (timing, short_timing) = (timing.render(), Json::Obj(fields).render());
        let (k, r, t) = (key.text(), solved.result.as_bytes(), timing.as_bytes());
        let k = k.as_bytes();
        let payload = solved.record(&key);
        assert_eq!(
            reply(&[("key", k), ("result", r), ("timing", t)]),
            payload.as_bytes()
        );
        for (bytes, what) in [
            (
                reply(&[("key", k), ("result", b"\xff\xfe"), ("timing", t)]),
                "non-UTF-8 result",
            ),
            (
                reply(&[("key", k), ("result", b"{\"best\":"), ("timing", t)]),
                "non-JSON result",
            ),
            (
                reply(&[
                    ("key", k),
                    ("result", r),
                    ("timing", short_timing.as_bytes()),
                ]),
                "timing without retry_s",
            ),
            (
                payload.replacen("\nresult ", "\n\nresult ", 1).into_bytes(),
                "extra blank line",
            ),
            (
                reply(&[("key", k), ("timing", t), ("result", r)]),
                "sections out of order",
            ),
            (
                reply(&[("key", k), ("result", r), ("timing", t), ("trace", b"{}")]),
                "a fourth section",
            ),
            (
                payload.replacen(" OK\n", " ERROR\n", 1).into_bytes(),
                "ERROR status",
            ),
        ] {
            check(&encode_record(&bytes), what);
        }
        // The untouched record still loads.
        fs::write(&path, &record).unwrap();
        assert_eq!(store.load_solved(&key), Some(solved));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn requarantined_record_keeps_both_files() {
        let dir = scratch("requarantine");
        let (key, _) = solved();
        let store = Persist::open(&dir).unwrap();
        let path = dir
            .join(DIR_SOLVED)
            .join(format!("{}.rec", key.file_stem()));
        // The same junk twice fails the same gate under the same stem;
        // the second quarantine must not replace the first file.
        for round in 1..=2 {
            fs::write(&path, b"junk").unwrap();
            assert!(store.load_solved(&key).is_none(), "round {round}");
        }
        assert_eq!(store.stats().quarantined, 2);
        let mut names: Vec<String> = fs::read_dir(dir.join(DIR_QUARANTINE))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let stem = key.file_stem();
        assert_eq!(
            names,
            [
                format!("outcomes.{stem}.header.1.rec"),
                format!("outcomes.{stem}.header.rec"),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepared_directory_from_an_older_build_is_inert() {
        let dir = scratch("old-prepared");
        let (key, solved) = solved();
        Persist::open(&dir)
            .unwrap()
            .store_solved(&key, &solved)
            .unwrap();
        // Older builds also persisted compiles under `prepared/`.
        let prepared = dir
            .join("prepared")
            .join(format!("{:032x}.rec", 0xabcd_u128));
        fs::create_dir_all(prepared.parent().unwrap()).unwrap();
        let bytes = b"RSGN\x02 an old compile record".to_vec();
        fs::write(&prepared, &bytes).unwrap();
        let store = Persist::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1);
        assert_eq!(store.stats().quarantined, 0);
        assert_eq!(fs::read(&prepared).unwrap(), bytes, "left untouched");
        assert_eq!(store.load_solved(&key), Some(solved));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_quarantines_and_cleans_tmp() {
        let dir = scratch("recover");
        let (key, solved) = solved();
        {
            let plan = StorageFaultPlan::every_write(7, StorageFault::BitFlip);
            let store = Persist::open_with(&dir, Some(plan), None).unwrap();
            store.store_solved(&key, &solved).unwrap();
        }
        // Crash residue: a stale temp file.
        fs::write(dir.join(DIR_TMP).join("stale.0.0.tmp"), b"half a record").unwrap();
        let store = Persist::open(&dir).unwrap();
        let stats = store.stats();
        assert_eq!(stats.tmp_cleaned, 1);
        assert_eq!(stats.quarantined, 1, "scan quarantines the bad record");
        assert_eq!(stats.recovered, 0);
        // The serving dirs are clean again: reads are plain misses.
        assert!(store.load_solved(&key).is_none());
        assert_eq!(store.stats().quarantined, 1, "no double quarantine");
        // Healthy writes now land and survive another reopen.
        store.store_solved(&key, &solved).unwrap();
        drop(store);
        let reopened = Persist::open(&dir).unwrap();
        assert_eq!(reopened.stats().recovered, 1);
        assert_eq!(reopened.load_solved(&key).unwrap(), solved);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_is_deterministic_per_record_name() {
        let plan = StorageFaultPlan::every_write(9, StorageFault::BitFlip);
        let bytes = vec![0u8; 64];
        let (a, fired_a) = plan.apply("somerecord", bytes.clone());
        let (b, fired_b) = plan.apply("somerecord", bytes.clone());
        assert!(fired_a && fired_b);
        assert_eq!(a, b, "same name, same corruption");
        let (c, _) = plan.apply("otherrecord", bytes);
        assert_ne!(a, c, "different names corrupt differently");
        let silent = plan.with_rate(0.0);
        let (d, fired_d) = silent.apply("somerecord", vec![0u8; 64]);
        assert!(!fired_d);
        assert_eq!(d, vec![0u8; 64]);
    }

    #[test]
    fn version_skew_passes_checksum_but_fails_version_gate() {
        let payload = b"payload bytes".to_vec();
        let mut record = encode_record(&payload);
        let (skewed, fired) =
            StorageFaultPlan::every_write(1, StorageFault::VersionSkew).apply("r", record.clone());
        assert!(fired);
        assert_eq!(open_record(&skewed), Err(RecordGate::Version));
        // So do solved records in the retired binary formats 1 and 2.
        for format in [1u16, 2] {
            let mut retired = record.clone();
            retired[5..7].copy_from_slice(&format.to_le_bytes());
            assert_eq!(open_record(&retired), Err(RecordGate::Version));
        }
        // The untouched record passes every gate.
        assert_eq!(open_record(&record).unwrap(), &payload[..]);
        // And a flipped payload bit fails the checksum gate.
        let last = record.len() - 1;
        record[last] ^= 1;
        assert_eq!(open_record(&record), Err(RecordGate::Checksum));
    }
}
