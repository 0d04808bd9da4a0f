//! Crash-safe on-disk warm-state tier below the in-memory LRUs.
//!
//! A [`Persist`] store keeps two record families under one state
//! directory, keyed by the problem fingerprint:
//!
//! * `outcomes/<keyhash>.rec` — finished solves, stored as the reply
//!   the service renders: the `result` text and the solve's latency,
//!   under their full result-cache key (fingerprint plus every training
//!   knob; thread counts excluded). Only untraced solves are stored.
//! * `prepared/<fingerprint>.rec` — compiled [`Prepared`] artifacts
//!   keyed on fingerprint alone.
//!
//! # Record format
//!
//! ```text
//! magic  "RSGN"        4 bytes
//! kind   u8            1 = solved, 2 = prepared
//! format u16 LE        codec version gate
//! length u64 LE        payload byte count
//! check  u64 LE        FNV-1a 64 over the payload
//! payload               the key, then the body
//! ```
//!
//! A solved payload is the encoded key, the `result` text (length
//! prefixed, UTF-8, parsed as JSON on every read), and six latency
//! `f64`s by bit pattern. A prepared payload is the `u128` fingerprint
//! and the `core::encode` codec bytes. The embedded key means a
//! filename-hash collision is detected by comparison — never served as
//! another key's data.
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
//! and counted — never deleted (it is evidence), never served. The
//! runtime read path applies the same gates, so records corrupted
//! after startup degrade to a miss-plus-quarantine and the caller
//! recomputes. Version-skewed records take the same path: there is no
//! migration, because every record is a cache of deterministic
//! computation. (Solved records written before they held rendered text
//! carry format 1 and are quarantined once, by the first scan.)
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

use rasengan_core::encode::{decode_prepared, encode_prepared, PREPARED_FORMAT};
use rasengan_core::latency::{Latency, StageTimes};
use rasengan_core::solver::{Outcome, Prepared};
use rasengan_obs::metrics::Registry;
use rasengan_qsim::parallel::derive_seed;
use rasengan_qsim::wire::{fnv64, WireError, WireReader, WireWriter};

use crate::json;
use crate::protocol::{render_outcome, SolveRequest};

const MAGIC: [u8; 4] = *b"RSGN";
/// magic + kind + format + length + checksum.
const HEADER_LEN: usize = 4 + 1 + 2 + 8 + 8;

const DIR_QUARANTINE: &str = "quarantine";
const DIR_TMP: &str = "tmp";

/// One record family: its directory, header kind byte, format number,
/// and the full payload decode the recovery scan runs on each record.
struct Family {
    dir: &'static str,
    kind: u8,
    format: u16,
    validate: fn(&mut WireReader) -> Result<(), WireError>,
}

/// Finished solves, as rendered text since format 2 (see the module
/// docs on format-1 records).
const SOLVED: Family = Family {
    dir: "outcomes",
    kind: 1,
    format: 2,
    validate: |r| {
        ResultKey::decode(r)?;
        Solved::decode(r).map(drop)
    },
};

const PREPARED: Family = Family {
    dir: "prepared",
    kind: 2,
    format: PREPARED_FORMAT,
    validate: |r| {
        r.u128()?;
        decode_prepared(r.rest()).map(drop)
    },
};

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

    fn encode(&self, w: &mut WireWriter) {
        w.u128(self.fingerprint);
        w.u64(self.seed);
        w.bool(self.shots.is_some());
        w.usize(self.shots.unwrap_or(0));
        w.bool(self.iterations.is_some());
        w.usize(self.iterations.unwrap_or(0));
        w.usize(self.retries);
        w.bool(self.degrade);
        w.bool(self.deadline_ms.is_some());
        w.u64(self.deadline_ms.unwrap_or(0));
        w.bool(self.trace);
    }

    fn decode(r: &mut WireReader) -> Result<ResultKey, WireError> {
        let fingerprint = r.u128()?;
        let seed = r.u64()?;
        let has_shots = r.bool()?;
        let shots = r.usize()?;
        let has_iterations = r.bool()?;
        let iterations = r.usize()?;
        let retries = r.usize()?;
        let degrade = r.bool()?;
        let has_deadline = r.bool()?;
        let deadline_ms = r.u64()?;
        Ok(ResultKey {
            fingerprint,
            seed,
            shots: has_shots.then_some(shots),
            iterations: has_iterations.then_some(iterations),
            retries,
            degrade,
            deadline_ms: has_deadline.then_some(deadline_ms),
            trace: r.bool()?,
        })
    }

    /// The record file stem: hex of FNV-1a 64 over the encoded key.
    /// Collisions are resolved by the key embedded in the payload.
    fn file_stem(&self) -> String {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        format!("{:016x}", fnv64(&w.into_bytes()))
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

    fn encode(&self, w: &mut WireWriter) {
        w.bytes(self.result.as_bytes());
        w.f64(self.latency.quantum_s);
        w.f64(self.latency.classical_s);
        w.f64(self.latency.stages.prepare_s);
        w.f64(self.latency.stages.train_s);
        w.f64(self.latency.stages.execute_s);
        w.f64(self.latency.stages.retry_s);
    }

    fn decode(r: &mut WireReader) -> Result<Solved, WireError> {
        let result = std::str::from_utf8(r.bytes()?)
            .map_err(|_| WireError::Invalid("result text is not UTF-8"))?;
        json::parse(result).map_err(|_| WireError::Invalid("result text is not JSON"))?;
        Ok(Solved {
            result: result.to_string(),
            latency: Latency {
                quantum_s: r.f64()?,
                classical_s: r.f64()?,
                stages: StageTimes {
                    prepare_s: r.f64()?,
                    train_s: r.f64()?,
                    execute_s: r.f64()?,
                    retry_s: r.f64()?,
                },
            },
            trace: None,
        })
    }
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

fn encode_record(family: &Family, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.push(family.kind);
    bytes.extend_from_slice(&family.format.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Validates header, kind, version, length, and checksum; returns the
/// payload slice. Decode gates run above this, on the payload.
fn open_record<'a>(bytes: &'a [u8], family: &Family) -> Result<&'a [u8], RecordGate> {
    if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC || bytes[4] != family.kind {
        return Err(RecordGate::Header);
    }
    let found = u16::from_le_bytes([bytes[5], bytes[6]]);
    if found != family.format {
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
enum Read<T> {
    /// No such file, or a sound record stored under another key whose
    /// file name collides with this one.
    Miss,
    /// Passed every gate.
    Valid(T),
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
        for sub in [SOLVED.dir, PREPARED.dir, DIR_QUARANTINE, DIR_TMP] {
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
        let mut w = WireWriter::new();
        key.encode(&mut w);
        solved.encode(&mut w);
        self.write_record(&SOLVED, &key.file_stem(), &w.into_bytes())
    }

    /// Loads the solve stored under `key`, or `None` on miss — where
    /// "miss" includes a missing file, a key-hash collision, and any
    /// record failing a validation gate (which is also quarantined).
    pub(crate) fn load_solved(&self, key: &ResultKey) -> Option<Solved> {
        let read = self.read_record(&SOLVED, &key.file_stem(), |r| {
            if ResultKey::decode(r)? != *key {
                return Ok(None);
            }
            Solved::decode(r).map(Some)
        });
        self.count_load(read)
    }

    /// Stores a compiled artifact under the problem fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the old record (if any) is intact.
    pub fn store_prepared(&self, fingerprint: u128, prepared: &Prepared) -> io::Result<()> {
        let mut payload = WireWriter::new();
        payload.u128(fingerprint);
        let mut payload = payload.into_bytes();
        payload.extend_from_slice(&encode_prepared(prepared));
        self.write_record(&PREPARED, &format!("{fingerprint:032x}"), &payload)
    }

    /// Loads the compiled artifact for `fingerprint`, or `None` on
    /// miss (missing, or quarantined — a record under the wrong
    /// fingerprint is corrupt, since the file name is the fingerprint).
    pub fn load_prepared(&self, fingerprint: u128) -> Option<Prepared> {
        let read = self.read_record(&PREPARED, &format!("{fingerprint:032x}"), |r| {
            if r.u128()? != fingerprint {
                return Err(WireError::Invalid("record under another fingerprint"));
            }
            decode_prepared(r.rest()).map(Some)
        });
        self.count_load(read)
    }

    /// Counts a serving-path read as a disk hit or miss; a quarantine
    /// was already counted when the file was renamed aside.
    fn count_load<T>(&self, read: Read<T>) -> Option<T> {
        match read {
            Read::Valid(value) => {
                self.bump(&self.disk_hits, "persist.disk_hit");
                Some(value)
            }
            Read::Miss => {
                self.bump(&self.disk_misses, "persist.disk_miss");
                None
            }
            Read::Quarantined => None,
        }
    }

    /// Reads one record and runs every gate on it: header, version and
    /// checksum, then `decode` over the payload, which must consume it
    /// exactly. `decode` answers `Ok(None)` for a sound record stored
    /// under another key (a miss); any failed gate quarantines the file.
    fn read_record<T>(
        &self,
        family: &Family,
        stem: &str,
        decode: impl FnOnce(&mut WireReader) -> Result<Option<T>, WireError>,
    ) -> Read<T> {
        let path = self.root.join(family.dir).join(format!("{stem}.rec"));
        let Ok(bytes) = fs::read(&path) else {
            return Read::Miss;
        };
        let gate = match open_record(&bytes, family) {
            Ok(payload) => {
                let mut r = WireReader::new(payload);
                match decode(&mut r).and_then(|value| r.finish().map(|()| value)) {
                    Ok(Some(value)) => return Read::Valid(value),
                    Ok(None) => return Read::Miss,
                    Err(_) => RecordGate::Decode,
                }
            }
            Err(gate) => gate,
        };
        self.quarantine(family.dir, stem, gate);
        Read::Quarantined
    }

    /// Temp-file + fsync + atomic-rename write of one record; the
    /// fault plan (if armed) corrupts the bytes on the way down.
    fn write_record(&self, family: &Family, stem: &str, payload: &[u8]) -> io::Result<()> {
        let record = encode_record(family, payload);
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
        let dir = self.root.join(family.dir);
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
    /// name that says which family and which gate failed.
    fn quarantine(&self, sub: &str, stem: &str, gate: RecordGate) {
        let from = self.root.join(sub).join(format!("{stem}.rec"));
        let to = self
            .root
            .join(DIR_QUARANTINE)
            .join(format!("{sub}.{stem}.{}.rec", gate.tag()));
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
        for family in [&SOLVED, &PREPARED] {
            let mut stems: Vec<String> = fs::read_dir(self.root.join(family.dir))?
                .filter_map(|entry| {
                    let name = entry.ok()?.file_name().into_string().ok()?;
                    Some(name.strip_suffix(".rec")?.to_string())
                })
                .collect();
            // Deterministic scan order, so quarantine counters and
            // file names replay identically under fault injection.
            stems.sort();
            for stem in stems {
                let read = self.read_record(family, &stem, |r| (family.validate)(r).map(Some));
                if let Read::Valid(()) = read {
                    self.bump(&self.recovered, "persist.recovered");
                }
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

    fn solved() -> (u128, ResultKey, Solved, Prepared) {
        let problem = benchmark(BenchmarkId::parse("F1").unwrap());
        let solver = Rasengan::new(
            RasenganConfig::default()
                .with_seed(5)
                .with_shots(128)
                .with_max_iterations(6),
        );
        let prepared = solver.prepare(&problem).unwrap();
        let outcome = solver.solve_prepared(&problem, &prepared).unwrap();
        let fingerprint = problem.fingerprint();
        let key = ResultKey {
            fingerprint,
            seed: 5,
            shots: Some(128),
            iterations: Some(6),
            retries: 0,
            degrade: false,
            deadline_ms: None,
            trace: false,
        };
        (fingerprint, key, Solved::render(&outcome), prepared)
    }

    #[test]
    fn solved_and_prepared_survive_reopen() {
        let dir = scratch("reopen");
        let (fingerprint, key, solved, prepared) = solved();
        {
            let store = Persist::open(&dir).unwrap();
            store.store_solved(&key, &solved).unwrap();
            store.store_prepared(fingerprint, &prepared).unwrap();
            assert_eq!(store.stats().flushes, 2);
        }
        let store = Persist::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 2, "scan validates both records");
        assert_eq!(store.stats().quarantined, 0);
        // The reloaded record serves the same `result` bytes and the
        // same latency, bit for bit.
        let loaded = store.load_solved(&key).expect("warm solve");
        assert_eq!(loaded.result, solved.result);
        assert_eq!(loaded, solved);
        let warm = store.load_prepared(fingerprint).expect("warm prepared");
        assert_eq!(warm.chain.ops, prepared.chain.ops);
        assert_eq!(store.stats().disk_hits, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_records_are_misses_not_errors() {
        let dir = scratch("miss");
        let (fingerprint, key, ..) = solved();
        let store = Persist::open(&dir).unwrap();
        assert!(store.load_solved(&key).is_none());
        assert!(store.load_prepared(fingerprint).is_none());
        assert_eq!(store.stats().disk_misses, 2);
        assert_eq!(store.stats().quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_knobs_address_distinct_records() {
        let dir = scratch("keys");
        let (_, key, solved, _) = solved();
        let store = Persist::open(&dir).unwrap();
        store.store_solved(&key, &solved).unwrap();
        let other = ResultKey {
            seed: key.seed + 1,
            ..key.clone()
        };
        assert!(store.load_solved(&other).is_none());
        assert!(store.load_solved(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_fault_class_is_quarantined_on_read() {
        let (fingerprint, key, solved, prepared) = solved();
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
            store.store_prepared(fingerprint, &prepared).unwrap();
            assert_eq!(store.stats().faults_injected, 2, "{kind}: faults fired");
            // Both reads must degrade to a miss and quarantine the
            // record; a second read is then a plain miss.
            assert!(store.load_solved(&key).is_none(), "{kind}");
            assert!(store.load_prepared(fingerprint).is_none(), "{kind}");
            assert!(
                store.stats().quarantined >= 1,
                "{kind}: corrupt records quarantined"
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
        let (_, key, solved, _) = solved();
        let store = Persist::open(&dir).unwrap();
        store.store_solved(&key, &solved).unwrap();
        let path = dir
            .join(SOLVED.dir)
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
        // decode fails the decode gate: trailing bytes, text that is
        // not UTF-8, and text that is not JSON.
        let mut w = WireWriter::new();
        key.encode(&mut w);
        solved.encode(&mut w);
        w.u8(0);
        check(&encode_record(&SOLVED, &w.into_bytes()), "trailing byte");
        for text in [&b"\xff\xfe"[..], b"{\"best\":"] {
            let mut w = WireWriter::new();
            key.encode(&mut w);
            w.bytes(text);
            for _ in 0..6 {
                w.f64(0.0);
            }
            check(&encode_record(&SOLVED, &w.into_bytes()), "bad text");
        }
        // The untouched record still loads.
        fs::write(&path, &record).unwrap();
        assert_eq!(store.load_solved(&key), Some(solved));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_prepared_records_error_instead_of_panicking() {
        let dir = scratch("corrupt-prepared");
        let (fingerprint, _, _, prepared) = solved();
        let store = Persist::open(&dir).unwrap();
        store.store_prepared(fingerprint, &prepared).unwrap();
        let path = dir
            .join(PREPARED.dir)
            .join(format!("{fingerprint:032x}.rec"));
        let record = fs::read(&path).unwrap();
        let quarantine = dir.join(DIR_QUARANTINE);
        let mut expected_quarantined = 0;
        // Plants `bytes` as the record, reads it back, and requires a
        // miss that renamed the file into `quarantine/`.
        let mut check = |bytes: &[u8], what: &str| {
            fs::write(&path, bytes).unwrap();
            assert!(
                store.load_prepared(fingerprint).is_none(),
                "{what} was served"
            );
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
        // The untouched record still loads.
        fs::write(&path, &record).unwrap();
        let loaded = store
            .load_prepared(fingerprint)
            .expect("intact record loads");
        assert_eq!(encode_prepared(&loaded), encode_prepared(&prepared));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_quarantines_and_cleans_tmp() {
        let dir = scratch("recover");
        let (fingerprint, key, solved, prepared) = solved();
        {
            let plan = StorageFaultPlan::every_write(7, StorageFault::BitFlip);
            let store = Persist::open_with(&dir, Some(plan), None).unwrap();
            store.store_solved(&key, &solved).unwrap();
            store.store_prepared(fingerprint, &prepared).unwrap();
        }
        // Crash residue: a stale temp file.
        fs::write(dir.join(DIR_TMP).join("stale.0.0.tmp"), b"half a record").unwrap();
        let store = Persist::open(&dir).unwrap();
        let stats = store.stats();
        assert_eq!(stats.tmp_cleaned, 1);
        assert_eq!(stats.quarantined, 2, "scan quarantines both bad records");
        assert_eq!(stats.recovered, 0);
        // The serving dirs are clean again: reads are plain misses.
        assert!(store.load_solved(&key).is_none());
        assert_eq!(store.stats().quarantined, 2, "no double quarantine");
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
        let mut record = encode_record(&SOLVED, &payload);
        let (skewed, fired) =
            StorageFaultPlan::every_write(1, StorageFault::VersionSkew).apply("r", record.clone());
        assert!(fired);
        assert_eq!(open_record(&skewed, &SOLVED), Err(RecordGate::Version));
        // So does a solved record in the retired binary format 1.
        let retired = encode_record(
            &Family {
                format: 1,
                ..SOLVED
            },
            &payload,
        );
        assert_eq!(open_record(&retired, &SOLVED), Err(RecordGate::Version));
        // The untouched record passes every gate.
        assert_eq!(open_record(&record, &SOLVED).unwrap(), &payload[..]);
        // And a flipped payload bit fails the checksum gate.
        let last = record.len() - 1;
        record[last] ^= 1;
        assert_eq!(open_record(&record, &SOLVED), Err(RecordGate::Checksum));
    }
}
