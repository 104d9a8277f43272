//! Deterministic, self-healing results cache for sweeps.
//!
//! Keyed by [`crate::cache_key_for`]: an FNV-1a hash of everything that
//! determines a sweep's outcome — app identity + dataset fingerprint, the run
//! configuration, the knob space, the search budget, and the full description
//! (cost model included) of every device priced. Two layers: a process-wide
//! in-memory map, and an optional on-disk directory (one file per key,
//! written atomically) so repeated `tune`/`fleet` invocations across
//! processes are O(1). There is one entry format for every sweep, the
//! byte-exact [`TuneReport::to_text`] form; a hit reparses it, so a cached
//! report is guaranteed identical to what the original sweep produced, and an
//! entry that does not parse (a stale payload schema) is quarantined like a
//! corrupt one.
//!
//! The disk layer defends itself rather than trusting the filesystem:
//!
//! * Every file carries a versioned envelope header with an FNV-1a checksum
//!   and payload length. Corrupt, truncated, or stale-schema files fail
//!   validation, are renamed to `<file>.corrupt` for post-mortem, counted in
//!   `tune.cache.corrupt` / `tune.cache.quarantined`, and treated as plain
//!   misses.
//! * If the directory cannot be written (read-only volume, permission
//!   change), the handle degrades to memory-only with a single
//!   [`dpcons_obs::warn_once`] warning — a broken cache never fails a sweep.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::report::TuneReport;

/// FNV-1a over a byte stream — stable across platforms and Rust versions
/// (unlike `DefaultHasher`, which is not guaranteed), so cache keys written
/// by one build are valid for the next.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf29ce484222325)
    }

    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        self
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xFF])
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Hash a whole byte slice in one go.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv64::new().write(bytes).finish()
}

// ----------------------------------------------------------- disk envelope --

/// Version tag of the on-disk envelope (independent of the payload schema —
/// bump only when the header format itself changes).
const ENVELOPE_HEADER: &str = "dpcons-cache v1";

/// Wrap entry text in the validated on-disk form:
/// `dpcons-cache v1 <fnv1a(payload):016x> <payload byte length>\n<payload>`.
fn encode_envelope(payload: &str) -> String {
    format!("{ENVELOPE_HEADER} {:016x} {}\n{payload}", fnv1a(payload.as_bytes()), payload.len())
}

/// Validate an on-disk entry and return its payload, or a reason it is not
/// trustworthy (corruption, truncation, or a stale envelope schema).
fn decode_envelope(raw: &str) -> Result<&str, String> {
    let Some((header, payload)) = raw.split_once('\n') else {
        return Err("missing envelope header line".to_string());
    };
    let Some(rest) = header.strip_prefix(ENVELOPE_HEADER) else {
        return Err(format!("stale or foreign envelope header `{header}`"));
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let [checksum_hex, len_str] = fields[..] else {
        return Err(format!("malformed envelope header `{header}`"));
    };
    let checksum = u64::from_str_radix(checksum_hex, 16)
        .map_err(|_| format!("unreadable envelope checksum `{checksum_hex}`"))?;
    let len: usize =
        len_str.parse().map_err(|_| format!("unreadable envelope length `{len_str}`"))?;
    if payload.len() != len {
        return Err(format!(
            "truncated entry: expected {len} payload bytes, found {}",
            payload.len()
        ));
    }
    if fnv1a(payload.as_bytes()) != checksum {
        return Err("checksum mismatch: entry bytes were altered on disk".to_string());
    }
    Ok(payload)
}

// ------------------------------------------------------------------ layers --

fn memory() -> &'static Mutex<HashMap<u64, String>> {
    static MEM: OnceLock<Mutex<HashMap<u64, String>>> = OnceLock::new();
    MEM.get_or_init(|| Mutex::new(HashMap::new()))
}

// The map holds plain strings, so a thread that panicked mid-operation left
// it in a consistent state; recover instead of propagating the poison.
fn mem() -> MutexGuard<'static, HashMap<u64, String>> {
    memory().lock().unwrap_or_else(PoisonError::into_inner)
}

/// `tune.cache.{hits,misses,writes}` counters, cached once per process.
fn cache_counters(
) -> (&'static dpcons_obs::Counter, &'static dpcons_obs::Counter, &'static dpcons_obs::Counter) {
    static C: OnceLock<(
        &'static dpcons_obs::Counter,
        &'static dpcons_obs::Counter,
        &'static dpcons_obs::Counter,
    )> = OnceLock::new();
    *C.get_or_init(|| {
        (
            dpcons_obs::counter("tune.cache.hits"),
            dpcons_obs::counter("tune.cache.misses"),
            dpcons_obs::counter("tune.cache.writes"),
        )
    })
}

/// The two-layer cache handle. `dir: None` disables the disk layer.
#[derive(Debug, Clone)]
pub struct Cache {
    pub dir: Option<PathBuf>,
    // Set when a disk write fails; shared across clones so one handle's
    // discovery that the directory is unwritable silences the rest.
    disk_disabled: Arc<AtomicBool>,
}

impl Cache {
    pub fn new(dir: Option<PathBuf>) -> Cache {
        Cache { dir, disk_disabled: Arc::new(AtomicBool::new(false)) }
    }

    /// A disk-backed cache in the platform temp directory (shared across
    /// processes on the same machine).
    pub fn in_temp_dir() -> Cache {
        Cache::new(Some(std::env::temp_dir().join("dpcons-tune-cache")))
    }

    fn path_for(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.tune"))
    }

    /// Whether this handle has degraded to memory-only mode.
    pub fn disk_disabled(&self) -> bool {
        self.disk_disabled.load(Ordering::Relaxed)
    }

    fn disk_dir(&self) -> Option<&Path> {
        if self.disk_disabled() {
            return None;
        }
        self.dir.as_deref()
    }

    fn disable_disk(&self, dir: &Path, err: &str) {
        if !self.disk_disabled.swap(true, Ordering::Relaxed) {
            dpcons_obs::warn_once(
                &format!("tune.cache.disk-disabled:{}", dir.display()),
                &format!(
                    "tune cache: cannot write {} ({err}); continuing memory-only",
                    dir.display()
                ),
            );
        }
    }

    /// Look a key up (memory first, then disk). Corrupt or unparseable disk
    /// entries are quarantined and treated as misses.
    pub fn get(&self, key: u64) -> Option<TuneReport> {
        let (hits, misses, _) = cache_counters();
        let found = self.get_report_uncounted(key);
        if found.is_some() {
            hits.inc()
        } else {
            misses.inc()
        }
        found
    }

    fn get_report_uncounted(&self, key: u64) -> Option<TuneReport> {
        if let Some(text) = mem().get(&key) {
            if let Ok(r) = TuneReport::from_text(text) {
                return Some(r);
            }
        }
        let text = self.read_disk(key)?;
        match TuneReport::from_text(&text) {
            Ok(r) => {
                mem().insert(key, text);
                Some(r)
            }
            Err(reason) => {
                self.quarantine_key(key, &reason);
                None
            }
        }
    }

    /// Read one key from disk, validating the envelope. Validation failures
    /// quarantine the file and report a miss.
    fn read_disk(&self, key: u64) -> Option<String> {
        let dir = self.disk_dir()?;
        let path = Self::path_for(dir, key);
        let raw = std::fs::read_to_string(&path).ok()?;
        match decode_envelope(&raw) {
            Ok(payload) => Some(payload.to_string()),
            Err(reason) => {
                Self::quarantine(&path, &reason);
                None
            }
        }
    }

    /// Move an entry whose payload did not parse (stale payload schema) aside
    /// as `<file>.corrupt` and drop it from the memory layer, so it reads as
    /// a miss from now on.
    fn quarantine_key(&self, key: u64, reason: &str) {
        mem().remove(&key);
        if let Some(dir) = self.dir.as_deref() {
            let path = Self::path_for(dir, key);
            if path.exists() {
                Self::quarantine(&path, reason);
            }
        }
    }

    fn quarantine(path: &Path, reason: &str) {
        dpcons_obs::counter("tune.cache.corrupt").inc();
        let mut corrupt = path.as_os_str().to_os_string();
        corrupt.push(".corrupt");
        if std::fs::rename(path, Path::new(&corrupt)).is_ok() {
            dpcons_obs::counter("tune.cache.quarantined").inc();
        }
        dpcons_obs::warn_once(
            &format!("tune.cache.corrupt:{}", path.display()),
            &format!("tune cache: quarantined {} ({reason})", path.display()),
        );
    }

    /// Store a report under its key. Disk writes are enveloped and atomic
    /// (tmp + rename); on I/O failure the handle degrades to memory-only with
    /// one warning — the cache is an accelerator, not a correctness
    /// dependency.
    ///
    /// Cost, on a 2-core Linux VM with ext4, over 24 puts of a 4.8 kB SSSP
    /// report into a fresh directory: 110–260 µs, about half of it
    /// `to_text` (57–96 µs); `create_dir_all` 16–137 µs, the write 18–212 µs,
    /// the rename 7–19 µs. There is no `fsync`; the rare 1 ms+ put is one of
    /// those metadata calls stalling in the filesystem, not the cache's own
    /// work. The tmp + rename stays: it is what keeps a reader from ever
    /// seeing a half-written entry.
    pub fn put(&self, key: u64, report: &TuneReport) {
        cache_counters().2.inc();
        let text = report.to_text();
        if let Some(dir) = self.disk_dir() {
            if let Err(e) = Self::write_disk(dir, key, &text) {
                self.disable_disk(dir, &e);
            }
        }
        mem().insert(key, text);
    }

    fn write_disk(dir: &Path, key: u64, text: &str) -> Result<(), String> {
        // One temp file per write, not per process: two threads putting the
        // same key must not truncate each other's file or race its rename.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir).map_err(|e| format!("create dir: {e}"))?;
        let seq = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{key:016x}.{}.{seq}.tmp", std::process::id()));
        std::fs::write(&tmp, encode_envelope(text)).map_err(|e| format!("write: {e}"))?;
        let path = Self::path_for(dir, key);
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename: {e}"))?;
        Ok(())
    }

    /// Drop the in-memory layer (tests use this to force disk round trips).
    pub fn clear_memory() {
        mem().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        // Reference FNV-1a vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let mut h = Fnv64::new();
        h.write_str("x").write_u64(9);
        let mut h2 = Fnv64::new();
        h2.write_str("x").write_u64(9);
        assert_eq!(h.finish(), h2.finish());
        // Field separation: ("ab","c") != ("a","bc").
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn envelope_roundtrips() {
        let payload = "dpcons-tune v3\nsome payload\nlines\n";
        let enveloped = encode_envelope(payload);
        assert_eq!(decode_envelope(&enveloped), Ok(payload));
    }

    #[test]
    fn envelope_rejects_tampering() {
        let enveloped = encode_envelope("payload line\n");
        // Flip one payload byte: checksum mismatch.
        let tampered = enveloped.replace("payload", "paYload");
        assert!(decode_envelope(&tampered).unwrap_err().contains("checksum"));
        // Drop trailing bytes: truncation.
        let truncated = &enveloped[..enveloped.len() - 4];
        assert!(decode_envelope(truncated).unwrap_err().contains("truncated"));
        // Wrong version: stale schema.
        let stale = enveloped.replace("dpcons-cache v1", "dpcons-cache v0");
        assert!(decode_envelope(&stale).unwrap_err().contains("stale"));
        // No header at all.
        assert!(decode_envelope("junk").unwrap_err().contains("missing"));
    }
}
