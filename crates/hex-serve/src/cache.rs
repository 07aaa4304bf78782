//! The memoized on-disk result cache.
//!
//! One file per cached result, named `<query-hash>.hexres`, holding a
//! self-describing header line and the raw result bytes:
//!
//! ```text
//! hexres/1 <engine-version> <query-hash> <generation> <len> <payload-fnv>
//! <payload bytes>
//! ```
//!
//! Every load re-verifies the whole chain — magic, engine-version tag,
//! hash-vs-filename, payload length, payload checksum — and a file that
//! fails any check is deleted and reported as a miss: a torn write or a
//! stale-engine entry can only cost a recomputation, never serve wrong
//! bytes. Writes go to a `.tmp` sibling and are published by rename, so a
//! crash mid-store leaves either the old state or the new one. Tmp names
//! carry the process id and a process-global counter, so two daemons
//! pointed at the same directory cannot clobber each other's in-flight
//! writes; whatever `.tmp` siblings a crash strands are swept on the next
//! [`Cache::open`].
//!
//! Eviction is FIFO by **generation**, a persisted monotonic counter
//! stamped into each entry's header ([`Cache::open`] resumes it from the
//! on-disk maximum). Using generations instead of file mtimes keeps the
//! daemon free of host-clock reads — the workspace `wall-clock` lint
//! applies here as everywhere outside the benches. Generation ties (two
//! daemons can stamp the same counter value into one shared directory)
//! break by ascending query hash, so the eviction order is a pure
//! function of the entry headers. The directory is scanned once, at
//! open; after that an in-memory index carries each entry's generation
//! and size plus a running byte total, so stores stay O(log n) instead
//! of re-reading every header.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hex_sim::canon::{engine_version, fnv1a_64};

/// Format magic of cache entry headers. Bump on layout changes.
const MAGIC: &str = "hexres/1";

const SUFFIX: &str = ".hexres";

/// Process-global tmp-name counter: distinguishes in-flight writes from
/// every `Cache` instance in this process (the pid in the name covers
/// other processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of verified, atomically-written result files with a FIFO
/// size ceiling. Not internally synchronized — the server serializes
/// access behind one lock (the file operations are cheap next to the
/// computations they memoize).
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    /// Size ceiling over all entry files, in bytes. 0 = unbounded.
    max_bytes: u64,
    /// Engine tag stamped into (and demanded of) every entry.
    engine: String,
    next_gen: u64,
    /// Every entry believed on disk: query hash → (generation, file
    /// size). Built by the single directory scan in [`Cache::open`],
    /// maintained by `store`/`load`/`evict` thereafter.
    index: BTreeMap<u64, (u64, u64)>,
    /// Running sum of the sizes in `index`.
    total: u64,
}

/// What `load` found (distinguishes misses worth logging from clean ones).
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Verified payload bytes.
    Hit(Vec<u8>),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed verification and was removed.
    Corrupt,
}

impl Cache {
    /// Open (creating if needed) a cache directory with a `max_mb` MiB
    /// ceiling. One scan sweeps `.tmp` files stranded by a crashed
    /// writer, retires entries whose header no longer parses, builds the
    /// in-memory index, and resumes the eviction generation from the
    /// entries found.
    pub fn open(dir: impl Into<PathBuf>, max_mb: u64) -> io::Result<Cache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = BTreeMap::new();
        let mut total = 0u64;
        let mut max_gen = 0u64;
        for e in fs::read_dir(&dir)? {
            let path = e?.path();
            let ext = path.extension();
            if ext.is_some_and(|x| x == "tmp") {
                // A crash between write and rename strands the sibling;
                // invisible to lookups (wrong extension), it would leak
                // bytes forever without this sweep.
                let _ = fs::remove_file(&path);
                continue;
            }
            if !ext.is_some_and(|x| x == "hexres") {
                continue;
            }
            let hash = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            match (hash, read_header(&path)) {
                (Some(hash), Some(h)) => {
                    let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    max_gen = max_gen.max(h.generation);
                    total += size;
                    index.insert(hash, (h.generation, size));
                }
                // Unparsable name or torn header: the entry can never
                // verify, so retire it now rather than carrying an
                // unindexable file.
                _ => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        Ok(Cache {
            dir,
            max_bytes: max_mb.saturating_mul(1024 * 1024),
            engine: engine_version(),
            next_gen: max_gen + 1,
            index,
            total,
        })
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Look up a query hash, verifying the stored entry end to end.
    /// `&mut` because retiring a failed entry must also drop it from the
    /// index.
    pub fn load(&mut self, hash: u64) -> Lookup {
        let path = self.path_of(hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.forget(hash);
                return Lookup::Miss;
            }
            Err(_) => return Lookup::Corrupt,
        };
        match verify(&bytes, hash, &self.engine) {
            Some(payload) => Lookup::Hit(payload),
            None => {
                // Torn write, stale engine, or plain corruption: retire
                // the entry so it can be recomputed.
                let _ = fs::remove_file(&path);
                self.forget(hash);
                Lookup::Corrupt
            }
        }
    }

    /// Store a result under its query hash: write a `.tmp` sibling,
    /// rename into place, then enforce the size ceiling.
    pub fn store(&mut self, hash: u64, payload: &[u8]) -> io::Result<()> {
        let generation = self.next_gen;
        self.next_gen += 1;
        let bytes = entry_bytes(&self.engine, hash, generation, payload);
        let tmp = self.dir.join(format!(
            "{hash:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let path = self.path_of(hash);
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)?;
        self.forget(hash);
        self.total += bytes.len() as u64;
        self.index.insert(hash, (generation, bytes.len() as u64));
        self.evict(hash)?;
        Ok(())
    }

    /// Number of entries in the index (entry files on disk).
    pub fn entry_count(&self) -> usize {
        self.index.len()
    }

    /// Total size of all entry files, in bytes (the running total — no
    /// directory scan).
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    fn path_of(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}{SUFFIX}"))
    }

    /// Drop an entry from the index and the running total.
    fn forget(&mut self, hash: u64) {
        if let Some((_, size)) = self.index.remove(&hash) {
            self.total -= size;
        }
    }

    /// Remove oldest entries — ascending (generation, hash), a total
    /// order over the entry headers — until the ceiling holds. The entry
    /// at `protect` (the one the enclosing `store` just wrote) is never a
    /// candidate, even alone above the ceiling: a store must never answer
    /// a later load with "gone", and evicting what was just stored would
    /// make large results uncacheable loops. Protecting by hash rather
    /// than by an `index.len() > 1` count matters under generation ties —
    /// a sibling daemon that opened the shared directory at the same
    /// moment resumes the same counter, and the tie-break by ascending
    /// hash could otherwise land on the entry just stored.
    fn evict(&mut self, protect: u64) -> io::Result<()> {
        if self.max_bytes == 0 {
            // 0 = unbounded, not "evict everything": a zero budget with
            // the `total > max_bytes` loop below would otherwise strip
            // the cache down to the protected entry on every store.
            return Ok(());
        }
        while self.total > self.max_bytes {
            let Some((_, hash, _)) = self
                .index
                .iter()
                .filter(|&(&h, _)| h != protect)
                .map(|(&h, &(g, s))| (g, h, s))
                .min()
            else {
                // Only the just-stored entry remains; it stays even above
                // the ceiling.
                break;
            };
            match fs::remove_file(self.path_of(hash)) {
                Ok(()) => {}
                // Someone else (a sibling daemon) already removed it;
                // the index entry is stale either way.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            self.forget(hash);
        }
        Ok(())
    }
}

/// A complete entry file: header line, then the payload.
fn entry_bytes(engine: &str, hash: u64, generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{MAGIC} {engine} {hash:016x} {generation} {} {:016x}\n",
        payload.len(),
        fnv1a_64(payload)
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

struct Header {
    engine: String,
    hash: u64,
    generation: u64,
    len: usize,
    payload_fnv: u64,
    body_start: usize,
}

fn parse_header(bytes: &[u8]) -> Option<Header> {
    let line_end = bytes.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[..line_end]).ok()?;
    let mut f = line.split(' ');
    if f.next()? != MAGIC {
        return None;
    }
    Some(Header {
        engine: f.next()?.to_string(),
        hash: u64::from_str_radix(f.next()?, 16).ok()?,
        generation: f.next()?.parse().ok()?,
        len: f.next()?.parse().ok()?,
        payload_fnv: u64::from_str_radix(f.next()?, 16).ok()?,
        body_start: line_end + 1,
    })
}

fn read_header(path: &Path) -> Option<Header> {
    // Entries are small (reduced statistics tables); reading whole files
    // keeps this free of partial-read bookkeeping.
    parse_header(&fs::read(path).ok()?)
}

/// Full verification chain; `Some(payload)` only if every link holds.
fn verify(bytes: &[u8], want_hash: u64, want_engine: &str) -> Option<Vec<u8>> {
    let h = parse_header(bytes)?;
    if h.engine != want_engine || h.hash != want_hash {
        return None;
    }
    let body = bytes.get(h.body_start..)?;
    if body.len() != h.len || fnv1a_64(body) != h.payload_fnv {
        return None;
    }
    Some(body.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Collision-free scratch dir without wall-clock or RNG reads.
    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hex-serve-cache-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Handcraft a well-formed entry file with a chosen generation —
    /// what a sibling daemon sharing the directory would leave behind.
    fn plant_entry(dir: &Path, hash: u64, generation: u64, payload: &[u8]) {
        fs::create_dir_all(dir).unwrap();
        let bytes = entry_bytes(&engine_version(), hash, generation, payload);
        fs::write(dir.join(format!("{hash:016x}{SUFFIX}")), bytes).unwrap();
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch("round-trip");
        let mut c = Cache::open(&dir, 0).unwrap();
        assert_eq!(c.load(7), Lookup::Miss);
        c.store(7, b"payload bytes").unwrap();
        assert_eq!(c.load(7), Lookup::Hit(b"payload bytes".to_vec()));
        assert_eq!(c.entry_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survives_reopen_and_resumes_generations() {
        let dir = scratch("reopen");
        let mut c = Cache::open(&dir, 0).unwrap();
        c.store(1, b"one").unwrap();
        c.store(2, b"two").unwrap();
        let gen_before = c.next_gen;
        drop(c);
        let mut c2 = Cache::open(&dir, 0).unwrap();
        assert_eq!(c2.load(1), Lookup::Hit(b"one".to_vec()));
        assert_eq!(c2.next_gen, gen_before, "generation counter resumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected_and_retired() {
        let dir = scratch("corrupt");
        let mut c = Cache::open(&dir, 0).unwrap();
        c.store(9, b"good bytes").unwrap();
        let path = dir.join(format!("{:016x}.hexres", 9u64));
        // Flip a payload byte: checksum must catch it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(c.load(9), Lookup::Corrupt);
        assert!(!path.exists(), "corrupt entry removed");
        assert_eq!(c.load(9), Lookup::Miss, "subsequent loads are clean misses");
        // Truncated header.
        fs::write(&path, b"hexres/1 trunc").unwrap();
        assert_eq!(c.load(9), Lookup::Corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_engine_entries_are_misses() {
        let dir = scratch("stale");
        let mut c = Cache::open(&dir, 0).unwrap();
        c.store(3, b"payload").unwrap();
        let path = dir.join(format!("{:016x}.hexres", 3u64));
        let text = String::from_utf8(fs::read(&path).unwrap()).unwrap();
        fs::write(
            &path,
            text.replace(&engine_version(), "hex-sim-0.0.0+canon0"),
        )
        .unwrap();
        assert_eq!(c.load(3), Lookup::Corrupt);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_is_fifo_by_generation_and_spares_the_newest() {
        let dir = scratch("evict");
        // Ceiling of 1 MiB; entries of ~400 KiB: the third store must
        // evict the first, the oldest generation.
        let mut c = Cache::open(&dir, 1).unwrap();
        let blob = vec![0x5a; 400 * 1024];
        c.store(1, &blob).unwrap();
        c.store(2, &blob).unwrap();
        c.store(3, &blob).unwrap();
        assert_eq!(c.load(1), Lookup::Miss, "oldest evicted");
        assert_eq!(c.load(2), Lookup::Hit(blob.clone()));
        assert_eq!(c.load(3), Lookup::Hit(blob.clone()));
        // A single entry above the ceiling still survives its own store.
        let huge = vec![0x3c; 2 * 1024 * 1024];
        c.store(4, &huge).unwrap();
        assert_eq!(c.load(4), Lookup::Hit(huge));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_sweeps_stranded_tmp_files() {
        let dir = scratch("tmp-sweep");
        fs::create_dir_all(&dir).unwrap();
        // What a writer crashed between `fs::write` and `fs::rename`
        // leaves behind — both the old fixed name and the new
        // process-qualified shape.
        fs::write(dir.join("00000000000000aa.tmp"), b"half a write").unwrap();
        fs::write(dir.join("00000000000000bb.12345.7.tmp"), b"torn").unwrap();
        let mut c = Cache::open(&dir, 0).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp files survived open: {leftovers:?}"
        );
        assert_eq!(c.entry_count(), 0);
        assert_eq!(c.total_bytes(), 0);
        // The swept directory works normally afterwards.
        c.store(0xaa, b"fresh").unwrap();
        assert_eq!(c.load(0xaa), Lookup::Hit(b"fresh".to_vec()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_names_are_process_qualified() {
        let dir = scratch("tmp-name");
        let mut c = Cache::open(&dir, 0).unwrap();
        // The rename is atomic, so the only observable trace of the tmp
        // name is the counter: two stores of the SAME hash must not have
        // reused one tmp path (a second daemon's in-flight write at the
        // fixed legacy name would be clobbered mid-write).
        let before = TMP_SEQ.load(Ordering::Relaxed);
        c.store(5, b"first").unwrap();
        c.store(5, b"second").unwrap();
        assert!(
            TMP_SEQ.load(Ordering::Relaxed) >= before + 2,
            "each store must take a fresh tmp name"
        );
        assert_eq!(c.load(5), Lookup::Hit(b"second".to_vec()));
        assert_eq!(c.entry_count(), 1, "re-store replaced, not duplicated");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn running_total_matches_disk() {
        let dir = scratch("total");
        let mut c = Cache::open(&dir, 0).unwrap();
        c.store(1, &[1u8; 100]).unwrap();
        c.store(2, &[2u8; 200]).unwrap();
        // Replacing an entry must not double-count it.
        c.store(1, &[3u8; 50]).unwrap();
        let on_disk: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(c.total_bytes(), on_disk);
        // Retiring a corrupt entry shrinks the total.
        let path = dir.join(format!("{:016x}{SUFFIX}", 2u64));
        fs::write(&path, b"hexres/1 garbage").unwrap();
        assert_eq!(c.load(2), Lookup::Corrupt);
        assert_eq!(c.entry_count(), 1);
        let on_disk: u64 = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        assert_eq!(c.total_bytes(), on_disk);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_ties_evict_by_ascending_hash() {
        let dir = scratch("tie");
        // Two sibling daemons stamped the same generation into a shared
        // directory. Ascending (generation, hash) must evict the LOWER
        // hash first — never fall back to incidental path order.
        let payload = vec![0x11u8; 400 * 1024];
        plant_entry(&dir, 0xbeef, 7, &payload);
        plant_entry(&dir, 0x0abc, 7, &payload);
        let mut c = Cache::open(&dir, 1).unwrap();
        assert_eq!(c.entry_count(), 2);
        assert_eq!(c.next_gen, 8, "generation resumed past the tie");
        // This store pushes the total just over 1 MiB: exactly one of
        // the tied pair must go, and it must be the lower hash.
        c.store(0xfeed, &vec![0x22u8; 300 * 1024]).unwrap();
        assert_eq!(c.load(0x0abc), Lookup::Miss, "lower hash evicted on tie");
        assert!(matches!(c.load(0xbeef), Lookup::Hit(_)), "higher hash kept");
        assert!(matches!(c.load(0xfeed), Lookup::Hit(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_budget_means_unbounded_not_evict_everything() {
        let dir = scratch("zero-budget");
        // HEX_CACHE_MAX_MB=0 disables the ceiling. A naive reading of
        // `total > max_bytes` with max_bytes == 0 would evict every entry
        // except the protected one on each store.
        let mut c = Cache::open(&dir, 0).unwrap();
        let blob = vec![0x77u8; 64 * 1024];
        for hash in 1..=8u64 {
            c.store(hash, &blob).unwrap();
        }
        assert_eq!(c.entry_count(), 8, "no eviction under an unbounded cache");
        for hash in 1..=8u64 {
            assert!(matches!(c.load(hash), Lookup::Hit(_)), "hash {hash}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_tie_never_evicts_the_entry_just_stored() {
        let dir = scratch("tie-protect");
        // Two daemons open the shared directory at the same moment and
        // resume the same generation counter; the sibling's store lands
        // first, stamping the generation OUR next store will also use —
        // with a higher hash. Ascending (generation, hash) would pick our
        // just-stored lower hash as the eviction minimum; the store must
        // protect it (a store must never answer a later load with
        // "gone").
        let payload = vec![0x11u8; 700 * 1024];
        plant_entry(&dir, 0xffff, 7, &payload);
        let mut c = Cache::open(&dir, 1).unwrap();
        assert_eq!(c.next_gen, 8);
        // Rewind to the sibling's counter value, as a concurrent open of
        // the directory before the sibling's store would have produced.
        c.next_gen = 7;
        c.store(0x0001, &vec![0x22u8; 700 * 1024]).unwrap();
        assert!(
            matches!(c.load(0x0001), Lookup::Hit(_)),
            "just-stored entry survived the tie"
        );
        assert_eq!(c.load(0xffff), Lookup::Miss, "the sibling's entry went");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_entry_sweep_resumes_generations_on_reopen() {
        let dir = scratch("oversized-resume");
        let mut c = Cache::open(&dir, 1).unwrap();
        let small = vec![0x44u8; 100 * 1024];
        c.store(1, &small).unwrap();
        c.store(2, &small).unwrap();
        // A single entry larger than the whole budget sweeps everything
        // else out but must itself survive its own store.
        let huge = vec![0x55u8; 3 * 1024 * 1024];
        c.store(3, &huge).unwrap();
        assert_eq!(c.entry_count(), 1, "sweep left only the oversized entry");
        assert_eq!(c.load(1), Lookup::Miss);
        assert_eq!(c.load(2), Lookup::Miss);
        assert!(matches!(c.load(3), Lookup::Hit(_)));
        let gen_before = c.next_gen;
        drop(c);
        // The sweep deleted the entries carrying generations 1 and 2; the
        // counter must resume from the survivor, not restart below it.
        let mut c2 = Cache::open(&dir, 1).unwrap();
        assert_eq!(c2.next_gen, gen_before, "counter resumed past the sweep");
        // And the resumed cache keeps ordering: the next store makes the
        // oversized entry the oldest, so it goes first once over budget.
        c2.store(4, &small).unwrap();
        assert_eq!(c2.load(3), Lookup::Miss, "oversized entry now oldest");
        assert!(matches!(c2.load(4), Lookup::Hit(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_retires_unparsable_entries() {
        let dir = scratch("unparsable");
        fs::create_dir_all(&dir).unwrap();
        // A torn header can never verify; open retires it immediately so
        // the index only carries entries it can account for.
        fs::write(dir.join("0000000000000042.hexres"), b"hexres/1 tor").unwrap();
        // A foreign file whose stem is not a hash.
        fs::write(dir.join("notes.hexres"), b"not an entry").unwrap();
        let c = Cache::open(&dir, 0).unwrap();
        assert_eq!(c.entry_count(), 0);
        assert!(!dir.join("0000000000000042.hexres").exists());
        assert!(!dir.join("notes.hexres").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    const HASH: u64 = 0x0123_4567_89ab_cdef;

    /// A well-formed entry for [`HASH`] under this engine.
    fn entry() -> (Vec<u8>, Vec<u8>) {
        let payload = b"{\"table\":\"skew_summary\",\"rows\":[]}\n".to_vec();
        (entry_bytes(&engine_version(), HASH, 42, &payload), payload)
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary bytes are no entry: the header parse and the full
        /// verification chain both refuse them without panicking.
        #[test]
        fn prop_arbitrary_bytes_fail_verification(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
            hash in any::<u64>(),
        ) {
            prop_assert!(parse_header(&bytes).is_none());
            prop_assert!(verify(&bytes, hash, &engine_version()).is_none());
        }

        /// Garbage behind the magic reaches the field parsers.
        #[test]
        fn prop_garbage_after_the_magic_fails_verification(
            tail in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut bytes = format!("{MAGIC} ").into_bytes();
            bytes.extend_from_slice(&tail);
            prop_assert!(verify(&bytes, HASH, &engine_version()).is_none());
        }

        /// Every strict prefix of a valid entry (a torn write) fails.
        #[test]
        fn prop_truncated_entries_fail_verification(cut in any::<prop::sample::Index>()) {
            let (bytes, payload) = entry();
            prop_assert_eq!(verify(&bytes, HASH, &engine_version()), Some(payload));
            let cut = cut.index(bytes.len());
            prop_assert!(verify(&bytes[..cut], HASH, &engine_version()).is_none());
        }

        /// One overwritten byte anywhere never yields wrong payload bytes:
        /// the chain answers with the original payload or nothing.
        #[test]
        fn prop_corrupted_entries_never_serve_wrong_bytes(
            at in any::<prop::sample::Index>(),
            flip in 1u8..=255,
        ) {
            let (mut bytes, payload) = entry();
            let at = at.index(bytes.len());
            bytes[at] ^= flip;
            if let Some(got) = verify(&bytes, HASH, &engine_version()) {
                prop_assert_eq!(got, payload);
            }
        }
    }
}
