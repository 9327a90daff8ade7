//! [`FileDfs`]: the durable [`Dfs`] backend.
//!
//! Relations persist under a root directory as immutable, versioned
//! *segment files* plus one `MANIFEST`:
//!
//! ```text
//! root/
//!   MANIFEST            name → segment mapping (atomic tmp+rename)
//!   seg-00000000.seg    length-prefixed tuple frames (spill codec)
//!   seg-00000003.seg    …
//! ```
//!
//! # Segment format
//!
//! A segment is a sequence of spill-layer frames
//! (`[len u32][format u8][block]`, see [`crate::spill`]), written by
//! [`RunWriter`] with per-frame RLE when it wins. Each block holds up to
//! [`TUPLES_PER_FRAME`] tuples in the relation's canonical (sorted)
//! order, encoded as `[count u32]` then per tuple `[arity u16]` and per
//! value a tag byte (`0` = int, `i64` LE; `1` = string, `len u32` +
//! UTF-8). The fixed tuples-per-frame makes `tuple index → frame index`
//! arithmetic, so a range fetch touches only the frames covering it.
//!
//! Segments are never mutated: overwriting relation `R` writes a *new*
//! segment under the next generation number and retargets the manifest,
//! so a scan opened before the overwrite keeps reading its original
//! (now unlinked, still open) segment — the same snapshot isolation the
//! in-memory backend gets from `Arc`.
//!
//! The `MANIFEST` is a versioned header line plus one tab-separated line
//! per live relation (`name, segment file, arity, tuples, logical
//! bytes`); it is rewritten to a temp file, fsynced and renamed on every
//! commit, after the segment it newly references has been fsynced, so a
//! crash leaves either the old or the new file set — never half a state.
//!
//! # Block cache
//!
//! All frame decodes go through a byte-bounded LRU `BlockCache`
//! charging each cached frame its decoded *logical* size. Hits, misses
//! and evictions are counted per instance (surfaced via
//! [`Dfs::cache_stats`]) and mirrored into the
//! process-wide `obs` metrics `dfs.cache_hits` / `dfs.cache_misses` /
//! `dfs.cache_evictions` for `--metrics-dump`.
//!
//! Byte metering is *logical* ([`Relation::estimated_bytes`]), identical
//! to [`SimDfs`](crate::SimDfs) — the equivalence suite holds both
//! backends to the same counters.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use gumbo_common::{ByteSize, Database, GumboError, Relation, RelationName, Result, Tuple, Value};
use gumbo_obs::metrics::Counter;

use crate::dfs::{CacheStats, Dfs, RelationScan, TupleSource};
use crate::spill::{rle_decode, Compression, FrameFormat, RunWriter};

/// Tuples per segment frame. Fixed (except the final frame) so that
/// `tuple index → frame index` is plain division and a range fetch knows
/// exactly which frames cover it.
pub const TUPLES_PER_FRAME: usize = 512;

static CACHE_HITS: Counter = Counter::new("dfs.cache_hits");
static CACHE_MISSES: Counter = Counter::new("dfs.cache_misses");
static CACHE_EVICTIONS: Counter = Counter::new("dfs.cache_evictions");

fn storage_err(context: &str, e: std::io::Error) -> GumboError {
    GumboError::Storage(format!("{context}: {e}"))
}

fn corrupt(msg: impl Into<String>) -> GumboError {
    GumboError::Storage(msg.into())
}

// ---------------------------------------------------------------------
// Tuple codec (storage-resident; the shuffle has its own pair codec in
// `gumbo-mr` — segments must be decodable without the execution layer).

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(1);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_tuple(t: &Tuple, out: &mut Vec<u8>) {
    out.extend_from_slice(&(t.arity() as u16).to_le_bytes());
    for v in t.values() {
        encode_value(v, out);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated DFS segment frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_tuple(c: &mut Cursor<'_>) -> Result<Tuple> {
    let arity = c.u16()? as usize;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        let tag = c.take(1)?[0];
        values.push(match tag {
            0 => Value::Int(c.i64()?),
            1 => {
                let len = c.u32()? as usize;
                let bytes = c.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| corrupt("non-UTF-8 string in DFS segment"))?;
                Value::str(s)
            }
            other => return Err(corrupt(format!("unknown DFS value tag {other}"))),
        });
    }
    Ok(Tuple::new(values))
}

fn encode_frame(tuples: &[&Tuple], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for t in tuples {
        encode_tuple(t, out);
    }
}

fn decode_frame(block: &[u8]) -> Result<Vec<Tuple>> {
    let mut c = Cursor { buf: block, pos: 0 };
    let count = c.u32()? as usize;
    let mut tuples = Vec::with_capacity(count);
    for _ in 0..count {
        tuples.push(decode_tuple(&mut c)?);
    }
    if c.pos != block.len() {
        return Err(corrupt("trailing bytes in DFS segment frame"));
    }
    Ok(tuples)
}

// ---------------------------------------------------------------------
// Block cache

/// One decoded frame, as cached and as served to scans.
struct CachedFrame {
    tuples: Vec<Tuple>,
    /// Logical bytes of the decoded tuples — what the frame is charged
    /// against the cache budget.
    bytes: u64,
}

#[derive(Default)]
struct CacheInner {
    /// `(segment id, frame index)` → entry + its recency tick.
    map: HashMap<(u64, u32), (Arc<CachedFrame>, u64)>,
    /// Recency order: tick → key. Oldest tick evicts first.
    order: BTreeMap<u64, (u64, u32)>,
    used: u64,
    tick: u64,
}

/// A byte-bounded LRU cache of decoded segment frames, shared by every
/// scan and read of one [`FileDfs`]. `capacity == 0` disables caching
/// (every lookup is a miss that is not retained).
struct BlockCache {
    capacity: u64,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats(self.capacity);
        f.debug_struct("BlockCache").field("stats", &stats).finish()
    }
}

impl BlockCache {
    fn new(capacity: u64) -> BlockCache {
        BlockCache {
            capacity,
            inner: Mutex::new(CacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn get(&self, key: (u64, u32)) -> Option<Arc<CachedFrame>> {
        let mut inner = self.inner.lock().expect("unpoisoned block cache");
        if let Some((frame, tick)) = inner.map.get(&key).map(|(f, t)| (Arc::clone(f), *t)) {
            // Refresh recency.
            inner.order.remove(&tick);
            inner.tick += 1;
            let now = inner.tick;
            inner.order.insert(now, key);
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.1 = now;
            }
            drop(inner);
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.incr();
            Some(frame)
        } else {
            drop(inner);
            self.misses.fetch_add(1, Ordering::Relaxed);
            CACHE_MISSES.incr();
            None
        }
    }

    fn insert(&self, key: (u64, u32), frame: Arc<CachedFrame>) {
        if self.capacity == 0 {
            return;
        }
        let mut evicted = 0u64;
        {
            let mut inner = self.inner.lock().expect("unpoisoned block cache");
            if let Some((_, tick)) = inner.map.remove(&key) {
                // Racing loads of the same frame: replace, don't double-charge.
                inner.order.remove(&tick);
                inner.used = inner.used.saturating_sub(frame.bytes);
            }
            inner.tick += 1;
            let now = inner.tick;
            inner.used += frame.bytes;
            inner.map.insert(key, (frame, now));
            inner.order.insert(now, key);
            while inner.used > self.capacity && inner.order.len() > 1 {
                let (&oldest, &victim) = inner.order.iter().next().expect("non-empty order");
                // Never evict the frame we just inserted: a frame larger
                // than the whole budget must still be servable once.
                if victim == key && oldest == now {
                    break;
                }
                inner.order.remove(&oldest);
                if let Some((gone, _)) = inner.map.remove(&victim) {
                    inner.used = inner.used.saturating_sub(gone.bytes);
                }
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            CACHE_EVICTIONS.add(evicted);
        }
    }

    /// Drop every cached frame of a segment (its file was deleted).
    fn purge_segment(&self, seg: u64) {
        let mut inner = self.inner.lock().expect("unpoisoned block cache");
        let doomed: Vec<(u64, u32)> = inner
            .map
            .keys()
            .filter(|(s, _)| *s == seg)
            .copied()
            .collect();
        for key in doomed {
            if let Some((frame, tick)) = inner.map.remove(&key) {
                inner.order.remove(&tick);
                inner.used = inner.used.saturating_sub(frame.bytes);
            }
        }
    }

    fn stats(&self, capacity: u64) -> CacheStats {
        let cached_bytes = self.inner.lock().expect("unpoisoned block cache").used;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cached_bytes,
            capacity_bytes: capacity,
        }
    }
}

// ---------------------------------------------------------------------
// Segments

/// An open, immutable segment: the file handle plus the frame offset
/// index (rebuilt at open by walking the length prefixes).
#[derive(Debug)]
struct Segment {
    id: u64,
    file_name: String,
    arity: usize,
    tuples: usize,
    logical_bytes: u64,
    /// Byte offset of each frame's length prefix.
    frame_offsets: Vec<u64>,
    /// Held open for the segment's lifetime: an overwrite unlinks the
    /// file, but scans over this handle keep their snapshot.
    file: Mutex<File>,
}

impl Segment {
    fn open(dir: &Path, id: u64, file_name: &str, arity: usize, tuples: usize) -> Result<Segment> {
        let path = dir.join(file_name);
        let mut file = File::open(&path).map_err(|e| storage_err("opening DFS segment", e))?;
        let total = file
            .metadata()
            .map_err(|e| storage_err("statting DFS segment", e))?
            .len();
        let mut frame_offsets = Vec::with_capacity(tuples.div_ceil(TUPLES_PER_FRAME));
        let mut pos = 0u64;
        let mut len = [0u8; 4];
        while pos < total {
            file.seek(SeekFrom::Start(pos))
                .and_then(|_| file.read_exact(&mut len))
                .map_err(|e| storage_err("indexing DFS segment", e))?;
            frame_offsets.push(pos);
            pos += 4 + u64::from(u32::from_le_bytes(len));
        }
        if pos != total {
            return Err(corrupt(format!("torn DFS segment {file_name}")));
        }
        let expected = tuples.div_ceil(TUPLES_PER_FRAME);
        if frame_offsets.len() != expected {
            return Err(corrupt(format!(
                "DFS segment {file_name} has {} frames, manifest implies {expected}",
                frame_offsets.len()
            )));
        }
        Ok(Segment {
            id,
            file_name: file_name.to_string(),
            arity,
            tuples,
            logical_bytes: 0,
            frame_offsets,
            file: Mutex::new(file),
        })
    }

    /// Read and decode frame `idx` straight from the file (cache miss
    /// path).
    fn load_frame(&self, idx: u32) -> Result<CachedFrame> {
        let offset = *self
            .frame_offsets
            .get(idx as usize)
            .ok_or_else(|| corrupt("DFS frame index out of range"))?;
        let mut file = self.file.lock().expect("unpoisoned segment file");
        let mut len = [0u8; 4];
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| file.read_exact(&mut len))
            .map_err(|e| storage_err("reading DFS frame length", e))?;
        let stored = u32::from_le_bytes(len) as usize;
        if stored == 0 {
            return Err(corrupt("empty DFS frame (missing format byte)"));
        }
        let mut frame = vec![0u8; stored];
        file.read_exact(&mut frame)
            .map_err(|e| storage_err("reading DFS frame", e))?;
        drop(file);
        let format = FrameFormat::from_byte(frame[0])?;
        let block = &frame[1..];
        let tuples = match format {
            FrameFormat::Raw => decode_frame(block)?,
            FrameFormat::Rle => decode_frame(&rle_decode(block)?)?,
            other => {
                return Err(corrupt(format!(
                    "unexpected frame format {other:?} in DFS segment"
                )))
            }
        };
        let bytes = tuples.iter().map(Tuple::estimated_bytes).sum();
        Ok(CachedFrame { tuples, bytes })
    }
}

/// The scan source for one relation: a pinned segment plus the shared
/// block cache. Lock-free against the DFS file map — concurrent
/// overwrites cannot disturb it.
struct FileScanSource {
    segment: Arc<Segment>,
    cache: Arc<BlockCache>,
}

impl FileScanSource {
    fn frame(&self, idx: u32) -> Result<Arc<CachedFrame>> {
        let key = (self.segment.id, idx);
        if let Some(hit) = self.cache.get(key) {
            return Ok(hit);
        }
        let loaded = Arc::new(self.segment.load_frame(idx)?);
        self.cache.insert(key, Arc::clone(&loaded));
        Ok(loaded)
    }
}

impl TupleSource for FileScanSource {
    fn fetch(&self, range: Range<usize>) -> Result<Vec<Tuple>> {
        let end = range.end.min(self.segment.tuples);
        let start = range.start.min(end);
        if start == end {
            return Ok(Vec::new());
        }
        let first = start / TUPLES_PER_FRAME;
        let last = (end - 1) / TUPLES_PER_FRAME;
        let mut out = Vec::with_capacity(end - start);
        for f in first..=last {
            let frame = self.frame(f as u32)?;
            let base = f * TUPLES_PER_FRAME;
            let lo = start.saturating_sub(base);
            let hi = (end - base).min(frame.tuples.len());
            out.extend_from_slice(&frame.tuples[lo..hi]);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// FileDfs

const MANIFEST: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "gumbo-dfs\tv1";

#[derive(Debug, Default)]
struct FileMap {
    files: BTreeMap<RelationName, Arc<Segment>>,
    next_seg: u64,
}

/// The durable file-backed [`Dfs`] implementation. See the [module
/// docs](self) for the on-disk layout and cache design;
/// [`crate::dfs`] for the metering and locking contracts it upholds.
#[derive(Debug)]
pub struct FileDfs {
    root: PathBuf,
    state: RwLock<FileMap>,
    cache: Arc<BlockCache>,
    cache_capacity: u64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    assert_sync::<FileDfs>()
};

/// Default block-cache budget when none is given: 64 MiB.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

impl FileDfs {
    /// Create a fresh DFS at `root` (the directory is created; an
    /// existing manifest there is an error — use [`FileDfs::open`]).
    pub fn create(root: impl Into<PathBuf>, cache_bytes: u64) -> Result<FileDfs> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| storage_err("creating DFS root", e))?;
        if root.join(MANIFEST).exists() {
            return Err(GumboError::Storage(format!(
                "DFS root {} already holds a manifest; use open",
                root.display()
            )));
        }
        let dfs = FileDfs {
            root,
            state: RwLock::new(FileMap::default()),
            cache: Arc::new(BlockCache::new(cache_bytes)),
            cache_capacity: cache_bytes,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        };
        dfs.write_manifest(&dfs.state.read().expect("unpoisoned DFS state"))?;
        Ok(dfs)
    }

    /// Reopen an existing DFS at `root`, rebuilding the frame index of
    /// every live segment from the manifest. I/O counters start at zero.
    pub fn open(root: impl Into<PathBuf>, cache_bytes: u64) -> Result<FileDfs> {
        let root = root.into();
        let manifest = fs::read_to_string(root.join(MANIFEST))
            .map_err(|e| storage_err("reading DFS manifest", e))?;
        let mut lines = manifest.lines();
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            Some(other) => return Err(corrupt(format!("unknown DFS manifest header {other:?}"))),
            None => return Err(corrupt("empty DFS manifest")),
        }
        let mut files = BTreeMap::new();
        let mut next_seg = 0u64;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let [name, file_name, arity, tuples, logical] = cols[..] else {
                return Err(corrupt(format!("malformed DFS manifest line {line:?}")));
            };
            let parse = |s: &str, what: &str| -> Result<u64> {
                s.parse()
                    .map_err(|_| corrupt(format!("bad {what} in DFS manifest line {line:?}")))
            };
            let seg_id = file_name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| corrupt(format!("bad segment name in manifest: {file_name}")))?;
            let mut segment = Segment::open(
                &root,
                seg_id,
                file_name,
                parse(arity, "arity")? as usize,
                parse(tuples, "tuple count")? as usize,
            )?;
            segment.logical_bytes = parse(logical, "byte count")?;
            next_seg = next_seg.max(seg_id + 1);
            files.insert(RelationName::from(name), Arc::new(segment));
        }
        Ok(FileDfs {
            root,
            state: RwLock::new(FileMap { files, next_seg }),
            cache: Arc::new(BlockCache::new(cache_bytes)),
            cache_capacity: cache_bytes,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// Open-or-create at `root`: [`FileDfs::open`] when a manifest
    /// exists, [`FileDfs::create`] otherwise (the CLI entry point).
    pub fn open_or_create(root: impl Into<PathBuf>, cache_bytes: u64) -> Result<FileDfs> {
        let root = root.into();
        if root.join(MANIFEST).exists() {
            FileDfs::open(root, cache_bytes)
        } else {
            FileDfs::create(root, cache_bytes)
        }
    }

    /// Create a DFS at `root` pre-loaded with a database. Like
    /// [`SimDfs::from_database`](crate::SimDfs::from_database), the
    /// initial load is not a metered write.
    pub fn from_database(
        root: impl Into<PathBuf>,
        cache_bytes: u64,
        db: &Database,
    ) -> Result<FileDfs> {
        let dfs = FileDfs::create(root, cache_bytes)?;
        for rel in db.relations() {
            Dfs::store(&dfs, rel.clone())?;
        }
        dfs.bytes_written.store(0, Ordering::Relaxed);
        Ok(dfs)
    }

    /// The DFS root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn segment(&self, name: &RelationName) -> Result<Arc<Segment>> {
        self.state
            .read()
            .expect("unpoisoned DFS state")
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| GumboError::UnknownRelation(name.to_string()))
    }

    /// Rewrite the manifest atomically (tmp + fsync + rename).
    fn write_manifest(&self, state: &FileMap) -> Result<()> {
        let mut body = String::from(MANIFEST_HEADER);
        body.push('\n');
        for (name, seg) in &state.files {
            body.push_str(&format!(
                "{name}\t{}\t{}\t{}\t{}\n",
                seg.file_name, seg.arity, seg.tuples, seg.logical_bytes
            ));
        }
        let tmp = self.root.join("MANIFEST.tmp");
        fs::write(&tmp, body).map_err(|e| storage_err("writing DFS manifest", e))?;
        File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(|e| storage_err("syncing DFS manifest", e))?;
        fs::rename(&tmp, self.root.join(MANIFEST))
            .map_err(|e| storage_err("publishing DFS manifest", e))?;
        Ok(())
    }

    /// Write a relation as a new segment file and return its open handle.
    fn write_segment(&self, relation: &Relation, seg_id: u64) -> Result<Segment> {
        let file_name = format!("seg-{seg_id:08}.seg");
        let path = self.root.join(&file_name);
        let mut writer = RunWriter::create_with(&path, Compression::Rle)?;
        let tuples: Vec<&Tuple> = relation.iter().collect();
        let mut buf = Vec::new();
        for chunk in tuples.chunks(TUPLES_PER_FRAME) {
            encode_frame(chunk, &mut buf);
            writer.push(&buf)?;
        }
        writer.finish()?;
        // The manifest that will reference this segment is fsynced before
        // it is published, so the segment must reach disk first: a torn
        // segment behind a durable manifest would fail every later open.
        File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| storage_err("syncing DFS segment", e))?;
        let mut segment = Segment::open(
            &self.root,
            seg_id,
            &file_name,
            relation.arity(),
            relation.len(),
        )?;
        segment.logical_bytes = relation.estimated_bytes();
        Ok(segment)
    }

    fn materialize(&self, name: &RelationName, segment: &Arc<Segment>) -> Result<Relation> {
        let source = FileScanSource {
            segment: Arc::clone(segment),
            cache: Arc::clone(&self.cache),
        };
        let tuples = source.fetch(0..segment.tuples)?;
        Relation::from_tuples(name.clone(), segment.arity, tuples)
    }
}

impl Dfs for FileDfs {
    fn backend(&self) -> &'static str {
        "file"
    }

    fn store(&self, relation: Relation) -> Result<ByteSize> {
        let _span = gumbo_obs::span_with("dfs.store", |s| {
            s.str("relation", relation.name().as_str());
            s.u64("tuples", relation.len() as u64);
        });
        let bytes = ByteSize::bytes(relation.estimated_bytes());
        let seg_id = {
            let mut state = self.state.write().expect("unpoisoned DFS state");
            let id = state.next_seg;
            state.next_seg += 1;
            id
        };
        // Encode outside the lock: only manifest publication serializes.
        let segment = Arc::new(self.write_segment(&relation, seg_id)?);
        let old = {
            let mut state = self.state.write().expect("unpoisoned DFS state");
            let old = state.files.insert(relation.name().clone(), segment);
            self.write_manifest(&state)?;
            old
        };
        if let Some(old) = old {
            // The manifest no longer references it; unlink. Open scans
            // keep their fd — the data outlives the directory entry.
            self.cache.purge_segment(old.id);
            let _ = fs::remove_file(self.root.join(&old.file_name));
        }
        self.bytes_written
            .fetch_add(bytes.as_bytes(), Ordering::Relaxed);
        Ok(bytes)
    }

    fn read(&self, name: &RelationName) -> Result<Arc<Relation>> {
        let segment = self.segment(name)?;
        self.bytes_read
            .fetch_add(segment.logical_bytes, Ordering::Relaxed);
        Ok(Arc::new(self.materialize(name, &segment)?))
    }

    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>> {
        let segment = self.segment(name)?;
        Ok(Arc::new(self.materialize(name, &segment)?))
    }

    fn scan(&self, name: &RelationName) -> Result<RelationScan> {
        let segment = self.segment(name)?;
        self.bytes_read
            .fetch_add(segment.logical_bytes, Ordering::Relaxed);
        gumbo_obs::event("dfs.scan", |s| {
            s.str("relation", name.as_str());
            s.u64("bytes", segment.logical_bytes);
        });
        Ok(RelationScan::new(
            name.clone(),
            segment.arity,
            segment.tuples,
            ByteSize::bytes(segment.logical_bytes),
            Arc::new(FileScanSource {
                segment,
                cache: Arc::clone(&self.cache),
            }),
        ))
    }

    fn file_bytes(&self, name: &RelationName) -> Result<ByteSize> {
        Ok(ByteSize::bytes(self.segment(name)?.logical_bytes))
    }

    fn exists(&self, name: &RelationName) -> bool {
        self.state
            .read()
            .expect("unpoisoned DFS state")
            .files
            .contains_key(name)
    }

    fn delete(&self, name: &RelationName) -> Result<bool> {
        let old = {
            let mut state = self.state.write().expect("unpoisoned DFS state");
            let old = state.files.remove(name);
            if old.is_some() {
                self.write_manifest(&state)?;
            }
            old
        };
        match old {
            Some(seg) => {
                self.cache.purge_segment(seg.id);
                let _ = fs::remove_file(self.root.join(&seg.file_name));
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn file_names(&self) -> Vec<RelationName> {
        self.state
            .read()
            .expect("unpoisoned DFS state")
            .files
            .keys()
            .cloned()
            .collect()
    }

    fn bytes_read(&self) -> ByteSize {
        ByteSize::bytes(self.bytes_read.load(Ordering::Relaxed))
    }

    fn bytes_written(&self) -> ByteSize {
        ByteSize::bytes(self.bytes_written.load(Ordering::Relaxed))
    }

    fn reset_counters(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats(self.cache_capacity)
    }

    fn flush(&self) -> Result<()> {
        // Segments and the manifest are fsynced on every publication;
        // sync the directory so the renames are durable too.
        File::open(&self.root)
            .and_then(|d| d.sync_all())
            .map_err(|e| storage_err("syncing DFS root", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDfs;

    fn temp_root(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gumbo-filedfs-{}-{}-{label}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// RAII root cleanup so `cargo test` leaves no litter.
    struct Root(PathBuf);
    impl Drop for Root {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn rel(name: &str, n: i64) -> Relation {
        Relation::from_tuples(name, 2, (0..n).map(|i| Tuple::from_ints(&[i, i * 7]))).unwrap()
    }

    fn mixed_rel(name: &str) -> Relation {
        Relation::from_tuples(
            name,
            2,
            [
                Tuple::new(vec![Value::Int(1), Value::str("bad")]),
                Tuple::new(vec![Value::Int(2), Value::str("a-longer-string-value")]),
                Tuple::new(vec![Value::Int(-3), Value::Int(i64::MIN)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn store_read_round_trip_counts_like_sim() {
        let root = Root(temp_root("roundtrip"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let sim = SimDfs::new();
        let r = rel("R", 1000); // spans two frames
        let wf = Dfs::store(&file, r.clone()).unwrap();
        let ws = sim.store(r.clone());
        assert_eq!(wf, ws, "write metering matches sim");
        let back = Dfs::read(&file, &"R".into()).unwrap();
        assert_eq!(back.as_ref(), &r, "contents round-trip");
        assert_eq!(
            Dfs::bytes_read(&file),
            wf,
            "read metering is the logical size, not the encoded size"
        );
    }

    #[test]
    fn strings_and_negative_ints_round_trip() {
        let root = Root(temp_root("mixed"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let r = mixed_rel("M");
        Dfs::store(&file, r.clone()).unwrap();
        assert_eq!(Dfs::peek(&file, &"M".into()).unwrap().as_ref(), &r);
    }

    #[test]
    fn reopen_after_drop_restores_everything() {
        let root = Root(temp_root("reopen"));
        let r = rel("R", 600);
        let s = mixed_rel("S");
        {
            let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
            Dfs::store(&file, r.clone()).unwrap();
            Dfs::store(&file, s.clone()).unwrap();
            Dfs::flush(&file).unwrap();
        } // dropped: nothing survives but the files
        let file = FileDfs::open(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        assert_eq!(
            file.file_names(),
            vec![RelationName::from("R"), RelationName::from("S")]
        );
        assert_eq!(Dfs::peek(&file, &"R".into()).unwrap().as_ref(), &r);
        assert_eq!(Dfs::peek(&file, &"S".into()).unwrap().as_ref(), &s);
        assert_eq!(Dfs::bytes_read(&file), ByteSize::ZERO, "peek stays free");
        // Overwrites after reopen pick fresh segment ids.
        Dfs::store(&file, rel("R", 3)).unwrap();
        assert_eq!(Dfs::peek(&file, &"R".into()).unwrap().len(), 3);
    }

    #[test]
    fn cache_hits_on_second_read_misses_on_first() {
        let root = Root(temp_root("cache"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        Dfs::store(&file, rel("R", 1024)).unwrap(); // exactly two frames
        Dfs::read(&file, &"R".into()).unwrap();
        let cold = file.cache_stats();
        assert_eq!(cold.misses, 2, "cold read misses every frame");
        assert_eq!(cold.hits, 0);
        Dfs::read(&file, &"R".into()).unwrap();
        let warm = file.cache_stats();
        assert_eq!(warm.hits, 2, "warm read is all hits");
        assert_eq!(warm.misses, 2);
        assert_eq!(warm.evictions, 0);
        assert!(warm.cached_bytes > 0);
    }

    #[test]
    fn tiny_cache_evicts_but_answers_stay_right() {
        let root = Root(temp_root("evict"));
        let r = rel("R", 4096); // 8 frames × (512 × 20 B) = 10240 B/frame
                                // Budget for barely one frame: every pass re-misses.
        let file = FileDfs::create(&root.0, 11_000).unwrap();
        Dfs::store(&file, r.clone()).unwrap();
        assert_eq!(Dfs::read(&file, &"R".into()).unwrap().as_ref(), &r);
        assert_eq!(Dfs::read(&file, &"R".into()).unwrap().as_ref(), &r);
        let stats = file.cache_stats();
        assert!(
            stats.evictions > 0,
            "a cache smaller than the input must evict: {stats:?}"
        );
        assert!(stats.cached_bytes <= 11_000, "budget respected: {stats:?}");
    }

    #[test]
    fn zero_cache_disables_retention() {
        let root = Root(temp_root("nocache"));
        let file = FileDfs::create(&root.0, 0).unwrap();
        Dfs::store(&file, rel("R", 10)).unwrap();
        Dfs::read(&file, &"R".into()).unwrap();
        Dfs::read(&file, &"R".into()).unwrap();
        let stats = file.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.cached_bytes, 0);
    }

    #[test]
    fn scan_streams_ranges_and_meters_once() {
        let root = Root(temp_root("scan"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let r = rel("R", 1300); // three frames: 512 + 512 + 276
        let written = Dfs::store(&file, r.clone()).unwrap();
        let scan = Dfs::scan(&file, &"R".into()).unwrap();
        assert_eq!(Dfs::bytes_read(&file), written);
        // A mid-range fetch touches only covering frames.
        let mid = scan.fetch(500..530).unwrap();
        assert_eq!(mid.len(), 30);
        let touched = file.cache_stats();
        assert_eq!(touched.misses, 2, "two frames cover tuples 500..530");
        // Full reassembly equals the stored relation, in order.
        let all = scan.fetch(0..r.len()).unwrap();
        assert_eq!(all, r.iter().cloned().collect::<Vec<_>>());
        assert_eq!(
            Dfs::bytes_read(&file),
            written,
            "fetches are not re-metered"
        );
    }

    #[test]
    fn scan_snapshot_survives_overwrite() {
        let root = Root(temp_root("snapshot"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let r5 = rel("R", 5);
        Dfs::store(&file, r5.clone()).unwrap();
        let scan = Dfs::scan(&file, &"R".into()).unwrap();
        Dfs::store(&file, rel("R", 2)).unwrap(); // unlinks the old segment
        assert_eq!(
            scan.fetch(0..5).unwrap(),
            r5.iter().cloned().collect::<Vec<_>>(),
            "open scan keeps its snapshot after overwrite"
        );
        assert_eq!(Dfs::peek(&file, &"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn delete_removes_file_and_segment() {
        let root = Root(temp_root("delete"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        Dfs::store(&file, rel("R", 5)).unwrap();
        assert!(Dfs::delete(&file, &"R".into()).unwrap());
        assert!(!Dfs::exists(&file, &"R".into()));
        assert!(!Dfs::delete(&file, &"R".into()).unwrap());
        // Only the manifest remains on disk.
        let left: Vec<_> = fs::read_dir(&root.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".seg"))
            .collect();
        assert!(left.is_empty(), "segments left behind: {left:?}");
    }

    #[test]
    fn empty_relation_round_trips() {
        let root = Root(temp_root("empty"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let r = Relation::new("E", 3);
        Dfs::store(&file, r.clone()).unwrap();
        let back = Dfs::peek(&file, &"E".into()).unwrap();
        assert_eq!(back.as_ref(), &r);
        assert_eq!(back.arity(), 3, "arity survives an empty store");
        // And survives a restart.
        drop(file);
        let file = FileDfs::open(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        assert_eq!(Dfs::peek(&file, &"E".into()).unwrap().arity(), 3);
    }

    #[test]
    fn from_database_load_is_unmetered() {
        let root = Root(temp_root("fromdb"));
        let db: Database = [rel("A", 10), rel("B", 20)].into_iter().collect();
        let file = FileDfs::from_database(&root.0, DEFAULT_CACHE_BYTES, &db).unwrap();
        assert_eq!(Dfs::bytes_written(&file), ByteSize::ZERO);
        assert_eq!(file.file_names().len(), 2);
    }

    #[test]
    fn create_refuses_existing_manifest() {
        let root = Root(temp_root("refuse"));
        let _first = FileDfs::create(&root.0, 0).unwrap();
        let err = FileDfs::create(&root.0, 0).unwrap_err();
        assert!(err.to_string().contains("use open"), "{err}");
        assert!(FileDfs::open_or_create(&root.0, 0).is_ok());
    }

    #[test]
    fn corrupt_manifest_is_an_error() {
        let root = Root(temp_root("corrupt"));
        fs::create_dir_all(&root.0).unwrap();
        fs::write(root.0.join(MANIFEST), "not-a-manifest\tv9\n").unwrap();
        let err = FileDfs::open(&root.0, 0).unwrap_err();
        assert!(err.to_string().contains("manifest header"), "{err}");
    }

    #[test]
    fn torn_segment_is_an_error_on_open() {
        let root = Root(temp_root("torn"));
        {
            let file = FileDfs::create(&root.0, 0).unwrap();
            Dfs::store(&file, rel("R", 600)).unwrap();
        }
        // Truncate the segment mid-frame.
        let seg = fs::read_dir(&root.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let err = FileDfs::open(&root.0, 0).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn counters_match_sim_across_a_workload() {
        // Drive both backends through an identical store/read/overwrite
        // sequence: metered counters must agree exactly.
        let root = Root(temp_root("parity"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let sim = SimDfs::new();
        let both: [&dyn Dfs; 2] = [&file, &sim];
        for dfs in both {
            dfs.store(rel("R", 700)).unwrap();
            dfs.store(mixed_rel("S")).unwrap();
            dfs.read(&"R".into()).unwrap();
            dfs.scan(&"S".into()).unwrap();
            dfs.store(rel("R", 100)).unwrap(); // overwrite
            dfs.read(&"R".into()).unwrap();
            dfs.peek(&"S".into()).unwrap();
        }
        assert_eq!(Dfs::bytes_read(&file), Dfs::bytes_read(&sim));
        assert_eq!(Dfs::bytes_written(&file), Dfs::bytes_written(&sim));
        let dbf = Dfs::to_database(&file).unwrap();
        let dbs = Dfs::to_database(&sim).unwrap();
        assert_eq!(dbf, dbs, "file sets identical after the workload");
    }

    #[test]
    fn concurrent_scans_share_the_cache_safely() {
        let root = Root(temp_root("concurrent"));
        let file = FileDfs::create(&root.0, DEFAULT_CACHE_BYTES).unwrap();
        let r = rel("R", 2048);
        Dfs::store(&file, r.clone()).unwrap();
        let expected: Vec<Tuple> = r.iter().cloned().collect();
        let file = &file;
        let expected = &expected;
        std::thread::scope(|scope| {
            for t in 0..8 {
                scope.spawn(move || {
                    let scan = Dfs::scan(file, &"R".into()).unwrap();
                    for pass in 0..4 {
                        let lo = (t * 131 + pass * 47) % 1500;
                        let hi = lo + 300;
                        assert_eq!(scan.fetch(lo..hi).unwrap(), expected[lo..hi]);
                    }
                });
            }
        });
        let stats = file.cache_stats();
        assert!(stats.hits > 0, "concurrent scans should share frames");
    }
}
