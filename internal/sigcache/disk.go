package sigcache

// The disk store is the crash-safe persistence tier under the in-memory
// LRU: every cacheable entry is written through to an entry-per-file
// layout so a restarted server warms from disk and repeated submissions
// stay hits across deploys.
//
// # Crash safety
//
// A write is tmp-file → write → fsync → rename → fsync(dir). A kill -9
// at any point leaves either the complete old state, the complete new
// state, or an orphaned *.tmp file that the next scan deletes — a
// half-written entry is never visible under a final name. Defense in
// depth for the states rename-atomicity cannot rule out (torn sectors,
// fs bugs, manual tampering): every file ends in a sha256 footer over
// everything before it, verified on scan and again on every read, and
// the stored key is embedded so a hash-named file can never be served
// for the wrong signature. Anything that fails verification is
// quarantined (renamed to *.quarantine, preserved for forensics) and
// skipped — corruption is counted, never served.
//
// # Bounds
//
// The store is bytes-bounded like the memory tier: inserting past
// MaxBytes evicts least-recently-accessed entries (access order is
// approximated by file mtime, bumped on every hit) until the bound
// holds. An entry larger than the whole budget is never written.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// diskMagic opens every entry file; bump on layout change so an old
// binary quarantines (rather than misparses) a new file and vice versa.
var diskMagic = []byte("rmsc2\n")

const (
	entrySuffix      = ".entry"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantine"

	// DefaultDiskBytes bounds the disk tier when the caller passes no
	// bound (256 MiB — a deploy-surviving superset of the memory tier).
	DefaultDiskBytes = 256 << 20
)

// errCorrupt tags any integrity failure found while decoding an entry
// file: truncation, checksum mismatch, key mismatch, bad magic.
var errCorrupt = errors.New("sigcache: corrupt disk entry")

// DiskStats is a point-in-time counter snapshot of the disk tier.
type DiskStats struct {
	Entries int   // live entries in the index
	Bytes   int64 // file bytes of live entries

	Hits          int64 // reads served (verified) from disk
	Misses        int64 // lookups with no live entry
	ScanRecovered int64 // entries that verified and were indexed at open
	Quarantined   int64 // files that failed verification (scan or read) and were set aside
	Aborted       int64 // orphaned tmp files from interrupted writes, deleted at open
	Evictions     int64 // entries evicted by the byte bound
	WriteErrors   int64 // best-effort writes that failed (entry not persisted)
}

// DiskStore is the persistent tier. All methods are safe for concurrent
// use and never fail the request path: a broken disk degrades the cache
// to memory-only (counted in WriteErrors/Quarantined), it does not fail
// synthesis.
type DiskStore struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]*diskEnt
	bytes int64

	hits, misses  atomic.Int64
	scanRecovered atomic.Int64
	quarantined   atomic.Int64
	aborted       atomic.Int64
	evictions     atomic.Int64
	writeErrs     atomic.Int64
}

type diskEnt struct {
	file  string // absolute path
	size  int64
	atime time.Time // last access, the eviction order
}

// OpenDisk opens (creating if needed) the store rooted at dir and scans
// it: orphaned tmp files are deleted, every entry file is read and
// verified — checksum, layout, embedded key — and indexed; anything that
// fails verification is quarantined and skipped. maxBytes <= 0 means
// DefaultDiskBytes. If, after the scan, live entries exceed the bound,
// the oldest are evicted immediately.
func OpenDisk(dir string, maxBytes int64) (*DiskStore, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sigcache: opening disk store: %w", err)
	}
	d := &DiskStore{dir: dir, maxBytes: maxBytes, index: make(map[string]*diskEnt)}

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sigcache: scanning disk store: %w", err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// An interrupted write: the entry was never committed, the
			// debris is expected and harmless. Deleting it is the whole
			// recovery.
			os.Remove(path)
			d.aborted.Add(1)
		case strings.HasSuffix(name, entrySuffix):
			key, e, size, mtime, rerr := readEntryFile(path)
			if rerr != nil {
				d.quarantine(path)
				continue
			}
			if old, ok := d.index[key]; ok {
				// Duplicate key (e.g. a crashed GC): keep the newer file.
				if mtime.Before(old.atime) {
					os.Remove(path)
					continue
				}
				os.Remove(old.file)
				d.bytes -= old.size
			}
			d.index[key] = &diskEnt{file: path, size: size, atime: mtime}
			d.bytes += size
			d.scanRecovered.Add(1)
			_ = e
		}
	}
	d.mu.Lock()
	d.evictLocked()
	d.mu.Unlock()
	return d, nil
}

// Dir returns the store's root directory.
func (d *DiskStore) Dir() string { return d.dir }

// Get returns the verified entry stored under key, or nil. The file is
// re-read and re-verified on every hit — checksum and embedded key — so
// corruption that appeared after the open scan is still caught (and
// quarantined) rather than served.
func (d *DiskStore) Get(key string) *Entry {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	ent, ok := d.index[key]
	if !ok {
		d.mu.Unlock()
		d.misses.Add(1)
		return nil
	}
	path := ent.file
	d.mu.Unlock()

	gotKey, e, _, _, err := readEntryFile(path)
	if err != nil || gotKey != key {
		d.quarantine(path)
		d.mu.Lock()
		if cur, ok := d.index[key]; ok && cur.file == path {
			d.bytes -= cur.size
			delete(d.index, key)
		}
		d.mu.Unlock()
		d.misses.Add(1)
		return nil
	}
	d.hits.Add(1)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort LRU bump
	d.mu.Lock()
	if cur, ok := d.index[key]; ok && cur.file == path {
		cur.atime = now
	}
	d.mu.Unlock()
	return e
}

// Put persists the entry under key, best-effort: a failed write is
// counted, never surfaced — the request was already served from the
// result, persistence is an optimization. Oversized entries are skipped.
func (d *DiskStore) Put(key string, e *Entry) {
	if d == nil || e == nil {
		return
	}
	data := encodeEntry(key, e)
	if int64(len(data)) > d.maxBytes {
		return
	}
	path := filepath.Join(d.dir, entryFileName(key))
	if err := d.writeAtomic(path, data); err != nil {
		d.writeErrs.Add(1)
		return
	}
	now := time.Now()
	d.mu.Lock()
	if old, ok := d.index[key]; ok {
		d.bytes -= old.size
	}
	d.index[key] = &diskEnt{file: path, size: int64(len(data)), atime: now}
	d.bytes += int64(len(data))
	d.evictLocked()
	d.mu.Unlock()
}

// Has reports whether key is in the live index, without touching disk.
func (d *DiskStore) Has(key string) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.index[key]
	return ok
}

// Len returns the live entry count.
func (d *DiskStore) Len() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.index)
}

// Stats snapshots the tier's counters.
func (d *DiskStore) Stats() DiskStats {
	if d == nil {
		return DiskStats{}
	}
	d.mu.Lock()
	entries, bytes := len(d.index), d.bytes
	d.mu.Unlock()
	return DiskStats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          d.hits.Load(),
		Misses:        d.misses.Load(),
		ScanRecovered: d.scanRecovered.Load(),
		Quarantined:   d.quarantined.Load(),
		Aborted:       d.aborted.Load(),
		Evictions:     d.evictions.Load(),
		WriteErrors:   d.writeErrs.Load(),
	}
}

// quarantine sets a failed file aside under a *.quarantine name (best
// effort; if even the rename fails, the file is deleted so it can never
// be re-scanned into the index).
func (d *DiskStore) quarantine(path string) {
	d.quarantined.Add(1)
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		os.Remove(path)
	}
}

// evictLocked deletes least-recently-accessed entries until the byte
// bound holds. Caller holds d.mu.
func (d *DiskStore) evictLocked() {
	if d.bytes <= d.maxBytes {
		return
	}
	type kv struct {
		key string
		ent *diskEnt
	}
	all := make([]kv, 0, len(d.index))
	for k, e := range d.index {
		all = append(all, kv{k, e})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ent.atime.Before(all[j].ent.atime) })
	for _, it := range all {
		if d.bytes <= d.maxBytes {
			break
		}
		os.Remove(it.ent.file)
		d.bytes -= it.ent.size
		delete(d.index, it.key)
		d.evictions.Add(1)
	}
}

// writeAtomic commits data to path via tmp-write-fsync-rename-fsync.
func (d *DiskStore) writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(d.dir, "w-*"+tmpSuffix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(d.dir)
}

// syncDir fsyncs the directory so the rename itself is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// entryFileName derives the on-disk name for a key: the key itself is a
// hex signature plus a short flow suffix, but it can contain characters
// unfit for filenames, so the name is its sha256.
func entryFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return fmt.Sprintf("sc-%x%s", sum[:20], entrySuffix)
}

// encodeEntry serializes key+entry with the integrity footer.
//
//	magic | u32 keyLen | key | u32 bodyLen | body | sha256(prefix)
func encodeEntry(key string, e *Entry) []byte {
	var b bytes.Buffer
	b.Write(diskMagic)
	putU32 := func(v uint32) {
		var u [4]byte
		binary.LittleEndian.PutUint32(u[:], v)
		b.Write(u[:])
	}
	putU32(uint32(len(key)))
	b.WriteString(key)
	putU32(uint32(len(e.Body)))
	b.Write(e.Body)
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// decodeEntry parses and verifies one serialized entry.
func decodeEntry(data []byte) (key string, e *Entry, err error) {
	if len(data) < len(diskMagic)+sha256.Size || !bytes.Equal(data[:len(diskMagic)], diskMagic) {
		return "", nil, errCorrupt
	}
	payload, footer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], footer) {
		return "", nil, errCorrupt
	}
	p := payload[len(diskMagic):]
	getU32 := func() (uint32, bool) {
		if len(p) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p[:4])
		p = p[4:]
		return v, true
	}
	getBytes := func() ([]byte, bool) {
		n, ok := getU32()
		if !ok || uint32(len(p)) < n {
			return nil, false
		}
		v := p[:n]
		p = p[n:]
		return v, true
	}
	kb, ok := getBytes()
	if !ok {
		return "", nil, errCorrupt
	}
	body, ok := getBytes()
	if !ok || len(p) != 0 {
		return "", nil, errCorrupt
	}
	return string(kb), &Entry{Body: append([]byte(nil), body...)}, nil
}

// readEntryFile loads, verifies, and decodes one entry file.
func readEntryFile(path string) (key string, e *Entry, size int64, mtime time.Time, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", nil, 0, time.Time{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, 0, time.Time{}, err
	}
	key, e, err = decodeEntry(data)
	if err != nil {
		return "", nil, 0, time.Time{}, err
	}
	return key, e, fi.Size(), fi.ModTime(), nil
}
