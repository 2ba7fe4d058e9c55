package sigcache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testEntry(i int) (string, *Entry) {
	key := fmt.Sprintf("f:%040x|m0|p0|B0", i)
	return key, &Entry{
		Body: []byte(fmt.Sprintf(`{"schema":"rmsynd/v1","circuit":"c%d","padding":"%s"}`, i, strings.Repeat("x", 100))),
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, e := testEntry(1)
	d.Put(key, e)
	got := d.Get(key)
	if got == nil {
		t.Fatal("Get after Put returned nil")
	}
	if !bytes.Equal(got.Body, e.Body) {
		t.Errorf("round-trip mismatch: got %+v want %+v", got, e)
	}
	if d.Get("f:unknown") != nil {
		t.Error("Get of unknown key returned an entry")
	}

	// A fresh open warms from the same directory.
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.ScanRecovered != 1 || st.Quarantined != 0 {
		t.Errorf("rescan stats = %+v, want 1 recovered, 0 quarantined", st)
	}
	if got := d2.Get(key); got == nil || !bytes.Equal(got.Body, e.Body) {
		t.Error("warm restart did not serve the persisted entry")
	}
}

// TestDiskCrashTruncation is the arbitrary-point crash sweep: every
// proper prefix of a committed entry file must be detected — quarantined
// and skipped, never decoded into a served entry. (tmp+rename makes
// truncated final files unreachable from a kill -9 alone; this covers
// the torn-write and tampering states the checksum footer exists for.)
func TestDiskCrashTruncation(t *testing.T) {
	key, e := testEntry(2)
	full := encodeEntry(key, e)

	// Sample every length for small files; stride for speed on the tail.
	for cut := 0; cut < len(full)-1; cut += 7 {
		dir := t.TempDir()
		path := filepath.Join(dir, entryFileName(key))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir, 0)
		if err != nil {
			t.Fatalf("cut %d: OpenDisk: %v", cut, err)
		}
		st := d.Stats()
		if st.Quarantined != 1 || st.ScanRecovered != 0 {
			t.Fatalf("cut %d: stats = %+v, want quarantined=1 recovered=0", cut, st)
		}
		if d.Get(key) != nil {
			t.Fatalf("cut %d: truncated entry was served", cut)
		}
		// The quarantined file must be preserved under its new name and
		// never re-indexed on the next scan.
		q, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix))
		if len(q) != 1 {
			t.Fatalf("cut %d: %d quarantine files, want 1", cut, len(q))
		}
		d2, err := OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := d2.Stats(); st.ScanRecovered != 0 || st.Quarantined != 0 {
			t.Fatalf("cut %d: rescan saw the quarantined file: %+v", cut, st)
		}
	}
}

// TestDiskBitFlip: a single corrupted byte anywhere in a committed file
// fails the checksum and is quarantined, at scan time and at read time.
func TestDiskBitFlip(t *testing.T) {
	key, e := testEntry(3)
	full := encodeEntry(key, e)
	for _, pos := range []int{0, len(diskMagic) + 2, len(full) / 2, len(full) - 1} {
		dir := t.TempDir()
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0x40
		path := filepath.Join(dir, entryFileName(key))
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Get(key) != nil {
			t.Fatalf("flip at %d: corrupt entry was served", pos)
		}
		if st := d.Stats(); st.Quarantined != 1 {
			t.Fatalf("flip at %d: stats = %+v, want quarantined=1", pos, st)
		}
	}
}

// TestDiskReadTimeCorruption: corruption that appears after the open
// scan (the window the restart-soak's kill -9 cannot produce but a bad
// disk can) is caught on Get — quarantined, not served.
func TestDiskReadTimeCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, e := testEntry(4)
	d.Put(key, e)
	path := filepath.Join(dir, entryFileName(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if d.Get(key) != nil {
		t.Fatal("entry corrupted after scan was served")
	}
	st := d.Stats()
	if st.Quarantined != 1 {
		t.Errorf("stats = %+v, want quarantined=1", st)
	}
	if d.Get(key) != nil || d.Has(key) {
		t.Error("corrupt entry still reachable after quarantine")
	}
}

// TestDiskWrongKey: a file whose embedded key does not match the lookup
// key (hash-name collision or a copied file) is never served for it.
func TestDiskWrongKey(t *testing.T) {
	dir := t.TempDir()
	keyA, e := testEntry(5)
	keyB, _ := testEntry(6)
	// Encode under keyA but place at keyB's file name.
	if err := os.WriteFile(filepath.Join(dir, entryFileName(keyB)), encodeEntry(keyA, e), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The scan indexes it under its embedded key — keyA — so keyB misses.
	if d.Get(keyB) != nil {
		t.Error("entry served under a key it was not stored for")
	}
	if d.Get(keyA) == nil {
		t.Error("entry not served under its embedded key")
	}
}

func TestDiskTmpDebrisRemoved(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "w-123"+tmpSuffix), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Aborted != 1 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want aborted=1 quarantined=0 (tmp debris is expected, not corruption)", st)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix)); len(left) != 0 {
		t.Errorf("tmp debris survived the scan: %v", left)
	}
}

func TestDiskByteBoundEviction(t *testing.T) {
	dir := t.TempDir()
	_, proto := testEntry(0)
	one := int64(len(encodeEntry("k", proto))) + 64
	d, err := OpenDisk(dir, 3*one)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 6; i++ {
		k, e := testEntry(10 + i)
		keys = append(keys, k)
		d.Put(k, e)
		// Distinct mtimes so the eviction order is deterministic even on
		// coarse filesystem timestamps.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		os.Chtimes(filepath.Join(dir, entryFileName(k)), old, old)
		dd := d
		dd.mu.Lock()
		if ent, ok := dd.index[k]; ok {
			ent.atime = old
		}
		dd.mu.Unlock()
	}
	st := d.Stats()
	if st.Bytes > 3*one {
		t.Errorf("disk bytes %d over the %d bound", st.Bytes, 3*one)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded despite exceeding the byte bound")
	}
	// The oldest entries are the evicted ones.
	if d.Has(keys[0]) {
		t.Error("oldest entry survived eviction")
	}
	if !d.Has(keys[len(keys)-1]) {
		t.Error("newest entry was evicted")
	}
}

// TestCacheDiskTier: the Cache serves memory hits first, falls to the
// disk tier on memory miss (promoting the entry), and writes through on
// cacheable results.
func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(4, 1<<20)
	c.SetDisk(d)

	key, e := testEntry(20)
	ctx := context.Background()
	ran := 0
	do := func() (*Entry, bool, error) { ran++; return e, true, nil }

	if _, src, err := c.GetOrDo(ctx, key, key, do); err != nil || src != Miss {
		t.Fatalf("first call: src=%v err=%v, want miss", src, err)
	}
	if ran != 1 {
		t.Fatalf("fn ran %d times, want 1", ran)
	}
	if !d.Has(key) {
		t.Fatal("cacheable result did not write through to disk")
	}
	if _, src, _ := c.GetOrDo(ctx, key, key, do); src != Hit {
		t.Fatalf("second call: src=%v, want memory hit", src)
	}

	// A fresh Cache over the same DiskStore models a restart: the entry
	// comes back from disk, then from memory.
	c2 := New(4, 1<<20)
	c2.SetDisk(d)
	got, src, err := c2.GetOrDo(ctx, key, key, do)
	if err != nil || src != DiskHit {
		t.Fatalf("post-restart call: src=%v err=%v, want disk", src, err)
	}
	if !bytes.Equal(got.Body, e.Body) {
		t.Error("disk-tier body differs from original")
	}
	if _, src, _ := c2.GetOrDo(ctx, key, key, do); src != Hit {
		t.Errorf("promoted entry not served from memory: src=%v", src)
	}
	if ran != 1 {
		t.Errorf("fn ran %d times across the restart, want 1 (disk absorbed the rest)", ran)
	}
}

// TestCacheDiskDegradedNotPersisted: non-cacheable results (degraded
// runs) reach neither tier.
func TestCacheDiskDegradedNotPersisted(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := New(4, 1<<20)
	c.SetDisk(d)
	key, e := testEntry(21)
	if _, _, err := c.GetOrDo(context.Background(), key, key,
		func() (*Entry, bool, error) { return e, false, nil }); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || d.Len() != 0 {
		t.Errorf("non-cacheable result persisted: mem=%d disk=%d entries", c.Len(), d.Len())
	}
}
