// Package atlas is a persistent, fingerprint-indexed store of solved
// mappings: the Paperscape pattern of precomputing answers offline and
// serving lookups online. Each entry binds one exact search identity —
// workload fingerprint × accelerator fingerprint × cost-model backend ×
// objective × problem shape — to the best mapping found for it and that
// mapping's normalized objective value, so a repeated /v1/search request
// can be answered in microseconds instead of re-running a descent.
//
// Entries are grouped two ways. The Key is the exact identity: a lookup
// hit means the stored mapping answers the request outright. The Family
// drops the shape, grouping every solved instance of the same workload,
// arch, cost model, and objective: on a key miss, Nearest finds the
// same-family entry whose shape is closest in log2 space, and the caller
// re-projects its mapping into the target map space as a warm start
// ("Demystifying Map Space Exploration for NPUs" observes that good
// mappings transfer across similar shapes).
//
// Durability reuses modelstore's commit protocol: the mapping blob
// (<id>.mapping, JSON) is staged under a tmp- name and renamed into place
// first, then the manifest (<id>.json) is staged and renamed — the
// manifest rename is the commit point. Open ignores tmp- files and blobs
// without manifests, and treats manifests without blobs as invisible, so
// a crash mid-publish never yields a partially visible entry; GC sweeps
// the debris.
package atlas

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mindmappings/internal/mapspace"
)

const (
	// BlobExt is the extension of mapping blob files.
	BlobExt = ".mapping"
	// ManifestExt is the extension of entry manifest files; the manifest
	// rename is the commit point.
	ManifestExt = ".json"
	tmpPrefix   = "tmp-"
)

// Entry is the manifest of one solved mapping. The ID is content-derived
// (key + blob bytes), so republishing an identical solution is a no-op.
type Entry struct {
	ID string `json:"id"`
	// Key is the exact search identity this mapping answers; Family is
	// the shape-independent prefix of it (see Key).
	Key    string `json:"key"`
	Family string `json:"family"`
	// Provenance: the pieces the key was derived from, kept readable so
	// `mindmappings atlas` listings and GC staleness checks don't need to
	// invert a hash.
	Algo      string `json:"algo"`
	AlgoFP    string `json:"algo_fp"`
	ArchFP    string `json:"arch_fp"`
	CostModel string `json:"cost_model"`
	Objective string `json:"objective"`
	Shape     []int  `json:"shape"`
	// BestEDP is the normalized objective value of the stored mapping —
	// the comparison basis for only-if-better write-back.
	BestEDP float64   `json:"best_edp"`
	Evals   int       `json:"evals"`
	Method  string    `json:"method"`
	Source  string    `json:"source,omitempty"` // "build" (offline sweep) or "serve" (write-back)
	Version int       `json:"version"`          // per-key publish sequence
	Created time.Time `json:"created"`
}

// Key derives the exact-entry key and its shape-independent family from a
// search identity. All inputs are length-prefixed before hashing so no
// concatenation of fields can collide with another; the family hash is
// the prefix of the key hash input, making key membership in a family a
// structural fact rather than a convention.
func Key(algoFP, archFP, costModel, objective string, shape []int) (key, family string) {
	var buf []byte
	for _, s := range []string{algoFP, archFP, costModel, objective} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	fsum := sha256.Sum256(buf)
	family = hex.EncodeToString(fsum[:8])

	buf = append(buf[:0], fsum[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(shape)))
	for _, size := range shape {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(size))
	}
	ksum := sha256.Sum256(buf)
	return hex.EncodeToString(ksum[:8]), family
}

// ShapeDistance is the neighbor metric: Euclidean distance between shapes
// in log2 space, so "twice as large" costs the same step in every
// dimension and at every scale. Mismatched lengths are infinitely far
// apart (they cannot belong to the same algorithm).
func ShapeDistance(a, b []int) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := math.Log2(float64(a[i])) - math.Log2(float64(b[i]))
		sum += d * d
	}
	return math.Sqrt(sum)
}

// record is an indexed entry plus its lazily loaded, cached mapping.
type record struct {
	e       Entry
	mapping *mapspace.Mapping // decoded on first Lookup/Nearest, then cached
}

// Atlas is the on-disk store plus its in-memory index. Safe for
// concurrent use.
type Atlas struct {
	dir string

	mu       sync.RWMutex
	byID     map[string]*record
	byKey    map[string][]*record          // version-ascending per key
	byFamily map[string]map[string]*record // family → key → best record
	corrupt  int

	// pending tracks staged tmp files owned by in-flight publishes so a
	// concurrent GC does not sweep them.
	pendingMu sync.Mutex
	pending   map[string]struct{}

	failMu    sync.Mutex
	failpoint func(op string) error
}

// ErrUnknownEntry is returned by Delete for an ID the atlas has no
// committed entry for.
var ErrUnknownEntry = errors.New("atlas: unknown entry")

// SetFailpoint installs (or clears, with nil) the publish failpoint used
// by fault injection; the hook fires as "atlas.publish" before any write.
func (a *Atlas) SetFailpoint(fn func(op string) error) {
	a.failMu.Lock()
	a.failpoint = fn
	a.failMu.Unlock()
}

func (a *Atlas) fail(op string) error {
	a.failMu.Lock()
	fn := a.failpoint
	a.failMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op)
}

// Open scans dir (creating it if needed) and indexes every committed
// entry. Tmp files and blobs without manifests — crash leftovers — are
// ignored here and reaped by GC; manifests without blobs are invisible.
func Open(dir string) (*Atlas, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	a := &Atlas{
		dir:      dir,
		byID:     make(map[string]*record),
		byKey:    make(map[string][]*record),
		byFamily: make(map[string]map[string]*record),
		pending:  make(map[string]struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ManifestExt) || strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			a.corrupt++
			continue
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil || e.ID == "" || e.Key == "" || e.Family == "" {
			a.corrupt++
			continue
		}
		if _, err := os.Stat(a.BlobPath(e.ID)); err != nil {
			// Manifest without blob: a half-deleted entry. Invisible; GC
			// removes the stray manifest.
			a.corrupt++
			continue
		}
		a.indexLocked(&record{e: e})
	}
	return a, nil
}

// Dir returns the atlas root directory.
func (a *Atlas) Dir() string { return a.dir }

// BlobPath returns the path of an entry's mapping blob.
func (a *Atlas) BlobPath(id string) string { return filepath.Join(a.dir, id+BlobExt) }

func (a *Atlas) manifestPath(id string) string { return filepath.Join(a.dir, id+ManifestExt) }

// indexLocked inserts rec into all three indexes, keeping key groups
// version-ascending and the family view pointed at each key's best entry.
// Callers hold mu (or own the atlas exclusively).
func (a *Atlas) indexLocked(rec *record) {
	a.byID[rec.e.ID] = rec
	group := append(a.byKey[rec.e.Key], rec)
	sort.SliceStable(group, func(i, j int) bool { return group[i].e.Version < group[j].e.Version })
	a.byKey[rec.e.Key] = group
	a.reindexFamilyLocked(rec.e.Key, rec.e.Family)
}

// reindexFamilyLocked repoints (or drops) the family view of one key at
// the key group's current best record. Callers hold mu.
func (a *Atlas) reindexFamilyLocked(key, family string) {
	best := a.bestLocked(key)
	fam := a.byFamily[family]
	if best == nil {
		if fam != nil {
			delete(fam, key)
			if len(fam) == 0 {
				delete(a.byFamily, family)
			}
		}
		return
	}
	if fam == nil {
		fam = make(map[string]*record)
		a.byFamily[family] = fam
	}
	fam[key] = best
}

// bestLocked returns the key's best committed record: lowest BestEDP,
// ties broken by the newest version. Callers hold mu.
func (a *Atlas) bestLocked(key string) *record {
	var best *record
	for _, rec := range a.byKey[key] {
		if best == nil || rec.e.BestEDP < best.e.BestEDP ||
			(rec.e.BestEDP == best.e.BestEDP && rec.e.Version > best.e.Version) {
			best = rec
		}
	}
	return best
}

// Publish commits a solved mapping, unless the atlas already holds an
// equal-or-better entry for the same key ("only-if-better": serving
// write-back must never regress a stored answer; see DESIGN.md §11). The
// blob is renamed into place before the manifest, so readers only ever
// observe complete entries. On success any superseded entries for the key
// are deleted best-effort — a crash in between leaves extra entries that
// Lookup resolves by best-value and GC reaps. Returns the visible entry
// for the key and whether this call committed a new one.
func (a *Atlas) Publish(e Entry, m *mapspace.Mapping) (Entry, bool, error) {
	if err := a.fail("atlas.publish"); err != nil {
		return Entry{}, false, err
	}
	if e.Key == "" || e.Family == "" {
		return Entry{}, false, errors.New("atlas: publish needs the entry key and family")
	}
	if m == nil || len(m.Spatial) == 0 {
		return Entry{}, false, errors.New("atlas: publish needs a complete mapping")
	}
	if math.IsNaN(e.BestEDP) || math.IsInf(e.BestEDP, 0) || e.BestEDP <= 0 {
		return Entry{}, false, fmt.Errorf("atlas: publish with unusable objective value %v", e.BestEDP)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	// The ID covers the key as well as the blob: the same mapping solved
	// under two identities (say, two objectives) must yield two entries.
	sum := sha256.New()
	sum.Write([]byte(e.Key))
	sum.Write(blob)
	e.ID = hex.EncodeToString(sum.Sum(nil))[:16]

	a.mu.RLock()
	cur := a.bestLocked(e.Key)
	a.mu.RUnlock()
	if cur != nil && cur.e.BestEDP <= e.BestEDP {
		return cur.e, false, nil
	}

	// Stage the blob outside the lock — lookups on the serving path never
	// stall behind a publication.
	blobTmp, err := a.writeTemp(blob)
	if err != nil {
		return Entry{}, false, err
	}
	defer a.forgetTemp(blobTmp)

	a.mu.Lock()
	defer a.mu.Unlock()
	if existing, ok := a.byID[e.ID]; ok {
		os.Remove(blobTmp)
		return existing.e, false, nil
	}
	if cur := a.bestLocked(e.Key); cur != nil && cur.e.BestEDP <= e.BestEDP {
		os.Remove(blobTmp)
		return cur.e, false, nil
	}
	e.Version = a.nextVersionLocked(e.Key)
	e.Created = time.Now().UTC()
	raw, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		os.Remove(blobTmp)
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	manTmp, err := a.writeTemp(raw)
	if err != nil {
		os.Remove(blobTmp)
		return Entry{}, false, err
	}
	defer a.forgetTemp(manTmp)
	if err := os.Rename(blobTmp, a.BlobPath(e.ID)); err != nil {
		os.Remove(blobTmp)
		os.Remove(manTmp)
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	// Commit point: after this rename the entry is visible.
	if err := os.Rename(manTmp, a.manifestPath(e.ID)); err != nil {
		os.Remove(a.BlobPath(e.ID))
		os.Remove(manTmp)
		return Entry{}, false, fmt.Errorf("atlas: %w", err)
	}
	cached := m.Clone()
	superseded := a.byKey[e.Key]
	a.indexLocked(&record{e: e, mapping: &cached})
	for _, old := range superseded {
		a.removeLocked(old) // best-effort tidy; GC handles crash leftovers
	}
	return e, true, nil
}

// removeLocked deletes one committed record, manifest first so a crash in
// between leaves an invisible blob rather than a blobless manifest.
// Callers hold mu.
func (a *Atlas) removeLocked(rec *record) {
	os.Remove(a.manifestPath(rec.e.ID))
	os.Remove(a.BlobPath(rec.e.ID))
	delete(a.byID, rec.e.ID)
	group := a.byKey[rec.e.Key][:0]
	for _, g := range a.byKey[rec.e.Key] {
		if g != rec {
			group = append(group, g)
		}
	}
	if len(group) == 0 {
		delete(a.byKey, rec.e.Key)
	} else {
		a.byKey[rec.e.Key] = group
	}
	a.reindexFamilyLocked(rec.e.Key, rec.e.Family)
}

// writeTemp stages data in an uncommitted temp file inside the atlas
// directory (same filesystem, so the commit renames are atomic) and
// returns its path. Pair with forgetTemp once renamed or removed.
func (a *Atlas) writeTemp(data []byte) (string, error) {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return "", fmt.Errorf("atlas: %w", err)
	}
	tmp := filepath.Join(a.dir, tmpPrefix+hex.EncodeToString(nonce[:]))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("atlas: %w", err)
	}
	a.pendingMu.Lock()
	a.pending[filepath.Base(tmp)] = struct{}{}
	a.pendingMu.Unlock()
	return tmp, nil
}

func (a *Atlas) forgetTemp(path string) {
	a.pendingMu.Lock()
	delete(a.pending, filepath.Base(path))
	a.pendingMu.Unlock()
}

func (a *Atlas) isPending(name string) bool {
	a.pendingMu.Lock()
	defer a.pendingMu.Unlock()
	_, ok := a.pending[name]
	return ok
}

func (a *Atlas) nextVersionLocked(key string) int {
	v := 0
	for _, rec := range a.byKey[key] {
		if rec.e.Version > v {
			v = rec.e.Version
		}
	}
	return v + 1
}

// mappingOf returns the record's decoded mapping, loading and caching it
// on first use.
func (a *Atlas) mappingOf(rec *record) (*mapspace.Mapping, error) {
	a.mu.RLock()
	m := rec.mapping
	a.mu.RUnlock()
	if m != nil {
		return m, nil
	}
	raw, err := os.ReadFile(a.BlobPath(rec.e.ID))
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	var decoded mapspace.Mapping
	if err := json.Unmarshal(raw, &decoded); err != nil {
		return nil, fmt.Errorf("atlas: entry %s: %w", rec.e.ID, err)
	}
	a.mu.Lock()
	if rec.mapping == nil {
		rec.mapping = &decoded
	}
	m = rec.mapping
	a.mu.Unlock()
	return m, nil
}

// Lookup is the exact-hit read path: the best committed entry for the key
// plus a private clone of its mapping.
func (a *Atlas) Lookup(key string) (Entry, mapspace.Mapping, bool, error) {
	a.mu.RLock()
	rec := a.bestLocked(key)
	a.mu.RUnlock()
	if rec == nil {
		return Entry{}, mapspace.Mapping{}, false, nil
	}
	m, err := a.mappingOf(rec)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, false, err
	}
	return rec.e, m.Clone(), true, nil
}

// Get returns the committed entry with the given ID.
func (a *Atlas) Get(id string) (Entry, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	rec, ok := a.byID[id]
	if !ok {
		return Entry{}, false
	}
	return rec.e, true
}

// Nearest is the warm-start read path: among the family's entries whose
// shape differs from the target, the one at minimum ShapeDistance (ties
// broken by key for determinism), with a private clone of its mapping.
// Callers re-project the mapping into the target shape's map space.
func (a *Atlas) Nearest(family string, shape []int) (Entry, mapspace.Mapping, float64, bool, error) {
	a.mu.RLock()
	var best *record
	bestDist := math.Inf(1)
	for _, rec := range a.byFamily[family] {
		if shapesEqual(rec.e.Shape, shape) {
			continue
		}
		d := ShapeDistance(rec.e.Shape, shape)
		if d < bestDist || (d == bestDist && best != nil && rec.e.Key < best.e.Key) {
			bestDist = d
			best = rec
		}
	}
	a.mu.RUnlock()
	if best == nil || math.IsInf(bestDist, 0) {
		return Entry{}, mapspace.Mapping{}, 0, false, nil
	}
	m, err := a.mappingOf(best)
	if err != nil {
		return Entry{}, mapspace.Mapping{}, 0, false, err
	}
	return best.e, m.Clone(), bestDist, true, nil
}

func shapesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// List returns every committed entry, ordered by workload, then key, then
// version — the `mindmappings atlas` listing order.
func (a *Atlas) List() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, 0, len(a.byID))
	for _, rec := range a.byID {
		out = append(out, rec.e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Algo != out[j].Algo {
			return out[i].Algo < out[j].Algo
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Delete removes one entry by ID, manifest first (the inverse of the
// commit order, so a crash mid-delete leaves an invisible blob for GC).
func (a *Atlas) Delete(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownEntry, id)
	}
	if err := os.Remove(a.manifestPath(id)); err != nil {
		return fmt.Errorf("atlas: %w", err)
	}
	os.Remove(a.BlobPath(id)) // best effort; GC reaps stragglers
	delete(a.byID, id)
	group := a.byKey[rec.e.Key][:0]
	for _, g := range a.byKey[rec.e.Key] {
		if g != rec {
			group = append(group, g)
		}
	}
	if len(group) == 0 {
		delete(a.byKey, rec.e.Key)
	} else {
		a.byKey[rec.e.Key] = group
	}
	a.reindexFamilyLocked(rec.e.Key, rec.e.Family)
	return nil
}

// GC removes superseded per-key versions (everything but each key's best
// entry), entries the stale predicate condemns (drifted workload
// fingerprints, say), and crash leftovers: tmp files not owned by an
// in-flight publish, blobs without manifests, manifests without blobs. It
// returns removed entry IDs (file names for orphans). A nil predicate
// keeps everything current.
func (a *Atlas) GC(stale func(Entry) bool) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var removed []string
	var victims []*record
	for key, group := range a.byKey {
		best := a.bestLocked(key)
		for _, rec := range group {
			if rec != best {
				victims = append(victims, rec)
			}
		}
	}
	for _, rec := range victims {
		a.removeLocked(rec)
		removed = append(removed, rec.e.ID)
	}
	if stale != nil {
		victims = victims[:0]
		for _, rec := range a.byID {
			if stale(rec.e) {
				victims = append(victims, rec)
			}
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].e.ID < victims[j].e.ID })
		for _, rec := range victims {
			a.removeLocked(rec)
			removed = append(removed, rec.e.ID)
		}
	}
	// Sweep uncommitted leftovers.
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return removed, fmt.Errorf("atlas: gc: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			if a.isPending(name) {
				continue // an in-flight Publish owns this staging file
			}
		case strings.HasSuffix(name, BlobExt):
			if _, ok := a.byID[strings.TrimSuffix(name, BlobExt)]; ok {
				continue
			}
		case strings.HasSuffix(name, ManifestExt):
			if _, ok := a.byID[strings.TrimSuffix(name, ManifestExt)]; ok {
				continue
			}
		default:
			continue // not an atlas file; leave it alone
		}
		if err := os.Remove(filepath.Join(a.dir, name)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("atlas: gc: %w", err)
		}
		removed = append(removed, name)
	}
	a.corrupt = 0
	return removed, nil
}

// Stats is a point-in-time atlas snapshot for listings and atlas_entries.
type Stats struct {
	// Entries counts committed entries; Keys counts distinct exact
	// identities; Families counts shape-independent groups.
	Entries  int
	Keys     int
	Families int
	// Corrupt counts unreadable or uncommitted entries seen at Open and
	// not yet swept by GC.
	Corrupt int
}

// Stats snapshots index counters.
func (a *Atlas) Stats() Stats {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return Stats{
		Entries:  len(a.byID),
		Keys:     len(a.byKey),
		Families: len(a.byFamily),
		Corrupt:  a.corrupt,
	}
}
