// Package modelstore is the versioned, content-addressed artifact store
// for trained Phase-1 surrogates — the persistence layer that closes the
// train→search loop. Each published surrogate becomes an immutable pair of
// files committed by atomic renames: a blob (`<id>.surrogate`, the
// surrogate serialization, with id derived from the blob's SHA-256) and a
// JSON manifest (`<id>.json`) carrying everything needed to pick a model
// without loading it — the workload fingerprint, architecture and
// cost-model fingerprints, the training configuration, final and per-epoch
// losses, and the parent artifact for warm-started runs.
//
// The manifest rename is the commit point: a blob without a manifest is
// invisible to every reader, so a crash mid-publish can never surface a
// partial artifact (GC sweeps such orphans). An in-memory index keyed by
// workload fingerprint resolves "the best model for this algorithm" — the
// highest version, ties broken by recency — which is what the service's
// `"model": "auto"` and the trainer's `"warm": "auto"` ride on.
package modelstore

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mindmappings/internal/arch"
	"mindmappings/internal/surrogate"
)

const (
	// BlobExt is the artifact-blob suffix; ManifestExt commits it.
	BlobExt     = ".surrogate"
	ManifestExt = ".json"
	tmpPrefix   = "tmp-"
)

// ErrUnknownArtifact is wrapped by Load and Delete for IDs the store does
// not index; callers map it to 404.
var ErrUnknownArtifact = errors.New("modelstore: unknown artifact")

// Manifest describes one published surrogate artifact. It is the unit the
// index, the HTTP API, and the CLI listings all speak.
type Manifest struct {
	// ID is the content address: the first 16 hex digits of the SHA-256 of
	// the serialized surrogate blob. Identical training outputs publish to
	// the same ID (idempotent), and a blob can never change under its ID.
	ID string `json:"id"`
	// Name is an optional human label ("cnn-nightly"); purely descriptive.
	Name string `json:"name,omitempty"`
	// Algo and AlgoFP identify the workload: the algorithm name and the
	// behavioral fingerprint (loopnest.Algorithm.Fingerprint) the surrogate
	// was trained for. AlgoFP keys the auto-resolution index.
	Algo   string `json:"algo"`
	AlgoFP string `json:"algo_fp"`
	// ArchFP fingerprints the accelerator spec (arch.Spec.AppendFingerprint)
	// and CostModel/CostModelFP the backend that labeled the training set —
	// together they pin which f this artifact approximates.
	ArchFP      string `json:"arch_fp"`
	CostModel   string `json:"cost_model"`
	CostModelFP string `json:"cost_model_fp,omitempty"`
	// Version is the per-workload publication sequence (1, 2, …): the
	// highest version for a fingerprint is what "auto" resolves to.
	Version int `json:"version"`
	// Parent is the ID of the artifact this run warm-started from, empty
	// for cold starts — the training-lineage record.
	Parent string `json:"parent,omitempty"`
	// Training provenance: the effective Phase-1 configuration and the
	// loss trajectory (Figure-7a data for this artifact).
	Samples     int       `json:"samples"`
	Problems    int       `json:"problems"`
	Epochs      int       `json:"epochs"`
	HiddenSizes []int     `json:"hidden_sizes"`
	Seed        int64     `json:"seed"`
	FinalTrain  float64   `json:"final_train_loss"`
	FinalTest   float64   `json:"final_test_loss"`
	TrainLoss   []float64 `json:"train_loss,omitempty"`
	TestLoss    []float64 `json:"test_loss,omitempty"`
	// TrainSeconds is the wall-clock of the producing run (generate+train).
	TrainSeconds float64   `json:"train_seconds,omitempty"`
	Created      time.Time `json:"created"`
	SizeBytes    int64     `json:"size_bytes"`
}

// Store is a directory of published artifacts plus an in-memory index over
// their manifests. All methods are safe for concurrent use.
//
// The index is owned by one process: Open scans the directory once and
// every later mutation goes through this Store's methods. Deleting or
// GC-ing a live server's store from a second process (e.g. `mindmappings
// models -gc` against the directory `serve` has open) leaves the server
// indexing artifacts that no longer exist; manage a live store through
// the server's own endpoints (DELETE /v1/models/{id}, POST /v1/models/gc)
// and use the CLI for offline stores.
type Store struct {
	dir string

	mu   sync.RWMutex
	byID map[string]*Manifest
	// byFP groups manifests per workload fingerprint, sorted best-last
	// (ascending version, then creation time).
	byFP map[string][]*Manifest
	// corrupt counts manifests Open skipped because they did not parse;
	// they are never deleted automatically.
	corrupt int

	// pending tracks temp files staged by in-flight Publishes (guarded by
	// pendingMu, not mu: the blob is staged without the store lock) so GC
	// never sweeps a publication out from under its commit.
	pendingMu sync.Mutex
	pending   map[string]struct{}

	// failpoint, when installed, is consulted at the start of every
	// Publish (op "store.publish"); a non-nil return aborts the attempt
	// before anything is staged. Fault-injection hook: wire it to
	// resilience.Faults.Fail so publish-retry paths are testable.
	failMu    sync.Mutex
	failpoint func(op string) error
}

// SetFailpoint installs (or clears, with nil) the publish failpoint.
func (s *Store) SetFailpoint(fn func(op string) error) {
	s.failMu.Lock()
	s.failpoint = fn
	s.failMu.Unlock()
}

func (s *Store) fail(op string) error {
	s.failMu.Lock()
	fn := s.failpoint
	s.failMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(op)
}

// Open scans dir (creating it if needed) and indexes every committed
// manifest. Blobs without manifests — crash leftovers — are ignored here
// and reaped by GC.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	s := &Store{
		dir:     dir,
		byID:    make(map[string]*Manifest),
		byFP:    make(map[string][]*Manifest),
		pending: make(map[string]struct{}),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %w", err)
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ManifestExt) || strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			s.corrupt++
			continue
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil || m.ID == "" || m.AlgoFP == "" {
			s.corrupt++
			continue
		}
		if _, err := os.Stat(s.BlobPath(m.ID)); err != nil {
			// Manifest without blob: a half-deleted artifact. Treat as
			// invisible; GC removes the stray manifest.
			s.corrupt++
			continue
		}
		s.indexLocked(&m)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// BlobPath returns the path of an artifact's blob file.
func (s *Store) BlobPath(id string) string { return filepath.Join(s.dir, id+BlobExt) }

// manifestPath returns the path of an artifact's manifest file.
func (s *Store) manifestPath(id string) string { return filepath.Join(s.dir, id+ManifestExt) }

// indexLocked inserts m into both indexes and keeps the per-fingerprint
// group sorted best-last. Callers hold mu (or own the store exclusively).
func (s *Store) indexLocked(m *Manifest) {
	s.byID[m.ID] = m
	group := append(s.byFP[m.AlgoFP], m)
	sort.SliceStable(group, func(i, j int) bool {
		if group[i].Version != group[j].Version {
			return group[i].Version < group[j].Version
		}
		return group[i].Created.Before(group[j].Created)
	})
	s.byFP[m.AlgoFP] = group
}

// PublishMeta carries the provenance Publish stamps into the manifest.
type PublishMeta struct {
	Name         string
	CostModel    string
	CostModelFP  string
	Samples      int
	Problems     int
	Epochs       int
	HiddenSizes  []int
	Seed         int64
	Parent       string // warm-start parent artifact ID
	TrainLoss    []float64
	TestLoss     []float64
	TrainSeconds float64
}

// Publish writes the surrogate as a new committed artifact and returns its
// manifest. The blob is written to a temp file and renamed into place
// before the manifest is, so readers only ever observe complete artifacts;
// republishing bit-identical content returns the existing manifest without
// creating a new version. The heavy file writes happen outside the store
// lock — Resolve/Get on the search path never stall behind a publication —
// with only the version assignment and the two commit renames inside it.
func (s *Store) Publish(sur *surrogate.Surrogate, meta PublishMeta) (Manifest, error) {
	if err := s.fail("store.publish"); err != nil {
		return Manifest{}, err
	}
	var buf bytes.Buffer
	if err := sur.Save(&buf); err != nil {
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	id := hex.EncodeToString(sum[:])[:16]

	if existing, ok := s.Get(id); ok {
		return existing, nil
	}

	algoFP := sur.AlgoFP
	m := &Manifest{
		ID:           id,
		Name:         meta.Name,
		Algo:         sur.AlgoName,
		AlgoFP:       algoFP,
		ArchFP:       archFingerprint(sur),
		CostModel:    meta.CostModel,
		CostModelFP:  meta.CostModelFP,
		Parent:       meta.Parent,
		Samples:      meta.Samples,
		Problems:     meta.Problems,
		Epochs:       len(meta.TrainLoss),
		HiddenSizes:  append([]int(nil), meta.HiddenSizes...),
		Seed:         meta.Seed,
		TrainLoss:    append([]float64(nil), meta.TrainLoss...),
		TestLoss:     append([]float64(nil), meta.TestLoss...),
		TrainSeconds: meta.TrainSeconds,
		Created:      time.Now().UTC(),
		SizeBytes:    int64(buf.Len()),
	}
	if meta.Epochs > 0 {
		m.Epochs = meta.Epochs
	}
	if n := len(meta.TrainLoss); n > 0 {
		m.FinalTrain = meta.TrainLoss[n-1]
	}
	if n := len(meta.TestLoss); n > 0 {
		m.FinalTest = meta.TestLoss[n-1]
	}

	// Stage the MB-scale blob without the lock; the manifest (small, and
	// dependent on the version assigned under the lock) is staged inside.
	blobTmp, err := s.writeTemp(buf.Bytes())
	if err != nil {
		return Manifest{}, err
	}
	defer s.forgetTemp(blobTmp)

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.byID[id]; ok { // lost a publish race for identical content
		os.Remove(blobTmp)
		return *existing, nil
	}
	m.Version = s.nextVersionLocked(algoFP)
	raw, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		os.Remove(blobTmp)
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	manTmp, err := s.writeTemp(raw)
	if err != nil {
		os.Remove(blobTmp)
		return Manifest{}, err
	}
	defer s.forgetTemp(manTmp)
	if err := os.Rename(blobTmp, s.BlobPath(id)); err != nil {
		os.Remove(blobTmp)
		os.Remove(manTmp)
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	if err := os.Rename(manTmp, s.manifestPath(id)); err != nil {
		os.Remove(manTmp)
		os.Remove(s.BlobPath(id)) // roll the uncommitted blob back
		return Manifest{}, fmt.Errorf("modelstore: %w", err)
	}
	s.indexLocked(m)
	return *m, nil
}

// writeTemp stages data in an uncommitted temp file inside the store
// directory (same filesystem, so the committing rename is atomic),
// registers it as pending so a concurrent GC leaves it alone, and returns
// its path. Pair with forgetTemp once the file is renamed or removed.
func (s *Store) writeTemp(data []byte) (string, error) {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return "", fmt.Errorf("modelstore: %w", err)
	}
	tmp := filepath.Join(s.dir, tmpPrefix+hex.EncodeToString(nonce[:]))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("modelstore: %w", err)
	}
	s.pendingMu.Lock()
	s.pending[filepath.Base(tmp)] = struct{}{}
	s.pendingMu.Unlock()
	return tmp, nil
}

// forgetTemp unregisters a staged temp file (committed or rolled back).
func (s *Store) forgetTemp(path string) {
	s.pendingMu.Lock()
	delete(s.pending, filepath.Base(path))
	s.pendingMu.Unlock()
}

// isPending reports whether a directory entry is an in-flight staging file.
func (s *Store) isPending(name string) bool {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	_, ok := s.pending[name]
	return ok
}

// nextVersionLocked returns 1 + the highest version published for the
// workload fingerprint. Callers hold mu.
func (s *Store) nextVersionLocked(algoFP string) int {
	group := s.byFP[algoFP]
	if len(group) == 0 {
		return 1
	}
	return group[len(group)-1].Version + 1
}

// Get returns the manifest for an artifact ID.
func (s *Store) Get(id string) (Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if m, ok := s.byID[id]; ok {
		return *m, true
	}
	return Manifest{}, false
}

// Resolve returns the best artifact for a workload fingerprint: the
// highest version (most recent publication). ok is false when no artifact
// of that workload has been published.
func (s *Store) Resolve(algoFP string) (Manifest, bool) {
	return s.ResolveMatching(algoFP, nil)
}

// ResolveMatching returns the best (highest-version) artifact for a
// workload fingerprint that satisfies pred (nil accepts any). Callers use
// it to pin the rest of a surrogate's identity — the labeling cost model
// and the accelerator — so "auto" never serves a model approximating a
// different f than the one the search is scored against.
func (s *Store) ResolveMatching(algoFP string, pred func(Manifest) bool) (Manifest, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	group := s.byFP[algoFP]
	for i := len(group) - 1; i >= 0; i-- {
		if pred == nil || pred(*group[i]) {
			return *group[i], true
		}
	}
	return Manifest{}, false
}

// List returns every committed manifest, sorted by algorithm name then
// version — the `/v1/models` and `mindmappings models` listing.
func (s *Store) List() []Manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Manifest, 0, len(s.byID))
	for _, m := range s.byID {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Algo != out[j].Algo {
			return out[i].Algo < out[j].Algo
		}
		if out[i].AlgoFP != out[j].AlgoFP {
			return out[i].AlgoFP < out[j].AlgoFP
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Load deserializes the artifact's surrogate blob.
func (s *Store) Load(id string) (*surrogate.Surrogate, error) {
	s.mu.RLock()
	_, ok := s.byID[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownArtifact, id)
	}
	f, err := os.Open(s.BlobPath(id))
	if err != nil {
		return nil, fmt.Errorf("modelstore: artifact %q: %w", id, err)
	}
	defer f.Close()
	sur, err := surrogate.Load(f)
	if err != nil {
		return nil, fmt.Errorf("modelstore: artifact %q: %w", id, err)
	}
	return sur, nil
}

// Delete removes an artifact. The manifest goes first — the commit record —
// so a crash mid-delete leaves an orphan blob (reaped by GC), never a
// manifest pointing at nothing.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownArtifact, id)
	}
	if err := os.Remove(s.manifestPath(id)); err != nil {
		return fmt.Errorf("modelstore: %w", err)
	}
	os.Remove(s.BlobPath(id)) // best effort; GC reaps stragglers
	delete(s.byID, id)
	group := s.byFP[m.AlgoFP][:0]
	for _, g := range s.byFP[m.AlgoFP] {
		if g.ID != id {
			group = append(group, g)
		}
	}
	if len(group) == 0 {
		delete(s.byFP, m.AlgoFP)
	} else {
		s.byFP[m.AlgoFP] = group
	}
	return nil
}

// GC removes superseded versions — keeping the newest keep versions per
// workload fingerprint (minimum 1) — plus crash leftovers: tmp files,
// blobs without manifests, manifests without blobs. It returns the removed
// artifact IDs (leftover file names for orphans).
func (s *Store) GC(keep int) ([]string, error) {
	if keep < 1 {
		keep = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var removed []string
	for fp, group := range s.byFP {
		for len(group) > keep {
			old := group[0]
			if err := os.Remove(s.manifestPath(old.ID)); err != nil && !os.IsNotExist(err) {
				return removed, fmt.Errorf("modelstore: gc: %w", err)
			}
			os.Remove(s.BlobPath(old.ID))
			delete(s.byID, old.ID)
			removed = append(removed, old.ID)
			group = group[1:]
		}
		s.byFP[fp] = group
	}
	// Sweep uncommitted leftovers.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return removed, fmt.Errorf("modelstore: gc: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			if s.isPending(name) {
				continue // an in-flight Publish owns this staging file
			}
		case strings.HasSuffix(name, BlobExt):
			if _, ok := s.byID[strings.TrimSuffix(name, BlobExt)]; ok {
				continue
			}
		case strings.HasSuffix(name, ManifestExt):
			if _, ok := s.byID[strings.TrimSuffix(name, ManifestExt)]; ok {
				continue
			}
		default:
			continue // not a store file; leave it alone
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("modelstore: gc: %w", err)
		}
		removed = append(removed, name)
	}
	s.corrupt = 0
	return removed, nil
}

// Stats is a point-in-time store snapshot (the store_* series).
type Stats struct {
	Artifacts int
	Workloads int
	// Corrupt counts unreadable or uncommitted entries seen at Open and
	// not yet swept by GC.
	Corrupt int
}

// Stats snapshots index counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Artifacts: len(s.byID), Workloads: len(s.byFP), Corrupt: s.corrupt}
}

// ArchFingerprint hex-hashes an accelerator spec — the manifest's ArchFP
// encoding, exported so resolvers can match against the arch a search
// will actually run on.
func ArchFingerprint(a arch.Spec) string {
	sum := sha256.Sum256(a.AppendFingerprint(nil))
	return hex.EncodeToString(sum[:])
}

// archFingerprint hex-hashes the surrogate's accelerator spec.
func archFingerprint(sur *surrogate.Surrogate) string {
	return ArchFingerprint(sur.Arch)
}
