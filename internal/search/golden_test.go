package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"mindmappings/internal/arch"
	"mindmappings/internal/costmodel"
	"mindmappings/internal/loopnest"
	"mindmappings/internal/mapspace"
	"mindmappings/internal/oracle"
	"mindmappings/internal/surrogate"
)

// The golden trajectory test pins every mapspace operator the searchers
// use (Random, Perturb, Crossover, Mutate, Repair/Project, Decode,
// Reproject) to fixed digests, so a change to projection that picks a
// different chain or breaks a tie differently fails here even when two
// runs of the same build still agree with each other. The digests were
// captured from the implementation that scanned chains with
// FactorChain.LogDistance and sorted with sort.SliceStable; any faster
// projection must reproduce them bit for bit.

// goldenShapes are three cnn-layer shapes and one MTTKRP shape.
var goldenShapes = []struct {
	name string
	mk   func() (loopnest.Problem, error)
}{
	{"cnn-a", func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("cnn-a", 16, 256, 256, 14, 14, 3, 3) }},
	{"cnn-b", func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("cnn-b", 8, 64, 128, 30, 30, 3, 3) }},
	{"cnn-c", func() (loopnest.Problem, error) { return loopnest.NewCNNProblem("cnn-c", 4, 128, 64, 58, 58, 5, 5) }},
	{"mttkrp", func() (loopnest.Problem, error) { return loopnest.NewMTTKRPProblem("mttkrp", 128, 64, 96, 32) }},
}

// goldenArch is the accelerator for an algorithm: one operand port per
// input tensor (cnn-layer has two, MTTKRP three).
func goldenArch(algo string) arch.Spec {
	if algo == "mttkrp" {
		return arch.Default(3)
	}
	return arch.Default(2)
}

// goldenDigests maps "<shape>/<searcher>" (and "reproject") to the
// SHA-256 digest of the run.
var goldenDigests = map[string]string{
	"cnn-a/Beam":    "8b2670ddd8c92cacf73ce1c7a6d68b6da706616efb7afbac7b9c38443a2283aa",
	"cnn-a/GA":      "05fd23dbe45ab71ece51827506e7d669e0618334907c793318b150a0711d52bc",
	"cnn-a/MM":      "1487bce78a640a031ac249d4d04625c3f5c56e7cf59607fae8ffcf46dc865213",
	"cnn-a/Random":  "62a91c3d1b1ae4ed96b5f1a888269a8845fcf95103099946c37d7bb42b0558d1",
	"cnn-a/SA":      "33b319e3ca3d29fe25ea088eb5f7b7196930e092fa43adf3c4d774a2085352df",
	"cnn-b/Beam":    "3a89386d94d8d4b5de9636a5282865ff4c6fdacd78d9d74b70426d52d83a1058",
	"cnn-b/GA":      "bf584276b5b91d971a66154e9cee32e1e0d268e592ac0d55f35fb27758ad2aa8",
	"cnn-b/MM":      "9a0bb8849598d519ab38fa849d75c57c489a92dc3c3653555329f362f0cc4515",
	"cnn-b/Random":  "3ba3eaf2bd5fdf87507db1609fea7eb632551d71f7723e55c3921f6a14fbe470",
	"cnn-b/SA":      "81a3d2f51bddfc592a71df1eeb3d86f908bdf6cb5d942a66ee60b7de9753cf41",
	"cnn-c/Beam":    "9c849d151fc85ce68650e044fb1de1311ffc467a7960cdec5875b3102eec1737",
	"cnn-c/GA":      "8988daecbe7bf54268eacf1f81a04461eeb7c256d394ec7e2d58fdd3c9597852",
	"cnn-c/MM":      "753ae26174090cc528b71d5458f49b52be0e999dea0c3ae76a32393f034f7796",
	"cnn-c/Random":  "bfb3bbefe264596c0a592023c6a2d00c789ab4be4e9ae0eca67df5821fe833c6",
	"cnn-c/SA":      "ac4661000ea6f3f73a06d3915de47d23545a7ed8aaa8e78dd67092e2cad4a8b8",
	"mttkrp/Beam":   "b5c12b1176b1af0b5203cbd1f53cb3aaa8914f2120e15ea84dadf57c20b52a9e",
	"mttkrp/GA":     "1ee71092316fa3f7a54031bd3118ce43069256d4e5707682513d73792f1b3f95",
	"mttkrp/MM":     "48a2177759e50081e3ebe83284c1874aa8172d8b025d0a47a3186a10c377b533",
	"mttkrp/Random": "956474accc25bf31806c71cb5d041e0f2e4b94fe8c518b81bce8716c71328241",
	"mttkrp/SA":     "aa507caffb1605f4d367411bcdfa19ccb4ed23e40c46f9a54cfff746df3fd87f",
	"reproject":     "644de8d3b656a9a2e8ac9a516eb0e83c53a0fcfd16c24b17ad4e38aa8531dd64",
}

func goldenContext(t *testing.T, p loopnest.Problem, seed int64) *Context {
	t.Helper()
	a := goldenArch(p.Algo.Name)
	space, err := mapspace.New(a, p)
	if err != nil {
		t.Fatal(err)
	}
	model, err := costmodel.New("timeloop", a, p)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := oracle.Compute(a, p)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Space: space, Model: model, Bound: bound, Seed: seed}
}

// goldenSurrogates trains one tiny surrogate per algorithm. Training
// itself draws from Space.Random and Space.Perturb (tail-biased samples),
// so it is part of what the digests pin.
var (
	goldenSurOnce sync.Once
	goldenSurs    map[string]*surrogate.Surrogate
	goldenSurErr  error
)

func goldenSurrogate(t *testing.T, algo string) *surrogate.Surrogate {
	t.Helper()
	goldenSurOnce.Do(func() {
		goldenSurs = map[string]*surrogate.Surrogate{}
		for _, name := range []string{"cnn-layer", "mttkrp"} {
			cfg := surrogate.TinyConfig()
			cfg.HiddenSizes = []int{16}
			cfg.Samples = 400
			cfg.Problems = 3
			cfg.Train.Epochs = 3
			ds, err := surrogate.Generate(loopnest.MustAlgorithm(name), goldenArch(name), cfg)
			if err != nil {
				goldenSurErr = err
				return
			}
			sur, _, err := surrogate.Train(ds, cfg)
			if err != nil {
				goldenSurErr = err
				return
			}
			goldenSurs[name] = sur
		}
	})
	if goldenSurErr != nil {
		t.Fatal(goldenSurErr)
	}
	return goldenSurs[algo]
}

// resultDigest hashes a run's best EDP bits, best mapping and full
// trajectory (eval index and best EDP bits per sample).
func resultDigest(res Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "%s|%d|", res.Method, res.Evals)
	put(math.Float64bits(res.BestEDP))
	h.Write([]byte(res.Best.String()))
	put(uint64(len(res.Trajectory)))
	for _, s := range res.Trajectory {
		put(uint64(s.Eval))
		put(math.Float64bits(s.BestEDP))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenTrajectoryDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which legitimately
		// changes float bits; the digests were captured on amd64.
		t.Skipf("golden digests are pinned for amd64, running on %s", runtime.GOARCH)
	}
	const evals = 600
	got := map[string]string{}
	var reprojectDonor mapspace.Mapping
	for _, shape := range goldenShapes {
		p, err := shape.mk()
		if err != nil {
			t.Fatal(err)
		}
		searchers := []Searcher{
			GeneticAlgorithm{},
			SimulatedAnnealing{},
			RandomSearch{},
			BeamSearch{},
			MindMappings{Surrogate: goldenSurrogate(t, p.Algo.Name)},
		}
		for _, s := range searchers {
			res, err := s.Search(goldenContext(t, p, 7), Budget{MaxEvals: evals})
			if err != nil {
				t.Fatalf("%s/%s: %v", shape.name, s.Name(), err)
			}
			got[shape.name+"/"+s.Name()] = resultDigest(res)
			if shape.name == "cnn-a" && s.Name() == "GA" {
				reprojectDonor = res.Best.Clone()
			}
		}
	}
	// Atlas warm start: the cnn-a GA best adapted into the cnn-b space.
	pb, err := goldenShapes[1].mk()
	if err != nil {
		t.Fatal(err)
	}
	re := goldenContext(t, pb, 7).Space.Reproject(&reprojectDonor)
	got["reproject"] = resultDigest(Result{Method: "reproject", Best: re})

	for key, digest := range got {
		want, ok := goldenDigests[key]
		if !ok {
			t.Errorf("%s: no golden digest (got %q)", key, digest)
			continue
		}
		if digest != want {
			t.Errorf("%s: digest %s, want %s", key, digest, want)
		}
	}
}
