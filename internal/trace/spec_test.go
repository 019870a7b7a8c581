package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mellow/internal/rng"
)

// The reference generators below are a frozen, self-contained copy of
// the workload generators as they stood when the builtins were first
// expressed as declarative specs: every array wrap is a modulo, every
// Zipf draw recomputes Pow(0.5, theta), and the Zipf constants are
// rebuilt per generator. They share nothing with the production types
// but the rng.Source bit stream, so restructuring the production hot path
// (hoisted constants, division-free wraps, shared Zipf parameters) is
// checked against the original arithmetic rather than against itself.

type refZipf struct {
	src                      *rng.Source
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newRefZipf(src *rng.Source, n uint64, theta float64) *refZipf {
	z := &refZipf{src: src, n: n, theta: theta}
	z.zetan = refZeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - refZeta(2, theta)/z.zetan)
	return z
}

func refZeta(n uint64, theta float64) float64 {
	const exact = 1 << 16
	sum := 0.0
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(1); i <= m; i++ {
		sum += math.Pow(1.0/float64(i), theta)
	}
	if n > m {
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

func (z *refZipf) next() uint64 {
	u := z.src.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

type refGapper struct {
	src       *rng.Source
	mean, acc float64
}

func (g *refGapper) next() uint32 {
	g.acc += g.mean * (0.5 + g.src.Float64())
	n := math.Floor(g.acc)
	g.acc -= n
	return uint32(n)
}

type refRegion struct{ base, bytes uint64 }

func (r refRegion) elemAddr(i uint64) uint64 { return r.base + (i*8)%r.bytes }
func (r refRegion) lineAddr(l uint64) uint64 { return r.base + (l*64)%r.bytes }
func (r refRegion) lines() uint64            { return r.bytes / 64 }

type refLayout struct{ cursor uint64 }

func (a *refLayout) alloc(bytes uint64) refRegion {
	const align = 1 << 20
	bytes = (bytes + align - 1) &^ uint64(align-1)
	r := refRegion{base: a.cursor, bytes: bytes}
	a.cursor += bytes
	return r
}

type refHot struct {
	src       *rng.Source
	reg       refRegion
	zipf      *refZipf
	writeProb float64
}

func (h *refHot) access() (uint64, bool) {
	l := (h.zipf.next() * 0x9E3779B1) % h.reg.lines()
	return h.reg.lineAddr(l), h.src.Bool(h.writeProb)
}

type refStream struct {
	src           *rng.Source
	gap           refGapper
	reads, writes []refRegion
	elem          uint64
	idx           int
	hot           *refHot
	pHot          float64
}

func (s *refStream) Next() Op {
	g := s.gap.next()
	if s.hot != nil && s.src.Bool(s.pHot) {
		addr, w := s.hot.access()
		return Op{Gap: g, Addr: addr, Write: w}
	}
	var op Op
	if s.idx < len(s.reads) {
		op = Op{Gap: g, Addr: s.reads[s.idx].elemAddr(s.elem)}
	} else {
		op = Op{Gap: g, Addr: s.writes[s.idx-len(s.reads)].elemAddr(s.elem), Write: true}
	}
	s.idx++
	if s.idx == len(s.reads)+len(s.writes) {
		s.idx = 0
		s.elem++
	}
	return op
}

type refRandom struct {
	src      *rng.Source
	gap      refGapper
	reg      refRegion
	dep, rmw bool
	wProb    float64
	pending  uint64
	hasPend  bool
	hot      *refHot
	pHot     float64
}

func (r *refRandom) Next() Op {
	if r.hasPend {
		r.hasPend = false
		return Op{Addr: r.pending, Write: true}
	}
	g := r.gap.next()
	if r.hot != nil && r.src.Bool(r.pHot) {
		addr, w := r.hot.access()
		return Op{Gap: g, Addr: addr, Write: w}
	}
	addr := r.reg.lineAddr(r.src.Uintn(r.reg.lines()))
	if r.rmw && r.src.Bool(r.wProb) {
		r.pending, r.hasPend = addr, true
		return Op{Gap: g, Addr: addr, Dep: r.dep}
	}
	if !r.rmw && r.src.Bool(r.wProb) {
		return Op{Gap: g, Addr: addr, Write: true}
	}
	return Op{Gap: g, Addr: addr, Dep: r.dep}
}

func newRefHot(src *rng.Source, reg refRegion, theta, writeProb float64) *refHot {
	return &refHot{src: src, reg: reg, zipf: newRefZipf(src.Branch(0x407), reg.lines(), theta), writeProb: writeProb}
}

func refStreamGen(gapMean float64, nRead, nWrite int, arrayBytes uint64,
	hotBytes uint64, pHot, theta, hotWriteProb float64) func(uint64) Generator {
	return func(seed uint64) Generator {
		src := rng.New(seed)
		lay := &refLayout{cursor: 64 << 20}
		s := &refStream{src: src, gap: refGapper{src: src.Branch(1), mean: gapMean}}
		for i := 0; i < nRead; i++ {
			s.reads = append(s.reads, lay.alloc(arrayBytes))
		}
		for i := 0; i < nWrite; i++ {
			s.writes = append(s.writes, lay.alloc(arrayBytes))
		}
		if hotBytes > 0 {
			s.hot = newRefHot(src.Branch(2), lay.alloc(hotBytes), theta, hotWriteProb)
			s.pHot = pHot
		}
		return s
	}
}

func refRandomGen(gapMean float64, regionBytes uint64, dep, rmw bool, wProb float64,
	hotBytes uint64, pHot, theta, hotWriteProb float64) func(uint64) Generator {
	return func(seed uint64) Generator {
		src := rng.New(seed)
		lay := &refLayout{cursor: 64 << 20}
		r := &refRandom{
			src: src, gap: refGapper{src: src.Branch(1), mean: gapMean},
			reg: lay.alloc(regionBytes), dep: dep, rmw: rmw, wProb: wProb,
		}
		if hotBytes > 0 {
			r.hot = newRefHot(src.Branch(2), lay.alloc(hotBytes), theta, hotWriteProb)
			r.pHot = pHot
		}
		return r
	}
}

func refHotOnlyGen(gapMean float64, hotBytes uint64, theta, wProb float64) func(uint64) Generator {
	return func(seed uint64) Generator {
		src := rng.New(seed)
		lay := &refLayout{cursor: 64 << 20}
		return &refRandom{
			src: src, gap: refGapper{src: src.Branch(1), mean: gapMean},
			reg:  lay.alloc(64 * MB), // cold leak region
			pHot: 0.995,
			hot: &refHot{
				src:       src.Branch(2),
				reg:       lay.alloc(hotBytes),
				zipf:      newRefZipf(src.Branch(3), hotBytes/64, theta),
				writeProb: wProb,
			},
		}
	}
}

// refWorkloads is the original closure table, literal for literal: it
// also pins the builtin spec table's parameters.
var refWorkloads = map[string]func(uint64) Generator{
	"stream":     refStreamGen(9.0, 2, 1, 32*MB, 0, 0, 0, 0),
	"lbm":        refStreamGen(3.0, 2, 2, 48*MB, 0, 0, 0, 0),
	"libquantum": refStreamGen(3.15, 1, 1, 64*MB, 0, 0, 0, 0),
	"milc":       refStreamGen(5.4, 3, 1, 32*MB, 0, 0, 0, 0),
	"mcf":        refRandomGen(16.5, 384*MB, true, true, 0.25, 0, 0, 0, 0),
	"gups":       refRandomGen(110, 1024*MB, false, true, 1.0, 0, 0, 0, 0),
	"leslie3d":   refStreamGen(22.4, 4, 2, 12*MB, 1*MB, 0.20, 0.7, 0.3),
	"GemsFDTD":   refStreamGen(7.8, 6, 3, 24*MB, 1*MB, 0.10, 0.7, 0.3),
	"zeusmp":     refStreamGen(27.9, 3, 2, 8*MB, 1*MB, 0.30, 0.7, 0.3),
	"bwaves":     refStreamGen(25.2, 4, 1, 16*MB, 1*MB, 0.15, 0.7, 0.2),
	"hmmer":      refHotOnlyGen(2.5, 1*MB, 0.8, 0.45),
}

var refSeeds = []uint64{1, 2, 7, 42, 0xDEADBEEF}

// sameStream fails the test at the first op where got diverges from want.
func sameStream(t *testing.T, label string, want, got Generator, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		a, b := want.Next(), got.Next()
		if a != b {
			t.Fatalf("%s: op %d diverged: reference %+v, spec %+v", label, i, a, b)
		}
	}
}

// TestSpecMatchesReference is the spec↔reference equivalence pin: every
// Table IV workload × several seeds must produce a byte-identical
// instruction stream from its declarative Spec as from the frozen
// reference generator.
func TestSpecMatchesReference(t *testing.T) {
	ops := 200_000
	if testing.Short() {
		ops = 20_000
	}
	if len(refWorkloads) != len(workloads) {
		t.Fatalf("reference table has %d workloads, suite has %d", len(refWorkloads), len(workloads))
	}
	for _, w := range All() {
		mk, ok := refWorkloads[w.Name]
		if !ok {
			t.Fatalf("no reference generator for %q", w.Name)
		}
		if w.Spec == nil {
			t.Fatalf("%s: builtin workload carries no Spec", w.Name)
		}
		for _, seed := range refSeeds {
			sameStream(t, fmt.Sprintf("%s seed %d", w.Name, seed), mk(seed), w.New(seed), ops)
		}
	}
}

// TestCustomSpecMatchesReference covers shapes the builtins never reach
// within a test's op budget: arrays small enough to wrap, and hot sets
// whose line count is not a power of two (the modulo spreading branch)
// or whose Zipf range is smaller than the region (the mask branch with
// an unaligned hot_bytes).
func TestCustomSpecMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ref  func(uint64) Generator
		ops  int
	}{
		{"stream-1MB-wrap-hot3MB",
			Spec{Kind: KindStream, GapMean: 2, ReadArrays: 1, ArrayBytes: 1 * MB,
				HotBytes: 3 * MB, HotProb: 0.3, HotTheta: 0.9, HotWriteProb: 0.4},
			refStreamGen(2, 1, 0, 1*MB, 3*MB, 0.3, 0.9, 0.4), 300_000},
		{"stream-3x1.5MB-wrap",
			Spec{Kind: KindStream, GapMean: 1.5, ReadArrays: 2, WriteArrays: 1, ArrayBytes: 3 * MB / 2},
			refStreamGen(1.5, 2, 1, 3*MB/2, 0, 0, 0, 0), 800_000},
		{"random-hot3MB",
			Spec{Kind: KindRandom, GapMean: 4, RegionBytes: 5 * MB, WriteProb: 0.3,
				HotBytes: 3 * MB, HotProb: 0.5, HotTheta: 0.6, HotWriteProb: 0.2},
			refRandomGen(4, 5*MB, false, false, 0.3, 3*MB, 0.5, 0.6, 0.2), 200_000},
		{"hotonly-3MB",
			Spec{Kind: KindHotOnly, GapMean: 2.5, HotBytes: 3 * MB, HotTheta: 0.8, HotWriteProb: 0.45},
			refHotOnlyGen(2.5, 3*MB, 0.8, 0.45), 200_000},
		{"hotonly-1.5MB",
			Spec{Kind: KindHotOnly, GapMean: 2.5, HotBytes: 3 * MB / 2, HotTheta: 0.8, HotWriteProb: 0.45},
			refHotOnlyGen(2.5, 3*MB/2, 0.8, 0.45), 200_000},
	}
	for _, tc := range cases {
		w, err := tc.spec.Workload(tc.name, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ops := tc.ops
		if testing.Short() {
			ops /= 10
		}
		for _, seed := range refSeeds {
			sameStream(t, fmt.Sprintf("%s seed %d", tc.name, seed), tc.ref(seed), w.New(seed), ops)
		}
	}
}

// TestSpecJSONStreamEquivalence pins the full declarative path: a spec
// serialized to JSON and decoded back must still generate the exact
// closure stream — what a scenario file or job request round-trips.
func TestSpecJSONStreamEquivalence(t *testing.T) {
	for _, w := range All() {
		b, err := json.Marshal(w.Spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", w.Name, err)
		}
		var sp Spec
		if err := json.Unmarshal(b, &sp); err != nil {
			t.Fatalf("%s: unmarshal: %v", w.Name, err)
		}
		w2, err := sp.Workload(w.Name, w.TargetMPKI)
		if err != nil {
			t.Fatalf("%s: workload from decoded spec: %v", w.Name, err)
		}
		a, c := w.New(99), w2.New(99)
		for i := 0; i < 10_000; i++ {
			if x, y := a.Next(), c.Next(); x != y {
				t.Fatalf("%s: op %d diverged after JSON round-trip: %+v vs %+v", w.Name, i, x, y)
			}
		}
	}
}

func TestSpecCanonicalJSONStable(t *testing.T) {
	sp := Spec{Kind: KindHotOnly, GapMean: 2.5, HotBytes: 1 * MB, HotTheta: 0.8, HotWriteProb: 0.45}
	a, err := sp.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults made explicit: the sparse and the normalized spellings of
	// the same workload canonicalise — and therefore hash — identically.
	full := Spec{Kind: KindHotOnly, GapMean: 2.5, RegionBytes: 64 * MB,
		HotBytes: 1 * MB, HotProb: 0.995, HotTheta: 0.8, HotWriteProb: 0.45}
	b, err := full.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical JSON differs:\n%s\n%s", a, b)
	}
	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := full.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hashes differ or malformed: %s vs %s", h1, h2)
	}
	// A Workload built from the spec carries the same identity; one read
	// from a trace has none.
	w, err := sp.Workload("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := w.SpecHash(); err != nil || h != h1 {
		t.Fatalf("Workload.SpecHash = %q, %v; want %q", h, err, h1)
	}
	fr, err := FromReader("r", strings.NewReader("0 40 R\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.SpecHash(); err == nil {
		t.Fatal("SpecHash of a workload without a spec succeeded")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},                             // no kind
		{Kind: "zipfian"},              // unknown kind
		{Kind: KindStream},             // no arrays, no gap
		{Kind: KindStream, GapMean: 1}, // no arrays
		{Kind: KindStream, GapMean: 1, ReadArrays: 1},                                 // no array bytes
		{Kind: KindStream, GapMean: 1, ReadArrays: 1, ArrayBytes: MB, RegionBytes: 1}, // foreign field
		{Kind: KindStream, GapMean: 1, ReadArrays: 1, ArrayBytes: MB, HotProb: 0.5},   // hot fields without hot_bytes
		{Kind: KindRandom, GapMean: 1},                                                // no region
		{Kind: KindRandom, GapMean: 1, RegionBytes: MB, WriteProb: 1.5},               // bad prob
		{Kind: KindRandom, GapMean: 1, RegionBytes: MB, ArrayBytes: MB},               // foreign field
		{Kind: KindHotOnly, GapMean: 1},                                               // no hot set
		{Kind: KindHotOnly, GapMean: 1, HotBytes: MB, HotTheta: 1.2, HotProb: 0.9},    // theta out of range
		{Kind: KindReplay},                            // no data
		{Kind: KindReplay, Path: "x.trace"},           // unresolved path
		{Kind: KindReplay, Data: "nonsense"},          // unparseable
		{Kind: KindReplay, Data: "0 40 R", Dep: true}, // foreign field
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error, got nil", i, sp)
		}
	}
	for _, w := range All() {
		if err := w.Spec.Validate(); err != nil {
			t.Errorf("builtin %s: %v", w.Name, err)
		}
	}
}

// TestReplaySpecRoundTrip pins the mellowtrace -export → replay-spec
// path: recording a builtin generator and replaying the file through a
// replay Spec reproduces the recorded stream cyclically, exactly as
// FromReader does.
func TestReplaySpecRoundTrip(t *testing.T) {
	const n = 2_000
	w, err := ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, w.New(7), n); err != nil { // what mellowtrace -export writes
		t.Fatal(err)
	}
	exported := buf.String()

	// Path-referenced spec resolves to the same canonical identity as the
	// inline spelling: content, not filename, is the hash.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gups.trace"), []byte(exported), 0o644); err != nil {
		t.Fatal(err)
	}
	byPath, err := Spec{Kind: KindReplay, Path: "gups.trace"}.Resolve(dir)
	if err != nil {
		t.Fatal(err)
	}
	if byPath.Path != "" || byPath.Data != exported {
		t.Fatalf("Resolve did not inline the file (path %q, %d data bytes)", byPath.Path, len(byPath.Data))
	}
	inline := Spec{Kind: KindReplay, Data: exported}
	h1, err := byPath.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := inline.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("path-resolved and inline replay specs hash differently: %s vs %s", h1, h2)
	}

	rw, err := inline.Workload("gups-replay", w.TargetMPKI)
	if err != nil {
		t.Fatal(err)
	}
	orig := w.New(7)
	gen := rw.New(12345) // replay ignores the seed
	var first []Op
	for i := 0; i < n; i++ {
		op := gen.Next()
		first = append(first, op)
		want := orig.Next()
		// The textual format drops Dep on writes (meaningless there); any
		// other field must survive export→replay exactly.
		want.Dep = want.Dep && !want.Write
		if op != want {
			t.Fatalf("op %d: replay %+v, original %+v", i, op, want)
		}
	}
	for i := 0; i < n; i++ { // cyclic: second pass repeats the first
		if op := gen.Next(); op != first[i] {
			t.Fatalf("cycle op %d: got %+v, want %+v", i, op, first[i])
		}
	}

	// FromReader and the replay spec agree op for op.
	fw, err := FromReader("gups-file", strings.NewReader(exported), 0)
	if err != nil {
		t.Fatal(err)
	}
	fg, sg := fw.New(0), rw.New(0)
	for i := 0; i < n+17; i++ {
		if a, b := fg.Next(), sg.Next(); a != b {
			t.Fatalf("op %d: FromReader %+v, spec %+v", i, a, b)
		}
	}
}

func TestSpecByName(t *testing.T) {
	sp, err := SpecByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindRandom || !sp.Dep || !sp.RMW {
		t.Fatalf("mcf spec unexpected: %+v", sp)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("want error for unknown name")
	}
}

// hotZipf returns the Zipf parameters of a synthetic generator's hot
// set, or nil.
func hotZipf(g Generator) *rng.ZipfParams {
	var h *hotSet
	switch g := g.(type) {
	case *stream:
		h = g.hot
	case *random:
		h = g.hot
	}
	if h == nil {
		return nil
	}
	return h.zipf.Params()
}

// TestWorkloadSharesZipfParams pins that the zeta sum is computed once
// per Workload: every generator it creates shares one parameter set,
// while a Workload built separately from the same spec has its own.
func TestWorkloadSharesZipfParams(t *testing.T) {
	for _, name := range []string{"hmmer", "GemsFDTD", "bwaves"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := hotZipf(w.New(1)), hotZipf(w.New(2))
		if a == nil || a != b {
			t.Fatalf("%s: second New rebuilt the Zipf parameters (%p vs %p)", name, a, b)
		}
		other, err := w.Spec.Workload(name, w.TargetMPKI)
		if err != nil {
			t.Fatal(err)
		}
		if c := hotZipf(other.New(1)); c == nil || c == a {
			t.Fatalf("%s: a separately built Workload shares parameters (%p)", name, c)
		}
	}
	if w, _ := ByName("mcf"); hotZipf(w.New(1)) != nil {
		t.Fatal("mcf has no hot set but its generator carries Zipf parameters")
	}
}

// TestWorkloadNewConcurrent builds generators of one fresh Workload from
// several goroutines at once — as concurrent service jobs do — and checks
// each stream against a sequentially built one. Run under -race it also
// checks the lazily built shared parameters.
func TestWorkloadNewConcurrent(t *testing.T) {
	sp, err := SpecByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	const gens, ops = 4, 5_000
	want := make([][]Op, gens)
	ref, err := sp.Workload("hmmer", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g := ref.New(uint64(i))
		for j := 0; j < ops; j++ {
			want[i] = append(want[i], g.Next())
		}
	}
	w, err := sp.Workload("hmmer", 0)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, gens)
	for i := 0; i < gens; i++ {
		go func(i int) {
			g := w.New(uint64(i))
			for j := 0; j < ops; j++ {
				if op := g.Next(); op != want[i][j] {
					errs <- fmt.Errorf("generator %d op %d: got %+v, want %+v", i, j, op, want[i][j])
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < gens; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
