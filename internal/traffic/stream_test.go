package traffic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"epnet/internal/sim"
)

// mixedDraw makes draw i on r with one of the methods the generators
// call, chosen by i, and folds the result into a comparable word.
func mixedDraw(r *rand.Rand, i int) uint64 {
	switch i % 11 {
	case 0:
		return uint64(r.Intn(32768))
	case 1:
		return uint64(r.Intn(3 + i%1000))
	case 2:
		return uint64(r.Int63n(int64(i)*7919 + 1))
	case 3:
		return uint64(r.Int63())
	case 4:
		return r.Uint64()
	case 5:
		return math.Float64bits(r.Float64())
	case 6:
		return math.Float64bits(r.ExpFloat64())
	case 7:
		var h uint64
		for _, v := range r.Perm(1 + i%9) {
			h = h*31 + uint64(v)
		}
		return h
	case 8:
		return uint64(r.Intn(1<<40 + 3)) // the Int63n branch of Intn
	case 9:
		return uint64(r.Int63n(1 << 20)) // power-of-two mask
	default:
		return math.Float64bits(r.Float64())
	}
}

// streamSeeds returns the identity-test seeds: the edge values of the
// seed reduction and the per-entity forms the generators derive.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, zeroSeed, -zeroSeed,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for k := int64(-4); k <= 4; k++ {
		seeds = append(seeds, k*int32max, k*int32max+1, k*int32max-1)
	}
	for _, base := range []int64{1, 7, -3, 1 << 40} {
		for h := int64(0); h < 40; h++ {
			seeds = append(seeds, base^h*0x2545F4914F6CDD1D)
			if h < 10 {
				seeds = append(seeds, base^0x5DEECE66D^h*0x2545F4914F6CDD1D)
			}
		}
	}
	return seeds
}

// TestStreamMatchesStdlib pins the contract every golden depends on:
// newStream yields exactly rand.New(rand.NewSource(seed))'s values,
// across the lazy prefix, the switch to the register, and the wrap of
// the 607-word register.
func TestStreamMatchesStdlib(t *testing.T) {
	seeds := streamSeeds()
	if len(seeds) < 200 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	const draws = 2000
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), newStream(seed)
		for i := 0; i < draws; i++ {
			if w, g := mixedDraw(want, i), mixedDraw(got, i); w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestStreamReseed checks Seed restarts the lazy stream at any point.
func TestStreamReseed(t *testing.T) {
	for _, after := range []int{0, 5, lazyDraws, lazyDraws + 1, 700} {
		got := newStream(3)
		for i := 0; i < after; i++ {
			got.Uint64()
		}
		got.Seed(-11)
		want := rand.New(rand.NewSource(-11))
		for i := 0; i < 1000; i++ {
			if w, g := mixedDraw(want, i), mixedDraw(got, i); w != g {
				t.Fatalf("reseed after %d draws, draw %d: got %#x, want %#x", after, i, g, w)
			}
		}
	}
}

func FuzzStreamMatchesStdlib(f *testing.F) {
	for _, seed := range []int64{0, -1, math.MinInt64, int32max, 7 ^ 3*0x2545F4914F6CDD1D} {
		f.Add(seed, uint16(lazyDraws+1))
		f.Add(seed, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want, got := rand.New(rand.NewSource(seed)), newStream(seed)
		for i := 0; i < int(n)%3000; i++ {
			if w, g := mixedDraw(want, i), mixedDraw(got, i); w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	})
}

// TestStreamLazyPrefix checks a stream drawing no more than lazyDraws
// values never builds its register and stays within 128 bytes.
func TestStreamLazyPrefix(t *testing.T) {
	s := &stream{x: reduceSeed(42)}
	r := rand.New(s)
	for i := 0; i < lazyDraws; i++ {
		r.Int63()
	}
	if s.reg != nil {
		t.Fatalf("register built within the %d-draw prefix", lazyDraws)
	}
	r.Int63()
	if s.reg == nil {
		t.Fatal("register not built after the prefix")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := newStream(int64(i))
			for j := 0; j < lazyDraws; j++ {
				r.Int63()
			}
		}
	})
	if bpo := res.AllocedBytesPerOp(); bpo > 128 {
		t.Errorf("stream with %d draws allocates %d B, want <= 128", lazyDraws, bpo)
	}
}

// TestNoEagerSeeding parses the package's non-test files and fails if
// any calls rand.NewSource outside recoverCooked, so a new generator
// cannot bring the eager 5 KB register back.
func TestNoEagerSeeding(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	allowed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		randName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
				randName = "rand"
				if imp.Name != nil {
					randName = imp.Name.Name
				}
			}
		}
		if randName == "" {
			continue
		}
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			exempt := isFunc && fd.Recv == nil && fd.Name.Name == "recoverCooked"
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewSource" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); !ok || id.Name != randName {
					return true
				}
				if exempt {
					allowed++
				} else {
					t.Errorf("%s: rand.NewSource seeds a 607-word register up front; use newStream",
						fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
	if allowed != 1 {
		t.Errorf("found %d rand.NewSource calls in recoverCooked, want 1", allowed)
	}
}

// benchSink keeps benchmark draws from being optimized away.
var benchSink float64

// BenchmarkStreamDraws creates a source and makes n calls of the mix a
// host generator makes (destination, size, gap), for the lazy stream
// and the math/rand source.
func BenchmarkStreamDraws(b *testing.B) {
	sources := []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"stream", newStream},
		{"stdlib", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	}
	for _, n := range []int{10, 300, 5000} {
		for _, src := range sources {
			b.Run(strconv.Itoa(n)+"/"+src.name, func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					r := src.new(int64(i))
					for j := 0; j < n; j++ {
						switch j % 3 {
						case 0:
							sink += float64(r.Intn(32768))
						case 1:
							sink += r.Float64()
						default:
							sink += r.ExpFloat64()
						}
					}
				}
				benchSink = sink
			})
		}
	}
}

// BenchmarkStreamPrefix creates a stream and makes exactly lazyDraws
// draws: the whole cost of a stream that never builds its register.
func BenchmarkStreamPrefix(b *testing.B) {
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		r := newStream(int64(i))
		for j := 0; j < lazyDraws; j++ {
			sink += r.Int63()
		}
	}
	benchSink = float64(sink)
}

// BenchmarkWorkloadStart times Workload.Start — seeding and scheduling
// every host's generator — on 32,768 hosts against a recording target
// with no network, reporting the cost per host.
func BenchmarkWorkloadStart(b *testing.B) {
	const hosts = 32768
	for _, bc := range []struct {
		name string
		w    Workload
	}{
		{"uniform-32k", DefaultUniform(1)},
		{"search-32k", Search(1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := sim.New()
				bc.w.Start(e, &recorder{hosts: hosts, e: e}, sim.Millisecond)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N) * hosts
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/host")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/host")
		})
	}
}
