package traffic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"epnet/internal/sim"
)

// Record is one message injection in a recorded trace.
type Record struct {
	At   sim.Time
	Src  int
	Dst  int
	Size int
}

// traceMagic identifies the binary trace format (version 1).
var traceMagic = [8]byte{'E', 'P', 'T', 'R', 'A', 'C', 'E', '1'}

// WriteTrace serializes records to w in the binary trace format:
// an 8-byte magic, a uint64 record count, then fixed 32-byte records
// (int64 time, int64 src, int64 dst, int64 size), all little-endian.
func WriteTrace(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		if err := binary.Write(bw, binary.LittleEndian,
			[4]int64{int64(r.At), int64(r.Src), int64(r.Dst), int64(r.Size)}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a binary trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("traffic: reading trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("traffic: not an EPTRACE1 file (magic %q)", magic[:])
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("traffic: reading trace count: %w", err)
	}
	const maxRecords = 1 << 30
	if count > maxRecords {
		return nil, fmt.Errorf("traffic: implausible record count %d", count)
	}
	// The header is not trusted for the allocation: a short file can
	// claim 2³⁰ records. Preallocate at most maxPrealloc and let append
	// grow the slice as records actually arrive.
	const maxPrealloc = 64 << 10
	recs := make([]Record, 0, min(count, maxPrealloc))
	for i := uint64(0); i < count; i++ {
		var f [4]int64
		if err := binary.Read(br, binary.LittleEndian, &f); err != nil {
			return nil, fmt.Errorf("traffic: reading record %d: %w", i, err)
		}
		if f[0] < 0 || f[1] < 0 || f[2] < 0 || f[3] <= 0 {
			return nil, fmt.Errorf("traffic: invalid record %d: %v", i, f)
		}
		recs = append(recs, Record{
			At: sim.Time(f[0]), Src: int(f[1]), Dst: int(f[2]), Size: int(f[3]),
		})
	}
	return recs, nil
}

// Replay injects a recorded trace.
type Replay struct {
	Label   string
	Records []Record
	// Util documents the trace's average utilization for reports
	// (computed by Capture, or set by the caller).
	Util float64
}

// Name implements Workload.
func (p *Replay) Name() string { return p.Label }

// AvgUtil implements Workload.
func (p *Replay) AvgUtil() float64 { return p.Util }

// CheckHosts reports the first record whose source or destination is
// not one of n hosts. Start panics on such a trace, so callers that
// take traces from users check them when the run is built.
func (p *Replay) CheckHosts(n int) error {
	for i, r := range p.Records {
		if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
			return fmt.Errorf("traffic: trace record %d (src %d, dst %d) exceeds %d hosts",
				i, r.Src, r.Dst, n)
		}
	}
	return nil
}

// Start implements Workload. Records beyond the horizon are skipped.
func (p *Replay) Start(e *sim.Engine, tgt Target, horizon sim.Time) {
	if err := p.CheckHosts(tgt.NumHosts()); err != nil {
		panic(err)
	}
	for _, r := range p.Records {
		r := r
		if r.At > horizon {
			continue
		}
		e.At(r.At, func(sim.Time) { tgt.InjectMessage(r.Src, r.Dst, r.Size) })
	}
}

// recorder is a Target that captures injections instead of simulating
// them.
type recorder struct {
	hosts int
	e     *sim.Engine
	out   []Record
}

func (r *recorder) NumHosts() int { return r.hosts }
func (r *recorder) InjectMessage(src, dst, size int) {
	r.out = append(r.out, Record{At: r.e.Now(), Src: src, Dst: dst, Size: size})
}

// Capture runs workload w standalone (no network) for the given horizon
// and returns its injections as a trace, sorted by time. Use it to
// freeze a synthetic workload into a replayable artifact.
func Capture(w Workload, hosts int, horizon sim.Time) []Record {
	e := sim.New()
	rec := &recorder{hosts: hosts, e: e}
	w.Start(e, rec, horizon)
	e.RunUntil(horizon)
	sort.SliceStable(rec.out, func(i, j int) bool { return rec.out[i].At < rec.out[j].At })
	return rec.out
}

// ScaleTrace returns a copy of recs with injection times divided by
// speedup and message sizes multiplied by sizeFactor. The paper's
// evaluation does exactly this to its production traces: "the later two
// workloads have been significantly scaled up from the original traces"
// to model future applications on a high-performance network. Scaled
// sizes are clamped to at least one byte; speedup and sizeFactor must
// be positive.
func ScaleTrace(recs []Record, speedup, sizeFactor float64) ([]Record, error) {
	if speedup <= 0 || sizeFactor <= 0 {
		return nil, fmt.Errorf("traffic: scale factors must be positive (speedup=%v size=%v)",
			speedup, sizeFactor)
	}
	out := make([]Record, len(recs))
	for i, r := range recs {
		size := int(float64(r.Size) * sizeFactor)
		if size < 1 {
			size = 1
		}
		out[i] = Record{
			At:   sim.Time(float64(r.At) / speedup),
			Src:  r.Src,
			Dst:  r.Dst,
			Size: size,
		}
	}
	return out, nil
}

// RemapHosts returns a copy of recs with every source and destination
// remapped uniformly at random onto n hosts, preserving distinctness of
// each record's endpoints — the paper's "application placement has been
// randomized across the cluster" step applied at replay time.
func RemapHosts(recs []Record, n int, seed int64) ([]Record, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 hosts, got %d", n)
	}
	rng := newStream(seed)
	mapping := map[int]int{}
	assign := func(h int) int {
		if m, ok := mapping[h]; ok {
			return m
		}
		m := rng.Intn(n)
		mapping[h] = m
		return m
	}
	out := make([]Record, len(recs))
	for i, r := range recs {
		src := assign(r.Src)
		dst := assign(r.Dst)
		if dst == src {
			dst = (dst + 1) % n
		}
		out[i] = Record{At: r.At, Src: src, Dst: dst, Size: r.Size}
	}
	return out, nil
}

// TraceStats summarizes a trace for reports and calibration checks.
type TraceStats struct {
	Messages   int
	Bytes      int64
	Horizon    sim.Time
	MeanUtil   float64 // vs hosts * lineRate over the horizon
	MaxMsgSize int
}

// Stats computes summary statistics for a trace over the given host
// count, line rate (bits/s) and horizon.
func Stats(recs []Record, hosts int, lineRateBps float64, horizon sim.Time) TraceStats {
	s := TraceStats{Messages: len(recs), Horizon: horizon}
	for _, r := range recs {
		s.Bytes += int64(r.Size)
		if r.Size > s.MaxMsgSize {
			s.MaxMsgSize = r.Size
		}
	}
	if horizon > 0 && hosts > 0 && lineRateBps > 0 {
		s.MeanUtil = float64(s.Bytes) * 8 / (lineRateBps * float64(hosts) * horizon.Seconds())
	}
	return s
}

// BurstinessIndex measures multi-timescale burstiness of a trace: the
// mean over several window sizes of the coefficient of variation of
// per-window byte counts. Smooth (CBR-like) traffic scores near 0;
// Poisson traffic scores low; heavy-tailed sizes and gaps score well
// above 1 at short windows. Averaging over windows, it cannot tell
// short-range from long-range dependent traffic; the variance-time
// slope across windows can (TestVarianceTimeHurst).
func BurstinessIndex(recs []Record, horizon sim.Time, windows []sim.Time) float64 {
	if len(recs) == 0 || horizon <= 0 || len(windows) == 0 {
		return 0
	}
	var acc float64
	used := 0
	for _, w := range windows {
		if w <= 0 || w > horizon {
			continue
		}
		n := int(horizon / w)
		if n < 2 {
			continue
		}
		bins := make([]float64, n)
		for _, r := range recs {
			i := int(r.At / w)
			if i >= n {
				i = n - 1
			}
			bins[i] += float64(r.Size)
		}
		var mean float64
		for _, b := range bins {
			mean += b
		}
		mean /= float64(n)
		if mean == 0 {
			continue
		}
		var varsum float64
		for _, b := range bins {
			d := b - mean
			varsum += d * d
		}
		cv := math.Sqrt(varsum/float64(n)) / mean
		acc += cv
		used++
	}
	if used == 0 {
		return 0
	}
	return acc / float64(used)
}
