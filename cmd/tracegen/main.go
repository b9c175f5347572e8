// Command tracegen generates synthetic workload trace files in the
// EPTRACE1 binary format, and inspects existing ones. Generated traces
// can be replayed with `epsim -workload trace -trace <file>` or via
// epnet.Config{Workload: epnet.WorkloadTrace}.
//
// Examples:
//
//	tracegen -workload search -hosts 128 -horizon 50ms -o search.trace
//	tracegen -inspect search.trace -hosts 128 -horizon 50ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"epnet/internal/link"
	"epnet/internal/scenario"
	"epnet/internal/sim"
	"epnet/internal/traffic"
)

func main() {
	workload := flag.String("workload", "search", "workload: "+strings.Join(scenario.Kinds(), " | "))
	hosts := flag.Int("hosts", 64, "number of hosts")
	horizon := flag.Duration("horizon", 20*time.Millisecond, "trace length (simulated)")
	load := flag.Float64("load", 0, "override workload average utilization")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output trace file (required unless -inspect)")
	inspect := flag.String("inspect", "", "inspect an existing trace file instead of generating")
	rescale := flag.String("rescale", "", "rescale an existing trace file (with -speedup/-size-factor/-remap) into -o")
	speedup := flag.Float64("speedup", 1, "rescale: divide injection times by this factor")
	sizeFactor := flag.Float64("size-factor", 1, "rescale: multiply message sizes by this factor")
	remap := flag.Int("remap", 0, "rescale: randomize placement onto this many hosts (0 = keep)")
	flag.Parse()

	if *inspect != "" {
		if err := doInspect(*inspect, *hosts, *horizon); err != nil {
			fail(err)
		}
		return
	}
	if *rescale != "" {
		if *out == "" {
			fail(fmt.Errorf("-rescale requires -o"))
		}
		if err := doRescale(*rescale, *out, *speedup, *sizeFactor, *remap, *seed); err != nil {
			fail(err)
		}
		return
	}
	if *out == "" {
		fail(fmt.Errorf("-o is required (or use -inspect)"))
	}

	w, err := scenario.NewWorkload(*workload, *load, *seed)
	if err != nil {
		fail(err)
	}

	h := sim.Time(horizon.Nanoseconds()) * sim.Nanosecond
	recs := traffic.Capture(w, *hosts, h)
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	if err := traffic.WriteTrace(f, recs); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	st := traffic.Stats(recs, *hosts, float64(link.Rate40G), h)
	fmt.Printf("wrote %s: %d messages, %.1f MB offered, mean util %.2f%% over %v\n",
		*out, st.Messages, float64(st.Bytes)/1e6, st.MeanUtil*100, *horizon)
}

// doRescale applies the paper's trace scale-up transformations: compress
// time, scale sizes, and randomize placement.
func doRescale(in, out string, speedup, sizeFactor float64, remapHosts int, seed int64) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	recs, err := traffic.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	recs, err = traffic.ScaleTrace(recs, speedup, sizeFactor)
	if err != nil {
		return err
	}
	if remapHosts > 0 {
		recs, err = traffic.RemapHosts(recs, remapHosts, seed)
		if err != nil {
			return err
		}
	}
	g, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := traffic.WriteTrace(g, recs); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	fmt.Printf("rescaled %s -> %s: %d records, speedup %gx, sizes %gx, remap %d\n",
		in, out, len(recs), speedup, sizeFactor, remapHosts)
	return nil
}

func doInspect(path string, hosts int, horizon time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := traffic.ReadTrace(f)
	if err != nil {
		return err
	}
	h := sim.Time(horizon.Nanoseconds()) * sim.Nanosecond
	if len(recs) > 0 && recs[len(recs)-1].At > h {
		h = recs[len(recs)-1].At
	}
	st := traffic.Stats(recs, hosts, float64(link.Rate40G), h)
	burst := traffic.BurstinessIndex(recs, h, []sim.Time{
		10 * sim.Microsecond, 100 * sim.Microsecond, sim.Millisecond,
	})
	fmt.Printf("%s: %d messages, %.1f MB, max message %d B\n",
		path, st.Messages, float64(st.Bytes)/1e6, st.MaxMsgSize)
	fmt.Printf("mean utilization (vs %d hosts at 40G): %.2f%%\n", hosts, st.MeanUtil*100)
	fmt.Printf("burstiness index (10us/100us/1ms windows): %.2f\n", burst)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
