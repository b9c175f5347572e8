package traffic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"epnet/internal/sim"
)

// TestReadTraceDistrustsCount feeds a 16-byte file whose header claims
// 2³⁰ records: it must fail on the missing first record without
// allocating for the claimed count (~32 GiB).
func TestReadTraceDistrustsCount(t *testing.T) {
	data := append(traceMagic[:], 0, 0, 0, 0x40, 0, 0, 0, 0) // count = 1<<30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("header-only trace accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("rejecting a 16-byte trace allocated %d B", got)
	}
}

// validTracePrefix is the reference the fuzzer checks ReadTrace
// against: whether data starts with a well-formed trace, and how many
// bytes that trace spans.
func validTracePrefix(data []byte) (n int, ok bool) {
	if len(data) < 16 || !bytes.Equal(data[:8], traceMagic[:]) {
		return 0, false
	}
	count := binary.LittleEndian.Uint64(data[8:16])
	if count > 1<<30 || uint64(len(data)-16)/32 < count {
		return 0, false
	}
	for i := 0; i < int(count); i++ {
		rec := data[16+32*i:]
		for f := 0; f < 4; f++ {
			v := int64(binary.LittleEndian.Uint64(rec[8*f:]))
			if v < 0 || (f == 3 && v == 0) {
				return 0, false
			}
		}
	}
	return 16 + 32*int(count), true
}

// FuzzReadTrace: ReadTrace never panics, rejects exactly the inputs
// that do not start with a well-formed trace, and what it accepts
// re-encodes to the bytes it read.
func FuzzReadTrace(f *testing.F) {
	for _, recs := range [][]Record{
		nil,
		{{At: 1, Src: 0, Dst: 1, Size: 10}},
		Capture(DefaultUniform(9), 8, 200*sim.Microsecond),
	} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add(append(traceMagic[:], 0, 0, 0, 0x40, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTrace(bytes.NewReader(data))
		n, ok := validTracePrefix(data)
		if !ok {
			if err == nil {
				t.Fatalf("malformed trace accepted as %d records", len(recs))
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed trace rejected: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatal("accepted trace does not round-trip")
		}
	})
}
