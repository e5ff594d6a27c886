package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the trace parser: arbitrary input never panics,
// and a trace that parses survives a WriteCSV/ReadCSV round trip with its
// interval, read count, first read and every delta's At, Gap and V bits
// unchanged. The seeds include a faulted capture with dropped and delayed
// ticks, synthetic and as attackd writes it.
func FuzzReadCSV(f *testing.F) {
	for _, tr := range []*Trace{mkTrace(), faultedTrace()} {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	capture, err := os.ReadFile("../../testdata/attackd_severe_seed4.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(capture))
	f.Add("")
	f.Add("interval_us,8000,reads,1\ntime_us,a\n1,2\n")
	f.Add("interval_us,8000,reads,3\ntime_us,gap_us" + strings.Repeat(",c", Width) + "\n5,0" + strings.Repeat(",1", Width) +
		"\n13,8" + strings.Repeat(",-0", Width-1) + ",1e+300\n")
	f.Fuzz(func(t *testing.T, doc string) {
		parsed, err := ReadCSV(strings.NewReader(doc))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := parsed.WriteCSV(&out); err != nil {
			t.Fatalf("reserializing parsed trace: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if diff := sameTrace(parsed, back); diff != "" {
			t.Fatalf("round trip changed the trace: %s", diff)
		}
	})
}
