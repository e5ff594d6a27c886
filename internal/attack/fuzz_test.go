package attack

import (
	"bytes"
	"testing"

	"gpuleak/internal/trace"
)

// FuzzReadModel hardens the model reader behind attackd's and
// traceview's -model flag: arbitrary input never panics, and any model
// that parses classifies the zero delta and each of its own centroids
// without panicking.
func FuzzReadModel(f *testing.F) {
	var buf bytes.Buffer
	if err := sharedModel(f).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := tinyModel().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"keys":{"":[1]},"weights":[0,-1],"cth":-1,"noise":[{"v":[1e308]}]}`))
	f.Add([]byte(`{"keys":{}}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := ReadModel(bytes.NewReader(doc))
		if err != nil {
			return
		}
		probe := []trace.Vec{{}}
		for _, v := range m.Keys {
			probe = append(probe, v)
		}
		for _, n := range m.Noise {
			probe = append(probe, n.V)
		}
		for _, v := range probe {
			m.Classify(v)
			m.ClassifyDenoised(v)
		}
	})
}
