package gpuleak

import (
	"bytes"
	"context"
	"testing"
)

// TestTrainContextWorkersIdentical pins the public-API determinism
// contract: TrainContext produces bit-identical models no matter how many
// collection workers fan out the offline phase.
func TestTrainContextWorkersIdentical(t *testing.T) {
	cfg := VictimConfig{Device: OnePlus8Pro, Seed: 99}
	encode := func(workers int) []byte {
		m, err := TrainContext(context.Background(), cfg, CollectOptions{Repeats: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	if parallel := encode(8); !bytes.Equal(serial, parallel) {
		t.Fatalf("Workers:8 model differs from Workers:1 model (%d vs %d bytes)",
			len(parallel), len(serial))
	}
}
