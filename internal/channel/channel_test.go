package channel

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gpuleak/internal/sim"
	"gpuleak/internal/trace"
)

// TestRegistryRoundTrip pins the table's names, that Get resolves each
// of them, and the exact unknown-name error text.
func TestRegistryRoundTrip(t *testing.T) {
	want := []string{"kgsl", "proccount"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		c, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if c.Name != name || c.Open == nil {
			t.Errorf("Get(%q) = entry %q (Open set: %v)", name, c.Name, c.Open != nil)
		}
	}
	const wantErr = `channel: unknown channel: "x" (registered: [kgsl proccount])`
	if _, err := Get("x"); err == nil || err.Error() != wantErr {
		t.Errorf("Get(\"x\") error = %v, want %s", err, wantErr)
	}
}

// TestTableNamesUnique pins that no two table entries share a name, so
// Get resolves every name to exactly one channel.
func TestTableNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range table {
		if seen[c.Name] {
			t.Errorf("table entry name %q is listed twice", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestTableNamesWellFormed pins that every table name is non-empty (the
// empty name means "the default") and carries no "+" (the defense chain
// separator).
func TestTableNamesWellFormed(t *testing.T) {
	for _, c := range table {
		if c.Name == "" || strings.Contains(c.Name, "+") {
			t.Errorf("table entry name %q must be non-empty and free of '+'", c.Name)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	_, err := Get("test.unknown")
	if !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("Get(unknown) = %v; want ErrUnknownChannel", err)
	}
	if !strings.Contains(err.Error(), "test.unknown") {
		t.Errorf("error %q does not name the channel", err)
	}
}

func TestGetEmptyResolvesDefault(t *testing.T) {
	c, err := Get("")
	if err != nil {
		t.Fatalf("Get(\"\"): %v", err)
	}
	if c.Name != DefaultName || c.Dims != trace.Width || c.Interval != 8*sim.Millisecond {
		t.Errorf("Get(\"\") = {Name: %q, Dims: %d, Interval: %v}, want {%q, %d, 8ms}",
			c.Name, c.Dims, c.Interval, DefaultName, trace.Width)
	}
	if p, err := Get("proccount"); err != nil || p.Name != "proccount" {
		t.Errorf("Get(\"proccount\") = %q, %v", p.Name, err)
	}
}

func TestCanonical(t *testing.T) {
	if got := Canonical(DefaultName); got != "" {
		t.Errorf("Canonical(%q) = %q; the default channel keeps the legacy empty tag", DefaultName, got)
	}
	if got := Canonical("proccount"); got != "proccount" {
		t.Errorf("Canonical(proccount) = %q", got)
	}
}
