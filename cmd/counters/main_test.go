package main

import (
	"bytes"
	"testing"
)

// TestRunSelectedPrintsTable1 pins -selected: the header, then the
// paper's 11 Table-1 counters in adreno.Selected order, which is the
// order of every counter vector the attack reads.
func TestRunSelectedPrintsTable1(t *testing.T) {
	const want = `Table-1 counters selected for eavesdropping:
  group LRZ  (0x19)  countable 13  PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ
  group LRZ  (0x19)  countable 14  PERF_LRZ_FULL_8X8_TILES
  group LRZ  (0x19)  countable 15  PERF_LRZ_PARTIAL_8X8_TILES
  group LRZ  (0x19)  countable 18  PERF_LRZ_VISIBLE_PIXEL_AFTER_LRZ
  group RAS  (0x07)  countable  1  PERF_RAS_SUPERTILE_ACTIVE_CYCLES
  group RAS  (0x07)  countable  4  PERF_RAS_SUPER_TILES
  group RAS  (0x07)  countable  5  PERF_RAS_8X4_TILES
  group RAS  (0x07)  countable  8  PERF_RAS_FULLY_COVERED_8X4_TILES
  group VPC  (0x05)  countable  9  PERF_VPC_PC_PRIMITIVES
  group VPC  (0x05)  countable 10  PERF_VPC_SP_COMPONENTS
  group VPC  (0x05)  countable 12  PERF_VPC_LRZ_ASSIGN_PRIMITIVES
`
	var stdout bytes.Buffer
	if err := run([]string{"-selected"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != want {
		t.Fatalf("counters -selected printed:\n%s\nwant:\n%s", got, want)
	}
}
