// Command counters enumerates the simulated Adreno GPU performance
// counters the way the paper's §3.3 discovery step does (via the
// GL_AMD_performance_monitor-style string identifiers), and marks the
// Table-1 counters the attack selects.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"gpuleak/internal/adreno"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("counters: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the counter listing the flags in args select to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("counters", flag.ExitOnError)
	onlySelected := fs.Bool("selected", false, "print only the Table-1 counters the attack uses")
	fs.Parse(args) //nolint:errcheck // ExitOnError: a bad flag exits with the usage

	selected := map[adreno.CounterKey]bool{}
	for _, k := range adreno.Selected {
		selected[k] = true
	}

	if *onlySelected {
		fmt.Fprintln(stdout, "Table-1 counters selected for eavesdropping:")
		for _, k := range adreno.Selected {
			s, _ := adreno.CounterString(k)
			fmt.Fprintf(stdout, "  group %-4s (0x%02X)  countable %2d  %s\n",
				adreno.GroupName(k.Group), k.Group, k.Countable, s)
		}
		return nil
	}

	fmt.Fprintln(stdout, "Adreno performance counter enumeration (GetPerfMonitorCounterStringAMD):")
	total := 0
	for _, g := range adreno.Groups() {
		fmt.Fprintf(stdout, "group %s (0x%02X):\n", adreno.GroupName(g), g)
		for _, c := range adreno.CountersInGroup(g) {
			k := adreno.CounterKey{Group: g, Countable: c}
			s, ok := adreno.CounterString(k)
			if !ok {
				continue
			}
			mark := " "
			if selected[k] {
				mark = "*"
			}
			fmt.Fprintf(stdout, "  %s [%2d] %s\n", mark, c, s)
			total++
		}
	}
	fmt.Fprintf(stdout, "\n%d counters; * = overdraw-related counters used by the attack (Table 1)\n", total)
	if len(adreno.SelectOverdrawCounters()) != adreno.NumSelected {
		return errors.New("discovery did not find all Table-1 counters")
	}
	return nil
}
