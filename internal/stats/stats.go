// Package stats provides the statistical utilities the experiments use:
// summary statistics, histograms, confusion matrices, Levenshtein
// distance, and the text/character accuracy metrics of §7.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Levenshtein returns the edit distance between two rune strings.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// TextAccuracy is the §7.1 "text input accuracy": the fraction of inputs
// inferred exactly (whole string correct).
func TextAccuracy(inferred, truth []string) float64 {
	if len(truth) == 0 {
		return 0
	}
	n := 0
	for i := range truth {
		if i < len(inferred) && inferred[i] == truth[i] {
			n++
		}
	}
	return float64(n) / float64(len(truth))
}

// CharAccuracy is the §7.1 "individual key press accuracy": 1 minus the
// normalized edit distance, aggregated over all pairs.
func CharAccuracy(inferred, truth []string) float64 {
	var errs, total int
	for i := range truth {
		inf := ""
		if i < len(inferred) {
			inf = inferred[i]
		}
		errs += Levenshtein(inf, truth[i])
		total += len([]rune(truth[i]))
	}
	if total == 0 {
		return 0
	}
	acc := 1 - float64(errs)/float64(total)
	if acc < 0 {
		return 0
	}
	return acc
}

// MeanErrors returns the average edit distance per pair (Figure 17b).
func MeanErrors(inferred, truth []string) float64 {
	if len(truth) == 0 {
		return 0
	}
	var errs int
	for i := range truth {
		inf := ""
		if i < len(inferred) {
			inf = inferred[i]
		}
		errs += Levenshtein(inf, truth[i])
	}
	return float64(errs) / float64(len(truth))
}

// Confusion is a label confusion matrix over runes.
type Confusion struct {
	counts map[[2]rune]int
	total  map[rune]int
}

// NewConfusion returns an empty confusion matrix.
func NewConfusion() *Confusion {
	return &Confusion{counts: map[[2]rune]int{}, total: map[rune]int{}}
}

// Add records one (truth, predicted) pair.
func (c *Confusion) Add(truth, pred rune) {
	c.counts[[2]rune{truth, pred}]++
	c.total[truth]++
}

// Accuracy returns the per-rune accuracy, or 1 if the rune was never seen.
func (c *Confusion) Accuracy(truth rune) float64 {
	t := c.total[truth]
	if t == 0 {
		return 1
	}
	return float64(c.counts[[2]rune{truth, truth}]) / float64(t)
}

// Overall returns the trace-wide accuracy.
func (c *Confusion) Overall() float64 {
	var hit, total int
	for r, t := range c.total {
		hit += c.counts[[2]rune{r, r}]
		total += t
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

// Seen lists the truth runes observed, sorted.
func (c *Confusion) Seen() []rune {
	out := make([]rune, 0, len(c.total))
	for r := range c.total {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CharGroup classifies characters as the Figure 17(c)/21(c) groups.
func CharGroup(r rune) string {
	switch {
	case r >= 'a' && r <= 'z':
		return "lower"
	case r >= 'A' && r <= 'Z':
		return "upper"
	case r >= '0' && r <= '9':
		return "number"
	default:
		return "symbol"
	}
}

// Table is a printable experiment result: a header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fmt formats a float at sensible precision for table cells.
func Fmt(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	writeRow(sepRow(widths))
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func sepRow(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}
