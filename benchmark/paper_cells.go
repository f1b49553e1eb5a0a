package main

// paperCell is one numeric cell of the paper's evaluation, transcribed from
// EXPERIMENTS.md, in microseconds. Row and Col are the labels the experiment
// harness prints, so a measured cell finds its reference by key.
type paperCell struct {
	Table string
	Row   string
	Col   string
	US    float64
	// Divergence is the number of the known divergence in EXPERIMENTS.md's
	// summary this cell falls under (0: none). Such cells still count in
	// paper_err_pct; they are also listed on their own.
	Divergence int
}

// knownDivergences is EXPERIMENTS.md's "Summary of known divergences", by
// number. 2 and 3 concern Fig 2a and Table 5, which paper_quick does not run
// (no numeric paper cells are recorded for them).
var knownDivergences = map[int]string{
	1: "ghOSt tail blowups at 40 schbench tasks are compressed (agent batching)",
	2: "Fig 2a's saturation knee falls at ~65-70k instead of past 80k (not in paper_quick)",
	3: "Table 5 outliers reach ~3% not ~8.6% (not in paper_quick)",
	4: "Table 6's 32 ms one-core p99 starvation tail is absent",
	5: "ghOSt FIFO gains less from the two-core pipe than the paper measured",
}

// Column keys.
const (
	colOneCore = "one_core"
	colTwoCore = "two_core"
	col2wP50   = "2w_p50"
	col2wP99   = "2w_p99"
	col40wP50  = "40w_p50"
	col40wP99  = "40w_p99"
	colP50     = "p50"
	colP99     = "p99"
	colBlack   = "blackout"
)

var paperCells = buildPaperCells()

func buildPaperCells() []paperCell {
	var cells []paperCell
	add := func(table, row string, div map[string]int, kv ...any) {
		for i := 0; i < len(kv); i += 2 {
			col := kv[i].(string)
			cells = append(cells, paperCell{Table: table, Row: row, Col: col,
				US: kv[i+1].(float64), Divergence: div[col]})
		}
	}
	// Table 3: perf pipe latency, µs per wakeup (14 cells).
	t3 := func(row string, one, two float64, div map[string]int) {
		add("table3", row, div, colOneCore, one, colTwoCore, two)
	}
	t3("CFS", 3.0, 3.6, nil)
	t3("GhOSt SOL", 6.0, 5.8, nil)
	t3("GhOSt FIFO", 9.1, 7.0, map[string]int{colTwoCore: 5})
	t3("WFQ", 3.6, 4.0, nil)
	t3("Shinjuku", 4.0, 4.4, nil)
	t3("Locality", 3.5, 3.9, nil)
	t3("Arachne", 0.1, 0.2, nil)

	// Table 4: schbench wakeup latency on 80 cores, µs (28 cells).
	t4 := func(row string, a50, a99, b50, b99 float64, div map[string]int) {
		add("table4", row, div, col2wP50, a50, col2wP99, a99, col40wP50, b50, col40wP99, b99)
	}
	t4("CFS", 74, 101, 139, 320, nil)
	t4("GhOSt SOL", 66, 132, 192, 1354, map[string]int{col40wP99: 1})
	t4("GhOSt FIFO", 101, 170, 152, 1806, map[string]int{col40wP99: 1})
	t4("WFQ", 78, 104, 170, 323, nil)
	t4("Shinjuku", 79, 109, 168, 307, nil)
	t4("Locality", 80, 105, 175, 324, nil)
	t4("Arachne", 1, 1, 1, 1, nil)

	// Table 6: locality hints, 2 msg x 2 workers, µs (8 cells).
	t6 := func(row string, p50, p99 float64, div map[string]int) {
		add("table6", row, div, colP50, p50, colP99, p99)
	}
	t6("CFS", 33, 50, nil)
	t6("CFS One Core", 17, 32032, map[string]int{colP99: 4})
	t6("Random", 46, 49, nil)
	t6("Hints", 2, 4, nil)

	// §5.7: live-upgrade blackout, µs (3 cells).
	add("upgrade", "8cpu_2w", nil, colBlack, 1.5)
	add("upgrade", "80cpu_2w", nil, colBlack, 9.9)
	add("upgrade", "80cpu_40w", nil, colBlack, 10.1)
	return cells
}
