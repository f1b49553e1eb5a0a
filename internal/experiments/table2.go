package experiments

import (
	"bufio"

	"os"
	"path/filepath"
	"runtime"
	"strings"

	"enoki/internal/stats"
)

// Table2Row is one component's line count.
type Table2Row struct {
	Component string
	Files     int
	LOC       int
}

// Table2Result is this reproduction's analogue of Table 2: lines of code per
// Enoki component, measured from the source tree at run time.
type Table2Result struct {
	Rows  []Table2Row
	Total int
}

// Name implements the experiment naming convention.
func (r *Table2Result) Name() string { return "table2" }

func (r *Table2Result) String() string {
	t := stats.NewTable("Component", "Files", "LOC")
	for _, row := range r.Rows {
		t.Row(row.Component, row.Files, row.LOC)
	}
	t.Row("total", "", r.Total)
	return "Table 2 (analogue): lines of Go per component of this reproduction\n" +
		"(paper: Enoki-C 2411 C, scheduler libEnoki 962 Rust, other libEnoki 5870, record 95, replay 646;\n" +
		" schedulers: WFQ 646, Shinjuku 285, Locality 203, Arachne arbiter 579)\n" + t.String()
}

// table2Components maps paper components to this repo's packages.
var table2Components = []struct {
	name string
	dirs []string
}{
	{"Enoki-C (enokic)", []string{"internal/enokic"}},
	{"libEnoki (core)", []string{"internal/core"}},
	{"kernel substrate", []string{"internal/kernel", "internal/sim", "internal/rbtree", "internal/ringbuf", "internal/ktime"}},
	{"record", []string{"internal/record"}},
	{"replay", []string{"internal/replay"}},
	{"WFQ scheduler", []string{"internal/sched/wfq"}},
	{"Shinjuku scheduler", []string{"internal/sched/shinjuku"}},
	{"Locality scheduler", []string{"internal/sched/locality"}},
	{"Arachne arbiter", []string{"internal/sched/arbiter"}},
	{"FIFO scheduler", []string{"internal/sched/fifo"}},
	{"Nest scheduler (extension)", []string{"internal/sched/nest"}},
	{"ghOSt baseline", []string{"internal/ghost"}},
	{"Arachne runtime", []string{"internal/arachne"}},
	{"workloads", []string{"internal/workload"}},
	{"experiments", []string{"internal/experiments"}},
}

// Table2 counts non-test Go lines per component by walking the source tree
// (located via runtime.Caller, so it works from any working directory in a
// source checkout).
func Table2(o Options) *Table2Result {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return &Table2Result{}
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	res := &Table2Result{}
	for _, comp := range table2Components {
		row := Table2Row{Component: comp.name}
		for _, dir := range comp.dirs {
			entries, err := os.ReadDir(filepath.Join(root, dir))
			if err != nil {
				continue
			}
			for _, e := range entries {
				name := e.Name()
				if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				n, err := countLines(filepath.Join(root, dir, name))
				if err != nil {
					continue
				}
				row.Files++
				row.LOC += n
			}
		}
		res.Rows = append(res.Rows, row)
		res.Total += row.LOC
	}
	return res
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := 0
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n, sc.Err()
}
