package experiments

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"enoki/internal/stats"
)

// Table2Row is one component's line count (every line, as `wc -l` counts).
type Table2Row struct {
	Component string
	Files     int
	LOC       int
}

// Table2Result is this reproduction's analogue of Table 2: lines of code per
// Enoki component, then per framework package, measured from the source tree
// at run time. The totals cover every non-test Go file outside benchmark/,
// so "net non-test lines" per PR is this one command's last row.
type Table2Result struct {
	Rows  []Table2Row
	Total int
}

// Name implements the experiment naming convention.
func (r *Table2Result) Name() string { return "table2" }

func (r *Table2Result) String() string {
	t := stats.NewTable("Component", "Files", "Lines")
	for _, row := range r.Rows {
		t.Row(row.Component, row.Files, row.LOC)
	}
	t.Row("total (non-test Go outside benchmark/)", "", r.Total)
	return "Table 2 (analogue): lines of Go per component of this reproduction\n" +
		"(paper: Enoki-C 2411 C, scheduler libEnoki 962 Rust, other libEnoki 5870, record 95, replay 646;\n" +
		" schedulers: WFQ 646, Shinjuku 285, Locality 203, Arachne arbiter 579)\n" + t.String()
}

// table2Components maps paper components, then framework packages, to this
// repo's directories. A directory entry covers its subdirectories unless an
// earlier entry claims them; files no entry claims land in the last row.
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
	{"traffic engine", []string{"internal/workload/traffic"}},
	{"workloads", []string{"internal/workload"}},
	{"experiments", []string{"internal/experiments"}},
	{"chaos engine", []string{"internal/chaos"}},
	{"bench harness", []string{"internal/bench"}},
	{"cluster control plane", []string{"internal/cluster"}},
	{"verified tier (vpol)", []string{"internal/vpol"}},
	{"overload control", []string{"internal/overload"}},
	{"trace + metrics", []string{"internal/trace", "internal/metrics"}},
	{"public API (root package)", []string{"."}},
	{"commands (cmd/*)", []string{"cmd"}},
	{"other (test rigs, stats, gls, examples, scripts)", nil},
}

// table2Component returns the row index owning dir (slash-separated,
// relative to the repo root; "." owns root-level files only).
func table2Component(dir string) int {
	for i, comp := range table2Components {
		for _, d := range comp.dirs {
			if dir == d || strings.HasPrefix(dir, d+"/") {
				return i
			}
		}
	}
	return len(table2Components) - 1
}

// Table2 counts non-test Go lines per component by walking the source tree
// (located via runtime.Caller, so it works from any working directory in a
// source checkout), skipping benchmark/ and dot-directories.
func Table2(o Options) *Table2Result {
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		return &Table2Result{}
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	res := &Table2Result{Rows: make([]Table2Row, len(table2Components))}
	for i, comp := range table2Components {
		res.Rows[i].Component = comp.name
	}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { // the callback returns no error
		if err != nil {
			return nil // unreadable entries count nothing
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "benchmark" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		n, err := countLines(path)
		if err != nil {
			return nil
		}
		row := &res.Rows[table2Component(filepath.ToSlash(filepath.Dir(rel)))]
		row.Files++
		row.LOC += n
		res.Total += n
		return nil
	})
	return res
}

func countLines(path string) (int, error) {
	b, err := os.ReadFile(path)
	return bytes.Count(b, []byte{'\n'}), err
}
