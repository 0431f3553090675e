// Command carslint runs the repo's custom analyzers (internal/lint)
// over the module's Go sources: ten type-aware checks sharing one
// loaded module and one set of call-graph facts, in lint.Analyzers
// order. Five guard the simulator's invariants, each over the packages
// its Analyzer.Pkgs names:
//
//   - nonakedpanic: internal/sim and internal/cars, where a stray
//     panic would take down a whole multi-launch run instead of
//     surfacing as a *sim.ExecError;
//   - uncheckedsimerror: the packages that launch programs or link
//     modules, where a discarded GPU.Run or abi.Link error hides
//     faults;
//   - unusedmonitorhook: internal/san and internal/sim, where an
//     empty-bodied sim.Monitor hook silently swallows part of the
//     event stream the sanitizer's invariants depend on;
//   - seededrand: the packages whose reproducibility contract the
//     fuzzer and the load generator depend on, where a math/rand
//     global-source draw or a time-derived seed would make a printed
//     seed unable to replay its run;
//   - backendexhaustive: the packages that branch on the spill-backend
//     enum, where a switch missing a backend case silently falls
//     through when the lattice grows.
//
// The other five (ctxflow, goleak, lockheld, atomicmix, metriclabels;
// DESIGN.md §13) check concurrency and resource safety across the
// whole module. Pass directories to filter which findings are
// reported; the analysis itself always covers the whole module.
//
// Modes:
//
//	-selftest  run every analyzer against its planted-violation
//	           fixture (internal/lint/testdata/src) and require all
//	           plants to fire with zero false positives on the clean
//	           twins — proof the analyzers still have teeth;
//	-json      emit a schemaVersioned machine-readable report;
//	-table     print a per-analyzer findings summary table.
//
// Exit status: 0 clean, 1 findings (or selftest failure), 2 usage or
// analysis error — the carsvet contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"carsgo/internal/lint"
)

// reportSchemaVersion identifies the -json envelope layout.
const reportSchemaVersion = 1

// finding is one diagnostic in the -json report.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the -json envelope.
type report struct {
	SchemaVersion int       `json:"schemaVersion"`
	Analyzers     []string  `json:"analyzers"`
	Findings      []finding `json:"findings"`
	Clean         bool      `json:"clean"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit a schemaVersioned JSON report instead of plain lines")
	selftest := flag.Bool("selftest", false, "run every analyzer against its planted-violation fixture")
	table := flag.Bool("table", false, "print a per-analyzer findings summary table")
	flag.Parse()

	if *selftest {
		os.Exit(runSelfTest(*jsonOut))
	}

	mod, err := lint.LoadModule(".")
	if err != nil {
		fail(err)
	}
	facts := lint.BuildFacts(mod)
	findings := []finding{}
	var names []string
	for _, a := range lint.Analyzers {
		names = append(names, a.Name)
		diags, err := lint.Run(a, mod, facts)
		if err != nil {
			fail(err)
		}
		for _, d := range lint.FilterDirs(diags, flag.Args()) {
			findings = append(findings, finding{
				Analyzer: a.Name,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
	}

	if *jsonOut {
		emitJSON(report{
			SchemaVersion: reportSchemaVersion,
			Analyzers:     names,
			Findings:      findings,
			Clean:         len(findings) == 0,
		})
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range findings {
		fmt.Printf("%s:%d:%d: %s\n", f.File, f.Line, f.Col, f.Message)
	}
	if *table {
		printTable(names, findings)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	fmt.Print("carslint:")
	for _, n := range names {
		fmt.Print(" ", n)
	}
	fmt.Println(" clean")
}

// fail reports an analysis error with the usage/error exit status.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "carslint:", err)
	os.Exit(2)
}

// printTable renders the per-analyzer findings summary.
func printTable(names []string, findings []finding) {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	fmt.Printf("%-*s  findings\n", width, "analyzer")
	for _, n := range names {
		fmt.Printf("%-*s  %d\n", width, n, counts[n])
	}
}

// selftestResult is one analyzer's fixture verdict in the -selftest
// JSON report.
type selftestResult struct {
	Analyzer   string   `json:"analyzer"`
	Planted    int      `json:"planted"`
	Fired      int      `json:"fired"`
	Missing    []string `json:"missing,omitempty"`
	Unexpected []string `json:"unexpected,omitempty"`
	OK         bool     `json:"ok"`
}

// runSelfTest holds every analyzer to its planted fixture.
func runSelfTest(jsonOut bool) int {
	results, err := lint.SelfTest(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "carslint: selftest:", err)
		return 2
	}
	var out []selftestResult
	allOK := true
	for _, r := range results {
		sr := selftestResult{
			Analyzer:   r.Analyzer,
			Planted:    r.Wanted,
			Fired:      r.Wanted - len(r.Missing),
			Missing:    r.Missing,
			Unexpected: r.Unexpected,
			OK:         r.OK(),
		}
		if !sr.OK {
			allOK = false
		}
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Analyzer < out[j].Analyzer })

	if jsonOut {
		emitJSON(struct {
			SchemaVersion int              `json:"schemaVersion"`
			Results       []selftestResult `json:"results"`
			OK            bool             `json:"ok"`
		}{reportSchemaVersion, out, allOK})
	} else {
		width := len("analyzer")
		for _, r := range out {
			if len(r.Analyzer) > width {
				width = len(r.Analyzer)
			}
		}
		fmt.Printf("%-*s  planted  fired  verdict\n", width, "analyzer")
		for _, r := range out {
			verdict := "ok"
			if !r.OK {
				verdict = "FAIL"
			}
			fmt.Printf("%-*s  %7d  %5d  %s\n", width, r.Analyzer, r.Planted, r.Fired, verdict)
			for _, m := range r.Missing {
				fmt.Printf("  missing: %s\n", m)
			}
			for _, u := range r.Unexpected {
				fmt.Printf("  unexpected: %s\n", u)
			}
		}
	}
	if !allOK {
		return 1
	}
	return 0
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "carslint:", err)
		os.Exit(2)
	}
}
