// Command carsexp regenerates the paper's evaluation tables and
// figures on the simulated GPU.
//
// Usage:
//
//	carsexp [-run fig8,tab1] [-parallel N] [-timeout 10m] [-md] [-v]
//	carsexp -spec my.json [-configs base,cars] [-md]
//
// With no -run flag every experiment runs in paper order. -md emits
// GitHub-flavoured markdown (the format EXPERIMENTS.md uses).
//
// -spec sidesteps the paper experiments entirely: it loads one
// declarative workload spec (internal/spec) and renders a cross-
// configuration comparison for it — the ad-hoc analogue of the paper's
// per-workload speedup rows.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/experiments"
	"carsgo/internal/spec"
	"carsgo/internal/workloads"
)

func main() {
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker-pool size bounding concurrent simulations")
	timeout := flag.Duration("timeout", 0, "kill the whole regeneration after this long (0 = no limit)")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	chart := flag.Bool("chart", false, "append an ASCII bar chart per experiment")
	verbose := flag.Bool("v", false, "log each simulation run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cache := flag.String("cache", "", "JSON results cache: reuse prior runs, save new ones")
	specPath := flag.String("spec", "", "render a cross-configuration table for one workload spec file instead of the paper experiments")
	specConfigs := flag.String("configs", "base,cars", "configurations for -spec (comma-separated, see carsim)")
	flag.Parse()

	if *specPath != "" {
		t, err := specTable(*specPath, strings.Split(*specConfigs, ","), *timeout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsexp: %v\n", err)
			os.Exit(1)
		}
		if *md {
			t.Markdown(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		return
	}

	r := experiments.NewRunner(*parallel)
	if *verbose {
		r.Log = os.Stderr
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		r.Ctx = ctx
	}
	if *cache != "" {
		n, err := r.LoadCache(*cache)
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsexp: %v\n", err)
			os.Exit(1)
		}
		if *verbose && n > 0 {
			fmt.Fprintf(os.Stderr, "loaded %d cached results from %s\n", n, *cache)
		}
		defer func() {
			if err := r.SaveCache(*cache); err != nil {
				fmt.Fprintf(os.Stderr, "carsexp: save cache: %v\n", err)
			}
		}()
	}
	if *list {
		fmt.Println(strings.Join(r.IDs(), "\n"))
		return
	}

	var ids []string
	if *runIDs == "" {
		ids = r.IDs()
	} else {
		ids = strings.Split(*runIDs, ",")
	}
	for _, id := range ids {
		t, err := r.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintf(os.Stderr, "carsexp: %v\n", err)
			os.Exit(1)
		}
		if *md {
			t.Markdown(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		if *chart {
			if col := experiments.ChartableColumn(t); col >= 0 {
				ch := experiments.Chart{Table: t, Column: col, Ref: 1.0}
				ch.RenderChart(os.Stdout)
				fmt.Println()
			}
		}
	}
}

// specTable runs one workload spec under each named configuration and
// tabulates the comparison, with speedups relative to the first
// configuration given.
func specTable(path string, configs []string, timeout time.Duration) (*experiments.Table, error) {
	s, err := spec.Load(path)
	if err != nil {
		return nil, err
	}
	w := workloads.FromSpec(s)
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	t := &experiments.Table{
		ID:    "spec",
		Title: fmt.Sprintf("workload spec %s (%s)", s.Name, path),
		Columns: []string{
			"Config", "Cycles", "Speedup", "CPKI", "L1D MPKI", "Depth", "Energy (µJ)",
		},
	}
	var base *carsgo.Result
	for _, name := range configs {
		name = strings.TrimSpace(name)
		cfg, lto, err := config.Named(name)
		if err != nil {
			return nil, err
		}
		var res *carsgo.Result
		if lto {
			res, err = carsgo.RunLTOContext(ctx, cfg, w)
		} else {
			res, err = carsgo.RunContext(ctx, cfg, w)
		}
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = res
		}
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			fmt.Sprintf("%d", res.Stats.Cycles),
			fmt.Sprintf("%.3f", res.Speedup(base)),
			fmt.Sprintf("%.2f", res.Stats.CPKI()),
			fmt.Sprintf("%.2f", res.Stats.MPKI()),
			fmt.Sprintf("%d", res.Stats.MaxCallDepth),
			fmt.Sprintf("%.2f", res.EnergyNJ/1e3),
		})
	}
	return t, nil
}
