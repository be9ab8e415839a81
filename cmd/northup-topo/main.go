// Command northup-topo inspects Northup topologies: it prints the tree
// outline (the runtime's "output the topology" facility, §III-E) and,
// optionally, Graphviz dot for a Figure 2-style drawing.
//
// Usage:
//
//	northup-topo -preset apu|apu-hdd|discrete|inmemory [-dot]
//	northup-topo -spec topology.json [-dot]
//	northup-topo -preset apu -cache [-cache-mib M] [-cache-share F] [-prefetch]
//
// With -cache the outline is followed by each memory node's staging-cache
// capacity and policy, as a runtime with that configuration would run it.
// The cache flags follow northup-run's rules: -cache-share lies in [0, 1],
// -cache-mib is 0 or more and its bytes fit in int64, and -cache-mib,
// -cache-share and -prefetch need -cache, which -dot does not print; a
// refusal names the flag and exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/northup"
)

// options is the parsed command line.
type options struct {
	preset, spec string
	dot, cache   bool
	cacheMiB     int64
	cacheShare   float64
	prefetch     bool
	set          map[string]string // each flag given, as "-cache-mib 8" or "-prefetch"
}

// parseFlags reads the command line into options; validate checks them.
func parseFlags(args []string) (*options, error) {
	o := &options{set: map[string]string{}}
	fs := flag.NewFlagSet("northup-topo", flag.ContinueOnError)
	fs.StringVar(&o.preset, "preset", "", "built-in topology: apu, apu-hdd, discrete, inmemory")
	fs.StringVar(&o.spec, "spec", "", "JSON topology spec file")
	fs.BoolVar(&o.dot, "dot", false, "emit Graphviz dot instead of the outline")
	fs.BoolVar(&o.cache, "cache", false, "show each memory node's staging-cache capacity and policy")
	fs.Int64Var(&o.cacheMiB, "cache-mib", 0, "cache capacity per node in MiB (0 = -cache-share of the node)")
	fs.Float64Var(&o.cacheShare, "cache-share", 0, "cache capacity as a fraction of each node (0 = default 0.5)")
	fs.BoolVar(&o.prefetch, "prefetch", false, "include the lookahead prefetcher in the policy line")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			o.set[f.Name] = "-" + f.Name
		} else {
			o.set[f.Name] = "-" + f.Name + " " + f.Value.String()
		}
	})
	return o, nil
}

// maxCacheMiB is the largest -cache-mib whose byte count fits in int64.
const maxCacheMiB = math.MaxInt64 >> 20

// validate refuses, naming the flag, a cache size no runtime accepts and a
// cache flag that would be ignored: one given without -cache, and -cache
// with -dot.
func (o *options) validate() error {
	if !(o.cacheShare >= 0 && o.cacheShare <= 1) { // NaN too
		return fmt.Errorf("%s: want a fraction of the node in [0, 1] (0 = default 0.5)", o.set["cache-share"])
	}
	if o.cacheMiB < 0 || o.cacheMiB > maxCacheMiB {
		return fmt.Errorf("%s: want 0 (-cache-share of the node) to %d, the most MiB an int64 byte count holds",
			o.set["cache-mib"], maxCacheMiB)
	}
	for _, name := range []string{"cache-mib", "cache-share", "prefetch"} {
		if arg, ok := o.set[name]; ok && !o.cache {
			return fmt.Errorf("%s: needs -cache, whose report it shapes", arg)
		}
	}
	if o.cache && o.dot {
		return fmt.Errorf("%s: -dot prints no cache report", o.set["cache"])
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fatal(err)
	}

	e := northup.NewEngine()
	var tree *northup.Tree
	switch {
	case o.spec != "":
		data, rerr := os.ReadFile(o.spec)
		if rerr != nil {
			fatal(rerr)
		}
		spec, perr := northup.ParseSpec(data)
		if perr != nil {
			fatal(perr)
		}
		tree, err = northup.BuildSpec(e, spec)
	case o.preset == "apu":
		tree = northup.APU(e, northup.APUConfig{Storage: northup.SSD,
			StorageMiB: 24576, DRAMMiB: 2048, WithCPU: true})
	case o.preset == "apu-hdd":
		tree = northup.APU(e, northup.APUConfig{Storage: northup.HDD,
			StorageMiB: 24576, DRAMMiB: 2048, WithCPU: true})
	case o.preset == "discrete":
		tree = northup.Discrete(e, northup.DiscreteConfig{Storage: northup.SSD,
			StorageMiB: 24576, DRAMMiB: 2048, GPUMemMiB: 16384})
	case o.preset == "inmemory":
		tree = northup.InMemory(e, 16384)
	default:
		fmt.Fprintln(os.Stderr, "northup-topo: pass -preset or -spec (see -h)")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if o.dot {
		fmt.Print(tree.DOT())
		return
	}
	fmt.Print(tree.String())
	fmt.Printf("levels: %d, nodes: %d, leaves: %d\n",
		tree.Levels(), tree.NumNodes(), len(tree.Leaves()))
	if o.cache {
		opts := northup.DefaultOptions()
		opts.Cache = northup.CacheOptions{
			Enabled:       true,
			CapacityBytes: o.cacheMiB << 20,
			CapacityShare: o.cacheShare,
			Prefetch:      o.prefetch,
		}
		rt := northup.NewRuntime(e, tree, opts)
		fmt.Print(rt.CacheReport())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "northup-topo:", err)
	os.Exit(1)
}
