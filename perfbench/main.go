// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload — cold-cache library sweeps on microcode and on
// the programmable FSM, or a closed-loop mix of mbistd grade jobs —
// checks every report against recorded digests, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// the last line of its output. See README.md.
//
//	bash perfbench/run.sh --workload arch-sweep --seed 1 --seconds 55 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after a run whose reports failed
// verification; the result has been printed.
var errIncorrect = errors.New("reports failed verification")

func mainErr() error {
	var (
		root    = flag.String("root", ".", "checkout root; results and traces go to <root>/.bench_build")
		name    = flag.String("workload", "", "workload: arch-sweep or service-mix")
		seed    = flag.Int64("seed", 1, "workload seed: algorithm order and service job mix")
		secs    = flag.Int("seconds", 55, "how long to measure")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		child   = flag.String("child", "", "internal: run one child process from its JSON config")
		record  = flag.String("record", "", "regrade every digested report and write the digest table to this file")
		compare = flag.String("compare", "", "comma-separated base result files to compare")
		against = flag.String("against", "", "comma-separated head result files to compare with --compare")
	)
	flag.Parse()
	switch {
	case *child != "":
		return childMain(*child)
	case *record != "":
		return recordDigests(context.Background(), *record)
	case *compare != "":
		return compareResults(os.Stdout, splitList(*compare), splitList(*against))
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *secs < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	r := &runner{
		ctx: context.Background(), root: *root, w: w, seed: *seed,
		seconds: time.Duration(*secs) * time.Second, shape: currentShape(),
		chk: checker{digests}, start: time.Now(),
	}
	r.res = &result{Workload: w.name, Seed: *seed, Trace: *trace == 1, Shape: r.shape}
	switch {
	case *trace == 1:
		err = r.traced()
	case w.kind == kindSweep:
		err = r.sweepE2E()
	default:
		err = r.serviceE2E()
	}
	if err != nil {
		return err
	}
	r.res.Correct = r.res.Failed == 0
	if err := r.res.write(os.Stdout, filepath.Join(*root, ".bench_build", "results")); err != nil {
		return err
	}
	if !r.res.Correct {
		return errIncorrect
	}
	return nil
}
