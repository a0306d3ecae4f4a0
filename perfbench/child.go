package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Child kinds. Every sweep and every service round runs in a fresh
// process, so the program's artifact caches start cold as they do for
// each mbistcov run or mbistd start, and each process's peak RSS is its
// own.
const (
	childSetup   = "setup"   // sweep set-up only
	childSweep   = "sweep"   // one sweep iteration: every leg's library sweep
	childService = "service" // one closed-loop service round
)

// childConfig is what the parent hands a child process (as JSON in the
// --child flag).
type childConfig struct {
	Kind    string     `json:"kind"`
	Legs    []sweepLeg `json:"legs,omitempty"`
	Algs    []string   `json:"algs,omitempty"`
	Workers int        `json:"workers,omitempty"`
	Seed    int64      `json:"seed,omitempty"`
	Round   int        `json:"round,omitempty"`
	Mix     [3]int     `json:"mix,omitempty"` // small, full, resubmit per client
	Trace   bool       `json:"trace,omitempty"`
	Shape   hostShape  `json:"shape"`
}

func (c childConfig) mix() mixCounts { return mixCounts{c.Mix[0], c.Mix[1], c.Mix[2]} }

// opResult is one verified operation: an algorithm graded in a sweep,
// or a job (or resubmit) in a service round.
type opResult struct {
	Kind     string `json:"kind"`
	Key      string `json:"key"` // leg/algorithm, or idempotency key
	LatNS    int64  `json:"lat_ns"`
	SubmitNS int64  `json:"submit_ns,omitempty"`
	Polls    int    `json:"polls,omitempty"`
	Err      string `json:"err,omitempty"`
}

// serviceEnd holds the measurements a traced service round takes from
// the server after its last job: layer probes that need the live
// server and its journal.
type serviceEnd struct {
	HTTPRTTNS    []int64 `json:"http_rtt_ns"`
	RotateNS     []int64 `json:"rotate_ns"`
	JournalBytes int64   `json:"journal_bytes"`
	JobsRetained int64   `json:"jobs_retained"`
}

// childResult is what a child prints on stdout.
type childResult struct {
	SetupNS []int64 `json:"setup_ns"`
	// FreshSetupNS is a service round's start on an empty journal.
	FreshSetupNS int64 `json:"fresh_setup_ns,omitempty"`
	// WallNS is a sweep iteration's grading and rendering time over all
	// its legs (LegNS holds each leg's), or a service round's time.
	WallNS int64        `json:"wall_ns"`
	LegNS  []int64      `json:"leg_ns,omitempty"`
	Ops    []opResult   `json:"ops,omitempty"`
	Obs    []obs.Metric `json:"obs,omitempty"`
	Spans  []Span       `json:"spans,omitempty"`
	End    *serviceEnd  `json:"end,omitempty"`
	// PeakRSSKB is filled in by the parent from the child's rusage.
	PeakRSSKB int64 `json:"-"`
}

// childTimeout bounds one child process; a run must end well inside
// three minutes.
const childTimeout = 150 * time.Second

// runChild runs cfg in a fresh process of this binary and returns its
// result, with a span around the whole process when traced.
func runChild(ctx context.Context, tr *Tracer, parent int, root string, cfg childConfig) (*childResult, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--root", root, "--child", string(raw))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	sp := tr.Start(parent, "bench", "bench.child."+cfg.Kind, "")
	err = cmd.Run()
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", cfg.Kind, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s child output: %w", cfg.Kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSKB = ru.Maxrss
	}
	tr.Adopt(sp, res.Spans)
	return &res, nil
}

// childMain runs one child process from its JSON config and prints the
// result.
func childMain(raw string) error {
	var cfg childConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		return fmt.Errorf("child config: %w", err)
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	chk := checker{digests}
	var tr *Tracer
	if cfg.Trace {
		tr = &Tracer{}
		obs.Enable()
	}
	ctx := context.Background()
	var res *childResult
	switch cfg.Kind {
	case childSetup, childSweep:
		res, err = sweepChild(ctx, cfg, chk, tr)
	case childService:
		res, err = serviceChild(ctx, cfg, chk, tr)
	default:
		err = fmt.Errorf("unknown child kind %q", cfg.Kind)
	}
	if err != nil {
		return err
	}
	if res.Obs == nil {
		res.Obs = obs.Active().Snapshot()
	}
	res.Spans = tr.Spans()
	return json.NewEncoder(os.Stdout).Encode(res)
}
