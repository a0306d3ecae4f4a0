package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// restarts is how many times a service round restarts the server over
// the journal the round left behind; set-up time is their median.
const restarts = 8

// service is one in-process mbistd: the job store journaled in a fresh
// directory and its HTTP API on a loopback listener.
type service struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
}

// startService creates a journal directory and starts a server on it.
func startService(tr *Tracer, parent int, workers int) (*service, time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-journal-*")
	if err != nil {
		return nil, 0, err
	}
	s, d, err := openService(tr, parent, dir, workers)
	if err != nil {
		os.RemoveAll(dir)
	}
	return s, d, err
}

// openService opens a server on the journal directory dir and starts
// its listener. On a journal that holds jobs this is an mbistd
// restart: journal open, replay and startup compaction.
func openService(tr *Tracer, parent int, dir string, workers int) (*service, time.Duration, error) {
	t0 := time.Now()
	sp := tr.Start(parent, "serve", "serve.New", "")
	srv, err := serve.New(serve.Options{Workers: workers, JournalDir: dir})
	tr.End(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Start(parent, "serve", "httptest.NewServer", "")
	ts := httptest.NewServer(srv.Handler())
	tr.End(sp)
	return &service{dir: dir, srv: srv, ts: ts}, time.Since(t0), nil
}

// stop shuts the listener and the server down; the journal stays.
func (s *service) stop() {
	s.ts.Close()
	s.srv.Close()
}

// serviceChild runs one closed-loop round of the seeded mix against a
// fresh server: each client sends its next operation only after the
// previous one's report arrived. Then it restarts the server over the
// journal the round left behind, to time set-up with a store to
// replay and compact.
func serviceChild(ctx context.Context, cfg childConfig, chk checker, tr *Tracer) (*childResult, error) {
	shape := cfg.Shape
	root := tr.Start(0, "bench", "bench.service_round", "")
	defer tr.End(root)
	s, d, err := startService(tr, root, shape.ServiceWorkers)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	res := &childResult{FreshSetupNS: int64(d)}
	if tr != nil {
		// A fresh registry: the layer counters then cover the round's
		// traffic only.
		obs.Enable()
	}

	mix := serviceMix(cfg.Seed, cfg.Round, shape.Clients, cfg.mix())
	c := &client{
		base:  s.ts.URL,
		http:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: shape.Clients}},
		poll:  time.Duration(shape.PollIntervalUS) * time.Microsecond,
		chk:   chk,
		tr:    tr,
		trace: root,
	}
	defer c.http.CloseIdleConnections()
	results := make([][]opResult, len(mix))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, ops := range mix {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = c.run(ctx, ops)
		}()
	}
	wg.Wait()
	res.WallNS = int64(time.Since(t0))
	for _, r := range results {
		res.Ops = append(res.Ops, r...)
	}
	if tr != nil {
		res.Obs = obs.Active().Snapshot()
		if res.End, err = c.endProbes(s); err != nil {
			s.stop()
			return nil, err
		}
	}
	s.stop()
	for range restarts {
		r, d, err := openService(tr, root, s.dir, shape.ServiceWorkers)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		r.stop()
		res.SetupNS = append(res.SetupNS, int64(d))
	}
	return res, nil
}

// client is the closed-loop load generator. Completion is detected by
// polling the report endpoint at a fixed interval; /watch would tick
// at its own 50 ms and set the measured latency itself.
type client struct {
	base  string
	http  *http.Client
	poll  time.Duration
	chk   checker
	tr    *Tracer
	trace int
}

// pause sleeps for d with nanosleep(2). time.Sleep cannot serve a
// sub-millisecond poll interval: when the runtime's threads are idle it
// waits in the network poller, whose timeout is whole milliseconds, so
// a 250 µs sleep takes about 1.06 ms, and less when another thread is
// busy. That would set the measured latency itself, and make it depend
// on how busy the host is.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// jobTimeout fails a job whose report has not arrived in time, so a
// stuck job counts as a failed operation instead of hanging the round.
const jobTimeout = 60 * time.Second

// served is what a client remembers of a finished job, for resubmits.
type served struct {
	id     string
	report string
}

// run executes one client's operations in order.
func (c *client) run(ctx context.Context, ops []op) []opResult {
	out := make([]opResult, len(ops))
	finished := make([]served, len(ops))
	for i, o := range ops {
		r := opResult{Kind: o.Kind, Key: o.Key}
		var err error
		if o.Kind == opResubmit {
			err = c.resubmit(ctx, o, finished[o.Target], &r)
		} else {
			finished[i], err = c.job(ctx, o, &r)
		}
		if err != nil {
			r.Err = err.Error()
		}
		out[i] = r
	}
	return out
}

// job submits o, polls until its report is ready and verifies it. The
// latency runs from the moment the POST is sent.
func (c *client) job(ctx context.Context, o op, r *opResult) (served, error) {
	sp := c.tr.Start(c.trace, "bench", "bench.job", o.Key)
	defer c.tr.End(sp)
	t0 := time.Now()
	code, st, err := c.submit(ctx, sp, o)
	r.SubmitNS = int64(time.Since(t0))
	if err != nil {
		return served{}, err
	}
	if code != http.StatusAccepted {
		return served{}, fmt.Errorf("submit: status %d, want 202", code)
	}
	for {
		if time.Since(t0) > jobTimeout {
			return served{}, fmt.Errorf("no report for %s after %v", st.ID, jobTimeout)
		}
		pause(c.poll)
		r.Polls++
		code, body, err := c.get(ctx, sp, "/v1/jobs/"+st.ID+"/report", st.ID)
		if err != nil {
			return served{}, err
		}
		switch code {
		case http.StatusConflict:
			continue
		case http.StatusOK:
			r.LatNS = int64(time.Since(t0))
			if err := errors.Join(c.chk.verify(body, o.Arch, o.Algs, o.Geom)...); err != nil {
				return served{}, err
			}
			return served{id: st.ID, report: body}, nil
		default:
			return served{}, fmt.Errorf("report %s: status %d: %s", st.ID, code, firstLine(body))
		}
	}
}

// resubmit sends o again under the key of a job this client already
// finished: the server must return that job, and its report must be the
// one first served.
func (c *client) resubmit(ctx context.Context, o op, orig served, r *opResult) error {
	sp := c.tr.Start(c.trace, "bench", "bench.resubmit", o.Key)
	defer c.tr.End(sp)
	if orig.id == "" {
		return fmt.Errorf("resubmit of %s: original job failed", o.Key)
	}
	t0 := time.Now()
	code, st, err := c.submit(ctx, sp, o)
	r.SubmitNS = int64(time.Since(t0))
	if err != nil {
		return err
	}
	if code != http.StatusOK || st.ID != orig.id {
		return fmt.Errorf("resubmit of %s: status %d job %q, want 200 job %q", o.Key, code, st.ID, orig.id)
	}
	code, body, err := c.get(ctx, sp, "/v1/jobs/"+st.ID+"/report", st.ID)
	r.LatNS = int64(time.Since(t0))
	if err != nil {
		return err
	}
	if code != http.StatusOK || body != orig.report {
		return fmt.Errorf("resubmit of %s: report status %d differs from the original", o.Key, code)
	}
	return nil
}

// submit POSTs o's grade request.
func (c *client) submit(ctx context.Context, parent int, o op) (int, serve.Status, error) {
	body, err := json.Marshal(serve.Request{
		Kind: "grade", Key: o.Key, Grade: &serve.GradeRequest{Spec: o.spec()},
	})
	if err != nil {
		return 0, serve.Status{}, err
	}
	sp := c.tr.Start(parent, "serve", "POST /v1/jobs", o.Key)
	defer c.tr.End(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, serve.Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, serve.Status{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, serve.Status{}, err
	}
	var st serve.Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			return 0, serve.Status{}, fmt.Errorf("submit response: %w", err)
		}
	}
	return resp.StatusCode, st, nil
}

// get fetches path and returns the status code and body.
func (c *client) get(ctx context.Context, parent int, path, key string) (int, string, error) {
	sp := c.tr.Start(parent, "serve", "GET "+path, key)
	defer c.tr.End(sp)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw), err
}

// End-of-round probe sizes.
const (
	rttProbes    = 200
	rotateProbes = 3
)

// endProbes measures the live server after the round: the HTTP floor
// (GET /v1/healthz), the store it retains, and a Rotate of the journal's
// live view as it stands at the end of the round.
func (c *client) endProbes(s *service) (*serviceEnd, error) {
	ctx := context.Background()
	end := &serviceEnd{}
	var health struct {
		Jobs    int64 `json:"jobs"`
		Journal struct {
			Bytes int64 `json:"bytes"`
		} `json:"journal"`
	}
	for i := range rttProbes {
		t0 := time.Now()
		code, body, err := c.get(ctx, c.trace, "/v1/healthz", "")
		end.HTTPRTTNS = append(end.HTTPRTTNS, int64(time.Since(t0)))
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("healthz: status %d: %v", code, err)
		}
		if i == 0 {
			if err := json.Unmarshal([]byte(body), &health); err != nil {
				return nil, fmt.Errorf("healthz: %w", err)
			}
		}
	}
	end.JobsRetained = health.Jobs
	end.JournalBytes = health.Journal.Bytes

	// Rotate a copy, so the probe cannot disturb the live journal.
	live, err := os.ReadFile(filepath.Join(s.dir, "jobs.journal"))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-rotate-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "jobs.journal")
	if err := os.WriteFile(path, live, 0o644); err != nil {
		return nil, err
	}
	sp := c.tr.Start(c.trace, "resilience", "resilience.OpenJournal", "")
	j, payloads, err := resilience.OpenJournal(path, "mbistd-jobs/1")
	c.tr.End(sp)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	view := make([]any, len(payloads))
	for i, p := range payloads {
		view[i] = p
	}
	for range rotateProbes {
		t0 := time.Now()
		sp := c.tr.Start(c.trace, "resilience", "resilience.Journal.Rotate", "")
		err := j.Rotate(view)
		c.tr.End(sp)
		if err != nil {
			return nil, err
		}
		end.RotateNS = append(end.RotateNS, int64(time.Since(t0)))
	}
	return end, nil
}
