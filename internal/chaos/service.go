package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Service is one mbistd process spawned under chaos control: the
// harness behind the service-level robustness tests that kill the
// daemon mid-job (SIGKILL via -chaos-crash-after-checkpoints, so the
// cut lands at a deterministic journal record) and restart it against
// the same journal directory to assert resume and byte-identical
// reports.
//
// The harness talks to the process only over its public HTTP API and
// observes only its exit status — it asserts what an operator would
// see, not internal state.
type Service struct {
	// URL is the base URL of the process's HTTP API.
	URL string

	cmd    *exec.Cmd
	stderr lockedBuffer

	waitOnce sync.Once
	waitDone chan struct{}
	waitErr  error
}

// ServiceOptions configures one spawned mbistd process.
type ServiceOptions struct {
	// Binary is the path of the mbistd binary to spawn. Required.
	Binary string
	// Addr is the listen address. Required (pick one with FreePort);
	// the harness does not parse the child's logs to discover it.
	Addr string
	// JournalDir is passed as -journal-dir when non-empty.
	JournalDir string
	// Args are extra flags appended verbatim, e.g.
	// "-chaos-crash-after-checkpoints", "3".
	Args []string
}

// FreePort reserves an ephemeral localhost port and returns it. The
// port is released before returning, so a raced claim is possible but
// vanishingly unlikely within one test process.
func FreePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port, nil
}

// StartService spawns mbistd and returns once the process is running
// (not necessarily serving yet — follow with WaitReady). The caller
// owns the process: use Stop for a graceful drain, Kill to tear it
// down unconditionally.
func StartService(opts ServiceOptions) (*Service, error) {
	if opts.Binary == "" || opts.Addr == "" {
		return nil, fmt.Errorf("chaos: service needs Binary and Addr")
	}
	args := []string{"-addr", opts.Addr}
	if opts.JournalDir != "" {
		args = append(args, "-journal-dir", opts.JournalDir)
	}
	args = append(args, opts.Args...)
	s := &Service{
		URL:      "http://" + strings.Replace(opts.Addr, "0.0.0.0", "127.0.0.1", 1),
		cmd:      exec.Command(opts.Binary, args...),
		waitDone: make(chan struct{}),
	}
	// A non-*os.File Stderr makes os/exec run the copy itself, and
	// cmd.Wait returns only after that copy has drained the pipe, so
	// Stderr() after Wait sees every byte the process wrote.
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: spawn %s: %w", opts.Binary, err)
	}
	return s, nil
}

// lockedBuffer is a bytes.Buffer safe for the os/exec copier writing
// while Stderr() reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Stderr returns everything the process has written to stderr so far.
func (s *Service) Stderr() string { return s.stderr.String() }

// Wait blocks until the process exits and returns its exit code. A
// process killed by a signal (the chaos SIGKILL) reports -1.
func (s *Service) Wait(ctx context.Context) (int, error) {
	s.waitOnce.Do(func() {
		go func() {
			s.waitErr = s.cmd.Wait()
			close(s.waitDone)
		}()
	})
	select {
	case <-s.waitDone:
	case <-ctx.Done():
		return 0, fmt.Errorf("chaos: waiting for %s to exit: %w", s.cmd.Path, ctx.Err())
	}
	if s.waitErr == nil {
		return 0, nil
	}
	var exit *exec.ExitError
	if errors.As(s.waitErr, &exit) {
		return exit.ExitCode(), nil
	}
	return 0, s.waitErr
}

// Stop sends SIGTERM (graceful drain) and waits for exit.
func (s *Service) Stop(ctx context.Context) (int, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	return s.Wait(ctx)
}

// Kill tears the process down unconditionally. Safe to call on an
// already-dead process (teardown path).
func (s *Service) Kill() {
	if s.cmd.Process != nil {
		s.cmd.Process.Kill()
	}
}

// WaitReady polls the healthz endpoint until the process serves it.
func (s *Service) WaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("chaos: %s never became ready: %w (stderr: %s)", s.URL, ctx.Err(), s.Stderr())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Submit posts a job request body and returns the HTTP status and the
// job ID the service assigned (empty unless 202 or 200).
func (s *Service) Submit(ctx context.Context, body string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return resp.StatusCode, "", err
		}
	}
	return resp.StatusCode, st.ID, nil
}

// JobState fetches a job's current state string ("queued", "running",
// "done", "failed", "quarantined").
func (s *Service) JobState(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("chaos: job %s: status %d", id, resp.StatusCode)
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.State, nil
}

// WaitJob polls a job until it reaches a terminal state and returns
// that state.
func (s *Service) WaitJob(ctx context.Context, id string) (string, error) {
	for {
		state, err := s.JobState(ctx, id)
		if err != nil {
			return "", err
		}
		switch state {
		case "done", "failed", "quarantined":
			return state, nil
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("chaos: job %s never finished (last state %s): %w", id, state, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Report fetches a done job's report text.
func (s *Service) Report(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/v1/jobs/"+id+"/report", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("chaos: report %s: status %d: %s", id, resp.StatusCode, raw)
	}
	return string(raw), nil
}
