// Job-store durability: every state transition is appended to an
// fsync-per-record JSONL journal (resilience.Journal) and replayed on
// the next start against the same directory.
//
// Journal state machine, one jobEntry per record:
//
//	accepted{id, key, req} ──> running{attempt} ──> checkpointed{n, states}*
//	       │                        │
//	       └────────────────────────┴──> done{result, expired}
//	                                 └─> failed{error} | quarantined{error}
//
// Recovery folds the records per job: a job with a terminal record is
// rebuilt in its terminal state (its report keeps serving); a job
// without one is re-validated from its stored request, seeded with the
// union of its checkpointed coverage states, and re-enqueued — grading
// resumes from the last checkpoint, byte-identical to an uninterrupted
// run.
//
// Compaction (atomic rotate) rewrites the journal down to the live
// view: one accepted record per job plus its terminal record or latest
// checkpoint. It is amortised. At runtime a terminal transition
// compacts only once the journal exceeds both compactBytes and
// compactGrowth times the size the last compaction produced, so each
// live byte is rewritten a constant number of times on average and the
// file stays under about compactGrowth times the live view. At startup
// the journal is rotated only when replay found records outside the
// live view; a restart over an already-compacted journal rewrites
// nothing.
package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	mbist "repro"
	"repro/internal/resilience"
)

// jobsJournalOwner is the journal fingerprint. It binds a journal file
// to the job-store record format; bump it when jobEntry changes
// incompatibly. A journal written by anything else is refused with
// resilience.ErrMismatch.
const jobsJournalOwner = "mbistd-jobs/1"

// jobsJournalName is the journal's file name inside Options.JournalDir.
const jobsJournalName = "jobs.journal"

// compactBytes is the journal size below which a terminal transition
// never compacts (checkpoint records dominate growth; the compacted
// view keeps only the latest per job).
const compactBytes = 1 << 20

// compactGrowth is how many times the last compaction's output the
// journal must reach before a terminal transition compacts again. The
// live view only grows (terminal jobs are retained), so rewriting it
// at geometrically spaced sizes costs O(1) amortised rewrites per
// journaled byte; compacting on every transition past compactBytes
// would rewrite and fsync the whole file once per job, under s.mu.
const compactGrowth = 2

// Journal record ops, in lifecycle order.
const (
	opAccepted     = "accepted"
	opRunning      = "running"
	opCheckpointed = "checkpointed"
	opDone         = "done"
	opFailed       = "failed"
	opQuarantined  = "quarantined"
)

// jobEntry is one journaled state transition. Op selects which fields
// are meaningful.
type jobEntry struct {
	Op  string `json:"op"`
	ID  string `json:"id"`
	Key string `json:"key,omitempty"` // accepted: idempotency key
	// Req is the validated submission, stored so recovery can rebuild
	// the run closure without the client.
	Req     *Request `json:"req,omitempty"`
	Attempt int      `json:"attempt,omitempty"` // running/failed/quarantined
	// N is the job's cumulative checkpoint count; States carries the
	// checkpointed coverage state(s), keyed by algorithm name (or
	// "alg#shard/of" for sharded grades).
	N       int                             `json:"n,omitempty"`
	States  map[string]*mbist.CoverageState `json:"states,omitempty"`
	Result  string                          `json:"result,omitempty"`  // done
	Expired bool                            `json:"expired,omitempty"` // done: deadline Partial
	Error   string                          `json:"error,omitempty"`   // failed/quarantined
}

// journalAppend appends one transition (no-op without a journal) and
// fires the chaos self-kill when configured. Append failures are
// logged, not fatal: the in-memory store stays authoritative for this
// process; only recovery fidelity degrades.
func (s *Server) journalAppend(e jobEntry) {
	if s.journal == nil {
		return
	}
	s.journalMu.Lock()
	err := s.journal.Append(e)
	size := s.journal.Size()
	s.journalMu.Unlock()
	if err != nil {
		log.Printf("serve: journal append (%s %s): %v", e.Op, e.ID, err)
		return
	}
	s.mJournalBytes.Set(size)
	if e.Op == opCheckpointed && s.crashAfter > 0 && s.crashCount.Add(1) == s.crashAfter {
		// Chaos harness: die like a power cut — no deferred cleanup, no
		// flushes beyond the fsync that just happened.
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
}

// closeJournal releases the journal's append handle on shutdown.
func (s *Server) closeJournal() {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}

// recovered accumulates one job's journal records during replay.
type recovered struct {
	accepted    *jobEntry
	terminal    *jobEntry
	attempts    int
	checkpoints int
	resume      map[string]*mbist.CoverageState
}

// openJournal opens and replays the job journal, rebuilding the job
// store. It returns the non-terminal jobs to re-enqueue, in submission
// order. Any error — a corrupt or foreign journal file, an undecodable
// record — refuses startup; cmd/mbistd maps ErrCorrupt/ErrMismatch to
// exit code 4.
func (s *Server) openJournal(dir string) ([]*Job, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	path := filepath.Join(dir, jobsJournalName)
	j, payloads, err := resilience.OpenJournal(path, jobsJournalOwner)
	if err != nil {
		return nil, err
	}
	s.journal = j
	s.mJournalBytes.Set(j.Size())

	recs := make(map[string]*recovered)
	var order []string
	for i, raw := range payloads {
		var e jobEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("%s: %w: record %d payload: %v", path, resilience.ErrCorrupt, i+1, err)
		}
		if e.Op == opAccepted {
			if e.Req == nil {
				return nil, fmt.Errorf("%s: %w: record %d: accepted %s without a request", path, resilience.ErrCorrupt, i+1, e.ID)
			}
			recs[e.ID] = &recovered{accepted: &e}
			order = append(order, e.ID)
			continue
		}
		r := recs[e.ID]
		if r == nil {
			return nil, fmt.Errorf("%s: %w: record %d: %s for unknown job %s", path, resilience.ErrCorrupt, i+1, e.Op, e.ID)
		}
		switch e.Op {
		case opRunning:
			r.attempts = e.Attempt
		case opCheckpointed:
			if r.resume == nil {
				r.resume = make(map[string]*mbist.CoverageState)
			}
			for k, st := range e.States {
				r.resume[k] = st
			}
			r.checkpoints = e.N
		case opDone, opFailed, opQuarantined:
			r.terminal = &e
		default:
			return nil, fmt.Errorf("%s: %w: record %d: unknown op %q", path, resilience.ErrCorrupt, i+1, e.Op)
		}
	}

	var pending []*Job
	for _, id := range order {
		r := recs[id]
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > s.nextID {
			s.nextID = n
		}
		job, perr := s.prepJob(*r.accepted.Req)
		if perr != nil {
			// The request validated when first accepted; failing now
			// means the library surface shifted underneath the journal.
			// Keep the job visible, failed with attribution, instead of
			// silently dropping it.
			job = &Job{Kind: r.accepted.Req.Kind, req: *r.accepted.Req}
			job.fail(fmt.Errorf("recovery: request no longer valid: %w", perr))
		}
		job.ID = id
		job.Key = r.accepted.Key
		job.checkpoints = r.checkpoints
		job.resume = r.resume
		switch {
		case perr != nil:
		case r.terminal != nil:
			job.attempt = r.attempts
			switch r.terminal.Op {
			case opDone:
				job.expired = r.terminal.Expired
				job.finish(r.terminal.Result)
			case opFailed:
				job.fail(fmt.Errorf("%s", r.terminal.Error))
			case opQuarantined:
				job.quarantine(fmt.Errorf("%s", r.terminal.Error))
			}
		default:
			// Interrupted mid-flight: re-enqueue from the last
			// checkpoint. The attempt counter restarts — a crash is not
			// a job failure and must not consume the retry budget.
			pending = append(pending, job)
		}
		s.jobs[id] = job
		if job.Key != "" {
			s.keys[job.Key] = id
		}
	}
	if len(payloads) > 0 {
		log.Printf("serve: journal %s: replayed %d record(s), %d job(s), %d to resume", path, len(payloads), len(order), len(pending))
	}
	// Startup compaction: rotate only when replay found records outside
	// the live view (running records, superseded checkpoints, repeated
	// terminal records), which shows as a record count that differs
	// from the live view's. A restart over a compacted journal leaves
	// the file untouched; either way it replays to the same store.
	s.mu.Lock()
	s.journalMu.Lock()
	s.compactedSize = j.Size()
	if view := s.liveView(); len(view) != len(payloads) {
		s.rotate(view)
	}
	s.journalMu.Unlock()
	s.mu.Unlock()
	return pending, nil
}

// journalTerminal journals a terminal transition, then compacts when
// compactDue. The job must already hold its terminal state in memory
// (see compact).
func (s *Server) journalTerminal(e jobEntry) {
	s.journalAppend(e)
	s.journalMu.Lock()
	due := s.compactDue()
	s.journalMu.Unlock()
	if due {
		s.compact()
	}
}

// compactDue reports whether the journal has outgrown both compactBytes
// and compactGrowth times the last compaction's output. The caller
// holds s.journalMu.
func (s *Server) compactDue() bool {
	return s.journal != nil && s.journal.Size() > max(compactBytes, compactGrowth*s.compactedSize)
}

// compact rewrites the journal to the live view if it is still due
// once both locks are held (another worker may have just compacted).
//
// Lock order: s.mu -> s.journalMu -> job.mu. No path takes s.mu or
// s.journalMu while holding a job.mu. s.journalMu is held from before
// the snapshot through the rotate: every transition updates the job in
// memory before journaling it, so an append that wins the lock is
// already in the snapshot, and one that loses it lands after the
// rotate. Snapshotting before taking s.journalMu would let a
// concurrent done or checkpointed record be written and then erased by
// the rotate.
func (s *Server) compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if s.compactDue() {
		s.rotate(s.liveView())
	}
}

// rotate replaces the journal with view and records the size it
// produced. A failed rotate leaves the journal as it was but still
// moves compactedSize to its current size, so the rewrite is retried
// after further growth rather than on every transition. The caller
// holds s.journalMu.
func (s *Server) rotate(view []any) {
	if s.beforeRotate != nil {
		s.beforeRotate()
	}
	if err := s.journal.Rotate(view); err != nil {
		log.Printf("serve: journal compaction: %v", err)
	}
	s.compactedSize = s.journal.Size()
	s.mJournalBytes.Set(s.compactedSize)
}

// liveView returns the journal payloads that rebuild the job store —
// per job, in submission order: its accepted record, then its terminal
// record or its latest checkpoint. The caller holds s.mu.
func (s *Server) liveView() []any {
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return jobNum(ids[a]) < jobNum(ids[b]) })
	var payloads []any
	for _, id := range ids {
		job := s.jobs[id]
		job.mu.Lock()
		payloads = append(payloads, jobEntry{Op: opAccepted, ID: id, Key: job.Key, Req: &job.req})
		switch job.state {
		case StateDone:
			payloads = append(payloads, jobEntry{Op: opDone, ID: id, Result: job.result, Expired: job.expired})
		case StateFailed:
			payloads = append(payloads, jobEntry{Op: opFailed, ID: id, Attempt: job.attempt, Error: job.errMsg})
		case StateQuarantined:
			payloads = append(payloads, jobEntry{Op: opQuarantined, ID: id, Attempt: job.attempt, Error: job.errMsg})
		default:
			if len(job.resume) > 0 {
				states := make(map[string]*mbist.CoverageState, len(job.resume))
				for k, st := range job.resume {
					states[k] = st
				}
				payloads = append(payloads, jobEntry{Op: opCheckpointed, ID: id, N: job.checkpoints, States: states})
			}
		}
		job.mu.Unlock()
	}
	return payloads
}

// jobNum extracts the numeric suffix of "job-N" for ordering.
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}
