package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/sweep"
)

// longAssemble is a small job with a large journal footprint: it
// assembles a custom march test of 2n+2 elements, which takes
// milliseconds but journals a request and a listing of tens of KB, so
// a few hundred jobs carry the journal past compactBytes several
// times.
func longAssemble(n int) Request {
	spec := "⇕(w0);" + strings.Repeat("⇑(r0,w1);⇓(r1,w0);", n) + "⇕(r0)"
	return Request{Kind: "assemble", Assemble: &AssembleRequest{Spec: spec}}
}

// runToDone submits req and waits until the worker has finished the
// job's terminal bookkeeping: serve.jobs_done is counted after the
// terminal record is journaled and any compaction it triggered.
func runToDone(t *testing.T, s *Server, done *obs.Counter, req Request) *Job {
	t.Helper()
	want := done.Value() + 1
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job "+job.ID, func() bool { return done.Value() == want || failed(job) })
	if st := job.status(); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", job.ID, st.State, st.Error)
	}
	return job
}

// failed reports whether a job ended in a terminal state other than
// done (which serve.jobs_done does not count).
func failed(j *Job) bool {
	st := j.status().State
	return st == StateFailed || st == StateQuarantined
}

func jobResult(j *Job) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// TestJournalCompactAmortised pins the runtime compaction rule: a
// terminal transition compacts only once the journal outgrows both
// compactBytes and compactGrowth times the last compaction's output.
// The journal stays within that bound after every transition, the
// number of rotations grows with the logarithm of the live view rather
// than with the number of jobs, and a restart still serves every
// report byte-identically.
func TestJournalCompactAmortised(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	s, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rotations := reg.Counter("resilience.journal_rotations")
	done := reg.Counter("serve.jobs_done")
	algs := []string{"mats+", "marchx", "marchy", "marchc", "marchc+", "marchc++", "marcha", "marchb"}

	want := make(map[string]string)
	overThreshold := 0 // terminal transitions that found the journal past compactBytes
	for i := 0; i < 200; i++ {
		req := longAssemble(150 + i%50)
		if i%4 == 0 {
			req = Request{Kind: "grade", Grade: &GradeRequest{Spec: sweep.Spec{Algs: algs[i/4%len(algs)], Size: 16}}}
		}
		job := runToDone(t, s, done, req)
		want[job.ID] = jobResult(job)

		s.journalMu.Lock()
		size, last := s.journal.Size(), s.compactedSize
		s.journalMu.Unlock()
		if bound := max(compactBytes, compactGrowth*last); size > bound {
			t.Fatalf("after %s: journal %d bytes, over max(compactBytes, %d x last compaction %d) = %d",
				job.ID, size, compactGrowth, last, bound)
		}
		if size > compactBytes {
			overThreshold++
		}
	}
	s.Close()
	rotated := rotations.Value()

	s2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for id, text := range want {
		s2.mu.Lock()
		j := s2.jobs[id]
		s2.mu.Unlock()
		if j == nil || j.status().State != StateDone {
			t.Fatalf("job %s not recovered as done", id)
		}
		if got := jobResult(j); got != text {
			t.Fatalf("job %s: recovered report diverges:\n%s\nvs\n%s", id, got, text)
		}
	}

	// Each rotation after the first needs the journal to double past
	// the previous compaction, and these jobs journal little beyond
	// their live records, so the live view roughly doubles between
	// rotations: about log2(live/compactBytes)+1 of them.
	s2.journalMu.Lock()
	live := s2.journal.Size()
	s2.journalMu.Unlock()
	bound := int64(2 + bits.Len64(uint64(live/compactBytes)))
	t.Logf("%d jobs, %d transitions past compactBytes, %d rotations (bound %d), live view %d bytes",
		len(want), overThreshold, rotated, bound, live)
	if rotated < 2 {
		t.Fatalf("%d rotations: the workload did not carry the journal past the threshold several times", rotated)
	}
	if rotated > bound {
		t.Fatalf("%d rotations for a %d-byte live view, want at most %d (compaction is not amortised)", rotated, live, bound)
	}
}

// TestJournalStartupCompactOnlyWithHistory pins the startup rule: a
// fresh journal and a journal that already is the live view are not
// rewritten; only a journal with records outside the live view is.
func TestJournalStartupCompactOnlyWithHistory(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	path := filepath.Join(dir, jobsJournalName)
	rotations := reg.Counter("resilience.journal_rotations")

	s1, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := rotations.Value(); got != 0 {
		t.Errorf("fresh journal: %d rotations at startup, want 0", got)
	}
	done := reg.Counter("serve.jobs_done")
	want := make(map[string]string)
	for _, alg := range []string{"mats+", "marchc", "marchb"} {
		job := runToDone(t, s1, done, Request{Kind: "grade", Grade: &GradeRequest{Spec: sweep.Spec{Algs: alg, Size: 16}}})
		want[job.ID] = jobResult(job)
	}
	s1.Close()

	// The running records are history: the first restart drops them.
	s2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got := rotations.Value(); got != 1 {
		t.Fatalf("restart over a journal with history: %d rotations, want 1", got)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The second restart finds exactly the live view and leaves it be.
	s3, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := rotations.Value(); got != 1 {
		t.Errorf("restart over a compacted journal: %d rotations, want still 1", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, compacted) {
		t.Errorf("restart over a compacted journal rewrote it: %d bytes -> %d bytes", len(compacted), len(after))
	}
	for id, text := range want {
		s3.mu.Lock()
		j := s3.jobs[id]
		s3.mu.Unlock()
		if j == nil || jobResult(j) != text {
			t.Fatalf("job %s not recovered with its report", id)
		}
	}
}

// TestJournalCompactKeepsConcurrentAppend is the regression test for a
// compaction that snapshotted the live view before taking the journal
// lock: a terminal record appended between the snapshot and the rotate
// was erased, and with amortised compaction nothing rewrote it, so a
// restart re-ran a job its client had already seen finish.
func TestJournalCompactKeepsConcurrentAppend(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	s, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	done := reg.Counter("serve.jobs_done")
	appends := reg.Counter("resilience.journal_appends")
	journalSize := func() int64 {
		s.journalMu.Lock()
		defer s.journalMu.Unlock()
		return s.journal.Size()
	}
	// Carry the journal past compactBytes, so compaction can be due.
	for journalSize() <= compactBytes {
		runToDone(t, s, done, longAssemble(200))
	}

	// A job whose run waits for the test, journaled as Submit does.
	x, err := s.prepJob(Request{Kind: "grade", Grade: &GradeRequest{Spec: sweep.Spec{Algs: "marchc", Size: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	run, release := x.run, make(chan struct{})
	x.run = func(ctx context.Context) (string, error) {
		<-release
		return run(ctx)
	}
	base := appends.Value()
	if err := s.enqueue(x); err != nil {
		t.Fatal(err)
	}
	s.journalAppend(jobEntry{Op: opAccepted, ID: x.ID, Req: &x.req})
	waitFor(t, "accepted and running records", func() bool { return appends.Value() == base+2 })

	// Compact while x finishes: the seam lets the worker run x to its
	// done record between the live-view snapshot (x still running) and
	// the rotate. It waits for the append, or gives up once it is clear
	// the append is held off until after the rotate.
	var once sync.Once
	s.journalMu.Lock()
	s.compactedSize = 0 // due: the journal is past compactBytes
	s.beforeRotate = func() {
		once.Do(func() {
			close(release)
			for deadline := time.Now().Add(300 * time.Millisecond); appends.Value() == base+2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
	}
	s.journalMu.Unlock()
	doneBefore := done.Value()
	s.compact()
	waitFor(t, "job "+x.ID, func() bool { return done.Value() == doneBefore+1 || failed(x) })
	s.Close()
	if st := x.status(); st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", x.ID, st.State, st.Error)
	}
	want := jobResult(x)

	j, payloads, err := resilience.OpenJournal(filepath.Join(dir, jobsJournalName), jobsJournalOwner)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	var journaled *jobEntry
	for _, raw := range payloads {
		var e jobEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.ID == x.ID && e.Op == opDone {
			journaled = &e
		}
	}
	if journaled == nil {
		t.Fatalf("job %s finished, but compaction erased its done record", x.ID)
	}
	if journaled.Result != want {
		t.Fatalf("job %s: journaled report diverges:\n%s\nvs\n%s", x.ID, journaled.Result, want)
	}

	recovered := reg.Counter("serve.jobs_recovered")
	s2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := recovered.Value(); got != 0 {
		t.Errorf("restart re-enqueued %d job(s), want 0", got)
	}
	s2.mu.Lock()
	j2 := s2.jobs[x.ID]
	s2.mu.Unlock()
	if j2 == nil || j2.status().State != StateDone || jobResult(j2) != want {
		t.Fatalf("job %s not recovered as done with its report", x.ID)
	}
}
