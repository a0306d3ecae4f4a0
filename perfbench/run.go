package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/coverage"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// setupsPerSweep is how many set-up-only processes a sweep run starts
// before each sweep, so set-up time has enough samples for a steady
// median, taken across the whole run. Set-up cannot be repeated inside
// one process: the universe is cached process-wide, so a second
// enumeration would time a cache hit.
const setupsPerSweep = 5

// runner holds what every phase of one benchmark run shares.
type runner struct {
	ctx     context.Context
	root    string
	w       workload
	seed    int64
	seconds time.Duration
	shape   hostShape
	chk     checker
	res     *result
	start   time.Time
}

// sweepConfig configures the i-th sweep iteration of the run. Each
// iteration grades the library in its own seeded order, so a run's
// figures do not hang on one order: peak RSS, for one, depends on how
// late the scalar fallbacks run.
func (r *runner) sweepConfig(kind string, i int) childConfig {
	return childConfig{
		Kind: kind, Legs: r.w.legs, Algs: algOrder(subSeed(r.seed, i)),
		Workers: r.shape.GradeWorkers, Shape: r.shape,
	}
}

func (r *runner) serviceConfig(round int, n mixCounts) childConfig {
	return childConfig{
		Kind: childService, Seed: r.seed, Round: round,
		Mix: [3]int{n.small, n.full, n.resubmit}, Shape: r.shape,
	}
}

func toSeconds(ns int64) float64 { return float64(ns) / 1e9 }

// addLatency adds a median and a tail figure for latencies (ms). A
// tail that falls back to the median under the median's own name is
// not repeated.
func addLatency(m *metrics, p50Name string, tailName func(p float64) string, lat []float64) {
	m.add(p50Name, "ms", median(lat), len(lat))
	p, ok := tailPercentile(len(lat))
	if tailName(p) == p50Name {
		return
	}
	note := fmt.Sprintf("p%g of %d", p, len(lat))
	if !ok {
		note = fmt.Sprintf("median: %d samples are too few for a tail with ten beyond it", len(lat))
	}
	value := percentile(lat, p)
	if p == 50 {
		value = median(lat)
	}
	m.note(tailName(p), "ms", value, len(lat), note)
}

// sweepE2E runs set-up processes and sweep iterations, each in a fresh
// process, until the run's time is up. A sweep iteration is one user
// request (the library swept on every leg's architecture), so its
// latency samples are whole iterations.
func (r *runner) sweepE2E() error {
	var setups, walls, rss []float64
	legs := make([][]float64, len(r.w.legs))
	var last time.Duration
	for len(walls) == 0 || r.another(last) {
		t0 := time.Now()
		for range setupsPerSweep {
			c, err := runChild(r.ctx, nil, 0, r.root, r.sweepConfig(childSetup, len(walls)))
			if err != nil {
				return err
			}
			setups = append(setups, toSeconds(c.SetupNS[0]))
		}
		c, err := runChild(r.ctx, nil, 0, r.root, r.sweepConfig(childSweep, len(walls)))
		if err != nil {
			return err
		}
		walls = append(walls, toSeconds(c.WallNS))
		for i, ns := range c.LegNS {
			legs[i] = append(legs[i], toSeconds(ns))
		}
		rss = append(rss, float64(c.PeakRSSKB)/1024)
		r.res.tally(c.Ops)
		last = time.Since(t0)
	}
	lat := make([]float64, len(walls))
	for i, w := range walls {
		lat[i] = w * 1e3
	}
	m := &metrics{}
	m.add("setup_s", "s", median(setups), len(setups))
	m.add("wall_s", "s", median(walls), len(walls))
	addLatency(m, "p50_ms", func(float64) string { return "tail_ms" }, lat)
	m.add("peak_rss_mb", "MB", slices.Max(rss), len(rss))
	r.res.Metrics = m.list
	info := &metrics{}
	info.add("sweep_s", "s", median(walls), len(walls))
	for i, leg := range r.w.legs {
		info.add("sweep_s."+leg.Name, "s", median(legs[i]), len(legs[i]))
	}
	r.res.Info = info.list
	return nil
}

// serviceE2E runs closed-loop service rounds in fresh processes until
// the run's time is up. Job latency is summarised per round and the
// run reports the median over rounds, so a disk or CPU stall on the
// shared host that hits one round does not move the run's figure.
func (r *runner) serviceE2E() error {
	var setups, fresh, walls, p50s, tails, small, full, resub, rss []float64
	var jobs int
	var tailP float64
	var last time.Duration
	for round := 0; round == 0 || r.another(last); round++ {
		t0 := time.Now()
		c, err := runChild(r.ctx, nil, 0, r.root, r.serviceConfig(round, serviceRound))
		if err != nil {
			return err
		}
		for _, ns := range c.SetupNS {
			setups = append(setups, toSeconds(ns))
		}
		fresh = append(fresh, toSeconds(c.FreshSetupNS))
		walls = append(walls, toSeconds(c.WallNS))
		var lat []float64
		for _, o := range c.Ops {
			ms := float64(o.LatNS) / 1e6
			switch o.Kind {
			case opSmall:
				small = append(small, ms)
				lat = append(lat, ms)
			case opFull:
				full = append(full, ms)
				lat = append(lat, ms)
			case opResubmit:
				resub = append(resub, ms)
			}
		}
		jobs += len(lat)
		tailP, _ = tailPercentile(len(lat))
		p50s = append(p50s, median(lat))
		tails = append(tails, percentile(lat, tailP))
		rss = append(rss, float64(c.PeakRSSKB)/1024)
		r.res.tally(c.Ops)
		last = time.Since(t0)
	}
	m := &metrics{}
	m.add("setup_s", "s", median(setups), len(setups))
	m.add("wall_s", "s", median(walls), len(walls))
	m.note("p50_ms", "ms", median(p50s), jobs, fmt.Sprintf("median over %d rounds of the round's median", len(p50s)))
	m.note("tail_ms", "ms", median(tails), jobs, fmt.Sprintf("median over %d rounds of the round's p%g", len(tails), tailP))
	m.add("peak_rss_mb", "MB", slices.Max(rss), len(rss))
	r.res.Metrics = m.list
	var total float64
	for _, w := range walls {
		total += w
	}
	info := &metrics{}
	info.add("fresh_setup_s", "s", median(fresh), len(fresh))
	addLatency(info, "small_job_p50_ms", func(p float64) string { return fmt.Sprintf("small_job_p%g_ms", p) }, small)
	addLatency(info, "full_job_p50_ms", func(p float64) string { return fmt.Sprintf("full_job_p%g_ms", p) }, full)
	info.add("resubmit_p50_ms", "ms", median(resub), len(resub))
	info.add("jobs_per_s", "1/s", float64(jobs)/total, len(walls))
	r.res.Info = info.list
	return nil
}

// another reports whether the run starts another sweep iteration or
// service round, given how long the last one took: only if at least
// half of it would fit before the run's time is up. A run then ends
// near --seconds on average, and at most half an iteration after it.
func (r *runner) another(last time.Duration) bool {
	return time.Now().Add(last / 2).Before(r.start.Add(r.seconds))
}

// traced runs the workload once untraced and once traced, then the
// layer probes, and reports the per-layer metrics and the tracing
// overhead.
func (r *runner) traced() error {
	base := r.serviceConfig(0, serviceRound)
	if r.w.kind == kindSweep {
		base = r.sweepConfig(childSweep, 0)
	}
	plain, err := runChild(r.ctx, nil, 0, r.root, base)
	if err != nil {
		return err
	}
	r.res.tally(plain.Ops)

	tr := &Tracer{}
	root := tr.Start(0, "bench", "bench.run", r.w.name)
	cfg := base
	cfg.Trace = true
	c, err := runChild(r.ctx, tr, root, r.root, cfg)
	if err != nil {
		return err
	}
	r.res.tally(c.Ops)
	m := &metrics{}
	geom := fullGeom
	if r.w.kind == kindSweep {
		geom = r.w.legs[0].geometry()
		err = r.sweepLayers(tr, root, m, cfg, c)
	} else {
		err = r.serviceLayers(tr, root, m, c)
	}
	if err != nil {
		return err
	}
	if err := layerProbes(tr, root, library, geom, m); err != nil {
		return err
	}
	m.add("trace.overhead_s", "s", toSeconds(c.WallNS-plain.WallNS), 2)
	tr.End(root)
	spans := tr.Spans()
	self := selfTimes(spans)
	for _, layer := range traceLayers {
		m.add("trace.self_s."+layer, "s", self[layer].Seconds(), 1)
	}
	r.res.Metrics = m.list
	return r.writeTrace(spans, self)
}

// traceLayers are the layers spans are recorded for: the benchmark
// itself and the program's packages it calls into.
var traceLayers = []string{"bench", "sweep", "coverage", "faults", "march", "serve", "resilience"}

// sweepLayers reports the layers of a traced sweep iteration c, whose
// operations are its legs' algorithms, leg by leg in cfg.Algs order.
// The grading time of an algorithm is summed over the legs. The
// service layers are not on a sweep's path; a small probe round
// measures them.
func (r *runner) sweepLayers(tr *Tracer, root int, m *metrics, cfg childConfig, c *childResult) error {
	grade := make([]float64, len(cfg.Algs))
	for i, o := range c.Ops {
		grade[i%len(cfg.Algs)] += toSeconds(o.LatNS)
	}
	gradeMetrics(m, cfg.Algs, grade)
	lane := r.w.legs[0]
	if err := coverageMetrics(r.ctx, tr, root, m, c.Obs, lane.Arch, lane.geometry()); err != nil {
		return err
	}
	m.add("sweep.render_us", "us", spanUS(c.Spans, "sweep.Workload.RenderText"), 1)
	probe := r.serviceConfig(0, serviceProbe)
	probe.Trace = true
	s, err := runChild(r.ctx, tr, root, r.root, probe)
	if err != nil {
		return err
	}
	r.res.tally(s.Ops)
	serveMetrics(m, s)
	return nil
}

// serviceLayers reports the layers of a traced service round c. The
// service grades inside the server, so the grading layer is measured by
// grading the full-job workload directly.
func (r *runner) serviceLayers(tr *Tracer, root int, m *metrics, c *childResult) error {
	algs := algOrder(r.seed)
	grade, renderUS, ops, err := gradeProbe(r.ctx, tr, root, r.chk, fullArch, algs, fullGeom, r.shape.GradeWorkers)
	if err != nil {
		return err
	}
	r.res.tally(ops)
	gradeMetrics(m, algs, grade)
	if err := coverageMetrics(r.ctx, tr, root, m, c.Obs, fullArch, fullGeom); err != nil {
		return err
	}
	m.add("sweep.render_us", "us", renderUS, 1)
	serveMetrics(m, c)
	return nil
}

// gradeProbe grades the library at g the way a full service job does,
// with a span per algorithm, renders it and verifies the report.
func gradeProbe(ctx context.Context, tr *Tracer, parent int, chk checker, arch string, algs []string, g geometry, workers int) ([]float64, float64, []opResult, error) {
	sp := tr.Start(parent, "sweep", "sweep.Spec.Workload", "")
	w, err := sweep.Spec{
		Algs: strings.Join(algs, ","), Arch: arch,
		Size: g.size, Width: g.width, Ports: g.ports, Workers: workers,
	}.Workload()
	tr.End(sp)
	if err != nil {
		return nil, 0, nil, err
	}
	grade := make([]float64, len(algs))
	reports := make([]*coverage.Report, len(algs))
	for i, alg := range w.Algs {
		t0 := time.Now()
		sp := tr.Start(parent, "coverage", "coverage.GradeContext", algs[i])
		rep, err := coverage.GradeContext(ctx, alg, w.Arch, w.Opts)
		tr.End(sp)
		if err != nil {
			return nil, 0, nil, err
		}
		grade[i] = time.Since(t0).Seconds()
		reports[i] = rep
	}
	t0 := time.Now()
	sp = tr.Start(parent, "sweep", "sweep.Workload.RenderText", "")
	text := w.RenderText(reports)
	tr.End(sp)
	renderUS := float64(time.Since(t0)) / 1e3
	var ops []opResult
	for i, err := range chk.verify(text, arch, algs, g) {
		o := opResult{Kind: "grade-probe", Key: algs[i]}
		if err != nil {
			o.Err = err.Error()
		}
		ops = append(ops, o)
	}
	return grade, renderUS, ops, nil
}

// metricAlg turns a library name into a metric-name component
// ("marchc++" becomes "marchcpp").
func metricAlg(alg string) string { return strings.ReplaceAll(alg, "+", "p") }

// gradeMetrics reports the summed and per-algorithm grading time, in
// library order.
func gradeMetrics(m *metrics, algs []string, grade []float64) {
	by := make(map[string]float64, len(algs))
	var total float64
	for i, a := range algs {
		by[a] = grade[i]
		total += grade[i]
	}
	m.add("coverage.grade_s", "s", total, len(algs))
	for _, a := range library {
		m.add("coverage.grade_s."+metricAlg(a), "s", by[a], 1)
	}
}

// obsView indexes an obs snapshot.
type obsView map[string]obs.Metric

func viewOf(ms []obs.Metric) obsView {
	v := make(obsView, len(ms))
	for _, m := range ms {
		v[m.Name] = m
	}
	return v
}

// sum adds the values of every counter named prefix*suffix.
func (v obsView) sum(prefix, suffix string) float64 {
	var s float64
	for name, m := range v {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			s += float64(m.Value)
		}
	}
	return s
}

func (v obsView) value(name string) float64 { return float64(v[name].Value) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coverageMetrics reads the coverage and artifact counters the
// workload's traced process exported. When the workload never fell
// back to the scalar oracle, the scalar per-fault cost comes from a
// probe at the workload's architecture and geometry instead.
func coverageMetrics(ctx context.Context, tr *Tracer, parent int, m *metrics, ms []obs.Metric, arch string, g geometry) error {
	v := viewOf(ms)
	batches := v.value("coverage.batches_replayed")
	batchNS := v["coverage.batch_ns"]
	lanes := v["coverage.batch_lanes"]
	slots := float64(lanes.Count) * (v.value("coverage.lane_width") - 1)
	m.add("coverage.batches", "count", batches, 1)
	m.add("coverage.batch_us_mean", "us", ratio(float64(batchNS.Sum), float64(batchNS.Count))/1e3, int(batchNS.Count))
	m.add("coverage.lane_occupancy", "ratio", ratio(float64(lanes.Sum), slots), int(lanes.Count))
	m.add("coverage.fast_kernel_ratio", "ratio", ratio(v.value("coverage.fast_kernel_batches"), batches), int(batches))
	m.add("coverage.stream_fallbacks", "count", v.value("coverage.stream_fallbacks"), 1)
	scalar := v["coverage.fault_ns"]
	m.add("coverage.scalar_faults", "count", float64(scalar.Count), 1)
	if scalar.Count > 0 {
		m.add("coverage.scalar_fault_us_mean", "us", float64(scalar.Sum)/float64(scalar.Count)/1e3, int(scalar.Count))
	} else if err := scalarProbe(ctx, tr, parent, arch, g, m); err != nil {
		return err
	}
	m.add("coverage.panic_retries", "count", v.value("coverage.panic_retries"), 1)
	m.add("coverage.quarantined", "count", v.value("coverage.quarantined"), 1)
	hits := v.sum("artifact.", ".hits")
	lookups := hits + v.sum("artifact.", ".waits") + v.sum("artifact.", ".misses")
	m.add("artifact.hit_ratio", "ratio", ratio(hits, lookups), int(lookups))
	m.add("artifact.builds", "count", v.sum("artifact.", ".builds"), 1)
	return nil
}

// serveMetrics reports the serve and resilience layers from a traced
// service round.
func serveMetrics(m *metrics, c *childResult) {
	var submit, resubmit []float64
	var polls float64
	for _, o := range c.Ops {
		switch o.Kind {
		case opSmall, opFull:
			submit = append(submit, float64(o.SubmitNS)/1e3)
			polls += float64(o.Polls)
		case opResubmit:
			resubmit = append(resubmit, float64(o.SubmitNS)/1e3)
		}
	}
	jobs := float64(len(submit))
	v := viewOf(c.Obs)
	var rtt, rotate []float64
	for _, ns := range c.End.HTTPRTTNS {
		rtt = append(rtt, float64(ns)/1e3)
	}
	for _, ns := range c.End.RotateNS {
		rotate = append(rotate, float64(ns)/1e6)
	}
	m.add("serve.submit_us_p50", "us", median(submit), len(submit))
	m.add("serve.submit_us_p99", "us", percentile(submit, 99), len(submit))
	m.add("serve.resubmit_us_p50", "us", median(resubmit), len(resubmit))
	m.add("serve.http_rtt_us", "us", median(rtt), len(rtt))
	m.add("serve.polls_per_job", "count", ratio(polls, jobs), len(submit))
	m.add("serve.jobs_retained", "count", float64(c.End.JobsRetained), 1)
	m.add("resilience.appends_per_job", "count", ratio(v.value("resilience.journal_appends"), jobs), len(submit))
	m.add("resilience.rotations", "count", v.value("resilience.journal_rotations"), 1)
	m.add("resilience.rotate_ms", "ms", median(rotate), len(rotate))
	m.add("resilience.journal_bytes", "bytes", float64(c.End.JournalBytes), 1)
}

// spanUS is the summed duration of the spans named name, in µs.
func spanUS(spans []Span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e3
}

// writeTrace saves the spans and layer self times of a traced run under
// .bench_build/traces.
func (r *runner) writeTrace(spans []Span, self map[string]time.Duration) error {
	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	selfS := make(map[string]float64, len(self))
	for k, d := range self {
		selfS[k] = d.Seconds()
	}
	raw, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []Span             `json:"spans"`
	}{r.w.name, r.seed, selfS, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed)), raw, 0o644)
}
