package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mellow/internal/config"
	"mellow/internal/experiments"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/sched"
	"mellow/internal/server"
	"mellow/internal/trace"
)

// The service workload's fixed inputs. The corpus is the committed
// scenarios/ directory; the batch is batchJobs short sim jobs whose
// seeds come from the run seed.
const (
	corpusDir     = "scenarios"
	batchJobs     = 32
	batchWorkload = "lbm"
	batchPolicy   = "BE-Mellow+SC+WQ"
	batchWarmup   = 100_000
	batchDetailed = 200_000
	// batchLLCBytes shrinks the LLC as the corpus does, so dirty lines
	// reach memory within the short run.
	batchLLCBytes = 256 << 10
	// hitRounds is how many times each pass resubmits the whole corpus
	// as result-cache hits.
	hitRounds = 10
)

// corpusJob is one scenario document ready to submit.
type corpusJob struct {
	name     string
	body     []byte
	expected []byte
	cells    int
	instr    uint64
}

// serviceStats gathers the service workload's per-layer samples. The
// simulation workloads report it empty: they bypass these layers.
type serviceStats struct {
	loadMs            []float64
	cells             int
	admitMs, resultMs []float64
	shed              int
	corpusS, batchJPS []float64
	hitMs             []float64
	memoHits          uint64
	memoMisses        uint64
}

// reportService reports the per-layer metrics of the service path. The
// scheduler and memo figures are read from the process, so a workload
// that never calls them reads zero.
func reportService(r *run, st serviceStats) {
	orZero := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, q)
	}
	r.put("scenario.load_ms", "ms", orZero(st.loadMs, 0.5))
	r.put("scenario.cells", "count", float64(st.cells))
	r.put("server.admit_ms_p50", "ms", orZero(st.admitMs, 0.5))
	r.put("server.result_ms_p50", "ms", orZero(st.resultMs, 0.5))
	r.put("server.shed", "count", float64(st.shed))
	r.put("service.corpus_s", "s", orZero(st.corpusS, 0.5))
	r.put("service.batch_jobs_per_s", "1/s", orZero(st.batchJPS, 0.5))
	r.put("service.hit_ms_p99", "ms", orZero(st.hitMs, 0.99))
	ratio := 0.0
	if n := st.memoHits + st.memoMisses; n > 0 {
		ratio = float64(st.memoHits) / float64(n)
	}
	r.put("experiments.memo_hit_ratio", "ratio", ratio)
	ss := sched.Default().Stats()
	wh := sched.Default().WaitHistogram()
	r.put("sched.wait_ms_p50", "ms", float64(wh.Quantile(0.5))/1000)
	r.put("sched.peak_running", "count", float64(ss.Peak))
}

// loadCorpus reads every scenario and its golden and encodes the job
// requests.
func loadCorpus(base config.Config) ([]corpusJob, error) {
	entries, err := scenario.LoadDir(corpusDir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no scenarios under %s", corpusDir)
	}
	jobs := make([]corpusJob, 0, len(entries))
	for _, e := range entries {
		want, err := os.ReadFile(scenario.ExpectedPath(e.Path))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.JobRequest{Kind: server.KindScenario, Scenario: e.Scenario})
		if err != nil {
			return nil, err
		}
		cfg, err := e.Scenario.EffectiveConfig(base)
		if err != nil {
			return nil, err
		}
		n := len(e.Scenario.Cells())
		jobs = append(jobs, corpusJob{
			name: e.Scenario.Name, body: body, expected: want, cells: n,
			instr: uint64(n) * (cfg.Run.WarmupInstructions + cfg.Run.DetailedInstructions),
		})
	}
	return jobs, nil
}

// batchSeed derives batch job i's simulation seed from the run seed.
func batchSeed(seed uint64, i int) uint64 { return seed*batchJobs + uint64(i) + 1 }

func batchRequest(seed uint64) (server.BatchRequest, error) {
	var br server.BatchRequest
	for i := 0; i < batchJobs; i++ {
		c, err := batchCell(seed, i)
		if err != nil {
			return br, err
		}
		br.Jobs = append(br.Jobs, server.JobRequest{
			Kind: server.KindSim, Workload: batchWorkload, Policy: batchPolicy, Config: &c.cfg,
		})
	}
	return br, nil
}

// batchCell is batch job i as a simulation input.
func batchCell(seed uint64, i int) (cell, error) {
	w, err := trace.ByName(batchWorkload)
	if err != nil {
		return cell{}, err
	}
	spec, err := policy.Parse(batchPolicy)
	if err != nil {
		return cell{}, err
	}
	cfg := config.Default()
	cfg.Run.WarmupInstructions = batchWarmup
	cfg.Run.DetailedInstructions = batchDetailed
	cfg.Run.Seed = batchSeed(seed, i)
	cfg.Caches.L3.SizeBytes = batchLLCBytes
	return cell{cfg: cfg, spec: spec, w: w}, nil
}

// service is one in-process mellowd behind httptest.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(clients int) *service {
	srv := server.New(server.Config{
		Workers:    clients,
		SimBudget:  clients,
		QueueDepth: 2 * batchJobs,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * clients}
	return &service{srv: srv, ts: ts, client: &http.Client{Transport: tr}}
}

func (s *service) close() error {
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// call makes one request and returns the status code and body.
func (s *service) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// awaitEvents reads a job's event stream to its end and returns the
// type of its terminal event.
func (s *service) awaitEvents(id string) (string, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = ev
		}
	}
	return last, sc.Err()
}

// outcome is one job a client drove to its result.
type outcome struct {
	admit, result, total time.Duration
	body                 []byte
	err                  error
	shed                 bool
}

// submitJob posts one job, waits on its event stream unless the answer
// was already final, and fetches its content-addressed result.
func (s *service) submitJob(body []byte, wantCode int) outcome {
	var o outcome
	t0 := time.Now()
	code, b, err := s.call(http.MethodPost, "/v1/jobs", body)
	o.admit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	if code != wantCode {
		o.shed = code == http.StatusTooManyRequests
		o.err = fmt.Errorf("submit: HTTP %d, want %d: %s", code, wantCode, bytes.TrimSpace(b))
		return o
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		o.err = err
		return o
	}
	return s.finish(st, t0, o)
}

// finish waits for an admitted job and fetches its result.
func (s *service) finish(st server.JobStatus, t0 time.Time, o outcome) outcome {
	if st.State != server.StateDone {
		ev, err := s.awaitEvents(st.ID)
		if err != nil || ev != server.EventDone {
			o.err = fmt.Errorf("job %s ended with event %q: %v", st.ID, ev, err)
			return o
		}
	}
	t1 := time.Now()
	code, b, err := s.call(http.MethodGet, "/v1/results/"+st.Key, nil)
	o.result, o.total = time.Since(t1), time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	o.body, o.err = b, err
	return o
}

// closedLoop runs n jobs on the given number of client goroutines; each
// client starts its next job only when its previous one finished.
func closedLoop(clients, n int, job func(i int) outcome) []outcome {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = job(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// scenarioBytes extracts a scenario job result's golden encoding.
func scenarioBytes(body []byte) ([]byte, error) {
	var jr server.JobResult
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, err
	}
	if jr.Scenario == nil {
		return nil, fmt.Errorf("result carries no scenario document")
	}
	return jr.Scenario.Encode()
}

// setUpService empties the experiments memo, loads the corpus and
// starts a server, and returns them with the time the load and start
// took. A garbage collection first makes each repetition start from the
// same heap.
func setUpService(st *serviceStats, clients int) ([]corpusJob, *service, float64, error) {
	runtime.GC()
	experiments.ResetCache()
	t := time.Now()
	jobs, err := loadCorpus(config.Default())
	if err != nil {
		return nil, nil, 0, err
	}
	st.loadMs = append(st.loadMs, ms(time.Since(t)))
	svc := startService(clients)
	return jobs, svc, time.Since(t).Seconds(), nil
}

// submitBatch posts the batch and returns its per-job statuses.
func (s *service) submitBatch(body []byte) ([]server.JobStatus, bool, error) {
	code, b, err := s.call(http.MethodPost, "/v1/jobs:batch", body)
	if err != nil {
		return nil, false, err
	}
	if code != http.StatusAccepted {
		return nil, code == http.StatusTooManyRequests, fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(b))
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, false, err
	}
	if len(resp.Jobs) != batchJobs {
		return nil, false, fmt.Errorf("%d statuses for %d jobs", len(resp.Jobs), batchJobs)
	}
	return resp.Jobs, false, nil
}

func runService(r *run) error {
	clients := max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	var st serviceStats
	var setups []float64
	var jobs []corpusJob
	for i := 0; i < setupReps; i++ {
		var svc *service
		var d float64
		var err error
		if jobs, svc, d, err = setUpService(&st, clients); err != nil {
			return err
		}
		setups = append(setups, d)
		if err := svc.close(); err != nil {
			return err
		}
	}
	instr := uint64(batchJobs * (batchWarmup + batchDetailed))
	for _, j := range jobs {
		st.cells += j.cells
		instr += j.instr
	}
	order := rand.New(rand.NewPCG(r.seed, 0x5eed)).Perm(len(jobs))
	breq, err := batchRequest(r.seed)
	if err != nil {
		return err
	}
	bbody, err := json.Marshal(breq)
	if err != nil {
		return err
	}
	sims := float64(st.cells + batchJobs)

	check := func(o outcome, what string) bool {
		r.attempted++
		if o.shed {
			st.shed++
		}
		if o.err != nil {
			r.fail("%s: %v", what, o.err)
			return false
		}
		return true
	}

	prof := newProfiler()
	var rate, alloc, tracedCorpus, plainCorpus []float64
	batchWant := make([][]byte, batchJobs)
	start := time.Now()
	// Each pass sets up afresh, so every pass is cold. At least two
	// passes run, so every batch result is seen twice.
	for pass := 0; time.Since(start) < r.window || pass < 2; pass++ {
		traced := r.trace && pass%2 == 1
		if traced {
			if err := prof.start(); err != nil {
				return err
			}
		}
		_, svc, d, err := setUpService(&st, clients)
		if err != nil {
			return err
		}
		setups = append(setups, d)
		var m0, m1, m2, m3 runtime.MemStats

		// Cold corpus pass.
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		cold := closedLoop(clients, len(jobs), func(i int) outcome {
			return svc.submitJob(jobs[order[i]].body, http.StatusAccepted)
		})
		corpusWall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cs := experiments.CacheSnapshot()
		st.memoHits += cs.Hits
		st.memoMisses += cs.Misses
		coldBytes := make([][]byte, len(jobs))
		for i, o := range cold {
			j := jobs[order[i]]
			if !check(o, "corpus "+j.name) {
				continue
			}
			st.admitMs = append(st.admitMs, ms(o.admit))
			st.resultMs = append(st.resultMs, ms(o.result))
			r.attempted++
			got, err := scenarioBytes(o.body)
			if err == nil && !bytes.Equal(got, j.expected) {
				err = fmt.Errorf("result differs from %s.expected", j.name)
			}
			if err != nil {
				r.fail("corpus %s: %v", j.name, err)
				continue
			}
			coldBytes[i] = o.body
		}

		// Result-cache hits: the same requests again.
		hits := closedLoop(clients, hitRounds*len(jobs), func(i int) outcome {
			return svc.submitJob(jobs[order[i%len(jobs)]].body, http.StatusOK)
		})
		for i, o := range hits {
			name := jobs[order[i%len(jobs)]].name
			if !check(o, "hit "+name) {
				continue
			}
			st.hitMs = append(st.hitMs, ms(o.total))
			if want := coldBytes[i%len(jobs)]; want != nil && !bytes.Equal(o.body, want) {
				r.attempted++
				r.fail("hit %s: result bytes differ from the cold run", name)
			}
		}

		// One batch of distinct short simulations.
		runtime.ReadMemStats(&m2)
		t1 := time.Now()
		r.attempted++
		statuses, shed, err := svc.submitBatch(bbody)
		if shed {
			st.shed++
		}
		if err != nil {
			r.fail("batch submit: %v", err)
		} else {
			batch := closedLoop(clients, batchJobs, func(i int) outcome {
				return svc.finish(statuses[i], t1, outcome{})
			})
			batchWall := time.Since(t1)
			runtime.ReadMemStats(&m3)
			for i, o := range batch {
				if !check(o, fmt.Sprintf("batch job %d", i)) {
					continue
				}
				if batchWant[i] == nil {
					batchWant[i] = o.body
					r.digests = append(r.digests, fmt.Sprintf("%x", sha256.Sum256(o.body)))
				} else if !bytes.Equal(o.body, batchWant[i]) {
					r.attempted++
					r.fail("batch job %d: result bytes differ from the first pass", i)
				}
			}
			rate = append(rate, float64(instr)/1e6/(corpusWall+batchWall).Seconds())
			alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc+m3.TotalAlloc-m2.TotalAlloc)/1e6/sims)
			st.batchJPS = append(st.batchJPS, batchJobs/batchWall.Seconds())
		}
		st.corpusS = append(st.corpusS, corpusWall.Seconds())
		if traced {
			tracedCorpus = append(tracedCorpus, corpusWall.Seconds())
			if err := prof.stop(); err != nil {
				return err
			}
		} else {
			plainCorpus = append(plainCorpus, corpusWall.Seconds())
		}
		if err := svc.close(); err != nil {
			return err
		}
	}
	if len(rate) == 0 || len(st.hitMs) == 0 {
		return fmt.Errorf("no pass completed")
	}

	if !r.trace {
		r.put("sim_minstr_per_s", "Minstr/s", median(rate))
		r.put("alloc_mb_per_sim", "MB", median(alloc))
		r.put("job_ms_p50", "ms", median(st.hitMs))
		r.put("setup_s", "s", median(setups))
		return nil
	}
	reportService(r, st)
	r.put("bench.trace_overhead_pct", "%", 100*(median(tracedCorpus)/median(plainCorpus)-1))
	return reportServiceReference(r, batchWant[0], prof)
}

// reportServiceReference simulates batch job 0 directly, checks that
// its result equals the one the service returned, and reports the
// per-layer metrics of that cell.
func reportServiceReference(r *run, served []byte, prof *profiler) error {
	c, err := batchCell(r.seed, 0)
	if err != nil {
		return err
	}
	var plain []simOut
	for i := 0; i < 3; i++ {
		r.attempted++
		out, err := simulate(c, c.w)
		if err != nil {
			return err
		}
		plain = append(plain, out)
	}
	var ops uint64
	r.attempted++
	ref, err := simulate(c, counted(c.w, &ops))
	if err != nil {
		return err
	}
	var jr server.JobResult
	if err := json.Unmarshal(served, &jr); err != nil || len(jr.Results) != 1 {
		r.fail("batch job 0: unreadable result: %v", err)
	} else if d, err := digest(jr.Results[0]); err != nil || d != ref.digest {
		r.fail("batch job 0: served result differs from a direct simulation")
	}
	reportHostCosts(r, plain)
	return reportLayers(r, c, ref, ops, median(walls(plain)), prof.shares())
}
