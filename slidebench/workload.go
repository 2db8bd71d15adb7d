package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"slider/internal/dist"
	"slider/internal/mapreduce"
	"slider/internal/metrics"
	"slider/internal/pig"
	"slider/internal/sliderrt"
	"slider/internal/workload"
)

//go:embed config.json
var configJSON []byte

// params is one workload's entry in config.json.
type params struct {
	Kind          string  `json:"kind"` // fixed | variable | ooo | query
	LinesPerSplit int     `json:"lines_per_split"`
	WindowSplits  int     `json:"window_splits"`
	MinWindow     int     `json:"min_window"`
	MaxWindow     int     `json:"max_window"`
	MaxDelta      int     `json:"max_delta"`
	Workers       int     `json:"workers"`
	Lateness      int     `json:"allowed_lateness"`
	LateEvery     int     `json:"late_every"`
	Rate          float64 `json:"open_loop_splits_per_s"`
}

// Shared job and input settings (see config.json "about").
const (
	partitions  = 8
	parallelism = 2
	vocabulary  = 1200
	zipfS       = 1.3
	wordsPerLn  = 12
	jobName     = "slidebench-wordcount"
	// lookAhead bounds how many slides of input exist before they are
	// applied: enough that the open loop never waits on generation, few
	// enough that the GC does not keep scanning idle input.
	lookAhead = 4
)

func loadParams(name string) (params, error) {
	var cfg struct {
		Workloads map[string]params `json:"workloads"`
	}
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return params{}, fmt.Errorf("config.json: %w", err)
	}
	p, ok := cfg.Workloads[name]
	if !ok {
		names := make([]string, 0, len(cfg.Workloads))
		for n := range cfg.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return params{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	return p, nil
}

// wordCount is the benchmark's job for every wordcount workload.
func wordCount() *mapreduce.Job {
	sum := func(_ string, values []mapreduce.Value) mapreduce.Value {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return total
	}
	return &mapreduce.Job{
		Name:       jobName,
		Partitions: partitions,
		Map: func(rec mapreduce.Record, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(rec.(string)) {
				emit(w, int64(1))
			}
			return nil
		},
		Combine:     sum,
		Reduce:      sum,
		Commutative: true,
	}
}

const l2Query = `
raw = LOAD 'events' AS (user, action, page, timespent, revenue);
pairs = FOREACH raw GENERATE page, user;
uniq = DISTINCT pairs;
grouped = GROUP uniq BY page;
reach = FOREACH grouped GENERATE group AS page, COUNT(*) AS users;
ordered = ORDER reach BY users DESC;
top = LIMIT ordered 10;
STORE top INTO 'out';
`

func compileL2() (*pig.Plan, error) {
	script, err := pig.Parse(l2Query)
	if err != nil {
		return nil, err
	}
	return pig.Compile(script, nil, partitions)
}

// slide is one operation on the window. Splits are numbered globally;
// the slide adds splits first..first+len(add)-1.
type slide struct {
	drop     int
	lateness int // > 0: a late bucket landed this many buckets behind the newest
	first    int
	add      []mapreduce.Split
}

// stream makes the seeded slide sequence and tracks the live window by
// split index, so the oracle can regenerate exactly the live splits.
type stream struct {
	p       params
	split   func(i int) mapreduce.Split
	rng     *rand.Rand
	adds    deck
	drops   deck
	late    deck
	next    int   // next split index to generate
	planned int   // live splits once every generated slide is applied
	live    []int // live split indices in window order
	ahead   []slide
	genCost time.Duration // how long the last generate took
}

// deck deals 0..n-1 in a fresh seeded order every n draws, so any run of
// whole decks carries the same total: slide sizes vary within a run but
// not, on average, between seeds.
type deck struct{ cards []int }

func (d *deck) draw(rng *rand.Rand, n int) int {
	if len(d.cards) == 0 {
		d.cards = rng.Perm(n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

func newStream(p params, seed int64) *stream {
	s := &stream{p: p, rng: rand.New(rand.NewSource(seed ^ 0x5eed51de))}
	// The generators' own seed stays fixed, so every run shares one
	// vocabulary (whose few most frequent words would otherwise set map
	// and framing cost per seed); --seed picks which splits of the
	// endless corpus a run reads.
	var gen func(i int) mapreduce.Split
	if p.Kind == "query" {
		gen = workload.NewPigMix(workload.PigMixConfig{Seed: 42, Users: 400, Pages: 150, RowsPerSplit: p.LinesPerSplit}).Split
	} else {
		gen = workload.NewText(workload.TextConfig{Seed: 42, LinesPerSplit: p.LinesPerSplit, WordsPerLine: wordsPerLn, Vocabulary: vocabulary, ZipfS: zipfS}).Split
	}
	base := int(uint64(seed)%(1<<20)) << 20
	s.split = func(i int) mapreduce.Split { return gen(base + i) }
	return s
}

// initial returns the first window and records it as live.
func (s *stream) initial() []mapreduce.Split {
	out := make([]mapreduce.Split, s.p.WindowSplits)
	for i := range out {
		out[i] = s.split(i)
		s.live = append(s.live, i)
	}
	s.next, s.planned = len(out), len(out)
	return out
}

// generate makes the next slide of the seeded sequence.
func (s *stream) generate() slide {
	var sl slide
	add := 1
	switch s.p.Kind {
	case "fixed":
		sl.drop = 1
	case "ooo":
		if s.late.draw(s.rng, s.p.LateEvery) == 0 {
			sl.lateness = 1 + s.rng.Intn(min(s.p.Lateness, s.planned))
			break
		}
		add = 1 + s.adds.draw(s.rng, s.p.MaxDelta)
		sl.drop = max(0, s.planned+add-s.p.WindowSplits)
	default: // variable, query
		// The drop pulls the window back towards its initial width, so
		// its mean width does not wander with the seed; the window still
		// changes width on almost every slide.
		add = s.adds.draw(s.rng, s.p.MaxDelta+1)
		sl.drop = add + (s.planned-s.p.WindowSplits)/4 + s.drops.draw(s.rng, 5) - 2
		sl.drop = min(max(sl.drop, 0, s.planned+add-s.p.MaxWindow), s.p.MaxDelta, s.planned+add-s.p.MinWindow)
		if add == 0 && sl.drop == 0 {
			add = 1
		}
	}
	sl.first = s.next
	sl.add = make([]mapreduce.Split, add)
	for i := range sl.add {
		sl.add[i] = s.split(s.next + i)
	}
	s.next += add
	s.planned += add - sl.drop
	return sl
}

// fill tops the look-ahead buffer up, stopping early when generating
// one more slide would run past deadline (zero: no deadline).
func (s *stream) fill(deadline time.Time) {
	for len(s.ahead) < lookAhead && (deadline.IsZero() || time.Now().Add(s.genCost).Before(deadline)) {
		start := time.Now()
		s.ahead = append(s.ahead, s.generate())
		s.genCost = time.Since(start)
	}
}

// peek returns the next slide without consuming it.
func (s *stream) peek() *slide {
	if len(s.ahead) == 0 {
		s.ahead = append(s.ahead, s.generate())
	}
	return &s.ahead[0]
}

// commit records the head slide as applied and drops it from the buffer.
func (s *stream) commit() {
	sl := s.ahead[0]
	s.ahead[0] = slide{}
	s.ahead = s.ahead[1:]
	if sl.lateness > 0 {
		pos := len(s.live) - sl.lateness
		s.live = append(s.live[:pos], append([]int{sl.first}, s.live[pos:]...)...)
		return
	}
	s.live = append(s.live[:0], s.live[sl.drop:]...)
	for i := range sl.add {
		s.live = append(s.live, sl.first+i)
	}
}

// window regenerates the live splits in window order.
func (s *stream) window() []mapreduce.Split {
	out := make([]mapreduce.Split, len(s.live))
	for i, idx := range s.live {
		out[i] = s.split(idx)
	}
	return out
}

// system is the program under test as one workload drives it.
type system interface {
	// start builds the runtime (and its workers) and runs Initial.
	start(window []mapreduce.Split) error
	// apply runs one slide and returns the time the layer call took.
	apply(sl *slide) (time.Duration, error)
	// check compares the last slide's output with a from-scratch run
	// over the given live window.
	check(window []mapreduce.Split) error
	close()
}

func newSystem(p params, seed int64, pr *probe) system {
	if p.Kind == "query" {
		return &querySystem{pr: pr}
	}
	return &wcSystem{p: p, seed: seed, pr: pr}
}

// wcSystem runs the wordcount job on a sliderrt.Runtime, with map tasks
// in-process or on dist workers.
type wcSystem struct {
	p       params
	seed    int64
	pr      *probe // nil: untraced
	rt      *sliderrt.Runtime
	workers []*dist.Worker
	pool    *dist.Pool
	last    mapreduce.Output
}

func (s *wcSystem) start(window []mapreduce.Split) error {
	job := wordCount()
	faults := &metrics.FaultRecorder{}
	var runner mapreduce.MapRunner = mapreduce.Executor{Parallelism: parallelism}
	if s.p.Workers > 0 {
		reg := &dist.Registry{}
		if err := reg.Register(jobName, wordCount); err != nil {
			return err
		}
		addrs := make([]string, s.p.Workers)
		for i := range addrs {
			w, err := dist.NewWorker(fmt.Sprintf("w%d", i), "127.0.0.1:0", reg)
			if err != nil {
				return err
			}
			if s.pr != nil {
				w.SetObs(dist.NewWorkerObs())
			}
			s.workers = append(s.workers, w)
			addrs[i] = w.Addr()
		}
		pool, err := dist.NewPoolConfig(jobName, addrs, dist.PoolConfig{
			Hedge:         true,
			StatsInterval: -1, // the probe polls worker stats itself
			Faults:        faults,
			Seed:          s.seed,
		})
		if err != nil {
			return err
		}
		s.pool, runner = pool, pool
	}
	cfg := sliderrt.Config{
		Parallelism: parallelism,
		MapRunner:   runner,
		Faults:      faults,
	}
	switch s.p.Kind {
	case "variable":
		cfg.Mode = sliderrt.Variable
	default:
		cfg.Mode = sliderrt.Fixed
		cfg.BucketSplits = 1
		cfg.WindowBuckets = s.p.WindowSplits
		cfg.AllowedLateness = s.p.Lateness
	}
	if s.pr != nil {
		job = s.pr.wrapJob(job)
		cfg.MapRunner = s.pr.wrapRunner(runner)
		cfg.Obs = &metrics.SlideObs{}
	}
	rt, err := sliderrt.New(job, cfg)
	if err != nil {
		return err
	}
	s.rt = rt
	start := time.Now()
	res, err := rt.Initial(window)
	if err != nil {
		return err
	}
	if s.pr != nil {
		s.pr.spans.add("Initial", start, time.Since(start), map[string]any{"splits": len(window)})
	}
	s.last = res.Output
	return nil
}

func (s *wcSystem) apply(sl *slide) (time.Duration, error) {
	var before wcBefore
	if s.pr != nil {
		before = s.pr.beforeWC(s.rt)
	}
	start := time.Now()
	var res *sliderrt.RunResult
	var err error
	if sl.lateness > 0 {
		res, err = s.rt.AdvanceLate(sl.lateness, sl.add)
	} else {
		res, err = s.rt.Advance(sl.drop, sl.add)
	}
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	s.last = res.Output
	if s.pr != nil {
		s.pr.afterWC(s.rt, res, sl, before, start, took)
	}
	return took, nil
}

func (s *wcSystem) check(window []mapreduce.Split) error {
	want, err := mapreduce.RunScratch(wordCount(), window, parallelism, nil)
	if err != nil {
		return err
	}
	return compareOutputs(s.last, want)
}

func (s *wcSystem) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}

// querySystem runs the PigMix L2 pipeline.
type querySystem struct {
	pr   *probe
	pl   *pig.Pipeline
	last []pig.Row
}

func (s *querySystem) start(window []mapreduce.Split) error {
	plan, err := compileL2()
	if err != nil {
		return err
	}
	if s.pr != nil {
		for _, st := range plan.Stages {
			st.Job = s.pr.wrapJob(st.Job)
		}
	}
	pl, err := pig.NewPipeline(plan, pig.PipelineConfig{Mode: sliderrt.Variable})
	if err != nil {
		return err
	}
	s.pl = pl
	start := time.Now()
	res, err := pl.Initial(window)
	if err != nil {
		return err
	}
	if s.pr != nil {
		s.pr.spans.add("Pipeline.Initial", start, time.Since(start), map[string]any{"splits": len(window)})
	}
	s.last = res.Rows
	return nil
}

func (s *querySystem) apply(sl *slide) (time.Duration, error) {
	var before combineCounts
	if s.pr != nil {
		before = s.pr.combineSnapshot()
	}
	start := time.Now()
	res, err := s.pl.Advance(sl.drop, sl.add)
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	s.last = res.Rows
	if s.pr != nil {
		s.pr.afterQuery(res, sl, before, start, took)
	}
	return took, nil
}

func (s *querySystem) check(window []mapreduce.Split) error {
	plan, err := compileL2()
	if err != nil {
		return err
	}
	want, _, err := pig.RunScratch(plan, window, metrics.NewRecorder())
	if err != nil {
		return err
	}
	return compareRows(s.last, want)
}

func (s *querySystem) close() {}

// compareOutputs reports the first key where got and want differ.
func compareOutputs(got, want mapreduce.Output) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d keys, from scratch %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("oracle: key %q missing", k)
		}
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("oracle: key %q = %v, from scratch %v", k, g, w)
		}
	}
	return nil
}

// compareRows reports the first row where got and want differ.
func compareRows(got, want []pig.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d rows, from scratch %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("oracle: row %d = %v, from scratch %v", i, got[i], want[i])
		}
	}
	return nil
}
