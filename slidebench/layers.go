package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"slider/internal/dist"
	"slider/internal/mapreduce"
	slmetrics "slider/internal/metrics"
	"slider/internal/pig"
	"slider/internal/sliderrt"
)

// perLayer lists the traced run's metrics in output order, with units.
var perLayer = []struct{ name, unit string }{
	{"slide.wall_ms", "ms"},
	{"sliderrt.self_ms", "ms"},
	{"sliderrt.self_share", "ratio"},
	{"map.runmap_ms", "ms"},
	{"map.records_per_slide", "count"},
	{"dist.rpc_ms", "ms"},
	{"dist.worker_decode_ms", "ms"},
	{"dist.worker_map_ms", "ms"},
	{"dist.worker_encode_ms", "ms"},
	{"dist.retries", "count"},
	{"dist.hedges", "count"},
	{"dist.hedge_useful_ratio", "ratio"},
	{"core.contract_ms", "ms"},
	{"core.merges_per_slide", "count"},
	{"core.nodes_recomputed_per_slide", "count"},
	{"core.reuse_ratio", "ratio"},
	{"combine.calls_per_slide", "count"},
	{"combine.records_per_slide", "count"},
	{"combine.fn_ms", "ms"},
	{"reduce.phase_ms", "ms"},
	{"reduce.calls_per_slide", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.entries", "count"},
	{"memo.resident_mb", "MB"},
	{"memo.evicted_per_slide", "count"},
	{"pig.stage1_work_ms", "ms"},
	{"pig.stage2_work_ms", "ms"},
	{"pig.stage3_work_ms", "ms"},
	{"pig.later_reuse_ratio", "ratio"},
	{"pig.unreported_ms", "ms"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles_per_slide", "count"},
	{"input.lag_ms_max", "ms"},
	{"input.backlog_max_splits", "count"},
	{"input.open_loop_slides", "count"},
	{"trace.overhead_frac", "ratio"},
}

// probe instruments one system from the outside: it wraps the job's
// Combine and Reduce and the MapRunner, reads the runtime's SlideObs
// histograms, RunResult, memo and pool stats around each slide, and
// records a span around each layer call.
type probe struct {
	inMap                                    atomic.Bool
	combCalls, combRecords, combNs, redCalls atomic.Int64

	spans spanLog
	acc   layerAcc // load goroutine only
}

// layerAcc sums per-slide layer figures over the measured phase.
type layerAcc struct {
	slides                                  int64
	wallNs, obsNs, contractNs, reduceNs     int64
	runMapNs, mapRecords                    int64
	merges, recomputed, reused              int64
	combCalls, combRecords, combNs          int64
	redCalls                                int64
	memoHits, memoMisses                    int64
	pigWorkNs                               [3]int64
	pigReused, pigMapTasks, pigUnreportedNs int64
}

type combineCounts struct{ calls, records, ns, redCalls int64 }

func newProbe() *probe {
	p := &probe{}
	p.spans.base = time.Now()
	return p
}

func (p *probe) combineSnapshot() combineCounts {
	return combineCounts{p.combCalls.Load(), p.combRecords.Load(), p.combNs.Load(), p.redCalls.Load()}
}

// wrapJob counts and times the job's Combine calls outside map tasks
// (map-side combining runs inside RunMap, which wrapRunner flags) and
// counts its Reduce calls. Combine runs on several goroutines at once.
func (p *probe) wrapJob(job *mapreduce.Job) *mapreduce.Job {
	j := *job
	combine, reduce := job.Combine, job.Reduce
	j.Combine = func(key string, values []mapreduce.Value) mapreduce.Value {
		if p.inMap.Load() {
			return combine(key, values)
		}
		start := time.Now()
		v := combine(key, values)
		p.combNs.Add(int64(time.Since(start)))
		p.combCalls.Add(1)
		p.combRecords.Add(int64(len(values)))
		return v
	}
	j.Reduce = func(key string, values []mapreduce.Value) mapreduce.Value {
		p.redCalls.Add(1)
		return reduce(key, values)
	}
	return &j
}

type timedRunner struct {
	p     *probe
	inner mapreduce.MapRunner
}

func (r timedRunner) RunMap(job *mapreduce.Job, splits []mapreduce.Split) ([]mapreduce.MapResult, error) {
	r.p.inMap.Store(true)
	start := time.Now()
	out, err := r.inner.RunMap(job, splits)
	took := time.Since(start)
	r.p.inMap.Store(false)
	r.p.acc.runMapNs += int64(took)
	for _, s := range splits {
		r.p.acc.mapRecords += int64(len(s.Records))
	}
	r.p.spans.add("RunMap", start, took, map[string]any{"splits": len(splits)})
	return out, err
}

func (p *probe) wrapRunner(inner mapreduce.MapRunner) mapreduce.MapRunner {
	return timedRunner{p: p, inner: inner}
}

// wcBefore holds the counters read before a wordcount slide.
type wcBefore struct {
	obs  [3]time.Duration // SlideObs Map, Contract, Reduce sums
	comb combineCounts
}

func (p *probe) beforeWC(rt *sliderrt.Runtime) wcBefore {
	o := rt.Observability()
	return wcBefore{
		obs:  [3]time.Duration{o.Map.Sum(), o.Contract.Sum(), o.Reduce.Sum()},
		comb: p.combineSnapshot(),
	}
}

func (p *probe) afterWC(rt *sliderrt.Runtime, res *sliderrt.RunResult, sl *slide, b wcBefore, start time.Time, took time.Duration) {
	o := rt.Observability()
	mapD := o.Map.Sum() - b.obs[0]
	contractD := o.Contract.Sum() - b.obs[1]
	reduceD := o.Reduce.Sum() - b.obs[2]
	c := p.combineSnapshot()
	a := &p.acc
	a.slides++
	a.wallNs += int64(took)
	a.obsNs += int64(mapD + contractD + reduceD)
	a.contractNs += int64(contractD)
	a.reduceNs += int64(reduceD)
	a.merges += res.TreeStats.Merges + res.TreeStatsBackground.Merges
	a.recomputed += res.TreeStats.NodesRecomputed + res.TreeStatsBackground.NodesRecomputed
	a.reused += res.TreeStats.NodesReused + res.TreeStatsBackground.NodesReused
	a.combCalls += c.calls - b.comb.calls
	a.combRecords += c.records - b.comb.records
	a.combNs += c.ns - b.comb.ns
	a.redCalls += c.redCalls - b.comb.redCalls
	ms := rt.Store().Stats() // read counters cover this slide only
	a.memoHits += ms.Hits
	a.memoMisses += ms.Misses
	name := "Advance"
	if sl.lateness > 0 {
		name = "AdvanceLate"
	}
	p.spans.add(name, start, took, map[string]any{
		"slide": res.SlideID, "drop": sl.drop, "add": len(sl.add), "lateness": sl.lateness,
		"combine_calls": c.calls - b.comb.calls, "combine_ms": float64(c.ns-b.comb.ns) / 1e6,
		"reduce_calls": c.redCalls - b.comb.redCalls,
		"map_ms":       ms2(mapD), "contract_ms": ms2(contractD), "reduce_ms": ms2(reduceD),
	})
}

func (p *probe) afterQuery(res *pig.PipelineResult, sl *slide, b combineCounts, start time.Time, took time.Duration) {
	c := p.combineSnapshot()
	a := &p.acc
	a.slides++
	a.wallNs += int64(took)
	a.combCalls += c.calls - b.calls
	a.combRecords += c.records - b.records
	a.combNs += c.ns - b.ns
	a.redCalls += c.redCalls - b.redCalls
	var reported time.Duration
	for i, r := range res.StageReports {
		reported += r.Work
		if i < len(a.pigWorkNs) {
			a.pigWorkNs[i] += int64(r.Work)
		}
		if i == 0 {
			a.mapRecords += r.Counters.MapRecords
			continue
		}
		a.pigReused += r.Counters.MapTasksReused
		a.pigMapTasks += r.Counters.MapTasks + r.Counters.MapTasksReused
	}
	a.pigUnreportedNs += int64(took - reported)
	p.spans.add("Pipeline.Advance", start, took, map[string]any{
		"drop": sl.drop, "add": len(sl.add),
		"combine_calls": c.calls - b.calls, "combine_ms": float64(c.ns-b.ns) / 1e6,
		"reduce_calls": c.redCalls - b.redCalls,
	})
}

func ms2(d time.Duration) float64 { return float64(d) / 1e6 }

// phaseMarks snapshots process- and pool-wide counters at the start of
// the measured phase.
type phaseMarks struct {
	gc      gcSample
	evicted int64
	faults  slmetrics.FaultStats
	workers slmetrics.NodeStats
}

func (p *probe) mark(sys system) phaseMarks {
	p.acc = layerAcc{}
	m := phaseMarks{gc: readGC()}
	if wc, ok := sys.(*wcSystem); ok {
		m.evicted = wc.rt.Store().Stats().Evicted
		if wc.pool != nil {
			m.faults, m.workers = poolStats(wc.pool)
		}
	}
	return m
}

func poolStats(pool *dist.Pool) (slmetrics.FaultStats, slmetrics.NodeStats) {
	pool.PollStats()
	return pool.FaultStats(), pool.ClusterStats().Merged()
}

// layerMetrics turns the phase's accumulators into the per-layer metrics.
func (p *probe) layerMetrics(sys system, m phaseMarks) map[string]float64 {
	a := p.acc
	out := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = 0
	}
	n := float64(max(a.slides, 1))
	perSlideMs := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	out["slide.wall_ms"] = perSlideMs(a.wallNs)
	out["map.records_per_slide"] = float64(a.mapRecords) / n
	out["map.runmap_ms"] = perSlideMs(a.runMapNs)
	out["combine.calls_per_slide"] = float64(a.combCalls) / n
	out["combine.records_per_slide"] = float64(a.combRecords) / n
	out["combine.fn_ms"] = perSlideMs(a.combNs)
	out["reduce.calls_per_slide"] = float64(a.redCalls) / n
	gc := readGC().sub(m.gc)
	out["gc.cpu_frac"] = gc.gcCPU / max(gc.busyCPU, 1e-9)
	out["gc.cycles_per_slide"] = gc.cycles / n

	switch s := sys.(type) {
	case *wcSystem:
		self := a.wallNs - a.obsNs
		out["sliderrt.self_ms"] = perSlideMs(self)
		out["sliderrt.self_share"] = ratio(self, a.wallNs)
		out["core.contract_ms"] = perSlideMs(a.contractNs)
		out["core.merges_per_slide"] = float64(a.merges) / n
		out["core.nodes_recomputed_per_slide"] = float64(a.recomputed) / n
		out["core.reuse_ratio"] = ratio(a.reused, a.reused+a.recomputed)
		out["reduce.phase_ms"] = perSlideMs(a.reduceNs)
		ms := s.rt.Store().Stats()
		out["memo.hit_ratio"] = ratio(a.memoHits, a.memoHits+a.memoMisses)
		out["memo.entries"] = float64(ms.Entries)
		out["memo.resident_mb"] = float64(ms.Bytes) / (1 << 20)
		out["memo.evicted_per_slide"] = float64(ms.Evicted-m.evicted) / n
		if s.pool != nil {
			faults, workers := poolStats(s.pool)
			f := faults.Sub(m.faults)
			out["dist.rpc_ms"] = perSlideMs(f.RPCLatency.SumNs)
			for _, h := range []string{"decode", "map", "encode"} {
				now, _ := workers.Hist(h)
				was, _ := m.workers.Hist(h)
				out["dist.worker_"+h+"_ms"] = perSlideMs(now.Sub(was).SumNs)
			}
			out["dist.retries"] = float64(f.Retries)
			out["dist.hedges"] = float64(f.HedgesLaunched)
			out["dist.hedge_useful_ratio"] = ratio(f.HedgesWon, f.HedgesLaunched)
		}
	case *querySystem:
		for i, w := range a.pigWorkNs {
			out[fmt.Sprintf("pig.stage%d_work_ms", i+1)] = perSlideMs(w)
		}
		out["pig.later_reuse_ratio"] = ratio(a.pigReused, a.pigMapTasks)
		out["pig.unreported_ms"] = perSlideMs(a.pigUnreportedNs)
	}
	return out
}

// gcSample is a reading of the runtime's GC counters.
type gcSample struct{ gcCPU, busyCPU, cycles float64 }

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcSample{
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		cycles:  float64(s[3].Value.Uint64()),
	}
}

func (g gcSample) sub(o gcSample) gcSample {
	return gcSample{g.gcCPU - o.gcCPU, g.busyCPU - o.busyCPU, g.cycles - o.cycles}
}

// maxSpans bounds the in-memory span log of one run.
const maxSpans = 50000

type span struct {
	name       string
	start, dur time.Duration // from the log's base
	args       map[string]any
}

// spanLog keeps the spans recorded around layer calls in memory; they
// are written out once the run ends.
type spanLog struct {
	base    time.Time
	spans   []span
	dropped int
}

func (l *spanLog) add(name string, start time.Time, dur time.Duration, args map[string]any) {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{name: name, start: start.Sub(l.base), dur: dur, args: args})
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events on one track; RunMap nests inside its slide by time).
func (l *spanLog) writeChrome(w io.Writer, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(l.spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "slidebench " + workload}})
	for _, s := range l.spans {
		events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: 1, Args: s.args})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "dropped_spans": l.dropped},
	})
}

// writeTrace saves the span log to path.
func (l *spanLog) writeTrace(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := l.writeChrome(bw, workload); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
