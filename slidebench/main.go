// Command slidebench is the repository's end-to-end and per-layer slide
// benchmark. It drives one workload through the public runtime entry
// points (sliderrt, dist, pig) from one load goroutine, checks sampled
// and final outputs against a from-scratch run, and prints one JSON
// result line:
//
//	slidebench --workload fixed-wide --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (closed-loop
// throughput, open-loop latency at the workload's fixed rate, allocation
// and heap figures, set-up time); with --trace 1 it runs the program
// instrumented from the outside and reports the per-layer split, writing
// the spans it recorded as Chrome trace-event JSON. run.sh builds it from
// the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceDir  string // "" writes no trace files
	setupReps int
	// setupBudget keeps repeating set-up past setupReps until this much
	// time went into it (cheap set-ups repeat more), up to maxSetupReps.
	setupBudget time.Duration
	// maxSlides, when positive, caps every phase's slide count (the
	// self-test runs a few slides per workload).
	maxSlides int
	// checkEvery is the oracle's sampling period in closed-loop slides.
	checkEvery int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("slidebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see config.json)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1: traced per-layer run, 0: end-to-end run")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory for the traced run's span and layer files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "slidebench: need --workload, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.setupReps = 9
	o.setupBudget = 2 * time.Second
	o.checkEvery = 40
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slidebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slidebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// bench runs one workload: it owns the input stream and the counts of
// attempted and failed slides.
type bench struct {
	o         options
	p         params
	st        *stream
	log       io.Writer
	attempted int64
	failed    int64
}

// run executes one benchmark run. An error means the run could not be
// set up; slide failures and oracle mismatches are counted in the result.
func run(o options, log io.Writer) (result, error) {
	p, err := loadParams(o.workload)
	if err != nil {
		return result{}, err
	}
	d := &bench{o: o, p: p, st: newStream(p, o.seed), log: log}
	if o.trace {
		return d.traced()
	}
	return d.endToEnd()
}

// result builds the result line; attempted is at least 1 by contract.
func (d *bench) result(ms map[string]float64, units map[string]string) result {
	out := result{Correct: d.failed == 0, Attempted: max(d.attempted, 1), Failed: d.failed, Metrics: map[string]metric{}}
	for k, v := range ms {
		out.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	return out
}

func (d *bench) endToEnd() (result, error) {
	window := d.st.initial()
	// Set up repeatedly and keep the last system; report the median.
	var sys system
	var times []float64
	var spent time.Duration
	for len(times) < d.o.setupReps || (spent < d.o.setupBudget && len(times) < maxSetupReps) {
		if sys != nil {
			sys.close()
		}
		sys = newSystem(d.p, d.o.seed, nil)
		runtime.GC()
		start := time.Now()
		if err := sys.start(window); err != nil {
			sys.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
	}
	defer sys.close()

	total := time.Duration(d.o.seconds * float64(time.Second))
	// The open loop gets most of the run: its p95 needs the samples.
	closed := d.closedLoop([]system{sys}, total*30/100, true, true)
	lat := d.openLoop(sys, total*70/100)
	d.check(sys)
	// One more sample: the last cycle's live heap (a short run may see
	// no GC end inside a layer call).
	heap := append(closed.heapMB, liveHeapMB())

	slides := float64(max(closed.slides, 1))
	ms := map[string]float64{
		"throughput_splits_s": quantile(closed.chunkRates, 0.5),
		"slide_p50_ms":        quantile(lat.latMs, 0.50),
		"slide_p95_ms":        quantile(lat.latMs, 0.95),
		"allocs_per_slide":    float64(closed.mallocs) / slides,
		"alloc_kb_per_slide":  float64(closed.bytes) / 1024 / slides,
		"heap_mb":             quantile(heap, 0.5),
		"setup_s":             quantile(times, 0.5),
	}
	fmt.Fprintf(d.log, "%s seed=%d: closed %d slides, open %d slides at %g splits/s (lag max %.2f ms, backlog max %d splits), %d set-ups, error_rate %.4f (%d/%d)\n",
		d.o.workload, d.o.seed, closed.slides, len(lat.latMs), d.p.Rate, lat.maxLagMs, lat.maxBacklog, len(times),
		float64(d.failed)/float64(max(d.attempted, 1)), d.failed, d.attempted)
	return d.result(ms, endToEndUnits), nil
}

var endToEndUnits = map[string]string{
	"throughput_splits_s": "splits/s",
	"slide_p50_ms":        "ms",
	"slide_p95_ms":        "ms",
	"allocs_per_slide":    "count",
	"alloc_kb_per_slide":  "KiB",
	"heap_mb":             "MB",
	"setup_s":             "s",
}

// traced runs the per-layer measurement: an untraced and a traced system
// fed identical slides in alternation (tracing overhead), then the traced
// system alone closed loop (layer split) and open loop (input lag).
func (d *bench) traced() (result, error) {
	window := d.st.initial()
	plain := newSystem(d.p, d.o.seed, nil)
	pr := newProbe()
	inst := newSystem(d.p, d.o.seed, pr)
	for _, s := range []system{plain, inst} {
		if err := s.start(window); err != nil {
			plain.close()
			inst.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
	}
	defer inst.close()

	total := time.Duration(d.o.seconds * float64(time.Second))
	both := d.closedLoop([]system{plain, inst}, total*30/100, false, true)
	plain.close()
	overhead := 1 - both.busy[0].Seconds()/both.busy[1].Seconds()

	// No oracle checks here: their garbage would land in the GC figures.
	runtime.GC()
	marks := pr.mark(inst)
	d.closedLoop([]system{inst}, total*35/100, false, false)
	ms := pr.layerMetrics(inst, marks)
	lat := d.openLoop(inst, total*35/100)
	d.check(inst)
	ms["trace.overhead_frac"] = overhead
	ms["input.lag_ms_max"] = lat.maxLagMs
	ms["input.backlog_max_splits"] = float64(lat.maxBacklog)
	ms["input.open_loop_slides"] = float64(len(lat.latMs))

	units := make(map[string]string, len(perLayer))
	names := make([]string, 0, len(perLayer))
	for _, l := range perLayer {
		units[l.name] = l.unit
		names = append(names, l.name)
	}
	table := layerTable(d.o.workload, d.o.seed, names, ms, units)
	fmt.Fprint(d.log, table)
	if d.o.traceDir != "" {
		if err := os.MkdirAll(d.o.traceDir, 0o755); err != nil {
			return result{}, err
		}
		base := filepath.Join(d.o.traceDir, fmt.Sprintf("%s-seed%d", d.o.workload, d.o.seed))
		if err := pr.spans.writeTrace(base+".trace.json", d.o.workload); err != nil {
			return result{}, err
		}
		if err := os.WriteFile(base+".layers.txt", []byte(table), 0o644); err != nil {
			return result{}, err
		}
	}
	return d.result(ms, units), nil
}

func layerTable(workload string, seed int64, names []string, ms map[string]float64, units map[string]string) string {
	s := fmt.Sprintf("per-layer split, %s seed %d (means per slide over the traced closed-loop phase)\n", workload, seed)
	for _, n := range names {
		s += fmt.Sprintf("  %-34s %14.4f %s\n", n, ms[n], units[n])
	}
	return s
}

// maxSetupReps caps the set-up repetitions of an end-to-end run.
const maxSetupReps = 40

// closedOut is what a closed-loop phase measured.
type closedOut struct {
	slides, splits int
	busy           []time.Duration // per system: time inside the layer call
	chunkRates     []float64       // first system's splits/s per whole chunk
	// Summed over the layer calls, and the live heap after each GC cycle
	// that ended in a layer call (withMem only).
	mallocs, bytes uint64
	heapMB         []float64
}

// chunkSlides is the closed loop's rate chunk: a whole number of slide
// shape decks, so every chunk carries about the same input.
const chunkSlides = 36

// closedLoop issues slides back to back for dur, applying each to every
// system (alternating which goes first), and, with sample, checks the
// oracle every checkEvery slides. Input generation, allocation readings
// and oracle checks sit outside the timed layer calls; oracle time also
// extends the phase.
func (d *bench) closedLoop(sys []system, dur time.Duration, withMem, sample bool) closedOut {
	out := closedOut{busy: make([]time.Duration, len(sys))}
	runtime.GC()
	deadline := time.Now().Add(dur)
	var before, after runtime.MemStats
	var chunkBusy time.Duration
	chunkSplits := 0
	for time.Now().Before(deadline) && d.failed == 0 && (d.o.maxSlides <= 0 || out.slides < d.o.maxSlides) {
		sl := d.st.peek()
		for k := range sys {
			i := (k + out.slides) % len(sys)
			if withMem {
				runtime.ReadMemStats(&before)
			}
			took, err := d.apply(sys[i], sl)
			if withMem {
				runtime.ReadMemStats(&after)
				out.mallocs += after.Mallocs - before.Mallocs
				out.bytes += after.TotalAlloc - before.TotalAlloc
				if after.NumGC != before.NumGC {
					out.heapMB = append(out.heapMB, liveHeapMB())
				}
			}
			out.busy[i] += took
			if i == 0 {
				chunkBusy += took
			}
			if err != nil {
				return out
			}
		}
		out.slides++
		out.splits += len(sl.add)
		chunkSplits += len(sl.add)
		d.st.commit()
		if out.slides%chunkSlides == 0 {
			out.chunkRates = append(out.chunkRates, float64(chunkSplits)/chunkBusy.Seconds())
			chunkBusy, chunkSplits = 0, 0
		}
		if sample && out.slides%d.o.checkEvery == 1 {
			start := time.Now()
			for _, s := range sys {
				d.check(s)
			}
			// The check's garbage must not be collected inside timed slides.
			runtime.GC()
			deadline = deadline.Add(time.Since(start))
		}
		d.st.fill(time.Time{})
	}
	if len(out.chunkRates) == 0 && chunkBusy > 0 {
		out.chunkRates = append(out.chunkRates, float64(chunkSplits)/chunkBusy.Seconds())
	}
	return out
}

// liveHeapMB is the heap the last GC cycle found live: the window, memo
// and benchmark state, plus whatever the slide in flight held.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// openOut is what an open-loop phase measured.
type openOut struct {
	latMs      []float64
	maxLagMs   float64
	maxBacklog int
}

// openLoop feeds splits at the workload's fixed rate for dur. A slide is
// due when its last split is due (a drop-only slide when the previous
// slide was); its latency runs from that moment until the layer call
// returns, so a stall delays and is charged to every later slide. Lag is
// how late the load goroutine issued a slide; backlog is the number of splits
// due, when it did, behind the slide being issued.
func (d *bench) openLoop(sys system, dur time.Duration) openOut {
	var out openOut
	runtime.GC()
	d.st.fill(time.Time{})
	perSplit := time.Duration(float64(time.Second) / d.p.Rate)
	t0 := time.Now()
	end := t0.Add(dur)
	absorbed := 0
	for d.failed == 0 && (d.o.maxSlides <= 0 || len(out.latMs) < d.o.maxSlides) {
		sl := d.st.peek()
		due := t0.Add(time.Duration(absorbed+len(sl.add)) * perSplit)
		if due.After(end) {
			break
		}
		d.st.fill(due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		issued := time.Now()
		out.maxLagMs = max(out.maxLagMs, float64(issued.Sub(due))/1e6)
		sl = d.st.peek()
		out.maxBacklog = max(out.maxBacklog, int(issued.Sub(t0)/perSplit)-absorbed-len(sl.add))
		if _, err := d.apply(sys, sl); err != nil {
			break
		}
		out.latMs = append(out.latMs, float64(time.Since(due))/1e6)
		absorbed += len(sl.add)
		d.st.commit()
	}
	return out
}

// apply runs one slide and counts it.
func (d *bench) apply(sys system, sl *slide) (time.Duration, error) {
	d.attempted++
	took, err := sys.apply(sl)
	if err != nil {
		d.failed++
		fmt.Fprintf(d.log, "slide %d failed: %v\n", d.attempted, err)
	}
	return took, err
}

// check compares the system's last output with a from-scratch run over
// the live window; a mismatch counts as a failed slide.
func (d *bench) check(sys system) {
	if d.failed > 0 {
		return
	}
	if err := sys.check(d.st.window()); err != nil {
		d.failed++
		fmt.Fprintf(d.log, "after slide %d: %v\n", d.attempted, err)
	}
}

// quantile returns the Harrell-Davis estimate of the q-quantile of xs: a
// mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
// distribution. Where the latency distribution has two modes (slides a
// GC cycle overlapped, and the rest) and q falls near the boundary, one
// order statistic jumps between them from run to run; the weighted mean
// moves smoothly.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/n)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

// betaFraction evaluates the continued fraction of I_x(a, b) by the
// modified Lentz method.
func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}
