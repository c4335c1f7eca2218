package runtime

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
	"repro/internal/value"
)

// traceFib is a recursive program with real parallelism — enough fan-out to
// exercise stealing and activation traffic on the real executor.
const traceFib = `
fib(n) if lt(n, 2) then n else add(fib(sub(n, 1)), fib(sub(n, 2)))
main(n) fib(n)
`

// traceChain is a fully serial dependency chain: every incr waits on the
// recursive result below it, so the critical path is essentially the whole
// program.
const traceChain = `
count(n) if lt(n, 1) then 0 else incr(count(sub(n, 1)))
main(n) count(n)
`

// runTraced executes src with tracing on and returns the engine.
func runTraced(t *testing.T, src string, cfg Config, args ...value.Value) *Engine {
	t.Helper()
	cfg.Trace = true
	g := compile(t, src, nil)
	e := New(g, cfg)
	if _, err := e.Run(args...); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

// chromeDoc is the subset of the trace-event JSON the tests inspect.
type chromeDoc struct {
	DisplayTimeUnit string                   `json:"displayTimeUnit"`
	TraceEvents     []map[string]interface{} `json:"traceEvents"`
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := compile(t, "main() add(1, 2)", nil)
	e := New(g, Config{Mode: Simulated, Workers: 2})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Trace() != nil {
		t.Error("Trace() must be nil when Config.Trace is unset")
	}
}

// TestTraceSimDeterministic is the reproducibility acceptance criterion: two
// identical Simulated runs must export byte-identical Chrome trace files.
func TestTraceSimDeterministic(t *testing.T) {
	cfg := Config{Mode: Simulated, Workers: 4, MaxOps: 2_000_000}
	var files [2]bytes.Buffer
	for i := range files {
		e := runTraced(t, traceFib, cfg, value.Int(10))
		if err := e.Trace().WriteChrome(&files[i]); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
	}
	if !bytes.Equal(files[0].Bytes(), files[1].Bytes()) {
		t.Error("two identical Simulated runs exported different trace files")
	}
}

// TestTraceChromeWellFormed checks the export is valid JSON with the shape
// Perfetto expects: metadata, balanced node slices, paired flow arrows.
func TestTraceChromeWellFormed(t *testing.T) {
	e := runTraced(t, traceFib, Config{Mode: Simulated, Workers: 4, MaxOps: 2_000_000}, value.Int(10))
	var buf bytes.Buffer
	if err := e.Trace().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var slices, flowStarts, flowEnds, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["cat"] == "node" {
				slices++
			}
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		case "M":
			meta++
		}
	}
	if slices == 0 {
		t.Error("no node slices in export")
	}
	if flowStarts == 0 || flowStarts != flowEnds {
		t.Errorf("flow arrows unpaired: %d starts, %d ends", flowStarts, flowEnds)
	}
	// One process_name plus thread_name+thread_sort_index per track
	// (workers + seed).
	if want := 1 + 2*(4+1); meta != want {
		t.Errorf("metadata events = %d, want %d", meta, want)
	}
}

// TestTraceRealBalanced runs the real executor with 8 workers (under -race in
// CI) and checks the trace is well-formed: every buffer holds properly nested
// start/end pairs with nondecreasing timestamps, and the start/end totals
// match across the run.
func TestTraceRealBalanced(t *testing.T) {
	e := runTraced(t, traceFib, Config{Mode: Real, Workers: 8, MaxOps: 2_000_000}, value.Int(14))
	tr := e.Trace()
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	var starts, ends int
	for w, buf := range tr.Events {
		var open *trace.Event
		var lastTS int64
		for i := range buf {
			ev := &buf[i]
			if ev.Ts < lastTS {
				t.Fatalf("buffer %d: timestamp went backwards at event %d", w, i)
			}
			lastTS = ev.Ts
			switch ev.Type {
			case trace.NodeStart:
				if open != nil {
					t.Fatalf("buffer %d: nested node start at event %d", w, i)
				}
				open = ev
				starts++
			case trace.NodeEnd:
				if open == nil || open.Act != ev.Act || open.Node != ev.Node {
					t.Fatalf("buffer %d: node end without matching start at event %d", w, i)
				}
				open = nil
				ends++
			}
		}
		if open != nil {
			t.Errorf("buffer %d: unclosed node slice", w)
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("start/end unbalanced: %d starts, %d ends", starts, ends)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("real-mode export is not valid JSON")
	}
}

// TestTraceEventKindsRecorded checks the scheduler- and activation-level
// events appear on a parallel real-mode run.
func TestTraceEventKindsRecorded(t *testing.T) {
	e := runTraced(t, traceFib, Config{Mode: Real, Workers: 4, MaxOps: 2_000_000}, value.Int(16))
	counts := make(map[trace.EventType]int)
	for _, buf := range e.Trace().Events {
		for i := range buf {
			counts[buf[i].Type]++
		}
	}
	for _, want := range []trace.EventType{trace.NodeStart, trace.NodeEnd, trace.Deliver, trace.Inject, trace.ActAlloc} {
		if counts[want] == 0 {
			t.Errorf("no %v events recorded", want)
		}
	}
	// fib's self-recursion goes through the activation pool and tail calls
	// once warmed up.
	if counts[trace.ActReuse] == 0 {
		t.Error("no act-reuse events on a deeply recursive run")
	}
}

// TestCriticalPathChain checks the analyzer on a program whose dependency
// structure is known exactly: a serial chain has no available parallelism, so
// the critical path must cover essentially all recorded work.
func TestCriticalPathChain(t *testing.T) {
	e := runTraced(t, traceChain, Config{Mode: Simulated, Workers: 4, MaxOps: 2_000_000}, value.Int(40))
	cp := e.Trace().CriticalPath()
	if cp == nil {
		t.Fatal("nil critical path on a completed run")
	}
	if cp.Unit != "ticks" {
		t.Errorf("Unit = %q, want ticks", cp.Unit)
	}
	if cp.PathTicks <= 0 || cp.TotalTicks < cp.PathTicks {
		t.Fatalf("path %d, total %d: path must be positive and <= total", cp.PathTicks, cp.TotalTicks)
	}
	if p := cp.Parallelism(); p > 1.5 {
		t.Errorf("serial chain reports %.2fx parallelism", p)
	}
	if len(cp.Steps) < 40 {
		t.Errorf("critical path has %d steps; a 40-deep chain must be longer", len(cp.Steps))
	}
	// Steps are in execution order along dependencies.
	for i := 1; i < len(cp.Steps); i++ {
		if cp.Steps[i].Start < cp.Steps[i-1].Start {
			t.Fatalf("step %d starts before its predecessor", i)
		}
	}
	if cp.Report() == "" || cp.Verdict() == "" {
		t.Error("empty report")
	}
}

// TestCriticalPathSlack checks that on-path operators report zero slack and
// that slack never goes negative.
func TestCriticalPathSlack(t *testing.T) {
	e := runTraced(t, traceFib, Config{Mode: Simulated, Workers: 4, MaxOps: 2_000_000}, value.Int(10))
	cp := e.Trace().CriticalPath()
	if cp == nil {
		t.Fatal("nil critical path")
	}
	for _, op := range cp.Operators {
		if op.Slack < 0 {
			t.Errorf("%s: negative slack %d", op.Name, op.Slack)
		}
		if op.OnPathCalls > 0 && op.Slack != 0 {
			t.Errorf("%s: on the critical path but slack %d", op.Name, op.Slack)
		}
		if op.OnPath > op.Total {
			t.Errorf("%s: on-path %d exceeds total %d", op.Name, op.OnPath, op.Total)
		}
	}
}

// TestTimingFromBrackets pins what the timing log, a view of the node
// brackets, keeps on the work-stealing scheduler: one entry per operator
// execution, a stolen mark no more often than the scheduler stole and never
// at one worker, on the first run of an engine and on warm runs after Reset,
// which reuses the recorder's buffers.
func TestTimingFromBrackets(t *testing.T) {
	g := compile(t, traceFib, nil)
	for _, workers := range []int{1, 2, 8} {
		e := New(g, Config{Mode: Real, Workers: workers, Timing: true, MaxOps: 2_000_000})
		for run := 0; run < 3; run++ {
			if run > 0 {
				if err := e.Reset(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Run(value.Int(14)); err != nil {
				t.Fatalf("w%d run %d: %v", workers, run, err)
			}
			st, entries := e.Stats(), e.Timing().Entries()
			if int64(len(entries)) != st.OperatorsRun {
				t.Errorf("w%d run %d: %d entries, %d operators run", workers, run, len(entries), st.OperatorsRun)
			}
			var stolen int64
			for _, en := range entries {
				if en.Stolen {
					stolen++
				}
			}
			if stolen > st.Steals || (workers == 1 && stolen != 0) {
				t.Errorf("w%d run %d: %d stolen entries, %d steals", workers, run, stolen, st.Steals)
			}
		}
		if e.Trace() != nil {
			t.Errorf("w%d: Trace() must be nil when Config.Trace is unset", workers)
		}
	}
}

// TestTimingSkipsFailedNode checks that a failed operator execution gets no
// timing entry: a panic without retry fails the run with none, and a panic
// that a retry recovers leaves the one entry of the attempt that succeeded.
func TestTimingSkipsFailedNode(t *testing.T) {
	g := compile(t, "main(n) rinc(n)", faultOps())
	for _, mode := range []Mode{Real, Simulated} {
		for _, attempts := range []int{1, 2} {
			e := New(g, Config{Mode: mode, Workers: 2, Timing: true, MaxOps: 1000,
				Retry:  RetryPolicy{MaxAttempts: attempts},
				Faults: KillOnce(FaultPanic, "rinc")})
			_, err := e.Run(value.Int(1))
			if (err != nil) != (attempts == 1) {
				t.Fatalf("mode %v attempts %d: err = %v", mode, attempts, err)
			}
			if n := len(e.Timing().Entries()); n != attempts-1 {
				t.Errorf("mode %v attempts %d: %d timing entries, want %d", mode, attempts, n, attempts-1)
			}
		}
	}
}
