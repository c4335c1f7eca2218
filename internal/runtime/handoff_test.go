package runtime

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/operator"
	"repro/internal/value"
)

// dequeModel is the work-stealing scheduler's owner order without the
// hand-off slot: one LIFO stack.
type dequeModel []int

func (m *dequeModel) push(id int) { *m = append(*m, id) }

func (m *dequeModel) pop() (int, bool) {
	n := len(*m)
	if n == 0 {
		return 0, false
	}
	id := (*m)[n-1]
	*m = (*m)[:n-1]
	return id, true
}

// TestHandoffOrderMatchesDeques drives one owner through executions that
// each push nodes of the kinds the simulated machine puts on different
// priority levels, and requires the order next hands them out in — hand-off
// slot and all — to be the order one plain LIFO deque would pop them in,
// whatever the kinds. With a peer parked every push takes the deque path,
// and the order must not change either. After every retire, outstanding
// must count exactly the tasks still waiting.
func TestHandoffOrderMatchesDeques(t *testing.T) {
	cases := []struct {
		name  string
		execs [][]Priority
	}{
		{"chain", [][]Priority{{0}, {0}, {0}, {0}}},
		{"fan-out", [][]Priority{{0, 0, 0}, {}, {0, 1}, {}, {}}},
		{"higher after lower", [][]Priority{{2, 1, 0}, {1, 0, 2}, {0, 0}, {2}, {1}, {0, 2, 1, 0}}},
		{"lower after higher", [][]Priority{{0, 1, 2}, {2, 2}, {1, 0, 1}, {0}}},
		{"deferred only", [][]Priority{{2, 2, 1}, {1}, {2, 1, 2}, {}, {2}}},
		{"waiting above the slot", [][]Priority{{0, 0, 2}, {2}, {1}, {1, 2}, {}, {}, {0}}},
	}
	recursive := &graph.Template{Name: "rec", Recursive: true}
	for _, c := range cases {
		for _, parked := range []bool{false, true} {
			name := fmt.Sprintf("%s/parked=%v", c.name, parked)
			// Node 0 is the seed; every push gets a node of its own, whose
			// kind the simulated machine would give the scripted priority.
			tmpl := &graph.Template{Name: "main", Nodes: []*graph.Node{{ID: 0, Kind: graph.OpNode}}}
			for _, ex := range c.execs {
				for _, pri := range ex {
					n := &graph.Node{ID: len(tmpl.Nodes), Kind: graph.OpNode}
					switch pri {
					case PriCall:
						n.Kind = graph.CondNode
					case PriRecursive:
						n.Kind, n.Callee = graph.CallNode, recursive
					}
					tmpl.Nodes = append(tmpl.Nodes, n)
				}
			}
			prog := &graph.Program{Templates: map[string]*graph.Template{"main": tmpl}, Main: tmpl}
			graph.Number(prog)
			e := New(prog, Config{Mode: Real, Workers: 2})
			s := newStealScheduler(2, &e.stats, nil)
			if parked {
				s.nidle.Store(1) // notifyOne finds no one registered and returns
			}
			a := newActivation(tmpl)
			s.push(e.worker(-1, s), a, tmpl.Nodes[0])
			w := e.worker(0, s)
			var model dequeModel

			next := 1
			var got, want []int
			tk, ok := s.next(w)
			for i := 0; ok; i++ {
				got = append(got, tk.node.ID)
				if i < len(c.execs) {
					for range c.execs[i] {
						s.push(w, a, tmpl.Nodes[next])
						model.push(next)
						next++
					}
					if len(c.execs[i]) > 0 && (s.local[0].slot != nil) == parked {
						t.Fatalf("%s: execution %d: slot full = %v with parked = %v",
							name, i, s.local[0].slot != nil, parked)
					}
				}
				s.retire(w, tk)
				if out := s.outstanding.Load(); out != int64(len(model)) {
					t.Fatalf("%s: after execution %d outstanding = %d, %d tasks waiting", name, i, out, len(model))
				}
				if id, more := model.pop(); more {
					want = append(want, id)
				}
				tk, ok = s.next(w)
			}
			got = got[1:] // the seed
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: handed out %v, a LIFO deque gives %v", name, got, want)
			}
			if next != len(tmpl.Nodes) {
				t.Fatalf("%s: pushed %d of %d nodes", name, next-1, len(tmpl.Nodes)-1)
			}
		}
	}
}

// handoffOps registers the operators of the hand-off run tests: slowblock
// returns a block only once the run's scheduler has closed, so the worker
// that ran it releases its consumer into the hand-off slot of a stopped run;
// consume counts the runs of that consumer, which must be none.
func handoffOps(eng **Engine, started chan struct{}, consumed *atomic.Int64) *operator.Registry {
	r := operator.NewRegistry(operator.Builtins())
	var once sync.Once
	r.MustRegister(&operator.Operator{
		Name: "slowblock", Arity: 1,
		Fn: func(ctx operator.Context, args []value.Value) (value.Value, error) {
			once.Do(func() { close(started) })
			deadline := time.Now().Add(10 * time.Second)
			for !(*eng).sched.closed.Load() {
				if time.Now().After(deadline) {
					return nil, errors.New("slowblock: the run never stopped")
				}
				time.Sleep(time.Millisecond)
			}
			return value.NewBlockStats(make(value.FloatVec, int(args[0].(value.Int))), ctx.BlockStats()), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "consume", Arity: 1,
		Fn: func(operator.Context, []value.Value) (value.Value, error) {
			consumed.Add(1)
			return value.Int(0), nil
		},
	})
	r.MustRegister(&operator.Operator{
		Name: "boom", Arity: 1,
		Fn: func(operator.Context, []value.Value) (value.Value, error) {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
			}
			return nil, errors.New("boom")
		},
	})
	return r
}

// TestHandoffFailureWithSuccessorInSlot fails a run on one worker while the
// other holds a finished producer: its consumer lands in the hand-off slot
// after the scheduler closed. The run must end with the structured error,
// never run the consumer, release the block the consumer was to receive,
// and leave no goroutine behind.
func TestHandoffFailureWithSuccessorInSlot(t *testing.T) {
	runHandoffStop(t, `
main()
  let s = consume(slowblock(8))
      x = boom(1)
  in add(s, x)
`, FailError)
}

// TestHandoffCancelWithSuccessorInSlot is the same stop by cancellation:
// the context ends while the producer runs.
func TestHandoffCancelWithSuccessorInSlot(t *testing.T) {
	runHandoffStop(t, `main() consume(slowblock(8))`, FailCanceled)
}

// runHandoffStop runs src on two workers until it stops with a RunError of
// kind; a FailCanceled run is canceled once slowblock has started.
func runHandoffStop(t *testing.T, src string, kind FailKind) {
	t.Helper()
	base := goruntime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		var e *Engine
		started := make(chan struct{})
		var consumed atomic.Int64
		g := compile(t, src, handoffOps(&e, started, &consumed))
		e = New(g, Config{Mode: Real, Workers: 2})
		ctx, cancel := context.WithCancel(context.Background())
		if kind == FailCanceled {
			go func() {
				<-started
				cancel()
			}()
		}
		_, err := e.RunContext(ctx)
		cancel()
		var re *RunError
		if !errors.As(err, &re) || re.Kind != kind {
			t.Fatalf("trial %d: err = %v, want a RunError of kind %v", trial, err, kind)
		}
		if n := consumed.Load(); n != 0 {
			t.Errorf("trial %d: the consumer ran %d times after the run stopped", trial, n)
		}
		if st := e.Stats().Blocks; st.Allocated != st.Freed {
			t.Errorf("trial %d: block leak: allocated %d freed %d", trial, st.Allocated, st.Freed)
		}
	}
	settledGoroutines(t, base)
}
