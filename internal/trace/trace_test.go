package trace

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventSize holds the event at 72 bytes: the node-start event carries the
// operator mark and the task's provenance in what was padding.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 72 {
		t.Errorf("Event is %d bytes, want at most 72", n)
	}
}

// TestTimingDerivation checks the rules that turn node brackets into timing
// entries: only an operator that succeeded gets one, a bracket whose end
// names another node pairs nothing, and a task pushed by another worker is
// stolen while a seed (-1) is not.
func TestTimingDerivation(t *testing.T) {
	tr := &Trace{Unit: Nanos, Workers: 2, Events: [][]Event{
		{
			{Type: NodeStart, Op: true, Worker: 0, Node: 1, Ts: 10, Arg: 0, Name: "a", Tmpl: "main"},
			{Type: Deliver, Worker: 0, Node: 2, Ts: 12},
			{Type: NodeEnd, Worker: 0, Node: 1, Ts: 15},
			{Type: NodeStart, Worker: 0, Node: 3, Ts: 16, Arg: 0, Name: "call", Tmpl: "main"},
			{Type: NodeEnd, Worker: 0, Node: 3, Ts: 17},
			{Type: NodeStart, Op: true, Worker: 0, Node: 4, Ts: 18, Arg: -1, Name: "seed", Tmpl: "main"},
			{Type: NodeEnd, Worker: 0, Node: 4, Ts: 20},
		},
		{
			{Type: NodeStart, Op: true, Worker: 1, Node: 2, Ts: 20, Arg: 0, Name: "b", Tmpl: "main"},
			{Type: NodeEnd, Worker: 1, Node: 2, Ts: 25, Arg: 1},
			{Type: NodeStart, Op: true, Worker: 1, Node: 2, Ts: 30, Arg: 1, Name: "b", Tmpl: "main"},
			{Type: NodeEnd, Worker: 1, Node: 2, Ts: 32},
			{Type: NodeStart, Op: true, Worker: 1, Node: 5, Ts: 33, Arg: 0, Name: "c", Tmpl: "main"},
			{Type: NodeEnd, Worker: 1, Node: 6, Ts: 34},
		},
		nil,
	}}
	got := tr.Timing().Entries()
	want := []TimingEntry{
		{Name: "a", Template: "main", Proc: 0, Start: 10, Ticks: 5},
		{Name: "seed", Template: "main", Proc: 0, Start: 18, Ticks: 2},
		{Name: "b", Template: "main", Proc: 1, Start: 30, Ticks: 2}, // pushed by worker 1, ran on it
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries:\n got %+v\nwant %+v", got, want)
	}
	tr.Events[1][2].Arg = 0 // pushed by worker 0, ran on worker 1
	if got := tr.Timing().Entries(); !got[2].Stolen {
		t.Errorf("entry %+v not marked stolen", got[2])
	}
}
