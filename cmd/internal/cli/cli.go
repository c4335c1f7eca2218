// Package cli holds the flag plumbing shared by the delirium, delc, and
// delprof commands: source loading, operator-registry selection, machine
// profiles, and argument parsing.
package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/machine"
	"repro/internal/operator"
	"repro/internal/queens"
	"repro/internal/ray"
	"repro/internal/retina"
	"repro/internal/runtime"
	"repro/internal/stress"
	"repro/internal/value"
)

// LoadSource reads a program from a file path, or stdin for "-".
func LoadSource(path string) (name, src string, err error) {
	if path == "-" {
		data := make([]byte, 0, 4096)
		buf := make([]byte, 4096)
		for {
			n, rerr := os.Stdin.Read(buf)
			data = append(data, buf[:n]...)
			if rerr != nil {
				break
			}
		}
		return "<stdin>", string(data), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	return path, string(data), nil
}

// Registry returns the operator registry named by -app: "" or "builtins"
// for the standard library alone, or one of the bundled applications whose
// operators a .dlr program may call.
func Registry(app string) (*operator.Registry, error) {
	switch app {
	case "", "builtins":
		return operator.Builtins(), nil
	case "queens":
		return queens.Operators(), nil
	case "retina":
		return retina.Operators(retina.DefaultConfig())
	case "ray":
		return ray.Operators(ray.DefaultConfig())
	case "circuit":
		return circuit.Operators(circuit.DefaultConfig())
	case "stress":
		return stress.Operators(), nil
	default:
		return nil, fmt.Errorf("unknown -app %q (want builtins, queens, retina, ray, circuit, or stress)", app)
	}
}

// MeanWeight computes the mean column of a timing summary: the mean cost
// rounded half-up, floored at 1 so a sub-unit mean never truncates to a
// "free" operator, and 0 for zero-call summaries (possible when a faulted or
// budget-aborted run recorded an operator name with no completed calls)
// instead of dividing by zero.
func MeanWeight(total int64, calls int) int64 {
	if calls <= 0 {
		return 0
	}
	w := (total + int64(calls)/2) / int64(calls)
	if w < 1 {
		w = 1
	}
	return w
}

// Machine resolves a -machine name to a profile.
func Machine(name string) (*machine.Profile, error) {
	switch strings.ToLower(name) {
	case "", "cray", "ymp", "cray-ymp":
		return machine.CrayYMP(), nil
	case "cray2", "cray-2":
		return machine.Cray2(), nil
	case "sequent":
		return machine.Sequent(), nil
	case "butterfly":
		return machine.Butterfly(), nil
	case "workstation", "uni":
		return machine.Uniprocessor(), nil
	default:
		return nil, fmt.Errorf("unknown -machine %q (want cray, cray2, sequent, butterfly, workstation)", name)
	}
}

// Affinity resolves a -affinity name to a policy.
func Affinity(name string) (runtime.AffinityPolicy, error) {
	switch strings.ToLower(name) {
	case "", "none":
		return runtime.AffinityNone, nil
	case "operator", "op":
		return runtime.AffinityOperator, nil
	case "data":
		return runtime.AffinityData, nil
	default:
		return 0, fmt.Errorf("unknown -affinity %q (want none, operator, data)", name)
	}
}

// ParseArgs converts command-line strings to main's argument values:
// integers, floats, the literals true/false/NULL, and strings otherwise.
func ParseArgs(raw []string) []value.Value {
	out := make([]value.Value, len(raw))
	for i, s := range raw {
		switch {
		case s == "true":
			out[i] = value.Bool(true)
		case s == "false":
			out[i] = value.Bool(false)
		case s == "NULL":
			out[i] = value.Null{}
		default:
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				out[i] = value.Int(n)
				continue
			}
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				out[i] = value.Float(f)
				continue
			}
			out[i] = value.Str(s)
		}
	}
	return out
}
