package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Dot renders the program's templates in Graphviz DOT format — the
// coordination-framework visualization tool of the paper's environment
// (§1). Each template becomes a cluster; conditional branch subtemplates
// nest inside their owner.
func (p *Program) Dot() string {
	var b strings.Builder
	b.WriteString("digraph delirium {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n")
	names := make([]string, 0, len(p.Templates))
	for name := range p.Templates {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		writeTemplate(&b, p.Templates[name], fmt.Sprintf("t%d", i), 1)
	}
	b.WriteString("}\n")
	return b.String()
}

// DotTemplate renders a single template.
func DotTemplate(t *Template) string {
	var b strings.Builder
	b.WriteString("digraph template {\n  rankdir=TB;\n")
	writeTemplate(&b, t, "t0", 1)
	b.WriteString("}\n")
	return b.String()
}

func writeTemplate(b *strings.Builder, t *Template, prefix string, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%ssubgraph cluster_%s {\n", ind, prefix)
	fmt.Fprintf(b, "%s  label=%q;\n", ind, t.Name)
	sub := 0
	for _, n := range t.Nodes {
		fmt.Fprintf(b, "%s  %s_n%d [label=%q, shape=%s];\n", ind, prefix, n.ID, nodeLabel(t, n), nodeShape(n))
		if n.Kind == CondNode {
			tp := fmt.Sprintf("%s_s%d", prefix, sub)
			ep := fmt.Sprintf("%s_s%d", prefix, sub+1)
			sub += 2
			writeTemplate(b, n.Then, tp, depth+1)
			writeTemplate(b, n.Else, ep, depth+1)
			fmt.Fprintf(b, "%s  %s_n%d -> %s_n%d [style=dashed, label=\"then\"];\n", ind, prefix, n.ID, tp, n.Then.Result)
			fmt.Fprintf(b, "%s  %s_n%d -> %s_n%d [style=dashed, label=\"else\"];\n", ind, prefix, n.ID, ep, n.Else.Result)
		}
	}
	for _, n := range t.Nodes {
		for _, e := range n.Out {
			fmt.Fprintf(b, "%s  %s_n%d -> %s_n%d [label=\"%d\"];\n", ind, prefix, n.ID, prefix, e.To, e.Port)
		}
	}
	fmt.Fprintf(b, "%s  %s_n%d [penwidth=2];\n", ind, prefix, t.Result)
	fmt.Fprintf(b, "%s}\n", ind)
}

func nodeLabel(t *Template, n *Node) string {
	switch n.Kind {
	case ParamNode:
		return fmt.Sprintf("param %d: %s", n.Index, n.Name)
	case ConstNode:
		return "const " + n.Const.String()
	case OpNode:
		return n.Name
	case CallNode:
		tag := "call"
		if n.Tail {
			tag = "tail-call"
		}
		return fmt.Sprintf("%s %s", tag, n.Name)
	case CallClosureNode:
		if n.Tail {
			return "tail-call-closure"
		}
		return "call-closure"
	case CondNode:
		return "cond"
	case MakeClosureNode:
		return "closure " + n.Name
	case TupleNode:
		return fmt.Sprintf("<%d-tuple>", n.NIn)
	case DetupleNode:
		return fmt.Sprintf("select %d", n.Index)
	default:
		return n.Kind.String()
	}
}

func nodeShape(n *Node) string {
	switch n.Kind {
	case ParamNode, ConstNode:
		return "ellipse"
	case CondNode:
		return "diamond"
	case CallNode, CallClosureNode, MakeClosureNode:
		return "octagon"
	default:
		return "box"
	}
}
