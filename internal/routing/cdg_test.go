package routing

import (
	"fmt"
	"strings"
	"testing"

	"vix/internal/topology"
)

// channel is one link hop of a route: the output port taken at router,
// restricted to a VC class (Step.Class on a torus: -1, 0 or 1).
type channel struct{ router, port, class int }

// cdg is a channel dependency graph: a vertex per channel, an edge from
// each channel a packet holds to the next one it requests.
type cdg struct {
	t     *topology.Topology
	edges [][]int         // per vertex: successor vertices, first-seen order
	seen  map[[2]int]bool // edges already added
}

// vertex numbers a channel: router, then port, then class -1..1.
func (g *cdg) vertex(c channel) int { return (c.router*g.t.Radix+c.port)*3 + c.class + 1 }

func (g *cdg) channel(v int) channel {
	return channel{router: v / 3 / g.t.Radix, port: v / 3 % g.t.Radix, class: v%3 - 1}
}

// dependencyGraph walks DOR from every source to every destination of t,
// router to router, and adds an edge between each pair of consecutive
// link hops. classOf names a hop's VC class.
func dependencyGraph(t *topology.Topology, classOf func(router, dst int) int) *cdg {
	g := &cdg{t: t, edges: make([][]int, t.NumRouters*t.Radix*3), seen: make(map[[2]int]bool)}
	tab := Compile(t)
	for src := 0; src < t.NumNodes; src++ {
		for dst := 0; dst < t.NumNodes; dst++ {
			prev := -1
			for r := t.NodeRouter[src]; r != t.NodeRouter[dst]; {
				p := tab.Port(r, dst)
				v := g.vertex(channel{r, p, classOf(r, dst)})
				if e := [2]int{prev, v}; prev >= 0 && !g.seen[e] {
					g.seen[e] = true
					g.edges[prev] = append(g.edges[prev], v)
				}
				prev, r = v, int(t.Conn[r][p].PeerRouter)
			}
		}
	}
	return g
}

// cycle returns the channels of one dependency cycle, or nil when the
// graph is acyclic (a depth-first search for a back edge).
func (g *cdg) cycle() []channel {
	const (
		unvisited = iota
		onStack
		done
	)
	state := make([]int, len(g.edges))
	var stack []int
	var found []channel
	var visit func(v int) bool
	visit = func(v int) bool {
		state[v] = onStack
		stack = append(stack, v)
		for _, w := range g.edges[v] {
			switch state[w] {
			case onStack:
				for i := len(stack) - 1; ; i-- {
					found = append([]channel{g.channel(stack[i])}, found...)
					if stack[i] == w {
						return true
					}
				}
			case unvisited:
				if visit(w) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[v] = done
		return false
	}
	for v := range g.edges {
		if state[v] == unvisited && visit(v) {
			return found
		}
	}
	return nil
}

func formatCycle(cs []channel) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("r%d:p%d/c%d", c.router, c.port, c.class)
	}
	return strings.Join(parts, " -> ")
}

// TestChannelDependencyGraphIsAcyclic is deadlock freedom argued from the
// channel dependency graph (Dally & Seitz) rather than from a quiet
// watchdog: over every (src, dst) DOR path, with the VC classes the
// network enforces, no channel can wait on itself. Each flattened
// butterfly dimension is a full mesh, which DOR crosses in one hop (Cano
// et al.), so fbfly needs no classes either.
func TestChannelDependencyGraphIsAcyclic(t *testing.T) {
	for _, topo := range []*topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(4, 4, 2),
		topology.NewFBfly(4, 4, 2),
		topology.NewTorus(4, 4),
		topology.NewTorus(5, 3),
		topology.NewTorus(8, 8),
	} {
		tab := Compile(topo)
		class := func(router, dst int) int { return tab.Step(router, dst).Class }
		if c := dependencyGraph(topo, class).cycle(); c != nil {
			t.Errorf("%s: channel dependency cycle %s", topo.Name, formatCycle(c))
		}
	}
}

// TestTorusNeedsDatelineClasses is the check above with the classes
// removed, so it must find the wraparound cycle the dateline cuts — else
// the acyclicity above proves nothing about the classes. A 4-ring is the
// exception, and the test pins it: minimal routing never travels more
// than two hops around it and an exact tie breaks toward the direct
// direction, so a path that takes a wrap channel takes no other hop in
// that ring, and the ring's dependencies already form a chain.
func TestTorusNeedsDatelineClasses(t *testing.T) {
	oneClass := func(router, dst int) int { return 0 }
	for _, tc := range []struct {
		topo  *topology.Topology
		cycle bool
	}{
		{topology.NewTorus(5, 3), true},
		{topology.NewTorus(8, 8), true},
		{topology.NewTorus(4, 4), false},
	} {
		c := dependencyGraph(tc.topo, oneClass).cycle()
		switch {
		case tc.cycle && c == nil:
			t.Errorf("%s without dateline classes: no dependency cycle found", tc.topo.Name)
		case !tc.cycle && c != nil:
			t.Errorf("%s without dateline classes: cycle %s", tc.topo.Name, formatCycle(c))
		}
	}
}
