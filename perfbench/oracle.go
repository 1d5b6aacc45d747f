package main

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"dkbms/internal/rel"
	"dkbms/internal/workload"
)

// The oracle computes every expected answer on the benchmark side, from
// the benchmark's own model of the data, never from the program under
// test: closed forms on the full binary tree, BFS on graphs.

// treeLevel returns the level of heap-ordered tree node i (root = 1).
func treeLevel(i int) int { return bits.Len(uint(i)) }

// levelNodes returns the heap indices of the nodes on a tree level.
func levelNodes(level int) (lo, hi int) { return 1 << (level - 1), 1<<level - 1 }

// descendants returns the names of every proper descendant of node k in
// a full binary tree of the given depth: the ancestor(tk, W) answer.
func descendants(k, depth int) []string {
	var out []string
	n := workload.TreeNodes(depth)
	for lo, hi := 2*k, 2*k+1; lo <= n; lo, hi = 2*lo, 2*hi+1 {
		for i := lo; i <= hi; i++ {
			out = append(out, workload.TreeNode(i))
		}
	}
	return out
}

// sameGeneration returns every node on node k's level: the sg(tk, W)
// answer when flat relates each node to itself.
func sameGeneration(k int) []string {
	lo, hi := levelNodes(treeLevel(k))
	out := make([]string, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, workload.TreeNode(i))
	}
	return out
}

// graph is an adjacency list over node names.
type graph map[string][]string

func newGraph(edges []rel.Tuple) graph {
	g := make(graph)
	for _, e := range edges {
		g[e[0].Str] = append(g[e[0].Str], e[1].Str)
	}
	return g
}

// reachable returns every node reachable from src by a path of at least
// one edge (BFS): the reach(src, Y) and ancestor(src, Y) answers.
func (g graph) reachable(src string) []string {
	seen := make(map[string]bool)
	queue := append([]string(nil), g[src]...)
	for _, n := range queue {
		seen[n] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g[n] {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}

// answer is an expected answer: one sorted key per row.
type answer []string

func newAnswer(rows []string) answer {
	a := append(answer(nil), rows...)
	sort.Strings(a)
	return a
}

// rowKey renders a tuple as its columns joined by commas.
func rowKey(t rel.Tuple) string {
	if len(t) == 1 {
		return t[0].String()
	}
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

// check compares returned rows to the expected answer as sets.
func (a answer) check(rows []rel.Tuple) error {
	if len(rows) != len(a) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(a))
	}
	got := make([]string, len(rows))
	for i, t := range rows {
		got[i] = rowKey(t)
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != a[i] {
			return fmt.Errorf("row %q, want %q", got[i], a[i])
		}
	}
	return nil
}

// bounds checks an answer that may lag or lead concurrent writes: it
// must contain every row of base and stay inside base plus extra.
func bounds(rows []rel.Tuple, base map[string]bool, extra func(string) bool) error {
	seen := 0
	for _, t := range rows {
		k := rowKey(t)
		if base[k] {
			seen++
		} else if !extra(k) {
			return fmt.Errorf("row %q outside base closure and inserted edges", k)
		}
	}
	if seen < len(base) {
		return fmt.Errorf("%d of %d base rows", seen, len(base))
	}
	return nil
}
