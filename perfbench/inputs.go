package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"phylo"
)

// Everything the program under test receives is generated here from the
// workload seed: PHYLIP bytes, a partition file, Newick strings and JSON
// request bodies. The same seed yields byte-identical inputs.

// alignmentInput is a generated alignment as the program receives it.
type alignmentInput struct {
	phylip     []byte
	partitions string // RAxML-style partition file
	names      []string
}

// parse runs the facade's input path: PHYLIP parse plus partition scheme.
func (in alignmentInput) parse() (*phylo.Alignment, error) {
	al, err := phylo.ReadPhylip(bytes.NewReader(in.phylip))
	if err != nil {
		return nil, fmt.Errorf("parsing alignment: %w", err)
	}
	if err := al.SetPartitionsFromReader(strings.NewReader(in.partitions)); err != nil {
		return nil, fmt.Errorf("parsing partitions: %w", err)
	}
	return al, nil
}

// serialize writes a simulated alignment out as the bytes a user would send.
func serialize(al *phylo.Alignment) (alignmentInput, error) {
	var phy, parts bytes.Buffer
	if err := al.WritePhylip(&phy); err != nil {
		return alignmentInput{}, err
	}
	if err := al.WritePartitions(&parts); err != nil {
		return alignmentInput{}, err
	}
	return alignmentInput{phylip: phy.Bytes(), partitions: parts.String(), names: al.TaxonNames()}, nil
}

// gridInput simulates a DNA alignment of taxa x sites in partitions of
// partLen columns.
func gridInput(taxa, sites, partLen int, seed int64) (alignmentInput, error) {
	al, err := phylo.SimulateGrid(taxa, sites, partLen, 1.0, seed)
	if err != nil {
		return alignmentInput{}, err
	}
	return serialize(al)
}

// mixedInput simulates the mixed DNA+protein alignment of the search
// workload with every partition exactly partLen columns wide. The
// simulator jitters partition lengths by the seed (0.6x to 1.4x of its
// length argument), which would make the workload's size, and with it every
// timing, depend on the seed; so the alignment is simulated at twice the
// length and each partition cut to its first partLen columns.
func mixedInput(taxa, dnaParts, aaParts, partLen int, seed int64) (alignmentInput, error) {
	al, err := phylo.SimulateMixed(taxa, dnaParts, aaParts, 2*partLen, 1.0, seed)
	if err != nil {
		return alignmentInput{}, err
	}
	in, err := serialize(al)
	if err != nil {
		return alignmentInput{}, err
	}
	return cropPartitions(in, partLen)
}

// cropPartitions keeps the first width columns of every partition of a
// serialized alignment (sequential PHYLIP, one "TYPE, name = a-b" line per
// partition) and renumbers the partition ranges to match.
func cropPartitions(in alignmentInput, width int) (alignmentInput, error) {
	var ranges [][2]int
	var parts strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(in.partitions), "\n") {
		head, span, ok := strings.Cut(line, "=")
		from, to, ok2 := strings.Cut(strings.TrimSpace(span), "-")
		a, err1 := strconv.Atoi(from)
		b, err2 := strconv.Atoi(to)
		if !ok || !ok2 || err1 != nil || err2 != nil || b-a+1 < width {
			return alignmentInput{}, fmt.Errorf("cropping partition %q to %d columns", line, width)
		}
		ranges = append(ranges, [2]int{a - 1, a - 1 + width})
		n := len(ranges)
		fmt.Fprintf(&parts, "%s= %d-%d\n", head, (n-1)*width+1, n*width)
	}
	lines := strings.Split(strings.TrimSpace(string(in.phylip)), "\n")
	var phy bytes.Buffer
	fmt.Fprintf(&phy, "%d %d\n", len(lines)-1, len(ranges)*width)
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return alignmentInput{}, fmt.Errorf("cropping PHYLIP row %q", line)
		}
		phy.WriteString(fields[0])
		phy.WriteString("  ")
		for _, r := range ranges {
			phy.WriteString(fields[1][r[0]:r[1]])
		}
		phy.WriteByte('\n')
	}
	return alignmentInput{phylip: phy.Bytes(), partitions: parts.String(), names: in.names}, nil
}

// treeNode is a node of a generated unrooted tree, held rooted at a
// trifurcation for serialization.
type treeNode struct {
	name   string
	kids   []*treeNode
	parent *treeNode
	length float64
}

// randomNewick draws a random unrooted binary topology over names by
// stepwise addition in a shuffled taxon order, with branch lengths uniform
// in [0.01, 0.21), and serializes it with a top-level trifurcation.
func randomNewick(rng *rand.Rand, names []string) string {
	order := rng.Perm(len(names))
	bl := func() float64 { return 0.01 + 0.2*rng.Float64() }
	root := &treeNode{}
	var edges []*treeNode // every non-root node: the edge to its parent
	for _, i := range order[:3] {
		t := &treeNode{name: names[i], parent: root, length: bl()}
		root.kids = append(root.kids, t)
		edges = append(edges, t)
	}
	for _, i := range order[3:] {
		e := edges[rng.Intn(len(edges))]
		mid := &treeNode{parent: e.parent, length: bl()}
		for k, c := range e.parent.kids {
			if c == e {
				e.parent.kids[k] = mid
			}
		}
		tip := &treeNode{name: names[i], parent: mid, length: bl()}
		e.parent = mid
		mid.kids = []*treeNode{e, tip}
		edges = append(edges, mid, tip)
	}
	var b strings.Builder
	writeNewick(&b, root)
	b.WriteByte(';')
	return b.String()
}

func writeNewick(b *strings.Builder, n *treeNode) {
	if len(n.kids) > 0 {
		b.WriteByte('(')
		for k, c := range n.kids {
			if k > 0 {
				b.WriteByte(',')
			}
			writeNewick(b, c)
		}
		b.WriteByte(')')
	} else {
		b.WriteString(n.name)
	}
	if n.parent != nil {
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(n.length, 'f', 5, 64))
	}
}

// evalRequest is one /v1/evaluate body, in the daemon's wire format.
type evalRequest struct {
	Dataset string  `json:"dataset"`
	Tree    string  `json:"tree"`
	Alpha   float64 `json:"alpha,omitempty"`
}

// key identifies the likelihood a request asks for: equal keys must score
// bit-identically.
func (q evalRequest) key() string { return q.Tree + "|" + strconv.FormatFloat(q.Alpha, 'g', -1, 64) }

// Request-mix constants of the serve workload.
const (
	hotTrees  = 8    // size of the hot set of repeated (tree, alpha) pairs
	hotShare  = 0.20 // share of requests drawn from the hot set
	alphaRate = 0.25 // share of requests carrying an alpha override
)

// requestList draws n evaluate requests: about hotShare of them repeat one
// of hotTrees hot (tree, alpha) pairs, the rest are distinct random
// topologies, and about alphaRate of all requests carry an alpha override.
func requestList(seed int64, names []string, n int) []evalRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	draw := func() evalRequest {
		q := evalRequest{Tree: randomNewick(rng, names)}
		if rng.Float64() < alphaRate {
			q.Alpha = 0.2 + float64(rng.Intn(1801))/1000 // [0.2, 2.0] in steps of 0.001
		}
		return q
	}
	hot := make([]evalRequest, hotTrees)
	for i := range hot {
		hot[i] = draw()
	}
	out := make([]evalRequest, n)
	for i := range out {
		if rng.Float64() < hotShare {
			out[i] = hot[rng.Intn(hotTrees)]
		} else {
			out[i] = draw()
		}
	}
	return out
}

// bodies marshals the request list for one dataset handle.
func bodies(reqs []evalRequest, dataset string) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, q := range reqs {
		q.Dataset = dataset
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// startTrees draws n start topologies for the search and bootstrap
// workloads.
func startTrees(seed int64, names []string, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x7ee5))
	out := make([]string, n)
	for i := range out {
		out[i] = randomNewick(rng, names)
	}
	return out
}
