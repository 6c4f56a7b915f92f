package main

import (
	"bytes"
	"reflect"
	"testing"

	"phylo"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	a, err := gridInput(serveTaxa, serveSites, servePartLen, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gridInput(serveTaxa, serveSites, servePartLen, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.phylip, b.phylip) || a.partitions != b.partitions {
		t.Error("same seed gave different alignments")
	}
	c, err := gridInput(serveTaxa, serveSites, servePartLen, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.phylip, c.phylip) {
		t.Error("different seeds gave the same alignment")
	}

	m1, err := mixedInput(searchTaxa, searchDNAParts, searchAAParts, searchPartLen, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mixedInput(searchTaxa, searchDNAParts, searchAAParts, searchPartLen, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.phylip, m2.phylip) || m1.partitions != m2.partitions {
		t.Error("same seed gave different mixed alignments")
	}

	if !reflect.DeepEqual(requestList(7, a.names, 300), requestList(7, a.names, 300)) {
		t.Error("same seed gave different request lists")
	}
	if reflect.DeepEqual(requestList(7, a.names, 300), requestList(8, a.names, 300)) {
		t.Error("different seeds gave the same request list")
	}
	q1, err := bodies(requestList(7, a.names, 50), "ds_x")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := bodies(requestList(7, a.names, 50), "ds_x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q1, q2) {
		t.Error("same seed gave different request bodies")
	}
	if !reflect.DeepEqual(startTrees(7, m1.names, 5), startTrees(7, m1.names, 5)) {
		t.Error("same seed gave different start trees")
	}
	if reflect.DeepEqual(startTrees(7, m1.names, 5), startTrees(8, m1.names, 5)) {
		t.Error("different seeds gave the same start trees")
	}
}

func TestRequestMix(t *testing.T) {
	in, err := gridInput(serveTaxa, serveSites, servePartLen, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := requestList(3, in.names, 4000)
	seen := map[string]int{}
	alpha := 0
	for _, q := range reqs {
		seen[q.key()]++
		if q.Alpha > 0 {
			alpha++
		}
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats += n
		}
	}
	if share := float64(repeats) / float64(len(reqs)); share < 0.15 || share > 0.25 {
		t.Errorf("hot-set share %.3f, want about %.2f", share, hotShare)
	}
	if share := float64(alpha) / float64(len(reqs)); share < 0.15 || share > 0.35 {
		t.Errorf("alpha share %.3f, want about %.2f", share, alphaRate)
	}
}

func TestGeneratedTreesParse(t *testing.T) {
	in, err := mixedInput(searchTaxa, searchDNAParts, searchAAParts, searchPartLen, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range startTrees(5, in.names, 20) {
		if d, err := phylo.RobinsonFoulds(nw, nw, in.names); err != nil || d != 0 {
			t.Fatalf("tree %q: RF to itself %d, err %v", nw, d, err)
		}
	}
}
