package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestEvaluateRejectsNon2xxAndBadReplies(t *testing.T) {
	for _, c := range []struct {
		name string
		code int
		body string
	}{
		{"quota", http.StatusTooManyRequests, `{"error":"queue full"}`},
		{"server error", http.StatusInternalServerError, `{"error":"boom"}`},
		{"bad json", http.StatusOK, `{"lnl":`},
		{"no bits", http.StatusOK, `{"lnl":-1.5}`},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.code)
			w.Write([]byte(c.body))
		}))
		if _, err := evaluate(newClient(), ts.URL, "t", []byte(`{}`)); err == nil {
			t.Errorf("%s: evaluate returned no error", c.name)
		}
		ts.Close()
	}
}

// TestFailuresCountedAndExcluded runs a closed loop against a real daemon
// behind a handler that fails every third request, then corrupts one good
// reply: both kinds of failure must be counted and must not contribute
// latency samples.
func TestFailuresCountedAndExcluded(t *testing.T) {
	in, err := gridInput(serveTaxa, serveSites, servePartLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := startDaemon(serveConfig(1), in.phylip)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			http.Error(w, "injected", http.StatusServiceUnavailable)
			return
		}
		d.srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	reqs := requestList(1, in.names, 12)
	body, err := bodies(reqs, d.id)
	if err != nil {
		t.Fatal(err)
	}
	results, _ := closedLoop(flaky.URL, 1, body, 0, len(body), time.Time{}, nil)
	log, err := checkReplies(in.phylip, reqs, results)
	if err != nil {
		t.Fatal(err)
	}
	if log.attempted != 12 || log.failed != 4 || len(log.latMS) != 8 {
		t.Fatalf("attempted %d failed %d samples %d; want 12, 4, 8", log.attempted, log.failed, len(log.latMS))
	}

	// Corrupt the first good reply's score: every request of that key fails.
	bad := -1
	for i, r := range results {
		if r.err == nil {
			bad = i
			break
		}
	}
	results[bad].reply.LnLBits = "0000000000000001"
	same := 0
	for i, r := range results {
		if r.err == nil && reqs[i].key() == reqs[bad].key() {
			same++
		}
	}
	log, err = checkReplies(in.phylip, reqs, results)
	if err != nil {
		t.Fatal(err)
	}
	if log.failed != 4+same || len(log.latMS) != 8-same {
		t.Fatalf("after corrupting a reply: failed %d samples %d; want %d, %d", log.failed, len(log.latMS), 4+same, 8-same)
	}
}
