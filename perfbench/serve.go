package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phylo"
	"phylo/internal/server"
)

// The serve workload: plkd serving model-scoring traffic in a closed loop.
// An in-process server with the plkd defaults (except Threads = nproc)
// listens on loopback; a 48-taxon DNA alignment of about 2k sites in
// 1000-column partitions is submitted once as raw PHYLIP, and nproc
// clients, each its own tenant on its own kept-alive connection, post
// /v1/evaluate with explicit Newick trees and wait for each reply.
const (
	serveTaxa    = 48
	serveSites   = 2000
	servePartLen = 1000
	serveWarmup  = 40  // requests sent before measuring, not counted
	serveTraced  = 400 // requests per phase of the traced run
	serveChunk   = 50  // traced-run requests per alternation of HTTP and replay
	// serveOracleSample bounds how many distinct non-hot keys the oracle
	// re-scores; every hot key is always checked.
	serveOracleSample = 48
)

// serveConfig is the daemon configuration under test: the plkd defaults
// with Threads = nproc.
func serveConfig(threads int) server.Config { return server.Config{Threads: threads} }

// daemon is one running server behind a loopback listener.
type daemon struct {
	srv *server.Server
	ts  *httptest.Server
	id  string // dataset handle
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Drain(context.Background())
}

// evalReply is the part of a /v1/evaluate response the benchmark checks.
type evalReply struct {
	LnLBits   string `json:"lnl_bits"`
	Coalesced bool   `json:"coalesced"`
}

// reqResult is the outcome of one request.
type reqResult struct {
	sent  bool
	lat   time.Duration
	reply evalReply
	err   error
}

// newClient returns an HTTP client holding one kept-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one request and reads the whole reply. A transport error or a
// non-2xx status is an error.
func post(c *http.Client, url, contentType, tenant string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// evaluate posts one evaluate body and decodes the reply.
func evaluate(c *http.Client, base, tenant string, body []byte) (evalReply, error) {
	b, err := post(c, base+"/v1/evaluate", "application/json", tenant, body)
	if err != nil {
		return evalReply{}, err
	}
	var r evalReply
	if err := json.Unmarshal(b, &r); err != nil {
		return evalReply{}, fmt.Errorf("decoding reply: %w", err)
	}
	if _, err := strconv.ParseUint(r.LnLBits, 16, 64); err != nil {
		return evalReply{}, fmt.Errorf("reply lnl_bits %q: %v", r.LnLBits, err)
	}
	return r, nil
}

// startDaemon starts a server and submits the alignment; the submit round
// trip is returned as the set-up time.
func startDaemon(cfg server.Config, phylip []byte) (*daemon, time.Duration, error) {
	srv := server.New(cfg)
	d := &daemon{srv: srv, ts: httptest.NewServer(srv)}
	c := newClient()
	defer c.CloseIdleConnections()
	start := time.Now()
	b, err := post(c, d.ts.URL+"/v1/datasets?data_type=dna&partition_len="+strconv.Itoa(servePartLen), "text/plain", "setup", phylip)
	took := time.Since(start)
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("submitting dataset: %w", err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &info); err != nil || info.ID == "" {
		d.close()
		return nil, 0, fmt.Errorf("submit reply %q: %v", b, err)
	}
	d.id = info.ID
	return d, took, nil
}

// setupDaemon repeats the daemon set-up on fresh servers (so every submit
// builds), appending each submit time to took, and keeps the last daemon
// running when keep is set.
func setupDaemon(cfg server.Config, phylip []byte, took *[]float64, keep bool) (*daemon, error) {
	var d *daemon
	err := setupRepeat(func() error {
		if d != nil {
			d.close()
			d = nil
		}
		nd, t, err := startDaemon(cfg, phylip)
		if err != nil {
			return err
		}
		d = nd
		*took = append(*took, t.Seconds())
		return nil
	})
	if (err != nil || !keep) && d != nil {
		d.close()
		d = nil
	}
	return d, err
}

// closedLoop has clients post bodies[from:to] in order, each client waiting
// for its reply before taking the next index, until the list ends or the
// deadline passes (zero deadline: run the whole list). Results are indexed
// like bodies; rec, if non-nil, gets one span per request.
func closedLoop(base string, clients int, bodies [][]byte, from, to int, deadline time.Time, rec *spanRecorder) ([]reqResult, time.Duration) {
	results := make([]reqResult, len(bodies))
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			tenant := "tenant-" + strconv.Itoa(c)
			for {
				i := int(next.Add(1) - 1)
				if i >= to || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				t0 := time.Now()
				reply, err := evaluate(client, base, tenant, bodies[i])
				lat := time.Since(t0)
				results[i] = reqResult{sent: true, lat: lat, reply: reply, err: err}
				if rec != nil {
					rec.add(span{name: "http.evaluate", id: rec.newID(), op: int64(i) + 1, tid: c, start: t0, dur: lat})
				}
			}
		}(c)
	}
	wg.Wait()
	return results, time.Since(start)
}

// oracleScore evaluates one request on the oracle dataset.
func oracleScore(ds *phylo.Dataset, q evalRequest) (float64, error) {
	an, err := ds.NewAnalysis(phylo.AnalysisOptions{StartTreeNewick: q.Tree, Seed: 1})
	if err != nil {
		return 0, err
	}
	defer an.Close()
	if q.Alpha > 0 {
		if err := an.SetAlpha(-1, q.Alpha); err != nil {
			return 0, err
		}
	}
	return an.LogLikelihood(), nil
}

// serveAlignment parses the submitted bytes the way the daemon does for a
// raw DNA submission with uniform partitions.
func serveAlignment(phylip []byte) (*phylo.Alignment, error) {
	al, err := phylo.ReadPhylip(bytes.NewReader(phylip))
	if err != nil {
		return nil, err
	}
	return al, al.SetUniformPartitions(phylo.DNA, servePartLen)
}

// checkReplies applies the serve correctness checks and returns the
// operation log. Every reply for one (tree, alpha) key must carry identical
// bits; every hot key and a sample of the other keys must agree with a
// fresh session on the oracle dataset to 1e-9 relative. A failed check
// fails every request of that key.
func checkReplies(phylip []byte, reqs []evalRequest, results []reqResult) (*opLog, error) {
	al, err := serveAlignment(phylip)
	if err != nil {
		return nil, err
	}
	ods, err := phylo.NewDataset(al, oracleOptions())
	if err != nil {
		return nil, err
	}
	defer ods.Close()
	count := map[string]int{}
	for _, q := range reqs {
		count[q.key()]++
	}
	bad := map[string]error{}
	first := map[string]string{}
	var keys []string
	for i, r := range results {
		if !r.sent || r.err != nil {
			continue
		}
		k := reqs[i].key()
		if bits, seen := first[k]; !seen {
			first[k] = r.reply.LnLBits
			keys = append(keys, k)
		} else if bits != r.reply.LnLBits && bad[k] == nil {
			bad[k] = fmt.Errorf("key %d: replies disagree: %s vs %s", i, bits, r.reply.LnLBits)
		}
	}
	byKey := map[string]evalRequest{}
	for _, q := range reqs {
		byKey[q.key()] = q
	}
	sampled := 0
	stride := len(keys)/serveOracleSample + 1
	for n, k := range keys {
		if count[k] < 2 {
			if n%stride != 0 || sampled >= serveOracleSample {
				continue
			}
			sampled++
		}
		want, err := oracleScore(ods, byKey[k])
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		bits, _ := strconv.ParseUint(first[k], 16, 64)
		if got := math.Float64frombits(bits); !relClose(got, want, 1e-9) && bad[k] == nil {
			bad[k] = fmt.Errorf("lnL %.12g, oracle %.12g", got, want)
		}
	}
	log := &opLog{}
	for i, r := range results {
		if !r.sent {
			continue
		}
		err := r.err
		if err == nil {
			err = bad[reqs[i].key()]
		}
		if err != nil && log.failed < 10 {
			fmt.Println("request failed:", err)
		}
		log.add(r.lat, err)
	}
	return log, nil
}

// serveRequests generates the request list for a run: enough for 300
// requests per client per second, more than a client completes here.
func serveRequests(seed int64, names []string, clients int, seconds float64) []evalRequest {
	return requestList(seed, names, serveWarmup+serveTraced+int(seconds*300)*clients)
}

func runServe(cfg runConfig) (report, error) {
	in, err := gridInput(serveTaxa, serveSites, servePartLen, cfg.seed)
	if err != nil {
		return report{}, err
	}
	reqs := serveRequests(cfg.seed, in.names, cfg.clients, cfg.seconds)
	scfg := serveConfig(cfg.threads)
	var setup []float64
	d, err := setupDaemon(scfg, in.phylip, &setup, true)
	if err != nil {
		return report{}, err
	}
	defer d.close()
	body, err := bodies(reqs, d.id)
	if err != nil {
		return report{}, err
	}
	closedLoop(d.ts.URL, cfg.clients, body, 0, serveWarmup, time.Time{}, nil)
	if cfg.trace {
		return traceServe(cfg, in, d, reqs, body)
	}

	before := readMem()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	results, elapsed := closedLoop(d.ts.URL, cfg.clients, body, serveWarmup, len(body), deadline, nil)
	alloc := before.allocMB(readMem())
	if _, err := setupDaemon(scfg, in.phylip, &setup, false); err != nil {
		return report{}, err
	}
	log, err := checkReplies(in.phylip, reqs, results)
	if err != nil {
		return report{}, err
	}
	m := metrics{}
	endToEnd(m, log, elapsed, median(setup), alloc, 1)
	fmt.Printf("latency samples %d\n", len(log.latMS))
	return report{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
}
