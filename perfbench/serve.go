package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/serve"
	"repro/internal/simcache"
)

// serveParams shapes the serve probe's request stream.
type serveParams struct {
	distinct int // distinct bodies, at most len(serveCombos())
	repeats  int // requests per distinct body, the first included
	rounds   int // closed-loop passes over the stream, each on a fresh server
}

// defaultServe is the probe's stream: 60 seeded combinations, three
// quarters of the requests repeats, sent three times.
var defaultServe = serveParams{distinct: 60, repeats: 4, rounds: 3}

// serveSlots is serve.Config.MaxConcurrent, and the client connections.
const serveSlots = 2

// runBody is one POST /run body.
type runBody struct {
	App     string           `json:"app"`
	Procs   int              `json:"procs"`
	Policy  string           `json:"policy"`
	Perturb string           `json:"perturb,omitempty"`
	Params  map[string]int64 `json:"params,omitempty"`
}

var (
	serveProcs    = []int{1, 4, 8, 16}
	servePolicies = []string{"original", "bounded", "aggressive", "dynamic", "serial"}
	servePerturbs = []string{"", "crossover", "ramp", "periodic", "skew"}
	// serveSerialWork are the overrides of the serial work parameter a body
	// may carry; apps.TestParams sets 4000.
	serveSerialWork = []int64{2000, 8000}
)

// serveCombos lists every application × procs × policy × perturbation
// combination, in a fixed order.
func serveCombos() []runBody {
	var out []runBody
	for _, app := range apps.Names {
		for _, procs := range serveProcs {
			for _, policy := range servePolicies {
				for _, pert := range servePerturbs {
					out = append(out, runBody{App: app, Procs: procs, Policy: policy, Perturb: pert})
				}
			}
		}
	}
	return out
}

// stream is a seeded request stream: distinct bodies and the body of each
// request.
type stream struct {
	bodies [][]byte
	reqs   []int
}

// genStream draws a stream from the seed. Its distinct bodies are
// p.distinct combinations in a seeded order, each with no override or a
// seeded override of the serial work, so that every seed asks for about
// the same simulation work. The stream has p.repeats requests per
// distinct body: with 4, three quarters of the requests repeat an earlier
// body. Arrivals are Poisson at p.rate.
func genStream(seed int64, p serveParams) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	combos := serveCombos()
	if p.distinct < 1 || p.distinct > len(combos) || p.repeats < 1 {
		return nil, fmt.Errorf("a stream of %d bodies requested %d times each does not fit %d combinations",
			p.distinct, p.repeats, len(combos))
	}
	s := &stream{}
	for _, k := range rng.Perm(len(combos))[:p.distinct] {
		b := combos[k]
		if v := rng.Intn(len(serveSerialWork) + 1); v < len(serveSerialWork) {
			b.Params = map[string]int64{"serialwork": serveSerialWork[v]}
		}
		data, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, data)
	}
	// The first request and p.distinct-1 seeded others introduce the next
	// body; every other request repeats one of the bodies introduced so
	// far, chosen uniformly, so misses are spread evenly over the stream.
	total := p.distinct * p.repeats
	fresh := map[int]bool{0: true}
	for _, k := range rng.Perm(total - 1)[:p.distinct-1] {
		fresh[k+1] = true
	}
	introduced := 0
	for i := 0; i < total; i++ {
		if fresh[i] {
			s.reqs = append(s.reqs, introduced)
			introduced++
		} else {
			s.reqs = append(s.reqs, rng.Intn(introduced))
		}
	}
	return s, nil
}

// server is an in-process serve.Server on a loopback listener, as
// dfserved runs it, with a client limited to serveSlots connections.
type server struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan error
}

// startServer starts a server; with a non-empty dir it serves repeated
// requests from a memory-plus-disk simulation cache in dir.
func startServer(dir string) (*server, error) {
	cfg := serve.Config{
		Workers:       1,
		MaxConcurrent: serveSlots,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if dir != "" {
		c, err := simcache.New(simcache.Config{Dir: dir})
		if err != nil {
			return nil, err
		}
		cfg.Cache = c
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/run",
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: serveSlots, MaxIdleConnsPerHost: serveSlots,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// reply is one /run response as the client saw it.
type reply struct {
	status      int
	body        []byte
	cached      bool
	serverNS    int64
	sent, done  time.Time
	canonicalOK bool
}

// post sends one body and reads the whole response.
func (s *server) post(body []byte) (reply, error) {
	r := reply{sent: time.Now()}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.body, err = io.ReadAll(resp.Body)
	r.done = time.Now()
	r.status = resp.StatusCode
	return r, err
}

// canonical strips the fields that depend on host timing or cache state
// from a /run response, and returns them: what is left must be identical
// for one body.
func canonical(body []byte) (rest []byte, cached bool, wallNS int64, err error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, false, 0, err
	}
	cached, _ = m["cached"].(bool)
	wall, _ := m["wall_ns"].(float64)
	delete(m, "wall_ns")
	delete(m, "cached")
	rest, err = json.Marshal(m)
	return rest, cached, int64(wall), err
}

// drive sends the requests of st back to back from serveSlots clients (a
// closed loop) and returns one reply per request.
func drive(s *server, st *stream, tr *tracer, parent, run int) []reply {
	replies := make([]reply, len(st.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveSlots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.begin(parent, run, "lane")
			defer tr.end(lane)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.reqs) {
					return
				}
				id := tr.begin(lane, run, "serve.request")
				r, err := s.post(st.bodies[st.reqs[i]])
				tr.end(id)
				if err != nil {
					r.status = -1
					r.body = []byte(err.Error())
				}
				replies[i] = r
			}
		}()
	}
	wg.Wait()
	return replies
}

// references computes the expected canonical response of every distinct
// body from a server without a simulation cache.
func references(cfg config, st *stream) ([][]byte, error) {
	s, err := startServer("")
	if err != nil {
		return nil, err
	}
	distinct := &stream{bodies: st.bodies}
	for i := range st.bodies {
		distinct.reqs = append(distinct.reqs, i)
	}
	replies := drive(s, distinct, nil, 0, 0)
	if err := s.stop(); err != nil {
		return nil, err
	}
	refs := make([][]byte, len(replies))
	for i, r := range replies {
		if r.status != http.StatusOK {
			return nil, fmt.Errorf("reference for %s: status %d: %s", st.bodies[i], r.status, r.body)
		}
		if refs[i], _, _, err = canonical(r.body); err != nil {
			return nil, err
		}
	}
	if cfg.tamper != nil {
		cfg.tamper("reference", refs)
	}
	return refs, nil
}

// check compares each reply with its body's reference; a mismatch or a
// status other than 200 is one failed operation.
func check(out *outcome, st *stream, refs [][]byte, replies []reply, round int) {
	for i := range replies {
		r := &replies[i]
		out.attempted++
		if r.status != http.StatusOK {
			out.fail("serve round %d request %d: status %d: %s", round, i, r.status, r.body)
			continue
		}
		got, cached, wallNS, err := canonical(r.body)
		if err != nil || !bytes.Equal(got, refs[st.reqs[i]]) {
			out.fail("serve round %d request %d: response differs from the reference for %s", round, i, st.bodies[st.reqs[i]])
			continue
		}
		r.canonicalOK, r.cached, r.serverNS = true, cached, wallNS
	}
}

// probeServe drives an in-process serve.Server over loopback HTTP, as
// dfserved -simcache DIR runs it, with the seeded stream: every traced run
// ends with it, so the serve layer (HTTP and JSON, request validation,
// CacheKey hashing, the memory tier) is measured whatever the workload.
// Set-up records each distinct body's reference response from a server
// without a cache; each round then sends the whole stream from two
// clients to a fresh server with a memory-plus-disk cache. Every request
// is an operation, checked against its reference.
func probeServe(cfg config, out *outcome, tr *tracer) error {
	p := cfg.serve
	if p.distinct == 0 {
		p = defaultServe
	}
	st, err := genStream(cfg.seed, p)
	if err != nil {
		return err
	}
	refs, err := references(cfg, st)
	if err != nil {
		return err
	}
	var lat, hits, simMS, overhead, capacity []float64
	cachedN, okN := 0, 0
	for k := 0; k < max(p.rounds, 1); k++ {
		run := -200 - k
		s, err := startServer(filepath.Join(cfg.work, fmt.Sprintf("serve-%d", k)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		id := tr.begin(0, run, "serve.pass")
		replies := drive(s, st, tr, id, run)
		tr.end(id)
		capacity = append(capacity, float64(len(replies))/time.Since(t0).Seconds())
		if err := s.stop(); err != nil {
			return err
		}
		check(out, st, refs, replies, k)
		for _, r := range replies {
			if !r.canonicalOK {
				continue
			}
			c := ms(r.done.Sub(r.sent))
			lat = append(lat, c)
			overhead = append(overhead, c-float64(r.serverNS)/1e6)
			okN++
			if r.cached {
				cachedN++
				hits = append(hits, c)
			} else {
				simMS = append(simMS, float64(r.serverNS)/1e6)
			}
		}
	}
	out.layer["serve.run_p50_ms"] = quantile(lat, 0.5)
	out.layer["serve.run_p99_ms"] = quantile(lat, 0.99)
	out.layer["serve.capacity_rps"] = median(capacity)
	out.layer["serve.hit_ms"] = median(hits)
	out.layer["serve.sim_ms"] = median(simMS)
	out.layer["serve.overhead_ms"] = median(overhead)
	if okN > 0 {
		out.layer["simcache.hit_ratio"] = float64(cachedN) / float64(okN)
	}
	out.details["serve_probe"] = map[string]any{"requests": len(st.reqs), "distinct": len(st.bodies),
		"rounds": max(p.rounds, 1), "clients": serveSlots, "samples": len(lat)}
	return nil
}
