package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"oovr/internal/experiments"
	"oovr/internal/fleet"
	"oovr/internal/obs"
	"oovr/internal/server"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

// The oovrd-mix request mix. Every request is a spec of the job matrix
// the repository documents for oovrd: `oovrfigures -exp F16 -dump-spec`,
// F16's schedulers (baseline, object, oovr) over the nine cases at default
// frames, which includes the README's quick-start spec
// `oovrsim -bench HL2-1280 -scheme oovr -dump-spec`. A generation is that
// matrix at a seed of its own, so each generation's specs are fresh. No
// recording of real oovrd traffic exists: the spec family, the hit-to-miss
// ratio and the fleet share are assumptions (README.md says what follows
// for the figures).
//
// One client sends rounds in a closed loop. A round takes the next
// generation in a seeded order: fleetPerRound of its specs go to one fleet
// sweep (submit, lease, execute through Server.Result, complete, collect),
// the rest are POST /run misses (writes), and hitsPerMiss times as many
// POST /run requests repeat specs the server has cached (reads), so a
// tenth of /run requests execute. Executions are an eighth of the
// operations, so the operation p50 is a cache hit and the p90 an
// execution, each well inside its class.
const (
	hitsPerMiss   = 9
	fleetPerRound = 6
	// window is how many of the most recently inserted specs hits draw
	// from: far below the server's 4096-entry cache, so a repeat is
	// always cached however many specs a run inserts.
	window = 64
)

// mixOptions are the options whose spec matrix the requests draw from;
// the short mode keeps two cases at two frames.
func mixOptions(cfg config) experiments.Options {
	if cfg.short {
		return experiments.Options{Frames: 2, Cases: workload.Cases()[:2]}
	}
	return experiments.Options{}
}

// mixClient is the one client of the oovrd-mix workload and its record of
// what the server returned.
type mixClient struct {
	b       *bench
	srv     *server.Server
	handler http.Handler

	opts   experiments.Options
	base   int64 // generation g has seed base+g+1
	gen    int64
	recent [][]byte          // request bodies of the last inserted specs
	bodies map[string][]byte // response body per request body

	hits, misses, execs, requests int
	hitLat, missLat               []float64
	fleetSpecs                    int
	fleetSeconds                  float64
}

// newMixServer builds the handler oovrd serves: the job server at / and
// the fleet coordinator at /fleet/, with oovrd's default options, behind
// the access-log middleware with its log line switched off (-quiet).
func newMixServer() (*server.Server, http.Handler) {
	reg := obs.NewRegistry()
	srv := server.New(server.Options{Workers: runtime.NumCPU(), CacheEntries: 4096, Metrics: reg, Role: "coordinator"})
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{LeaseTTL: 15 * time.Second})
	coord.RegisterMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/fleet/", coord)
	mux.Handle("/", srv)
	requests := reg.NewCounterVec("oovr_http_requests_total", "HTTP requests served, by path and status class.", "path", "status")
	return srv, obs.AccessLog(mux, nil, requests)
}

// do sends one request through the handler, as a client of oovrd would.
func (c *mixClient) do(method, path string, body []byte) *httptest.ResponseRecorder {
	c.requests++
	rec := httptest.NewRecorder()
	c.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// run posts one spec to /run and checks the answer. stored is the body
// the spec's miss returned (nil for a fresh spec).
func (c *mixClient) run(req []byte) {
	stored := c.bodies[string(req)]
	c.b.tr.nextOp()
	id := c.b.tr.begin("http.run")
	t0 := now()
	rec := c.do(http.MethodPost, "/run", req)
	d, _ := c.b.op(t0)
	c.b.tr.end(id)
	if rec.Code != http.StatusOK {
		c.b.fail("POST /run: status %d: %s", rec.Code, rec.Body.String())
		return
	}
	hit := rec.Header().Get("X-Oovrd-Cache") == "hit"
	switch {
	case hit && stored == nil:
		c.b.fail("fresh spec answered from cache")
	case !hit && stored != nil:
		c.b.fail("cached spec executed again")
	}
	if hit {
		c.hits++
		c.hitLat = append(c.hitLat, ms(d))
	} else {
		c.misses++
		c.missLat = append(c.missLat, ms(d))
	}
	body := rec.Body.Bytes()
	if err := checkBody(body, stored); err != nil {
		c.b.fail("POST /run: %v", err)
		return
	}
	if stored == nil {
		c.remember(req, body)
	}
	if c.b.tr != nil && hit {
		c.probeHit(req, body)
	}
}

// remember records an inserted spec's body and makes it a hit candidate.
func (c *mixClient) remember(req, body []byte) {
	c.bodies[string(req)] = body
	c.recent = append(c.recent, req)
	if len(c.recent) > window {
		c.recent = c.recent[1:]
	}
}

// generation returns the next generation's request bodies: the spec
// matrix at the generation's seed, each spec in its canonical encoding
// (the line format of -dump-spec).
func (c *mixClient) generation() [][]byte {
	o := c.opts
	o.Seed = c.base + c.gen + 1
	c.gen++
	var out [][]byte
	for _, rs := range experiments.SpecMatrix(o, experiments.FigureSchedulers("F16")) {
		req, err := rs.Canonical()
		if err != nil {
			c.b.fail("encode spec: %v", err)
			continue
		}
		out = append(out, req)
	}
	return out
}

// probeHit times, in the traced run only, the layers a hit crosses below
// HTTP: decoding and hashing the spec, and Server.Result answering it from
// the cache. The direct call counts as one more cache hit.
func (c *mixClient) probeHit(req, body []byte) {
	tr := c.b.tr
	id := tr.begin("spec.decode")
	job, err := spec.DecodeJobBytes(req)
	tr.end(id)
	if err != nil || job.Run == nil {
		c.b.fail("decode spec: %v", err)
		return
	}
	id = tr.begin("spec.hash")
	_, err = job.Run.Hash()
	tr.end(id)
	c.b.check(err)
	id = tr.begin("server.result_hit")
	got, _, hit, err := c.srv.Result(context.Background(), *job.Run)
	tr.end(id)
	c.hits++
	if err != nil || !hit || !bytes.Equal(got, body) {
		c.b.fail("Server.Result on a cached spec: hit %v, err %v, equal body %v", hit, err, bytes.Equal(got, body))
	}
}

// sweep runs one fleet sweep of fresh specs through the /fleet/ protocol,
// acting as the worker: each leased spec executes through Server.Result,
// the seam oovrd -worker shares with /run. An operation is one spec, from
// its lease to its accepted completion.
func (c *mixClient) sweep(specs [][]byte, out *[][]byte) {
	tr := c.b.tr
	n := len(specs)
	raw := make([]json.RawMessage, n)
	for i, s := range specs {
		raw[i] = s
	}
	payload, err := json.Marshal(raw)
	if err != nil {
		c.b.fail("encode sweep: %v", err)
		return
	}
	t0 := time.Now()
	id := tr.begin("fleet.submit")
	rec := c.do(http.MethodPost, "/fleet/submit", payload)
	tr.end(id)
	var sub struct {
		Sweep string `json:"sweep"`
		Total int    `json:"total"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sub) != nil || sub.Total != n {
		c.b.fail("fleet submit: status %d: %s", rec.Code, rec.Body.String())
		return
	}
	executed := map[string][]byte{}
	for {
		tr.nextOp()
		tl := now()
		id := tr.begin("fleet.lease")
		rec := c.do(http.MethodPost, "/fleet/lease", []byte(`{"worker":"perfbench"}`))
		tr.end(id)
		if rec.Code == http.StatusNoContent {
			break
		}
		var g fleet.Grant
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &g) != nil {
			c.b.fail("fleet lease: status %d: %s", rec.Code, rec.Body.String())
			return
		}
		job, err := spec.DecodeJobBytes(g.Spec)
		if err != nil || job.Run == nil {
			c.b.fail("leased spec does not decode: %v", err)
			return
		}
		id = tr.begin("server.result_miss")
		body, _, hit, err := c.srv.Result(context.Background(), *job.Run)
		tr.end(id)
		c.execs++
		if err != nil || hit {
			c.b.fail("fleet execute: hit %v, err %v", hit, err)
			return
		}
		done, err := json.Marshal(struct {
			Lease  int64           `json:"lease"`
			Result json.RawMessage `json:"result"`
		}{g.Lease, body})
		if err != nil {
			c.b.fail("encode completion: %v", err)
			return
		}
		id = tr.begin("fleet.complete")
		rec = c.do(http.MethodPost, "/fleet/complete", done)
		tr.end(id)
		c.b.op(tl)
		var ack struct {
			Accepted bool   `json:"accepted"`
			Reason   string `json:"reason"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ack) != nil || !ack.Accepted {
			c.b.fail("fleet complete: status %d: %s", rec.Code, rec.Body.String())
			return
		}
		executed[g.Hash] = body
	}
	id = tr.begin("fleet.collect")
	rec = c.do(http.MethodGet, "/fleet/collect?sweep="+sub.Sweep, nil)
	tr.end(id)
	c.fleetSeconds += time.Since(t0).Seconds()
	c.fleetSpecs += n
	var st fleet.SweepStatus
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		c.b.fail("fleet collect: status %d: %s", rec.Code, rec.Body.String())
		return
	}
	if !st.Done || st.Completed != n || st.Quarantined != 0 || len(st.Results) != n || len(executed) != n {
		c.b.fail("fleet sweep: done %v, %d/%d completed, %d quarantined, %d executed",
			st.Done, st.Completed, n, st.Quarantined, len(executed))
		return
	}
	for i, res := range st.Results {
		r, err := fleet.DecodeVerifiedResult(res)
		if err != nil {
			c.b.fail("fleet result: %v", err)
			continue
		}
		if !bytes.Equal(res, executed[r.SpecHash]) {
			c.b.fail("fleet result for %.12s differs from the executed body", r.SpecHash)
			continue
		}
		c.remember(specs[i], res)
		*out = append(*out, res)
	}
}

// runOovrdMix measures rounds of the request mix against a server whose
// cache holds the hit set.
func runOovrdMix(b *bench) {
	fleetN := fleetPerRound
	if b.cfg.short {
		fleetN = 1
	}
	var c *mixClient
	// Set-up: start the server and fill its cache with the hit set, the
	// first generation.
	b.setup(3, func() {
		srv, h := newMixServer()
		c = &mixClient{b: b, srv: srv, handler: h, opts: mixOptions(b.cfg), base: b.cfg.seed << 20, bodies: map[string][]byte{}}
		for _, req := range c.generation() {
			rec := c.do(http.MethodPost, "/run", req)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Oovrd-Cache") != "miss" {
				b.fail("filling the cache: status %d, cache %q", rec.Code, rec.Header().Get("X-Oovrd-Cache"))
				continue
			}
			body := rec.Body.Bytes()
			b.check(checkBody(body, nil))
			c.remember(req, body)
		}
	})
	if len(c.recent) <= fleetN {
		b.fail("the hit set holds %d specs, a round sends %d to the fleet", len(c.recent), fleetN)
		return
	}
	filled := len(c.bodies)
	hitSet := append([][]byte(nil), c.recent...)
	c.requests = 0

	rng := rand.New(rand.NewSource(b.cfg.seed))
	var firstRound [][]byte
	b.measure(b.cfg.seconds, func(r int) {
		gen := c.generation()
		rng.Shuffle(len(gen), func(i, j int) { gen[i], gen[j] = gen[j], gen[i] })
		misses := gen[fleetN:]
		reqs := make([][]byte, 0, len(misses)*(1+hitsPerMiss))
		reqs = append(reqs, misses...)
		for range len(misses) * hitsPerMiss {
			reqs = append(reqs, nil) // a repeat, drawn when it is sent
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		for _, req := range reqs {
			if req == nil {
				req = c.recent[rng.Intn(len(c.recent))]
			}
			c.run(req)
			if r == 0 {
				firstRound = append(firstRound, c.bodies[string(req)])
			}
		}
		var out [][]byte
		c.sweep(gen[:fleetN], &out)
		if r == 0 {
			firstRound = append(firstRound, out...)
		}
	})
	b.digest = digest(bytes.Join(firstRound, []byte{'\n'}))
	b.wl["requests_per_s"] = float64(c.requests) / b.elapsed

	// /stats must agree with the client's own count of hits and misses.
	rec := c.do(http.MethodGet, "/stats", nil)
	var st server.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		b.fail("GET /stats: %v", err)
	} else if st.CacheHits != int64(c.hits) || st.CacheMisses != int64(c.misses+c.execs+filled) {
		b.fail("/stats counts %d hits, %d misses; the client saw %d hits, %d misses",
			st.CacheHits, st.CacheMisses, c.hits, c.misses+c.execs+filled)
	}
	// A sample of the hit set re-run directly, outside the server, must give
	// the Metrics the server returned. Its simulated work is the workload's
	// seed-determined count.
	var counts simCounts
	for _, i := range []int{0, len(hitSet) / 2, len(hitSet) - 1} {
		req := hitSet[i]
		rs, err := spec.Decode(bytes.NewReader(req))
		if err != nil {
			b.fail("decode sample spec: %v", err)
			continue
		}
		res, err := spec.DecodeResult(c.bodies[string(req)])
		if err != nil {
			b.fail("decode sample result: %v", err)
			continue
		}
		m, phases, err := b.execute(rs)
		want, _ := json.Marshal(res.Metrics)
		got, _ := json.Marshal(m)
		if err != nil || !bytes.Equal(got, want) {
			b.fail("spec seed %d re-run directly: metrics differ from the server's (err %v)", rs.Seed, err)
		}
		counts.add(m, phases)
	}

	b.wl["hit_ms_p50"] = quantile(c.hitLat, 0.5)
	b.wl["hit_ms_p90"] = quantile(c.hitLat, 0.9)
	b.wl["miss_ms_p50"] = quantile(c.missLat, 0.5)
	b.wl["miss_ms_p90"] = quantile(c.missLat, 0.9)
	b.wl["fleet_specs_per_s"] = float64(c.fleetSpecs) / c.fleetSeconds
	b.linef("requests_per_s %.4g; %d hits p50 %.4gms p90 %.4gms; %d misses p50 %.4gms p90 %.4gms; fleet %d specs at %.4g specs/s",
		b.wl["requests_per_s"], len(c.hitLat), b.wl["hit_ms_p50"], b.wl["hit_ms_p90"],
		len(c.missLat), b.wl["miss_ms_p50"], b.wl["miss_ms_p90"], c.fleetSpecs, b.wl["fleet_specs_per_s"])
	if b.tr != nil {
		counts.report(b.layer)
		b.layer["server.runs"] = float64(st.Runs)
		b.layer["server.cache_hits"] = float64(st.CacheHits)
		b.layer["server.single_flight_waits"] = float64(st.SingleFlightWaits)
		b.spanQuantile("server.hit_us_p50", "server.result_hit", 0.5, time.Microsecond)
		b.spanQuantile("spec.decode_us_p50", "spec.decode", 0.5, time.Microsecond)
		b.spanQuantile("spec.hash_us_p50", "spec.hash", 0.5, time.Microsecond)
		b.spanQuantile("spec.resolve_us_p50", "spec.resolve", 0.5, time.Microsecond)
		b.spanQuantile("spec.execute_ms_p50", "spec.execute", 0.5, time.Millisecond)
		b.spanQuantile("spec.encode_us_p50", "spec.encode", 0.5, time.Microsecond)
		b.spanQuantile("fleet.lease_us_p50", "fleet.lease", 0.5, time.Microsecond)
		b.spanQuantile("fleet.complete_us_p50", "fleet.complete", 0.5, time.Microsecond)
		b.spanQuantile("fleet.submit_ms", "fleet.submit", 0.5, time.Millisecond)
		b.spanQuantile("fleet.collect_ms", "fleet.collect", 0.5, time.Millisecond)
	}
}
