package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evolvevm/internal/harness"
	"evolvevm/internal/interp"
	"evolvevm/internal/serve"
	"evolvevm/internal/traffic"
)

// reqRec is one timed request as its client saw it.
type reqRec struct {
	// LatMs is the latency the client saw, from send to answer.
	LatMs float64 `json:"lat"`
	// ExecMs is the server's Response.Wall (execution on the chain).
	ExecMs float64 `json:"exec"`
	// DoneS is the completion time in seconds from the window start.
	DoneS float64 `json:"done"`
	// Fail names why the request failed ("" on success): rejected,
	// canceled, error, or mismatch (output check).
	Fail    string  `json:"fail,omitempty"`
	Det     bool    `json:"det,omitempty"` // deterministic outcome: ok or trap
	Pred    bool    `json:"pred,omitempty"`
	Speedup float64 `json:"spd,omitempty"`
}

// servePass is one timed pass of a serving workload. Each pass runs in
// a fresh process, so every pass starts from the same cold state.
type servePass struct {
	SetupS        float64  `json:"setup_s"`
	WindowS       float64  `json:"window_s"`
	Recs          []reqRec `json:"recs"`
	HeapMB        float64  `json:"heap_mb"`
	AllocKBPerReq float64  `json:"alloc_kb_per_req"`
	GCCycles      float64  `json:"gc_cycles"`
	CheckpointMs  float64  `json:"checkpoint_ms"`
	// Ledger is Server.LedgerBalanced's error after the window, if any.
	Ledger string `json:"ledger,omitempty"`
	// Problems lists the output mismatches.
	Problems []string `json:"problems,omitempty"`
}

func (w *workload) serverConfig() serve.Config {
	return serve.Config{
		Workers:     clients(),
		EpochLength: w.Epoch,
		Scenario:    harness.ScenarioEvolve,
		Seed:        corpusSeed,
		CorpusSize:  w.Corpus,
		Benches:     w.Benches,
	}
}

// clients is the worker and connection count: one per CPU.
func clients() int { return runtime.NumCPU() }

// runServePass builds a server, warms it with the workload's untimed
// prefix, drives the timed window, and checks every outcome. With
// checkpoint it also times Server.Checkpoint after the window.
func runServePass(ctx context.Context, w *workload, seed int64, checkpoint bool) (*servePass, error) {
	tr, err := traffic.Generate(w.genConfig(seed))
	if err != nil {
		return nil, err
	}
	warm, timed := tr.Requests[:w.Warm], tr.Requests[w.Warm:]

	p := &servePass{Recs: make([]reqRec, len(timed))}
	start := time.Now()
	s, err := serve.New(w.serverConfig())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.RunClients(ctx, &traffic.Trace{Version: traffic.TraceVersion, Requests: warm}, clients()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p.SetupS = time.Since(start).Seconds()

	resps := make([]*serve.Response, len(timed))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	switch w.Kind {
	case "closed":
		closedLoop(timed, p.Recs, resps, func(req traffic.Request) (*serve.Response, string) {
			resp, err := s.TrySubmit(ctx, req.Tenant, req.Bench, req.Input, 0)
			if err != nil {
				return nil, failKind(err)
			}
			return resp, ""
		})
	case "http":
		if err := closedLoopHTTP(ctx, s, timed, p.Recs, resps); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("workload %s: kind %q is not a serving workload", w.Name, w.Kind)
	}
	runtime.ReadMemStats(&after)
	for _, r := range p.Recs {
		p.WindowS = max(p.WindowS, r.DoneS)
	}
	p.AllocKBPerReq = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(timed))
	p.GCCycles = float64(after.NumGC - before.NumGC)
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.HeapMB = float64(after.HeapAlloc) / (1 << 20)

	if err := s.LedgerBalanced(); err != nil {
		p.Ledger = err.Error()
	}
	if checkpoint {
		cp := time.Now()
		if err := s.Checkpoint(io.Discard); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		p.CheckpointMs = msSince(cp)
	}

	ref, err := newReference(w.Benches, w.Corpus, corpusSeed)
	if err != nil {
		return nil, err
	}
	for i, resp := range resps {
		rec := &p.Recs[i]
		if resp == nil {
			continue
		}
		rec.ExecMs = float64(resp.Wall) / float64(time.Millisecond)
		if resp.Status == traffic.StatusCanceled {
			rec.Fail = "canceled"
			continue
		}
		rec.Det, rec.Pred, rec.Speedup = true, resp.Predicted, resp.Speedup
		if err := ref.check(ctx, resp.Bench, resp.InputID, resp.Status, resp.Value, resp.Trap); err != nil {
			rec.Fail = "mismatch"
			p.Problems = append(p.Problems, err.Error())
		}
	}
	return p, nil
}

// closedLoop drives reqs from one client goroutine per CPU; each client
// takes the next request from a shared cursor as soon as its previous
// one answers. send returns the response, or why the request failed.
func closedLoop(reqs []traffic.Request, recs []reqRec, resps []*serve.Response, send func(traffic.Request) (*serve.Response, string)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				sent := time.Now()
				resps[i], recs[i].Fail = send(reqs[i])
				recs[i].LatMs = msSince(sent)
				recs[i].DoneS = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
}

func failKind(err error) string {
	var cerr *interp.CanceledError
	switch {
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrTenantBusy):
		return "rejected"
	case errors.As(err, &cerr):
		return "canceled"
	}
	return "error"
}

// closedLoopHTTP serves s.Handler() on a loopback listener and drives it
// closed loop over HTTP.
func closedLoopHTTP(ctx context.Context, s *serve.Server, reqs []traffic.Request, recs []reqRec, resps []*serve.Response) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/v1/run"

	// One keep-alive connection per client.
	tr := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients(), DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}
	closedLoop(reqs, recs, resps, func(req traffic.Request) (*serve.Response, string) {
		return post(ctx, cl, url, serve.RunRequestBody{Tenant: req.Tenant, Bench: req.Bench, Input: req.Input})
	})
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http serve: %w", err)
	}
	return nil
}

// post sends one run request and decodes the answer. It returns the
// response for 200 (ok or trap) and otherwise the failure kind.
func post(ctx context.Context, cl *http.Client, url string, body serve.RunRequestBody) (*serve.Response, string) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, "error"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, "error"
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := cl.Do(req)
	if err != nil {
		return nil, "error"
	}
	defer res.Body.Close()
	// Read to EOF so the keep-alive connection is reused.
	raw, err = io.ReadAll(res.Body)
	if err != nil {
		return nil, "error"
	}
	switch res.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return nil, "rejected"
	case http.StatusGatewayTimeout:
		return nil, "canceled"
	default:
		return nil, "error"
	}
	var resp serve.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, "error"
	}
	return &resp, ""
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
