package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"
)

// RunRequestBody is the POST /v1/run payload.
type RunRequestBody struct {
	Tenant string `json:"tenant"`
	Bench  string `json:"bench"`
	Input  int    `json:"input"`
	// DeadlineMillis bounds wall-clock service time (0 = none). An
	// expired deadline aborts the run at a sample boundary and answers
	// 504 without committing any learner state.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Wait opts into backpressure: block for a queue slot instead of
	// taking 429 when the queue is full.
	Wait bool `json:"wait,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /v1/run   — execute one request (RunRequestBody → Response)
//	GET  /v1/stats — Stats snapshot
//	GET  /healthz  — liveness (503 while draining)
//
// Admission maps to status codes: queue full and tenant cap are 429 with
// a Retry-After hint, draining is 503, an expired request deadline is
// 504 (the Response body still carries the canceled status), a trap is
// 200 — a program fault is a legitimate, fully attributed outcome, not a
// server error.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsNow())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var body RunRequestBody
	if err := readJSON(r.Body, &body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if body.Tenant == "" || s.protos[body.Bench] == nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown tenant or benchmark"})
		return
	}
	deadline := time.Duration(body.DeadlineMillis) * time.Millisecond
	var resp *Response
	var err error
	if body.Wait {
		resp, err = s.Submit(r.Context(), body.Tenant, body.Bench, body.Input, deadline)
	} else {
		resp, err = s.TrySubmit(r.Context(), body.Tenant, body.Bench, body.Input, deadline)
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantBusy):
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if resp.Status == "canceled" {
		writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfter estimates how long a rejected client should back off: the
// observed wall p50 latency, floored at one second (Retry-After is whole
// seconds). The histogram read is lock-free (advisory hint, exactness
// not needed).
func (s *Server) retryAfter() string {
	p50 := s.whist.Quantile(0.50)
	secs := int64(time.Duration(p50) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// maxRequestBody bounds POST bodies; run requests are a few dozen bytes.
const maxRequestBody = 1 << 20

// readJSON decodes one JSON value from r.
func readJSON(r io.Reader, v any) error {
	b, err := io.ReadAll(io.LimitReader(r, maxRequestBody))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeJSON answers with v as one newline-terminated JSON value. Setting
// Content-Length keeps the response out of chunked framing.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}
