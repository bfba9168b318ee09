package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// BatchRequest is the POST /tenants/{id}/batch payload.
type BatchRequest struct {
	// Queries names workload queries to run (empty = the whole workload),
	// each repeated Repeat times (default 1).
	Queries []string `json:"queries"`
	Repeat  int      `json:"repeat"`
	// LimitSec is the per-query §4.2 time limit in simulated seconds
	// (0 = none).
	LimitSec float64 `json:"limit_sec"`
	// Priority 0 is sheddable under overload tier 2; >= 1 is normal
	// traffic (default 1 when omitted).
	Priority *int `json:"priority"`
	// DeadlineMS bounds the request (queueing + execution) in wall-clock
	// milliseconds, 0 (none) to MaxDeadlineMS; the deadline propagates into
	// the engine batch.
	DeadlineMS int64 `json:"deadline_ms"`
}

// maxBody bounds a request body: a tenant spec, or maxBatchPositions query
// names many times over.
const maxBody = 1 << 20

// MaxDeadlineMS bounds a batch's deadline_ms at an hour, far below where
// its conversion to a time.Duration would overflow.
const MaxDeadlineMS = 3_600_000

// BatchResponse is the JSON answer for an executed (or deadline-cut)
// batch.
type BatchResponse struct {
	Tenant       string  `json:"tenant"`
	Requested    int     `json:"requested"`
	Completed    int     `json:"completed"`
	SimSeconds   float64 `json:"sim_seconds"`
	Aborts       int     `json:"aborts"`
	DeadlineMiss bool    `json:"deadline_miss"`
	Cancelled    bool    `json:"cancelled"`
	WallMS       float64 `json:"wall_ms"`
	Tier         int     `json:"tier"`
}

type errorResponse struct {
	Error         string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// Handler builds the service's HTTP API:
//
//	POST   /tenants              create a tenant (TenantSpec body)
//	GET    /tenants              list tenants with stats
//	DELETE /tenants/{id}         delete a tenant
//	POST   /tenants/{id}/batch   submit a query batch (admission-controlled)
//	GET    /tenants/{id}/stats   per-tenant stats (never queued, never shed)
//	GET    /tenants/{id}/explain?query=q1  plan of a workload query
//	GET    /healthz              liveness + tier (never queued, never shed)
//	GET    /readyz               readiness (503 until recovery completes)
//	GET    /statz                global service stats
//
// The mutating tenant paths (create, delete, batch) are gated on
// readiness: until recovery completes they answer 503 + Retry-After so a
// restarting process never serves traffic against half-rebuilt tenants.
// healthz stays liveness-only and answers 200 throughout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tenants", s.gateReady(s.handleCreateTenant))
	mux.HandleFunc("GET /tenants", s.handleListTenants)
	mux.HandleFunc("DELETE /tenants/{id}", s.gateReady(s.handleDeleteTenant))
	mux.HandleFunc("POST /tenants/{id}/batch", s.gateReady(s.handleBatch))
	mux.HandleFunc("GET /tenants/{id}/stats", s.handleTenantStats)
	mux.HandleFunc("GET /tenants/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

// gateReady rejects request-path traffic with 503 + Retry-After until
// the server is ready (recovery complete).
func (s *Server) gateReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: "serve: recovering", RetryAfterSec: 1,
			})
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeShed answers a load-shed with 429 + Retry-After — the graceful-
// degradation contract: clients learn when to come back instead of
// piling on.
func (s *Server) writeShed(w http.ResponseWriter, err error) {
	retry := s.RetryAfter()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), RetryAfterSec: retry})
}

// decodeBody decodes a JSON body of at most maxBody bytes into v. On
// failure it answers 413 (too large) or 400 itself and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorResponse{Error: "bad " + what + ": " + err.Error()})
	return false
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if !decodeBody(w, r, "tenant spec", &spec) {
		return
	}
	t, err := s.CreateTenant(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, t.Stats())
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	list := s.TenantList()
	out := make([]TenantStats, len(list))
	for i, t := range list {
		out[i] = t.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	switch err := s.DeleteTenant(r.PathValue("id")); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
	case errors.Is(err, ErrUnknownTenant):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t, ok := s.Tenant(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: ErrUnknownTenant.Error()})
		return
	}
	var req BatchRequest
	if !decodeBody(w, r, "batch request", &req) {
		return
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("serve: deadline_ms %d outside [0, %d]", req.DeadlineMS, MaxDeadlineMS),
		})
		return
	}
	priority := 1
	if req.Priority != nil {
		priority = *req.Priority
	}
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	wait, err := s.SubmitBatch(ctx, t, req.Queries, req.Repeat, req.LimitSec, priority)
	switch {
	case err == nil:
	case IsShed(err):
		s.writeShed(w, err)
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrUnknownTenant):
		// The tenant was deleted between the handler's lookup and admission.
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	res, err := wait()
	switch {
	case err == nil:
	case errors.Is(err, ErrCancelled):
		// Admitted but withdrawn before execution (tenant deleted or server
		// drained): the work never ran, so this is not a success.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		Tenant:       t.Spec.ID,
		Requested:    res.Requested,
		Completed:    res.Completed,
		SimSeconds:   res.SimSeconds,
		Aborts:       res.Aborts,
		DeadlineMiss: res.DeadlineMiss,
		Cancelled:    res.Cancelled,
		WallMS:       float64(time.Since(start).Microseconds()) / 1000,
		Tier:         int(s.Tier()),
	})
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.Tenant(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: ErrUnknownTenant.Error()})
		return
	}
	writeJSON(w, http.StatusOK, t.Stats())
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	t, ok := s.Tenant(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: ErrUnknownTenant.Error()})
		return
	}
	name := r.URL.Query().Get("query")
	plan, sec, err := t.Explain(name)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": t.Spec.ID, "query": name, "plan": plan, "est_seconds": sec,
	})
}

// handleHealth never queues and is never shed: it reads only atomics and
// lock-free published engine views, so it answers even while every worker
// is saturated.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"tier":        int(s.Tier()),
		"tier_name":   s.Tier().String(),
		"queue_depth": s.sched.depth(),
		"inflight":    s.sched.inflightTotal(),
		"tenants":     len(s.TenantList()),
	})
}

// handleReady is the readiness probe: 503 while recovery is in flight,
// 200 with the recovery report once the server accepts traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"recovery": s.Recovery(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// String implements fmt.Stringer for log lines.
func (s *Server) String() string {
	st := s.Stats()
	return fmt.Sprintf("serve: %d tenants, tier %s, %d served, %d shed, depth %d",
		st.Tenants, st.TierName, st.Served, st.ShedQueue+st.ShedPriority, st.QueueDepth)
}
