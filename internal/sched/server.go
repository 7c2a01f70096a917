package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matmul"
	"repro/internal/navp"
)

// Server is the scheduler's HTTP API. Register mounts it on a mux —
// typically the one returned by wire.DebugHandler, so the
// serving surface and the runtime's /metrics and pprof endpoints share
// one listener:
//
//	POST /jobs             submit (JSON body, see SubmitRequest)
//	GET  /jobs             list retained jobs
//	GET  /jobs/{id}        one job's status
//	GET  /jobs/{id}/result result, exactly once (410 after retrieval)
//	POST /jobs/{id}/cancel cancel/evict
//
// Backpressure surfaces as 429 (queue full); submitting after shutdown
// as 503.
type Server struct {
	sched *Scheduler
}

// NewServer wraps a scheduler.
func NewServer(s *Scheduler) *Server { return &Server{sched: s} }

// SubmitRequest is the POST /jobs body. Kind selects the program:
//
//	"wirematmul"  {n, seed}            integer matmul on the shared cluster
//	"matmul"      {stage, n, bs, p}    a simulated paper stage (stage 0-6)
//	"plan"        {rows, cols, pes, flops, variant}
//	              a GridSweep core.Plan: variant dsc | pipeline | phase
type SubmitRequest struct {
	Kind       string   `json:"kind"`
	Priority   Priority `json:"priority,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
	Retries    int      `json:"retries,omitempty"`

	N    int   `json:"n,omitempty"`
	Seed int64 `json:"seed,omitempty"`

	Stage int `json:"stage,omitempty"`
	BS    int `json:"bs,omitempty"`
	P     int `json:"p,omitempty"`

	Rows    int     `json:"rows,omitempty"`
	Cols    int     `json:"cols,omitempty"`
	PEs     int     `json:"pes,omitempty"`
	Flops   float64 `json:"flops,omitempty"`
	Variant string  `json:"variant,omitempty"`
}

// SubmitResponse is the POST /jobs reply.
type SubmitResponse struct {
	ID uint64 `json:"id"`
}

// work builds the Work a request describes.
func (r *SubmitRequest) work() (Work, error) {
	switch r.Kind {
	case "wirematmul":
		n := r.N
		if n <= 0 {
			n = 8
		}
		return WireMatmul{N: n, Seed: r.Seed}, nil
	case "matmul":
		if r.Stage < 0 || r.Stage >= len(matmul.Stages) {
			return nil, fmt.Errorf("stage %d out of range [0,%d]", r.Stage, len(matmul.Stages)-1)
		}
		cfg := matmul.Config{N: r.N, BS: r.BS, P: r.P,
			HW: machine.SunBlade100(), NavP: navp.DefaultConfig(), Seed: r.Seed}
		if cfg.N <= 0 {
			cfg.N, cfg.BS, cfg.P = 64, 16, 2
		}
		return MatmulStage{Stage: matmul.Stages[r.Stage], Cfg: cfg}, nil
	case "plan":
		rows, cols := r.Rows, r.Cols
		if rows <= 0 {
			rows = 4
		}
		if cols <= 0 {
			cols = 4
		}
		pes := r.PEs
		if pes <= 0 || pes > cols {
			pes = cols
		}
		flops := r.Flops
		if flops <= 0 {
			flops = 1e6
		}
		items := core.GridSweep(rows, cols, flops, func(j int) int { return j * pes / cols })
		plan := core.DSC("sweep", items, 256)
		groupByRow := func(it core.Item) string {
			var i, j int
			fmt.Sscanf(it.ID, "it(%d,%d)", &i, &j)
			return fmt.Sprintf("row%d", i)
		}
		switch r.Variant {
		case "", "dsc":
		case "pipeline":
			plan = core.Pipeline(plan, groupByRow)
		case "phase":
			plan = core.PhaseShift(core.Pipeline(plan, groupByRow), nil)
		default:
			return nil, fmt.Errorf("unknown plan variant %q (want dsc, pipeline, or phase)", r.Variant)
		}
		return PlanRun{Plan: plan, PEs: pes}, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want wirematmul, matmul, or plan)", r.Kind)
	}
}

// Register mounts the API on mux.
func (sv *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", sv.handleSubmit)
	mux.HandleFunc("GET /jobs", sv.handleList)
	mux.HandleFunc("GET /jobs/{id}", sv.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", sv.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", sv.handleCancel)
	mux.HandleFunc("POST /jobs/{id}/suspend", sv.handleSuspend)
	mux.HandleFunc("POST /jobs/{id}/resume", sv.handleResume)
	mux.HandleFunc("GET /cluster/nodes", sv.handleNodes)
	mux.HandleFunc("POST /cluster/drain", sv.handleDrain)
	mux.HandleFunc("POST /cluster/refresh", sv.handleRefresh)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (sv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad submit body: %w", err))
		return
	}
	// 400 is reserved for bodies that do not parse; a body that parses
	// but describes an impossible job (unknown kind, out-of-range stage)
	// is semantically invalid — 422.
	work, err := req.work()
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	id, err := sv.sched.Submit(Spec{
		Work:     work,
		Priority: req.Priority,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
		Retries:  req.Retries,
	})
	switch {
	case errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
	}
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sv.sched.Jobs())
}

// jobID parses the {id} path segment.
func jobID(r *http.Request) (uint64, error) {
	id, err := strconv.ParseUint(strings.TrimSpace(r.PathValue("id")), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad job id %q", r.PathValue("id"))
	}
	return id, nil
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := sv.sched.Status(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (sv *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := sv.sched.Result(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotDone):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrResultConsumed):
		writeErr(w, http.StatusGone, err)
	case err != nil: // failed / evicted
		writeErr(w, http.StatusUnprocessableEntity, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "result": res})
	}
}

func (sv *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := sv.sched.Cancel(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
}

func (sv *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch err := sv.sched.Suspend(id); {
	case errors.Is(err, ErrUnknownJob):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotSuspendable):
		writeErr(w, http.StatusConflict, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "suspended": true})
	}
}

func (sv *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch err := sv.sched.Resume(id); {
	case errors.Is(err, ErrUnknownJob):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotSuspended):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "resumed": true})
	}
}

func (sv *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	live := sv.sched.liveNodes()
	if live == nil {
		live = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"live": live})
}

func (sv *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad node %q", r.URL.Query().Get("node")))
		return
	}
	var timeout time.Duration
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", ms))
			return
		}
		timeout = time.Duration(v) * time.Millisecond
	}
	if err := sv.sched.DrainNode(node, timeout); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": node, "drained": true})
}

func (sv *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if err := sv.sched.Refresh(); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": sv.sched.liveNodes()})
}
