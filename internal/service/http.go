package service

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"columndisturb/internal/dispatch"
	"columndisturb/internal/experiments"
)

// Handler exposes the service over HTTP (`cdlab serve`). Every route
// lives under the versioned /v1 prefix — the API the client package
// (RemoteRunner) speaks; unversioned paths are not served:
//
//	GET    /v1/experiments           list runnable experiments
//	GET    /v1/profiles              list named configuration profiles
//	GET    /v1/jobs                  list submitted jobs
//	POST   /v1/jobs                  submit a JobSpec (experiment, profile, overrides, no_cache)
//	GET    /v1/jobs/<id>             one job's status
//	DELETE /v1/jobs/<id>             cancel the job
//	GET    /v1/jobs/<id>/events      stream the job's events as JSON lines (?from=N resumes at Seq N)
//	GET    /v1/jobs/<id>/report      fetch the finished report (?format=text)
//	GET    /v1/jobs/<id>/trace       the job's span set (obs.TraceRecord; DESIGN.md §13)
//	GET    /v1/metrics               fleet metrics in the Prometheus text format
//
// When the service runs on the distributed dispatch backend (a
// Dispatcher in Options), the worker protocol mounts alongside — these
// are the verbs `cdlab worker` speaks (wire bodies in internal/dispatch):
//
//	GET    /v1/workers                     list attached workers
//	POST   /v1/workers                     register (RegisterRequest → RegisterResponse)
//	POST   /v1/workers/<id>/heartbeat      renew the liveness deadline
//	DELETE /v1/workers/<id>                deregister, requeueing held leases
//	POST   /v1/workers/<id>/lease          long-poll for a task (?wait_ms=N; 200 LeaseGrant or 204)
//	POST   /v1/workers/<id>/tasks/<task>   complete a lease (CompleteRequest)
//
// The events endpoint streams application/x-ndjson with the versioned
// envelope (Event, "v":1): by default the job's history replays first and
// live events follow until the terminal event closes the stream; with
// ?from=N the replay starts at sequence N, so a consumer that lost its
// connection resumes exactly where it stopped — a complete, gap-free Seq
// sequence no matter when or how often it connects.
//
// The wire structs (JobSpec, JobStatus, ReportPayload, HTTPExperimentInfo,
// HTTPProfileInfo, APIError) are shared with the client package: both ends
// marshal the same types, so the codec cannot drift.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/profiles", s.handleProfiles)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	if s.opts.Dispatcher != nil {
		mux.HandleFunc("/v1/workers", s.handleWorkers)
		mux.HandleFunc("/v1/workers/", s.handleWorker)
	}
	if s.opts.AuthToken != "" {
		return authMiddleware(s.opts.AuthToken, mux)
	}
	return mux
}

// authMiddleware gates mutating verbs behind a bearer token. Reads stay
// open — reports, event streams, worker listings and /v1/metrics carry no
// authority to change anything, and the metrics endpoint in particular
// must remain scrapable by collectors that hold no secrets. Tokens are
// compared as SHA-256 digests under crypto/subtle so the comparison is
// constant-time and indifferent to length mismatches.
func authMiddleware(token string, next http.Handler) http.Handler {
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		got := sha256.Sum256([]byte(strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")))
		if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="cdlab"`)
			writeError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// JobStatus is the JSON shape of one job in listings and status responses
// (shared client/server wire type).
type JobStatus struct {
	ID         string            `json:"id"`
	Experiment string            `json:"experiment"`
	Profile    string            `json:"profile"`
	Overrides  map[string]string `json:"overrides,omitempty"`
	NoCache    bool              `json:"no_cache,omitempty"`
	State      string            `json:"state"`
	TraceID    string            `json:"trace_id,omitempty"`
	Done       int               `json:"done"`
	Total      int               `json:"total"`
	CacheHits  int               `json:"cache_hits"`
	CacheMiss  int               `json:"cache_misses"`
	ElapsedMs  float64           `json:"elapsed_ms"`
	Error      string            `json:"error,omitempty"`
}

// ReportPayload is the JSON encoding of a finished report (shared
// client/server wire type). Text is the canonical rendering — the exact
// bytes a local run's Result.String() produces, which is what makes a
// remote report byte-comparable to a local one.
type ReportPayload struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes"`
	Text    string     `json:"text"`
}

// HTTPExperimentInfo is one entry of the /v1/experiments listing.
type HTTPExperimentInfo struct {
	ID    string `json:"id"`
	Paper string `json:"paper"`
	Title string `json:"title"`
}

// HTTPProfileInfo is one entry of the /v1/profiles listing.
type HTTPProfileInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// APIError is the JSON body of every non-2xx response.
type APIError struct {
	Error string `json:"error"`
}

func statusOf(j *Job) JobStatus {
	done, total := j.Progress()
	hits, misses := j.CacheCounts()
	st := JobStatus{
		ID:         j.ID(),
		Experiment: j.Spec().Experiment,
		Profile:    j.Profile(),
		Overrides:  j.Spec().Overrides,
		NoCache:    j.Spec().NoCache,
		State:      string(j.State()),
		TraceID:    j.TraceID(),
		Done:       done,
		Total:      total,
		CacheHits:  hits,
		CacheMiss:  misses,
		ElapsedMs:  float64(j.Elapsed().Microseconds()) / 1000,
	}
	if j.State().terminal() {
		if _, err := j.Result(); err != nil {
			st.Error = err.Error()
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
}

func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	out := []HTTPExperimentInfo{}
	for _, e := range experiments.All() {
		out = append(out, HTTPExperimentInfo{ID: e.ID, Paper: e.Paper, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	out := []HTTPProfileInfo{}
	for _, p := range experiments.Profiles() {
		out = append(out, HTTPProfileInfo{Name: p.Name, Description: p.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		out := []JobStatus{}
		for _, j := range s.Jobs() {
			out = append(out, statusOf(j))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read job spec: %v", err)
			return
		}
		spec, err := DecodeJobSpec(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		j, err := s.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrClosed) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, statusOf(j))
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleJob routes /v1/jobs/<id>[/events|/report|/trace].
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, statusOf(j))
		case http.MethodDelete:
			j.Cancel()
			writeJSON(w, http.StatusAccepted, statusOf(j))
		default:
			writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
		}
	case "events":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		s.streamEvents(w, r, j)
	case "report":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		s.serveReport(w, r, j)
	case "trace":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		writeJSON(w, http.StatusOK, j.Trace())
	default:
		writeError(w, http.StatusNotFound, "unknown endpoint %q", sub)
	}
}

func (s *Service) streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	from := 0
	if raw := r.URL.Query().Get("from"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from=%q: want a non-negative sequence number", raw)
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for ev := range j.EventsFrom(r.Context(), from) {
		if _, err := w.Write(ev.EncodeJSONL()); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleMetrics renders every registered metric in the Prometheus text
// exposition format. The registry snapshot never blocks recording paths,
// so scraping mid-run is free.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handleWorkers serves the /v1/workers collection: GET lists the attached
// workers, POST registers a new one.
func (s *Service) handleWorkers(w http.ResponseWriter, r *http.Request) {
	d := s.opts.Dispatcher
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, d.RemoteWorkers())
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<10))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read register request: %v", err)
			return
		}
		var reg dispatch.RegisterRequest
		if len(body) > 0 {
			if err := json.Unmarshal(body, &reg); err != nil {
				writeError(w, http.StatusBadRequest, "bad register request: %v", err)
				return
			}
		}
		resp, err := d.Register(reg.Name, reg.Capacity)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleWorker routes /v1/workers/<id>[/heartbeat|/lease|/tasks/<task>].
func (s *Service) handleWorker(w http.ResponseWriter, r *http.Request) {
	d := s.opts.Dispatcher
	rest := strings.TrimPrefix(r.URL.Path, "/v1/workers/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, http.StatusNotFound, "missing worker ID")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodDelete:
		if err := d.Deregister(id); err != nil {
			writeWorkerError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case sub == "heartbeat" && r.Method == http.MethodPost:
		if err := d.Heartbeat(id); err != nil {
			writeWorkerError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case sub == "lease" && r.Method == http.MethodPost:
		wait := 1 * time.Second
		if raw := r.URL.Query().Get("wait_ms"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "bad wait_ms=%q", raw)
				return
			}
			wait = time.Duration(n) * time.Millisecond
		}
		// The dispatcher caps the long-poll at half the lease TTL itself,
		// so a worker that asks for an hour still re-proves liveness at
		// lease-TTL cadence.
		grant, err := d.Lease(r.Context(), id, wait)
		if err != nil {
			if r.Context().Err() != nil {
				// The client severed the connection mid-poll: nobody is
				// reading, so write nothing (in particular not a 204 that
				// would mislead connection-reuse middleboxes).
				return
			}
			writeWorkerError(w, err)
			return
		}
		if grant == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, grant)
	case strings.HasPrefix(sub, "tasks/") && r.Method == http.MethodPost:
		taskID := strings.TrimPrefix(sub, "tasks/")
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read completion: %v", err)
			return
		}
		var comp dispatch.CompleteRequest
		if err := json.Unmarshal(body, &comp); err != nil {
			writeError(w, http.StatusBadRequest, "bad completion: %v", err)
			return
		}
		if err := d.Complete(id, taskID, comp.Result, comp.Error); err != nil {
			writeWorkerError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusNotFound, "unknown worker endpoint %q %s", sub, r.Method)
	}
}

// writeWorkerError maps dispatch sentinels onto worker-protocol status
// codes: 404 tells a worker to re-register, 410 tells it the lease moved
// on, 503 tells it the server is shutting down.
func writeWorkerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, dispatch.ErrUnknownWorker):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, dispatch.ErrNoLease):
		writeError(w, http.StatusGone, "%v", err)
	case errors.Is(err, dispatch.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Service) serveReport(w http.ResponseWriter, r *http.Request, j *Job) {
	if !j.State().terminal() {
		writeError(w, http.StatusConflict, "job %s still %s (stream /v1/jobs/%s/events to follow it)", j.ID(), j.State(), j.ID())
		return
	}
	res, err := j.Result()
	if err != nil {
		writeError(w, http.StatusConflict, "job %s produced no report: %v", j.ID(), err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.String())
		return
	}
	writeJSON(w, http.StatusOK, ReportPayload{
		ID:      res.ID,
		Title:   res.Title,
		Headers: res.Headers,
		Rows:    res.Rows,
		Notes:   res.Notes,
		Text:    res.String(),
	})
}
