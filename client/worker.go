package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"columndisturb/internal/dispatch"
	"columndisturb/internal/obs"
)

// errProtocolMismatch marks a server speaking a different worker-protocol
// generation: a permanent incompatibility, not a transient failure.
var errProtocolMismatch = errors.New("client: worker protocol mismatch")

// errUnauthorized marks a 401 at registration: the server wants a bearer
// token this worker does not hold. Permanent — retrying the same (absent
// or wrong) credential would just hot-loop.
var errUnauthorized = errors.New("client: server rejected the auth token")

// This file is the worker side of the distributed dispatch protocol:
// `cdlab worker -connect addr` is RunWorker behind flag parsing. A worker
// registers with a `cdlab serve` process, long-polls /v1/workers/<id>/lease
// for tasks, executes each leased shard through the same experiment
// registry the server uses (dispatch.ExecuteTask — plans are pure
// functions of (experiment, config), so both sides mean the same unit of
// work), and posts the gob-encoded result back. A heartbeat goroutine
// proves liveness at a third of the server's lease TTL; if the worker is
// dropped anyway (server restart, long partition), the loop re-registers
// under a fresh identity and its interrupted leases are requeued
// server-side — losing a worker never loses work, only time.

// WorkerOptions tunes RunWorker.
type WorkerOptions struct {
	// Name is an optional label for the server's worker listing.
	Name string
	// Capacity is how many shards to execute concurrently
	// (<= 0 selects runtime.GOMAXPROCS(0)).
	Capacity int
	// HTTPClient overrides the transport (nil selects http.DefaultClient).
	// Tests inject failing transports here to simulate killed workers.
	HTTPClient *http.Client
	// PollWait asks the server to hold empty lease polls this long
	// (<= 0 selects 2s; the server caps it at half the lease TTL).
	PollWait time.Duration
	// Token is sent as `Authorization: Bearer <token>` on every protocol
	// verb, matching `cdlab serve -auth-token` (the worker protocol is all
	// POST/DELETE, which the server gates). Empty sends nothing.
	Token string
	// RetryBackoff is the delay between reconnect/re-register attempts
	// (<= 0 selects 500ms).
	RetryBackoff time.Duration
	// Logger receives structured lifecycle and task logs — `cdlab worker`
	// wires it to stderr at the -log-level threshold. Nil discards them.
	Logger *slog.Logger
}

// RunWorker attaches to the server at addr as a shard-execution worker and
// serves leases until ctx is cancelled (it then deregisters best-effort
// and returns ctx.Err()). Transient server unavailability is retried
// indefinitely: a worker is a daemon, and the server requeues anything it
// held while gone.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	base, err := normalizeAddr(addr)
	if err != nil {
		return err
	}
	w := &worker{base: base, opts: opts, hc: opts.HTTPClient, log: opts.Logger}
	if w.hc == nil {
		w.hc = http.DefaultClient
	}
	if w.log == nil {
		w.log = obs.NopLogger()
	}
	if w.opts.Capacity <= 0 {
		w.opts.Capacity = runtime.GOMAXPROCS(0)
	}
	if w.opts.PollWait <= 0 {
		w.opts.PollWait = 2 * time.Second
	}
	if w.opts.RetryBackoff <= 0 {
		w.opts.RetryBackoff = 500 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		reg, err := w.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, errProtocolMismatch) || errors.Is(err, errUnauthorized) {
				// A different wire generation or a rejected credential is
				// permanent: refuse to exchange work instead of hot-looping
				// on registration.
				return err
			}
			w.log.Warn("register failed, retrying", "server", w.base, "error", err)
			if !sleepCtx(ctx, w.opts.RetryBackoff) {
				return ctx.Err()
			}
			continue
		}
		// A recorded eviction means the previous identity was dropped by the
		// server (missed heartbeats, restart): surface the blackout window so
		// operators can correlate it with requeue storms in the server log.
		if evictedID, evictedAt := w.takeEviction(); evictedID != "" {
			w.log.Warn("re-registered after server-side eviction",
				"worker", reg.WorkerID, "previous_worker", evictedID,
				"gap_ms", time.Since(evictedAt).Milliseconds())
		} else {
			w.log.Info("registered as "+reg.WorkerID,
				"worker", reg.WorkerID, "capacity", w.opts.Capacity, "lease_ttl_ms", reg.LeaseTTLMs)
		}
		w.session(ctx, reg)
		if ctx.Err() != nil {
			w.deregister(reg.WorkerID)
			return ctx.Err()
		}
		w.log.Info("session ended, re-registering", "worker", reg.WorkerID)
		if !sleepCtx(ctx, w.opts.RetryBackoff) {
			return ctx.Err()
		}
	}
}

type worker struct {
	base string
	opts WorkerOptions
	hc   *http.Client
	log  *slog.Logger

	mu        sync.Mutex
	evictedID string    // identity the server last dropped (404 on a live session)
	evictedAt time.Time // when that drop was observed
}

// markEvicted records that the server forgot identity id while the session
// believed itself alive — the 404 paths call it so the next successful
// register can report the eviction-to-reregister gap. First observation
// wins; a session's heartbeat and lease loops may race to notice.
func (w *worker) markEvicted(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.evictedID == "" {
		w.evictedID = id
		w.evictedAt = time.Now()
	}
}

// takeEviction consumes the recorded eviction, if any.
func (w *worker) takeEviction() (string, time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id, at := w.evictedID, w.evictedAt
	w.evictedID, w.evictedAt = "", time.Time{}
	return id, at
}

// post sends one protocol verb and returns the response; the caller owns
// the body.
func (w *worker) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.opts.Token)
	}
	return w.hc.Do(req)
}

func (w *worker) register(ctx context.Context) (dispatch.RegisterResponse, error) {
	body, _ := json.Marshal(dispatch.RegisterRequest{Name: w.opts.Name, Capacity: w.opts.Capacity})
	resp, err := w.post(ctx, "/v1/workers", body)
	if err != nil {
		return dispatch.RegisterResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return dispatch.RegisterResponse{}, fmt.Errorf("%w (pass -token matching the server's -auth-token)", errUnauthorized)
	}
	if resp.StatusCode != http.StatusOK {
		return dispatch.RegisterResponse{}, apiError(resp)
	}
	var reg dispatch.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return dispatch.RegisterResponse{}, fmt.Errorf("client: decode register response: %w", err)
	}
	if reg.Protocol != dispatch.ProtocolVersion {
		return dispatch.RegisterResponse{}, fmt.Errorf("%w: server speaks %d, this build speaks %d",
			errProtocolMismatch, reg.Protocol, dispatch.ProtocolVersion)
	}
	if reg.WorkerID == "" || reg.LeaseTTLMs <= 0 {
		return dispatch.RegisterResponse{}, fmt.Errorf("client: malformed register response %+v", reg)
	}
	return reg, nil
}

// deregister tells the server this worker is going away (best-effort,
// fresh short context — the caller's is already dead).
func (w *worker) deregister(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.base+"/v1/workers/"+id, nil)
	if err != nil {
		return
	}
	if w.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.opts.Token)
	}
	if resp, err := w.hc.Do(req); err == nil {
		resp.Body.Close()
	}
}

// session serves one registration: capacity lease loops plus a heartbeat.
// It returns when the server forgets the worker (404 → the caller
// re-registers) or ctx dies.
func (w *worker) session(ctx context.Context, reg dispatch.RegisterResponse) {
	sctx, stale := context.WithCancel(ctx)
	defer stale()

	var wg sync.WaitGroup
	wg.Add(1 + w.opts.Capacity)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(sctx, stale, reg)
	}()
	for i := 0; i < w.opts.Capacity; i++ {
		go func() {
			defer wg.Done()
			w.leaseLoop(sctx, stale, reg.WorkerID)
		}()
	}
	wg.Wait()
}

// heartbeatLoop renews the lease deadline at a third of the TTL. A 404
// means the server dropped us (restart or missed deadlines): mark the
// session stale so every loop unwinds and the worker re-registers.
func (w *worker) heartbeatLoop(ctx context.Context, stale context.CancelFunc, reg dispatch.RegisterResponse) {
	interval := time.Duration(reg.LeaseTTLMs) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		resp, err := w.post(ctx, "/v1/workers/"+reg.WorkerID+"/heartbeat", nil)
		if err != nil {
			continue // transient; the lease polls also prove liveness
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusNotFound {
			w.log.Warn("heartbeat rejected: server evicted this worker", "worker", reg.WorkerID)
			w.markEvicted(reg.WorkerID)
			stale()
			return
		}
	}
}

// leaseLoop is one execution slot: poll, execute, complete, repeat.
func (w *worker) leaseLoop(ctx context.Context, stale context.CancelFunc, id string) {
	waitMs := w.opts.PollWait.Milliseconds()
	for {
		if ctx.Err() != nil {
			return
		}
		resp, err := w.post(ctx, fmt.Sprintf("/v1/workers/%s/lease?wait_ms=%d", id, waitMs), nil)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if !sleepCtx(ctx, w.opts.RetryBackoff) {
				return
			}
			continue
		}
		switch resp.StatusCode {
		case http.StatusNoContent:
			resp.Body.Close()
			continue
		case http.StatusNotFound:
			resp.Body.Close()
			w.markEvicted(id)
			stale()
			return
		case http.StatusOK:
		default:
			err := apiError(resp)
			resp.Body.Close()
			w.log.Warn("lease poll failed", "worker", id, "error", err)
			if !sleepCtx(ctx, w.opts.RetryBackoff) {
				return
			}
			continue
		}
		var grant dispatch.LeaseGrant
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&grant)
		resp.Body.Close()
		if err != nil || grant.TaskID == "" {
			w.log.Warn("bad lease grant", "worker", id, "error", err)
			continue
		}

		// Peek at the spec for log attribution and the trace-ID echo; a
		// malformed spec is ExecuteTask's error to report, not ours.
		var traceID string
		if spec, err := dispatch.DecodeTask(grant.Spec); err == nil {
			traceID = spec.TraceID
			w.log.Debug("task leased",
				"worker", id, "task", grant.TaskID, "experiment", spec.Experiment,
				"shard", spec.Shard, "trace_id", traceID)
		}

		// Execute the shard. A task failure (unknown experiment, shard
		// error, panic captured by the engine) is REPORTED, not retried:
		// shards are deterministic, so the job must see the error. Only a
		// lost worker warrants re-execution, and that is the server's
		// requeue path, triggered by our silence.
		start := time.Now()
		reply, execErr := dispatch.ExecuteTask(ctx, grant.Spec)
		comp := dispatch.CompleteRequest{Result: reply, TraceID: traceID}
		if execErr != nil {
			if ctx.Err() != nil {
				return // dying mid-shard: stay silent, the server requeues
			}
			comp = dispatch.CompleteRequest{Error: execErr.Error(), TraceID: traceID}
			w.log.Warn("task failed",
				"worker", id, "task", grant.TaskID, "trace_id", traceID, "error", execErr)
		} else {
			w.log.Debug("task executed",
				"worker", id, "task", grant.TaskID, "trace_id", traceID,
				"elapsed_ms", time.Since(start).Milliseconds())
		}
		w.complete(ctx, stale, id, grant.TaskID, comp)
	}
}

// complete posts one task result. Delivery must not be abandoned while
// the session stays alive: the server requeues leases only on heartbeat
// SILENCE, so a worker that gives up on a completion while still
// heartbeating would strand the lease (and hang the job) forever.
// Transport failures therefore retry for as long as the session lives,
// and any give-up path — persistent rejection, malformed state — marks
// the session stale, which stops the heartbeats and lets the server's
// TTL requeue reclaim the lease.
func (w *worker) complete(ctx context.Context, stale context.CancelFunc, id, taskID string, comp dispatch.CompleteRequest) {
	body, err := json.Marshal(comp)
	if err != nil {
		// Cannot happen (flat struct), but if it ever does the result is
		// undeliverable: abandon the identity so the shard requeues.
		w.log.Error("encode completion failed, abandoning session", "task", taskID, "error", err)
		stale()
		return
	}
	for attempt := 1; ; attempt++ {
		resp, err := w.post(ctx, "/v1/workers/"+id+"/tasks/"+taskID, body)
		if err != nil {
			// Dying mid-delivery (ctx cancelled) is fine — our silence
			// triggers the server's requeue. A transient blip is retried
			// indefinitely; if the server stays unreachable the heartbeats
			// are failing too and the TTL requeue covers us either way.
			if ctx.Err() != nil || !sleepCtx(ctx, w.opts.RetryBackoff) {
				return
			}
			if attempt%10 == 0 {
				w.log.Warn("completion delivery still retrying", "task", taskID, "attempts", attempt, "error", err)
			}
			continue
		}
		code := resp.StatusCode
		resp.Body.Close()
		switch code {
		case http.StatusNoContent:
			return
		case http.StatusGone:
			// The lease was requeued while we computed (we were presumed
			// lost); the shard is deterministic, so whoever recomputes it
			// produces the same bytes. Move on.
			return
		case http.StatusNotFound:
			w.markEvicted(id)
			stale()
			return
		default:
			// The server rejected the completion outright (e.g. an
			// oversized body). Retrying the same bytes cannot succeed, and
			// staying alive would pin the lease — abandon the session so
			// the shard requeues elsewhere.
			w.log.Warn("completion rejected, abandoning session so the shard requeues",
				"task", taskID, "status", code)
			stale()
			return
		}
	}
}
