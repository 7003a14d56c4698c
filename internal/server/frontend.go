package server

// This file is the serving frontend strserve and strrouter share: the
// listener and accept loop, the per-connection frame loop, admission
// control, deadline resolution, readiness, the graceful drain, the
// lifecycle metrics and the base admin handler. What a request does once
// admitted is an Executor's business: the tree server (server.go) and
// the fan-out router (internal/router) are the two.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"strtree/internal/histo"
	"strtree/internal/obs"
	"strtree/internal/server/wire"
)

// Executor answers one admitted request. ctx carries the request's
// deadline and is cancelled by a forced drain. A returned error is
// answered in-band: StatusDeadline for a context error, StatusInternal
// for anything else.
type Executor interface {
	Execute(ctx context.Context, req *wire.Request) (*wire.Response, error)
}

// FrontendConfig is what a serving tier hands its Frontend.
type FrontendConfig struct {
	// Name prefixes the tier's lifecycle metric families and log lines:
	// "strserve" or "strrouter".
	Name string
	// MaxInFlight caps concurrently executing requests; 0 means 64.
	MaxInFlight int
	// DefaultTimeout applies to requests carrying no deadline; 0 means 5s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; 0 means 60s.
	MaxTimeout time.Duration
	// Logf, when non-nil, receives one line per failure the frontend
	// sees: failed requests, accept and encode errors, an unfinished
	// drain.
	Logf func(format string, args ...any)
	// The HELP wording of the lifecycle series, kept as each tier has
	// always exposed it. Noun opens the admission and outcome counters'
	// HELP ("Requests", "Client requests"), Process names the tier in the
	// draining gauge's ("server", "router"); FailedHelp and LatencyHelp
	// are the failed counter's and latency summary's HELP in full.
	Noun, Process, FailedHelp, LatencyHelp string
}

// Frontend accepts connections, frames requests, admits, times and
// drains them, and hands each admitted request to its Executor. All
// methods are safe for concurrent use.
//
// Outcome counting, the same for every tier: a request that fails to
// parse is answered StatusBadRequest and its connection closed, counted
// nowhere. A parsed request is refused at admission with StatusOverloaded
// (counted in rejected) or StatusDraining (counted nowhere), or admitted
// and counted in accepted. An admitted request then counts in at most
// one outcome, by the status it is answered with: completed for
// StatusOK, timedout for StatusDeadline, failed for StatusInternal. Any
// other status is an in-band refusal of a well-formed request — a
// read-only tier refusing a mutation, a dimensionality mismatch, the
// router's StatusUnavailable — and counts in accepted only; an Executor
// may count its refusals in series of its own.
type Frontend struct {
	exec Executor
	cfg  FrontendConfig

	// sem is the admission semaphore: one slot per executing request.
	sem chan struct{}

	// baseCtx parents every request context; cancelled as a last resort
	// when a drain deadline expires with requests still running.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	draining bool                  // guarded by mu

	reqWG  sync.WaitGroup // admitted requests (through response write)
	connWG sync.WaitGroup // connection handler goroutines

	inFlight  atomic.Int64
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	timedOut  atomic.Uint64
	failed    atomic.Uint64

	// notReady flips the admin /healthz endpoint to 503 ahead of the
	// actual drain (MarkNotReady), so load balancers stop routing before
	// requests start being refused.
	notReady atomic.Bool

	latAll histo.Histogram // admitted requests, through Execute

	// reg is the admin endpoint's metrics registry; its series sample the
	// atomics above at scrape time, and the tier adds its own.
	reg *obs.Registry
}

// NewFrontend builds a frontend that hands admitted requests to exec.
func NewFrontend(exec Executor, cfg FrontendConfig) *Frontend {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	//strlint:ignore ctxprop the frontend owns its lifecycle root context; Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	f := &Frontend{
		exec:       exec,
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		baseCtx:    ctx,
		cancelBase: cancel,
		conns:      map[net.Conn]struct{}{},
		reg:        obs.NewRegistry(),
	}

	// Admission and lifecycle, Func-backed: a scrape samples the live
	// atomics and never adds work to a request.
	p, n := cfg.Name+"_", cfg.Noun
	f.reg.GaugeFunc(p+"inflight_requests", n+" currently executing.",
		func() float64 { return float64(f.inFlight.Load()) })
	f.reg.CounterFunc(p+"accepted_total", n+" admitted past the admission semaphore.", f.accepted.Load)
	f.reg.CounterFunc(p+"rejected_total", n+" refused with StatusOverloaded.", f.rejected.Load)
	f.reg.CounterFunc(p+"completed_total", n+" answered with StatusOK.", f.completed.Load)
	f.reg.CounterFunc(p+"timedout_total", n+" that exceeded their deadline.", f.timedOut.Load)
	f.reg.CounterFunc(p+"failed_total", cfg.FailedHelp, f.failed.Load)
	f.reg.GaugeFunc(p+"draining", "1 while the "+cfg.Process+" refuses new work (drain in progress), else 0.",
		func() float64 { return oneIf(f.Draining()) })
	f.reg.GaugeFunc(p+"ready", "1 while the health endpoint reports ready, else 0.",
		func() float64 { return oneIf(f.Ready()) })
	f.reg.HistogramFunc(p+"latency_seconds", cfg.LatencyHelp, &f.latAll)
	return f
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (f *Frontend) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(f.cfg.Name+": "+format, args...)
	}
}

// MaxTimeout returns the resolved cap on request deadlines.
func (f *Frontend) MaxTimeout() time.Duration { return f.cfg.MaxTimeout }

// Registry returns the metrics registry behind the admin endpoint, e.g.
// to register process-level series next to the serving ones.
func (f *Frontend) Registry() *obs.Registry { return f.reg }

// ErrAlreadyServing is returned by a second Serve call.
var ErrAlreadyServing = errors.New("server: already serving")

// ErrShutDown is returned by a second Shutdown call.
var ErrShutDown = errors.New("server: already shut down")

// Serve accepts connections on ln until Shutdown. It blocks, returning
// nil after a drain-initiated stop or the first fatal accept error
// otherwise. The frontend takes ownership of ln.
func (f *Frontend) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.ln != nil {
		f.mu.Unlock()
		return ErrAlreadyServing
	}
	if f.draining {
		f.mu.Unlock()
		_ = ln.Close()
		return nil
	}
	f.ln = ln
	f.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if f.Draining() {
				return nil
			}
			// Transient accept failures (fd pressure) should not kill
			// the server; anything else is fatal.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			f.logf("accept: %v", err)
			return err
		}
		f.mu.Lock()
		if f.draining {
			f.mu.Unlock()
			_ = conn.Close()
			continue
		}
		f.conns[conn] = struct{}{}
		f.connWG.Add(1)
		f.mu.Unlock()
		go f.handleConn(conn)
	}
}

// Addr returns the listener's address, or nil before Serve.
func (f *Frontend) Addr() net.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Draining reports whether Shutdown has begun.
func (f *Frontend) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// MarkNotReady flips the admin /healthz endpoint to 503 without starting
// the drain: requests keep being served. Call it a grace period before
// Shutdown so load balancers and orchestrators stop routing new clients
// here while the ones already connected finish normally (-drain-grace
// does exactly this). Shutdown implies it.
func (f *Frontend) MarkNotReady() { f.notReady.Store(true) }

// Ready reports whether the admin health endpoint should answer 200:
// neither marked not-ready nor draining.
func (f *Frontend) Ready() bool { return !f.notReady.Load() && !f.Draining() }

// connIO is one connection's framing: buffered frame reads and encoded,
// flushed response writes with a reusable output buffer. Only the
// connection's handler goroutine touches it.
type connIO struct {
	br     *bufio.Reader
	bw     *bufio.Writer
	outBuf []byte
	logf   func(format string, args ...any)
}

// writeResponse encodes and flushes one response frame, reporting
// whether the connection is still healthy.
func (c *connIO) writeResponse(resp *wire.Response) bool {
	out, err := wire.AppendResponse(c.outBuf[:0], resp)
	if err != nil {
		// A response that cannot be encoded is a bug worth logging.
		c.logf("encode response: %v", err)
		return false
	}
	c.outBuf = out
	if err := wire.WriteFrame(c.bw, out); err != nil {
		return false
	}
	return c.bw.Flush() == nil
}

// handleConn serves one connection: frames are read and answered in
// order. Any transport or framing error closes the connection; request-
// level failures are answered in-band and keep the connection alive.
func (f *Frontend) handleConn(conn net.Conn) {
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
		_ = conn.Close()
		f.connWG.Done()
	}()
	c := &connIO{br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), logf: f.logf}
	var inBuf []byte
	for {
		payload, err := wire.ReadFrame(c.br, inBuf)
		if err != nil {
			// EOF: client went away (or drain closed the socket). Either
			// way the conversation is over; nothing to answer.
			return
		}
		inBuf = payload
		if !f.serveOne(c, payload) {
			return
		}
	}
}

// serveOne parses, admits, executes and answers one request, returning
// whether the connection should stay open.
func (f *Frontend) serveOne(c *connIO, payload []byte) bool {
	req, err := wire.ParseRequest(payload)
	if err != nil {
		// Parse errors get an in-band answer, then the connection drops:
		// after a malformed frame the stream cannot be trusted.
		_ = c.writeResponse(&wire.Response{Status: wire.StatusBadRequest, Op: wire.OpSearch, Err: err.Error()})
		return false
	}
	if status := f.admit(); status != wire.StatusOK {
		// Draining closes the connection after answering; overload keeps
		// it (the client is expected to back off and retry).
		ok := c.writeResponse(&wire.Response{Status: status, Op: req.Op, Err: status.String()})
		return ok && status == wire.StatusOverloaded
	}
	// release only after the response frame is written: a draining
	// Shutdown waits on this slot and must not close the connection with
	// the answer still buffered.
	defer f.release()

	ctx, cancel := context.WithTimeout(f.baseCtx, f.timeoutFor(req))
	start := time.Now()
	resp, err := f.exec.Execute(ctx, req)
	cancel()
	f.latAll.Observe(time.Since(start))
	if err != nil {
		resp = failureResponse(req, err)
	}
	switch resp.Status {
	case wire.StatusOK:
		f.completed.Add(1)
	case wire.StatusDeadline:
		f.timedOut.Add(1)
	case wire.StatusInternal:
		f.failed.Add(1)
		f.logf("%v request failed: %s", req.Op, resp.Err)
	}
	return c.writeResponse(resp)
}

// failureResponse answers an Executor error in-band: StatusDeadline when
// the request's context ran out or was cancelled, StatusInternal else.
func failureResponse(req *wire.Request, err error) *wire.Response {
	status := wire.StatusInternal
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = wire.StatusDeadline
	}
	return &wire.Response{Status: status, Op: req.Op, Err: err.Error()}
}

// admit applies admission control: a full semaphore fast-fails with
// StatusOverloaded, a draining frontend with StatusDraining. On StatusOK
// the caller must call release exactly once after the response is
// written — the drain path waits on it.
func (f *Frontend) admit() wire.Status {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return wire.StatusDraining
	}
	select {
	case f.sem <- struct{}{}:
		// reqWG.Add must happen under mu, before Shutdown can flip
		// draining and call reqWG.Wait.
		f.reqWG.Add(1)
		f.mu.Unlock()
		f.inFlight.Add(1)
		f.accepted.Add(1)
		return wire.StatusOK
	default:
		f.mu.Unlock()
		f.rejected.Add(1)
		return wire.StatusOverloaded
	}
}

// release frees the admission slot admit granted.
func (f *Frontend) release() {
	<-f.sem
	f.inFlight.Add(-1)
	f.reqWG.Done()
}

// timeoutFor resolves a request's deadline: its own if set, else the
// default, never above the maximum.
func (f *Frontend) timeoutFor(req *wire.Request) time.Duration {
	d := f.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		d = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	return min(d, f.cfg.MaxTimeout)
}

// Shutdown drains the frontend: it stops accepting connections, refuses
// new requests with StatusDraining, waits for in-flight requests to
// finish writing their responses, then closes every connection. If ctx
// expires first, outstanding request contexts are cancelled (queries
// unwind at their next node visit) and ctx's error is returned; on a
// clean drain it returns nil. After Shutdown returns nil every handler
// has exited and the Executor sees no more calls.
func (f *Frontend) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		return ErrShutDown
	}
	f.draining = true
	ln := f.ln
	f.mu.Unlock()
	f.notReady.Store(true)

	// Stop accepting. Serve's Accept unblocks with an error, sees
	// draining, and returns nil.
	if ln != nil {
		_ = ln.Close()
	}

	// Wait for admitted requests (through their response writes).
	var drainErr error
	if !waitBounded(&f.reqWG, ctx.Done()) {
		drainErr = ctx.Err()
		// Force outstanding requests to unwind, then give them a moment
		// to observe the cancellation.
		f.cancelBase()
		if !waitBounded(&f.reqWG, time.After(time.Second)) {
			f.logf("drain deadline passed with requests still running")
		}
	}

	// Close every connection: parked readers get EOF and handlers exit.
	f.mu.Lock()
	for c := range f.conns {
		_ = c.Close()
	}
	f.mu.Unlock()

	if drainErr == nil {
		f.connWG.Wait()
	} else if !waitBounded(&f.connWG, time.After(time.Second)) {
		// A stuck request (e.g. storage that never returns) can pin its
		// handler; the bound keeps a forced shutdown bounded.
		f.logf("handlers still running after forced drain")
	}
	f.cancelBase()
	return drainErr
}

// waitBounded waits for wg until stop fires, reporting whether wg
// finished first. On false the helper goroutine lingers until wg does.
func waitBounded[T any](wg *sync.WaitGroup, stop <-chan T) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-stop:
		return false
	}
}

// AdminHandler returns the admin HTTP surface:
//
//	/metrics        Prometheus text exposition (0.0.4)
//	/stats          the same series as JSON
//	/healthz        200 "ok" while ready; 503 "draining" once
//	                MarkNotReady or Shutdown has run
//	/debug/pprof/   the stdlib profiles
//
// The handler stays functional during and after a drain — scraping a
// draining tier is exactly when the numbers matter. Bind it to loopback
// or a trusted network: pprof and /stats expose internals.
func (f *Frontend) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := f.reg.WritePrometheus(w); err != nil {
			f.logf("admin: write /metrics: %v", err)
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := f.reg.WriteJSON(w); err != nil {
			f.logf("admin: write /stats: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body := "ok\n"
		if !f.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			body = "draining\n"
		}
		if _, err := w.Write([]byte(body)); err != nil {
			f.logf("admin: write /healthz: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Service is a serving tier as Run drives it: a *Server or a router.
type Service interface {
	Serve(ln net.Listener) error
	AdminHandler() http.Handler
	MarkNotReady()
	Shutdown(ctx context.Context) error
}

// RunConfig holds the process-level settings Run takes from the
// command line.
type RunConfig struct {
	Name         string        // progress-line prefix: "strserve" or "strrouter"
	AdminAddr    string        // admin listener address; empty disables it
	DrainGrace   time.Duration // not-ready period before the drain starts
	DrainTimeout time.Duration // bound on the drain itself
}

// Run is a serving command's main loop. It serves svc on ln, and the
// admin handler on cfg.AdminAddr, until SIGINT or SIGTERM, then shuts
// down readiness-first: /healthz flips to 503, cfg.DrainGrace passes so
// load balancers route away, and Shutdown drains under cfg.DrainTimeout.
// The admin endpoint outlives the drain — it answers 503 and serves
// final metrics while requests finish — and closes last. Progress lines
// go to standard output. Run returns nil only after a clean drain.
func Run(svc Service, ln net.Listener, cfg RunConfig) error {
	if cfg.AdminAddr != "" {
		url, stop, err := StartAdmin(cfg.AdminAddr, svc.AdminHandler())
		if err != nil {
			_ = ln.Close()
			_ = shutdownNow(svc)
			return fmt.Errorf("admin listen: %w", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: admin: %v\n", cfg.Name, err)
			}
		}()
		fmt.Printf("%s: admin endpoint on %s\n", cfg.Name, url)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	select {
	case sig := <-sigCh:
		if cfg.DrainGrace > 0 {
			fmt.Printf("%s: %v: not ready; draining in %v\n", cfg.Name, sig, cfg.DrainGrace)
			svc.MarkNotReady()
			time.Sleep(cfg.DrainGrace)
		}
		fmt.Printf("%s: %v: draining (up to %v)\n", cfg.Name, sig, cfg.DrainTimeout)
		//strlint:ignore ctxprop Run is a command's main loop; the drain deadline is the root
		ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
		defer cancel()
		drainErr := svc.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			return err
		}
		if drainErr != nil {
			return fmt.Errorf("drain: %w", drainErr)
		}
		fmt.Printf("%s: drained cleanly\n", cfg.Name)
		return nil
	case err := <-serveErr:
		_ = shutdownNow(svc)
		return err
	}
}

// shutdownNow tears svc down under a short bound, for paths where
// serving failed and no drain is in progress.
func shutdownNow(svc Service) error {
	//strlint:ignore ctxprop teardown after a failed start; nothing upstream carries a deadline
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return svc.Shutdown(ctx)
}
