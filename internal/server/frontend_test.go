package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"strtree/internal/geom"
	"strtree/internal/server/wire"
)

// execFunc adapts a function to the Executor interface.
type execFunc func(ctx context.Context, req *wire.Request) (*wire.Response, error)

func (f execFunc) Execute(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return f(ctx, req)
}

// gatedExec answers OpStats at once and parks every other request on
// gate, announcing it on started, until gate closes (answer: a count of
// 7) or the request context ends (answer: its error).
func gatedExec(gate <-chan struct{}, started chan<- struct{}) Executor {
	return execFunc(func(ctx context.Context, req *wire.Request) (*wire.Response, error) {
		if req.Op == wire.OpStats {
			return &wire.Response{Status: wire.StatusOK, Op: req.Op}, nil
		}
		started <- struct{}{}
		select {
		case <-gate:
			return &wire.Response{Status: wire.StatusOK, Op: req.Op, Count: 7}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
}

// startFrontend serves exec on a loopback listener. Cleanup drains the
// frontend unless the test already did, and checks Serve's exit.
func startFrontend(t *testing.T, exec Executor, cfg FrontendConfig) (*Frontend, string) {
	t.Helper()
	cfg.Name = "test"
	f := NewFrontend(exec, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- f.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil && !errors.Is(err, ErrShutDown) {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return f, ln.Addr().String()
}

// parkedCount starts a Count on its own client that the gated executor
// parks, and returns the channel its result arrives on.
func parkedCount(t *testing.T, addr string, started <-chan struct{}) <-chan error {
	t.Helper()
	cl := Dial(addr)
	t.Cleanup(func() { _ = cl.Close() })
	done := make(chan error, 1)
	go func() {
		n, err := cl.Count(geom.R2(0, 0, 1, 1))
		if err == nil && n != 7 {
			err = errors.New("parked count answered wrong")
		}
		done <- err
	}()
	<-started
	return done
}

func TestFrontendOverload(t *testing.T) {
	gate, started := make(chan struct{}), make(chan struct{})
	f, addr := startFrontend(t, gatedExec(gate, started), FrontendConfig{MaxInFlight: 1})
	parked := parkedCount(t, addr, started)

	cl := Dial(addr)
	defer func() { _ = cl.Close() }()
	if _, err := cl.Stats(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("request past the cap: err = %v, want ErrOverloaded", err)
	}
	if got := f.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	close(gate)
	if err := <-parked; err != nil {
		t.Fatalf("parked request: %v", err)
	}
	waitFor(t, "slot release", func() bool { return f.inFlight.Load() == 0 })
	// The refused connection stays usable.
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("retry on the refused connection: %v", err)
	}
}

func TestFrontendDeadline(t *testing.T) {
	gate, started := make(chan struct{}), make(chan struct{})
	f, addr := startFrontend(t, gatedExec(gate, started), FrontendConfig{
		DefaultTimeout: 10 * time.Millisecond,
		MaxTimeout:     20 * time.Millisecond,
	})
	defer close(gate)

	// The request carries no deadline of its own: the default applies.
	if err := <-parkedCount(t, addr, started); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if got := f.timedOut.Load(); got != 1 {
		t.Fatalf("timedout = %d, want 1", got)
	}

	for _, tc := range []struct {
		ms   uint32
		want time.Duration
	}{{0, 10 * time.Millisecond}, {5, 5 * time.Millisecond}, {1000, 20 * time.Millisecond}} {
		if got := f.timeoutFor(&wire.Request{TimeoutMillis: tc.ms}); got != tc.want {
			t.Errorf("timeoutFor(%dms) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// TestFrontendOutcomes pins the outcome-counting rule: every admitted
// request is accepted; OK, deadline and internal answers count in
// completed, timedout and failed; an in-band refusal counts in none.
func TestFrontendOutcomes(t *testing.T) {
	exec := execFunc(func(ctx context.Context, req *wire.Request) (*wire.Response, error) {
		switch req.Op {
		case wire.OpCount:
			return &wire.Response{Status: wire.StatusOK, Op: req.Op}, nil
		case wire.OpSearch:
			return &wire.Response{Status: wire.StatusBadRequest, Op: req.Op, Err: "refused"}, nil
		default:
			return nil, errors.New("boom")
		}
	})
	f, addr := startFrontend(t, exec, FrontendConfig{})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()
	if _, err := cl.Count(geom.R2(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Search(geom.R2(0, 0, 1, 1)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("refusal: err = %v, want ErrBadRequest", err)
	}
	if _, err := cl.Stats(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("executor error: err = %v, want the internal error", err)
	}
	got := [4]uint64{f.accepted.Load(), f.completed.Load(), f.timedOut.Load(), f.failed.Load()}
	if want := [4]uint64{3, 1, 0, 1}; got != want {
		t.Fatalf("accepted, completed, timedout, failed = %v, want %v", got, want)
	}
}

func TestFrontendCleanDrain(t *testing.T) {
	gate, started := make(chan struct{}), make(chan struct{})
	f, addr := startFrontend(t, gatedExec(gate, started), FrontendConfig{})

	idle := Dial(addr)
	defer func() { _ = idle.Close() }()
	if _, err := idle.Stats(); err != nil {
		t.Fatal(err)
	}
	parked := parkedCount(t, addr, started)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- f.Shutdown(ctx)
	}()
	waitFor(t, "drain to begin", f.Draining)
	if _, err := idle.Stats(); !errors.Is(err, ErrDraining) {
		t.Fatalf("request during drain: err = %v, want ErrDraining", err)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The in-flight request finishes and its answer is delivered before
	// the drain closes the connection.
	close(gate)
	if err := <-parked; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
}

func TestFrontendForcedDrain(t *testing.T) {
	gate, started := make(chan struct{}), make(chan struct{})
	defer close(gate)
	f, addr := startFrontend(t, gatedExec(gate, started), FrontendConfig{})
	parked := parkedCount(t, addr, started)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	// The cancelled request is answered in-band, not left hanging.
	if err := <-parked; !errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled request: err = %v, want ErrDeadline", err)
	}
	if got := f.timedOut.Load(); got != 1 {
		t.Fatalf("timedout = %d, want 1", got)
	}
}

func TestFrontendHealthz(t *testing.T) {
	f, _ := startFrontend(t, execFunc(nil), FrontendConfig{})
	admin := httptest.NewServer(f.AdminHandler())
	defer admin.Close()

	if err := CheckHealth(admin.URL, http.StatusOK); err != nil {
		t.Fatal(err)
	}
	f.MarkNotReady()
	if err := CheckHealth(admin.URL, http.StatusServiceUnavailable); err != nil {
		t.Fatal(err)
	}
	if _, body, err := HTTPGet(admin.URL + "/metrics"); err != nil || !strings.Contains(body, "test_ready 0\n") {
		t.Fatalf("/metrics after MarkNotReady: err %v, missing test_ready 0", err)
	}
}
