// Command hetmemd serves the heterogeneous-memory runtime as a
// multi-tenant daemon: an HTTP/JSON API over internal/serve, accepting
// workload submissions (stencil / matmul / shift with per-session
// strategy knobs), enforcing per-tenant HBM budgets through admission
// control, and sharing the IO staging fabric with weighted-fair lanes.
//
// The service clock is virtual: a background loop steps the session
// schedulers whenever work is active and parks when idle, so a daemon
// with no running sessions burns no CPU and scheduling decisions never
// read the wall clock (responses are deterministic for a fixed
// submission sequence).
//
//	hetmemd -addr 127.0.0.1:8080 -scale small \
//	    -tenant acme:512MB:2 -tenant beta:512MB:1 -capture-dir traces/
//
// Endpoints:
//
//	GET    /healthz                    liveness + drain state
//	GET    /v1/stats                   aggregate + per-tenant stats
//	POST   /v1/sessions                submit a workload (JSON body)
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{id}           one session's record
//	DELETE /v1/sessions/{id}           cancel (queued or running)
//	GET    /v1/sessions/{id}/metrics   audit.Metrics snapshot
//	GET    /v1/sessions/{id}/trace     finished session's capture (JSONL)
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, queued
// sessions are canceled, running sessions finish, and every traced
// session's capture is flushed (with its stats footer) to -capture-dir.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/serve"
	"github.com/hetmem/hetmem/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tenantFlags accumulates repeated -tenant name:budget[:weight] flags.
type tenantFlags []serve.TenantConfig

func (t *tenantFlags) String() string {
	var parts []string
	for _, tc := range *t {
		parts = append(parts, fmt.Sprintf("%s:%d:%d", tc.Name, tc.Budget, tc.Weight))
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	tc, err := parseTenant(v)
	if err != nil {
		return err
	}
	*t = append(*t, tc)
	return nil
}

// parseTenant parses "name:budget[:weight]", budget with an optional
// KB/MB/GB suffix.
func parseTenant(v string) (serve.TenantConfig, error) {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
		return serve.TenantConfig{}, fmt.Errorf("tenant %q: want name:budget[:weight]", v)
	}
	budget, err := parseBytes(parts[1])
	if err != nil {
		return serve.TenantConfig{}, fmt.Errorf("tenant %q: %w", v, err)
	}
	tc := serve.TenantConfig{Name: parts[0], Budget: budget, Weight: 1}
	if len(parts) == 3 {
		w, err := strconv.Atoi(parts[2])
		if err != nil || w <= 0 {
			return serve.TenantConfig{}, fmt.Errorf("tenant %q: bad weight %q", v, parts[2])
		}
		tc.Weight = w
	}
	return tc, nil
}

// parseBytes parses a byte count with an optional KB/MB/GB suffix.
func parseBytes(v string) (int64, error) {
	s := strings.ToUpper(strings.TrimSpace(v))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad byte count %q", v)
	}
	return n * mult, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetmemd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		scaleName  = fs.String("scale", "full", "machine scale: full (64-PE KNL) or small (1/8 slice)")
		window     = fs.Float64("window", 5e-3, "scheduling window in virtual seconds")
		lanes      = fs.Int("lanes", 8, "IO staging lanes shared across sessions")
		fair       = fs.Bool("fair", true, "weighted-fair per-tenant IO sharing (false: per-session free-for-all)")
		auditOn    = fs.Bool("audit", false, "attach the invariant auditor to every session")
		queue      = fs.Int("queue", 64, "admission queue capacity")
		seed       = fs.Int64("seed", 1, "base engine seed (session i runs with seed+i)")
		defBudget  = fs.String("default-budget", "", "HBM budget for unregistered tenants (e.g. 512MB); default: a quarter of the machine")
		captureDir = fs.String("capture-dir", "", "directory for trace captures flushed at drain")
		tenants    tenantFlags
	)
	fs.Var(&tenants, "tenant", "pre-register a tenant as name:budget[:weight] (budget like 4GB); repeatable")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg, err := buildConfig(*scaleName, *window, *lanes, *fair, *auditOn, *queue, *seed, *defBudget, tenants)
	if err != nil {
		fmt.Fprintf(stderr, "hetmemd: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "hetmemd: %v\n", err)
		return 1
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	return runDaemon(cfg, ln, *captureDir, sigCh, stdout, stderr)
}

// buildConfig assembles the serve.Config from the flag values.
func buildConfig(scaleName string, window float64, lanes int, fair, auditOn bool,
	queue int, seed int64, defBudget string, tenants []serve.TenantConfig) (serve.Config, error) {
	scale, err := exp.ParseScale(scaleName)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Spec:     scale.Machine(),
		NumPEs:   scale.NumPEs(),
		Reserve:  scale.HBMReserve(),
		Window:   sim.Time(window),
		Lanes:    lanes,
		Fair:     fair,
		Audit:    auditOn,
		MaxQueue: queue,
		BaseSeed: seed,
		Tenants:  tenants,
	}
	if defBudget != "" {
		b, err := parseBytes(defBudget)
		if err != nil {
			return serve.Config{}, fmt.Errorf("default-budget: %w", err)
		}
		cfg.DefaultBudget = b
	}
	return cfg, nil
}

// runDaemon serves on ln until a signal arrives, then drains, flushes
// captures and shuts the listener down. Split from run so tests can
// inject the listener and the signal channel.
func runDaemon(cfg serve.Config, ln net.Listener, captureDir string,
	sigCh <-chan os.Signal, stdout, stderr io.Writer) int {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hetmemd: %v\n", err)
		ln.Close()
		return 2
	}
	loopDone := make(chan struct{})
	go func() { srv.Loop(); close(loopDone) }()

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "hetmemd: listening on %s (scale machine HBM %d bytes, %d tenants pre-registered)\n",
		ln.Addr(), cfg.Spec.HBMCap, len(cfg.Tenants))

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "hetmemd: serve: %v\n", err)
		srv.Close()
		<-loopDone
		return 1
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "hetmemd: %v: draining (new submissions get 503, running sessions finish)\n", sig)
	}

	sessions := srv.Drain()
	var done, canceled, failed int
	for _, s := range sessions {
		switch s.State {
		case serve.Done:
			done++
		case serve.Canceled:
			canceled++
		case serve.Failed:
			failed++
		}
	}
	fmt.Fprintf(stdout, "hetmemd: drained: %d done, %d canceled, %d failed\n", done, canceled, failed)
	if captureDir != "" {
		if err := writeCaptures(captureDir, sessions, stdout); err != nil {
			fmt.Fprintf(stderr, "hetmemd: %v\n", err)
			httpSrv.Shutdown(context.Background())
			srv.Close()
			<-loopDone
			return 1
		}
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintf(stderr, "hetmemd: shutdown: %v\n", err)
	}
	<-serveErr // Serve has returned ErrServerClosed
	srv.Close()
	<-loopDone
	return 0
}

// writeCaptures flushes every traced session's capture (already
// finished by Drain, so each carries its stats footer) to dir.
func writeCaptures(dir string, sessions []*serve.Session, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, s := range sessions {
		cap := s.TraceCapture()
		if cap == nil {
			continue
		}
		path := filepath.Join(dir, s.ID+".jsonl")
		if err := cap.WriteFile(path); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		n++
	}
	fmt.Fprintf(stdout, "hetmemd: flushed %d trace capture(s) to %s\n", n, dir)
	return nil
}
