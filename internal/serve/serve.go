// Package serve turns the single-workload runtime into a multi-tenant
// service: many workload sessions, each an isolated engine + machine +
// manager built from one shared machine spec, scheduled in lockstep on
// a shared virtual clock with per-tenant HBM budgets, admission
// control and weighted-fair sharing of the IO staging fabric.
//
// The design splits into two layers:
//
//   - Scheduler (scheduler.go) is the deterministic core: a session
//     registry + job store (submit -> queued -> running -> done /
//     failed / canceled), budget accounting, a FIFO admission queue
//     and the windowed lockstep step loop. It is single-threaded and
//     uses only virtual time, so any fixed submission sequence yields
//     a byte-identical outcome.
//
//   - Server (server.go) is the HTTP/JSON front end: it serialises
//     handler access to the scheduler behind one mutex, drives the
//     step loop, and implements graceful drain (503 on submit, cancel
//     queued, finish running, flush trace captures with their stats
//     footer).
//
// Budget enforcement point: a session's machine is built with
// HBMCap equal to its granted footprint, so the manager's existing
// reservation path (reserve / consumeReservation /
// refundReservation, audited by internal/audit) enforces the grant —
// serve never second-guesses the manager, it only sizes the machine.
//
// IO fairness point: every migration memcpy reads the allocator's
// MemcpyRateCap when its flow starts. The scheduler re-divides the
// shared fabric bandwidth between the running sessions at each window
// boundary (lanes.go), so a grant persists for in-flight transfers and
// changes take effect on the next migration — deterministic, and no
// locks anywhere near the staging hot path.
package serve

import (
	"errors"
	"fmt"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// Submission and lifecycle errors surfaced by the scheduler; the HTTP
// layer maps them to status codes.
var (
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("serve: draining, not accepting submissions")
	// ErrQueueFull rejects submissions when the admission queue is at
	// capacity (503).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrOverBudget rejects sessions whose declared footprint can
	// never fit the tenant's (or the machine's) HBM budget (422).
	ErrOverBudget = errors.New("serve: declared footprint exceeds budget")
	// ErrUnknownSession is returned for lookups of ids never issued
	// (404).
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrFinished is returned for cancels of already-finished
	// sessions (409).
	ErrFinished = errors.New("serve: session already finished")
)

// TenantConfig declares one tenant's share of the machine.
type TenantConfig struct {
	// Name identifies the tenant in submissions.
	Name string `json:"name"`
	// Budget is the HBM bytes the tenant's running sessions may hold
	// in aggregate. Zero means the scheduler's DefaultBudget.
	Budget int64 `json:"budget"`
	// Weight is the tenant's share of the IO staging fabric under
	// fair sharing. Zero means 1.
	Weight int `json:"weight"`
}

// Config parameterises a Scheduler (and therefore a Server).
type Config struct {
	// Spec is the shared machine model. Every session gets its own
	// simulated machine built from this spec with HBMCap cut down to
	// the session's granted footprint.
	Spec topology.MachineSpec
	// NumPEs is the worker count of every session's runtime.
	NumPEs int
	// Reserve is global HBM headroom never granted to sessions.
	Reserve int64
	// Window is the scheduling quantum of virtual time: admission,
	// completion detection and IO-share recomputation happen at
	// window boundaries. Default 5e-3 s.
	Window sim.Time
	// Lanes is the number of IO staging lanes the weighted-fair
	// scheduler distributes each window. Default 8.
	Lanes int
	// Fair selects per-tenant weighted-fair IO sharing. When false,
	// the fabric is split per running session (max-min per migration
	// stream), which is what a tenancy-unaware runtime would do — a
	// tenant flooding sessions grabs bandwidth proportional to its
	// session count.
	Fair bool
	// Audit attaches the invariant auditor to every session manager
	// and checks conservation at session completion.
	Audit bool
	// MaxQueue bounds the admission queue. Default 64.
	MaxQueue int
	// DefaultBudget is the HBM budget for tenants first seen at
	// submit time (not pre-registered). Default: a quarter of the
	// grantable budget.
	DefaultBudget int64
	// BaseSeed offsets every session's engine seed (session i runs
	// with seed BaseSeed+i). Default 1.
	BaseSeed int64
	// Tenants pre-registers tenants in a deterministic order.
	Tenants []TenantConfig
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() (Config, error) {
	if err := c.Spec.Validate(); err != nil {
		return c, fmt.Errorf("serve: machine spec: %w", err)
	}
	if c.NumPEs <= 0 {
		return c, fmt.Errorf("serve: config needs PEs")
	}
	if c.Reserve < 0 || c.Reserve >= c.Spec.HBMCap {
		return c, fmt.Errorf("serve: reserve %d outside [0, HBMCap)", c.Reserve)
	}
	if c.Window == 0 {
		c.Window = 5e-3
	}
	if c.Window <= 0 {
		return c, fmt.Errorf("serve: window must be positive")
	}
	if c.Lanes == 0 {
		c.Lanes = 8
	}
	if c.Lanes < 0 {
		return c, fmt.Errorf("serve: lanes must be positive")
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = (c.Spec.HBMCap - c.Reserve) / 4
	}
	if c.DefaultBudget <= 0 {
		return c, fmt.Errorf("serve: default tenant budget must be positive")
	}
	return c, nil
}

// tenant is the scheduler's accounting record for one tenant.
type tenant struct {
	name   string
	budget int64
	weight int

	granted   int64 // bytes held by running sessions
	running   int   // running session count
	admitted  int64 // sessions ever admitted
	completed int64 // sessions finished as Done
	rejected  int64 // submissions refused outright

	// makespans collects finished sessions' (finish - arrival)
	// durations for the stats endpoint, in completion order.
	makespans []float64

	// warm is the converged option set of the tenant's most recently
	// finished adaptive session. The next Adapt submission seeds its
	// controller from it (adapt.Config.Warm), skipping the probe
	// phase — cross-session warm start. Only the retunable knobs are
	// ever applied, so a different footprint or audit setting on the
	// next session cannot invalidate it.
	warm *core.Options
}
