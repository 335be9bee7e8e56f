// Package lintfixture exercises the determinism analyzer's package-state
// check: in the simulation packages a package-level variable may be
// written only by its initialiser.
package lintfixture

import (
	"errors"

	"github.com/hetmem/hetmem/internal/core"
)

var (
	runs    int
	elapsed float64
	byName  = map[string]int{}
	order   = make([]string, 2)

	// Read-only tables and error values, read below.
	modeNames = [...]string{"naive", "single"}
	errGone   = errors.New("gone")
)

func writes(name string, n int) {
	runs = n                  // want `write to package-level variable runs outside its initialiser`
	elapsed += float64(n)     // want `write to package-level variable elapsed outside its initialiser`
	runs++                    // want `write to package-level variable runs outside its initialiser`
	byName[name] = n          // want `write to package-level variable byName outside its initialiser`
	order[0] = name           // want `write to package-level variable order outside its initialiser`
	core.DeclOrder = core.LRU // want `write to package-level variable DeclOrder outside its initialiser`
}

// reads of read-only tables, another package's policy singletons and
// error values stay legal.
func reads(i int, err error) (string, core.EvictPolicy, bool) {
	return modeNames[i], core.Lookahead, errors.Is(err, errGone)
}

// locals may share a package variable's name.
func locals() int {
	runs := 1
	runs++
	byName := map[string]int{}
	byName["a"] = runs
	return byName["a"]
}
