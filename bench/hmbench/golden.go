package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hetmem/hetmem/internal/exp"
)

// goldenPath is where the fixed-input workloads' virtual results live,
// relative to the repository root.
const goldenPath = "bench/golden.json"

// goldenFor returns the rows a workload's warm-up pass must reproduce,
// or nil when only the invariants apply (serve-mix on a seed other than
// X13's). serve-mix is held to the load rows committed in
// BENCH_serve.json; the other workloads to bench/golden.json.
func goldenFor(w *workload, root string, seed int64) ([]row, error) {
	if w.seeded && seed != defaultSeed {
		return nil, nil
	}
	if w.name == "serve-mix" {
		raw, err := os.ReadFile(filepath.Join(root, "BENCH_serve.json"))
		if err != nil {
			return nil, err
		}
		var b exp.X13Bench
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("BENCH_serve.json: %w", err)
		}
		return serveRows(b), nil
	}
	raw, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, err
	}
	var all map[string][]row
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	rows, ok := all[w.name]
	if !ok {
		return nil, fmt.Errorf("%s has no rows for %s", goldenPath, w.name)
	}
	return rows, nil
}

// writeGolden regenerates bench/golden.json from one pass of each
// fixed-input workload at its benchmark scale.
func writeGolden(root string) error {
	all := map[string][]row{}
	for _, w := range workloads {
		if w.seeded {
			continue
		}
		inst, err := w.open(w.scale, defaultSeed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res := runPass(inst.pass, nil).res
		if res.failed > 0 {
			return fmt.Errorf("%s: %v", w.name, res.problems)
		}
		all[w.name] = res.rows
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, goldenPath), append(raw, '\n'), 0o644)
}
