// hmlint is the multichecker driver for the domain-specific analyzer
// suite in internal/lint: it mechanically enforces the staging
// protocol's lock discipline (locksafe), the declared-dependence access
// modes of the kernel API (handleaccess), the determinism rules behind
// the byte-identical experiment tables (determinism), the
// Options/Validate lifecycle (optionsmut), and the interprocedural
// invariants added with the facts layer: lock-order acyclicity
// (lockorder), condvar wait shape (waitloop), goroutine lifecycles
// (goroleak), tier-chain addressing (tierchain), fast-encoder field
// coverage (encodeparity) and snapshot-accessor copying
// (snapshotalias).
//
// Usage:
//
//	hmlint [-checks determinism,locksafe] [-json] [-list] [packages]
//
// With no package patterns it analyses ./... in the current directory.
// Exit status: 0 when clean, 1 when any finding is reported, 2 on
// loader/usage errors. Findings print as
//
//	file:line:col: message [analyzer]
//
// or, with -json, as a JSON array of {file, line, col, message,
// analyzer} objects (in that key order, matching the struct
// declaration) for CI artifact consumption. Findings can be suppressed
// at the site with an inline justification:
//
//	//hmlint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hetmem/hetmem/internal/lint"
)

// jsonFinding is the -json wire shape of one finding. encoding/json
// emits object keys in struct declaration order, so the artifact
// format is stable by construction.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	dir := flag.String("dir", ".", "directory to resolve package patterns in")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hmlint [-checks a,b] [-json] [-list] [-dir d] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	analyzers, ok := lint.ByName(names)
	if !ok {
		fmt.Fprintf(os.Stderr, "hmlint: unknown analyzer in -checks %q\n", *checks)
		os.Exit(2)
	}

	pkgs, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	if *asJSON {
		// Always an array — an empty tree yields [], not null, so
		// artifact consumers can parse unconditionally.
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
				Analyzer: d.Analyzer,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "hmlint: encoding findings: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
