package lint

// All returns the full hmlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		EncodeParity,
		GoroLeak,
		HandleAccess,
		LockOrder,
		Locksafe,
		OptionsMut,
		SnapshotAlias,
		TierChain,
		WaitLoop,
	}
}

// ByName resolves a comma-separated selection of analyzer names; nil
// names selects all.
func ByName(names []string) ([]*Analyzer, bool) {
	if len(names) == 0 {
		return All(), true
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}
