package main

import "runtime/debug"

// commit returns the VCS revision the binary was built from, with
// "+dirty" when the tree had uncommitted changes, or "none" when it was
// built outside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "none"
}
