package rulediff

import "strings"

// referenceMatcher is the matcher this package had while record frames
// spelt their dependency tags out: the invalidation rule stated on
// strings. A bare table name matches every tag of that table (the tag's
// part before its '#', as rules.TagTable cuts it); a full tag matches
// only itself. Matcher, which reads tags as journal.Tag hashes, must
// decide as it does wherever no two of the strings involved collide, and
// retire a superset where they do.
func referenceMatcher(invalid []string) func(tag string) bool {
	exact := map[string]bool{}
	tables := map[string]bool{}
	for _, t := range invalid {
		if strings.ContainsRune(t, '#') {
			exact[t] = true
		} else {
			tables[t] = true
		}
	}
	return func(tag string) bool {
		table, _, _ := strings.Cut(tag, "#")
		return exact[tag] || tables[table]
	}
}
