package rulediff

// ReferenceMatcher exports the string matcher to the system tests.
var ReferenceMatcher = referenceMatcher
