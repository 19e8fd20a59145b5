package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// NewTraceID returns a 16-byte random trace identifier in hex, stamped
// once per generation (the run report's trace_id) and once per daemon
// request (the response's trace_id).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively impossible on supported
		// platforms; degrade to a time-derived ID rather than aborting a
		// run over observability.
		return fmt.Sprintf("t%032x", uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}
