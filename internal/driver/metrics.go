package driver

import "repro/internal/obs"

// mCaseLatencyNS is the per-test-case wall-clock histogram (send to
// verdict, retries included; nanoseconds, log2 buckets): one sample per
// transmitted case, so skipped and short-circuited cases have none. The
// verdict counts themselves are the Report's, the link faults the
// LinkStats'.
var mCaseLatencyNS = obs.GetHistogram("driver.case_latency_ns")
